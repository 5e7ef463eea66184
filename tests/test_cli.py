"""CLI behavior: config handling, command wiring, exit codes, artifacts."""

import builtins
import contextlib
import importlib.util
import io
import os
import re
import shutil
import struct
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedepth import cli
from spikedepth import events as ev
from spikedepth import kv
from spikedepth import model as md
from spikedepth import neurons as nr
from spikedepth import synth as sy
from spikedepth import tensor as tz
from spikedepth.cli import (INPUT_ERRORS, RunConfig, main, parse_run_config,
                            serialize_run_config)
from helpers import if_run_stepwise, load_tensor, neumaier_sum, serialize_scene_spec


def scene_spec(**kw):
    args = dict(seed=5, height=16, width=16, n_windows=4, window_len_us=50000,
                camera_velocity=80.0, contrast_threshold=0.4, baseline_px=4.0)
    args.update(kw)
    h, w = args["height"], args["width"]
    planes = (sy.PlaneSpec(1.0, 0, 0, w, h // 2, 8.0),
              sy.PlaneSpec(2.0, 0, h // 2, w, h - h // 2, 8.0))
    return sy.SceneSpec(planes=planes, **args)


def write_cfg(path, **overrides):
    cfg = replace(RunConfig(height=16, width=16, base_channels=2, layers=2,
                            epochs=3, ssi_sign="plus"), **overrides)
    with open(path, "w") as fh:
        fh.write(serialize_run_config(cfg))
    return cfg


def read_text(path):
    with open(path, "r") as fh:
        return fh.read()


def log_values(text, key):
    out = []
    for line in text.split("\n"):
        for tok in line.split():
            if tok.startswith(key + "="):
                out.append(tok[len(key) + 1:])
    return out


def assert_error(capsys, message):
    """The command wrote nothing to stdout and exactly `error: message` to stderr."""
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % message)


# ---------------------------------------------------------------------------
# config file handling


def test_dump_config_prints_defaults(capsys):
    assert main(["train", "--dump-config"]) == 0
    dump = capsys.readouterr().out
    assert parse_run_config(dump) == RunConfig()


def test_dump_config_roundtrips_overrides(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("attention = SC\nlearning_rate = 0.01\n"
                    "milestone_fractions = 0.25, 0.5, 0.75\nbinarize = true\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 0
    dump = capsys.readouterr().out
    cfg = parse_run_config(dump)
    assert cfg.attention == "CS"  # canonical order
    assert cfg.learning_rate == 0.01
    assert cfg.milestone_fractions == (0.25, 0.5, 0.75)
    assert cfg.binarize is True
    # a dumped config re-ingests to the identical dump
    path2 = tmp_path / "again.cfg"
    path2.write_text(dump)
    assert main(["train", "--config", str(path2), "--dump-config"]) == 0
    assert capsys.readouterr().out == dump


@pytest.mark.parametrize("flag, value", [("--data", "runs/a#b"), ("--out", "out dir "),
                                         ("--data", " runs/a"), ("--out", "out\ndir"),
                                         ("--data", "runs\r/a")])
def test_dump_config_refuses_a_string_that_would_not_read_back(flag, value, capsys):
    # `#` starts a comment and the reader strips each value and splits lines,
    # so such a value would come back changed
    assert main(["train", "--dump-config", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_train_takes_paths_a_config_file_could_not_hold(tmp_path, dataset, capsys):
    data = str(tmp_path / "runs#1")
    shutil.copytree(dataset, data)
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, epochs=1)
    out = str(tmp_path / "out #1 ")
    assert main(["--quiet", "train", "--config", cfg_path, "--data", data, "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "last.spkc"))
    capsys.readouterr()


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("frobnicate = 1\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_rejects_bad_values(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = three\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 2
    path.write_text("binarize = yes\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 2
    path.write_text("epochs = 5\nepochs = 6\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 2
    path.write_text("in_channels = 3\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 2
    capsys.readouterr()


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nseed = 3  # trailing\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 0


@pytest.mark.parametrize("bad", [
    {"lambda_reg": "-1"},
    {"adam_beta1": "1.5"},
    {"adam_beta2": "-0.1"},
    {"learning_rate": "nan"},
    {"learning_rate": "inf"},
    {"adam_eps": "nan"},
    {"seed": "-1"},
    {"v_threshold": "0.5", "v_reset": "1.0"},
    {"surrogate_alpha": "0"},
    {"epochs": "0"},
    {"reduction": "3"},
])
def test_config_training_would_reject_fails_at_parse(tmp_path, dataset, bad, capsys):
    path = tmp_path / "run.cfg"
    write_cfg(str(path), data_dir=dataset, out_dir=str(tmp_path / "out"))
    lines = [line for line in path.read_text().split("\n")
             if line.partition(" = ")[0] not in bad]
    path.write_text("\n".join(lines + ["%s = %s" % item for item in bad.items()]) + "\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 2
    assert main(["--quiet", "train", "--config", str(path)]) == 2
    assert sorted(bad)[0] in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "out" / "train.log"))


def test_multiscale_config_takes_the_sensor_geometry(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("height = 260\nwidth = 346\nmultiscale_loss = true\n")
    assert main(["train", "--config", str(path), "--dump-config"]) == 0
    assert parse_run_config(capsys.readouterr().out) == RunConfig(
        height=260, width=346, multiscale_loss=True)


def test_dump_config_takes_the_seed_flag(capsys):
    assert main(["train", "--dump-config", "--seed", "7"]) == 0
    assert "\nseed = 7\n" in "\n" + capsys.readouterr().out


def test_readme_config_table_lists_every_key():
    # and gives each key its RunConfig default, as --dump-config prints it
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Run config")[1].split("\n## ")[0]
    keys = []
    for line in section.split("\n"):
        if line.startswith("| `"):
            key_cell, default_cell = line.split("|")[1:3]
            row = key_cell.split("`")[1::2]
            want = [kv.format_value(getattr(RunConfig(), key)) for key in row]
            if default_cell.strip() == "empty":
                assert want == [""] * len(row), key_cell
            else:
                assert default_cell.split("`")[1::2] == want, key_cell
            keys += row
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


# ---------------------------------------------------------------------------
# synth and stack


def test_synth_prints_manifest_and_is_deterministic(tmp_path, capsys):
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(serialize_scene_spec(scene_spec()))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "a" / "manifest.txt")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("manifest.txt", "events_left.csv", "events_right.csv", "gt_0000.txt"):
        assert read_text(str(tmp_path / "a" / name)) == read_text(str(tmp_path / "b" / name))


def test_synth_seed_flag_overrides_spec(tmp_path, capsys):
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(serialize_scene_spec(scene_spec()))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["--seed", "99", "synth", "--spec", str(spec_path),
                 "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    assert read_text(str(tmp_path / "a" / "events_left.csv")) != \
        read_text(str(tmp_path / "c" / "events_left.csv"))


def test_seed_and_quiet_also_follow_the_subcommand(tmp_path, capsys):
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(serialize_scene_spec(scene_spec()))
    assert main(["--seed", "99", "synth", "--spec", str(spec_path),
                 "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "b"),
                 "--seed", "99", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert read_text(str(tmp_path / "a" / "events_left.csv")) == \
        read_text(str(tmp_path / "b" / "events_left.csv"))


def test_synth_overlap_is_exit_2(tmp_path, capsys):
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text("height = 4\nwidth = 4\n"
                         "plane.0 = 1.0, 0, 0, 4, 3, 2.0\n"
                         "plane.1 = 2.0, 0, 2, 4, 2, 2.0\n")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    assert "overlap at (x=0, y=2)" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("camera_velocity = 80.0", "camera_velocity = nan"),
    ("contrast_threshold = 0.4", "contrast_threshold = nan"),
    ("noise_rate_hz = 0.0", "noise_rate_hz = nan"),
    ("baseline_px = 4.0", "baseline_px = inf"),
    ("plane.0 = 1.0,", "plane.0 = nan,"),
    ("plane.1 =", "plane.\u00b2 ="),
    ("seed = 5", "seed = -1"),
    ("baseline_px = 4.0", "baseline_px = 1e300"),
    # more events than an array can hold: a traceback, a loop that never ends or
    # a run out of memory without the check
    pytest.param("camera_velocity = 80.0\ncontrast_threshold = 0.4\nbaseline_px = 4.0\n"
                 "noise_rate_hz = 0.0\nplane.0 = 1.0,",
                 "camera_velocity = 1e308\ncontrast_threshold = 0.4\nbaseline_px = 0.0\n"
                 "noise_rate_hz = 0.0\nplane.0 = 1e-10,",
                 id="camera_velocity = 1e308-plane.0 depth = 1e-10"),
    ("camera_velocity = 80.0", "camera_velocity = 1e308"),
    ("contrast_threshold = 0.4", "contrast_threshold = 1e-300"),
    ("plane.0 = 1.0, 0, 0, 16, 8, 8.0", "plane.0 = 1.0, 0, 0, 16, 8, 1e-300"),
    ("noise_rate_hz = 0.0", "noise_rate_hz = 1e300"),
])
def test_synth_bad_spec_value_is_exit_2(tmp_path, old, new, capsys):
    text = serialize_scene_spec(scene_spec())
    assert old in text
    spec_path = tmp_path / "scene.spec"
    spec_path.write_text(text.replace(old, new))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_synth_over_the_event_budget_is_exit_2_at_once(tmp_path, capsys):
    # about 3.8e11 events per eye: without the budget synth runs for hours
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text("height = 8\nwidth = 8\nn_windows = 1\nbaseline_px = 2.0\n"
                         "contrast_threshold = 1e-9\nplane.0 = 1.0, 0, 0, 8, 8, 8.0\n")
    start = time.perf_counter()
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err
    assert not (tmp_path / "d").exists()


ZEROS = np.zeros


def refuse_large_zeros(shape, *args, **kw):
    # stands in for an allocation this host cannot hold, so no test asks for TiBs
    if np.prod(shape, dtype=np.float64) > 2 ** 26:
        raise MemoryError("Unable to allocate an array of shape %s" % (shape,))
    return ZEROS(shape, *args, **kw)


def test_synth_frame_past_the_event_budget_is_exit_2_at_once(tmp_path, capsys):
    # planes that tile a 1000000x1000000 frame fire at least 2e12 events; the
    # spec is refused at once, before any work per pixel
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text("height = 1000000\nwidth = 1000000\nplane.0 = 1.0, 0, 0, 8, 8, 8.0\n")
    with mock.patch.object(np, "zeros", refuse_large_zeros):
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err
    assert not (tmp_path / "d").exists()


def input_error_classes(cls=tz.InputError):
    """Every class below cls, however deep, so a new one is covered unlisted."""
    for sub in cls.__subclasses__():
        yield sub
        yield from input_error_classes(sub)


def test_every_bad_input_error_derives_from_input_error():
    assert {c.__name__ for c in input_error_classes()} >= {
        "ArgumentError", "DimensionError", "ParseError", "OrderingError", "BoundsError",
        "AlignmentError", "ValidationError", "MetricError"}


def raise_in_synth(monkeypatch, error):
    def cmd(args):
        raise error("raised inside the command")
    monkeypatch.setattr(cli, "cmd_synth", cmd)
    return ["synth", "--spec", "scene.txt", "--out", "d"]


@pytest.mark.parametrize("error", list(input_error_classes()), ids=lambda c: c.__name__)
def test_input_error_raised_in_a_command_is_exit_2(monkeypatch, capsys, error):
    assert main(raise_in_synth(monkeypatch, error)) == 2
    assert capsys.readouterr().err == "error: raised inside the command\n"


def test_state_error_propagates_out_of_main(monkeypatch):
    # tape misuse and a missing gradient are programming errors, not bad input
    with pytest.raises(tz.StateError):
        main(raise_in_synth(monkeypatch, tz.StateError))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    sy.write_dataset(scene_spec(), str(root))
    return str(root)


def test_stack_mono_and_stereo_shapes(dataset, tmp_path, capsys):
    mono = str(tmp_path / "mono.spkt")
    assert main(["stack", "--events", os.path.join(dataset, "events_left.csv"),
                 "--T", "5", "--window-ms", "50", "--height", "16", "--width", "16",
                 "--out", mono]) == 0
    assert capsys.readouterr().out == "shape = 5 2 16 16\n"
    assert load_tensor(mono).shape == (5, 2, 16, 16)

    stereo = str(tmp_path / "stereo.spkt")
    assert main(["stack", "--events", os.path.join(dataset, "events_left.csv"),
                 "--events-right", os.path.join(dataset, "events_right.csv"),
                 "--T", "5", "--window-ms", "50", "--height", "16", "--width", "16",
                 "--out", stereo]) == 0
    capsys.readouterr()
    assert load_tensor(stereo).shape == (5, 4, 16, 16)


def test_stack_repeat_equals_cumulative_at_t1(dataset, tmp_path, capsys):
    paths = []
    for mode in ("cumulative", "repeat"):
        out = str(tmp_path / (mode + ".spkt"))
        assert main(["stack", "--events", os.path.join(dataset, "events_left.csv"),
                     "--T", "1", "--window-ms", "50", "--height", "16",
                     "--width", "16", "--mode", mode, "--out", out]) == 0
        paths.append(out)
    capsys.readouterr()
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_stack_binarize_gives_binary_values(dataset, tmp_path, capsys):
    out = str(tmp_path / "bin.spkt")
    assert main(["stack", "--events", os.path.join(dataset, "events_left.csv"),
                 "--T", "5", "--window-ms", "50", "--height", "16", "--width", "16",
                 "--binarize", "--out", out]) == 0
    capsys.readouterr()
    data = load_tensor(out)
    assert set(np.unique(data)) <= {0.0, 1.0}
    assert data.sum() > 0


def refuse_bincount(flat, minlength):
    # stands in for the allocation numpy refuses, so no test asks for TiBs
    raise MemoryError("Unable to allocate %d bytes for an array of %d counts"
                      % (8 * minlength, minlength))


@pytest.mark.parametrize("flags,message", [
    (["--height", "4611686018427387904"], "exceeds numpy's largest array"),
    (["--window-start", "100000000000000000000"], "leaves int64 range"),
    (["--window-start", "-9223372036854775809"], "leaves int64 range"),
    (["--window-start", "9223372036854775000"], "leaves int64 range"),
    (["--window-ms", "9223372036854775"], "leaves int64 range"),
    (["--height", "100000000000000"], "Unable to allocate"),
])
def test_stack_arguments_numpy_cannot_hold_are_exit_2(dataset, tmp_path, flags, message,
                                                       capsys):
    out = str(tmp_path / "x.spkt")
    argv = ["stack", "--events", os.path.join(dataset, "events_left.csv"),
            "--T", "5", "--out", out] + flags
    with mock.patch.object(ev.np, "bincount", refuse_bincount):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not os.path.exists(out)


def test_stack_zero_height_is_exit_2(dataset, tmp_path, capsys):
    out = str(tmp_path / "x.spkt")
    assert main(["stack", "--events", os.path.join(dataset, "events_left.csv"),
                 "--T", "5", "--height", "0", "--out", out]) == 2
    assert_error(capsys, "geometry must be positive, got 0x64")
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# train / eval


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset):
    root = tmp_path_factory.mktemp("run")
    cfg_path = str(root / "run.cfg")
    write_cfg(cfg_path, epochs=4, data_dir=dataset, out_dir=str(root / "out"))
    code = main(["--quiet", "train", "--config", cfg_path])
    assert code == 0
    return {"out": str(root / "out"), "cfg": cfg_path,
            "log": read_text(str(root / "out" / "train.log"))}


def test_train_lr_trace_follows_milestones(trained):
    # epochs=4, milestones 0.5/0.75 -> halve at epochs 2 and 3
    lrs = []
    for epoch in range(4):
        for line in trained["log"].split("\n"):
            if line.startswith("step=") and (" epoch=%d " % epoch) in line:
                lrs.append(float(log_values(line, "lr")[0]))
                break
    assert lrs == [0.002, 0.002, 0.001, 0.0005]


def test_train_writes_checkpoints_and_final_line(trained):
    assert os.path.isfile(os.path.join(trained["out"], "last.spkc"))
    assert os.path.isfile(os.path.join(trained["out"], "best.spkc"))
    assert log_values(trained["log"], "total_steps") == ["16"]
    assert len(log_values(trained["log"], "final_mde_cm")) == 1


def test_train_loss_decreases(trained):
    losses = [float(v) for v in log_values(trained["log"], "loss")]
    assert losses[-1] < losses[0]


def test_train_is_deterministic(tmp_path, dataset, trained, capsys):
    cfg_path = str(tmp_path / "again.cfg")
    write_cfg(cfg_path, epochs=4, data_dir=dataset, out_dir=str(tmp_path / "out"))
    assert main(["--quiet", "train", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert read_text(str(tmp_path / "out" / "train.log")) == trained["log"]
    with open(os.path.join(trained["out"], "last.spkc"), "rb") as a:
        first = a.read()
    with open(str(tmp_path / "out" / "last.spkc"), "rb") as b:
        assert b.read() == first


def load_workloads():
    """perfbench/workloads.py, which is a script directory and not a package."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["builtin_sum", "neumaier_sum"])
def float_sum(request, monkeypatch):
    """The built-in sum of this Python, or the compensated float sum of 3.12
    and later in its place."""
    if request.param == "neumaier_sum":
        monkeypatch.setattr(builtins, "sum", neumaier_sum)


def test_neumaier_sum_compensates_as_3_12_does():
    # the two examples of Python 3.12's release notes; ints and numpy
    # scalars add as before
    assert neumaier_sum([0.1] * 10) == 1.0 and neumaier_sum([1e100, 1.0, -1e100]) == 1.0
    assert neumaier_sum(range(5)) == 10 and neumaier_sum([], 0.5) == 0.5
    values = [np.float64(0.1)] * 10
    assert neumaier_sum(values) == builtins.sum(values) != 1.0


def test_benchmark_times_the_step_train_runs(tmp_path, dataset, float_sum):
    # the benchmark's train64 and sensor ops are TrainSession.op; run over the
    # same windows and epochs, it must write what train writes, all but
    # train's two closing lines, with either float sum
    cfg_path = str(tmp_path / "run.cfg")
    cfg = write_cfg(cfg_path, epochs=2, val_fraction=0.0, data_dir=dataset,
                    out_dir=str(tmp_path / "train"))
    assert main(["--quiet", "train", "--config", cfg_path]) == 0
    samples = cli.load_windows(dataset, cfg.height, cfg.width, cfg.time_steps,
                               cfg.in_channels, cfg.stack_mode, cfg.binarize)
    bench = tmp_path / "bench"
    bench.mkdir()
    session = load_workloads().TrainSession(cfg, samples,
                                            md.DepthNet(cfg.model_config(), seed=cfg.seed),
                                            str(bench), epoch_end=True)
    for _ in range(cfg.epochs * len(samples)):
        session.op()
        session.between()
    session.close()
    log = (tmp_path / "train" / "train.log").read_bytes().split(b"\n")
    assert log[-3].startswith(b"total_steps=") and log[-1] == b""
    assert (bench / "train.log").read_bytes() == b"\n".join(log[:-3] + [b""])
    for name in ("last.spkc", "best.spkc"):
        assert (bench / name).read_bytes() == (tmp_path / "train" / name).read_bytes()


def test_fused_neurons_train_the_same_bytes_as_the_per_step_oracle(tmp_path, dataset,
                                                                  monkeypatch):
    # DE encoders pass their spikes on, so every spiking population gets a
    # gradient; a low threshold and a nonzero reset level make it fire and
    # give the reset term a gradient
    outputs = []
    for run in ("fused", "per_step"):
        if run == "per_step":
            monkeypatch.setattr(nr, "if_run", if_run_stepwise)
        out = tmp_path / run
        cfg_path = str(tmp_path / (run + ".cfg"))
        write_cfg(cfg_path, epochs=2, encoder_variant="DE", v_threshold=0.5, v_reset=0.25,
                  data_dir=dataset, out_dir=str(out))
        assert main(["--quiet", "train", "--config", cfg_path]) == 0
        outputs.append(((out / "train.log").read_bytes(), (out / "last.spkc").read_bytes()))
    log = outputs[0][0].decode()
    assert max(float(v) for v in log_values(log, "firing_rate_total")) > 0.0
    assert outputs[0] == outputs[1]


def test_eval_reproduces_final_train_mde(tmp_path, capsys, float_sum):
    # one loop gives both numbers; under the compensated sum a += loop in eval
    # and the sum in train end this run's MDE in different last bits
    data = str(tmp_path / "data")
    sy.write_dataset(scene_spec(n_windows=6), data)
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, epochs=2, val_fraction=0.0, seed=1)
    out = str(tmp_path / "out")
    assert main(["--quiet", "train", "--config", cfg_path, "--data", data, "--out", out]) == 0
    final = log_values(read_text(os.path.join(out, "train.log")), "final_mde_cm")[0]
    assert main(["eval", "--model", os.path.join(out, "last.spkc"), "--data", data]) == 0
    report = capsys.readouterr().out
    assert log_values(report, "mde_cm")[0] == final
    assert report.endswith("\n") and [line.split("=")[0] for line in report.split("\n")] == [
        "mde_cm", "loss_ssi", "loss_reg", "loss_total", "firing_rate_encoder",
        "firing_rate_residual", "firing_rate_decoder", "firing_rate_total", ""]


def test_checkpoint_holds_no_optimizer_moments(trained):
    entries = md.load_checkpoint(os.path.join(trained["out"], "last.spkc"))
    assert not [k for k in entries if k.startswith("opt.")]
    assert [k for k in entries if k.startswith("cfg.")][-4:] == [
        "cfg.lambda_reg", "cfg.ssi_sign", "cfg.stack_mode", "cfg.binarize"]


def test_checkpoint_with_optimizer_moments_evaluates_the_same(trained, dataset, tmp_path,
                                                              capsys):
    # checkpoints written before Adam moments were dropped carry opt.* entries
    last = os.path.join(trained["out"], "last.spkc")
    entries = md.load_checkpoint(last)
    older = dict(entries, **{"opt.t": np.float64(16.0)})
    for key in [k for k in entries if k.startswith("param.")]:
        older["opt.m." + key[6:]] = np.full(entries[key].shape, 0.5)
        older["opt.v." + key[6:]] = np.full(entries[key].shape, 0.25)
    md.save_checkpoint(str(tmp_path / "older.spkc"), older)
    reports = []
    for path in (last, str(tmp_path / "older.spkc")):
        assert main(["eval", "--model", path, "--data", dataset]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def with_conv_bias_entries(entries, flag):
    """entries as a checkpoint written with the retired conv_bias flag: its
    cfg entry after cfg.neuron_mode, and with flag 1 a zero bias after every
    3x3 conv weight."""
    out = {}
    for key, value in entries.items():
        out[key] = value
        if key == "cfg.neuron_mode":
            out["cfg.conv_bias"] = np.float64(flag)
        elif flag and re.fullmatch(r"param\.\w+\.conv[12]?", key):
            out[key + "_bias"] = np.zeros(value.shape[0])
    return out


def checkpoint_commands(ckpt, dataset, prefix):
    return (["eval", "--model", ckpt, "--data", dataset],
            ["inspect", "--model", ckpt, "--data", dataset],
            ["--quiet", "predict", "--model", ckpt,
             "--events", os.path.join(dataset, "events_left.csv"),
             "--events-right", os.path.join(dataset, "events_right.csv"),
             "--out", prefix])


def test_checkpoint_with_retired_conv_bias_off_runs_the_same(trained, dataset, tmp_path,
                                                             capsys):
    last = os.path.join(trained["out"], "last.spkc")
    older = str(tmp_path / "older.spkc")
    md.save_checkpoint(older, with_conv_bias_entries(md.load_checkpoint(last), 0))
    outputs = []
    for ckpt, tag in ((last, "now"), (older, "older")):
        prefix = str(tmp_path / tag)
        run = []
        for argv in checkpoint_commands(ckpt, dataset, prefix):
            assert main(argv) == 0
            run.append(capsys.readouterr())
        run += [read_text(prefix + ".txt"), read_text(prefix + ".pgm")]
        outputs.append(run)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("key,index", [
    ("cfg.encoder_variant", 5), ("cfg.encoder_variant", -1), ("cfg.ssi_sign", 2),
    ("cfg.ssi_sign", -1), ("cfg.stack_mode", 0.5), ("cfg.attention", 8),
])
def test_checkpoint_choice_index_out_of_range_is_exit_2(trained, dataset, tmp_path,
                                                         key, index, capsys):
    entries = md.load_checkpoint(os.path.join(trained["out"], "last.spkc"))
    entries[key] = np.float64(index)
    md.save_checkpoint(str(tmp_path / "bad.spkc"), entries)
    assert main(["eval", "--model", str(tmp_path / "bad.spkc"), "--data", dataset]) == 2
    assert key in capsys.readouterr().err


def test_load_model_rejects_mismatched_config_before_building(trained, dataset, tmp_path,
                                                             monkeypatch, capsys):
    entries = md.load_checkpoint(os.path.join(trained["out"], "last.spkc"))
    entries["cfg.layers"] = np.float64(40.0)
    md.save_checkpoint(str(tmp_path / "deep.spkc"), entries)

    def build(*args, **kwargs):
        raise AssertionError("a 40-layer DepthNet was built")

    monkeypatch.setattr(md, "DepthNet", build)
    assert main(["eval", "--model", str(tmp_path / "deep.spkc"), "--data", dataset]) == 2
    assert capsys.readouterr().err == "error: checkpoint lacks parameter 'enc2.conv'\n"


def test_unknown_parameter_is_exit_2(trained, dataset, tmp_path, capsys):
    # a checkpoint written with the retired conv_bias = 1 holds bias weights
    entries = with_conv_bias_entries(
        md.load_checkpoint(os.path.join(trained["out"], "last.spkc")), 1)
    ckpt = str(tmp_path / "extra.spkc")
    md.save_checkpoint(ckpt, entries)
    prefix = str(tmp_path / "p")
    for argv in checkpoint_commands(ckpt, dataset, prefix):
        assert main(argv) == 2
        assert capsys.readouterr() == \
            ("", "error: checkpoint has unknown parameter 'enc0.conv_bias'\n")
    assert not os.path.exists(prefix + ".pgm")


@pytest.mark.parametrize("command", ["eval", "inspect", "predict"])
def test_unknown_config_entry_is_exit_2(trained, dataset, tmp_path, command, capsys):
    entries = md.load_checkpoint(os.path.join(trained["out"], "last.spkc"))
    entries["cfg.layerz"] = np.float64(7.0)
    ckpt = str(tmp_path / "stray.spkc")
    md.save_checkpoint(ckpt, entries)
    prefix = str(tmp_path / "p")
    argv = {"eval": ["eval", "--model", ckpt, "--data", dataset],
            "inspect": ["inspect", "--model", ckpt, "--data", dataset],
            "predict": ["predict", "--model", ckpt,
                        "--events", os.path.join(dataset, "events_left.csv"),
                        "--events-right", os.path.join(dataset, "events_right.csv"),
                        "--out", prefix]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: checkpoint has unknown config entry 'cfg.layerz'\n"
    assert not os.path.exists(prefix + ".pgm")


def test_eval_ignores_the_window_length_entry(trained, dataset, tmp_path, capsys):
    last = os.path.join(trained["out"], "last.spkc")
    entries = md.load_checkpoint(last)
    entries["train.window_len_us"] = np.float64("nan")
    md.save_checkpoint(str(tmp_path / "nan.spkc"), entries)
    reports = []
    for path in (last, str(tmp_path / "nan.spkc")):
        assert main(["eval", "--model", path, "--data", dataset]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-50000", "0.5"])
def test_predict_bad_window_length_entry_is_exit_2(trained, dataset, tmp_path, value,
                                                   capsys):
    entries = md.load_checkpoint(os.path.join(trained["out"], "last.spkc"))
    entries["train.window_len_us"] = np.float64(value)
    md.save_checkpoint(str(tmp_path / "bad.spkc"), entries)
    assert main(["predict", "--model", str(tmp_path / "bad.spkc"),
                 "--events", os.path.join(dataset, "events_left.csv"),
                 "--events-right", os.path.join(dataset, "events_right.csv"),
                 "--out", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "train.window_len_us" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_predict_window_len_flag_must_be_positive(trained, dataset, tmp_path, value,
                                                  capsys):
    # 0 is a value, not "absent": it must not fall back to the checkpoint's window
    prefix = str(tmp_path / "p")
    assert main(["predict", "--model", os.path.join(trained["out"], "last.spkc"),
                 "--events", os.path.join(dataset, "events_left.csv"),
                 "--events-right", os.path.join(dataset, "events_right.csv"),
                 "--window-len", value, "--out", prefix]) == 2
    assert capsys.readouterr().err == "error: window_len must be >= 1, got %s\n" % value
    assert not os.path.exists(prefix + ".pgm")


def test_predict_needs_a_window_length(fuzz_dir, dataset, tmp_path, capsys):
    # the fuzz checkpoint holds a model and no train.* entries
    prefix = str(tmp_path / "p")
    assert main(["predict", "--model", str(fuzz_dir / "model.spkc"),
                 "--events", os.path.join(dataset, "events_left.csv"),
                 "--events-right", os.path.join(dataset, "events_right.csv"),
                 "--out", prefix]) == 2
    assert_error(capsys, "pass --window-len or use a checkpoint that records one")
    assert not os.path.exists(prefix + ".pgm")


def test_checkpoint_without_a_model_config_entry_is_exit_2(fuzz_dir, dataset, tmp_path,
                                                          capsys):
    entries = md.load_checkpoint(str(fuzz_dir / "model.spkc"))
    del entries["cfg.layers"]
    ckpt = str(tmp_path / "no_layers.spkc")
    md.save_checkpoint(ckpt, entries)
    assert main(["eval", "--model", ckpt, "--data", dataset]) == 2
    assert_error(capsys, "checkpoint lacks 'cfg.layers'")


def test_predict_max_depth_must_be_positive_and_finite(trained, dataset, tmp_path, capsys):
    ckpt = os.path.join(trained["out"], "last.spkc")
    for value in ("nan", "inf", "0", "-1"):
        prefix = str(tmp_path / ("p" + value))
        assert main(["predict", "--model", ckpt,
                     "--events", os.path.join(dataset, "events_left.csv"),
                     "--events-right", os.path.join(dataset, "events_right.csv"),
                     "--max-depth", value, "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --max-depth") and err.count("\n") == 1
        assert not os.path.exists(prefix + ".pgm")


def test_non_finite_parameter_is_exit_2(trained, dataset, tmp_path, capsys):
    entries = md.load_checkpoint(os.path.join(trained["out"], "last.spkc"))
    for bad in (np.nan, np.inf):
        entries["param.dec1.conv"] = entries["param.dec1.conv"].copy()
        entries["param.dec1.conv"].flat[3] = bad
        ckpt = str(tmp_path / "bad.spkc")
        md.save_checkpoint(ckpt, entries)
        prefix = str(tmp_path / "p")
        for argv in (["eval", "--model", ckpt, "--data", dataset],
                     ["predict", "--model", ckpt,
                      "--events", os.path.join(dataset, "events_left.csv"),
                      "--events-right", os.path.join(dataset, "events_right.csv"),
                      "--out", prefix]):
            assert main(argv) == 2
            assert capsys.readouterr().err == \
                "error: parameter 'dec1.conv' holds a non-finite value\n"
        assert not os.path.exists(prefix + ".pgm")


def test_quiet_train_stdout_is_empty(trained, capsys):
    # the trained fixture ran with --quiet; nothing should have printed
    out, _ = capsys.readouterr()
    assert "step=" not in out


def test_train_echoes_log_to_stdout(tmp_path, dataset, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, epochs=1, data_dir=dataset, out_dir=str(tmp_path / "out"))
    assert main(["train", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert out == read_text(str(tmp_path / "out" / "train.log"))


def test_train_geometry_mismatch_is_exit_2(tmp_path, dataset, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, height=32, width=32, data_dir=dataset,
              out_dir=str(tmp_path / "out"))
    assert main(["train", "--config", cfg_path]) == 2
    assert "16x16" in capsys.readouterr().err


def test_train_bad_divisibility_is_exit_2(tmp_path, dataset, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, time_steps=7, data_dir=dataset, out_dir=str(tmp_path / "out"))
    assert main(["train", "--config", cfg_path]) == 2
    assert "divisible" in capsys.readouterr().err


def test_train_requires_dirs(tmp_path, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path)
    assert main(["train", "--config", cfg_path]) == 2
    assert "--data" in capsys.readouterr().err


def test_train_needs_a_config_or_dump_config(capsys):
    assert main(["train"]) == 2
    assert_error(capsys, "train needs --config (or --dump-config for defaults)")


def test_train_needs_an_out_dir(tmp_path, dataset, capsys):
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, data_dir=dataset)
    assert main(["train", "--config", cfg_path]) == 2
    assert_error(capsys, "no output directory: set out_dir in the config or pass --out")


@pytest.mark.parametrize("edit, message", [
    (lambda text: re.sub(r"\n(window|gt)\.\d+ = [^\n]*", "", text).replace(
        "\nn_windows = 4\n", "\nn_windows = 0\n"), "dataset has no windows"),
    (lambda text: text.replace("\nbinocular = true\n", "\nbinocular = false\n"),
     "4-channel input needs a binocular dataset with right-camera events"),
], ids=["no_windows", "monocular"])
def test_train_refuses_a_dataset_it_cannot_train_on(tmp_path, dataset, edit, message, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, str(data))
    manifest = data / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(edit(text))
    assert manifest.read_text() != text
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, data_dir=str(data), out_dir=str(tmp_path / "out"))
    assert main(["train", "--config", cfg_path]) == 2
    assert_error(capsys, message)
    assert not os.path.exists(str(tmp_path / "out"))


def test_multiscale_with_no_fully_valid_coarse_block_is_exit_2(tmp_path, capsys):
    # 4x4 pads to 16x16, so each 8x8 block of dec0's 2x2 map holds padding
    sy.write_dataset(scene_spec(height=4, width=4), str(tmp_path / "data"))
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, height=4, width=4, layers=4, multiscale_loss=True,
              data_dir=str(tmp_path / "data"), out_dir=str(tmp_path / "out"))
    assert main(["--quiet", "train", "--config", cfg_path]) == 2
    assert_error(capsys, "no valid ground-truth pixels")
    assert not os.path.exists(str(tmp_path / "out" / "last.spkc"))


@pytest.mark.parametrize("height, width", [(36, 52), (260, 346)])
def test_multiscale_step_equals_the_hand_padded_step(height, width):
    # the forward pads its input to a multiple of 2**layers and the loss its
    # ground truth, with the padding invalid; padding both by hand is the same step
    mult = 1 << RunConfig.layers
    padded = (-(-height // mult) * mult, -(-width // mult) * mult)
    rng = np.random.default_rng(1)
    x = (rng.random((2, 4, height, width)) < 0.2).astype(np.float64)
    valid = np.ones((height, width), dtype=bool)
    valid[:height // 4, :width // 4] = False
    depth = rng.uniform(0.5, 4.0, (height, width)) * valid
    steps = []
    for h, w in ((height, width), padded):
        cfg = RunConfig(height=h, width=w, time_steps=2, base_channels=2,
                        multiscale_loss=True)
        net = md.DepthNet(cfg.model_config(), seed=0)
        pad = ((0, h - height), (0, w - width))
        gt = ev.DepthFrame(depth=np.pad(depth, pad), valid=np.pad(valid, pad), t=0)
        with tz.Tape() as tape:
            d, preds, _ = net.forward(tz.Tensor(np.pad(x, ((0, 0), (0, 0)) + pad)))
            loss = cli.window_loss(d, preds, gt, cfg.loss_config(), True, cfg.layers)
        tz.backward(loss, tape)
        steps.append((loss.item(), {name: t.grad for name, t in net.params}))
    (loss, grads), (want_loss, want_grads) = steps
    np.testing.assert_allclose(loss, want_loss, rtol=1e-10)
    assert grads.keys() == want_grads.keys()
    for name, g in grads.items():
        if want_grads[name] is None:
            assert g is None, name
        else:
            np.testing.assert_allclose(g, want_grads[name], rtol=1e-10, atol=0, err_msg=name)


def test_nan_loss_is_exit_3(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "left.csv").write_text("t_us,x,y,p\n")
    frame = ev.DepthFrame(depth=np.full((4, 4), 1e200),
                          valid=np.ones((4, 4), dtype=bool), t=1000)
    ev.save_depth_frame(str(data / "gt0.txt"), frame)
    (data / "manifest.txt").write_text(
        "height = 4\nwidth = 4\nwindow_len_us = 1000\nn_windows = 1\n"
        "binocular = false\nevents_left = left.csv\nwindow.0 = 0\ngt.0 = gt0.txt\n")
    cfg_path = str(tmp_path / "run.cfg")
    write_cfg(cfg_path, height=4, width=4, time_steps=1, in_channels=2,
              epochs=2, data_dir=str(data), out_dir=str(tmp_path / "out"))
    with np.errstate(over="ignore"):
        assert main(["--quiet", "train", "--config", cfg_path]) == 3
    assert "not finite" in capsys.readouterr().err
    # diverged before the first epoch finished: no checkpoint was written
    assert not os.path.exists(str(tmp_path / "out" / "last.spkc"))


def test_untrained_model_matches_zero_predictor_order(tmp_path, dataset, capsys):
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2)
    ckpt = str(tmp_path / "fresh.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=0))
    assert main(["eval", "--model", ckpt, "--data", dataset]) == 0
    report = capsys.readouterr().out
    mde = float(log_values(report, "mde_cm")[0])
    gt = ev.load_depth_frame(os.path.join(dataset, "gt_0000.txt"))
    zero_mde = 100.0 * float(np.abs(gt.depth).mean())
    assert zero_mde / 30.0 < mde < zero_mde * 30.0


# ---------------------------------------------------------------------------
# predict / inspect


def test_predict_zero_events_is_black(tmp_path, capsys):
    cfg = md.ModelConfig(height=16, width=16, time_steps=5, in_channels=2,
                         base_channels=2, layers=2)
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=1))
    events_path = str(tmp_path / "empty.csv")
    with open(events_path, "w") as fh:
        fh.write("t_us,x,y,p\n")
    prefix = str(tmp_path / "pred")
    assert main(["--quiet", "predict", "--model", ckpt, "--events", events_path,
                 "--window-len", "50000", "--out", prefix]) == 0
    capsys.readouterr()

    grid_lines = read_text(prefix + ".txt").strip().split("\n")
    assert grid_lines[0] == "16 16"
    values = np.array([[float(v) for v in line.split()] for line in grid_lines[1:]])
    assert values.shape == (16, 16)
    assert (values == 0.0).all()

    pgm_lines = read_text(prefix + ".pgm").strip().split("\n")
    assert pgm_lines[0] == "P2"
    assert pgm_lines[1] == "16 16"
    assert pgm_lines[2] == "255"
    pixels = [int(v) for line in pgm_lines[3:] for v in line.split()]
    assert len(pixels) == 256
    assert set(pixels) == {0}


def pgm_pixels(path):
    return [int(v) for line in read_text(path).strip().split("\n")[3:] for v in line.split()]


def test_pgm_clips_before_scaling(tmp_path):
    # clipping to [0, max_depth] first keeps a tiny max_depth or a huge
    # negative map from overflowing, and an ordinary map's gray levels are
    # those of scaling first and clipping after
    path = str(tmp_path / "x.pgm")
    data = np.array([[-5e305, 0.0, 0.25], [0.5, 1.0, 3e307]])
    for max_depth, want in ((None, [0, 0, 0, 0, 0, 255]),
                            (1.0, [0, 0, 64, 128, 255, 255]),
                            (1e-307, [0, 0, 255, 255, 255, 255])):
        cli._write_pgm(path, data, max_depth)
        assert pgm_pixels(path) == want
    data = np.random.default_rng(3).normal(1.0, 2.0, (9, 11))
    for max_depth in (None, 0.5, 2.0, 7.0):
        cli._write_pgm(path, data, max_depth)
        scale = data.max() if max_depth is None else max_depth
        want = np.clip(np.rint(data / scale * 255.0), 0, 255).astype(np.int64)
        assert pgm_pixels(path) == want.ravel().tolist()


def test_predict_grid_roundtrips_exactly(trained, dataset, tmp_path, capsys):
    ckpt = os.path.join(trained["out"], "last.spkc")
    prefix = str(tmp_path / "pred")
    assert main(["--quiet", "predict", "--model", ckpt,
                 "--events", os.path.join(dataset, "events_left.csv"),
                 "--events-right", os.path.join(dataset, "events_right.csv"),
                 "--window-start", "50000", "--out", prefix]) == 0
    capsys.readouterr()

    model, entries = md.load_model(ckpt)
    left = ev.load_events(os.path.join(dataset, "events_left.csv"))
    right = ev.load_events(os.path.join(dataset, "events_right.csv"))
    x = ev.binocular_concat(
        ev.cumulative_stack(left, 50000, 50000, 5, 16, 16),
        ev.cumulative_stack(right, 50000, 50000, 5, 16, 16))
    depth, _, _ = model.forward(x)

    grid_lines = read_text(prefix + ".txt").strip().split("\n")
    values = np.array([[float(v) for v in line.split()] for line in grid_lines[1:]])
    assert (values == depth.data).all()


def test_predict_binocular_model_requires_right(trained, dataset, tmp_path, capsys):
    ckpt = os.path.join(trained["out"], "last.spkc")
    assert main(["predict", "--model", ckpt,
                 "--events", os.path.join(dataset, "events_left.csv"),
                 "--out", str(tmp_path / "p")]) == 2
    assert "right" in capsys.readouterr().err


def test_predict_monocular_model_refuses_right(tmp_path, capsys):
    cfg = md.ModelConfig(height=16, width=16, in_channels=2, base_channels=2, layers=2)
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=1))
    events_path = str(tmp_path / "empty.csv")
    with open(events_path, "w") as fh:
        fh.write("t_us,x,y,p\n")
    prefix = str(tmp_path / "p")
    assert main(["predict", "--model", ckpt, "--events", events_path,
                 "--events-right", str(tmp_path / "missing" / "right.csv"),
                 "--window-len", "50000", "--out", prefix]) == 2
    assert capsys.readouterr().err == \
        "error: this model takes monocular input; drop --events-right\n"
    assert not os.path.exists(prefix + ".pgm")


def test_predict_stack_too_large_for_memory_is_exit_2(tmp_path, capsys):
    # a 1e9-row model: numpy can index its stack, the host cannot hold it
    cfg = md.ModelConfig(height=10 ** 9, width=16, in_channels=2, base_channels=2, layers=2)
    ckpt = str(tmp_path / "tall.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=1))
    events_path = str(tmp_path / "empty.csv")
    with open(events_path, "w") as fh:
        fh.write("t_us,x,y,p\n")
    prefix = str(tmp_path / "p")
    with mock.patch.object(ev.np, "bincount", refuse_bincount):
        assert main(["predict", "--model", ckpt, "--events", events_path,
                     "--window-len", "50000", "--out", prefix]) == 2
    assert capsys.readouterr().err == ("error: Unable to allocate %d bytes for an array "
                                       "of %d counts\n" % (8 * 16 * 10 ** 10, 16 * 10 ** 10))
    assert not os.path.exists(prefix + ".pgm")


def test_inspect_quiescent_input_reports_zero(tmp_path, capsys):
    quiet_dir = tmp_path / "static"
    sy.write_dataset(scene_spec(camera_velocity=0.0, n_windows=2), str(quiet_dir))
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2)
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=0))
    assert main(["inspect", "--model", ckpt, "--data", str(quiet_dir)]) == 0
    report = capsys.readouterr().out
    assert log_values(report, "ac_ops") == ["0.0"]
    assert log_values(report, "firing_rate_total") == ["0.0"]
    assert int(log_values(report, "dense_macs")[0]) > 0
    assert log_values(report, "windows") == ["2"]


def test_inspect_spiking_model_reports_activity(dataset, tmp_path, capsys):
    # DE encoders pass spikes between stages, so the AC tally is structural
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2,
                         encoder_variant="DE")
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=0))
    assert main(["inspect", "--model", ckpt, "--data", dataset]) == 0
    report = capsys.readouterr().out
    assert float(log_values(report, "ac_ops")[0]) > 0
    assert 0.0 < float(log_values(report, "sparsity_ratio")[0]) < 1.0
    assert 0.0 < float(log_values(report, "firing_rate_encoder")[0]) < 1.0


def test_corrupt_checkpoint_is_exit_2(tmp_path, dataset, capsys):
    bad = str(tmp_path / "bad.spkc")
    with open(bad, "wb") as fh:
        fh.write(b"NOTACKPT" + b"\x00" * 16)
    assert main(["eval", "--model", bad, "--data", dataset]) == 2
    assert "bad.spkc" in capsys.readouterr().err
    # a checkpoint that names an entry twice, whose later copy would replace
    # the first without a word
    twice = tmp_path / "twice.spkc"
    md.save_model(str(twice), md.DepthNet(md.ModelConfig(height=16, width=16,
                                                         base_channels=2, layers=2)))
    name = "param.enc0.conv"
    md.save_checkpoint(str(tmp_path / "one.spkc"),
                       {name: md.load_checkpoint(twice)[name]})
    raw = twice.read_bytes()
    (count,) = struct.unpack("<I", raw[8:12])
    twice.write_bytes(raw[:8] + struct.pack("<I", count + 1) + raw[12:]
                      + (tmp_path / "one.spkc").read_bytes()[12:])
    assert main(["eval", "--model", str(twice), "--data", dataset]) == 2
    assert capsys.readouterr().err == "error: %s: repeated entry %r\n" % (twice, name)


def run_cli(*args):
    """The CLI in a fresh interpreter, so an escaping exception shows as exit 1."""
    return subprocess.run([sys.executable, "-m", "spikedepth"] + list(args),
                          capture_output=True, text=True)


def assert_single_error_line(result):
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    return lines[0]


@pytest.mark.parametrize("keep", [10, 15, -8])
def test_truncated_checkpoint_is_exit_2(tmp_path, dataset, keep):
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2)
    ckpt = tmp_path / "model.spkc"
    md.save_model(str(ckpt), md.DepthNet(cfg, seed=0))
    ckpt.write_bytes(ckpt.read_bytes()[:keep])
    line = assert_single_error_line(run_cli("eval", "--model", str(ckpt), "--data", dataset))
    assert "model.spkc" in line and "truncated" in line


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2)
    md.save_model(str(root / "model.spkc"), md.DepthNet(cfg, seed=0))
    return root


BYTE_EDITS = ["truncate", "overwrite", "insert"]
EDIT_DATA = st.one_of(st.binary(min_size=1, max_size=8),
                      st.sampled_from([b"nan", b"inf", b"-1", b"0", b"1e300", b",", b" ",
                                       b"\n", b"\r\n"]))


def mutate(raw, edit, pos, data):
    """raw with one edit at pos: truncate, overwrite or insert bytes, or drop
    or repeat the line holding pos."""
    pos %= len(raw) + 1
    if edit == "truncate":
        return raw[:pos]
    if edit == "overwrite":
        return raw[:pos] + data + raw[pos + len(data):]
    if edit == "insert":
        return raw[:pos] + data + raw[pos:]
    lines = raw.splitlines(keepends=True)
    i = raw[:pos].count(b"\n") % len(lines)
    lines[i:i + 1] = [] if edit == "drop" else [lines[i]] * 2
    return b"".join(lines)


def assert_exit_0_or_one_error_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2)
    assert (lines == []) if code == 0 else (len(lines) == 1 and lines[0].startswith("error: "))


@settings(max_examples=100, deadline=None)
@given(edit=st.sampled_from(BYTE_EDITS), pos=st.integers(0, 2 ** 20),
       data=st.binary(min_size=1, max_size=8))
def test_mutated_checkpoint_loads_or_is_exit_2(fuzz_dir, dataset, edit, pos, data):
    path = fuzz_dir / "mutated.spkc"
    path.write_bytes(mutate((fuzz_dir / "model.spkc").read_bytes(), edit, pos, data))
    try:
        md.load_model(str(path))
    except INPUT_ERRORS:
        pass
    assert_exit_0_or_one_error_line(["eval", "--model", str(path), "--data", dataset])


def test_huge_finite_weight_is_exit_2_without_warnings(fuzz_dir, dataset, tmp_path, capsys):
    # eval and inspect leave float64 range in the loss, which squares the
    # residual, at 1e300. predict's forward leaves it at 1e306; at 1e305 its
    # depth map is still finite (about -1e307), and predict writes it, the
    # gray levels of the .pgm included, without a warning.
    def predict(prefix):
        return ["predict", "--events", os.path.join(dataset, "events_left.csv"),
                "--events-right", os.path.join(dataset, "events_right.csv"),
                "--window-len", "50000", "--out", str(tmp_path / prefix)]

    path = fuzz_dir / "huge.spkc"
    for value, argv, code in ((1e300, ["eval", "--data", dataset], 2),
                              (1e300, ["inspect", "--data", dataset], 2),
                              (1e305, predict("finite"), 0),
                              (1e306, predict("p"), 2)):
        entries = md.load_checkpoint(fuzz_dir / "model.spkc")
        entries["param.enc0.conv"] = np.full_like(entries["param.enc0.conv"], value)
        md.save_checkpoint(path, entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--model", str(path)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "huge.spkc" in err
    assert os.path.exists(tmp_path / "finite.txt") and os.path.exists(tmp_path / "finite.pgm")
    assert not os.path.exists(tmp_path / "p.txt") and not os.path.exists(tmp_path / "p.pgm")


def test_non_finite_depth_map_is_exit_2_and_writes_nothing(fuzz_dir, dataset, tmp_path,
                                                           capsys):
    forward = md.DepthNet.forward

    def inf_corner(self, x):
        depth, preds, counts = forward(self, x)
        depth.data[0, 0] = np.inf
        return depth, preds, counts

    prefix = str(tmp_path / "p")
    with mock.patch.object(md.DepthNet, "forward", inf_corner):
        assert main(["predict", "--model", str(fuzz_dir / "model.spkc"),
                     "--events", os.path.join(dataset, "events_left.csv"),
                     "--events-right", os.path.join(dataset, "events_right.csv"),
                     "--window-len", "50000", "--out", prefix]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err
    assert not os.path.exists(prefix + ".txt") and not os.path.exists(prefix + ".pgm")


@settings(max_examples=100, deadline=None)
@given(edit=st.sampled_from(BYTE_EDITS + ["drop", "repeat"]),
       pos=st.integers(0, 2 ** 20), data=EDIT_DATA)
def test_mutated_events_csv_stacks_or_is_exit_2(fuzz_dir, dataset, edit, pos, data):
    with open(os.path.join(dataset, "events_left.csv"), "rb") as fh:
        raw = fh.read()
    path = fuzz_dir / "events.csv"
    path.write_bytes(mutate(raw, edit, pos, data))
    assert_exit_0_or_one_error_line(["stack", "--events", str(path), "--T", "5",
                                     "--window-ms", "50", "--height", "16", "--width", "16",
                                     "--out", str(fuzz_dir / "stack.spkt")])


@settings(max_examples=100, deadline=None)
@given(edit=st.sampled_from(BYTE_EDITS + ["drop", "repeat"]),
       pos=st.integers(0, 2 ** 20), data=EDIT_DATA)
def test_mutated_depth_frame_evaluates_or_is_exit_2(fuzz_dir, dataset, edit, pos, data):
    data_dir = fuzz_dir / "data"
    if not data_dir.exists():
        shutil.copytree(dataset, str(data_dir))
    with open(os.path.join(dataset, "gt_0001.txt"), "rb") as fh:
        raw = fh.read()
    (data_dir / "gt_0001.txt").write_bytes(mutate(raw, edit, pos, data))
    assert_exit_0_or_one_error_line(["eval", "--model", str(fuzz_dir / "model.spkc"),
                                     "--data", str(data_dir)])


def test_manifest_non_integer_is_exit_2(tmp_path, dataset):
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2)
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=0))
    data = tmp_path / "data"
    shutil.copytree(dataset, str(data))
    manifest = data / "manifest.txt"
    text = manifest.read_text()
    assert "\nn_windows = 4\n" in text
    manifest.write_text(text.replace("\nn_windows = 4\n", "\nn_windows = x\n"))
    line = assert_single_error_line(run_cli("eval", "--model", ckpt, "--data", str(data)))
    assert "line 4" in line


def test_manifest_with_more_windows_than_n_windows_is_exit_2(tmp_path, dataset, capsys):
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2)
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=0))
    data = tmp_path / "data"
    shutil.copytree(dataset, str(data))
    manifest = data / "manifest.txt"
    text = manifest.read_text()
    assert "\nn_windows = 4\n" in text and "\nwindow.3 = " in text and "\ngt.3 = " in text
    manifest.write_text(text.replace("\nn_windows = 4\n", "\nn_windows = 1\n"))
    assert main(["eval", "--model", ckpt, "--data", str(data)]) == 2
    assert capsys.readouterr().err == "error: manifest needs window.k and gt.k for k in 0..0\n"


def test_negative_depth_header_is_exit_2(tmp_path, dataset):
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2)
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=0))
    data = tmp_path / "data"
    shutil.copytree(dataset, str(data))
    (data / "gt_0000.txt").write_text("1 -1 50000\n1.0\n")
    line = assert_single_error_line(run_cli("eval", "--model", ckpt, "--data", str(data)))
    assert "line 1" in line


def test_missing_manifest_is_exit_2(tmp_path, capsys):
    cfg = md.ModelConfig(height=16, width=16, base_channels=2, layers=2)
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(cfg, seed=0))
    assert main(["eval", "--model", ckpt, "--data", str(tmp_path / "nowhere")]) == 2
    assert "manifest" in capsys.readouterr().err


def corrupt_line(path, lineno, byte):
    """Insert one non-UTF-8 byte at the start of a 1-based line of a text file."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = byte + lines[lineno - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("reader", ["config", "spec", "events", "depth", "manifest"])
def test_non_utf8_text_input_is_exit_2(tmp_path, dataset, reader):
    data = tmp_path / "data"
    shutil.copytree(dataset, str(data))
    ckpt = str(tmp_path / "model.spkc")
    md.save_model(ckpt, md.DepthNet(md.ModelConfig(height=16, width=16, base_channels=2,
                                                   layers=2), seed=0))
    if reader == "config":
        bad = tmp_path / "run.cfg"
        write_cfg(str(bad), data_dir=str(data), out_dir=str(tmp_path / "out"))
        args = ("train", "--config", str(bad))
    elif reader == "spec":
        bad = tmp_path / "scene.spec"
        bad.write_text(serialize_scene_spec(scene_spec()))
        args = ("synth", "--spec", str(bad), "--out", str(tmp_path / "new"))
    elif reader == "events":
        bad = data / "events_left.csv"
        args = ("stack", "--events", str(bad), "--T", "5", "--height", "16", "--width", "16",
                "--out", str(tmp_path / "x.spkt"))
    else:
        bad = data / ("gt_0000.txt" if reader == "depth" else "manifest.txt")
        args = ("eval", "--model", ckpt, "--data", str(data))
    corrupt_line(bad, 3, b"\xff" if reader != "spec" else b"\xfe")
    line = assert_single_error_line(run_cli(*args))
    assert bad.name in line and "line 3" in line and "UTF-8" in line, line
