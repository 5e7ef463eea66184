"""CLI behavior: config handling, command wiring, exit codes, artifacts."""

import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from spikedepth import events as ev
from spikedepth import model as md
from spikedepth import neurons as nr
from spikedepth import synth as sy
from spikedepth import tensor as tz
from spikedepth.cli import (RunConfig, main, parse_run_config,
                            serialize_run_config)
from spikedepth.tensor import Tensor
from helpers import if_run_stepwise, load_tensor


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
    {"height": "18", "multiscale_loss": "true"},
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


def test_readme_config_table_lists_every_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Run config")[1].split("\n## ")[0]
    keys = []
    for line in section.split("\n"):
        if line.startswith("| `"):
            keys += line.split("|")[1].split("`")[1::2]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


# ---------------------------------------------------------------------------
# synth and stack


def test_synth_prints_manifest_and_is_deterministic(tmp_path, capsys):
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(sy.serialize_scene_spec(scene_spec()))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "a" / "manifest.txt")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ("manifest.txt", "events_left.csv", "events_right.csv", "gt_0000.txt"):
        assert read_text(str(tmp_path / "a" / name)) == read_text(str(tmp_path / "b" / name))


def test_synth_seed_flag_overrides_spec(tmp_path, capsys):
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(sy.serialize_scene_spec(scene_spec()))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["--seed", "99", "synth", "--spec", str(spec_path),
                 "--out", str(tmp_path / "c")]) == 0
    capsys.readouterr()
    assert read_text(str(tmp_path / "a" / "events_left.csv")) != \
        read_text(str(tmp_path / "c" / "events_left.csv"))


def test_seed_and_quiet_also_follow_the_subcommand(tmp_path, capsys):
    spec_path = tmp_path / "scene.txt"
    spec_path.write_text(sy.serialize_scene_spec(scene_spec()))
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
])
def test_synth_bad_spec_value_is_exit_2(tmp_path, old, new, capsys):
    text = sy.serialize_scene_spec(scene_spec())
    assert old in text
    spec_path = tmp_path / "scene.spec"
    spec_path.write_text(text.replace(old, new))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_eval_reproduces_final_train_mde(trained, dataset, capsys):
    final = float(log_values(trained["log"], "final_mde_cm")[0])
    assert main(["eval", "--model", os.path.join(trained["out"], "last.spkc"),
                 "--data", dataset]) == 0
    report = capsys.readouterr().out
    assert float(log_values(report, "mde_cm")[0]) == final
    for key in ("loss_ssi", "loss_reg", "loss_total", "firing_rate_total"):
        assert len(log_values(report, key)) == 1


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


def test_nan_loss_is_exit_3(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "left.csv").write_text("t_us,x,y,p\n")
    frame = ev.DepthFrame(depth=Tensor(np.full((4, 4), 1e200)),
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
    zero_mde = 100.0 * float(np.abs(gt.depth.data).mean())
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
        bad.write_text(sy.serialize_scene_spec(scene_spec()))
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
