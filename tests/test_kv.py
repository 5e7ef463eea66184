"""The key = value readers under mutation, the declared field domains, and the
checkpoint cfg.* codec."""

import copy
import math
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from spikedepth import attention as at
from spikedepth import events as ev
from spikedepth import kv
from spikedepth import model as md
from spikedepth import neurons as nr
from spikedepth import synth as sy
from spikedepth.tensor import ArgumentError
from spikedepth.cli import (INPUT_ERRORS, RunConfig, load_run_config, main, parse_run_config,
                            serialize_run_config)
from helpers import serialize_scene_spec

TOKENS = ("", "x", "nan", "inf", "-1", "1.5", "yes", "²")

RUN_CONFIG = serialize_run_config(RunConfig(height=16, width=16, base_channels=2, layers=2,
                                            attention="SCT", ssi_sign="plus",
                                            stack_mode="repeat", epochs=3,
                                            data_dir="data", out_dir="out"))
SCENE = sy.SceneSpec(seed=3, height=16, width=16, n_windows=2, noise_rate_hz=20.0,
                     planes=(sy.PlaneSpec(1.0, 0, 0, 16, 8, 8.0),
                             sy.PlaneSpec(2.0, 0, 8, 16, 8, 6.0)))
SCENE_SPEC = serialize_scene_spec(SCENE)


@pytest.fixture(scope="module")
def manifest_text(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    sy.write_dataset(SCENE, str(root))
    return (root / sy.MANIFEST_NAME).read_text()


@st.composite
def mutated(draw, text):
    """A valid file cut, with a line dropped, repeated or broken, or one value replaced."""
    lines = text.split("\n")[:-1]
    kind = draw(st.sampled_from(("truncate", "drop", "repeat", "no_equals", "value")))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "no_equals":
        lines.insert(i, draw(st.sampled_from(("height", "plane.0", "window", "x y"))))
    else:
        key = lines[i].partition("=")[0]
        lines[i] = "%s= %s" % (key, draw(st.sampled_from(TOKENS)))
    return "\n".join(lines) + "\n"


def read_or_input_error(read, text):
    """What `read` returns, or None if it raised an error that main maps to exit 2."""
    try:
        return read(text)
    except INPUT_ERRORS:
        return None


@settings(max_examples=300, deadline=None)
@given(mutated(RUN_CONFIG))
def test_run_config_reader_under_mutation(text):
    cfg = read_or_input_error(parse_run_config, text)
    if cfg is not None:  # a config the reader accepts builds its model
        md.DepthNet(cfg.model_config(), seed=cfg.seed)


@settings(max_examples=300, deadline=None)
@given(mutated(SCENE_SPEC))
def test_scene_spec_reader_under_mutation(text):
    spec = read_or_input_error(sy.parse_scene_spec, text)
    if spec is not None:  # a spec the reader accepts renders
        sy.generate_scene(spec)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_manifest_reader_under_mutation(manifest_text, data):
    text = data.draw(mutated(manifest_text))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, sy.MANIFEST_NAME)
        with open(path, "w") as fh:
            fh.write(text)
        read_or_input_error(sy.load_manifest, path)


def test_valid_files_read_back():
    assert serialize_run_config(parse_run_config(RUN_CONFIG)) == RUN_CONFIG
    assert sy.parse_scene_spec(SCENE_SPEC) == SCENE
    # the empty value is how format_value writes the empty tuple
    assert parse_run_config("milestone_fractions =\n").milestone_fractions == ()


def test_manifest_reads_back(manifest_text, tmp_path):
    path = tmp_path / sy.MANIFEST_NAME
    path.write_text(manifest_text)
    man = sy.load_manifest(str(path))
    assert (man.height, man.width, man.n_windows, man.binocular) == (16, 16, 2, True)
    assert man.window_starts == [0, 50000]


@pytest.mark.parametrize("text,message", [
    ("seed = 1\nheight\n", "^line 2: expected key = value"),
    ("seed = 1\n# seed = 2\nseed = 3\n", "^line 3: duplicate key 'seed'"),
    ("learning_rate = nan\n", "^line 1: learning_rate must be a finite number"),
    ("adam_eps = -inf\n", "^line 1: adam_eps must be a finite number"),
    ("milestone_fractions = 0.5, inf\n", "^line 1: milestone_fractions must be comma-sep"),
    ("binarize = yes\n", "^line 1: binarize must be true or false"),
    ("epochs = 2.0\n", "^line 1: epochs must be an integer"),
])
def test_codec_errors_name_the_line(text, message):
    with pytest.raises(ev.ParseError, match=message):
        parse_run_config(text)


@pytest.mark.parametrize("value", ["0.5,,0.75", "0.5,", ", 0.5", " , "])
def test_tuple_with_an_empty_field_is_exit_2(tmp_path, value, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nmilestone_fractions = %s\n" % value)
    assert main(["train", "--config", str(path), "--dump-config"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: line 2: milestone_fractions must be comma-separated")


@pytest.mark.parametrize("key", ["plane.01", "plane.-1", "plane.²", "plane.x", "plane."])
def test_index_must_be_plain_decimal(key):
    with pytest.raises(ev.ParseError, match="^line 1: bad index"):
        sy.parse_scene_spec("%s = 1.0, 0, 0, 64, 64, 8.0\n" % key)


@pytest.mark.parametrize("value", ["a#b", "#", "a\nb", "a\rb", " a", "a ", "a\t", "\u2028a"])
def test_format_value_refuses_a_string_that_would_not_read_back(value):
    with pytest.raises(ArgumentError):
        kv.format_value(value)


def read_back_from_file(text):
    """data_dir as a run config file holding `data_dir = <text>` reads it, or None."""
    fd, path = tempfile.mkstemp()
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(("data_dir = %s\n" % text).encode("utf-8"))
        return read_or_input_error(lambda p: load_run_config(p).data_dir, path)
    finally:
        os.remove(path)


@settings(max_examples=150, deadline=None)
@given(st.text(st.characters(blacklist_categories=("Cs",))))
def test_format_value_refuses_exactly_the_strings_that_would_not_read_back(value):
    try:
        text = kv.format_value(value)
    except ArgumentError:
        assert read_back_from_file(value) != value
    else:
        assert text == value and read_back_from_file(text) == value


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(md.ENCODER_VARIANTS), st.sampled_from(nr.MODES),
       st.sets(st.sampled_from(at.MODULE_ORDER)), st.floats(-2.0, 0.9), st.floats(0.01, 3.0))
def test_checkpoint_entries_round_trip(variant, mode, modules, v_reset, alpha):
    cfg = md.ModelConfig(encoder_variant=variant, neuron_mode=mode,
                         attention="".join(modules), v_reset=v_reset,
                         surrogate_alpha=alpha, height=16, layers=3)
    entries = kv.to_entries(cfg)
    assert list(entries) == ["cfg." + name for name in md.ModelConfig.__dataclass_fields__]
    assert md.ModelConfig(**kv.from_entries(md.ModelConfig, entries)) == cfg


def test_attention_mask_keeps_its_bits():
    # T, C and S are bits 0, 1 and 2, as in every checkpoint written so far
    masks = {m: kv.to_entries(md.ModelConfig(attention=m))["cfg.attention"]
             for m in ("", "T", "C", "S", "TCS")}
    assert masks == {"": 0.0, "T": 1.0, "C": 2.0, "S": 4.0, "TCS": 7.0}


def edge_pairs(kind, domain):
    """(accepted, rejected) values at each finite end of a declared interval:
    the end and one step outside it, or one step inside an open end and the end."""
    low, high, low_open, high_open = domain
    if kind is int:
        def step(x, out):
            return x + out
    else:
        def step(x, out):
            return math.nextafter(x, out * math.inf)
    ends = [(low, -1, low_open)] + ([(high, 1, high_open)] if high < math.inf else [])
    return [(step(end, -out), end) if is_open else (end, step(end, out))
            for end, out, is_open in ends]


BASES = {RunConfig: RunConfig(), sy.SceneSpec: SCENE, sy.PlaneSpec: SCENE.planes[0]}


def declared_domains():
    for cls in BASES:
        for f in fields(cls):
            if "choices" in f.metadata:
                for ok in f.metadata["choices"]:
                    yield pytest.param(cls, f.name, ok, ok + "x",
                                       id="%s.%s=%sx" % (cls.__name__, f.name, ok))
            if "letters" in f.metadata:
                ok = f.metadata["letters"]
                yield pytest.param(cls, f.name, ok, ok + "x",
                                   id="%s.%s=%sx" % (cls.__name__, f.name, ok))
            if "domain" in f.metadata:
                kind = float if f.type is tuple else f.type
                for ok, bad in edge_pairs(kind, f.metadata["domain"]):
                    if f.type is tuple:
                        ok, bad = (ok,), (bad,)
                    yield pytest.param(cls, f.name, ok, bad,
                                       id="%s.%s=%r" % (cls.__name__, f.name, bad))


@pytest.mark.parametrize("cls,name,ok,bad", list(declared_domains()))
def test_declared_domain_edges(tmp_path, capsys, cls, name, ok, bad):
    # the edge passes the field checks; other fields' rules may still refuse it
    obj = copy.copy(BASES[cls])
    object.__setattr__(obj, name, ok)
    kv.check_fields(obj, ArgumentError)
    object.__setattr__(obj, name, bad)
    path = tmp_path / "in.txt"
    if cls is RunConfig:
        argv = ["train", "--config", str(path), "--dump-config"]
    else:
        argv = ["synth", "--spec", str(path), "--out", str(tmp_path / "d")]
        if cls is sy.PlaneSpec:
            plane, obj = obj, copy.copy(SCENE)
            object.__setattr__(obj, "planes", (plane,) + SCENE.planes[1:])
    path.write_text("\n".join(kv.format_lines(obj)) + "\n")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert name in err and (cls is not sy.PlaneSpec or "plane.0: " in err)
