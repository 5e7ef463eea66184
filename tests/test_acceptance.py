"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints exactly one line of the form

    ACCEPTANCE C<n> PASS <detail>
    ACCEPTANCE C<n> FAIL <detail>

and then asserts, so a plain pytest run fails loudly while `pytest -s`
streams the verdicts as they happen. The end-to-end training check (C6)
drives the installed CLI in subprocesses and takes a few minutes; it is
shared with C9 and C10 through a module fixture, so running the whole file
trains exactly twice (the second run proves determinism).
"""

import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from spikedepth import attention as at
from spikedepth import events as ev
from spikedepth import losses as ls
from spikedepth import model as md
from spikedepth import neurons as nr
from spikedepth import tensor as tz
from spikedepth.cli import (load_run_config, load_windows, parse_run_config,
                            serialize_run_config)

from helpers import (brute_if_trace, check_op_gradient, if_multistep, make_events,
                     recount_stack, spike_trains)


def _report(n, ok, detail):
    print("ACCEPTANCE C%d %s %s" % (n, "PASS" if ok else "FAIL", detail),
          flush=True)
    assert ok, "C%d: %s" % (n, detail)


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "spikedepth"] + list(args),
                          capture_output=True, text=True)


def _last_value(text, key):
    found = None
    for line in text.splitlines():
        for tok in line.split():
            if tok.startswith(key + "="):
                found = tok[len(key) + 1:]
    if found is None:
        raise AssertionError("no %r in output:\n%s" % (key, text))
    return found


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# shared end-to-end artifacts (C6, C9, C10)

OVERFIT_SCENE = """\
seed = 12
height = 64
width = 64
n_windows = 8
window_len_us = 50000
camera_velocity = 80.0
contrast_threshold = 0.4
baseline_px = 16.0
noise_rate_hz = 0.0
plane.0 = 1.0, 0, 0, 64, 32, 8.0
plane.1 = 2.0, 0, 32, 64, 32, 8.0
"""

# Defaults cover the rest: T=5, CE-Att encoders, CS attention, cumulative
# stacking, lr 0.002. The plus-sign fit term anchors the absolute scale,
# which the shift-invariant default cannot do, and the heavier smoothness
# weight removes stripe-phase ripple from the residual.
OVERFIT_CFG = """\
seed = 0
ssi_sign = plus
lambda_reg = 2.0
epochs = 160
val_fraction = 0.0
"""


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    scene = root / "scene.txt"
    scene.write_text(OVERFIT_SCENE)
    cfg = root / "run.cfg"
    cfg.write_text(OVERFIT_CFG)
    data = root / "data"
    r = _cli("--quiet", "synth", "--spec", str(scene), "--out", str(data))
    if r.returncode != 0:
        raise RuntimeError("synth failed: %s" % r.stderr)
    walls = []
    for tag in ("a", "b"):
        t0 = time.monotonic()
        r = _cli("--quiet", "train", "--config", str(cfg),
                 "--data", str(data), "--out", str(root / ("out_" + tag)))
        walls.append(time.monotonic() - t0)
        if r.returncode != 0:
            raise RuntimeError("train failed: %s" % r.stderr)
    return {"scene": scene, "cfg": cfg, "data": data,
            "out_a": root / "out_a", "out_b": root / "out_b",
            "wall": walls[0]}


# ---------------------------------------------------------------------------
# C1: every parameter's analytic gradient matches central differences


def test_c01_gradient_fidelity():
    t0 = time.monotonic()
    cfg = md.ModelConfig(height=8, width=8, time_steps=2, in_channels=2,
                         base_channels=2, layers=2, neuron_mode="smooth")
    model = md.DepthNet(cfg, seed=3)
    rng = np.random.default_rng(30)
    x = tz.Tensor(rng.uniform(0.0, 2.0, (2, 2, 8, 8)))
    valid = rng.random((8, 8)) < 0.85
    valid[0, 0] = True
    gt = ev.DepthFrame(depth=tz.Tensor(rng.uniform(0.5, 2.0, (8, 8)) * valid),
                       valid=valid, t=0)
    lcfg = ls.LossConfig()

    model.params.zero_grad()
    with tz.Tape() as tape:
        depth, _, _ = model.forward(x)
        loss = ls.total_loss(depth, gt, lcfg)
    tz.backward(loss, tape)
    analytic = {name: (np.array(t.grad, copy=True) if t.grad is not None
                       else np.zeros_like(t.data))
                for name, t in model.params}

    def f():
        d, _, _ = model.forward(x)
        return float(ls.total_loss(d, gt, lcfg).data)

    eps = 1e-5
    worst, worst_name, n_params = 0.0, "", 0
    for name, tensor in model.params:
        flat = tensor.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            rel = abs(aflat[i] - fd) / max(abs(aflat[i]), abs(fd), 1e-6)
            if rel > worst:
                worst, worst_name = rel, name
            n_params += 1
    wall = time.monotonic() - t0
    _report(1, worst < 1e-4 and wall < 60.0,
            "max_rel=%.2e (%s) params=%d wall=%.1fs"
            % (worst, worst_name, n_params, wall))


# ---------------------------------------------------------------------------
# C2: the step recurrence matches a scalar-stepped simulator bit for bit


def test_c02_if_matches_brute_simulator():
    rng = np.random.default_rng(7)
    n_cases = 1000
    bad, first = 0, ""
    for i in range(n_cases):
        t_steps = int(rng.integers(1, 17))
        extra = tuple(int(v) for v in
                      rng.integers(1, 4, size=int(rng.integers(1, 4))))
        scale = float(rng.uniform(0.3, 2.5))
        x = rng.normal(0.0, 1.0, size=(t_steps,) + extra) * scale
        v_th = float(rng.uniform(0.3, 1.5))
        params = nr.IFParams(v_threshold=v_th)
        spikes, membrane = if_multistep(tz.Tensor(x.copy()), params)
        bs, bv = brute_if_trace(x, v_th, 0.0)
        if not (np.array_equal(spikes.data, bs)
                and np.array_equal(membrane.data, bv)):
            bad += 1
            if not first:
                first = " first=case%d(T=%d,v_th=%.3f)" % (i, t_steps, v_th)
    _report(2, bad == 0, "sequences=%d mismatches=%d%s" % (n_cases, bad, first))


# ---------------------------------------------------------------------------
# C3: stacking matches a per-(frame, channel, pixel) recount


def test_c03_stacking_matches_recount():
    rng = np.random.default_rng(11)
    n_cases = 100
    problems = []
    for i in range(n_cases):
        h = int(rng.integers(2, 9))
        w = int(rng.integers(2, 9))
        t_steps = int(rng.integers(1, 7))
        window_len = t_steps * int(rng.integers(1, 200))
        ws = int(rng.integers(0, 500))
        n = int(rng.integers(0, 60))
        times = rng.integers(max(0, ws - 50), ws + window_len + 50, size=n)
        evs = make_events(sorted(((int(t), int(rng.integers(0, w)),
                                   int(rng.integers(0, h)),
                                   int(rng.choice((-1, 1)))) for t in times),
                                 key=lambda e: e[0]))
        cum = ev.cumulative_stack(evs, ws, window_len, t_steps, h, w).data.data
        rep = ev.repeat_stack(evs, ws, window_len, t_steps, h, w).data.data
        if not np.array_equal(cum, recount_stack(evs, ws, window_len, t_steps,
                                                 h, w, mode="cumulative")):
            problems.append("cumulative recount, case %d" % i)
        if not np.array_equal(rep, recount_stack(evs, ws, window_len, t_steps,
                                                 h, w, mode="repeat")):
            problems.append("repeat recount, case %d" % i)
        steps = np.diff(cum, axis=0)
        if steps.size and steps.min() < 0:
            problems.append("monotonicity, case %d" % i)
        if not np.array_equal(cum[-1], rep[0]):
            problems.append("final frame vs repeat, case %d" % i)
    _report(3, not problems,
            "cases=%d%s" % (n_cases, "" if not problems else " " + problems[0]))


# ---------------------------------------------------------------------------
# C4: fit-term invariants and masking


def test_c04_loss_invariants():
    rng = np.random.default_rng(13)
    n_cases = 50
    problems = []
    for i in range(n_cases):
        h = int(rng.integers(2, 10))
        w = int(rng.integers(2, 10))
        valid = rng.random((h, w)) < 0.8
        valid[0, 0] = True
        valid[h - 1, w - 1] = False
        gt = ev.DepthFrame(depth=tz.Tensor(rng.uniform(0.5, 3.0, (h, w)) * valid),
                           valid=valid, t=0)
        pred = rng.uniform(0.0, 3.0, (h, w))
        lam = float(rng.uniform(0.0, 2.0))
        cfg_minus = ls.LossConfig(lambda_reg=lam, ssi_sign="minus")
        cfg_plus = ls.LossConfig(lambda_reg=lam, ssi_sign="plus")

        base = ls.ssi_loss(tz.Tensor(pred), gt, cfg_minus).item()
        shift = float(rng.uniform(-3.0, 3.0))
        shifted = ls.ssi_loss(tz.Tensor(pred + shift), gt, cfg_minus).item()
        if abs(shifted - base) > 1e-9 * max(abs(base), 1e-12):
            problems.append("shift invariance, case %d" % i)

        plus = ls.ssi_loss(tz.Tensor(pred), gt, cfg_plus).item()
        if plus < base - 1e-12 * max(1.0, abs(base)):
            problems.append("plus below minus, case %d" % i)

        exact = tz.Tensor(np.array(gt.depth.data, copy=True))
        if (ls.ssi_loss(exact, gt, cfg_minus).item() != 0.0
                or ls.reg_loss(exact, gt).item() != 0.0
                or ls.total_loss(exact, gt, cfg_minus).item() != 0.0
                or ls.mde_cm(exact, gt) != 0.0):
            problems.append("zero at perfect fit, case %d" % i)

        noisy = pred.copy()
        noisy[~valid] += rng.uniform(1.0, 9.0, size=int((~valid).sum()))
        before = (ls.ssi_loss(tz.Tensor(pred), gt, cfg_minus).item(),
                  ls.reg_loss(tz.Tensor(pred), gt).item(),
                  ls.total_loss(tz.Tensor(pred), gt, cfg_minus).item(),
                  ls.mde_cm(tz.Tensor(pred), gt))
        after = (ls.ssi_loss(tz.Tensor(noisy), gt, cfg_minus).item(),
                 ls.reg_loss(tz.Tensor(noisy), gt).item(),
                 ls.total_loss(tz.Tensor(noisy), gt, cfg_minus).item(),
                 ls.mde_cm(tz.Tensor(noisy), gt))
        if before != after:
            problems.append("masked perturbation leaked, case %d" % i)
    _report(4, not problems,
            "cases=%d%s" % (n_cases, "" if not problems else " " + problems[0]))


# ---------------------------------------------------------------------------
# C5: gate ranges, exact halving at zero weights, identity, gradients


def test_c05_attention_gates():
    problems = []
    fns = {"T": at.temporal_attention, "C": at.channel_attention,
           "S": at.spatial_attention}
    rng = np.random.default_rng(17)
    x = rng.uniform(0.5, 1.5, (4, 6, 5, 7))

    for mod, fn in fns.items():
        p = at.AttentionParams(t_steps=4, channels=6, enabled=mod, rng=rng)
        gate = fn(tz.Tensor(x), p).data / x
        if not ((gate > 0.0).all() and (gate < 1.0).all()):
            problems.append("gate range for %s" % mod)

    for enabled in ("S", "CS", "TCS"):
        p = at.AttentionParams(t_steps=4, channels=6, enabled=enabled, rng=rng)
        for _, t in p.parameters():
            t.data[...] = 0.0
        out = at.tcsa(tz.Tensor(x), p)
        if not np.array_equal(out.data, x * 0.5 ** len(enabled)):
            problems.append("zero-weight scaling for %r" % enabled)

    out = at.tcsa(tz.Tensor(x), at.AttentionParams(t_steps=4, channels=6,
                                                   enabled=""))
    if not np.array_equal(out.data, x):
        problems.append("disabled identity")

    mapping = {"t_compress": "t_compress", "t_expand": "t_hidden",
               "c_compress": "c_compress", "c_expand": "c_hidden",
               "s_conv": "s_conv"}
    for mod in fns:
        p = at.AttentionParams(t_steps=3, channels=4, enabled=mod,
                               rng=np.random.default_rng(18))
        weights = [t.data for _, t in p.parameters()]
        xs = np.random.default_rng(19).uniform(0.2, 1.4, (3, 4, 5, 5))

        def build(ts, mod=mod, p=p):
            p2 = at.AttentionParams(t_steps=3, channels=4, enabled=mod)
            for (name, _), leaf in zip(p.parameters(), ts[1:]):
                setattr(p2, mapping[name], leaf)
            return fns[mod](ts[0], p2)

        try:
            check_op_gradient(build, [xs] + weights, rtol=1e-5, atol=1e-8,
                              label="attention " + mod)
        except AssertionError as exc:
            problems.append("fd for %s: %s" % (mod, str(exc)[:60]))
    _report(5, not problems,
            "checks=range,halving,identity,fd modules=TCS%s"
            % ("" if not problems else " failed: " + problems[0]))


# ---------------------------------------------------------------------------
# C6: the CLI overfits a two-plane scene, deterministically, on a budget


def test_c06_overfit_end_to_end(overfit_run):
    log_a = (overfit_run["out_a"] / "train.log").read_bytes()
    log_b = (overfit_run["out_b"] / "train.log").read_bytes()
    ckpt_a = (overfit_run["out_a"] / "last.spkc").read_bytes()
    ckpt_b = (overfit_run["out_b"] / "last.spkc").read_bytes()
    text = log_a.decode()
    mde = float(_last_value(text, "final_mde_cm"))
    steps = int(_last_value(text, "total_steps"))
    deterministic = log_a == log_b and ckpt_a == ckpt_b

    r = _cli("eval", "--model", str(overfit_run["out_a"] / "last.spkc"),
             "--data", str(overfit_run["data"]))
    eval_match = (r.returncode == 0
                  and float(_last_value(r.stdout, "mde_cm")) == mde)

    ok = (mde < 5.0 and steps <= 2000 and overfit_run["wall"] < 600.0
          and deterministic and eval_match)
    _report(6, ok, "mde=%.2fcm steps=%d wall=%.0fs deterministic=%s eval_match=%s"
            % (mde, steps, overfit_run["wall"], deterministic, eval_match))


# ---------------------------------------------------------------------------
# C7: step count is free of parameters; only T>1 sees event order


def test_c07_multistep_witness():
    base = dict(height=8, width=8, in_channels=2, base_channels=4, layers=1,
                encoder_variant="CE-Att", attention="CS")
    m5 = md.DepthNet(md.ModelConfig(time_steps=5, **base), seed=7)
    m1 = md.DepthNet(md.ModelConfig(time_steps=1, **base), seed=7)
    n5 = sum(t.data.size for _, t in m5.params)
    n1 = sum(t.data.size for _, t in m1.params)

    # same multiset of (x, y, p); only the timestamps trade places
    evs_a = make_events([(1000 + i, 2, 2, 1) for i in range(12)]
                        + [(45000 + i, 5, 4, -1) for i in range(5)])
    evs_b = make_events([(1000 + i, 5, 4, -1) for i in range(5)]
                        + [(45000 + i, 2, 2, 1) for i in range(12)])
    cum_a = ev.cumulative_stack(evs_a, 0, 50000, 5, 8, 8)
    cum_b = ev.cumulative_stack(evs_b, 0, 50000, 5, 8, 8)
    rep_a = ev.repeat_stack(evs_a, 0, 50000, 1, 8, 8)
    rep_b = ev.repeat_stack(evs_b, 0, 50000, 1, 8, 8)
    premise = (not np.array_equal(cum_a.data.data, cum_b.data.data)
               and np.array_equal(rep_a.data.data, rep_b.data.data))

    d5a, _, _ = m5.forward(cum_a)
    d5b, _, _ = m5.forward(cum_b)
    d1a, _, _ = m1.forward(rep_a)
    d1b, _, _ = m1.forward(rep_b)
    sensitive_t5 = not np.array_equal(d5a.data, d5b.data)
    insensitive_t1 = np.array_equal(d1a.data, d1b.data)

    _report(7, n5 == n1 and premise and sensitive_t5 and insensitive_t1,
            "params_t5=%d params_t1=%d order_sensitive_t5=%s order_insensitive_t1=%s"
            % (n5, n1, sensitive_t5, insensitive_t1))


# ---------------------------------------------------------------------------
# C8: sensor-sized input passes the pad-and-crop geometry untouched


def test_c08_sensor_geometry():
    cfg = md.ModelConfig(height=260, width=346)
    model = md.DepthNet(cfg, seed=0)
    rng = np.random.default_rng(23)
    x = (rng.random((cfg.time_steps, cfg.in_channels, 260, 346)) < 0.05)
    t0 = time.monotonic()
    depth, _, _ = model.forward(tz.Tensor(x.astype(np.float64)))
    wall = time.monotonic() - t0
    shape_ok = depth.data.shape == (260, 346)
    finite = bool(np.isfinite(depth.data).all())
    _report(8, shape_ok and finite,
            "out=%s finite=%s wall=%.1fs" % (depth.data.shape, finite, wall))


# ---------------------------------------------------------------------------
# C9: reported firing rates are exact tallies, and trained nets stay sparse


@pytest.fixture(scope="module")
def crafted_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("inspect")
    rng = np.random.default_rng(29)
    evs = make_events([(t, int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                        int(rng.choice((-1, 1))))
                       for t in sorted(int(v) for v in rng.integers(0, 2000, size=40))])
    ev.save_events(str(root / "left.csv"), evs)
    for k in range(2):
        frame = ev.DepthFrame(depth=tz.Tensor(np.full((8, 8), 1.5)),
                              valid=np.ones((8, 8), dtype=bool),
                              t=(k + 1) * 1000)
        ev.save_depth_frame(str(root / ("gt%d.txt" % k)), frame)
    (root / "manifest.txt").write_text(
        "height = 8\nwidth = 8\nwindow_len_us = 1000\nn_windows = 2\n"
        "binocular = false\nevents_left = left.csv\n"
        "window.0 = 0\nwindow.1 = 1000\ngt.0 = gt0.txt\ngt.1 = gt1.txt\n")
    return root


def test_c09_instrumentation(crafted_dataset, overfit_run):
    cfg = md.ModelConfig(height=8, width=8, time_steps=4, in_channels=2,
                         base_channels=2, layers=2, encoder_variant="DE")
    model = md.DepthNet(cfg, seed=1)
    ckpt = crafted_dataset / "fresh.spkc"
    md.save_model(str(ckpt), model)

    r = _cli("inspect", "--model", str(ckpt), "--data", str(crafted_dataset))
    keys = ("firing_rate_encoder", "firing_rate_residual",
            "firing_rate_decoder", "firing_rate_total")
    reported = {k: float(_last_value(r.stdout, k)) for k in keys} \
        if r.returncode == 0 else {}

    samples = load_windows(str(crafted_dataset), 8, 8, 4, 2, "cumulative",
                           False)
    tallies = {"encoder": [0.0, 0], "residual": [0.0, 0], "decoder": [0.0, 0]}
    for s in samples:
        _, trains = spike_trains(model, s.x)
        for group, tally in tallies.items():
            for spikes in trains[group]:
                tally[0] += float(spikes.data.sum())
                tally[1] += spikes.data.size
    total = (sum(c for c, _ in tallies.values())
             / sum(n for _, n in tallies.values()))
    exact = bool(reported) and (
        reported["firing_rate_encoder"] == tallies["encoder"][0] / tallies["encoder"][1]
        and reported["firing_rate_residual"] == tallies["residual"][0] / tallies["residual"][1]
        and reported["firing_rate_decoder"] == tallies["decoder"][0] / tallies["decoder"][1]
        and reported["firing_rate_total"] == total)

    r2 = _cli("inspect", "--model", str(overfit_run["out_a"] / "last.spkc"),
              "--data", str(overfit_run["data"]))
    trained = [float(_last_value(r2.stdout, k)) for k in keys] \
        if r2.returncode == 0 else [0.0]
    bounded = all(0.0 < v < 1.0 for v in trained)
    _report(9, exact and bounded, "crafted_exact=%s trained_rates=%s"
            % (exact, ",".join("%.3f" % v for v in trained)))


# ---------------------------------------------------------------------------
# C10: checkpoints, configs, and datasets survive round trips byte for byte


def test_c10_persistence(overfit_run, tmp_path):
    src = overfit_run["out_a"] / "last.spkc"
    entries = md.load_checkpoint(str(src))
    resaved = tmp_path / "resaved.spkc"
    md.save_checkpoint(str(resaved), entries)
    roundtrip = src.read_bytes() == resaved.read_bytes()

    cfg = load_run_config(str(overfit_run["cfg"]))
    text = serialize_run_config(cfg)
    config_ok = (parse_run_config(text) == cfg
                 and serialize_run_config(parse_run_config(text)) == text)
    r1 = _cli("train", "--config", str(overfit_run["cfg"]), "--dump-config")
    r2 = _cli("train", "--config", str(overfit_run["cfg"]), "--dump-config")
    dump_ok = (r1.returncode == 0 and r1.stdout == r2.stdout
               and parse_run_config(r1.stdout) == cfg)

    regen = tmp_path / "regen"
    r = _cli("--quiet", "synth", "--spec", str(overfit_run["scene"]),
             "--out", str(regen))
    names = sorted(os.listdir(overfit_run["data"]))
    dataset_ok = (r.returncode == 0 and names == sorted(os.listdir(regen))
                  and all(_sha256(str(overfit_run["data"] / n))
                          == _sha256(str(regen / n)) for n in names))

    _report(10, roundtrip and config_ok and dump_ok and dataset_ok,
            "checkpoint_roundtrip=%s config_reingest=%s dataset_identical=%s files=%d"
            % (roundtrip, config_ok and dump_ok, dataset_ok, len(names)))
