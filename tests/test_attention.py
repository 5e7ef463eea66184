import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedepth import tensor as tz
from spikedepth import attention as at
from helpers import (attention_params, check_op_gradient, mul, nearest_upsample, sum_all,
                     tcsa_composed)


def rand(shape, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)


def zero_params(enabled="TCS", t=4, c=6, r=1):
    return attention_params(t, c, r, enabled)


def rand_params(enabled="TCS", t=4, c=6, r=1, seed=0):
    return attention_params(t, c, r, enabled, rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# zero-parameter halving


def test_each_module_halves_with_zero_weights():
    x = rand((4, 6, 5, 5), seed=1)
    for enabled in "TCS":
        out = at.tcsa(tz.Tensor(x), zero_params(enabled))
        np.testing.assert_array_equal(out.data, x * 0.5)


def test_composition_scales_by_half_per_module():
    x = rand((4, 6, 5, 5), seed=2)
    np.testing.assert_array_equal(at.tcsa(tz.Tensor(x), zero_params("TCS")).data, x * 0.125)
    np.testing.assert_array_equal(at.tcsa(tz.Tensor(x), zero_params("CS")).data, x * 0.25)
    np.testing.assert_array_equal(at.tcsa(tz.Tensor(x), zero_params("S")).data, x * 0.5)


def test_disabled_set_is_identity():
    x = tz.Tensor(rand((4, 6, 5, 5), seed=3))
    out = at.tcsa(x, zero_params(""))
    assert out is x


def test_zero_input_stays_zero():
    p = rand_params(seed=4)
    out = at.tcsa(tz.Tensor(np.zeros((4, 6, 5, 5))), p)
    np.testing.assert_array_equal(out.data, np.zeros((4, 6, 5, 5)))


# ---------------------------------------------------------------------------
# gate structure


def test_gates_bound_magnitudes():
    x = rand((4, 6, 7, 7), seed=5) * 3.0
    p = rand_params(seed=6)
    out = at.tcsa(tz.Tensor(x), p)
    assert (np.abs(out.data) <= np.abs(x) + 1e-15).all()
    nz = x != 0
    ratio = np.abs(out.data[nz] / x[nz])
    assert (ratio > 0).all() and (ratio < 1).all()


def test_sigmoid_matches_the_two_branch_form_bit_for_bit():
    # one division over a selected numerator, against 1/(1+e) and e/(1+e) per sign
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.2, -745.2, 709.8, -709.8,
               36.8, -36.8, 1e-300, -1e-300, 5e-324, -5e-324]
    z = np.concatenate([special, rand((4000,), seed=40) * 50.0,
                        np.random.default_rng(41).standard_normal(4000)])
    e = np.exp(-np.abs(z))
    want = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    np.testing.assert_array_equal(at._sigmoid(z).view(np.uint64), want.view(np.uint64))


def test_temporal_gate_is_scalar_per_step():
    x = rand((4, 6, 5, 5), seed=7)
    p = rand_params("T", seed=8)
    out = at.tcsa(tz.Tensor(x), p)
    for tau in range(4):
        nz = x[tau] != 0
        ratios = out.data[tau][nz] / x[tau][nz]
        assert np.ptp(ratios) < 1e-12


def test_channel_gate_matches_pooling_oracle():
    x = rand((3, 4, 6, 6), seed=9)
    p = rand_params("C", t=3, c=4, seed=10)
    out = at.tcsa(tz.Tensor(x), p)
    w1, w2 = p["c_compress"].data, p["c_expand"].data

    def mlp(v):
        return w2 @ np.maximum(w1 @ v, 0.0)

    for tau in range(3):
        avg = x[tau].mean(axis=(1, 2))
        mx = x[tau].max(axis=(1, 2))
        gate = 1.0 / (1.0 + np.exp(-(mlp(avg) + mlp(mx))))
        np.testing.assert_allclose(out.data[tau], x[tau] * gate[:, None, None],
                                   rtol=1e-12)


def test_channel_gate_per_step_independence():
    x = rand((4, 6, 5, 5), seed=11)
    p = rand_params("C", seed=12)
    perm = [2, 0, 3, 1]
    out = at.tcsa(tz.Tensor(x), p)
    out_p = at.tcsa(tz.Tensor(x[perm]), p)
    np.testing.assert_allclose(out_p.data, out.data[perm], rtol=1e-13)


def test_spatial_gate_per_step_independence():
    x = rand((4, 6, 5, 5), seed=13)
    p = rand_params("S", seed=14)
    perm = [3, 1, 0, 2]
    out = at.tcsa(tz.Tensor(x), p)
    out_p = at.tcsa(tz.Tensor(x[perm]), p)
    np.testing.assert_allclose(out_p.data, out.data[perm], rtol=1e-13)


def test_temporal_gate_mixes_steps():
    x = rand((4, 6, 5, 5), seed=15)
    p = rand_params("T", seed=16)
    perm = [1, 0, 3, 2]
    out = at.tcsa(tz.Tensor(x), p)
    out_p = at.tcsa(tz.Tensor(x[perm]), p)
    assert not np.allclose(out_p.data, out.data[perm])


def test_spatial_gate_constant_on_constant_interior():
    x = np.full((2, 3, 8, 8), 0.7)
    p = rand_params("S", t=2, c=3, seed=17)
    out = at.tcsa(tz.Tensor(x), p)
    interior = out.data[:, :, 1:-1, 1:-1]
    assert np.ptp(interior) < 1e-12
    # borders see zero padding, so their gates may differ
    assert out.data.shape == x.shape


def test_spatial_gate_shared_across_channels():
    x = rand((2, 5, 6, 6), seed=18)
    p = rand_params("S", t=2, c=5, seed=19)
    out = at.tcsa(tz.Tensor(x), p)
    nz = np.abs(x) > 1e-9
    gate = np.where(nz, out.data / np.where(nz, x, 1.0), np.nan)
    for tau in range(2):
        per_pixel = gate[tau]
        ref = np.nanmax(per_pixel, axis=0)
        for c in range(5):
            ch = per_pixel[c]
            ok = ~np.isnan(ch)
            np.testing.assert_allclose(ch[ok], ref[ok], rtol=1e-10)


# ---------------------------------------------------------------------------
# parameters and validation


def test_param_allocation_respects_enabled_set():
    p = zero_params("CS", t=5, c=8, r=2)
    assert list(p) == ["c_compress", "c_expand", "s_conv"]
    q = zero_params("T", t=4, c=8, r=2)
    assert list(q) == ["t_compress", "t_expand"]
    assert q["t_compress"].data.shape == (2, 4)


def test_param_count_independent_of_t_when_temporal_off():
    a = zero_params("CS", t=1, c=8)
    b = zero_params("CS", t=5, c=8)
    count = lambda p: sum(t.data.size for t in p.values())
    assert count(a) == count(b)


def test_divisibility_validation():
    with pytest.raises(tz.ArgumentError):
        at.weight_shapes(5, 8, 2, "T")
    with pytest.raises(tz.ArgumentError):
        at.weight_shapes(4, 6, 4, "C")


def test_shape_validation():
    p = rand_params("C", t=3, c=4, seed=20)
    with pytest.raises(tz.DimensionError):
        at.tcsa(tz.Tensor(np.zeros((3, 5, 4, 4))), p)
    with pytest.raises(tz.DimensionError):
        at.tcsa(tz.Tensor(np.zeros((2, 4, 4, 4))), rand_params("T", t=3, c=4))
    with pytest.raises(tz.DimensionError):
        at.tcsa(tz.Tensor(np.zeros((3, 4, 4))), p)


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("enabled", ["T", "C", "S"])
def test_module_gradients_match_fd(enabled):
    x = rand((3, 4, 5, 5), seed=21)
    p = rand_params(enabled, t=3, c=4, seed=22)
    weights = [t.data for t in p.values()]

    def build(ts):
        return at.tcsa(ts[0], dict(zip(p, ts[1:])))

    check_op_gradient(build, [x] + weights, rtol=1e-5, atol=1e-8,
                      label="attention " + enabled)


def test_composed_gradient_matches_fd():
    x = rand((2, 4, 4, 4), seed=23)
    p = rand_params("TCS", t=2, c=4, seed=24)
    weights = [t.data for t in p.values()]

    def build(ts):
        return at.tcsa(ts[0], dict(zip(p, ts[1:])))

    check_op_gradient(build, [x] + weights, rtol=1e-5, atol=1e-8, label="tcsa")


# ---------------------------------------------------------------------------
# fused gates against the composed graph


def run_taped(fn, x, p, requires_grad, weight):
    """fn(x, p) under a tape, backward through sum(out * weight).

    Returns (output, input gradient, parameter gradients, tape length)."""
    xt = tz.Tensor(x, requires_grad=requires_grad)
    for t in p.values():
        t.requires_grad, t.grad = True, None
    with tz.Tape() as tape:
        out = fn(xt, p)
        loss = sum_all(mul(out, tz.Tensor(weight)))
    tz.backward(loss, tape)
    return out.data, xt.grad, [t.grad for t in p.values()], len(tape)


@settings(max_examples=150, deadline=None)
@given(t=st.integers(1, 4), hidden=st.integers(1, 3), r=st.integers(1, 3),
       h=st.integers(1, 6), w=st.integers(1, 6),
       enabled=st.sets(st.sampled_from("TCS"), min_size=1),
       kind=st.sampled_from(["uniform", "binary", "binary_zero_frame", "zeros"]),
       requires_grad=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_fused_gates_match_composed_graph(t, hidden, r, h, w, enabled, kind,
                                          requires_grad, seed):
    """Outputs bit for bit, gradients at rtol 1e-12; binary inputs tie in the max pools."""
    rng = np.random.default_rng(seed)
    c = hidden * r
    t = t * r if "T" in enabled else t
    shape = (t, c, h, w)
    if kind == "uniform":
        x = rng.uniform(-1.0, 1.0, shape)
    else:
        x = (rng.uniform(0.0, 1.0, shape) < 0.3).astype(np.float64)
        if kind == "binary_zero_frame":
            x[rng.integers(0, t)] = 0.0
        elif kind == "zeros":
            x[...] = 0.0
    p = attention_params(t, c, r, "".join(enabled), rng=rng)
    weight = rng.uniform(-1.0, 1.0, shape)
    out, gx, gws, n_ops = run_taped(at.tcsa, x, p, requires_grad, weight)
    want, want_gx, want_gws, _ = run_taped(tcsa_composed, x, p, requires_grad, weight)
    assert n_ops == 3  # one for the site, plus mul and sum_all
    np.testing.assert_array_equal(out, want)
    if requires_grad:
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=0.0)
    else:
        assert gx is None and want_gx is None
    for got, ref in zip(gws, want_gws):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("requires_grad", [False, True])
def test_each_module_records_one_tape_entry(requires_grad):
    x = rand((4, 6, 5, 5), seed=25)
    for enabled in "TCS":
        p = rand_params(enabled, seed=26)
        for t in p.values():
            t.requires_grad = True
        with tz.Tape() as tape:
            at.tcsa(tz.Tensor(x, requires_grad=requires_grad), p)
        assert len(tape) == 1, enabled


def test_max_pool_gradient_goes_to_the_first_tied_maximum():
    # channel 0 and 2 tie at every pixel; spatial max routes to channel 0 only,
    # and the channel gate's spatial max to the first tied pixel per channel
    x = np.zeros((1, 3, 2, 2))
    x[0, 0] = x[0, 2] = 1.0
    p = rand_params("S", t=1, c=3, seed=27)
    _, gx, _, _ = run_taped(at.tcsa, x, p, True, np.ones(x.shape))
    np.testing.assert_array_equal(gx[0, 1], gx[0, 2])  # avg-pool share only
    assert (gx[0, 0] != gx[0, 2]).all()
    p = rand_params("C", t=1, c=3, seed=28)
    weight = rand(x.shape, seed=29)
    _, gx, _, _ = run_taped(at.tcsa, x, p, True, weight)
    _, want, _, _ = run_taped(tcsa_composed, x, p, True, weight)
    np.testing.assert_array_equal(gx, want)


# ---------------------------------------------------------------------------
# the decoder's folded upsample


@settings(max_examples=150, deadline=None)
@given(t=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 4), w=st.integers(1, 4),
       f=st.sampled_from([1, 2, 3]), enabled=st.sets(st.sampled_from("TCS")),
       kind=st.sampled_from(["uniform", "binary", "zeros"]),
       requires_grad=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_folded_upsample_matches_upsample_then_gates(t, c, h, w, f, enabled, kind,
                                                     requires_grad, seed):
    """tcsa(x, upsample=f) computes the bits of nearest_upsample(x, f) followed
    by the one-module sites in T, C, S order: outputs and every gradient, so
    the intermediates the site's backward rebuilds equal the ones its forward
    gated; binary inputs tie in the max pools."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        x = rng.uniform(-1.0, 1.0, (t, c, h, w))
    else:
        x = (rng.uniform(0.0, 1.0, (t, c, h, w)) < (0.3 if kind == "binary" else 0.0)) * 1.0
    enabled = "".join(m for m in at.MODULE_ORDER if m in enabled)
    p = attention_params(t, c, 1, enabled, rng=rng)

    def upsample_then_gates(xt, p):
        xt = xt if f == 1 else nearest_upsample(xt, f)
        for m in enabled:  # each module's weight names start with its letter
            xt = at.tcsa(xt, {name: w for name, w in p.items() if name[0] == m.lower()})
        return xt

    weight = rng.uniform(-1.0, 1.0, (t, c, h * f, w * f))
    got = run_taped(lambda xt, p: at.tcsa(xt, p, upsample=f), x, p, requires_grad, weight)
    want = run_taped(upsample_then_gates, x, p, requires_grad, weight)
    np.testing.assert_array_equal(got[0], want[0])
    if requires_grad:
        np.testing.assert_array_equal(got[1], want[1])
    else:
        assert got[1] is None and want[1] is None
    for g, ref in zip(got[2], want[2]):
        np.testing.assert_array_equal(g, ref)
    # the upsample and every enabled module are one entry; with none enabled,
    # tcsa is the upsample alone
    assert got[3] == (3 if enabled else want[3])


def closure_arrays(fn):
    """Every array that fn's closure holds, through tuples, lists and Tensors."""
    arrays, todo = [], [cell.cell_contents for cell in fn.__closure__]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, tz.Tensor):
            arrays.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
    return arrays


@pytest.mark.parametrize("enabled", ["T", "C", "S", "TC", "TS", "CS", "TCS"])
def test_folded_upsample_entry_keeps_the_input_not_its_copy(enabled):
    # the site keeps x and per-module state, no gated intermediate and no
    # upsampled copy; the spatial maps hold 2 f^2 values per pixel of x, at
    # most x's C = 8 values at f = 2 (a decoder site has C >= 16)
    for f in (1, 2):
        x = tz.Tensor(rand((4, 8, 5, 7), seed=40), requires_grad=True)
        p = rand_params(enabled, c=8, seed=41)
        for wt in p.values():
            wt.requires_grad = True
        with tz.Tape() as tape:
            at.tcsa(x, p, upsample=f)
        [(_, _, site_backward)] = tape._ops
        assert site_backward.__qualname__ == "_site.<locals>.bw"
        arrays = closure_arrays(site_backward)
        assert any(a is x.data for a in arrays)
        assert max(a.nbytes for a in arrays) == x.data.nbytes


def test_channel_gate_output_is_freed_after_the_forward(monkeypatch):
    # the spatial module reads the channel gate's output; once the forward is
    # done nothing holds it, and the backward rebuilds it from x and the gate
    seen = []
    state = at._spatial_state

    def watched(a, wd):
        seen.append(weakref.ref(a))
        return state(a, wd)

    monkeypatch.setattr(at, "_spatial_state", watched)
    x = rand((4, 6, 5, 7), seed=42)
    p = rand_params("CS", seed=43)
    weight = rand((4, 6, 10, 14), seed=44)
    for f in (1, 2):
        xt = tz.Tensor(x, requires_grad=True)
        for wt in p.values():
            wt.requires_grad, wt.grad = True, None
        with tz.Tape() as tape:
            out = at.tcsa(xt, p, upsample=f)
            loss = sum_all(mul(out, tz.Tensor(weight[:, :, :5 * f, :7 * f])))
        assert seen[-1]() is None
        tz.backward(loss, tape)
        assert np.isfinite(xt.grad).all() and xt.grad.shape == x.shape
