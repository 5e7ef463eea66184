import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikedepth import tensor as tz
from spikedepth import neurons as nr
from helpers import (brute_if_trace, central_diff, assert_grads_close, if_multistep,
                     surrogate_grad)


def run_trace(inputs, **kw):
    params = nr.IFParams(**kw)
    spikes, membrane = if_multistep(tz.Tensor(inputs), params)
    return (None if spikes is None else spikes.data), membrane.data


def test_quiescent_below_threshold():
    spikes, v = run_trace(np.full((3, 2), 0.2))
    assert spikes.sum() == 0.0
    np.testing.assert_allclose(v, 0.6)


def test_constant_drive_trace():
    # 0.6 per step, threshold 1: charge 0.6, fire at 1.2, charge again
    spikes, v = run_trace(np.full((3, 1), 0.6))
    np.testing.assert_array_equal(spikes[:, 0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(v, [0.6])


@pytest.mark.parametrize("c", [0.25, 0.26, 0.34, 0.5, 0.73, 0.99])
def test_first_spike_time_is_ceil(c):
    t_steps = 16
    spikes, _ = run_trace(np.full((t_steps, 1), c))
    fired = np.nonzero(spikes[:, 0])[0]
    want = int(np.ceil(1.0 / c))
    assert fired[0] == want - 1  # zero-based step index


def test_threshold_equality_fires():
    spikes, v = run_trace(np.array([[1.0]]))
    assert spikes[0, 0] == 1.0
    assert v[0] == 0.0


def test_integrator_accumulates():
    x = np.array([[0.5], [2.0], [-0.3]])
    spikes, v = run_trace(x, mode="integrator")
    assert spikes is None
    np.testing.assert_allclose(v, [2.2])


def test_single_step_degenerate():
    x = np.array([[1.4, 0.2]])
    spikes, v = run_trace(x)
    np.testing.assert_array_equal(spikes, [[1.0, 0.0]])
    np.testing.assert_allclose(v, [0.0, 0.2])


def test_nonzero_reset_level():
    spikes, v = run_trace(np.array([[1.5], [0.1]]), v_reset=0.25)
    np.testing.assert_array_equal(spikes[:, 0], [1.0, 0.0])
    np.testing.assert_allclose(v, [0.35])


def test_invalid_params():
    with pytest.raises(tz.ArgumentError):
        nr.IFParams(v_threshold=1.0, v_reset=1.0)
    with pytest.raises(tz.ArgumentError):
        nr.IFParams(surrogate_alpha=0.0)
    with pytest.raises(tz.ArgumentError):
        nr.IFParams(mode="analog")


def test_statefulness_permutation_witness():
    # same multiset of inputs, different order, different spike count
    a = np.array([[0.9], [0.9], [0.0]])
    b = np.array([[0.9], [0.0], [0.9]])
    sa, _ = run_trace(a)
    sb, _ = run_trace(b)
    assert sa.sum() != sb.sum() or not np.array_equal(sa, sb)


def test_spikes_are_binary_and_membrane_bounded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-2, 3, size=(6, 4))
        spikes, v = run_trace(x)
        assert set(np.unique(spikes)) <= {0.0, 1.0}
        assert (v < 1.0).all()  # hard reset keeps membrane below threshold


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
def test_matches_brute_simulator(seed, t_steps):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 2.5, size=(t_steps, 3, 2))
    spikes, v = run_trace(x)
    bs, bv = brute_if_trace(x, 1.0, 0.0)
    np.testing.assert_array_equal(spikes, bs)
    np.testing.assert_array_equal(v, bv)


def test_charge_bookkeeping():
    # with v_reset 0: sum of inputs = final membrane + sum of charged levels at spikes
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1.2, size=(12, 5))
    params = nr.IFParams()
    state = nr.IFState()
    charged_at_spike = 0.0
    for t in range(12):
        prev = 0.0 if state.membrane is None else state.membrane.data
        s = nr.if_step(state, tz.Tensor(x[t]), params)
        h = prev + x[t]
        charged_at_spike += (h * s.data).sum()
    total = x.sum()
    np.testing.assert_allclose(total, charged_at_spike + state.membrane.data.sum(),
                               rtol=1e-12)


def test_reset_gives_identical_replay():
    # crafted so the carried membrane flips the spike pattern when not reset
    x = np.array([[0.6], [0.6], [0.6], [0.0]])
    params = nr.IFParams()
    state = nr.IFState()
    first, _ = nr.if_run(state, tz.Tensor(x), params)
    nr.reset_state([state])
    assert state.membrane is None and state.step == 0
    second, _ = nr.if_run(state, tz.Tensor(x), params)
    np.testing.assert_array_equal(first.data, second.data)
    # without the reset the carried membrane changes the outcome
    third, _ = nr.if_run(state, tz.Tensor(x), params)
    assert not np.array_equal(second.data, third.data)


# ---------------------------------------------------------------------------
# surrogate shape


def test_surrogate_peak_support_and_area():
    params = nr.IFParams(surrogate_alpha=0.5)
    h = np.linspace(-2, 4, 120001)
    tri = surrogate_grad(tz.Tensor(h), params).data
    assert tri.max() == pytest.approx(1.0 / 0.5)
    assert tri[np.abs(h - 1.0) > 0.5].sum() == 0.0
    area = np.trapezoid(tri, h)
    assert area == pytest.approx(1.0, abs=1e-6)


def test_surrogate_is_derivative_of_smooth_forward():
    params = nr.IFParams(mode="smooth", surrogate_alpha=0.8)
    h = np.linspace(-1.5, 3.5, 41)
    eps = 1e-6
    fwd = lambda z: nr._smooth_ramp(z, params.v_threshold, params.surrogate_alpha)
    fd = (fwd(h + eps) - fwd(h - eps)) / (2 * eps)
    tri = surrogate_grad(tz.Tensor(h), params).data
    np.testing.assert_allclose(fd, tri, atol=1e-5)


def test_smooth_ramp_limits_and_midpoint():
    r = nr._smooth_ramp(np.array([-5.0, 1.0, 7.0]), 1.0, 1.0)
    np.testing.assert_allclose(r, [0.0, 0.5, 1.0])


# ---------------------------------------------------------------------------
# gradients through time


def test_smooth_multistep_gradient_matches_fd():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 1.8, size=(5, 4))
    params = nr.IFParams(mode="smooth")
    xt = tz.Tensor(x, requires_grad=True)
    xt.data = x
    with tz.Tape() as tape:
        spikes, v = if_multistep(xt, params)
        loss = tz.add(tz.sum_all(tz.mul(spikes, spikes)), tz.sum_all(tz.mul(v, v)))
    tz.backward(loss, tape)

    def f():
        s, vv = if_multistep(tz.Tensor(x), params)
        return float((s.data ** 2).sum() + (vv.data ** 2).sum())

    fd = central_diff(f, [x])[0]
    assert_grads_close(xt.grad, fd, rtol=1e-5, atol=1e-8, label="smooth bptt")


def test_spiking_backward_uses_surrogate():
    # single step: d(spike)/d(input) should equal the triangle at the charged level
    params = nr.IFParams()
    for drive in [0.3, 0.9, 1.0, 1.4, 2.5]:
        x = tz.Tensor(np.array([drive]), requires_grad=True)
        state = nr.IFState()
        with tz.Tape() as tape:
            s = nr.if_step(state, x, params)
            loss = tz.sum_all(s)
        tz.backward(loss, tape)
        tri = max(0.0, 1.0 - abs(drive - 1.0))
        np.testing.assert_allclose(x.grad, [tri], rtol=1e-12)


def test_integrator_gradient_is_identity_per_step():
    params = nr.IFParams(mode="integrator")
    x = tz.Tensor(np.ones((4, 2)), requires_grad=True)
    with tz.Tape() as tape:
        _, v = if_multistep(x, params)
        loss = tz.sum_all(v)
    tz.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((4, 2)))
