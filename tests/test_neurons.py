import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikedepth import model as md
from spikedepth import tensor as tz
from spikedepth import neurons as nr
from helpers import (brute_if_trace, central_diff, assert_grads_close, if_run_charged,
                     if_run_stepwise, mul, sum_all, surrogate_grad)


def run_trace(inputs, **kw):
    """(spikes, charged membranes) of one population with the config fields kw."""
    return if_run_charged(inputs, md.ModelConfig(**kw))


def test_quiescent_below_threshold():
    spikes, h = run_trace(np.full((3, 2), 0.2))
    assert spikes.sum() == 0.0
    np.testing.assert_allclose(h[:, 0], [0.2, 0.4, 0.6])


def test_constant_drive_trace():
    # 0.6 per step, threshold 1: charge 0.6, fire at 1.2, charge again
    spikes, h = run_trace(np.full((3, 1), 0.6))
    np.testing.assert_array_equal(spikes[:, 0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(h[:, 0], [0.6, 1.2, 0.6])


@pytest.mark.parametrize("c", [0.25, 0.26, 0.34, 0.5, 0.73, 0.99])
def test_first_spike_time_is_ceil(c):
    t_steps = 16
    spikes, _ = run_trace(np.full((t_steps, 1), c))
    fired = np.nonzero(spikes[:, 0])[0]
    want = int(np.ceil(1.0 / c))
    assert fired[0] == want - 1  # zero-based step index


def test_threshold_equality_fires():
    # the reset shows in the next step's charge, which starts from 0
    spikes, h = run_trace(np.array([[1.0], [0.5]]))
    np.testing.assert_array_equal(spikes[:, 0], [1.0, 0.0])
    np.testing.assert_array_equal(h[:, 0], [1.0, 0.5])


def test_single_step_degenerate():
    x = np.array([[1.4, 0.2]])
    spikes, h = run_trace(x)
    np.testing.assert_array_equal(spikes, [[1.0, 0.0]])
    np.testing.assert_array_equal(h, x)


def test_nonzero_reset_level():
    spikes, h = run_trace(np.array([[1.5], [0.1]]), v_reset=0.25)
    np.testing.assert_array_equal(spikes[:, 0], [1.0, 0.0])
    np.testing.assert_allclose(h[:, 0], [1.5, 0.35])


def test_invalid_params():
    with pytest.raises(tz.ArgumentError, match="must exceed v_reset"):
        md.ModelConfig(v_threshold=1.0, v_reset=1.0)
    with pytest.raises(tz.ArgumentError, match="surrogate_alpha must be positive"):
        md.ModelConfig(surrogate_alpha=0.0)
    with pytest.raises(tz.ArgumentError):
        md.ModelConfig(neuron_mode="analog")


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
        spikes, h = run_trace(x)
        assert set(np.unique(spikes)) <= {0.0, 1.0}
        # hard reset keeps the membrane each step hands on below threshold
        assert (np.where(spikes == 1.0, 0.0, h) < 1.0).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
def test_matches_brute_simulator(seed, t_steps):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 2.5, size=(t_steps, 3, 2))
    spikes, h = run_trace(x)
    bs, bh = brute_if_trace(x, 1.0, 0.0)
    np.testing.assert_array_equal(spikes, bs)
    np.testing.assert_array_equal(h, bh)


def test_charge_bookkeeping():
    # with v_reset 0 every input lands in the membrane and leaves it only
    # through a spike, so the sum of inputs is the charge spent at spikes
    # plus the charge left after the last step
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1.2, size=(12, 5))
    spikes, h = run_trace(x)
    assert 0 < spikes.sum() < spikes.size
    left = h[-1] * (1.0 - spikes[-1])
    np.testing.assert_allclose(x.sum(), (h * spikes).sum() + left.sum(), rtol=1e-12)


def test_repeated_runs_are_identical():
    # crafted so a membrane carried from the first run would flip the spikes
    x = np.array([[0.6], [0.6], [0.6], [0.0]])
    cfg = md.ModelConfig()
    first, second = nr.if_run(tz.Tensor(x), cfg), nr.if_run(tz.Tensor(x), cfg)
    np.testing.assert_array_equal(first.data, [[0.0], [1.0], [0.0], [0.0]])
    np.testing.assert_array_equal(first.data, second.data)


@pytest.mark.parametrize("shape", [(), (0,), (0, 3)])
def test_if_run_needs_a_nonempty_time_axis(shape):
    with pytest.raises(tz.DimensionError, match="leading time axis"):
        nr.if_run(tz.Tensor(np.zeros(shape)), md.ModelConfig())


# ---------------------------------------------------------------------------
# surrogate shape


def test_surrogate_peak_support_and_area():
    cfg = md.ModelConfig(surrogate_alpha=0.5)
    h = np.linspace(-2, 4, 120001)
    tri = surrogate_grad(tz.Tensor(h), cfg).data
    assert tri.max() == pytest.approx(1.0 / 0.5)
    assert tri[np.abs(h - 1.0) > 0.5].sum() == 0.0
    area = np.trapezoid(tri, h)
    assert area == pytest.approx(1.0, abs=1e-6)


def test_surrogate_is_derivative_of_smooth_forward():
    cfg = md.ModelConfig(neuron_mode="smooth", surrogate_alpha=0.8)
    h = np.linspace(-1.5, 3.5, 41)
    eps = 1e-6
    fwd = lambda z: nr._smooth_ramp(z, cfg.v_threshold, cfg.surrogate_alpha)
    fd = (fwd(h + eps) - fwd(h - eps)) / (2 * eps)
    tri = surrogate_grad(tz.Tensor(h), cfg).data
    np.testing.assert_allclose(fd, tri, atol=1e-5)


def test_smooth_ramp_limits_and_midpoint():
    r = nr._smooth_ramp(np.array([-5.0, 1.0, 7.0]), 1.0, 1.0)
    np.testing.assert_allclose(r, [0.0, 0.5, 1.0])


# ---------------------------------------------------------------------------
# gradients through time


def test_smooth_multistep_gradient_matches_fd():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 1.8, size=(5, 4))
    cfg = md.ModelConfig(neuron_mode="smooth")
    xt = tz.Tensor(x, requires_grad=True)
    xt.data = x
    with tz.Tape() as tape:
        spikes = nr.if_run(xt, cfg)
        loss = sum_all(mul(spikes, spikes))
    tz.backward(loss, tape)

    def f():
        return float((nr.if_run(tz.Tensor(x), cfg).data ** 2).sum())

    fd = central_diff(f, [x])[0]
    assert_grads_close(xt.grad, fd, rtol=1e-5, atol=1e-8, label="smooth bptt")


def test_spiking_backward_uses_surrogate():
    # single step: d(spike)/d(input) should equal the triangle at the charged level
    cfg = md.ModelConfig()
    for drive in [0.3, 0.9, 1.0, 1.4, 2.5]:
        x = tz.Tensor(np.array([drive]), requires_grad=True)
        with tz.Tape() as tape:
            s = nr.if_run(x, cfg)
            loss = sum_all(s)
        tz.backward(loss, tape)
        tri = max(0.0, 1.0 - abs(drive - 1.0))
        np.testing.assert_allclose(x.grad, [tri], rtol=1e-12)


# ---------------------------------------------------------------------------
# the fused op against the per-step taped oracle


def _run_with_loss(run, x, cfg, weights):
    """Spikes and x.grad of run(x, cfg) under a weighted sum of the spikes."""
    xt = tz.Tensor(x.copy(), requires_grad=True)
    with tz.Tape() as tape:
        spikes = run(xt, cfg)
        loss = sum_all(mul(spikes, tz.Tensor(weights)))
    tz.backward(loss, tape)
    return spikes, xt.grad


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t_steps=st.integers(1, 8),
       tail=st.lists(st.integers(1, 3), max_size=2),
       mode=st.sampled_from(nr.MODES), v_reset=st.sampled_from((0.0, 0.25, -0.4)))
def test_fused_if_run_matches_the_per_step_oracle(seed, t_steps, tail, mode, v_reset):
    rng = np.random.default_rng(seed)
    shape = (t_steps,) + tuple(tail)
    x = rng.uniform(-1.0, 2.5, size=shape)
    weights = rng.uniform(-1, 1, size=shape)
    cfg = md.ModelConfig(v_reset=v_reset, surrogate_alpha=0.7, neuron_mode=mode)
    got = _run_with_loss(nr.if_run, x, cfg, weights)
    want = _run_with_loss(if_run_stepwise, x, cfg, weights)
    np.testing.assert_array_equal(got[0].data, want[0].data)
    np.testing.assert_array_equal(got[1], want[1])


def test_fused_if_run_is_one_tape_entry():
    x = tz.Tensor(np.ones((5, 2, 3)), requires_grad=True)
    for mode in nr.MODES:
        with tz.Tape() as tape:
            spikes = nr.if_run(x, md.ModelConfig(neuron_mode=mode))
        assert len(tape) == 1, mode
        [(node, _, _)] = tape._ops
        assert node is spikes.node, mode


@pytest.mark.parametrize("mode", ["spiking", "smooth"])
def test_fused_if_run_backward_keeps_only_the_charged_membranes(mode):
    # the spikes are fired again from h in the backward, so no closure pins them
    x = tz.Tensor(np.random.default_rng(7).uniform(-1.0, 2.5, (4, 3, 5)), requires_grad=True)
    with tz.Tape() as tape:
        spikes = nr.if_run(x, md.ModelConfig(neuron_mode=mode))
    _, _, if_backward = tape._ops[0]
    assert if_backward.__qualname__ == "if_run.<locals>.bw"
    held = [c.cell_contents for c in if_backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    arrays += [t.data for t in held if isinstance(t, tz.Tensor)]
    [h] = arrays
    assert h.shape == x.data.shape and not np.shares_memory(h, spikes.data)
    np.testing.assert_array_equal(h[0], x.data[0])  # charged from a zero membrane
