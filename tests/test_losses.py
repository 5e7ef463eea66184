import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikedepth import tensor as tz
from spikedepth import events as ev
from spikedepth import losses as ls
from helpers import central_diff, assert_grads_close, mul, total_loss_composed


def gt_frame(depth, valid=None, t=0):
    depth = np.asarray(depth, dtype=np.float64)
    if valid is None:
        valid = np.ones(depth.shape, dtype=bool)
    return ev.DepthFrame(depth=np.where(valid, depth, 0.0),
                         valid=valid, t=t)


MINUS = ls.LossConfig()
PLUS = ls.LossConfig(ssi_sign="plus")


def test_ssi_zero_at_exact_prediction():
    gt = gt_frame(np.full((4, 5), 2.0))
    pred = tz.Tensor(np.full((4, 5), 2.0))
    assert ls.ssi_loss(pred, gt, MINUS) == 0.0
    assert ls.ssi_loss(pred, gt, PLUS) == 0.0


def test_ssi_constant_offset():
    gt = gt_frame(np.full((3, 3), 2.0))
    pred = tz.Tensor(np.full((3, 3), 2.0) + 0.25)
    assert ls.ssi_loss(pred, gt, MINUS) == pytest.approx(0.0, abs=1e-15)
    assert ls.ssi_loss(pred, gt, PLUS) == pytest.approx(2 * 0.25 ** 2, rel=1e-12)


def test_ssi_two_pixel_case():
    gt = gt_frame(np.array([[2.0, 2.0]]))
    pred = tz.Tensor(np.array([[1.0, 3.0]]))  # residuals +1, -1
    assert ls.ssi_loss(pred, gt, MINUS) == pytest.approx(1.0, rel=1e-14)
    assert ls.ssi_loss(pred, gt, PLUS) == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.floats(-5.0, 5.0, allow_nan=False))
def test_ssi_minus_is_shift_invariant(seed, c):
    rng = np.random.default_rng(seed)
    depth = rng.uniform(0.5, 5.0, size=(5, 6))
    pred = rng.uniform(0.0, 5.0, size=(5, 6))
    gt = gt_frame(depth)
    base = ls.ssi_loss(tz.Tensor(pred), gt, MINUS)
    shifted = ls.ssi_loss(tz.Tensor(pred + c), gt, MINUS)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_ssi_plus_dominates_minus():
    rng = np.random.default_rng(5)
    for _ in range(20):
        gt = gt_frame(rng.uniform(0.5, 4.0, size=(4, 4)))
        pred = tz.Tensor(rng.uniform(0.0, 5.0, size=(4, 4)))
        assert ls.ssi_loss(pred, gt, PLUS) >= ls.ssi_loss(pred, gt, MINUS)


def test_reg_zero_for_constant_residual():
    gt = gt_frame(np.full((4, 4), 3.0))
    pred = tz.Tensor(np.full((4, 4), 1.3))
    assert ls.reg_loss(pred, gt) == 0.0


def test_reg_worked_example():
    # residual [[0, 1], [0, 1]]: two horizontal unit steps, no vertical steps
    gt = gt_frame(np.array([[1.0, 2.0], [1.0, 2.0]]))
    pred = tz.Tensor(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert ls.reg_loss(pred, gt) == pytest.approx(0.5, rel=1e-14)


def test_reg_absolute_homogeneity():
    rng = np.random.default_rng(6)
    depth = rng.uniform(1.0, 3.0, size=(5, 5))
    delta = rng.uniform(-1.0, 1.0, size=(5, 5))
    gt = gt_frame(depth)
    base = ls.reg_loss(tz.Tensor(depth - delta), gt)
    scaled = ls.reg_loss(tz.Tensor(depth - 3.0 * delta), gt)
    assert scaled == pytest.approx(3.0 * base, rel=1e-11)


def test_reg_gates_mixed_validity_pairs():
    # invalid center pixel: every pair touching it drops out
    valid = np.ones((3, 3), dtype=bool)
    valid[1, 1] = False
    gt = gt_frame(np.full((3, 3), 2.0), valid)
    pred_a = np.full((3, 3), 1.0)
    pred_b = pred_a.copy()
    pred_b[1, 1] = 77.0  # invalid pixel, must not matter
    la = ls.reg_loss(tz.Tensor(pred_a), gt)
    lb = ls.reg_loss(tz.Tensor(pred_b), gt)
    assert la == lb == 0.0


def test_masked_pixel_perturbation_is_invisible():
    rng = np.random.default_rng(7)
    valid = rng.uniform(size=(5, 5)) > 0.3
    valid[0, 0] = True  # keep at least one valid pixel
    gt = gt_frame(rng.uniform(1.0, 4.0, size=(5, 5)), valid)
    pred = rng.uniform(0.5, 4.5, size=(5, 5))
    pred2 = pred.copy()
    pred2[~valid] += 123.0
    for cfg in (MINUS, PLUS):
        assert (ls.total_loss(tz.Tensor(pred), gt, cfg).item()
                == ls.total_loss(tz.Tensor(pred2), gt, cfg).item())
    assert ls.mde_cm(tz.Tensor(pred), gt) == ls.mde_cm(tz.Tensor(pred2), gt)


def test_total_recomposes():
    rng = np.random.default_rng(8)
    gt = gt_frame(rng.uniform(1.0, 4.0, size=(6, 6)))
    pred = tz.Tensor(rng.uniform(0.5, 4.5, size=(6, 6)))
    cfg = ls.LossConfig(lambda_reg=0.7)
    total = ls.total_loss(pred, gt, cfg).item()
    parts = ls.ssi_loss(pred, gt, cfg) + 0.7 * ls.reg_loss(pred, gt)
    assert total == pytest.approx(parts, rel=1e-12)


def test_lambda_zero_drops_reg():
    rng = np.random.default_rng(9)
    gt = gt_frame(rng.uniform(1.0, 4.0, size=(4, 4)))
    pred = tz.Tensor(rng.uniform(0.5, 4.5, size=(4, 4)))
    cfg = ls.LossConfig(lambda_reg=0.0)
    assert ls.total_loss(pred, gt, cfg).item() == ls.ssi_loss(pred, gt, cfg)


def test_mde_exact_values():
    gt = gt_frame(np.full((2, 2), 2.0))
    assert ls.mde_cm(tz.Tensor(np.full((2, 2), 2.0)), gt) == 0.0
    assert ls.mde_cm(tz.Tensor(np.full((2, 2), 2.03)), gt) == pytest.approx(3.0, rel=1e-10)
    half = np.array([[2.0, 2.0], [2.1, 2.0]])
    assert ls.mde_cm(tz.Tensor(half), gt) == pytest.approx(2.5, rel=1e-10)


def test_no_valid_pixels_is_an_error():
    gt = gt_frame(np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
    pred = tz.Tensor(np.ones((2, 2)))
    with pytest.raises(ls.MetricError):
        ls.ssi_loss(pred, gt)
    with pytest.raises(ls.MetricError):
        ls.reg_loss(pred, gt)
    with pytest.raises(ls.MetricError):
        ls.mde_cm(pred, gt)


def test_shape_mismatch():
    gt = gt_frame(np.ones((2, 3)))
    with pytest.raises(tz.DimensionError):
        ls.total_loss(tz.Tensor(np.ones((3, 2))), gt)


def test_config_validation():
    with pytest.raises(tz.ArgumentError):
        ls.LossConfig(ssi_sign="times")
    with pytest.raises(tz.ArgumentError):
        ls.LossConfig(lambda_reg=-0.1)


def test_total_loss_gradient_matches_fd():
    rng = np.random.default_rng(10)
    valid = rng.uniform(size=(5, 5)) > 0.2
    valid[2, 2] = True
    gt = gt_frame(rng.uniform(1.0, 4.0, size=(5, 5)), valid)
    pred = rng.uniform(0.5, 4.5, size=(5, 5))
    for cfg in (MINUS, PLUS):
        leaf = tz.Tensor(pred, requires_grad=True)
        leaf.data = pred
        with tz.Tape() as tape:
            loss = ls.total_loss(leaf, gt, cfg)
        tz.backward(loss, tape)

        def f():
            return ls.total_loss(tz.Tensor(pred), gt, cfg).item()

        fd = central_diff(f, [pred])[0]
        assert_grads_close(leaf.grad, fd, rtol=1e-6, atol=1e-9,
                           label="total loss %s" % cfg.ssi_sign)


@settings(max_examples=300, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       hole_rate=st.sampled_from([0.0, 0.3, 0.7]), tie_rate=st.sampled_from([0.0, 0.5, 1.0]),
       decimals=st.sampled_from([0, 1, 8]), lam=st.sampled_from([0.0, 0.5, 1.3, 2.0]),
       sign=st.sampled_from(ls.SSI_SIGNS), upstream=st.sampled_from([None, -0.75, 3.0]))
def test_fused_total_loss_matches_composed_graph(h, w, seed, hole_rate, tie_rate, decimals,
                                                 lam, sign, upstream):
    """One tape entry whose value and gradient equal the composed graph's bit
    for bit: holes in the mask, 1-pixel rows and columns, residual ties (zero
    differences) and an upstream gradient other than 1."""
    rng = np.random.default_rng(seed)
    valid = rng.uniform(size=(h, w)) >= hole_rate
    valid.flat[rng.integers(h * w)] = True
    depth = 1.0 + np.round(rng.uniform(0.0, 3.0, size=(h, w)), decimals)
    pred = depth + np.round(rng.uniform(-2.0, 2.0, size=(h, w)), decimals)
    pred = np.where(rng.uniform(size=(h, w)) < tie_rate, depth, pred)
    gt = gt_frame(depth, valid)
    cfg = ls.LossConfig(lambda_reg=lam, ssi_sign=sign)
    got = []
    for loss_fn in (ls.total_loss, total_loss_composed):
        leaf = tz.Tensor(pred, requires_grad=True)
        with tz.Tape() as tape:
            loss = loss_fn(leaf, gt, cfg)
            fused_entries = len(tape)
            if upstream is not None:
                loss = mul(loss, upstream)
        tz.backward(loss, tape)
        got.append((loss.data.tobytes(), leaf.grad.tobytes(), fused_entries))
    assert got[0][:2] == got[1][:2]
    assert got[0][2] == 1

