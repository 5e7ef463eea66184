"""Depth objectives and evaluation metrics.

The residual R is ground truth minus prediction, zeroed wherever the ground
truth is invalid; n counts valid pixels only. The scale-shift-invariant term
has two variants selected by sign:

  minus   (1/n) sum R^2 - (1/n^2) (sum R)^2, invariant to a constant shift
  plus    (1/n) sum R^2 + (1/n^2) (sum R)^2

The smoothness term averages |dR/dx| + |dR/dy| over forward differences,
counting only pixel pairs where both neighbors are valid. The total is
ssi + lambda * reg per prediction scale, summed across scales by the caller.
total_loss is the training objective, one tape entry per scale; ssi_loss and
reg_loss return plain floats, for reporting.

Mean depth error is reported in centimeters over valid pixels.
"""

from dataclasses import dataclass

import numpy as np

from . import kv
from . import tensor as tz


class MetricError(tz.InputError):
    """Metric undefined for the given inputs (no valid pixels)."""


SSI_SIGNS = ("minus", "plus")


@dataclass(frozen=True)
class LossConfig:
    lambda_reg: float = kv.at_least(0.5, 0)
    ssi_sign: str = kv.choice("minus", SSI_SIGNS)

    def __post_init__(self):
        kv.check_fields(self, tz.ArgumentError)


def _masked_residual(pred, gt):
    """(R, mask, n) as numpy arrays: ground truth minus pred, zeroed off the valid pixels."""
    pred = tz.as_tensor(pred)
    if pred.data.shape != gt.depth.shape:
        raise tz.DimensionError("prediction %s does not match ground truth %s"
                                % (pred.data.shape, gt.depth.shape))
    n = int(gt.valid.sum())
    if n == 0:
        raise MetricError("no valid ground-truth pixels")
    mask = gt.valid.astype(np.float64)
    return (gt.depth - pred.data) * mask, mask, n


def _ssi(resid, n, sign):
    s = resid.sum()
    mean_sq = (resid * resid).sum() * (1.0 / n)
    sq_mean = (s * s) * (1.0 / (n * n))
    return mean_sq - sq_mean if sign == "minus" else mean_sq + sq_mean


# (hi, lo) index pairs of the forward differences along x, then along y
_NEIGHBORS = ((np.s_[:, 1:], np.s_[:, :-1]), (np.s_[1:, :], np.s_[:-1, :]))


def _pair_diffs(resid, mask):
    """(hi, lo, valid-pair mask, masked difference) per axis that has pairs."""
    out = []
    for hi, lo in _NEIGHBORS:
        pair = mask[hi] * mask[lo]
        if pair.size:
            out.append((hi, lo, pair, (resid[hi] - resid[lo]) * pair))
    return out


def _reg(pairs, n):
    return sum(np.abs(d).sum() for _, _, _, d in pairs) * (1.0 / n)


def ssi_loss(pred, gt, config=LossConfig()):
    """Scale-shift-invariant squared loss over valid pixels, as a float."""
    resid, _, n = _masked_residual(pred, gt)
    return float(_ssi(resid, n, config.ssi_sign))


def reg_loss(pred, gt):
    """Mean absolute forward difference of the residual, valid pairs only, as a float."""
    resid, mask, n = _masked_residual(pred, gt)
    return float(_reg(_pair_diffs(resid, mask), n))


def _scatter(shape, idx, g):
    full = np.zeros(shape)
    full[idx] = g
    return full


def total_loss(pred, gt, config=LossConfig()):
    """ssi + lambda * reg for one prediction scale: one tape entry.

    The backward is closed form. It adds the reg path, then the ssi path,
    each in the order the reverse sweep of the composed graph (sub, mul,
    sum_all, absolute and slice ops) would, so gradients match it bit for
    bit; |d| has gradient 0 at d = 0.
    """
    pred = tz.as_tensor(pred)
    resid, mask, n = _masked_residual(pred, gt)
    pairs = _pair_diffs(resid, mask)
    lam = config.lambda_reg
    out = tz.Tensor(_ssi(resid, n, config.ssi_sign) + _reg(pairs, n) * lam)
    s = resid.sum()

    def bw(g):
        g_sq_mean = -g if config.ssi_sign == "minus" else g
        g_s2 = g_sq_mean * (1.0 / (n * n))
        g_s = g_s2 * s + g_s2 * s
        g_sq = g * (1.0 / n)
        g_ssi = -(((g_s + g_sq * resid) + g_sq * resid) * mask)
        if not pairs:
            return (g_ssi,)
        g_pair = g * lam * (1.0 / n)
        g_resid = None
        for hi, lo, pair, d in reversed(pairs):  # y before x, lo slice before hi
            gd = (g_pair * np.sign(d)) * pair
            lo_part = _scatter(resid.shape, lo, -gd)
            g_resid = lo_part if g_resid is None else g_resid + lo_part
            g_resid = g_resid + _scatter(resid.shape, hi, gd)
        return (-(g_resid * mask) + g_ssi,)

    tz.record(out, (pred,), bw)
    return out


def mde_cm(pred, gt):
    """Mean absolute depth error in centimeters; plain float, not taped."""
    resid, _, n = _masked_residual(pred, gt)
    return float(100.0 * np.abs(resid[gt.valid]).sum() / n)

