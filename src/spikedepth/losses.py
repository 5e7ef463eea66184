"""Depth objectives and evaluation metrics.

The residual R is ground truth minus prediction, zeroed wherever the ground
truth is invalid; n counts valid pixels only. The scale-shift-invariant term
has two variants selected by sign:

  minus   (1/n) sum R^2 - (1/n^2) (sum R)^2, invariant to a constant shift
  plus    (1/n) sum R^2 + (1/n^2) (sum R)^2

The smoothness term averages |dR/dx| + |dR/dy| over forward differences,
counting only pixel pairs where both neighbors are valid. The total is
ssi + lambda * reg per prediction scale, summed across scales by the caller.

Mean depth error is reported in centimeters over valid pixels.
"""

from dataclasses import dataclass

import numpy as np

from . import kv
from . import tensor as tz


class MetricError(ValueError):
    """Metric undefined for the given inputs (no valid pixels)."""


SSI_SIGNS = ("minus", "plus")


@dataclass(frozen=True)
class LossConfig:
    lambda_reg: float = 0.5
    ssi_sign: str = kv.choice("minus", SSI_SIGNS)

    def __post_init__(self):
        kv.check_choices(self)
        if self.lambda_reg < 0:
            raise tz.ArgumentError("lambda_reg must be >= 0, got %r" % (self.lambda_reg,))


def _masked_residual(pred, gt):
    if pred.data.shape != gt.depth.data.shape:
        raise tz.DimensionError("prediction %s does not match ground truth %s"
                                % (pred.data.shape, gt.depth.data.shape))
    n = int(gt.valid.sum())
    if n == 0:
        raise MetricError("no valid ground-truth pixels")
    mask = gt.valid.astype(np.float64)
    resid = tz.mul(tz.sub(gt.depth, pred), tz.Tensor(mask))
    return resid, mask, n


def ssi_loss(pred, gt, config=LossConfig()):
    """Scale-shift-invariant squared loss over valid pixels."""
    pred = tz.as_tensor(pred)
    resid, _, n = _masked_residual(pred, gt)
    sq = tz.sum_all(tz.mul(resid, resid))
    s = tz.sum_all(resid)
    mean_sq = tz.mul(sq, 1.0 / n)
    sq_mean = tz.mul(tz.mul(s, s), 1.0 / (n * n))
    if config.ssi_sign == "minus":
        return tz.sub(mean_sq, sq_mean)
    return tz.add(mean_sq, sq_mean)


def reg_loss(pred, gt):
    """Mean absolute forward difference of the residual, valid pairs only."""
    pred = tz.as_tensor(pred)
    resid, mask, n = _masked_residual(pred, gt)
    h, w = resid.data.shape
    total = None
    if w > 1:
        dx = tz.sub(tz.slice_nd(resid, ((0, h), (1, w))),
                    tz.slice_nd(resid, ((0, h), (0, w - 1))))
        pair_x = tz.Tensor(mask[:, 1:] * mask[:, :-1])
        total = tz.sum_all(tz.absolute(tz.mul(dx, pair_x)))
    if h > 1:
        dy = tz.sub(tz.slice_nd(resid, ((1, h), (0, w))),
                    tz.slice_nd(resid, ((0, h - 1), (0, w))))
        pair_y = tz.Tensor(mask[1:, :] * mask[:-1, :])
        sy = tz.sum_all(tz.absolute(tz.mul(dy, pair_y)))
        total = sy if total is None else tz.add(total, sy)
    if total is None:
        return tz.Tensor(np.float64(0.0))
    return tz.mul(total, 1.0 / n)


def total_loss(pred, gt, config=LossConfig()):
    """ssi + lambda * reg for one prediction scale."""
    return tz.add(ssi_loss(pred, gt, config), tz.mul(reg_loss(pred, gt), config.lambda_reg))


def mde_cm(pred, gt):
    """Mean absolute depth error in centimeters; plain float, not taped."""
    pred = tz.as_tensor(pred)
    if pred.data.shape != gt.depth.data.shape:
        raise tz.DimensionError("prediction %s does not match ground truth %s"
                                % (pred.data.shape, gt.depth.data.shape))
    n = int(gt.valid.sum())
    if n == 0:
        raise MetricError("no valid ground-truth pixels")
    err = np.abs(gt.depth.data - pred.data)[gt.valid]
    return float(100.0 * err.sum() / n)


METRIC_KEYS = ("mde_cm", "loss_ssi", "loss_reg", "loss_total",
               "firing_rate_encoder", "firing_rate_residual",
               "firing_rate_decoder", "firing_rate_total")


def format_metrics(values):
    """key=value lines in the canonical key order; extra keys follow sorted."""
    lines = []
    for key in METRIC_KEYS:
        if key in values:
            lines.append("%s=%s" % (key, _fmt(values[key])))
    for key in sorted(values):
        if key not in METRIC_KEYS:
            lines.append("%s=%s" % (key, _fmt(values[key])))
    return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)
