"""Integrate-and-fire dynamics with a triangular surrogate gradient.

One neuron step: the membrane charges by the input, a spike fires when the
charged membrane reaches threshold, and firing hard-resets the membrane to
the reset level. Non-firing neurons keep their charge, so potential carries
across steps.

Two modes share the same recurrence and differ in the firing nonlinearity:

  spiking  hard step forward (binary spikes), triangular surrogate backward
  smooth   forward is the piecewise-quadratic ramp whose exact derivative is
           the triangular window, so finite differences of a smooth-mode
           network check the same backward path spiking mode uses

The network's non-spiking output neurons, whose membrane only accumulates
and is read out as depth, are not a population here: each depth head is one
fused op of its own (`model._depth_head`).

A population runs over all T steps in one call (multi-step mode) and is one
tape entry with one output, the spike train; the membrane stays inside the
op. The forward loops over T from a zero membrane, and the backward is
backpropagation through time in closed form, from the last step to the
first. The gradient is not detached through the reset term: both modes
differentiate membrane_new = charged - (charged - v_reset) * spike as
written. The charged membranes h are all the backward keeps: each step's
spikes are a function of h alone, so the backward fires them again from h
and the spike train is freed once the forward's callers drop it.
"""

import numpy as np

from . import tensor as tz
from .tensor import Tensor

MODES = ("spiking", "smooth")


def _triangle(h, v_threshold, alpha):
    """Unit-area triangular window centered on the threshold, peak 1/alpha."""
    return np.maximum(0.0, 1.0 - np.abs(h - v_threshold) / alpha) / alpha


def _smooth_ramp(h, v_threshold, alpha):
    """Antiderivative of the triangular window: 0 to 1 over +-alpha, 0.5 at threshold."""
    z = h - v_threshold
    lo = (z + alpha) ** 2 / (2.0 * alpha * alpha)
    hi = 1.0 - (alpha - z) ** 2 / (2.0 * alpha * alpha)
    out = np.where(z < 0.0, lo, hi)
    out = np.where(z <= -alpha, 0.0, out)
    out = np.where(z >= alpha, 1.0, out)
    return out


def if_run(x, cfg):
    """Run one population over x[T, ...] from a zero membrane, as one tape op.

    cfg is the model config: its v_threshold, v_reset, surrogate_alpha and
    neuron_mode set the population. Returns the spikes [T, ...].
    """
    x = tz.as_tensor(x)
    xd, shape = x.data, x.data.shape
    if xd.ndim < 1 or shape[0] < 1:
        raise tz.DimensionError("if_run needs a leading time axis of size >= 1")
    t_steps = shape[0]
    v = np.zeros(shape[1:])
    th, v_reset, alpha = cfg.v_threshold, cfg.v_reset, cfg.surrogate_alpha
    spiking = cfg.neuron_mode == "spiking"

    h = np.empty(shape)  # charged membranes: all the backward keeps
    s = np.empty(shape)
    for t in range(t_steps):
        h[t] = v + xd[t]
        s[t] = h[t] >= th if spiking else _smooth_ramp(h[t], th, alpha)
        v = h[t] - (h[t] - v_reset) * s[t]
    spikes = Tensor(s)

    def bw(gs):
        # per step, the sums of the unrolled add/fire/sub/mul/sub graph in its
        # reverse-sweep order: charged gets gv, then -gv * s through the reset,
        # then (gs - gv * (charged - v_reset)) * tri through the fire; gv is the
        # membrane's gradient, 0 after the last step; s is fired again from h,
        # so the spike train is not kept for the backward
        gx = np.empty(shape)
        gv = 0.0
        for t in range(t_steps - 1, -1, -1):
            neg = -gv
            tri = _triangle(h[t], th, alpha)
            st = (h[t] >= th).astype(np.float64) if spiking else _smooth_ramp(h[t], th, alpha)
            gx[t] = (gv + neg * st) + (gs[t] + neg * (h[t] - v_reset)) * tri
            gv = gx[t]
        return (gx,)

    tz.record(spikes, (x,), bw)
    return spikes
