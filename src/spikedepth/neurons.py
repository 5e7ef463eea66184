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

The recurrence is sequential over T but independent per neuron, so the
forward and the backward each run over blocks of channels (axis 1), cut and
spread by `tz._spread` with one channel over all T steps as the unit; each
block runs through all T steps with its own scratch buffers. Every value
keeps its expression, so the bits do not depend on the number of workers.
"""

import math

import numpy as np

from . import tensor as tz
from .tensor import Tensor

MODES = ("spiking", "smooth")


def _triangle(h, v_threshold, alpha, out=None):
    """Unit-area triangular window centered on the threshold, peak 1/alpha;
    into out when given."""
    tri = np.subtract(h, v_threshold, out=np.empty(np.shape(h)) if out is None else out)
    np.abs(tri, out=tri)
    tri /= alpha
    np.subtract(1.0, tri, out=tri)
    np.maximum(0.0, tri, out=tri)
    tri /= alpha
    return tri


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
    th, v_reset, alpha = cfg.v_threshold, cfg.v_reset, cfg.surrogate_alpha
    spiking = cfg.neuron_mode == "spiking"
    # the arrays are viewed as [T, C, M]: a block is a slice of channels
    c = shape[1] if xd.ndim > 1 else 1
    m = math.prod(shape[2:])

    h = np.empty(shape)  # charged membranes: all the backward keeps
    s = np.empty(shape)
    x3, h3, s3 = (a.reshape(t_steps, c, m) for a in (xd, h, s))

    def fire(ch):
        np.add(0.0, x3[0, ch], out=h3[0, ch])  # from a zero membrane
        for t in range(t_steps):
            ht, st = h3[t, ch], s3[t, ch]
            if spiking:
                np.greater_equal(ht, th, out=st)
            else:
                st[...] = _smooth_ramp(ht, th, alpha)
            if t + 1 < t_steps:
                # the next charged membrane, built in its own slot:
                # (h - (h - v_reset) * s) + x
                nxt = np.subtract(ht, v_reset, out=h3[t + 1, ch])
                nxt *= st
                np.subtract(ht, nxt, out=nxt)
                nxt += x3[t + 1, ch]

    tz._spread(fire, c, t_steps * m, lambda size: ())
    spikes = Tensor(s)

    def bw(gs):
        # per step, the sums of the unrolled add/fire/sub/mul/sub graph in its
        # reverse-sweep order: charged gets gv, then -gv * s through the reset,
        # then (gs - gv * (charged - v_reset)) * tri through the fire; gv is the
        # membrane's gradient, 0 after the last step; s is fired again from h,
        # so the spike train is not kept for the backward. Each term is written
        # as a subtraction of gv times a factor, which is the same IEEE value as
        # the addition of -gv times it
        gx = np.empty(shape)
        h3, g3, gx3 = (np.reshape(a, (t_steps, c, m)) for a in (h, gs, gx))

        def through_time(ch, tri, tmp):
            tri, tmp = tri[:ch.stop - ch.start], tmp[:ch.stop - ch.start]
            gv = 0.0
            for t in range(t_steps - 1, -1, -1):
                ht, gt = h3[t, ch], gx3[t, ch]
                _triangle(ht, th, alpha, out=tri)
                if spiking:
                    np.greater_equal(ht, th, out=gt)
                else:
                    gt[...] = _smooth_ramp(ht, th, alpha)
                gt *= gv
                np.subtract(gv, gt, out=gt)            # gv - gv * s
                np.subtract(ht, v_reset, out=tmp)
                tmp *= gv
                np.subtract(g3[t, ch], tmp, out=tmp)
                tmp *= tri                             # (gs - gv * (h - v_reset)) * tri
                gt += tmp
                gv = gt

        tz._spread(through_time, c, t_steps * m,
                   lambda size: (np.empty((size, m)), np.empty((size, m))))
        return (gx,)

    tz.record(spikes, (x,), bw)
    return spikes
