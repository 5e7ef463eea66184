"""Integrate-and-fire dynamics with a triangular surrogate gradient.

One neuron step: the membrane charges by the input, a spike fires when the
charged membrane reaches threshold, and firing hard-resets the membrane to
the reset level. Non-firing neurons keep their charge, so potential carries
across steps.

Three modes share the same recurrence and differ in the firing nonlinearity:

  spiking     hard step forward (binary spikes), triangular surrogate backward
  integrator  never fires; the membrane accumulates and is read out directly
  smooth      forward is the piecewise-quadratic ramp whose exact derivative
              is the triangular window, so finite differences of a smooth-mode
              network check the same backward path spiking mode uses

The gradient is not detached through the reset term: both modes differentiate
membrane_new = charged * (1 - spike) + v_reset * spike as written.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor

MODES = ("spiking", "integrator", "smooth")


@dataclass(frozen=True)
class IFParams:
    v_threshold: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = 1.0
    mode: str = "spiking"

    def __post_init__(self):
        if self.mode not in MODES:
            raise tz.ArgumentError("mode must be one of %s, got %r" % (MODES, self.mode))
        if self.surrogate_alpha <= 0:
            raise tz.ArgumentError("surrogate_alpha must be positive, got %r"
                                   % (self.surrogate_alpha,))
        if self.mode != "integrator" and not self.v_threshold > self.v_reset:
            raise tz.ArgumentError("v_threshold (%r) must exceed v_reset (%r)"
                                   % (self.v_threshold, self.v_reset))


class IFState:
    """Membrane potential and step counter for one neuron population."""

    __slots__ = ("membrane", "step")

    def __init__(self):
        self.membrane = None
        self.step = 0

    def reset(self):
        self.membrane = None
        self.step = 0


def reset_state(states):
    """Zero the membranes and step counters; detaches them from prior tapes."""
    for s in states:
        s.reset()


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


def _fire(charged, params):
    """Firing nonlinearity with the triangular window as its backward."""
    if params.mode == "spiking":
        s_data = (charged.data >= params.v_threshold).astype(np.float64)
    else:
        s_data = _smooth_ramp(charged.data, params.v_threshold, params.surrogate_alpha)
    out = Tensor(s_data)
    tri = _triangle(charged.data, params.v_threshold, params.surrogate_alpha)
    tz.record((out,), (charged,), lambda g: (g * tri,))
    if params.mode == "spiking":
        out.is_spike = True
    return out


def if_step(state, x_t, params):
    """Advance the population one step; returns spikes, or None for integrators."""
    x_t = tz.as_tensor(x_t)
    if state.membrane is None:
        prev = tz.zeros(x_t.data.shape)
    else:
        prev = state.membrane
        if prev.data.shape != x_t.data.shape:
            raise tz.DimensionError("input shape %s does not match membrane %s"
                                    % (x_t.data.shape, prev.data.shape))
    charged = tz.add(prev, x_t)
    if params.mode == "integrator":
        state.membrane = charged
        state.step += 1
        return None
    spikes = _fire(charged, params)
    # membrane_new = charged - (charged - v_reset) * spikes, the hard reset
    drop = tz.mul(tz.sub(charged, params.v_reset), spikes)
    state.membrane = tz.sub(charged, drop)
    state.step += 1
    return spikes


def if_run(state, x, params):
    """Step through x[T, ...] from the current state.

    Returns (spike stack [T, ...] or None, final membrane).
    """
    x = tz.as_tensor(x)
    if x.data.ndim < 1 or x.data.shape[0] < 1:
        raise tz.DimensionError("if_run needs a leading time axis of size >= 1")
    frames = tz.unstack(x)
    spikes = []
    for frame in frames:
        s = if_step(state, frame, params)
        if s is not None:
            spikes.append(s)
    if params.mode == "integrator":
        return None, state.membrane
    out = tz.stack_frames(spikes)
    if params.mode == "spiking":
        out.is_spike = True
    return out, state.membrane
