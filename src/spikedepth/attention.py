"""Temporal, channel, and spatial gating over [T, C, H, W] activations.

Each module squeezes the tensor with average and max pooling, runs both
summaries through one shared bias-free two-layer MLP (ReLU hidden), and
gates the input with the sigmoid of the branch sum. The spatial module uses
a 3x3 conv over the stacked channel-average and channel-max maps instead of
an MLP. Gates are multiplicative and lie strictly inside (0, 1), so gating
never expands magnitudes. Composition order is fixed: temporal, then
channel, then spatial, applying only the enabled modules.

The channel and spatial gates are computed independently at each time step.
The temporal gate is the only part that mixes information across steps.
"""

import numpy as np

from . import tensor as tz
from .tensor import Tensor

MODULE_ORDER = "TCS"


def _init_weight(shape, rng):
    if rng is None:
        return Tensor(np.zeros(shape))
    fan_in = int(np.prod(shape[1:]))
    bound = np.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def normalize_enabled(enabled):
    """Validate and canonicalize a subset of 'TCS' (string or iterable)."""
    mods = set(enabled)
    extra = mods - set(MODULE_ORDER)
    if extra:
        raise tz.ArgumentError("unknown attention modules %s; valid set is T, C, S"
                               % sorted(extra))
    return "".join(m for m in MODULE_ORDER if m in mods)


class AttentionParams:
    """Weights for one gating site.

    Disabled modules allocate nothing, so a site with enabled="CS" has the
    same parameter count at any step count T.
    """

    def __init__(self, t_steps, channels, reduction=1, enabled="CS", rng=None):
        if t_steps < 1 or channels < 1:
            raise tz.ArgumentError("t_steps and channels must be >= 1, got %d, %d"
                                   % (t_steps, channels))
        if reduction < 1:
            raise tz.ArgumentError("reduction must be >= 1, got %d" % reduction)
        self.enabled = normalize_enabled(enabled)
        self.t_steps = t_steps
        self.channels = channels
        self.reduction = reduction
        self.t_hidden = self.t_compress = None
        self.c_hidden = self.c_compress = None
        self.s_conv = None
        if "T" in self.enabled:
            if t_steps % reduction != 0:
                raise tz.ArgumentError("t_steps %d not divisible by reduction %d"
                                       % (t_steps, reduction))
            hidden = t_steps // reduction
            self.t_compress = _init_weight((hidden, t_steps), rng)
            self.t_hidden = _init_weight((t_steps, hidden), rng)
        if "C" in self.enabled:
            if channels % reduction != 0:
                raise tz.ArgumentError("channels %d not divisible by reduction %d"
                                       % (channels, reduction))
            hidden = channels // reduction
            self.c_compress = _init_weight((hidden, channels), rng)
            self.c_hidden = _init_weight((channels, hidden), rng)
        if "S" in self.enabled:
            self.s_conv = _init_weight((1, 2, 3, 3), rng)

    def parameters(self):
        out = []
        if self.t_compress is not None:
            out.append(("t_compress", self.t_compress))
            out.append(("t_expand", self.t_hidden))
        if self.c_compress is not None:
            out.append(("c_compress", self.c_compress))
            out.append(("c_expand", self.c_hidden))
        if self.s_conv is not None:
            out.append(("s_conv", self.s_conv))
        return out


def _check_input(x, params):
    if x.data.ndim != 4:
        raise tz.DimensionError("attention input must be [T, C, H, W], got %s"
                                % (x.data.shape,))
    if x.data.shape[0] != params.t_steps:
        raise tz.DimensionError("time axis is %d, parameters expect %d"
                                % (x.data.shape[0], params.t_steps))
    if x.data.shape[1] != params.channels:
        raise tz.DimensionError("channel axis is %d, parameters expect %d"
                                % (x.data.shape[1], params.channels))


def _mlp(v, w_compress, w_expand):
    return tz.linear(tz.relu(tz.linear(v, w_compress)), w_expand)


def _mlp_gate(x, axes, w_compress, w_expand):
    """Gate x by the sigmoid of the shared MLP over its average and max pools."""
    avg = tz.pool(x, axes=axes, mode="avg")
    mx = tz.pool(x, axes=axes, mode="max")
    gate = tz.sigmoid(tz.add(_mlp(avg, w_compress, w_expand), _mlp(mx, w_compress, w_expand)))
    return tz.mul(x, gate)


def temporal_attention(x, params):
    """Gate each time step by a scalar computed from all steps."""
    x = tz.as_tensor(x)
    _check_input(x, params)
    if params.t_compress is None:
        raise tz.StateError("temporal module not enabled on this site")
    return _mlp_gate(x, (1, 2, 3), params.t_compress, params.t_hidden)


def channel_attention(x, params):
    """Gate each channel per step from its spatial summary."""
    x = tz.as_tensor(x)
    _check_input(x, params)
    if params.c_compress is None:
        raise tz.StateError("channel module not enabled on this site")
    return _mlp_gate(x, (2, 3), params.c_compress, params.c_hidden)


def spatial_attention(x, params):
    """Gate each pixel per step from cross-channel average and max maps."""
    x = tz.as_tensor(x)
    _check_input(x, params)
    if params.s_conv is None:
        raise tz.StateError("spatial module not enabled on this site")
    t, _, h, w = x.data.shape
    avg = tz.reshape(tz.pool(x, axes=(1,), mode="avg"), (t, 1, h, w))
    mx = tz.reshape(tz.pool(x, axes=(1,), mode="max"), (t, 1, h, w))
    maps = tz.concat([avg, mx], axis=1)
    gate = tz.sigmoid(tz.conv2d(maps, params.s_conv, stride=1, padding=1))
    return tz.mul(x, gate)


_APPLY = {"T": temporal_attention, "C": channel_attention, "S": spatial_attention}


def tcsa(x, params):
    """Apply the enabled modules in T, C, S order; identity when none."""
    x = tz.as_tensor(x)
    for m in MODULE_ORDER:
        if m in params.enabled:
            x = _APPLY[m](x, params)
    return x
