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

Each enabled module is one tape entry: the forward runs pools, MLP or conv,
sigmoid and gating in numpy, and the backward is closed-form. A max pool
routes its gradient to the first maximum along the pooled axes (row-major),
which matters on binary spike inputs where ties are common. The input
gradient is summed as ((g * gate) + max-pool term) + avg-pool term, the
order in which a reverse sweep over the composed graph of pool, linear,
relu, sigmoid and mul ops would add it, so outputs match that graph bit for
bit; a gradient the input already carries is added to the whole sum.
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


def _sigmoid(z):
    """Numerically stable logistic; saturates to 0/1 without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _linear_grads(g, v, w):
    """(d loss / d v, d loss / d w) of v @ w.T, given g = d loss / d (v @ w.T)."""
    m, n = w.shape
    return g @ w, g.reshape(-1, m).T @ v.reshape(-1, n)


def _mlp_gate(x, n_kept, w_compress, w_expand):
    """Gate x by the sigmoid of the shared MLP over its average and max pools.

    The pools reduce every axis after the first n_kept, so the gate holds one
    value per kept index; one tape entry.
    """
    xd = x.data
    kept = xd.shape[:n_kept]
    flat = xd.reshape(kept + (-1,))
    w1, w2 = w_compress.data, w_expand.data
    pools = (flat.mean(axis=-1), flat.max(axis=-1))
    hidden = tuple(v @ w1.T for v in pools)
    relus = tuple(np.maximum(h, 0.0) for h in hidden)
    gate = _sigmoid(relus[0] @ w2.T + relus[1] @ w2.T)
    gate_b = gate.reshape(kept + (1,) * (xd.ndim - n_kept))
    out = Tensor(xd * gate_b)

    def bw(g):
        gx = np.empty(xd.shape)
        np.multiply(g, xd, out=gx)
        gz = gx.reshape(kept + (-1,)).sum(axis=-1) * gate * (1.0 - gate)
        grads = []  # per branch: (d pool, d w_compress, d w_expand)
        for v, h, r in zip(pools, hidden, relus):
            gr, gw2 = _linear_grads(gz, r, w2)
            gv, gw1 = _linear_grads(gr * (h > 0), v, w1)
            grads.append((gv, gw1, gw2))
        (g_avg, gw1_a, gw2_a), (g_max, gw1_m, gw2_m) = grads
        if not x.requires_grad:
            gx = None
        else:
            np.multiply(g, gate_b, out=gx)
            rows = gx.reshape(-1, flat.shape[-1])
            first = flat.reshape(rows.shape).argmax(axis=-1)
            rows[np.arange(rows.shape[0]), first] += g_max.reshape(-1)
            gx += (g_avg / flat.shape[-1]).reshape(gate_b.shape)
        return gx, gw1_m + gw1_a, gw2_m + gw2_a

    tz.record((out,), (x, w_compress, w_expand), bw)
    return out


def temporal_attention(x, params):
    """Gate each time step by a scalar computed from all steps."""
    x = tz.as_tensor(x)
    _check_input(x, params)
    if params.t_compress is None:
        raise tz.StateError("temporal module not enabled on this site")
    return _mlp_gate(x, 1, params.t_compress, params.t_hidden)


def channel_attention(x, params):
    """Gate each channel per step from its spatial summary."""
    x = tz.as_tensor(x)
    _check_input(x, params)
    if params.c_compress is None:
        raise tz.StateError("channel module not enabled on this site")
    return _mlp_gate(x, 2, params.c_compress, params.c_hidden)


def spatial_attention(x, params):
    """Gate each pixel per step from cross-channel average and max maps."""
    x = tz.as_tensor(x)
    _check_input(x, params)
    if params.s_conv is None:
        raise tz.StateError("spatial module not enabled on this site")
    xd, wd = x.data, params.s_conv.data
    t, c, h, w = xd.shape
    maps = np.empty((t, 2, h, w))
    np.mean(xd, axis=1, out=maps[:, 0])
    np.max(xd, axis=1, out=maps[:, 1])
    gate = _sigmoid(tz._shifted_conv(maps, wd, 1))
    out = Tensor(xd * gate)

    def bw(g):
        # the channel sum of g * x without a [T, C, H, W] product
        gz = np.einsum("tchw,tchw->thw", g, xd)[:, None] * gate * (1.0 - gate)
        gw, gmaps = tz._shifted_grads(maps, wd, gz, 1, x.requires_grad)
        if gmaps is None:
            return None, gw
        gx = np.empty(xd.shape)
        np.multiply(g, gate, out=gx)
        # first channel at the maximum: c minus the largest (c - channel) over
        # the hits; a max reduce, where argmax over axis 1 would copy x
        rank = np.arange(c, 0, -1, dtype=np.min_scalar_type(c)).reshape(c, 1, 1)
        first = c - ((xd == maps[:, 1:]) * rank).max(axis=1, initial=1)
        hw = h * w
        pos = (np.arange(t)[:, None] * c + first.reshape(t, hw)) * hw + np.arange(hw)
        gx.reshape(-1)[pos] += gmaps[:, 1].reshape(t, hw)
        gx += gmaps[:, :1] / c
        return gx, gw

    tz.record((out,), (x, params.s_conv), bw)
    return out


_APPLY = {"T": temporal_attention, "C": channel_attention, "S": spatial_attention}


def tcsa(x, params):
    """Apply the enabled modules in T, C, S order; identity when none."""
    x = tz.as_tensor(x)
    for m in MODULE_ORDER:
        if m in params.enabled:
            x = _APPLY[m](x, params)
    return x
