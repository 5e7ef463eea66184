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

A decoder site gates the nearest 2x upsample of its input. tcsa takes the
input and the factor, and the first T or C gate does the upsample inside
its own tape entry: the forward gates the upsampled copy and drops it, and
the backward forms g * up by broadcasting the input over each 2x2 block,
finds each pooled row's first maximum in the input, and ends with the
upsample's 2x2 block sum. So the entry keeps the input, not the 4x copy,
and computes every value as the separate upsample and gate entries did.

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
_WEIGHTS = {"T": ("t_compress", "t_expand"), "C": ("c_compress", "c_expand"),
            "S": ("s_conv",)}


def normalize_enabled(enabled):
    """Validate and canonicalize a subset of 'TCS' (string or iterable)."""
    mods = set(enabled)
    extra = mods - set(MODULE_ORDER)
    if extra:
        raise tz.ArgumentError("unknown attention modules %s; valid set is T, C, S"
                               % sorted(extra))
    return "".join(m for m in MODULE_ORDER if m in mods)


def weight_shapes(t_steps, channels, reduction, enabled):
    """Name -> shape of one gating site's weights, in draw order.

    The MLP gates squeeze their axis (T steps or C channels) to axis /
    reduction hidden units. Disabled modules have no weights, so a site with
    enabled="CS" has the same parameter count at any step count T.
    """
    enabled = normalize_enabled(enabled)
    shapes = {}
    for letter, axis, n in (("T", "t_steps", t_steps), ("C", "channels", channels)):
        if letter in enabled:
            if n % reduction != 0:
                raise tz.ArgumentError("%s %d not divisible by reduction %d"
                                       % (axis, n, reduction))
            shapes[_WEIGHTS[letter][0]] = (n // reduction, n)
            shapes[_WEIGHTS[letter][1]] = (n, n // reduction)
    if "S" in enabled:
        shapes["s_conv"] = (1, 2, 3, 3)
    return shapes


class AttentionParams:
    """One gating site's weight tensors by checkpoint name (`t_compress`,
    `t_expand`, `c_compress`, `c_expand`, `s_conv`); a module is enabled
    when its weights are present."""

    def __init__(self, weights):
        self.weights = dict(weights)

    @property
    def enabled(self):
        return "".join(m for m in MODULE_ORDER if _WEIGHTS[m][0] in self.weights)


def _module_input(x, params, letter):
    """x as a Tensor and the module's weights, once x is checked against them."""
    x = tz.as_tensor(x)
    if x.data.ndim != 4:
        raise tz.DimensionError("attention input must be [T, C, H, W], got %s"
                                % (x.data.shape,))
    if letter not in params.enabled:
        raise tz.StateError("%s module not enabled on this site" % letter)
    weights = [params.weights[name] for name in _WEIGHTS[letter]]
    axis = "TC".find(letter)  # the axis an MLP gate keeps; -1 for S
    if axis >= 0 and x.data.shape[axis] != weights[0].data.shape[1]:
        raise tz.DimensionError("%s axis is %d, parameters expect %d"
                                % (("time", "channel")[axis], x.data.shape[axis],
                                   weights[0].data.shape[1]))
    return x, weights


def _sigmoid(z):
    """Numerically stable logistic; saturates to 0/1 without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _linear_grads(g, v, w):
    """(d loss / d v, d loss / d w) of v @ w.T, given g = d loss / d (v @ w.T)."""
    m, n = w.shape
    return g @ w, g.reshape(-1, m).T @ v.reshape(-1, n)


def _mlp_gate(x, n_kept, w_compress, w_expand, upsample=1):
    """Gate x by the sigmoid of the shared MLP over its average and max pools.

    The pools reduce every axis after the first n_kept, so the gate holds one
    value per kept index; one tape entry. With upsample = f > 1 the entry is
    the f x f nearest upsample of x followed by the gate: the forward pools
    and gates the upsampled copy and then drops it, and the backward works
    from x alone (see bw), so the entry keeps x, not a copy f*f times larger.
    """
    xd, f = x.data, upsample
    up = xd if f == 1 else tz._upsample(xd, f)
    kept = up.shape[:n_kept]
    flat = up.reshape(kept + (-1,))
    n = flat.shape[-1]
    w1, w2 = w_compress.data, w_expand.data
    pools = (flat.mean(axis=-1), flat.max(axis=-1))
    hidden = tuple(v @ w1.T for v in pools)
    relus = tuple(np.maximum(h, 0.0) for h in hidden)
    gate = _sigmoid(relus[0] @ w2.T + relus[1] @ w2.T)
    gate_b = gate.reshape(kept + (1,) * (xd.ndim - n_kept))
    out = Tensor(up * gate_b)
    shape = up.shape  # bw names no array of up's size

    def bw(g):
        # g * up, from x broadcast over the f x f blocks of g in place
        gx = np.empty(shape)
        np.multiply(_blocks(g, f), xd[..., :, None, :, None], out=_blocks(gx, f))
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
            rows = gx.reshape(-1, n)
            # the first maximum of an upsampled row is its copy of x's first
            # maximum at row f*r, column f*c: it comes first in row-major order
            width = xd.shape[-1]
            first = xd.reshape(rows.shape[0], -1).argmax(axis=-1)
            first = first // width * (f * f * width) + first % width * f
            rows[np.arange(rows.shape[0]), first] += g_max.reshape(-1)
            gx += (g_avg / n).reshape(gate_b.shape)
            if f != 1:
                gx = tz._block_sum(gx, f)
        return gx, gw1_m + gw1_a, gw2_m + gw2_a

    tz.record((out,), (x, w_compress, w_expand), bw)
    return out


def _blocks(a, f):
    """[..., H*f, W*f] viewed as [..., H, f, W, f]: the f x f block of each pixel."""
    *lead, h, w = a.shape
    return a.reshape(*lead, h // f, f, w // f, f)


def temporal_attention(x, params, upsample=1):
    """Gate each time step by a scalar computed from all steps (of x upsampled
    by the given factor)."""
    x, (w_compress, w_expand) = _module_input(x, params, "T")
    return _mlp_gate(x, 1, w_compress, w_expand, upsample)


def channel_attention(x, params, upsample=1):
    """Gate each channel per step from its spatial summary (of x upsampled by
    the given factor)."""
    x, (w_compress, w_expand) = _module_input(x, params, "C")
    return _mlp_gate(x, 2, w_compress, w_expand, upsample)


def spatial_attention(x, params):
    """Gate each pixel per step from cross-channel average and max maps."""
    x, (s_conv,) = _module_input(x, params, "S")
    xd, wd = x.data, s_conv.data
    t, c, h, w = xd.shape
    maps = np.empty((t, 2, h, w))
    np.mean(xd, axis=1, out=maps[:, 0])
    np.max(xd, axis=1, out=maps[:, 1])
    gate = _sigmoid(tz._shifted_conv(maps, wd))
    out = Tensor(xd * gate)

    def bw(g):
        # the channel sum of g * x without a [T, C, H, W] product
        gz = np.einsum("tchw,tchw->thw", g, xd)[:, None] * gate * (1.0 - gate)
        gw, gmaps = tz._shifted_grads(maps, wd, gz, x.requires_grad)
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

    tz.record((out,), (x, s_conv), bw)
    return out


_APPLY = {"T": temporal_attention, "C": channel_attention, "S": spatial_attention}


def tcsa(x, params, upsample=1):
    """Apply the enabled modules in T, C, S order; identity when none.

    With upsample = f > 1 the modules gate the f x f nearest upsample of x.
    When a T or C gate comes first, that gate's tape entry does the upsample
    (see _mlp_gate); otherwise tz.nearest_upsample runs in front.
    """
    x = tz.as_tensor(x)
    enabled = params.enabled
    if upsample != 1:
        if enabled[:1] in ("T", "C"):
            x = _APPLY[enabled[0]](x, params, upsample)
            enabled = enabled[1:]
        else:
            x = tz.nearest_upsample(x, upsample)
    for m in enabled:
        x = _APPLY[m](x, params)
    return x
