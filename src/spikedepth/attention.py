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

`tcsa(x, weights, upsample=1)` is the one entry point. `weights` is one
site's {name: Tensor} dict as `weight_shapes` names it (`t_compress`,
`t_expand`, `c_compress`, `c_expand`, `s_conv`); a module is enabled on the
site when its weights are in the dict, and an empty dict leaves only the
upsample.

A gating site is one tape entry that covers every enabled module and, at a
decoder site, the nearest 2x upsample of its input in front of them. The
forward runs pools, MLP or conv, sigmoid and gating in numpy and drops each
gated intermediate once the next module has read it; the entry keeps the
site's input (not its upsampled copy), each module's pools, hidden units,
gate and spatial maps, and the weights. The backward rebuilds each module's
input from the site's input and the earlier gates with the forward's own
multiplications, broadcasting the input over each f x f block instead of
upsampling it, then runs the closed-form module backwards in reverse order
and ends with the upsample's block sum. So every value is the same
expression on the same operands as a chain of one entry per module.

A max pool routes its gradient to the first maximum along the pooled axes
(row-major), which matters on binary spike inputs where ties are common.
A module's input gradient is summed as ((g * gate) + max-pool term) +
avg-pool term, the order in which a reverse sweep over the composed graph
of pool, linear, relu, sigmoid and mul ops would add it, so outputs match
that graph bit for bit; a gradient the site's input already carries is
added to the whole sum.
"""

import numpy as np

from . import tensor as tz
from .tensor import Tensor

MODULE_ORDER = "TCS"
_WEIGHTS = {"T": ("t_compress", "t_expand"), "C": ("c_compress", "c_expand"),
            "S": ("s_conv",)}


def weight_shapes(t_steps, channels, reduction, enabled):
    """Name -> shape of one gating site's weights, in draw order.

    The MLP gates squeeze their axis (T steps or C channels) to axis /
    reduction hidden units. Disabled modules have no weights, so a site with
    enabled="CS" has the same parameter count at any step count T.
    """
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


def site_macs(weights, shape):
    """Dense MACs of one site whose gated output has shape [T, C, H, W]: two
    MLP layers per pooled branch (per step for the channel gate), each as
    large as its compress weight, and the spatial gate's 2 -> 1 conv at every
    pixel."""
    t, _, h, w = shape
    per_weight = {"t_compress": 2 * 2, "c_compress": 2 * 2 * t, "s_conv": t * h * w}
    return sum(n * weights[name].data.size for name, n in per_weight.items() if name in weights)


def _sigmoid(z):
    """Numerically stable logistic; saturates to 0/1 without overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _linear_grads(g, v, w):
    """(d loss / d v, d loss / d w) of v @ w.T, given g = d loss / d (v @ w.T)."""
    m, n = w.shape
    return g @ w, g.reshape(-1, m).T @ v.reshape(-1, n)


def _blocks(a, f):
    """[..., H*f, W*f] viewed as [..., H, f, W, f]: the f x f block of each pixel."""
    *lead, h, w = a.shape
    return a.reshape(*lead, h // f, f, w // f, f)


def _over_blocks(a):
    """[..., H, W] as [..., H, 1, W, 1]: a broadcast over the f x f blocks of _blocks."""
    return a[..., :, None, :, None]


def _lift(gate, ndim):
    """A [kept] gate with trailing singleton axes up to rank ndim, to broadcast."""
    return gate.reshape(gate.shape + (1,) * (ndim - gate.ndim))


def _mlp_state(a, n_kept, w1, w2):
    """(pools, hidden, relus, gate) of the MLP module that keeps a's first
    n_kept axes: the pools reduce every axis after them, so the gate holds
    one value per kept index."""
    flat = a.reshape(a.shape[:n_kept] + (-1,))
    pools = (flat.mean(axis=-1), flat.max(axis=-1))
    hidden = tuple(v @ w1.T for v in pools)
    relus = tuple(np.maximum(h, 0.0) for h in hidden)
    return pools, hidden, relus, _sigmoid(relus[0] @ w2.T + relus[1] @ w2.T)


def _spatial_state(a, wd):
    """(maps, gate) of the spatial module: a's channel-average and
    channel-max maps, and the sigmoid of their conv with wd."""
    t, _, h, w = a.shape
    maps = np.empty((t, 2, h, w))
    np.mean(a, axis=1, out=maps[:, 0])
    np.max(a, axis=1, out=maps[:, 1])
    return maps, _sigmoid(tz._shifted_conv(maps, wd))


def _mlp_grads(g, b, f, w1, w2, state, need_gx, own):
    """(d loss / d up, d w_compress, d w_expand) of an MLP module gating
    up = the f x f upsample of b, given g = d loss / d (up * gate).

    The input gradient is None unless need_gx; with own it is written into g.
    """
    pools, hidden, relus, gate = state
    kept = gate.shape
    # g * up summed per kept index over as many time steps at a time as fit
    # in tz._CHUNK_FLOATS (at least one): the same row sums as over the whole
    # product, without a [T, C, H, W] array
    span = max(1, tz._CHUNK_FLOATS // g[0].size)
    buf = np.empty((min(span, len(g)),) + g.shape[1:])
    gz = np.empty(kept)
    for lo in range(0, len(g), span):
        part = buf[:len(g) - lo]
        np.multiply(_blocks(g[lo:lo + span], f), _over_blocks(b[lo:lo + span]),
                    out=_blocks(part, f))
        gz[lo:lo + span] = part.reshape(part.shape[:len(kept)] + (-1,)).sum(axis=-1)
    gz = gz * gate * (1.0 - gate)
    grads = []  # per branch: (d pool, d w_compress, d w_expand)
    for v, h, r in zip(pools, hidden, relus):
        gr, gw2 = _linear_grads(gz, r, w2)
        gv, gw1 = _linear_grads(gr * (h > 0), v, w1)
        grads.append((gv, gw1, gw2))
    (g_avg, gw1_a, gw2_a), (g_max, gw1_m, gw2_m) = grads
    if not need_gx:
        return None, gw1_m + gw1_a, gw2_m + gw2_a
    gate_b = _lift(gate, g.ndim)
    gx = np.multiply(g, gate_b, out=g if own else None)
    rows = gx.reshape(gate.size, -1)
    # the first maximum of an upsampled row is its copy of b's first maximum
    # at row f*r, column f*c: it comes first in row-major order
    width = b.shape[-1]
    first = b.reshape(gate.size, -1).argmax(axis=-1)
    first = first // width * (f * f * width) + first % width * f
    rows[np.arange(gate.size), first] += g_max.reshape(-1)
    gx += (g_avg / rows.shape[1]).reshape(gate_b.shape)
    return gx, gw1_m + gw1_a, gw2_m + gw2_a


def _spatial_grads(g, a, wd, state, need_gx):
    """(d loss / d a, d s_conv) of the spatial module gating a, given
    g = d loss / d (a * gate). The input gradient, None unless need_gx, is
    written into a."""
    maps, gate = state
    t, c, h, w = a.shape
    # the channel sum of g * a without a [T, C, H, W] product
    gz = np.einsum("tchw,tchw->thw", g, a)[:, None] * gate * (1.0 - gate)
    gw, gmaps = tz._shifted_grads(maps, wd, gz, need_gx)
    if gmaps is None:
        return None, gw
    # first channel at the maximum: c minus the largest (c - channel) over
    # the hits; a max reduce, where argmax over axis 1 would copy a
    rank = np.arange(c, 0, -1, dtype=np.min_scalar_type(c)).reshape(c, 1, 1)
    first = c - ((a == maps[:, 1:]) * rank).max(axis=1, initial=1)
    gx = np.multiply(g, gate, out=a)
    hw = h * w
    pos = (np.arange(t)[:, None] * c + first.reshape(t, hw)) * hw + np.arange(hw)
    gx.reshape(-1)[pos] += gmaps[:, 1].reshape(t, hw)
    gx += gmaps[:, :1] / c
    return gx, gw


def _site(x, weights, upsample):
    """Gate the f x f nearest upsample of x (f = upsample) by every module
    with weights in the dict, in T, C, S order: one tape entry that keeps x
    and each module's small state, and rebuilds the gated intermediates in
    its backward."""
    xd, f = x.data, upsample
    if xd.ndim != 4:
        raise tz.DimensionError("attention input must be [T, C, H, W], got %s"
                                % (xd.shape,))
    modules = [(m, [weights[name] for name in _WEIGHTS[m]])
               for m in MODULE_ORDER if _WEIGHTS[m][0] in weights]
    for m, (w, *_) in modules:
        axis = "TC".find(m)  # the axis an MLP gate keeps; -1 for S
        if axis >= 0 and xd.shape[axis] != w.data.shape[1]:
            raise tz.DimensionError("%s axis is %d, parameters expect %d"
                                    % (("time", "channel")[axis], xd.shape[axis],
                                       w.data.shape[1]))
    a = xd if f == 1 else tz._upsample(xd, f)
    shape = a.shape
    mlps, spatial = [], None  # the T and C modules' (weights, state); S's (weight, state)
    for m, ws in modules:
        wd = tuple(w.data for w in ws)
        if m == "S":
            spatial = wd[0], _spatial_state(a, wd[0])
            gate = spatial[1][1]
        else:
            mlps.append((wd, _mlp_state(a, "TC".index(m) + 1, *wd)))
            gate = _lift(mlps[-1][1][-1], a.ndim)
        a = a * gate  # the module's input is dropped here, unless it is x
    out = Tensor(a)

    def bw(g):
        # each T or C module's input before the upsample: x, then x times each
        # gate in turn; the forward gated the upsample of each
        gates = [state[-1] for _, state in mlps]
        ins = [xd]
        for gate in gates[:-1]:
            ins.append(ins[-1] * _lift(gate, 4))
        grads = []
        own = spatial is not None  # whether g is a buffer bw may overwrite
        if own:
            # the spatial module's input, in a buffer that then takes its gradient
            buf = np.empty(shape)
            if mlps:
                np.multiply(_over_blocks(ins[-1]), _lift(gates[-1], 6), out=_blocks(buf, f))
            else:
                _blocks(buf, f)[...] = _over_blocks(xd)
            g, gw = _spatial_grads(g, buf, *spatial, bool(mlps) or x.requires_grad)
            grads.append((gw,))
        for i in reversed(range(len(mlps))):
            (w1, w2), state = mlps[i]
            g, *gws = _mlp_grads(g, ins[i], f, w1, w2, state, i > 0 or x.requires_grad, own)
            grads.append(gws)
            own = True
        if g is not None and f != 1:
            g = tz._block_sum(g, f)
        return (g,) + tuple(gw for gws in reversed(grads) for gw in gws)

    tz.record(out, (x,) + tuple(w for _, ws in modules for w in ws), bw)
    return out


def tcsa(x, weights, upsample=1):
    """Gate the f x f nearest upsample of x (f = upsample) by the modules
    whose weights are in `weights`, in T, C, S order, as one tape entry; only
    the upsample when the dict is empty."""
    x = tz.as_tensor(x)
    return _site(x, weights, upsample) if weights or upsample != 1 else x
