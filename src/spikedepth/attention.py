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
forward runs pools, MLP or conv, sigmoid and gating in numpy and gates in
place: the upsample is written into the output buffer and each module
gates that buffer, so no gated intermediate outlives its module; the entry
keeps the site's input (not its upsampled copy), each module's pools, hidden
units, gate and spatial maps, and the weights. The backward rebuilds each module's
input from the site's input and the earlier gates with the forward's own
multiplications, broadcasting the input over each f x f block instead of
upsampling it, then runs the closed-form module backwards in reverse order
and ends with the upsample's block sum. So every value is the same
expression on the same operands as a chain of one entry per module.

Both directions run in stages over blocks of frames, cut and spread by
`tz._spread` with one frame of the site's output as the unit. Per block run
the upsample, the pools (one value per frame for T, per (t, c) for C, the
channel maps for S), the sigmoid of the spatial gate and the gating, and in
the backward the rebuilt inputs, the sums of the output gradient times the
input, the first-max routing, the input-gradient terms and the block sum;
a stage ends with the next module's pools or sums on the same block. On the
calling thread, between stages, run the MLPs and their gradients, every
weight-gradient sum over T, and the spatial gate's 2 -> 1 conv and its
backward (which spread their own blocks). Each block writes only its own
frames, so the bits do not depend on the number of workers.

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


def _sigmoid(z, out=None):
    """Numerically stable logistic; saturates to 0/1 without overflow."""
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


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


def _summarize(m, a, frames, pools):
    """Module m's summaries of a's frames into the same frames of pools: a T
    or C gate's (average, max) pair over every axis after the one it keeps,
    the spatial gate's channel-average and channel-max maps [T, 2, H, W]."""
    if m == "S":
        np.mean(a[frames], axis=1, out=pools[frames, 0])
        np.max(a[frames], axis=1, out=pools[frames, 1])
    else:
        part = a[frames]
        flat = part.reshape(part.shape[:"TC".index(m) + 1] + (-1,))
        flat.mean(axis=-1, out=pools[0][frames])
        flat.max(axis=-1, out=pools[1][frames])


def _mlp_gate(pools, w1, w2):
    """(hidden, relus, gate) of an MLP module from its (average, max) pools."""
    hidden = tuple(v @ w1.T for v in pools)
    relus = tuple(np.maximum(h, 0.0) for h in hidden)
    return hidden, relus, _sigmoid(relus[0] @ w2.T + relus[1] @ w2.T)


def _mlp_sums(g, b, f, part, gz):
    """gz = the sum per kept index of g * (the f x f upsample of b), for one
    block of frames; part is a scratch buffer of at least g's frames."""
    part = part[:len(g)]
    np.multiply(_blocks(g, f), _over_blocks(b), out=_blocks(part, f))
    part.reshape(gz.shape + (-1,)).sum(axis=-1, out=gz)


def _mlp_grads(gz, w1, w2, pools, hidden, relus, gate):
    """(d average pool, d max pool, d w_compress, d w_expand) of an MLP module,
    given gz, the sums of its output gradient times its input per kept index."""
    gz = gz * gate * (1.0 - gate)
    grads = []  # per branch: (d pool, d w_compress, d w_expand)
    for v, h, r in zip(pools, hidden, relus):
        gr, gw2 = _linear_grads(gz, r, w2)
        gv, gw1 = _linear_grads(gr * (h > 0), v, w1)
        grads.append((gv, gw1, gw2))
    (g_avg, gw1_a, gw2_a), (g_max, gw1_m, gw2_m) = grads
    return g_avg, g_max, gw1_m + gw1_a, gw2_m + gw2_a


def _mlp_input_grad(g, b, f, gate, g_avg, g_max, out):
    """d loss / d up into out, for one block of frames of an MLP module gating
    up = the f x f upsample of b, given g = d loss / d (up * gate)."""
    gate_b = _lift(gate, g.ndim)
    gx = np.multiply(g, gate_b, out=out)
    rows = gx.reshape(gate.size, -1)
    # the first maximum of an upsampled row is its copy of b's first maximum
    # at row f*r, column f*c: it comes first in row-major order
    width = b.shape[-1]
    first = b.reshape(gate.size, -1).argmax(axis=-1)
    first = first // width * (f * f * width) + first % width * f
    rows[np.arange(gate.size), first] += g_max.reshape(-1)
    gx += (g_avg / rows.shape[1]).reshape(gate_b.shape)


def _spatial_sums(g, a, gate, gz):
    """gz = the channel sum of g * a, times the gate's derivative, for one
    block of frames of the spatial module gating a; no [T, C, H, W] product."""
    np.einsum("tchw,tchw->thw", g, a, out=gz[:, 0])
    gz *= gate
    gz *= 1.0 - gate


def _spatial_input_grad(g, a, gate, maps, gmaps):
    """d loss / d a written into a, for one block of frames of the spatial
    module gating a, given g = d loss / d (a * gate) and the maps' gradient."""
    t, c, h, w = a.shape
    # first channel at the maximum: c minus the largest (c - channel) over
    # the hits; a max reduce, where argmax over axis 1 would copy a
    rank = np.arange(c, 0, -1, dtype=np.min_scalar_type(c)).reshape(c, 1, 1)
    first = c - ((a == maps[:, 1:]) * rank).max(axis=1, initial=1)
    gx = np.multiply(g, gate, out=a)
    hw = h * w
    pos = (np.arange(t)[:, None] * c + first.reshape(t, hw)) * hw + np.arange(hw)
    gx.reshape(-1)[pos] += gmaps[:, 1].reshape(t, hw)
    gx += gmaps[:, :1] / c


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
    t_steps, c, h, w = xd.shape
    shape = (t_steps, c, h * f, w * f)

    def spread(work, buffered=False):
        """work(frames, buffer) for each block of frames, over tz._spread; the
        buffer is a worker's scratch block of frames when buffered."""
        tz._spread(work, t_steps, c * h * w * f * f,
                   lambda size: (np.empty((size,) + shape[1:]) if buffered else None,))

    # the forward gates in place: out takes the upsample, then each module's
    # gating, and each frame block's pass ends with the next module's pools
    out = np.empty(shape)
    pools = [np.empty((t_steps, 2) + shape[2:]) if m == "S"
             else tuple(np.empty(shape[:"TC".index(m) + 1]) for _ in range(2))
             for m, _ in modules]
    src = xd if f == 1 else out  # the first module's input

    def upsampled(frames, _):
        if f != 1:
            tz._upsample(xd[frames], f, out=out[frames])
        if modules:
            _summarize(modules[0][0], src, frames, pools[0])

    spread(upsampled)
    mlps, spatial = [], None  # the T and C modules' state; S's (weight, maps, gate)
    for i, (m, ws) in enumerate(modules):
        wd = tuple(w.data for w in ws)
        if m == "S":
            gate = tz._shifted_conv(pools[i], wd[0])  # its sigmoid is taken in place
            spatial = wd[0], pools[i], gate
        else:
            hidden, relus, gate = _mlp_gate(pools[i], *wd)
            mlps.append((*wd, pools[i], hidden, relus, gate))
        lifted = _lift(gate, 4)

        def gated(frames, _, i=i, m=m, src=src):
            if m == "S":
                _sigmoid(gate[frames], out=gate[frames])
            np.multiply(src[frames], lifted[frames], out=out[frames])
            if i + 1 < len(modules):
                _summarize(modules[i + 1][0], out, frames, pools[i + 1])

        spread(gated)
        src = out
    out = Tensor(out)

    def bw(g):
        # each T or C module's input before the upsample: x, then x times each
        # gate in turn; the forward gated the upsample of each
        gates = [state[-1] for state in mlps]
        ins = [xd] + [np.empty(xd.shape) for _ in gates[1:]]
        a = np.empty(shape) if spatial else None  # S's input, then its input gradient
        sums = [np.empty(gate.shape) for gate in gates]
        if spatial:
            sums.append(np.empty(spatial[2].shape))
        n = len(sums)

        def summed(i, g, frames, buf):
            """Module i's sums of g, its output gradient, over frames; for
            i = -1 the upsample's block sum into gx."""
            if i == len(mlps):
                _spatial_sums(g[frames], a[frames], spatial[2][frames], sums[i][frames])
            elif i >= 0:
                _mlp_sums(g[frames], ins[i][frames], f, buf, sums[i][frames])
            elif f != 1:
                tz._block_sum(g[frames], f, out=gx[frames])

        def rebuilt(frames, buf):
            for i in range(1, len(ins)):
                np.multiply(ins[i - 1][frames], _lift(gates[i - 1], 4)[frames],
                            out=ins[i][frames])
            if spatial and mlps:
                np.multiply(_over_blocks(ins[-1][frames]), _lift(gates[-1], 6)[frames],
                            out=_blocks(a[frames], f))
            elif spatial:
                tz._upsample(xd[frames], f, out=a[frames])
            summed(n - 1, g, frames, buf)

        # the input gradient when x needs one: the upsample's block sums
        gx = np.empty(xd.shape) if f != 1 and x.requires_grad else None
        spread(rebuilt, buffered=mlps and not spatial)
        grads = []
        own = False  # whether g is a buffer bw may overwrite
        for i in reversed(range(n)):
            need = i > 0 or x.requires_grad
            if i == len(mlps):
                wd, maps, gate = spatial
                gw, gmaps = tz._shifted_grads(maps, wd, sums[i], need)
                grads.append((gw,))
            else:
                g_avg, g_max, *gws = _mlp_grads(sums[i], *mlps[i])
                grads.append(gws)
            if not need:
                g = None
                break
            dst = a if i == len(mlps) else g if own else np.empty(shape)

            def input_grad(frames, buf, i=i, g=g, dst=dst):
                if i == len(mlps):
                    _spatial_input_grad(g[frames], a[frames], gate[frames], maps[frames],
                                        gmaps[frames])
                else:
                    _mlp_input_grad(g[frames], ins[i][frames], f, gates[i][frames],
                                    g_avg[frames], g_max[frames], dst[frames])
                summed(i - 1, dst, frames, buf)

            spread(input_grad, buffered=i > 0)
            g, own = dst, True
        if g is not None and f != 1:
            g = gx
        return (g,) + tuple(gw for gws in reversed(grads) for gw in gws)

    tz.record(out, (x,) + tuple(w for _, ws in modules for w in ws), bw)
    return out


def tcsa(x, weights, upsample=1):
    """Gate the f x f nearest upsample of x (f = upsample) by the modules
    whose weights are in `weights`, in T, C, S order, as one tape entry; only
    the upsample when the dict is empty."""
    if not isinstance(upsample, int) or upsample < 1:
        raise tz.ArgumentError("upsample factor must be an integer >= 1, got %r" % (upsample,))
    x = tz.as_tensor(x)
    return _site(x, weights, upsample) if weights or upsample != 1 else x
