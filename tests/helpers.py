"""Independent oracles shared across test modules.

Everything here is written the slow obvious way on purpose: quadruple loops,
scalar stepping, explicit recounts. The package must agree with these, not
the other way around.
"""

import math
from unittest import mock

import numpy as np

from spikedepth import attention as at
from spikedepth import events as ev
from spikedepth import kv
from spikedepth import losses as ls
from spikedepth import model as md
from spikedepth import neurons as nr
from spikedepth import tensor as tz


def naive_conv2d(x, w, stride=1, padding=0):
    """Reference cross-correlation, scalar loops, rank-3 input."""
    c_out, c_in, k, _ = w.shape
    assert x.shape[0] == c_in
    h, wd = x.shape[1], x.shape[2]
    xp = np.zeros((c_in, h + 2 * padding, wd + 2 * padding))
    xp[:, padding:padding + h, padding:padding + wd] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((c_out, ho, wo))
    for o in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for c in range(c_in):
                    for u in range(k):
                        for v in range(k):
                            acc += xp[c, i * stride + u, j * stride + v] * w[o, c, u, v]
                out[o, i, j] = acc
    return out


def naive_conv2d_grads(x, w, g, stride=1, padding=0):
    """Scalar-loop conv output and gradients for one rank-3 frame.

    g is the gradient of some loss with respect to the output [C_out, Ho, Wo];
    returns (out, d loss / d x, d loss / d w), each visited one tap at a time.
    """
    c_out, c_in, k, _ = w.shape
    h, wd = x.shape[1], x.shape[2]
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((c_out, ho, wo))
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    for o in range(c_out):
        for i in range(ho):
            for j in range(wo):
                for c in range(c_in):
                    for u in range(k):
                        for v in range(k):
                            r = i * stride + u - padding
                            q = j * stride + v - padding
                            if not (0 <= r < h and 0 <= q < wd):
                                continue
                            out[o, i, j] += x[c, r, q] * w[o, c, u, v]
                            gx[c, r, q] += g[o, i, j] * w[o, c, u, v]
                            gw[o, c, u, v] += g[o, i, j] * x[c, r, q]
    return out, gx, gw


def reference_backward(loss, tape):
    """Keep-everything reverse sweep: the oracle for tz.backward.

    Holds every gradient until the sweep ends, intermediates included,
    keyed as the tape keys its entries (an op output by its node, a leaf by
    the Tensor), then writes a .grad copy into every leaf it reached.
    Gradients are added in the same order as tz.backward, so leaf results
    agree bit for bit.
    """
    if len(tape._ops) == 0:
        return
    own = loss.node is not None and loss.node.tape is tape._id
    grads = {loss.node if own else loss: np.ones((), dtype=np.float64)}
    for node, keys, bw in reversed(tape._ops):
        gout = grads.get(node)
        if gout is None:
            continue
        gins = bw(gout)
        for k, g in zip(keys, gins):
            if g is None or k is None:
                continue
            grads[k] = grads[k] + g if k in grads else g
    for k, g in grads.items():
        if isinstance(k, tz.Tensor) and k.requires_grad:
            g = np.asarray(g, dtype=np.float64)
            k.grad = g.copy() if k.grad is None else k.grad + g


def central_diff(f, arrays, eps=1e-5):
    """Central finite differences of scalar f() w.r.t. each array, in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def assert_grads_close(analytic, fd, rtol=1e-6, atol=1e-9, label=""):
    analytic = np.asarray(analytic)
    fd = np.asarray(fd)
    assert analytic.shape == fd.shape, (label, analytic.shape, fd.shape)
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    err = np.abs(analytic - fd)
    bad = err > np.maximum(rtol * scale, atol)
    assert not bad.any(), "%s: worst err %.3e at %s (analytic %.6e, fd %.6e)" % (
        label, err.max(), np.unravel_index(err.argmax(), err.shape),
        analytic.reshape(-1)[err.argmax()], fd.reshape(-1)[err.argmax()])


def check_op_gradient(build, arrays, eps=1e-5, rtol=1e-6, atol=1e-9, label=""):
    """Compare taped gradients of sum(op(...)) against central differences.

    build(tensors) -> output Tensor; arrays are the raw leaf buffers, wrapped
    once so finite differencing can perturb them in place. Every leaf must
    reach the tape: one that build leaves unused fails, even though its
    finite difference would be zero too.
    """
    leaves = [tz.Tensor(a, requires_grad=True) for a in arrays]
    for leaf, a in zip(leaves, arrays):
        leaf.data = a  # share the buffer with the perturbed array
    with tz.Tape() as tape:
        out = build(leaves)
        loss = sum_all(out)
    tz.backward(loss, tape)

    def f():
        return float(sum_all(build(leaves)).data)

    fd = central_diff(f, arrays, eps=eps)
    for i, (leaf, g) in enumerate(zip(leaves, fd)):
        assert leaf.grad is not None, "%s: leaf %d is not used" % (label, i)
        assert_grads_close(leaf.grad, g, rtol=rtol, atol=atol, label=label)


def brute_if_trace(inputs, v_th, v_reset):
    """Scalar-stepped reference of the membrane recurrence.

    inputs: [T, ...] array. Returns (spikes [T, ...], charged levels [T, ...]),
    the charged level of step t being the membrane after its input arrives.
    """
    v = np.zeros_like(inputs[0])
    spikes, charged = [], []
    for t in range(inputs.shape[0]):
        h = v + inputs[t]
        s = (h - v_th >= 0).astype(np.float64)
        spikes.append(s)
        charged.append(h)
        v = h * (1.0 - s) + v_reset * s
    return np.stack(spikes, axis=0), np.stack(charged, axis=0)


def if_run_charged(x, cfg):
    """(spikes, charged membranes) of nr.if_run(x, cfg), as arrays [T, ...].

    The charged membranes are the one array the op's tape entry keeps, read
    from its backward closure; x is copied into a leaf that requires a
    gradient so that the op is recorded.
    """
    xt = tz.Tensor(np.array(x, dtype=np.float64), requires_grad=True)
    with tz.Tape() as tape:
        spikes = nr.if_run(xt, cfg)
    [(_, _, bw)] = tape._ops
    [h] = [c.cell_contents for c in bw.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    return spikes.data, h


def _fire(charged, cfg):
    """One step's firing nonlinearity, taped with the triangle window as its backward."""
    if cfg.neuron_mode == "spiking":
        s_data = (charged.data >= cfg.v_threshold).astype(np.float64)
    else:
        s_data = nr._smooth_ramp(charged.data, cfg.v_threshold, cfg.surrogate_alpha)
    out = tz.Tensor(s_data)
    tri = nr._triangle(charged.data, cfg.v_threshold, cfg.surrogate_alpha)
    tz.record(out, (charged,), lambda g: (g * tri,))
    return out


def _unstack(x):
    """The frames of x[T, ...] as tensors; one tape entry per frame."""
    shape = x.data.shape
    frames = []
    for i in range(shape[0]):
        def bw(g, i=i):
            full = np.zeros(shape)
            full[i] = g
            return (full,)
        frame = tz.Tensor(x.data[i])
        tz.record(frame, (x,), bw)
        frames.append(frame)
    return frames


def _stack(frames):
    """Equal-shape tensors stacked along a new leading axis; one tape entry."""
    out = tz.Tensor(np.stack([f.data for f in frames], axis=0))
    tz.record(out, tuple(frames), lambda g: tuple(g[i] for i in range(len(frames))))
    return out


def if_run_stepwise(x, cfg):
    """Per-step taped IF population: the gradient oracle for nr.if_run.

    Same signature and result as nr.if_run, but unrolled on the tape: x is
    split into frames, every step records add, fire, sub, mul and sub
    (membrane = charged - (charged - v_reset) * spikes), and the spikes are
    stacked again, so the generic reverse sweep does the BPTT.
    """
    x = tz.as_tensor(x)
    membrane = tz.Tensor(np.zeros(x.data.shape[1:]))
    spikes = []
    for frame in _unstack(x):
        charged = tz.add(membrane, frame)
        s = _fire(charged, cfg)
        spikes.append(s)
        membrane = sub(charged, mul(sub(charged, cfg.v_reset), s))
    return _stack(spikes)


def depth_head_composed(x, weight):
    """The depth head as a chain of generic taped ops: the oracle for model._depth_head.

    A 1x1 tz.conv2d of x [T, C, h, w], the per-step sum of its [T, 1, h, w]
    output from a zero membrane (unstacked, one add per step), a reshape of
    the [1, h, w] membrane to [h, w] and a 2x nearest upsample.
    """
    x = tz.as_tensor(x)
    y = tz.conv2d(x, weight)
    membrane = tz.Tensor(np.zeros(y.data.shape[1:]))
    for frame in _unstack(y):
        membrane = tz.add(membrane, frame)
    return nearest_upsample(reshape(membrane, membrane.data.shape[-2:]), 2)


def surrogate_grad(charged, cfg):
    """The surrogate derivative the IF backward applies at a charged membrane."""
    charged = tz.as_tensor(charged)
    return tz.Tensor(nr._triangle(charged.data, cfg.v_threshold, cfg.surrogate_alpha))


def make_events(rows):
    """EventArray from (t, x, y, p) rows already in time order."""
    t, x, y, p = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return ev.EventArray(t, x, y, p)


def event_rows(events):
    """The (t, x, y, p) rows of an EventArray as Python ints."""
    return list(zip(events.t.tolist(), events.x.tolist(), events.y.tolist(),
                    events.p.tolist()))


def recount_stack(events, window_start, window_len, t_steps, height, width,
                  mode="cumulative"):
    """Per-(frame, channel, pixel) recount of the stacking definition."""
    out = np.zeros((t_steps, 2, height, width))
    for tau in range(t_steps):
        if mode == "cumulative":
            hi = window_start + (tau + 1) * window_len // t_steps
        else:
            hi = window_start + window_len
        for t, x, y, p in event_rows(events):
            if window_start <= t < hi:
                ch = 0 if p > 0 else 1
                out[tau, ch, y, x] += 1.0
    return out


def scalar_stack(events, window_start, window_len, t_steps, height, width,
                 mode="cumulative"):
    """Per-event reference of the binning, one event at a time.

    An event with window_start <= t < window_start + window_len falls in
    sub-bin (t - window_start) * t_steps // window_len and counts in that
    frame and every later one (cumulative) or in every frame (repeat). Events
    outside the window are skipped unseen; one inside it but off the sensor
    raises BoundsError.
    """
    out = np.zeros((t_steps, 2, height, width))
    for t, x, y, p in event_rows(events):
        if not window_start <= t < window_start + window_len:
            continue
        if not (0 <= x < width and 0 <= y < height):
            raise ev.BoundsError("event at t=%d is off the sensor" % t)
        first = (t - window_start) * t_steps // window_len if mode == "cumulative" else 0
        out[first:, 0 if p > 0 else 1, y, x] += 1.0
    return out


# ---------------------------------------------------------------------------
# test-only API: ops, accessors and codecs the package itself never calls


def take(a, index):
    """Taped a[index] for a tuple of slices; the backward scatters g into zeros."""
    a = tz.as_tensor(a)
    out = tz.Tensor(a.data[index])
    shape = a.data.shape

    def bw(g):
        full = np.zeros(shape)
        full[index] = g
        return (full,)

    tz.record(out, (a,), bw)
    return out


def reshape(a, shape):
    a = tz.as_tensor(a)
    out = tz.Tensor(a.data.reshape(shape))
    orig = a.data.shape
    tz.record(out, (a,), lambda g: (g.reshape(orig),))
    return out


def _lead_align(a, b):
    """Right-pad the lower-rank array with singleton axes; check compatibility."""
    da, db = a.data, b.data
    if da.shape == db.shape:
        return da, db
    if da.ndim < db.ndim:
        da = da.reshape(da.shape + (1,) * (db.ndim - da.ndim))
    elif db.ndim < da.ndim:
        db = db.reshape(db.shape + (1,) * (da.ndim - db.ndim))
    for axis, (m, n) in enumerate(zip(da.shape, db.shape)):
        if m != n and m != 1 and n != 1:
            raise tz.DimensionError("axis %d mismatch: %d vs %d" % (axis, m, n))
    return da, db


def _unbroadcast(g, orig_shape):
    """Reduce a broadcast gradient back to the operand's original shape."""
    if g.shape == orig_shape:
        return g
    padded = orig_shape + (1,) * (g.ndim - len(orig_shape))
    axes = tuple(i for i, (go, po) in enumerate(zip(g.shape, padded)) if po == 1 and go != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(orig_shape)


def sub(a, b):
    """a - b, broadcast leading-aligned: the lower-rank operand is padded with
    trailing singleton axes, so a per-step term [T] meets a [T, C, H, W] one."""
    a, b = tz.as_tensor(a), tz.as_tensor(b)
    da, db = _lead_align(a, b)
    out = tz.Tensor(da - db)
    sa, sb = a.data.shape, b.data.shape
    tz.record(out, (a, b),
              lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a, b):
    """a * b, broadcast as in sub."""
    a, b = tz.as_tensor(a), tz.as_tensor(b)
    da, db = _lead_align(a, b)
    out = tz.Tensor(da * db)
    sa, sb = a.data.shape, b.data.shape
    tz.record(out, (a, b),
              lambda g: (_unbroadcast(g * db, sa), _unbroadcast(g * da, sb)))
    return out


def absolute(a):
    """Elementwise |a|; the gradient at exactly 0 is taken as 0."""
    a = tz.as_tensor(a)
    out = tz.Tensor(np.abs(a.data))
    sgn = np.sign(a.data)
    tz.record(out, (a,), lambda g: (g * sgn,))
    return out


def sum_all(a):
    a = tz.as_tensor(a)
    out = tz.Tensor(a.data.sum())
    shape = a.data.shape
    tz.record(out, (a,), lambda g: (np.broadcast_to(g, shape),))
    return out


def concat(parts, axis):
    parts = [tz.as_tensor(p) for p in parts]
    if not parts:
        raise tz.ArgumentError("concat needs at least one tensor")
    rank = parts[0].data.ndim
    if not -rank <= axis < rank:
        raise tz.ArgumentError("concat axis %d out of range for rank %d" % (axis, rank))
    axis = axis % rank
    base = list(parts[0].data.shape)
    for p in parts[1:]:
        s = list(p.data.shape)
        if len(s) != rank or any(s[i] != base[i] for i in range(rank) if i != axis):
            raise tz.DimensionError("concat shape mismatch off axis %d: %s vs %s"
                                    % (axis, tuple(base), tuple(s)))
    out = tz.Tensor(np.concatenate([p.data for p in parts], axis=axis))
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    tz.record(out, tuple(parts), lambda g: tuple(np.split(g, splits, axis=axis)))
    return out


def mean_all(a):
    """Taped mean over every element."""
    a = tz.as_tensor(a)
    out = tz.Tensor(a.data.mean())
    shape, n = a.data.shape, a.data.size
    tz.record(out, (a,), lambda g: (np.broadcast_to(g / n, shape),))
    return out


def nearest_upsample(x, factor):
    """Taped copy of every pixel of the last two axes into an f x f block: the
    oracle for the upsample an attention site folds in."""
    x = tz.as_tensor(x)
    out = tz.Tensor(tz._upsample(x.data, factor))
    tz.record(out, (x,), lambda g: (tz._block_sum(g, factor),))
    return out


def avg_downsample(x, factor):
    """Taped mean over non-overlapping f x f blocks of the last two axes."""
    x = tz.as_tensor(x)
    lead, (h, w) = x.data.shape[:-2], x.data.shape[-2:]
    blocks = lead + (h // factor, factor, w // factor, factor)
    out = tz.Tensor(x.data.reshape(blocks).mean(axis=(-3, -1)))

    def bw(g):
        g = np.broadcast_to(g[..., :, None, :, None] / (factor * factor), blocks)
        return (g.reshape(lead + (h, w)),)

    tz.record(out, (x,), bw)
    return out


def load_tensor(path):
    with open(path, "rb") as fh:
        return tz.read_tensor(fh)


def total_params(store):
    return sum(t.data.size for _, t in store)


def param_names(store):
    return [name for name, _ in store]


def serialize_events(events):
    """Canonical CSV text, exactly as save_events writes it."""
    return "".join(ev._csv_pieces(events))


def serialize_scene_spec(spec):
    """Scene spec text that `synth.parse_scene_spec` reads back to spec."""
    return "\n".join(kv.format_lines(spec)) + "\n"


def events_equal(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ev.EventArray.__slots__)


def spike_trains(model, x):
    """Run model.forward(x); returns its output and the spike trains of its
    spiking populations by block group, captured by wrapping nr.if_run. The
    last decoder layer stops at its depth head, so it fires no population."""
    trains = []
    run = nr.if_run

    def capture(inp, cfg):
        spikes = run(inp, cfg)
        trains.append(spikes)
        return spikes

    with mock.patch.object(nr, "if_run", capture):
        out = model.forward(x)
    n_enc, n_res = len(model.encoders), 2 * len(model.residuals)
    assert len(trains) == n_enc + n_res + len(model.decoders) - 1
    return out, {"encoder": trains[:n_enc], "residual": trains[n_enc:n_enc + n_res],
                 "decoder": trains[n_enc + n_res:]}


# ---------------------------------------------------------------------------
# the composed TCSA graph: the oracle for the fused attention gates


def sigmoid(a):
    """Numerically stable logistic; saturates to 0/1 without overflow."""
    a = tz.as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = tz.Tensor(s)
    tz.record(out, (a,), lambda g: (g * s * (1.0 - s),))
    return out


def relu(a):
    a = tz.as_tensor(a)
    out = tz.Tensor(np.maximum(a.data, 0.0))
    pos = a.data > 0
    tz.record(out, (a,), lambda g: (g * pos,))
    return out


def pool(a, axes, mode="avg"):
    """Reduce over the given axes (dropped from the output).

    mode "avg" takes the mean; mode "max" takes the maximum and, on ties,
    routes the gradient to the first maximum in row-major order over the
    reduced axes.
    """
    a = tz.as_tensor(a)
    rank = a.data.ndim
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(ax % rank if -rank <= ax < rank else ax for ax in axes)
    if not axes:
        raise tz.ArgumentError("pool needs at least one axis")
    if len(set(axes)) != len(axes):
        raise tz.ArgumentError("pool axes repeat: %s" % (axes,))
    for ax in axes:
        if not 0 <= ax < rank:
            raise tz.ArgumentError("pool axis %d out of range for rank %d" % (ax, rank))
    if mode not in ("avg", "max"):
        raise tz.ArgumentError("pool mode must be avg or max, got %r" % (mode,))
    axes = tuple(sorted(axes))
    kept = tuple(i for i in range(rank) if i not in axes)
    perm = kept + axes
    moved = a.data.transpose(perm)
    kept_shape = moved.shape[:len(kept)]
    red = int(np.prod(moved.shape[len(kept):], dtype=np.int64)) if axes else 1
    flat = moved.reshape(kept_shape + (red,))

    if mode == "avg":
        out = tz.Tensor(flat.mean(axis=-1))
        shape = a.data.shape

        def bw(g):
            return (np.broadcast_to(np.expand_dims(g / red, axes), shape),)
    else:
        arg = flat.argmax(axis=-1)
        out = tz.Tensor(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])

        def bw(g):
            gf = np.zeros(flat.shape)
            np.put_along_axis(gf, arg[..., None], g[..., None], axis=-1)
            return (gf.reshape(moved.shape).transpose(np.argsort(perm)),)

    tz.record(out, (a,), bw)
    return out


def linear(x, weight, bias=None):
    """x[..., N] @ weight[M, N]^T (+ bias[M]) -> [..., M]."""
    x, weight = tz.as_tensor(x), tz.as_tensor(weight)
    if weight.data.ndim != 2:
        raise tz.DimensionError("linear weight must be rank 2, got %s" % (weight.data.shape,))
    m, n = weight.data.shape
    if x.data.ndim < 1 or x.data.shape[-1] != n:
        raise tz.DimensionError("linear input axis -1 is %s, weight expects %d"
                                % (x.data.shape[-1:] or "()", n))
    out_data = x.data @ weight.data.T
    inputs = (x, weight)
    if bias is not None:
        bias = tz.as_tensor(bias)
        if bias.data.shape != (m,):
            raise tz.DimensionError("linear bias must have shape (%d,), got %s"
                                    % (m, bias.data.shape))
        out_data = out_data + bias.data
        inputs = (x, weight, bias)
    out = tz.Tensor(out_data)
    xd, wd = x.data, weight.data

    def bw(g):
        g2 = g.reshape(-1, m)
        x2 = xd.reshape(-1, n)
        gx = (g @ wd).reshape(xd.shape)
        gw = g2.T @ x2
        if bias is None:
            return (gx, gw)
        return (gx, gw, g2.sum(axis=0))

    tz.record(out, inputs, bw)
    return out


def _mlp(v, w_compress, w_expand):
    return linear(relu(linear(v, w_compress)), w_expand)


def _mlp_gate(x, axes, w_compress, w_expand):
    avg = pool(x, axes=axes, mode="avg")
    mx = pool(x, axes=axes, mode="max")
    gate = sigmoid(tz.add(_mlp(avg, w_compress, w_expand), _mlp(mx, w_compress, w_expand)))
    return mul(x, gate)


def _spatial_gate(x, s_conv):
    t, _, h, w = x.data.shape
    avg = reshape(pool(x, axes=(1,), mode="avg"), (t, 1, h, w))
    mx = reshape(pool(x, axes=(1,), mode="max"), (t, 1, h, w))
    maps = concat([avg, mx], axis=1)
    gate = sigmoid(tz.conv2d(maps, s_conv))
    return mul(x, gate)


def tcsa_composed(x, weights):
    """at.tcsa as a graph of taped pool, linear, relu, sigmoid, conv and mul
    ops, so the generic reverse sweep does the backward."""
    x = tz.as_tensor(x)
    if "t_compress" in weights:
        x = _mlp_gate(x, (1, 2, 3), weights["t_compress"], weights["t_expand"])
    if "c_compress" in weights:
        x = _mlp_gate(x, (2, 3), weights["c_compress"], weights["c_expand"])
    if "s_conv" in weights:
        x = _spatial_gate(x, weights["s_conv"])
    return x


def attention_params(t, c, reduction=1, enabled="TCS", rng=None):
    """One gating site's weight dict, drawn as DepthNet draws it, or zeros
    without an rng."""
    shapes = at.weight_shapes(t, c, reduction, enabled)
    arrays = (md.draw_weights(shapes, rng) if rng is not None
              else {name: np.zeros(shape) for name, shape in shapes.items()})
    return {name: tz.Tensor(a) for name, a in arrays.items()}


# ---------------------------------------------------------------------------
# the composed loss graph: the oracle for the fused ls.total_loss


def masked_residual_composed(pred, gt):
    pred = tz.as_tensor(pred)
    if pred.data.shape != gt.depth.shape:
        raise tz.DimensionError("prediction %s does not match ground truth %s"
                                % (pred.data.shape, gt.depth.shape))
    n = int(gt.valid.sum())
    if n == 0:
        raise ls.MetricError("no valid ground-truth pixels")
    mask = gt.valid.astype(np.float64)
    return mul(sub(tz.Tensor(gt.depth), pred), tz.Tensor(mask)), mask, n


def ssi_loss_composed(pred, gt, config=ls.LossConfig()):
    resid, _, n = masked_residual_composed(pred, gt)
    sq = sum_all(mul(resid, resid))
    s = sum_all(resid)
    mean_sq = mul(sq, 1.0 / n)
    sq_mean = mul(mul(s, s), 1.0 / (n * n))
    if config.ssi_sign == "minus":
        return sub(mean_sq, sq_mean)
    return tz.add(mean_sq, sq_mean)


def reg_loss_composed(pred, gt):
    resid, mask, n = masked_residual_composed(pred, gt)
    h, w = resid.data.shape
    total = None
    if w > 1:
        dx = sub(take(resid, np.s_[:, 1:]), take(resid, np.s_[:, :-1]))
        pair_x = tz.Tensor(mask[:, 1:] * mask[:, :-1])
        total = sum_all(absolute(mul(dx, pair_x)))
    if h > 1:
        dy = sub(take(resid, np.s_[1:, :]), take(resid, np.s_[:-1, :]))
        pair_y = tz.Tensor(mask[1:, :] * mask[:-1, :])
        sy = sum_all(absolute(mul(dy, pair_y)))
        total = sy if total is None else tz.add(total, sy)
    if total is None:
        return tz.Tensor(np.float64(0.0))
    return mul(total, 1.0 / n)


def total_loss_composed(pred, gt, config=ls.LossConfig()):
    """ls.total_loss as a graph of taped sub, mul, sum_all, absolute and
    slice ops, so the generic reverse sweep does the backward."""
    return tz.add(ssi_loss_composed(pred, gt, config),
                  mul(reg_loss_composed(pred, gt), config.lambda_reg))


def forbid_large_zeros(monkeypatch, limit=2 ** 20):
    """Make np.zeros fail on more than `limit` elements, so that a test sees an
    array sized from a header or a frame before the check that bounds it."""
    zeros = np.zeros

    def small_zeros(shape, *args, **kw):
        assert np.prod(shape, dtype=np.float64) <= limit, shape
        return zeros(shape, *args, **kw)

    monkeypatch.setattr(np, "zeros", small_zeros)


def neumaier_sum(iterable, start=0):
    """Built-in sum as CPython 3.12 and later compute it: exact floats are added
    with Neumaier's compensation and an int joins them as a float; any other
    item (a numpy scalar, say) is added with + after the compensation is
    folded in. Patched into builtins, it shows what a 3.12 run computes."""
    total, c = start, 0.0
    for item in iterable:
        if type(total) is float and type(item) is float:
            t = total + item
            c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        elif type(total) is float and isinstance(item, int):
            total += float(item)
        else:
            total, c = (total + c if c and math.isfinite(c) else total) + item, 0.0
    return total + c if c and math.isfinite(c) else total
