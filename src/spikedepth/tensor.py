"""Dense float64 tensors with taped reverse-mode differentiation.

The tape is an explicit operation list: ops append (outputs, inputs, backward)
entries while a Tape is active, and backward() replays the list in reverse,
accumulating gradients keyed by tensor identity. With no tape active every op
runs in plain inference mode at numpy speed.

Broadcasting is leading-aligned: the lower-rank operand is padded with
trailing singleton axes, so a per-step gate of shape [T] scales a [T,C,H,W]
activation without any manual reshape.
"""

import math
import struct

import numpy as np


class DimensionError(ValueError):
    """Shape or axis constraint violated."""


class ArgumentError(ValueError):
    """Out-of-domain argument."""


class StateError(RuntimeError):
    """Object used before required state was established."""


# ---------------------------------------------------------------------------
# tape


class Tape:
    """Ordered record of differentiable operations.

    Use as a context manager; ops executed inside the block are recorded when
    any of their inputs requires a gradient. Tapes nest, innermost active.
    """

    def __init__(self):
        self._ops = []

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE.pop()
        if popped is not self:
            raise StateError("tape exited out of order")
        return False

    def __len__(self):
        return len(self._ops)


_ACTIVE = []


def _active_tape():
    return _ACTIVE[-1] if _ACTIVE else None


class Tensor:
    """Rank-N float64 array plus gradient buffer.

    is_spike marks tensors whose values are binary spike indicators; the
    network uses it to route synaptic-operation counting.
    """

    __slots__ = ("data", "grad", "requires_grad", "is_spike")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.is_spike = False

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise DimensionError("item() needs a single-element tensor, got shape %s"
                                 % (self.data.shape,))
        return float(self.data.reshape(()))

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.data.shape, self.requires_grad)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def record(outputs, inputs, backward):
    """Append one op to the active tape.

    outputs / inputs are tuples of Tensors; backward maps the outputs'
    gradient arrays to one gradient array (or None) per input. Extension
    point for ops defined outside this module. No-op without an active tape
    or when no input requires a gradient.
    """
    tape = _active_tape()
    if tape is None or not any(t.requires_grad for t in inputs):
        return
    for out in outputs:
        out.requires_grad = True
    tape._ops.append((outputs, inputs, backward))


def backward(loss, tape):
    """Accumulate d(loss)/d(leaf) into .grad for every leaf of the tape.

    loss must be a scalar. A leaf is a tensor that requires a gradient and
    that no op on this tape produced: parameters, inputs, and loss itself
    when no op made it. Only leaves receive .grad; intermediates keep
    grad = None. The sweep walks the tape in reverse and pops an op's output
    gradients when it reaches that op: every consumer of a tensor comes
    later on the tape, so the gradient is complete by then and is freed
    once used. What is left at the end belongs to leaves and is added into
    their .grad as an owned, writable copy, so repeated calls accumulate
    (no zeroing between calls is implied). An empty tape is a no-op.
    """
    if not isinstance(loss, Tensor):
        raise ArgumentError("backward needs a Tensor loss")
    if loss.data.shape != ():
        raise ArgumentError("loss must be scalar, got shape %s" % (loss.data.shape,))
    if len(tape._ops) == 0:
        return
    # id -> (tensor, gradient so far); an op's outputs leave it when the op runs
    pending = {id(loss): (loss, np.ones((), dtype=np.float64))}
    for outputs, inputs, bw in reversed(tape._ops):
        gouts = tuple(pending.pop(id(o), (o, None))[1] for o in outputs)
        if all(g is None for g in gouts):
            continue
        gouts = tuple(np.zeros(o.data.shape) if g is None else g
                      for o, g in zip(outputs, gouts))
        gins = bw(*gouts)
        for t, g in zip(inputs, gins):
            if g is None or not t.requires_grad:
                continue
            prev = pending.get(id(t))
            pending[id(t)] = (t, g if prev is None else prev[1] + g)
    for t, g in pending.values():
        if not t.requires_grad:
            continue
        g = np.asarray(g, dtype=np.float64)
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# broadcasting helpers


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
            raise DimensionError("axis %d mismatch: %d vs %d" % (axis, m, n))
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


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    da, db = _lead_align(a, b)
    out = Tensor(da + db)
    sa, sb = a.data.shape, b.data.shape
    record((out,), (a, b),
           lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    da, db = _lead_align(a, b)
    out = Tensor(da - db)
    sa, sb = a.data.shape, b.data.shape
    record((out,), (a, b),
           lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))
    return out


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    da, db = _lead_align(a, b)
    out = Tensor(da * db)
    sa, sb = a.data.shape, b.data.shape
    record((out,), (a, b),
           lambda g: (_unbroadcast(g * db, sa), _unbroadcast(g * da, sb)))
    return out


def absolute(a):
    """Elementwise |a|; the gradient at exactly 0 is taken as 0."""
    a = as_tensor(a)
    out = Tensor(np.abs(a.data))
    sgn = np.sign(a.data)
    record((out,), (a,), lambda g: (g * sgn,))
    return out


def sigmoid(a):
    """Numerically stable logistic; saturates to 0/1 without overflow."""
    a = as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(s)
    record((out,), (a,), lambda g: (g * s * (1.0 - s),))
    return out


def relu(a):
    a = as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    pos = a.data > 0
    record((out,), (a,), lambda g: (g * pos,))
    return out


def sum_all(a):
    a = as_tensor(a)
    out = Tensor(a.data.sum())
    shape = a.data.shape
    record((out,), (a,), lambda g: (np.broadcast_to(g, shape),))
    return out


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape):
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    orig = a.data.shape
    record((out,), (a,), lambda g: (g.reshape(orig),))
    return out


def concat(parts, axis):
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ArgumentError("concat needs at least one tensor")
    rank = parts[0].data.ndim
    if not -rank <= axis < rank:
        raise ArgumentError("concat axis %d out of range for rank %d" % (axis, rank))
    axis = axis % rank
    base = list(parts[0].data.shape)
    for p in parts[1:]:
        s = list(p.data.shape)
        if len(s) != rank or any(s[i] != base[i] for i in range(rank) if i != axis):
            raise DimensionError("concat shape mismatch off axis %d: %s vs %s"
                                 % (axis, tuple(base), tuple(s)))
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    record((out,), tuple(parts), bw)
    return out


def slice_nd(a, bounds):
    """Rectangular slice; bounds is one (start, stop) pair per axis."""
    a = as_tensor(a)
    if len(bounds) != a.data.ndim:
        raise DimensionError("slice_nd needs %d bounds, got %d" % (a.data.ndim, len(bounds)))
    idx = []
    for axis, (lo, hi) in enumerate(bounds):
        n = a.data.shape[axis]
        if not (0 <= lo < hi <= n):
            raise ArgumentError("slice bounds (%d, %d) invalid on axis %d of size %d"
                                % (lo, hi, axis, n))
        idx.append(slice(lo, hi))
    idx = tuple(idx)
    out = Tensor(a.data[idx])
    orig = a.data.shape

    def bw(g):
        full = np.zeros(orig)
        full[idx] = g
        return (full,)

    record((out,), (a,), bw)
    return out


def pad_bottom_right(a, pad_h, pad_w):
    """Zero-pad the last two axes on the bottom/right edges only."""
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise DimensionError("pad_bottom_right needs rank >= 2")
    if pad_h < 0 or pad_w < 0:
        raise ArgumentError("padding must be non-negative")
    if pad_h == 0 and pad_w == 0:
        return a
    widths = [(0, 0)] * (a.data.ndim - 2) + [(0, pad_h), (0, pad_w)]
    out = Tensor(np.pad(a.data, widths))
    h, w = a.data.shape[-2], a.data.shape[-1]

    def bw(g):
        return (g[..., :h, :w],)

    record((out,), (a,), bw)
    return out


# ---------------------------------------------------------------------------
# reductions over chosen axes


def pool(a, axes, mode="avg"):
    """Reduce over the given axes (dropped from the output).

    mode "avg" takes the mean; mode "max" takes the maximum and, on ties,
    routes the gradient to the first maximum in row-major order over the
    reduced axes.
    """
    a = as_tensor(a)
    rank = a.data.ndim
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(ax % rank if -rank <= ax < rank else ax for ax in axes)
    if not axes:
        raise ArgumentError("pool needs at least one axis")
    if len(set(axes)) != len(axes):
        raise ArgumentError("pool axes repeat: %s" % (axes,))
    for ax in axes:
        if not 0 <= ax < rank:
            raise ArgumentError("pool axis %d out of range for rank %d" % (ax, rank))
    if mode not in ("avg", "max"):
        raise ArgumentError("pool mode must be avg or max, got %r" % (mode,))
    axes = tuple(sorted(axes))
    kept = tuple(i for i in range(rank) if i not in axes)
    perm = kept + axes
    moved = a.data.transpose(perm)
    kept_shape = moved.shape[:len(kept)]
    red = int(np.prod(moved.shape[len(kept):], dtype=np.int64)) if axes else 1
    flat = moved.reshape(kept_shape + (red,))

    if mode == "avg":
        out = Tensor(flat.mean(axis=-1))
        shape = a.data.shape

        def bw(g):
            return (np.broadcast_to(np.expand_dims(g / red, axes), shape),)
    else:
        arg = flat.argmax(axis=-1)
        out = Tensor(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])

        def bw(g):
            gf = np.zeros(flat.shape)
            np.put_along_axis(gf, arg[..., None], g[..., None], axis=-1)
            return (gf.reshape(moved.shape).transpose(np.argsort(perm)),)

    record((out,), (a,), bw)
    return out


# ---------------------------------------------------------------------------
# linear and convolution


def linear(x, weight, bias=None):
    """x[..., N] @ weight[M, N]^T (+ bias[M]) -> [..., M]."""
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.data.ndim != 2:
        raise DimensionError("linear weight must be rank 2, got %s" % (weight.data.shape,))
    m, n = weight.data.shape
    if x.data.ndim < 1 or x.data.shape[-1] != n:
        raise DimensionError("linear input axis -1 is %s, weight expects %d"
                             % (x.data.shape[-1:] or "()", n))
    out_data = x.data @ weight.data.T
    inputs = (x, weight)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.data.shape != (m,):
            raise DimensionError("linear bias must have shape (%d,), got %s"
                                 % (m, bias.data.shape))
        out_data = out_data + bias.data
        inputs = (x, weight, bias)
    out = Tensor(out_data)
    xd, wd = x.data, weight.data

    def bw(g):
        g2 = g.reshape(-1, m)
        x2 = xd.reshape(-1, n)
        gx = (g @ wd).reshape(xd.shape)
        gw = g2.T @ x2
        if bias is None:
            return (gx, gw)
        return (gx, gw, g2.sum(axis=0))

    record((out,), inputs, bw)
    return out


def conv_out_size(size, k, stride, padding, axis_name):
    span = size + 2 * padding - k
    if span < 0:
        raise DimensionError("conv %s %d too small for kernel %d with padding %d"
                             % (axis_name, size, k, padding))
    return span // stride + 1


# Frames per stride-1 chunk: each chunk buffer stays under the 4 MiB from which numpy
# asks for huge pages, so small frames share one batched GEMM per tap and sensor-size
# frames go one at a time.
_CHUNK_FLOATS = (4 << 20) // 8


def _chunk_frames(n, frame_floats):
    """Frames per chunk: as many as keep frame_floats each under _CHUNK_FLOATS, at least one."""
    return min(n, max(1, _CHUNK_FLOATS // frame_floats))


def _padded_chunks(xd, k, padding, step):
    """Zero-padded, flattened frames of xd [N, C, H, W], step frames at a time.

    Yields (lo, hi, xp), xp [hi - lo, C, Hp*Wp + k - 1]: frame lo + i padded
    to Hp x Wp and laid out row by row, then k - 1 zeros, so that the slice
    [u*Wp + v : u*Wp + v + Ho*Wp] of a row exists for every tap (u, v). The
    buffer is refilled for each chunk; an unpadded 1x1 conv reads xd itself.
    """
    n, c, h, w = xd.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    as_is = k == 1 and padding == 0
    if not as_is:
        buf = np.zeros((step, c, hp * wp + k - 1))
        inner = buf[:, :, :hp * wp].reshape(step, c, hp, wp)[:, :, padding:padding + h,
                                                             padding:padding + w]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        if as_is:
            yield lo, hi, xd[lo:hi].reshape(hi - lo, c, h * w)
        else:
            inner[:hi - lo] = xd[lo:hi]
            yield lo, hi, buf[:hi - lo]


def _tap_gemm(a, b, out):
    """out = a [M, K] @ b [..., K, L]. With K = 1 that is an outer product,
    which np.multiply runs about 4x faster than a K = 1 GEMM."""
    return (np.multiply if a.shape[1] == 1 else np.matmul)(a, b, out=out)


def _shifted_conv(xd, wd, padding):
    """Stride-1 cross-correlation of xd [N, C_in, H, W] with wd [C_out, C_in, k, k].

    Tap (u, v) is one GEMM W[:, :, u, v] @ xp[..., off:off + Ho*Wp] on a view
    of the flat padded frames (off = u*Wp + v), added into a [C_out, Ho*Wp]
    accumulator whose last k - 1 columns of each row are cropped at the end.
    """
    n, c_in, h, w = xd.shape
    c_out, _, k, _ = wd.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = hp - k + 1, wp - k + 1
    span = ho * wp
    taps = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))
    step = _chunk_frames(n, max(c_in, c_out) * hp * wp)
    out = np.empty((n, c_out, ho, wo))
    acc = np.empty((step, c_out, span))
    part = np.empty_like(acc)
    for lo, hi, xp in _padded_chunks(xd, k, padding, step):
        m = hi - lo
        for u in range(k):
            for v in range(k):
                shifted = xp[:, :, u * wp + v:u * wp + v + span]
                if u == v == 0:
                    _tap_gemm(taps[0, 0], shifted, acc[:m])
                else:
                    _tap_gemm(taps[u, v], shifted, part[:m])
                    acc[:m] += part[:m]
        out[lo:hi] = acc[:m].reshape(m, c_out, ho, wp)[..., :wo]
    return out


def _shifted_grads(xd, wd, g, padding, need_gx):
    """(d loss / d W, d loss / d x or None) of a stride-1 conv.

    g [N, C_out, Ho, Wo] is widened with zeros to g_wide [C_out, Ho*Wp], so
    the k - 1 columns a shifted view reads past each row's end add nothing.
    Per tap, gW[:, :, u, v] += g_wide @ xp_shift^T, and W_uv^T @ g_wide is
    added into the same shifted slice of the flat padded input gradient.
    """
    n, c_in, h, w = xd.shape
    c_out, _, k, _ = wd.shape
    ho, wo = g.shape[2:]
    hp, wp = h + 2 * padding, w + 2 * padding
    span = ho * wp
    taps_t = np.ascontiguousarray(wd.transpose(2, 3, 1, 0))
    step = _chunk_frames(n, max(c_in, c_out) * hp * wp)
    gw = np.zeros((k, k, c_out, c_in))
    g_wide = np.zeros((step, c_out, ho, wp))
    gx = np.empty(xd.shape) if need_gx else None
    if need_gx:
        gxp = np.empty((step, c_in, hp * wp + k - 1))
        part = np.empty((step, c_in, span))
    for lo, hi, xp in _padded_chunks(xd, k, padding, step):
        m = hi - lo
        g_wide[:m, :, :, :wo] = g[lo:hi]
        g_flat = g_wide[:m].reshape(m, c_out, span)
        if need_gx:
            gxp[:m] = 0.0
        for u in range(k):
            for v in range(k):
                off = u * wp + v
                shifted = xp[:, :, off:off + span]
                gw[u, v] += np.matmul(g_flat, shifted.transpose(0, 2, 1)).sum(axis=0)
                if need_gx:
                    _tap_gemm(taps_t[u, v], g_flat, part[:m])
                    gxp[:m, :, off:off + span] += part[:m]
        if need_gx:
            gx[lo:hi] = gxp[:m, :, :hp * wp].reshape(m, c_in, hp, wp)[
                :, :, padding:padding + h, padding:padding + w]
    return gw.transpose(2, 3, 0, 1), gx


def _frame_columns(xd, k, stride, padding, ho, wo):
    """im2col over the frames of xd [N, C_in, H, W], one frame at a time.

    Returns cols(i) -> [C_in*k*k, Ho*Wo]: row (c, u, v), column (r, s) holds
    input pixel (c, r*stride + u - padding, s*stride + v - padding), zero in
    the padding. Each call refills the same buffer, so only one frame's
    columns exist at once.
    """
    c_in, h, w = xd.shape[1:]
    xp = np.zeros((c_in, h + 2 * padding, w + 2 * padding))
    cols = np.empty((c_in, k, k, ho, wo))

    def cols_of(i):
        xp[:, padding:padding + h, padding:padding + w] = xd[i]
        for u in range(k):
            for v in range(k):
                cols[:, u, v] = xp[:, u:u + ho * stride:stride, v:v + wo * stride:stride]
        return cols.reshape(c_in * k * k, ho * wo)

    return cols_of


def _strided_grads(xd, wd, g, stride, padding, need_gx):
    """(d loss / d W, d loss / d x or None) of a stride > 1 conv through im2col.

    Each frame's columns are rebuilt rather than kept on the tape; g_i @ cols^T
    adds into the weight gradient and W^T @ g_i is scattered back onto the
    padded input gradient with k*k strided adds (col2im).
    """
    n, c_in, h, w = xd.shape
    c_out, _, k, _ = wd.shape
    ho, wo = g.shape[2:]
    w2 = wd.reshape(c_out, c_in * k * k)
    g3 = g.reshape(n, c_out, ho * wo)
    cols_of = _frame_columns(xd, k, stride, padding, ho, wo)
    gw = np.zeros((c_out, c_in * k * k))
    for i in range(n):
        gw += g3[i] @ cols_of(i).T
    gw = gw.reshape(wd.shape)
    if not need_gx:
        return gw, None
    gxp = np.zeros((n, c_in, h + 2 * padding, w + 2 * padding))
    gcols = np.empty((c_in, k, k, ho, wo))
    for i in range(n):
        np.matmul(w2.T, g3[i], out=gcols.reshape(c_in * k * k, ho * wo))
        for u in range(k):
            for v in range(k):
                gxp[i, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += gcols[:, u, v]
    return gw, gxp[:, :, padding:padding + h, padding:padding + w]


def conv2d(x, weight, stride=1, padding=0):
    """2D cross-correlation with square odd kernels and symmetric padding.

    x is [C_in, H, W] or [T, C_in, H, W]; a leading time axis is handled as a
    batch. weight is [C_out, C_in, k, k], bias-free.

    Stride 1 builds no column buffer (the kn2row / shifted-GEMM family): the
    frames are zero-padded into flat rows, and each of the k*k taps is one
    GEMM on a shifted view of them (see _shifted_conv). The backward pads the
    frames again rather than keeping them on the tape and runs two GEMMs per
    tap on the same views, one into the weight gradient and one added into
    the padded input gradient (see _shifted_grads). Frames go in chunks that
    keep each buffer under 4 MiB.

    Stride > 1 is one GEMM per frame: its columns [C_in*k*k, Ho*Wo] (k*k
    strided slices of the zero-padded frame, see _frame_columns) times the
    weight viewed as [C_out, C_in*k*k]; the backward is _strided_grads.
    The input gradient is None when x does not require one.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4:
        raise DimensionError("conv2d input must be rank 3 or 4, got %s" % (x.data.shape,))
    if weight.data.ndim != 4 or weight.data.shape[2] != weight.data.shape[3]:
        raise DimensionError("conv2d weight must be [C_out, C_in, k, k], got %s"
                             % (weight.data.shape,))
    c_out, c_in, k, _ = weight.data.shape
    if k % 2 != 1:
        raise ArgumentError("kernel size must be odd, got %d" % k)
    if stride < 1:
        raise ArgumentError("stride must be >= 1, got %d" % stride)
    if padding < 0:
        raise ArgumentError("padding must be >= 0, got %d" % padding)
    if xd.shape[1] != c_in:
        raise DimensionError("conv2d channel axis is %d, weight expects %d"
                             % (xd.shape[1], c_in))
    n, _, h, w = xd.shape
    ho = conv_out_size(h, k, stride, padding, "height")
    wo = conv_out_size(w, k, stride, padding, "width")

    wd = weight.data
    if stride == 1:
        out4 = _shifted_conv(xd, wd, padding)
    else:
        w2 = wd.reshape(c_out, c_in * k * k)
        cols_of = _frame_columns(xd, k, stride, padding, ho, wo)
        out4 = np.empty((n, c_out, ho, wo))
        for i in range(n):
            np.matmul(w2, cols_of(i), out=out4[i].reshape(c_out, ho * wo))
    out = Tensor(out4[0] if squeeze else out4)

    def bw(g):
        g4 = g[None] if squeeze else g
        if stride == 1:
            gw, gx = _shifted_grads(xd, wd, g4, padding, x.requires_grad)
        else:
            gw, gx = _strided_grads(xd, wd, g4, stride, padding, x.requires_grad)
        return (gx[0] if squeeze and gx is not None else gx, gw)

    record((out,), (x, weight), bw)
    return out


def nearest_upsample(x, factor):
    """Replicate every pixel of the last two axes into an f x f block."""
    x = as_tensor(x)
    if x.data.ndim < 2:
        raise DimensionError("nearest_upsample needs rank >= 2")
    if not isinstance(factor, int) or factor < 1:
        raise ArgumentError("upsample factor must be an integer >= 1, got %r" % (factor,))
    if factor == 1:
        out = Tensor(x.data.copy())
        record((out,), (x,), lambda g: (g,))
        return out
    up = np.repeat(np.repeat(x.data, factor, axis=-2), factor, axis=-1)
    out = Tensor(up)

    def bw(g):
        # f*f strided-slice adds; a strided reduce over a 6-axis view is far slower
        gx = g[..., ::factor, ::factor].copy()
        for u in range(factor):
            for v in range(factor):
                if u or v:
                    gx += g[..., u::factor, v::factor]
        return (gx,)

    record((out,), (x,), bw)
    return out


# ---------------------------------------------------------------------------
# parameters and optimizer


class ParamStore:
    """Ordered, named collection of trainable tensors plus Adam moments."""

    def __init__(self):
        self._params = {}
        self._m = {}
        self._v = {}
        self._t = 0

    def add(self, name, tensor):
        if name in self._params:
            raise ArgumentError("duplicate parameter name %r" % name)
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __iter__(self):
        return iter(self._params.items())

    def zero_grad(self):
        # zeros rather than None so params off the loss path still satisfy
        # the populated-gradient precondition of adam_step
        for t in self._params.values():
            t.grad = np.zeros_like(t.data)

    def scale_grad(self, factor):
        for t in self._params.values():
            if t.grad is not None:
                t.grad = t.grad * factor


def adam_step(params, lr, betas=(0.9, 0.999), eps=1e-8):
    """One Adam update with bias correction over every parameter in the store."""
    if lr <= 0:
        raise ArgumentError("learning rate must be positive, got %r" % (lr,))
    b1, b2 = betas
    if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
        raise ArgumentError("betas must lie in [0, 1), got %r" % (betas,))
    for name, t in params:
        if t.grad is None:
            raise StateError("parameter %r has no gradient" % name)
    params._t += 1
    t_step = params._t
    c1 = 1.0 - b1 ** t_step
    c2 = 1.0 - b2 ** t_step
    for name, p in params:
        g = p.grad
        m = params._m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            v = params._v[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        params._m[name] = m
        params._v[name] = v
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + eps)


# ---------------------------------------------------------------------------
# tensor dump format

_TENSOR_MAGIC = b"SPKT0001"


def write_tensor(fh, array):
    """Append one tensor block: magic, u32 rank, u32 dims, f64 payload, all LE."""
    a = np.asarray(array, dtype=np.float64)
    fh.write(_TENSOR_MAGIC)
    fh.write(struct.pack("<I", a.ndim))
    for d in a.shape:
        fh.write(struct.pack("<I", d))
    fh.write(a.astype("<f8").tobytes())


def read_exact(fh, n):
    """Exactly n bytes from a seekable binary file; ArgumentError if fewer remain.

    The length is checked before reading, so a corrupt size field cannot make
    the read allocate more than the file holds.
    """
    here = fh.tell()
    left = fh.seek(0, 2) - here
    fh.seek(here)
    if n > left:
        raise ArgumentError("truncated: wanted %d bytes at offset %d, %d left"
                            % (n, here, left))
    return fh.read(n)


def read_tensor(fh):
    magic = fh.read(8)
    if magic != _TENSOR_MAGIC:
        raise ArgumentError("bad tensor magic %r" % (magic,))
    (rank,) = struct.unpack("<I", read_exact(fh, 4))
    if rank > 32:
        raise ArgumentError("tensor rank %d is above numpy's portable limit of 32" % rank)
    dims = struct.unpack("<%dI" % rank, read_exact(fh, 4 * rank))
    payload = read_exact(fh, 8 * math.prod(dims))
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)


def save_tensor(path, array):
    with open(path, "wb") as fh:
        write_tensor(fh, array)
