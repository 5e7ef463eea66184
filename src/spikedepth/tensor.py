"""Dense float64 tensors with taped reverse-mode differentiation.

The tape is an explicit operation list: ops append (output node, input keys,
backward) entries while a Tape is active, and backward() replays the list in
reverse. Every op has exactly one output. An entry holds no array of its
own. The output is named by a node, a per-tape handle; an input is named by
its node when an op on the same tape made it, and is kept as the Tensor
itself when it is a leaf. So the arrays a tape keeps are exactly those its
backward closures captured, and an intermediate that no closure reads is
freed as soon as the forward drops it. With no tape active every op runs
in plain inference mode at numpy speed.

conv2d is same-padded: it takes [T, C_in, H, W] and an odd square kernel,
zero-pads every side by k // 2, and returns [T, C_out, ceil(H/s), ceil(W/s)]
for stride s. There is no padding argument.

A conv kernel whose data spans more than one _CHUNK_FLOATS buffer (the
sensor-size convs) splits its frame chunks, row blocks or frames over a
thread pool with one thread per usable CPU, made on first use; smaller
convs run inline. Each item writes its own slice of the output and each
weight-gradient partial is added in item order, so the CPU count never
changes the bits. Importing the package pins BLAS to one thread, so that
the pool and BLAS do not compete for the same CPUs. Only those kernels run
on the pool: no op, tape entry or backward sweep does.
"""

import math
import os
import struct
import threading

import numpy as np


class InputError(ValueError):
    """Bad outside input; the CLI reports any subclass as one error line, exit 2."""


class DimensionError(InputError):
    """Shape or axis constraint violated."""


class ArgumentError(InputError):
    """Out-of-domain argument."""


class StateError(RuntimeError):
    """Object used before required state was established: a programming error."""


# ---------------------------------------------------------------------------
# tape


class Tape:
    """Ordered record of differentiable operations.

    Use as a context manager; ops executed inside the block are recorded when
    any of their inputs requires a gradient. Tapes nest, innermost active.
    """

    def __init__(self):
        self._ops = []          # (output node, input keys, backward) per op
        self._id = object()     # what this tape's nodes name as their tape

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        # check before popping, so an out-of-order exit leaves the stack as it was
        if not _ACTIVE or _ACTIVE[-1] is not self:
            raise StateError("tape exited out of order")
        _ACTIVE.pop()
        return False

    def __len__(self):
        return len(self._ops)


_ACTIVE = []


def _active_tape():
    return _ACTIVE[-1] if _ACTIVE else None


class _Node:
    """The handle by which one tape names one op output.

    tape is the owning Tape's _id rather than the Tape, so that a closure
    holding the output does not close a reference cycle through the tape.
    """

    __slots__ = ("tape",)

    def __init__(self, tape):
        self.tape = tape


class Tensor:
    """Rank-N float64 array plus gradient buffer.

    node is the tape handle of the op that made the tensor, None for a
    tensor no op made.
    """

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.node = None

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


def _key(t, tape):
    """How tape names t: its node when an op on tape made it, else t itself
    (a leaf), or None when t needs no gradient."""
    node = t.node
    if node is not None and node.tape is tape._id:
        return node
    return t if t.requires_grad else None


def record(output, inputs, backward):
    """Append one op to the active tape.

    output is the op's Tensor and inputs a tuple of Tensors; backward maps
    the output's gradient array to one gradient array (or None) per input.
    Extension point for ops defined outside this module. No-op without an
    active tape or when no input requires a gradient. The entry keeps
    backward, a new node for the output, and per input its node, the leaf
    Tensor, or None when the input needs no gradient; so it pins no output
    and no intermediate input, only what backward itself captured.
    """
    tape = _active_tape()
    if tape is None or not any(t.requires_grad for t in inputs):
        return
    keys = tuple(_key(t, tape) for t in inputs)
    output.requires_grad = True
    output.node = _Node(tape._id)
    tape._ops.append((output.node, keys, backward))


def backward(loss, tape):
    """Accumulate d(loss)/d(leaf) into .grad for every leaf of the tape.

    loss must be a scalar. A leaf is a tensor that requires a gradient and
    that no op on this tape produced: parameters, inputs, and loss itself
    when no op made it. Only leaves receive .grad; intermediates keep
    grad = None. The sweep walks the tape in reverse, keying the gradients
    still to be used by node (an op output) or by leaf Tensor, and pops an
    op's output gradient when it reaches that op: every consumer of a
    tensor comes later on the tape, so the gradient is complete by then and
    is freed once used. An op whose output received no gradient is
    skipped. What is left at the end belongs to leaves and is added into
    their .grad as an owned, writable copy, so repeated calls accumulate
    (no zeroing between calls is implied). An empty tape is a no-op. The
    tape holds only what its backward closures captured, so the sweep's
    memory is those arrays plus the gradients in flight.
    """
    if not isinstance(loss, Tensor):
        raise ArgumentError("backward needs a Tensor loss")
    if loss.data.shape != ():
        raise ArgumentError("loss must be scalar, got shape %s" % (loss.data.shape,))
    if len(tape._ops) == 0:
        return
    # node or leaf -> gradient so far; an op's output node leaves it when the op runs
    pending = {_key(loss, tape): np.ones((), dtype=np.float64)}
    for node, keys, bw in reversed(tape._ops):
        gout = pending.pop(node, None)
        if gout is None:
            continue
        gins = bw(gout)
        for k, g in zip(keys, gins):
            if g is None or k is None:
                continue
            prev = pending.get(k)
            pending[k] = g if prev is None else prev + g
    for t, g in pending.items():
        if not isinstance(t, Tensor) or not t.requires_grad:
            continue
        g = np.asarray(g, dtype=np.float64)
        t.grad = g.copy() if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    """a + b of two equal-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise DimensionError("add needs equal shapes, got %s and %s"
                             % (a.data.shape, b.data.shape))
    out = Tensor(a.data + b.data)
    record(out, (a, b), lambda g: (g, g))
    return out


# ---------------------------------------------------------------------------
# convolution


# Size of each stride-1 conv buffer: each stays under the 4 MiB from which numpy asks
# for huge pages. Forward chunks hold whole frames, so small frames share one batched
# GEMM per tap and sensor-size frames go one at a time; backward blocks hold rows of the
# tall image, several small frames or a row block of one large frame.
_CHUNK_FLOATS = (4 << 20) // 8


# one worker per CPU this process may run on; os.cpu_count() where affinity is unknown
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_POOL = None                 # the kernels' ThreadPoolExecutor, made on first use
_POOL_LOCK = threading.Lock()
_THREAD = threading.local()  # .worker is True on the pool's own threads


def _mark_worker():
    _THREAD.worker = True


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # imported here: a process whose convs all run inline never loads it
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="spikedepth-conv",
                                       initializer=_mark_worker)
        return _POOL


def _spread(work, items, floats, scratch):
    """work(item, *buffers) for every item of the range items.

    scratch() makes one worker's buffers. When floats, the size of the
    kernel's data, fits one _CHUNK_FLOATS buffer, or on a pool thread, one
    set of buffers is made and the items run inline. Otherwise
    workers = min(_WORKERS, len(items)) sets are made here on the calling
    thread, and worker j takes items j, j + workers, ... in order on its own
    set. The caller waits for every worker; the first failing worker's
    exception is raised unchanged. work must write only its own item's
    outputs.
    """
    workers = min(_WORKERS, len(items))
    if floats <= _CHUNK_FLOATS or workers == 1 or getattr(_THREAD, "worker", False):
        buffers = scratch()
        for item in items:
            work(item, *buffers)
        return
    buffers = [scratch() for _ in range(workers)]

    def run(j):
        for item in items[j::workers]:
            work(item, *buffers[j])

    pool = _pool()
    futures = [pool.submit(run, j) for j in range(workers)]
    for f in futures:
        f.exception()   # waits, so no worker still writes once the caller goes on
    for f in futures:
        f.result()


def _shifted_conv(xd, wd):
    """Same-padded stride-1 cross-correlation of xd [N, C_in, H, W] with wd [C_out, C_in, k, k].

    A chunk of frames at a time is zero-padded by p = k // 2 into one
    buffer, each frame laid out row by row at width Wp = W + 2p and followed
    by k - 1 zeros, so that the slice [u*Wp + v : u*Wp + v + H*Wp] of a row
    exists for every tap (u, v). Tap (u, v) is one GEMM W[:, :, u, v] @ that
    slice, added into a [C_out, H*Wp] accumulator whose last k - 1 columns
    of each row are cropped at the end. A chunk holds as many frames as keep
    max(C_in, C_out) padded frames each under _CHUNK_FLOATS, at least one.
    Several chunks are spread over the pool (see _spread).
    """
    n, c_in, h, w = xd.shape
    c_out, _, k, _ = wd.shape
    out = np.empty((n, c_out, h, w))
    p = k // 2
    hp, wp = h + 2 * p, w + 2 * p
    span = h * wp
    taps = np.ascontiguousarray(wd.transpose(2, 3, 0, 1))
    frame = max(c_in, c_out) * hp * wp
    step = min(n, max(1, _CHUNK_FLOATS // frame))

    def scratch():
        xp = np.zeros((step, c_in, hp * wp + k - 1))
        inner = xp[:, :, :hp * wp].reshape(step, c_in, hp, wp)[:, :, p:p + h, p:p + w]
        acc = np.empty((step, c_out, span))
        return xp, inner, acc, np.empty_like(acc)

    def chunk(lo, xp, inner, acc, part):
        m = min(step, n - lo)
        inner[:m] = xd[lo:lo + m]
        for u in range(k):
            for v in range(k):
                shifted = xp[:m, :, u * wp + v:u * wp + v + span]
                if u == v == 0:
                    np.matmul(taps[0, 0], shifted, out=acc[:m])
                else:
                    np.matmul(taps[u, v], shifted, out=part[:m])
                    acc[:m] += part[:m]
        out[lo:lo + m] = acc[:m].reshape(m, c_out, h, wp)[..., :w]

    _spread(chunk, range(0, n, step), n * frame, scratch)
    return out


def _shifted_grads(xd, wd, g, need_gx):
    """(d loss / d W, d loss / d x or None) of a stride-1 conv, from one column buffer of g.

    With same padding p = k // 2, gx is the correlation of g, zero-padded by
    p, with the flipped kernel, and gW[:, :, u, v] sums g times x shifted by
    (u, v): both read the same k*k shifted views of the padded g (im2col
    applied to g, not x; Chellapilla et al., 2006). The frames are stacked as
    one tall image of row width W + k - 1: frame i's x rows start at row
    i*(H + p), the p rows after them are a gap, and its g rows start p rows
    lower. Each block of rows copies the shifted views into one buffer
    cols [k*k*C_out, L], row (u, v, o) holding g channel o shifted by (u, v).
    Then one GEMM W_flip [C_in, k*k*C_out] @ cols gives gx, whose first W
    columns per row are copied into the frames, and one GEMM cols @ x_wide^T
    adds into the flipped gW; x_wide is x at the same row width, zero past
    column W and in the gaps. A block holds several frames when they fit
    under _CHUNK_FLOATS and part of a frame when one does not. Several
    blocks are spread over the pool (see _spread); each block's gW term is
    kept and the terms are added in block order.
    """
    n, c_in, h, w = xd.shape
    c_out, _, k, _ = wd.shape
    p = k // 2
    wq = w + k - 1
    period = h + p                # tall-image rows per frame: its x rows, then a gap
    rows = (n - 1) * period + h   # tall-image rows that hold some frame's x
    row = max(k * k * c_out, c_in) * wq
    block = max(1, min(rows, _CHUNK_FLOATS // row))
    w_flip = np.ascontiguousarray(wd[:, :, ::-1, ::-1].transpose(1, 2, 3, 0)).reshape(
        c_in, k * k * c_out)
    gw_parts = np.empty((-(-rows // block), k * k * c_out, c_in))
    gx = np.empty(xd.shape) if need_gx else None

    def scratch():
        return (np.empty(c_out * ((block + k - 1) * wq + k - 1)),
                np.empty(k * k * c_out * block * wq), np.empty(c_in * block * wq),
                np.empty(c_in * block * wq) if need_gx else None)

    def row_block(j, gp_buf, cols_buf, xw_buf, gx_buf):
        r0 = j * block
        nb = min(block, rows - r0)
        span = nb * wq
        gp = gp_buf[:c_out * ((nb + k - 1) * wq + k - 1)].reshape(c_out, -1)
        gp[:] = 0.0
        gp_rows = gp[:, :(nb + k - 1) * wq].reshape(c_out, nb + k - 1, wq)
        xw = xw_buf[:c_in * span].reshape(c_in, nb, wq)
        xw[:] = 0.0
        x_rows = []   # (frame, block rows, frame rows) of the x rows in the block
        # frame i's x rows are tall rows i*period + [0, h), its g rows i*period + p + [0, h);
        # the next frame's first g rows, which the last taps reach, meet only gap rows
        for i in range(r0 // period, min(n, (r0 + nb - 1) // period + 1)):
            top = i * period + p
            lo, hi = max(r0, top), min(r0 + nb + k - 1, top + h)
            gp_rows[:, lo - r0:hi - r0, p:p + w] = g[i, :, lo - top:hi - top]
            top = i * period
            lo, hi = max(r0, top), min(r0 + nb, top + h)
            if lo < hi:
                x_rows.append((i, slice(lo - r0, hi - r0), slice(lo - top, hi - top)))
        for i, rb, rf in x_rows:
            xw[:, rb, :w] = xd[i, :, rf]
        cols = cols_buf[:k * k * c_out * span].reshape(k, k, c_out, span)
        for u in range(k):
            for v in range(k):
                cols[u, v] = gp[:, u * wq + v:u * wq + v + span]
        cols = cols.reshape(k * k * c_out, span)
        np.matmul(cols, xw.reshape(c_in, span).T, out=gw_parts[j])
        if need_gx:
            gxw = np.matmul(w_flip, cols, out=gx_buf[:c_in * span].reshape(c_in, span))
            gxw = gxw.reshape(c_in, nb, wq)
            for i, rb, rf in x_rows:
                gx[i, :, rf] = gxw[:, rb, :w]

    _spread(row_block, range(len(gw_parts)), rows * row, scratch)
    gw = np.zeros((k * k * c_out, c_in))
    for part in gw_parts:
        gw += part
    return gw.reshape(k, k, c_out, c_in)[::-1, ::-1].transpose(2, 3, 0, 1), gx


def _frame_columns(xd, k, stride, ho, wo):
    """im2col over the frames of xd [N, C_in, H, W], one frame at a time.

    Returns cols(i) -> [C_in*k*k, Ho*Wo]: row (c, u, v), column (r, s) holds
    input pixel (c, r*stride + u - p, s*stride + v - p) with p = k // 2, zero
    in the padding. Each call refills the same buffer, so only one frame's
    columns exist per _frame_columns call: a pool worker gets its own.
    """
    c_in, h, w = xd.shape[1:]
    p = k // 2
    xp = np.zeros((c_in, h + 2 * p, w + 2 * p))
    cols = np.empty((c_in, k, k, ho, wo))

    def cols_of(i):
        xp[:, p:p + h, p:p + w] = xd[i]
        for u in range(k):
            for v in range(k):
                cols[:, u, v] = xp[:, u:u + ho * stride:stride, v:v + wo * stride:stride]
        return cols.reshape(c_in * k * k, ho * wo)

    return cols_of


def _strided_grads(xd, wd, g, stride, need_gx):
    """(d loss / d W, d loss / d x or None) of a same-padded stride > 1 conv through im2col.

    Each frame's columns are rebuilt rather than kept on the tape; g_i @ cols^T
    is frame i's weight-gradient term, and the terms are added in frame
    order. Then W^T @ g_i overwrites the same column buffer and is scattered
    back onto the padded input gradient with k*k strided adds (col2im). The
    frame loop is spread over the pool when the frames' columns span more
    than one _CHUNK_FLOATS buffer.
    """
    n, c_in, h, w = xd.shape
    c_out, _, k, _ = wd.shape
    p = k // 2
    ho, wo = g.shape[2:]
    w2 = wd.reshape(c_out, c_in * k * k)
    g3 = g.reshape(n, c_out, ho * wo)
    gw_parts = np.empty((n, c_out, c_in * k * k))
    gxp = np.zeros((n, c_in, h + 2 * p, w + 2 * p)) if need_gx else None

    def work(i, cols_of):
        cols = cols_of(i)
        np.matmul(g3[i], cols.T, out=gw_parts[i])
        if need_gx:
            gcols = np.matmul(w2.T, g3[i], out=cols).reshape(c_in, k, k, ho, wo)
            for u in range(k):
                for v in range(k):
                    gxp[i, :, u:u + ho * stride:stride, v:v + wo * stride:stride] += gcols[:, u, v]

    _spread(work, range(n), n * c_in * k * k * ho * wo,
            lambda: (_frame_columns(xd, k, stride, ho, wo),))
    gw = np.zeros((c_out, c_in * k * k))
    for part in gw_parts:
        gw += part
    gx = gxp[:, :, p:p + h, p:p + w] if need_gx else None
    return gw.reshape(wd.shape), gx


def conv2d(x, weight, stride=1):
    """Same-padded 2D cross-correlation: [T, C_in, H, W] -> [T, C_out, ceil(H/s), ceil(W/s)].

    weight is [C_out, C_in, k, k] with k odd, bias-free. Every side of a
    frame is zero-padded by k // 2, so output pixel (r, c) is centred on
    input pixel (r*s, c*s) for stride s, and any H, W >= 1 fits any kernel.
    The time axis is handled as a batch.

    The stride-1 forward builds no column buffer (the kn2row / shifted-GEMM
    family): the frames are zero-padded into flat rows, and each of the k*k
    taps is one GEMM on a shifted view of them (see _shifted_conv). The
    backward keeps nothing padded on the tape: it copies the k*k shifted
    views of the zero-padded output gradient into one column buffer and runs
    two GEMMs on it, one for the input gradient and one for the weight
    gradient (see _shifted_grads). The forward goes in chunks of frames and
    the backward in row blocks, each buffer under 4 MiB. A 1x1 kernel takes
    the same path with one tap.

    Stride > 1 is one GEMM per frame: its columns [C_in*k*k, Ho*Wo] (k*k
    strided slices of the zero-padded frame, see _frame_columns) times the
    weight viewed as [C_out, C_in*k*k]; the backward is _strided_grads.
    The input gradient is None when x does not require one.

    When a kernel's data spans more than one _CHUNK_FLOATS buffer, as at
    the 260x346 sensor size, its chunks, row blocks or frames run on a pool
    with one thread per usable CPU, each worker with its own buffers; at
    64x64 every conv runs inline. Each output value keeps the expression
    it has inline, so the CPU count never changes the bits. conv2d and its
    backward closure run on the calling thread; only the kernels' items go
    to the pool.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    xd, wd = x.data, weight.data
    if xd.ndim != 4:
        raise DimensionError("conv2d input must be [T, C_in, H, W], got %s" % (xd.shape,))
    if wd.ndim != 4 or wd.shape[2] != wd.shape[3]:
        raise DimensionError("conv2d weight must be [C_out, C_in, k, k], got %s"
                             % (wd.shape,))
    c_out, c_in, k, _ = wd.shape
    if k % 2 != 1:
        raise ArgumentError("kernel size must be odd, got %d" % k)
    if stride < 1:
        raise ArgumentError("stride must be >= 1, got %d" % stride)
    if xd.shape[1] != c_in:
        raise DimensionError("conv2d channel axis is %d, weight expects %d"
                             % (xd.shape[1], c_in))

    if stride == 1:
        out = Tensor(_shifted_conv(xd, wd))
    else:
        n, _, h, w = xd.shape
        ho, wo = -(-h // stride), -(-w // stride)
        w2 = wd.reshape(c_out, c_in * k * k)
        out = Tensor(np.empty((n, c_out, ho, wo)))

        def frame(i, cols_of):
            np.matmul(w2, cols_of(i), out=out.data[i].reshape(c_out, ho * wo))

        _spread(frame, range(n), n * c_in * k * k * ho * wo,
                lambda: (_frame_columns(xd, k, stride, ho, wo),))

    def bw(g):
        if stride == 1:
            gw, gx = _shifted_grads(xd, wd, g, x.requires_grad)
        else:
            gw, gx = _strided_grads(xd, wd, g, stride, x.requires_grad)
        return gx, gw

    record(out, (x, weight), bw)
    return out


def _upsample(a, factor):
    """a with every pixel of the last two axes replicated into an f x f block."""
    if a.ndim < 2:
        raise DimensionError("nearest upsample needs rank >= 2")
    if not isinstance(factor, int) or factor < 1:
        raise ArgumentError("upsample factor must be an integer >= 1, got %r" % (factor,))
    return np.repeat(np.repeat(a, factor, axis=-2), factor, axis=-1)


def _block_sum(g, factor):
    """The sum of each f x f block of the last two axes: the upsample's backward."""
    # f*f strided-slice adds; a strided reduce over a 6-axis view is far slower
    gx = g[..., ::factor, ::factor].copy()
    for u in range(factor):
        for v in range(factor):
            if u or v:
                gx += g[..., u::factor, v::factor]
    return gx


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

    def group(self, prefix):
        """{rest: tensor} for every parameter named prefix + rest."""
        return {name[len(prefix):]: t for name, t in self._params.items()
                if name.startswith(prefix)}

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
    if math.prod(d for d in dims if d) > np.iinfo(np.intp).max // 8:
        raise ArgumentError("tensor dims %s exceed numpy's largest array" % (dims,))
    payload = read_exact(fh, 8 * math.prod(dims))
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)


def save_tensor(path, array):
    with open(path, "wb") as fh:
        write_tensor(fh, array)
