"""Independent oracles shared across test modules.

Everything here is written the slow obvious way on purpose: quadruple loops,
scalar stepping, explicit recounts. The package must agree with these, not
the other way around.
"""

from unittest import mock

import numpy as np

from spikedepth import events as ev
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

    Holds every gradient until the sweep ends and then writes a .grad copy
    into every tensor it reached, intermediates included. Gradients are added
    in the same order as tz.backward, so leaf results agree bit for bit.
    """
    if len(tape._ops) == 0:
        return
    grads = {id(loss): np.ones((), dtype=np.float64)}
    seen = {id(loss): loss}
    for outputs, inputs, bw in reversed(tape._ops):
        gouts = tuple(grads.get(id(o)) for o in outputs)
        if all(g is None for g in gouts):
            continue
        gouts = tuple(np.zeros(o.data.shape) if g is None else g
                      for o, g in zip(outputs, gouts))
        gins = bw(*gouts)
        for t, g in zip(inputs, gins):
            if g is None or not t.requires_grad:
                continue
            seen[id(t)] = t
            if id(t) in grads:
                grads[id(t)] = grads[id(t)] + g
            else:
                grads[id(t)] = g
        for o in outputs:
            seen[id(o)] = o
    for key, t in seen.items():
        if not t.requires_grad or key not in grads:
            continue
        g = np.asarray(grads[key], dtype=np.float64)
        t.grad = g.copy() if t.grad is None else t.grad + g


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
    once so finite differencing can perturb them in place.
    """
    leaves = [tz.Tensor(a, requires_grad=True) for a in arrays]
    for leaf, a in zip(leaves, arrays):
        leaf.data = a  # share the buffer with the perturbed array
    with tz.Tape() as tape:
        out = build(leaves)
        loss = tz.sum_all(out)
    tz.backward(loss, tape)

    def f():
        return float(tz.sum_all(build(leaves)).data)

    fd = central_diff(f, arrays, eps=eps)
    for leaf, g, a in zip(leaves, fd, arrays):
        got = leaf.grad if leaf.grad is not None else np.zeros_like(a)
        assert_grads_close(got, g, rtol=rtol, atol=atol, label=label)


def brute_if_trace(inputs, v_th, v_reset, mode="spiking"):
    """Scalar-stepped reference of the membrane recurrence.

    inputs: [T, ...] array. Returns (spikes [T, ...] or None, final membrane).
    """
    v = np.zeros_like(inputs[0])
    spikes = []
    for t in range(inputs.shape[0]):
        h = v + inputs[t]
        if mode == "integrator":
            v = h
            continue
        s = (h - v_th >= 0).astype(np.float64)
        spikes.append(s)
        v = h * (1.0 - s) + v_reset * s
    if mode == "integrator":
        return None, v
    return np.stack(spikes, axis=0), v


def if_multistep(x, params):
    """Run x[T, ...] through an IF population from a zero membrane."""
    return nr.if_run(x, params)


def _fire(charged, params):
    """One step's firing nonlinearity, taped with the triangle window as its backward."""
    if params.mode == "spiking":
        s_data = (charged.data >= params.v_threshold).astype(np.float64)
    else:
        s_data = nr._smooth_ramp(charged.data, params.v_threshold, params.surrogate_alpha)
    out = tz.Tensor(s_data)
    tri = nr._triangle(charged.data, params.v_threshold, params.surrogate_alpha)
    tz.record((out,), (charged,), lambda g: (g * tri,))
    return out


def _unstack(x):
    """The frames of x[T, ...] as tensors; one tape entry for all of them."""
    frames = tuple(tz.Tensor(x.data[i]) for i in range(x.data.shape[0]))
    tz.record(frames, (x,), lambda *gs: (np.stack(gs, axis=0),))
    return frames


def _stack(frames):
    """Equal-shape tensors stacked along a new leading axis; one tape entry."""
    out = tz.Tensor(np.stack([f.data for f in frames], axis=0))
    tz.record((out,), tuple(frames), lambda g: tuple(g[i] for i in range(len(frames))))
    return out


def if_run_stepwise(x, params):
    """Per-step taped IF population: the gradient oracle for nr.if_run.

    Same signature and results as nr.if_run, but unrolled on the tape: x is
    split into frames, every step records add, fire, sub, mul and sub
    (membrane = charged - (charged - v_reset) * spikes), and the spikes are
    stacked again, so the generic reverse sweep does the BPTT.
    """
    x = tz.as_tensor(x)
    membrane = tz.zeros(x.data.shape[1:])
    spikes = []
    for frame in _unstack(x):
        charged = tz.add(membrane, frame)
        if params.mode == "integrator":
            membrane = charged
            continue
        s = _fire(charged, params)
        spikes.append(s)
        membrane = tz.sub(charged, tz.mul(tz.sub(charged, params.v_reset), s))
    if params.mode == "integrator":
        return None, membrane
    out = _stack(spikes)
    out.is_spike = params.mode == "spiking"
    return out, membrane


def surrogate_grad(charged, params):
    """The surrogate derivative the IF backward applies at a charged membrane."""
    charged = tz.as_tensor(charged)
    return tz.Tensor(nr._triangle(charged.data, params.v_threshold, params.surrogate_alpha))


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


def mean_all(a):
    """Taped mean over every element."""
    a = tz.as_tensor(a)
    out = tz.Tensor(a.data.mean())
    shape, n = a.data.shape, a.data.size
    tz.record((out,), (a,), lambda g: (np.broadcast_to(g / n, shape),))
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

    tz.record((out,), (x,), bw)
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


def events_equal(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ev.EventArray.__slots__)


def spike_trains(model, x):
    """Run model.forward(x); returns its output and the spike trains of its
    spiking populations by block group, captured by wrapping nr.if_run."""
    trains = []
    run = nr.if_run

    def capture(inp, params):
        spikes, membrane = run(inp, params)
        if spikes is not None:  # integrator heads never fire
            trains.append(spikes)
        return spikes, membrane

    with mock.patch.object(nr, "if_run", capture):
        out = model.forward(x)
    n_enc, n_res = len(model.encoders), 2 * len(model.residuals)
    assert len(trains) == n_enc + n_res + len(model.decoders)
    return out, {"encoder": trains[:n_enc], "residual": trains[n_enc:n_enc + n_res],
                 "decoder": trains[n_enc + n_res:]}
