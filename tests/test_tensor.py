import gc
import io
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedepth import model as md
from spikedepth import neurons as nr
from spikedepth import tensor as tz
from helpers import (naive_conv2d, naive_conv2d_grads, central_diff, assert_grads_close,
                     check_op_gradient, reference_backward, avg_downsample, mean_all,
                     load_tensor, total_params, param_names, pool, linear, relu, sigmoid,
                     sub, mul, absolute, sum_all, concat, if_run_stepwise, nearest_upsample,
                     conv_workers, spread_calls)


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


# ---------------------------------------------------------------------------
# convolution


def test_conv_box_filter_center_and_corner():
    x = np.ones((1, 1, 5, 5))
    w = np.ones((1, 1, 3, 3))
    out = tz.conv2d(tz.Tensor(x), tz.Tensor(w), stride=1)
    assert out.data.shape == (1, 1, 5, 5)
    assert out.data[0, 0, 2, 2] == 9.0
    assert out.data[0, 0, 0, 0] == 4.0
    assert out.data[0, 0, 0, 2] == 6.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_conv_1x1_is_channel_mix(seed):
    # small integers, so that every partial sum is exact in either summation order
    rng = np.random.default_rng(seed)
    x = rng.integers(-8, 9, (1, 3, 4, 4)).astype(np.float64)
    w = rng.integers(-8, 9, (2, 3, 1, 1)).astype(np.float64)
    out = tz.conv2d(tz.Tensor(x), tz.Tensor(w))
    want = np.einsum("oc,tchw->tohw", w[:, :, 0, 0], x)
    np.testing.assert_array_equal(out.data, want)


def same_size(n, stride):
    """Output size of a same-padded conv: ceil(n / stride)."""
    return -(-n // stride)


@pytest.mark.parametrize("seed", range(6))
def test_conv_matches_naive_loops(seed):
    rng = np.random.default_rng(seed)
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 5))
    k = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    h = int(rng.integers(1, k + 6))
    w = int(rng.integers(1, k + 6))
    x = rng.standard_normal((2, c_in, h, w))
    wt = rng.standard_normal((c_out, c_in, k, k))
    out = tz.conv2d(tz.Tensor(x), tz.Tensor(wt), stride=stride)
    assert out.data.shape == (2, c_out, same_size(h, stride), same_size(w, stride))
    want = np.stack([naive_conv2d(f, wt, stride=stride, padding=k // 2) for f in x])
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)


def check_conv_grads(x, wt, stride, x_needs_grad=True, seed=0):
    """conv2d output and gradients against naive_conv2d_grads with padding k // 2,
    per frame; returns the tape's backward closure."""
    k = wt.shape[2]
    ho, wo = same_size(x.shape[2], stride), same_size(x.shape[3], stride)
    g = np.random.default_rng(seed).standard_normal((x.shape[0], wt.shape[0], ho, wo))
    xt = tz.Tensor(x, requires_grad=x_needs_grad)
    wtt = tz.Tensor(wt, requires_grad=True)
    with tz.Tape() as tape:
        out = tz.conv2d(xt, wtt, stride=stride)
    _, _, conv_backward = tape._ops[0]
    gx, gw = conv_backward(g)
    want = [naive_conv2d_grads(f, wt, gf, stride, k // 2) for f, gf in zip(x, g)]
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.data, np.stack([o for o, _, _ in want]), **close)
    np.testing.assert_allclose(gw, sum(w for _, _, w in want), **close)
    if x_needs_grad:
        np.testing.assert_allclose(gx, np.stack([d for _, d, _ in want]), **close)
    else:
        assert gx is None
    return conv_backward


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv_same_padding_for_each_kernel_and_stride(k, stride):
    # odd H and W, so stride 2 gives ceil-sized outputs; frames smaller than the
    # kernel fit as well
    for shape, seed in (((3, 2, 7, 5), 40), ((2, 2, 1, 2), 41)):
        x = rand(shape, seed=seed)
        wt = rand((3, 2, k, k), seed=seed + 10)
        check_conv_grads(x, wt, stride, seed=seed + 20)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 3), c_in=st.integers(1, 4), c_out=st.integers(1, 4),
       k=st.sampled_from([1, 3, 5]), stride=st.integers(1, 3),
       dh=st.integers(0, 6), dw=st.integers(0, 6), x_needs_grad=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conv_forward_and_backward_match_scalar_loops(t, c_in, c_out, k, stride,
                                                      dh, dw, x_needs_grad, seed):
    """Through the tape; an input that needs no gradient gets none."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t, c_in, 1 + dh, 1 + dw))
    wt = rng.standard_normal((c_out, c_in, k, k))
    xt = tz.Tensor(x, requires_grad=x_needs_grad)
    wtt = tz.Tensor(wt, requires_grad=True)
    with tz.Tape() as tape:
        out = tz.conv2d(xt, wtt, stride=stride)
        g = rng.standard_normal(out.data.shape)
        loss = sum_all(mul(out, tz.Tensor(g)))
    tz.backward(loss, tape)

    want = [naive_conv2d_grads(f, wt, gf, stride, k // 2) for f, gf in zip(x, g)]
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.data, np.stack([o for o, _, _ in want]), **close)
    np.testing.assert_allclose(wtt.grad, sum(gw for _, _, gw in want), **close)
    if x_needs_grad:
        np.testing.assert_allclose(xt.grad, np.stack([gx for _, gx, _ in want]), **close)
    else:
        assert xt.grad is None
        _, _, conv_backward = tape._ops[0]
        assert conv_backward(g)[0] is None


def stride1_rows(n, h, k):
    """(rows per frame, rows) of the tall image that the stride-1 kernels cut n frames into."""
    period = h + k // 2
    return period, (n - 1) * period + h


def stride1_row_floats(c_in, c_out, k, w):
    """Floats per tall-image row in the largest buffer of _shifted_conv and of _shifted_grads."""
    return max(c_in, c_out) * (w + k - 1), max(k * k * c_out, c_in) * (w + k - 1)


# padding is the oracle's: k // 2, the same padding conv2d applies
@pytest.mark.parametrize("c_in,c_out,k,padding",
                         [(3, 2, 3, 1), (2, 3, 1, 0), (2, 1, 3, 1), (1, 2, 3, 1),
                          (2, 2, 1, 0), (3, 2, 5, 2), (2, 3, 5, 2)])
def test_conv_stride1_chunks_with_partial_last_chunk(monkeypatch, c_in, c_out, k, padding):
    # 5 frames in a buffer of two frames' tall-image rows, sized by the forward's row
    # unit and then by the backward's: that kernel cuts blocks of 2, 2 and 1 frames
    # (the last without its gap) through the same buffers
    assert padding == k // 2
    h, w = 6, 7
    x = rand((5, c_in, h, w), seed=21)
    wt = rand((c_out, c_in, k, k), seed=22)
    period, rows = stride1_rows(5, h, k)
    calls = spread_calls(monkeypatch)
    for kernel, unit in enumerate(stride1_row_floats(c_in, c_out, k, w)):
        monkeypatch.setattr(tz, "_CHUNK_FLOATS", 2 * period * unit)
        check_conv_grads(x, wt, 1, seed=23)
        assert calls[kernel][:3] == (rows, unit, (2 * period, 2 * period, h))
        calls.clear()


@pytest.mark.parametrize("c_in,c_out,k,padding",
                         [(2, 1, 3, 1), (3, 2, 3, 1), (1, 2, 3, 1), (2, 3, 5, 2),
                          (2, 2, 5, 2), (1, 2, 5, 2)])
def test_conv_stride1_splits_frames_into_row_blocks(monkeypatch, c_in, c_out, k, padding):
    # 3 frames of 7 rows in blocks of 4 rows, sized by the forward's row unit and then
    # by the backward's: that kernel's blocks cut frames, and its last is partial.
    # Both kernels cut the one tall image's rows
    assert padding == k // 2
    h, w, block = 7, 6, 4
    x = rand((3, c_in, h, w), seed=32)
    wt = rand((c_out, c_in, k, k), seed=33)
    _, rows = stride1_rows(3, h, k)
    assert rows % block
    units = stride1_row_floats(c_in, c_out, k, w)
    calls = spread_calls(monkeypatch)
    for kernel, unit in enumerate(units):
        monkeypatch.setattr(tz, "_CHUNK_FLOATS", block * unit)
        check_conv_grads(x, wt, 1, seed=34)
        check_conv_grads(x, wt, 1, x_needs_grad=False, seed=35)
        assert [(n, u) for n, u, _, _ in calls] == [(rows, units[0]), (rows, units[1])] * 2
        assert calls[kernel][2] == (block,) * (rows // block) + (rows % block,)
        calls.clear()


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("x_needs_grad", [True, False])
def test_conv_bits_do_not_depend_on_the_worker_count(monkeypatch, stride, x_needs_grad):
    # 7 frames in a buffer of 1,144 floats: every kernel spreads 3 or more blocks
    # over the pool (stride-1 blocks of 22 tall-image rows forward and 2 backward,
    # one stride-2 frame per block)
    x, wt = rand((7, 3, 9, 11), seed=50), rand((4, 3, 3, 3), seed=51)
    g = rand((7, 4, same_size(9, stride), same_size(11, stride)), seed=52)
    monkeypatch.setattr(tz, "_CHUNK_FLOATS", 2 * 4 * 11 * 13)
    calls = spread_calls(monkeypatch)
    results = []
    for workers in (1, 2, 3):
        with conv_workers(monkeypatch, workers):
            xt = tz.Tensor(x, requires_grad=x_needs_grad)
            with tz.Tape() as tape:
                out = tz.conv2d(xt, tz.Tensor(wt, requires_grad=True), stride=stride)
            _, _, conv_backward = tape._ops[0]
            gx, gw = conv_backward(g)
            assert (tz._POOL is not None) == (workers > 1)
            # one forward and one backward kernel, each on 3 or more blocks
            assert len(calls) == 2 and all(len(blocks) >= 3 and pooled == (workers > 1)
                                           for _, _, blocks, pooled in calls)
            calls.clear()
        results.append((out.data, gw, gx))
    for out, gw, gx in results[1:]:
        assert np.array_equal(out, results[0][0]) and np.array_equal(gw, results[0][1])
        assert gx is None if not x_needs_grad else np.array_equal(gx, results[0][2])


def test_conv_worker_error_reaches_the_caller(monkeypatch):
    # the error raised by one frame on a pool thread is the caller's, unchanged, in
    # the stride-2 forward and backward alike, and the next call still works and
    # gives the inline bits
    x = tz.Tensor(rand((6, 2, 9, 11), seed=53), requires_grad=True)
    wt = tz.Tensor(rand((3, 2, 3, 3), seed=54), requires_grad=True)
    g = rand((6, 3, 5, 6), seed=55)
    monkeypatch.setattr(tz, "_CHUNK_FLOATS", 2 * 2 * 9 * 5 * 6)

    def taped():
        with tz.Tape() as tape:
            out = tz.conv2d(x, wt, stride=2)
        _, _, conv_backward = tape._ops[0]
        return out.data, conv_backward

    with conv_workers(monkeypatch, 1):
        want, conv_backward = taped()
        want_gx, want_gw = conv_backward(g)
    frame_columns, err, threads = tz._frame_columns, MemoryError("frame 4"), set()

    def failing(*args):
        cols_of = frame_columns(*args)

        def cols(i):
            threads.add(threading.current_thread().name)
            if i == 4:
                raise err
            return cols_of(i)
        return cols

    with conv_workers(monkeypatch, 3):
        out, conv_backward = taped()
        assert np.array_equal(out, want)
        for call in (lambda: tz.conv2d(x, wt, stride=2), lambda: conv_backward(g)):
            threads.clear()
            monkeypatch.setattr(tz, "_frame_columns", failing)
            with pytest.raises(MemoryError) as info:
                call()
            assert info.value is err
            assert threads and all(t.startswith("spikedepth-conv") for t in threads)
            monkeypatch.setattr(tz, "_frame_columns", frame_columns)
        assert np.array_equal(tz.conv2d(x, wt, stride=2).data, want)
        gx, gw = conv_backward(g)
        assert np.array_equal(gx, want_gx) and np.array_equal(gw, want_gw)


@pytest.mark.parametrize("n,unit,chunk,lengths",
                         [(7, 3, 6, (2, 2, 2, 1)),   # a partial last block
                          (6, 2, 6, (3, 3)),
                          (5, 10, 4, (1,) * 5),      # a unit over the buffer: one per block
                          (4, 1, 100, (4,)),         # all in one buffer: one block, inline
                          (40, 1, 1, (1,) * 40),     # many blocks on every worker
                          (0, 5, 10, ()),            # an empty IF population: no work
                          (3, 0, 8, (3,))])          # units of no floats
def test_spread_cuts_range_n_into_consecutive_blocks(monkeypatch, n, unit, chunk, lengths):
    # the blocks cover range(n) in order, each of at most max(1, chunk // unit)
    # units, every worker's scratch is sized for one block, and the results come
    # back in block order; the pool is made only for two blocks or more. A short
    # switch interval interleaves the workers' writes to the result list
    monkeypatch.setattr(tz, "_CHUNK_FLOATS", chunk)
    for workers in (1, 2, 3):
        sizes, switch = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with conv_workers(monkeypatch, workers):
                got = tz._spread(lambda block, size: (block, size), n, unit,
                                 lambda size: sizes.append(size) or (size,))
                pooled = workers > 1 and len(lengths) >= 2
                assert (tz._POOL is not None) == pooled
        finally:
            sys.setswitchinterval(switch)
        blocks = [block for block, _ in got]
        assert tuple(b.stop - b.start for b in blocks) == lengths
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert all(length <= max(1, chunk // max(1, unit)) for length in lengths)
        if lengths:
            assert sizes == [lengths[0]] * (min(workers, len(lengths)) if pooled else 1)
            assert all(size == lengths[0] for _, size in got)


def test_spread_runs_a_nested_call_inline(monkeypatch):
    # a pool thread never submits to the pool: a nested call runs on that thread
    # (the third worker is idle, so a nested submit would finish there, not hang)
    seen = []

    def outer(block, _):
        name = threading.current_thread().name
        tz._spread(lambda inner, _: seen.append((name, threading.current_thread().name)),
                   3, tz._CHUNK_FLOATS, lambda size: (None,))

    with conv_workers(monkeypatch, 3):
        tz._spread(outer, 2, tz._CHUNK_FLOATS, lambda size: (None,))
    assert len(seen) == 6
    assert all(name.startswith("spikedepth-conv") and name == inner for name, inner in seen)


def test_desk_size_step_runs_every_conv_inline(monkeypatch):
    # every conv, attention site and IF population of a default 64x64 training
    # step fits one _CHUNK_FLOATS buffer, so none reaches the pool: the 64x64
    # step runs the inline code on the calling thread at any CPU count. The
    # benchmark's train64 and stream64 workloads run at this size, so a change
    # to the pooled sensor-size path leaves their timings alone
    def no_pool():
        raise AssertionError("a 64x64 kernel reached the pool")

    monkeypatch.setattr(tz, "_pool", no_pool)
    monkeypatch.setattr(tz, "_WORKERS", 2)
    cfg = md.ModelConfig()
    net = md.DepthNet(cfg, seed=0)
    x = rand((cfg.time_steps, cfg.in_channels, 64, 64), seed=55, lo=0.0, hi=2.0)
    with tz.Tape() as tape:
        depth, _, _ = net.forward(tz.Tensor(x))
        loss = sum_all(depth)
    tz.backward(loss, tape)


@pytest.mark.parametrize("channels", [1, 2, 4])
def test_conv_1x1_matches_loops(channels):
    # one channel in makes each tap a K = 1 GEMM, one channel out an M = 1 GEMM
    check_conv_grads(rand((3, channels, 5, 6), seed=24), rand((channels, channels, 1, 1),
                                                              seed=25), 1, seed=26)


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1), (5, 2)])
def test_conv_stride1_input_without_grad_gets_none(k, padding):
    assert padding == k // 2
    check_conv_grads(rand((2, 3, 5, 5), seed=27), rand((2, 3, k, k), seed=28), 1,
                     x_needs_grad=False, seed=29)


@pytest.mark.parametrize("stride,k", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_conv_backward_is_named_and_keeps_no_padded_copy(stride, k):
    """The tracer files the closure by its qualname; its arrays are at most x's size."""
    x = tz.Tensor(rand((5, 2, 9, 11), seed=30), requires_grad=True)
    w = tz.Tensor(rand((3, 2, k, k), seed=31), requires_grad=True)
    with tz.Tape() as tape:
        tz.conv2d(x, w, stride=stride)
    _, _, conv_backward = tape._ops[0]
    assert conv_backward.__qualname__ == "conv2d.<locals>.bw"
    held = [c.cell_contents for c in conv_backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    arrays += [t.data for t in held if isinstance(t, tz.Tensor)]
    assert arrays and max(a.nbytes for a in arrays) <= x.data.nbytes


@pytest.mark.parametrize("mode", ["spiking", "smooth"])
def test_tape_frees_the_arrays_no_backward_reads(mode):
    """The conv output feeds only if_run, which keeps its own membranes, and
    the spikes feed only a sum: once the forward drops them both arrays are
    freed, and the gradients are those of the per-step oracle population."""
    cfg = md.ModelConfig(neuron_mode=mode, surrogate_alpha=0.7)

    def run(population):
        x = tz.Tensor(rand((3, 2, 6, 7), seed=40, lo=0.0, hi=1.5), requires_grad=True)
        w = tz.Tensor(rand((4, 2, 3, 3), seed=41), requires_grad=True)
        with tz.Tape() as tape:
            y = tz.conv2d(x, w)
            s = population(y, cfg)
            loss = sum_all(s)
        refs = weakref.ref(y.data), weakref.ref(s.data)
        del y, s
        gc.collect()
        tz.backward(loss, tape)
        return refs, x.grad, w.grad

    refs, gx, gw = run(nr.if_run)
    assert all(r() is None for r in refs)
    _, want_gx, want_gw = run(if_run_stepwise)
    np.testing.assert_array_equal(gx, want_gx)
    np.testing.assert_array_equal(gw, want_gw)


def test_conv_time_axis_is_batch():
    x = rand((4, 2, 6, 6), seed=3)
    w = rand((3, 2, 3, 3), seed=4)
    out = tz.conv2d(tz.Tensor(x), tz.Tensor(w), stride=2)
    assert out.data.shape == (4, 3, 3, 3)
    for t in range(4):
        np.testing.assert_allclose(out.data[t], naive_conv2d(x[t], w, 2, 1),
                                   rtol=1e-12, atol=1e-12)


def test_conv_shape_errors():
    x = tz.Tensor(np.zeros((1, 3, 8, 8)))
    w = tz.Tensor(np.zeros((4, 2, 3, 3)))
    with pytest.raises(tz.DimensionError, match="channel"):
        tz.conv2d(x, w)
    with pytest.raises(tz.DimensionError, match="weight"):
        tz.conv2d(tz.Tensor(np.zeros((1, 2, 8, 8))), tz.Tensor(np.zeros((4, 2, 3, 1))))
    with pytest.raises(tz.ArgumentError):
        tz.conv2d(tz.Tensor(np.zeros((1, 2, 8, 8))), tz.Tensor(np.zeros((4, 2, 3, 3))),
                  stride=0)


def test_conv_rejects_rank3_input():
    with pytest.raises(tz.DimensionError, match=r"\[T, C_in, H, W\]"):
        tz.conv2d(tz.Tensor(np.zeros((2, 8, 8))), tz.Tensor(np.zeros((4, 2, 3, 3))))


def test_conv_rejects_even_kernel():
    with pytest.raises(tz.ArgumentError, match="odd"):
        tz.conv2d(tz.Tensor(np.zeros((1, 2, 8, 8))), tz.Tensor(np.zeros((4, 2, 2, 2))))


def test_conv_gradients_match_fd():
    x = rand((1, 2, 6, 6), seed=5)
    w = rand((3, 2, 3, 3), seed=6)
    check_op_gradient(lambda ts: tz.conv2d(ts[0], ts[1], stride=2),
                      [x, w], label="conv stride2")
    x2 = rand((2, 2, 5, 5), seed=7)
    w2 = rand((2, 2, 3, 3), seed=8)
    check_op_gradient(lambda ts: tz.conv2d(ts[0], ts[1], stride=1),
                      [x2, w2], label="conv rank4")


# ---------------------------------------------------------------------------
# upsample / downsample


def test_upsample_values_and_shape():
    x = tz.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    out = nearest_upsample(x, 2)
    assert out.data.shape == (1, 4, 4)
    np.testing.assert_array_equal(out.data[0, :2, :2], [[1, 1], [1, 1]])
    assert out.data[0, 0, 3] == 2.0
    assert out.data[0, 3, 0] == 3.0
    assert out.data[0, 3, 3] == 4.0


def test_upsample_factor_one_identity():
    x = rand((2, 3, 3), seed=9)
    out = nearest_upsample(tz.Tensor(x), 1)
    np.testing.assert_array_equal(out.data, x)
    with pytest.raises(tz.ArgumentError):
        nearest_upsample(tz.Tensor(x), 0)


def test_upsample_gradient_sums_blocks():
    x = np.ones((1, 2, 2))
    xt = tz.Tensor(x, requires_grad=True)
    with tz.Tape() as tape:
        loss = sum_all(nearest_upsample(xt, 3))
    tz.backward(loss, tape)
    np.testing.assert_array_equal(xt.grad, np.full((1, 2, 2), 9.0))


def test_upsample_then_avg_downsample_is_identity():
    for seed in range(5):
        x = rand((3, 4, 6), seed=seed)
        up = nearest_upsample(tz.Tensor(x), 2)
        back = avg_downsample(up, 2)
        np.testing.assert_allclose(back.data, x, rtol=0, atol=1e-15)


def test_updown_gradients_match_fd():
    for factor in (2, 3, 4):
        for lead in ((2,), (2, 3)):  # rank 3 and rank 4
            label = "f%d rank %d" % (factor, len(lead) + 2)
            x = rand(lead + (3, 2), seed=10)
            check_op_gradient(lambda ts: nearest_upsample(ts[0], factor), [x],
                              label="upsample " + label)
            # a non-uniform weight, so each block's taps carry different gradients
            wu = rand(lead + (3 * factor, 2 * factor), seed=12)
            check_op_gradient(lambda ts: mul(nearest_upsample(ts[0], factor), ts[1]),
                              [x, wu], label="weighted upsample " + label)
            xd = rand(lead + (2 * factor, 3 * factor), seed=11)
            check_op_gradient(lambda ts: avg_downsample(ts[0], factor), [xd],
                              label="downsample " + label)


# ---------------------------------------------------------------------------
# pooling


def test_pool_avg_and_max_values():
    x = tz.Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    avg = pool(x, axes=(1, 2), mode="avg")
    mx = pool(x, axes=(1, 2), mode="max")
    np.testing.assert_allclose(avg.data, [x.data[0].mean(), x.data[1].mean()])
    np.testing.assert_allclose(mx.data, [11.0, 23.0])


def test_pool_max_tie_routes_to_first():
    x = tz.Tensor(np.array([[5.0, 5.0]]), requires_grad=True)
    with tz.Tape() as tape:
        loss = sum_all(pool(x, axes=(0, 1), mode="max"))
    tz.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])


def test_pool_axis_validation():
    x = tz.Tensor(np.zeros((2, 3)))
    with pytest.raises(tz.ArgumentError):
        pool(x, axes=(2,), mode="avg")
    with pytest.raises(tz.ArgumentError):
        pool(x, axes=(0, 0), mode="avg")
    with pytest.raises(tz.ArgumentError):
        pool(x, axes=(0,), mode="median")


def test_pool_gradients_match_fd():
    x = rand((3, 4, 5), seed=11)
    check_op_gradient(lambda ts: pool(ts[0], axes=(1, 2), mode="avg"), [x], label="avgpool")
    check_op_gradient(lambda ts: pool(ts[0], axes=(0, 2), mode="avg"), [x], label="avgpool02")
    # ties have measure zero for random input
    check_op_gradient(lambda ts: pool(ts[0], axes=(1, 2), mode="max"), [x], label="maxpool")


# ---------------------------------------------------------------------------
# linear


def test_linear_identity_and_zero():
    x = rand((4,), seed=12)
    eye = np.eye(4)
    out = linear(tz.Tensor(x), tz.Tensor(eye))
    np.testing.assert_allclose(out.data, x)
    out0 = linear(tz.Tensor(x), tz.Tensor(np.zeros((3, 4))))
    np.testing.assert_array_equal(out0.data, np.zeros(3))


def test_linear_batched_rows():
    x = rand((5, 3, 4), seed=13)
    w = rand((2, 4), seed=14)
    b = rand((2,), seed=15)
    out = linear(tz.Tensor(x), tz.Tensor(w), tz.Tensor(b))
    want = np.einsum("tbn,mn->tbm", x, w) + b
    np.testing.assert_allclose(out.data, want, rtol=1e-14)


def test_linear_feature_mismatch():
    with pytest.raises(tz.DimensionError):
        linear(tz.Tensor(np.zeros((3,))), tz.Tensor(np.zeros((2, 4))))
    with pytest.raises(tz.DimensionError):
        linear(tz.Tensor(np.zeros((4,))), tz.Tensor(np.zeros((2, 4))),
                  tz.Tensor(np.zeros((3,))))


def test_linear_gradients_match_fd():
    x = rand((3, 4), seed=16)
    w = rand((2, 4), seed=17)
    b = rand((2,), seed=18)
    check_op_gradient(lambda ts: linear(ts[0], ts[1], ts[2]), [x, w, b], label="linear")


# ---------------------------------------------------------------------------
# activations and elementwise


def test_sigmoid_values_and_saturation():
    x = tz.Tensor(np.array([0.0, 50.0, -50.0, 1000.0, -1000.0]))
    s = sigmoid(x)
    assert s.data[0] == 0.5
    assert np.isfinite(s.data).all()
    assert s.data[1] >= 1.0 - 1e-15 and s.data[2] <= 1e-15
    assert s.data[3] == 1.0 and s.data[4] == 0.0


def test_sigmoid_gradient_at_zero():
    x = tz.Tensor(np.array([0.0]), requires_grad=True)
    with tz.Tape() as tape:
        loss = sum_all(sigmoid(x))
    tz.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [0.25], rtol=1e-15)


def test_broadcast_mul_per_step_gate():
    x = rand((3, 2, 4, 4), seed=19)
    g = np.array([0.5, 1.0, 2.0])
    out = mul(tz.Tensor(x), tz.Tensor(g))
    for t, f in enumerate(g):
        np.testing.assert_allclose(out.data[t], x[t] * f)


def test_broadcast_incompatible_axis():
    with pytest.raises(tz.DimensionError):
        tz.add(tz.Tensor(np.zeros((3, 4))), tz.Tensor(np.zeros((2,))))


def test_broadcast_gradients_match_fd():
    x = rand((3, 2, 4), seed=20)
    g = rand((3,), seed=21)
    check_op_gradient(lambda ts: mul(ts[0], ts[1]), [x, g], label="bcast mul")
    g2 = rand((3, 2), seed=22)
    check_op_gradient(lambda ts: sub(ts[0], ts[1]), [x, g2], label="bcast sub")


def test_concat_and_split_gradients():
    a = rand((2, 3, 4, 4), seed=23)
    b = rand((2, 1, 4, 4), seed=24)
    out = concat([tz.Tensor(a), tz.Tensor(b)], axis=1)
    assert out.data.shape == (2, 4, 4, 4)
    check_op_gradient(lambda ts: concat(ts, axis=1), [a, b], label="concat")
    with pytest.raises(tz.DimensionError):
        concat([tz.Tensor(a), tz.Tensor(np.zeros((2, 1, 5, 4)))], axis=1)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = tz.Tensor(rand((3, 2), seed=27), requires_grad=True)
    with tz.Tape() as tape:
        loss = sum_all(x)
    tz.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))


def test_backward_square_chain():
    x = tz.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with tz.Tape() as tape:
        loss = sum_all(mul(x, x))
    tz.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0])


def test_tapes_nest_innermost_active():
    # an op records on the innermost active tape only; the outer tape names
    # the inner op's output as a leaf, so its sweep stops there
    x = tz.Tensor(rand((3,), seed=30), requires_grad=True)
    with tz.Tape() as outer:
        a = mul(x, x)
        with tz.Tape() as inner:
            b = mul(a, x)
        c = sum_all(b)
    assert len(inner) == 1 and inner._ops[0][0] is b.node
    assert len(outer) == 2 and [n for n, _, _ in outer._ops] == [a.node, c.node]
    tz.backward(c, outer)
    np.testing.assert_array_equal(b.grad, np.ones(3))
    assert x.grad is None and a.grad is None


def test_tape_exited_out_of_order_raises():
    # the failed exit leaves the stack as it was: inner stays innermost and records
    outer, inner = tz.Tape(), tz.Tape()
    outer.__enter__()
    inner.__enter__()
    try:
        with pytest.raises(tz.StateError):
            outer.__exit__(None, None, None)
        assert tz._ACTIVE[-2:] == [outer, inner]
        x = tz.Tensor(rand((3,), seed=31), requires_grad=True)
        mul(x, x)
        assert len(outer) == 0 and len(inner) == 1
    finally:
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
    assert tz._active_tape() is None


def test_backward_empty_tape_noop():
    x = tz.Tensor(np.array(3.0), requires_grad=True)
    with tz.Tape() as tape:
        pass
    tz.backward(x, tape)
    assert x.grad is None


def test_backward_requires_scalar():
    x = tz.Tensor(rand((3,), seed=28), requires_grad=True)
    with tz.Tape() as tape:
        y = mul(x, x)
    with pytest.raises(tz.ArgumentError):
        tz.backward(y, tape)


def test_backward_accumulates_across_calls():
    x = tz.Tensor(np.array([2.0]), requires_grad=True)
    with tz.Tape() as tape:
        loss = sum_all(mul(x, x))
    tz.backward(loss, tape)
    first = x.grad.copy()
    tz.backward(loss, tape)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_backward_linearity():
    xa = rand((4,), seed=29)
    a = tz.Tensor(xa.copy(), requires_grad=True)

    def grad_of(fn):
        a.grad = None
        with tz.Tape() as tape:
            loss = fn(a)
        tz.backward(loss, tape)
        return a.grad.copy()

    f = lambda t: sum_all(mul(t, t))
    g = lambda t: sum_all(sigmoid(t))
    combo = lambda t: tz.add(mul(f(t), 2.0), mul(g(t), -3.0))
    np.testing.assert_allclose(grad_of(combo), 2 * grad_of(f) - 3 * grad_of(g),
                               rtol=1e-12)


TAPE_OPS = ("add", "sub", "mul", "square", "gate", "pool_avg", "pool_max", "upsample",
            "if_run", "sigmoid")


# kinds that drop a value from the pool and that add a new leaf to it, so that
# a freed intermediate's id() can come back as a leaf's while the tape runs
POOL_OPS = ("drop", "leaf")


# IF populations for the if_run kind, one per mode
IF_KINDS = (md.ModelConfig(v_reset=0.25),
            md.ModelConfig(neuron_mode="smooth", surrogate_alpha=0.7))


def build_random_tape(ops, used, seed):
    """A tape over [2, 3, 2, 2] values drawn by (kind, i, j) triples.

    Returns (tape, loss, leaves, pool). Values are picked from a growing
    pool, so tensors fan out; two-operand ops fan in. A "drop" removes value
    i from the pool, so the forward no longer holds it, and a "leaf" adds a
    new leaf tensor. The loss sums the values named by `used` and is scaled
    by a scalar leaf, so other values go unused.
    """
    rng = np.random.default_rng(seed)
    shape = (2, 3, 2, 2)
    leaves = {"x%d" % k: tz.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
              for k in range(3)}
    leaves["gate"] = tz.Tensor(rng.uniform(-1, 1, (2,)), requires_grad=True)
    leaves["scale"] = tz.Tensor(np.array(rng.uniform(0.5, 2.0)), requires_grad=True)
    const = tz.Tensor(rng.uniform(-1, 1, shape))  # needs no gradient
    with tz.Tape() as tape:
        vals = [leaves["x0"], leaves["x1"], leaves["x2"], const]
        for kind, i, j in ops:
            a, b = vals[i % len(vals)], vals[j % len(vals)]
            if kind == "add":
                out = tz.add(a, b)
            elif kind == "sub":
                out = sub(a, b)
            elif kind == "mul":
                out = mul(a, b)
            elif kind == "square":
                out = mul(a, a)
            elif kind == "gate":  # broadcast [2] over [2, 3, 2, 2], both orders
                out = mul(leaves["gate"], a) if j % 2 else sub(a, leaves["gate"])
            elif kind == "pool_avg":
                out = mul(b, pool(a, axes=(2, 3), mode="avg"))
            elif kind == "pool_max":
                out = sub(pool(a, axes=(1, 2, 3), mode="max"), b)
            elif kind == "upsample":
                f = 2 + j % 3
                up = mul(nearest_upsample(a, f), nearest_upsample(b, f))
                out = avg_downsample(up, f)
            elif kind == "if_run":
                out = nr.if_run(a, IF_KINDS[j % 2])
            elif kind == "drop":
                if len(vals) > 1:
                    del vals[i % len(vals)]
                del a, b
                continue
            elif kind == "leaf":
                out = tz.Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
                leaves["new%d" % len(leaves)] = out
            else:
                out = sigmoid(a)
            vals.append(out)
            del a, b, out
        total = sum_all(vals[used[0] % len(vals)])
        for u in used[1:]:
            total = tz.add(total, sum_all(vals[u % len(vals)]))
        loss = mul(total, leaves["scale"])
    return tape, loss, leaves, vals


def check_backward_against_oracle(tape, loss, leaves, pool):
    """Leaf gradients equal the oracle's bit for bit; intermediates get none."""
    tz.backward(loss, tape)
    got = {name: t.grad for name, t in leaves.items()}
    leaf_ids = {id(t) for t in leaves.values()}
    assert loss.grad is None
    assert all(v.grad is None for v in pool if id(v) not in leaf_ids)

    for t in leaves.values():
        t.grad = None
    reference_backward(loss, tape)
    for name, t in leaves.items():
        if t.grad is None:
            assert got[name] is None, name
        else:
            assert got[name].shape == t.grad.shape, name
            np.testing.assert_array_equal(got[name], t.grad, err_msg=name)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(TAPE_OPS), st.integers(0, 63),
                              st.integers(0, 63)), min_size=1, max_size=10),
       used=st.lists(st.integers(0, 63), min_size=1, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_backward_matches_keep_everything_sweep(ops, used, seed):
    """Leaf gradients equal the oracle's bit for bit; intermediates get none."""
    tape, loss, leaves, pool = build_random_tape(ops, used, seed)
    check_backward_against_oracle(tape, loss, leaves, pool)

    # a loss that no op on the tape produced is a leaf: d loss / d loss = 1
    for t in leaves.values():
        t.grad = None
    tz.backward(leaves["scale"], tape)
    assert leaves["scale"].grad == 1.0
    assert all(t.grad is None for name, t in leaves.items() if name != "scale")


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(TAPE_OPS + POOL_OPS), st.integers(0, 63),
                              st.integers(0, 63)), min_size=1, max_size=14),
       used=st.lists(st.integers(0, 63), min_size=1, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_backward_matches_keep_everything_sweep_with_freed_intermediates(ops, used, seed):
    """As above on tapes whose forward drops intermediates and makes new
    leaves mid-tape: the tape keys outputs by node, not id(), so a leaf that
    takes a freed intermediate's id gets its own gradient."""
    check_backward_against_oracle(*build_random_tape(ops, used, seed))


def test_leaf_grad_is_owned_when_it_arrives_as_a_view():
    # pool's avg backward broadcasts, and add hands the same array to both inputs
    x = tz.Tensor(rand((3, 4), seed=33), requires_grad=True)
    y = tz.Tensor(rand((3, 4), seed=34), requires_grad=True)
    with tz.Tape() as tape:
        loss = sum_all(pool(tz.add(x, y), axes=(1,), mode="avg"))
    tz.backward(loss, tape)
    assert x.grad.flags.c_contiguous and x.grad.flags.writeable
    assert not np.shares_memory(x.grad, y.grad)
    x.grad += 1.0
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 1.25))
    np.testing.assert_array_equal(y.grad, np.full((3, 4), 0.25))


def test_composite_pipeline_gradient():
    x = rand((1, 2, 6, 6), seed=30)
    w = rand((3, 2, 3, 3), seed=31)

    def build(ts):
        y = tz.conv2d(ts[0], ts[1], stride=2)
        return sigmoid(y)

    check_op_gradient(build, [x, w], label="conv+sigmoid")


def test_no_tape_means_no_recording():
    x = tz.Tensor(rand((3,), seed=32), requires_grad=True)
    y = mul(x, x)
    assert y.requires_grad is False
    with tz.Tape() as tape:
        z = mul(x, x)
        assert z.requires_grad is True
    assert len(tape) == 1


def test_every_op_fd_sweep():
    # one pass over the public op set per seed, moderate sizes
    for seed in range(20):
        x = rand((2, 2, 4, 4), seed=100 + seed)
        w = rand((3, 2, 3, 3), seed=200 + seed)
        g = rand((2,), seed=300 + seed)
        v = rand((2, 5), seed=400 + seed)
        lw = rand((3, 5), seed=500 + seed)

        def build(ts):
            xx, ww, gg, vv, lww = ts
            y = tz.conv2d(xx, ww, stride=1)
            y = mul(y, gg)
            y = nearest_upsample(y, 2)
            y = avg_downsample(y, 2)
            y = relu(y)
            p = pool(y, axes=(2, 3), mode="avg")
            q = pool(y, axes=(2, 3), mode="max")
            z = linear(vv, lww)
            s = sigmoid(concat([p, q], axis=1))
            return tz.add(sum_all(s), tz.add(sum_all(absolute(z)),
                                                mean_all(y)))

        check_op_gradient(build, [x, w, g, v, lw], rtol=1e-6, atol=1e-8,
                          label="sweep%d" % seed)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_magnitude():
    store = tz.ParamStore()
    p = store.add("w", tz.Tensor(np.array(0.0)))
    p.grad = np.array(1.0)
    tz.adam_step(store, lr=0.002)
    want = -0.002 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, want, rtol=1e-12)


def test_adam_zero_grad_no_motion():
    store = tz.ParamStore()
    p = store.add("w", tz.Tensor(np.array([1.5, -2.0])))
    store.zero_grad()
    tz.adam_step(store, lr=0.1)
    np.testing.assert_array_equal(p.data, [1.5, -2.0])


def test_adam_descends_quadratic():
    store = tz.ParamStore()
    p = store.add("w", tz.Tensor(np.array(4.0)))
    vals = []
    for _ in range(50):
        p.grad = 2.0 * p.data  # d/dw w^2
        tz.adam_step(store, lr=0.1)
        vals.append(float(np.abs(p.data)))
    assert vals[-1] < 4.0
    assert vals[-1] < vals[0]


def test_adam_missing_grad_raises():
    store = tz.ParamStore()
    store.add("w", tz.Tensor(np.array(0.0)))
    with pytest.raises(tz.StateError, match="w"):
        tz.adam_step(store, lr=0.1)


def test_param_store_bookkeeping():
    store = tz.ParamStore()
    store.add("a", tz.Tensor(np.zeros((2, 3))))
    store.add("b", tz.Tensor(np.zeros((4,))))
    assert total_params(store) == 10
    assert param_names(store) == ["a", "b"]
    with pytest.raises(tz.ArgumentError):
        store.add("a", tz.Tensor(np.zeros(1)))


# ---------------------------------------------------------------------------
# serialization


def test_tensor_dump_roundtrip(tmp_path):
    for shape in [(), (3,), (2, 3), (2, 3, 4, 5)]:
        a = rand(shape, seed=hash(shape) % 1000) if shape else np.array(2.5)
        path = tmp_path / "t.spkt"
        tz.save_tensor(path, a)
        b = load_tensor(path)
        assert b.shape == np.asarray(a).shape
        np.testing.assert_array_equal(b, a)


def test_tensor_dump_layout():
    buf = io.BytesIO()
    tz.write_tensor(buf, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = buf.getvalue()
    assert raw[:8] == b"SPKT0001"
    assert raw[8:12] == (2).to_bytes(4, "little")
    assert raw[12:16] == (2).to_bytes(4, "little")
    assert raw[16:20] == (2).to_bytes(4, "little")
    vals = np.frombuffer(raw[20:], dtype="<f8")
    np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0, 4.0])


def test_tensor_dump_bad_magic(tmp_path):
    path = tmp_path / "bad.spkt"
    path.write_bytes(b"XXXX0000" + b"\x00" * 16)
    with pytest.raises(tz.ArgumentError, match="magic"):
        load_tensor(path)


def test_tensor_dump_truncated_or_bad_rank_is_argument_error(tmp_path):
    path = tmp_path / "t.spkt"
    tz.save_tensor(path, np.arange(6.0).reshape(2, 3))
    raw = path.read_bytes()
    for keep in (10, 14, len(raw) - 1):
        path.write_bytes(raw[:keep])
        with pytest.raises(tz.ArgumentError, match="truncated"):
            load_tensor(path)
    # a corrupt rank field must not reach numpy's own dimension limit
    path.write_bytes(raw[:8] + (1024).to_bytes(4, "little") + b"\x01\x00\x00\x00" * 1024)
    with pytest.raises(tz.ArgumentError, match="rank 1024"):
        load_tensor(path)
    # a zero dim leaves no payload to read, but the other dims overflow numpy's size
    dims = (0, 4_000_000_000, 4_000_000_000, 4_000_000_000)
    path.write_bytes(raw[:8] + b"".join(d.to_bytes(4, "little") for d in (4,) + dims))
    with pytest.raises(tz.ArgumentError, match="exceed"):
        load_tensor(path)
    path.write_bytes(raw[:8] + b"".join(d.to_bytes(4, "little") for d in (3, 0, 7, 5)))
    assert load_tensor(path).shape == (0, 7, 5)
