import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedepth import neurons as nr
from spikedepth import tensor as tz
from helpers import (naive_conv2d, naive_conv2d_grads, central_diff, assert_grads_close,
                     check_op_gradient, reference_backward, avg_downsample, mean_all,
                     load_tensor, total_params, param_names)


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


# ---------------------------------------------------------------------------
# convolution


def test_conv_box_filter_center_and_corner():
    x = np.ones((1, 5, 5))
    w = np.ones((1, 1, 3, 3))
    out = tz.conv2d(tz.Tensor(x), tz.Tensor(w), stride=1, padding=1)
    assert out.data.shape == (1, 5, 5)
    assert out.data[0, 2, 2] == 9.0
    assert out.data[0, 0, 0] == 4.0
    assert out.data[0, 0, 2] == 6.0


def test_conv_1x1_is_channel_mix():
    x = rand((3, 4, 4), seed=1)
    w = rand((2, 3, 1, 1), seed=2)
    out = tz.conv2d(tz.Tensor(x), tz.Tensor(w))
    want = np.einsum("oc,chw->ohw", w[:, :, 0, 0], x)
    np.testing.assert_allclose(out.data, want, rtol=1e-14)


@pytest.mark.parametrize("seed", range(6))
def test_conv_matches_naive_loops(seed):
    rng = np.random.default_rng(seed)
    c_in = int(rng.integers(1, 4))
    c_out = int(rng.integers(1, 5))
    k = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.integers(0, 3))
    h = int(rng.integers(k, k + 6))
    w = int(rng.integers(k, k + 6))
    x = rng.standard_normal((c_in, h, w))
    wt = rng.standard_normal((c_out, c_in, k, k))
    out = tz.conv2d(tz.Tensor(x), tz.Tensor(wt), stride=stride, padding=padding)
    want = naive_conv2d(x, wt, stride=stride, padding=padding)
    np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(t=st.sampled_from([None, 1, 2, 3]), c_in=st.integers(1, 4), c_out=st.integers(1, 4),
       k=st.sampled_from([1, 3, 5]), stride=st.integers(1, 3), padding=st.integers(0, 2),
       dh=st.integers(0, 6), dw=st.integers(0, 6), x_needs_grad=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_conv_forward_and_backward_match_scalar_loops(t, c_in, c_out, k, stride, padding,
                                                      dh, dw, x_needs_grad, seed):
    """t None is a rank-3 input; an input that needs no gradient gets none."""
    rng = np.random.default_rng(seed)
    lead = () if t is None else (t,)
    x = rng.standard_normal(lead + (c_in, k + dh, k + dw))
    wt = rng.standard_normal((c_out, c_in, k, k))
    xt = tz.Tensor(x, requires_grad=x_needs_grad)
    wtt = tz.Tensor(wt, requires_grad=True)
    with tz.Tape() as tape:
        out = tz.conv2d(xt, wtt, stride=stride, padding=padding)
        g = rng.standard_normal(out.data.shape)
        loss = tz.sum_all(tz.mul(out, tz.Tensor(g)))
    tz.backward(loss, tape)

    frames = x.reshape((-1,) + x.shape[-3:])
    g_frames = g.reshape((-1,) + g.shape[-3:])
    want = [naive_conv2d_grads(f, wt, gf, stride, padding) for f, gf in zip(frames, g_frames)]
    want_out = np.stack([o for o, _, _ in want]).reshape(out.data.shape)
    want_gx = np.stack([gx for _, gx, _ in want]).reshape(x.shape)
    want_gw = sum(gw for _, _, gw in want)
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.data, want_out, **close)
    np.testing.assert_allclose(wtt.grad, want_gw, **close)
    if x_needs_grad:
        np.testing.assert_allclose(xt.grad, want_gx, **close)
    else:
        assert xt.grad is None
        _, _, conv_backward = tape._ops[0]
        assert conv_backward(g)[0] is None


def check_conv_against_loops(x, wt, padding, x_needs_grad=True, seed=0):
    """Stride-1 conv2d output and gradients against naive_conv2d_grads per frame."""
    g = np.random.default_rng(seed).standard_normal(
        (x.shape[0], wt.shape[0], x.shape[2] + 2 * padding - wt.shape[2] + 1,
         x.shape[3] + 2 * padding - wt.shape[2] + 1))
    xt = tz.Tensor(x, requires_grad=x_needs_grad)
    wtt = tz.Tensor(wt, requires_grad=True)
    with tz.Tape() as tape:
        out = tz.conv2d(xt, wtt, stride=1, padding=padding)
    _, _, conv_backward = tape._ops[0]
    gx, gw = conv_backward(g)
    want = [naive_conv2d_grads(f, wt, gf, 1, padding) for f, gf in zip(x, g)]
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.data, np.stack([o for o, _, _ in want]), **close)
    np.testing.assert_allclose(gw, sum(w for _, _, w in want), **close)
    if x_needs_grad:
        np.testing.assert_allclose(gx, np.stack([d for _, d, _ in want]), **close)
    else:
        assert gx is None
    return conv_backward


@pytest.mark.parametrize("c_in,c_out,k,padding", [(3, 2, 3, 1), (2, 3, 1, 0), (1, 2, 3, 2)])
def test_conv_stride1_chunks_with_partial_last_chunk(monkeypatch, c_in, c_out, k, padding):
    # 5 frames, 2 per chunk: chunks of 2, 2 and 1 frames through the same buffers
    x = rand((5, c_in, 6, 7), seed=21)
    wt = rand((c_out, c_in, k, k), seed=22)
    frame_floats = max(c_in, c_out) * (6 + 2 * padding) * (7 + 2 * padding)
    monkeypatch.setattr(tz, "_CHUNK_FLOATS", 2 * frame_floats + 1)
    check_conv_against_loops(x, wt, padding, seed=23)


@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv_1x1_matches_loops(padding):
    check_conv_against_loops(rand((3, 4, 5, 6), seed=24), rand((2, 4, 1, 1), seed=25),
                             padding, seed=26)


@pytest.mark.parametrize("k,padding", [(1, 0), (3, 1)])
def test_conv_stride1_input_without_grad_gets_none(k, padding):
    check_conv_against_loops(rand((2, 3, 5, 5), seed=27), rand((2, 3, k, k), seed=28),
                             padding, x_needs_grad=False, seed=29)


@pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
def test_conv_backward_is_named_and_keeps_no_padded_copy(stride, padding):
    """The tracer files the closure by its qualname; its arrays are at most x's size."""
    x = tz.Tensor(rand((5, 2, 9, 11), seed=30), requires_grad=True)
    w = tz.Tensor(rand((3, 2, 3, 3), seed=31), requires_grad=True)
    with tz.Tape() as tape:
        tz.conv2d(x, w, stride=stride, padding=padding)
    _, _, conv_backward = tape._ops[0]
    assert conv_backward.__qualname__ == "conv2d.<locals>.bw"
    held = [c.cell_contents for c in conv_backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    arrays += [t.data for t in held if isinstance(t, tz.Tensor)]
    assert arrays and max(a.nbytes for a in arrays) <= x.data.nbytes


def test_conv_time_axis_is_batch():
    x = rand((4, 2, 6, 6), seed=3)
    w = rand((3, 2, 3, 3), seed=4)
    out = tz.conv2d(tz.Tensor(x), tz.Tensor(w), stride=2, padding=1)
    assert out.data.shape == (4, 3, 3, 3)
    for t in range(4):
        np.testing.assert_allclose(out.data[t], naive_conv2d(x[t], w, 2, 1),
                                    rtol=1e-12, atol=1e-12)


def test_conv_shape_errors():
    x = tz.Tensor(np.zeros((3, 8, 8)))
    w = tz.Tensor(np.zeros((4, 2, 3, 3)))
    with pytest.raises(tz.DimensionError, match="channel"):
        tz.conv2d(x, w)
    with pytest.raises(tz.DimensionError, match="height"):
        tz.conv2d(tz.Tensor(np.zeros((2, 2, 8))), tz.Tensor(np.zeros((4, 2, 5, 5))))
    with pytest.raises(tz.ArgumentError):
        tz.conv2d(tz.Tensor(np.zeros((2, 8, 8))), tz.Tensor(np.zeros((4, 2, 2, 2))))
    with pytest.raises(tz.ArgumentError):
        tz.conv2d(tz.Tensor(np.zeros((2, 8, 8))), tz.Tensor(np.zeros((4, 2, 3, 3))), stride=0)


def test_conv_gradients_match_fd():
    x = rand((2, 6, 6), seed=5)
    w = rand((3, 2, 3, 3), seed=6)
    check_op_gradient(lambda ts: tz.conv2d(ts[0], ts[1], stride=2, padding=1),
                      [x, w], label="conv stride2")
    x2 = rand((2, 2, 5, 5), seed=7)
    w2 = rand((2, 2, 3, 3), seed=8)
    check_op_gradient(lambda ts: tz.conv2d(ts[0], ts[1], stride=1, padding=1),
                      [x2, w2], label="conv rank4")


# ---------------------------------------------------------------------------
# upsample / downsample


def test_upsample_values_and_shape():
    x = tz.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    out = tz.nearest_upsample(x, 2)
    assert out.data.shape == (1, 4, 4)
    np.testing.assert_array_equal(out.data[0, :2, :2], [[1, 1], [1, 1]])
    assert out.data[0, 0, 3] == 2.0
    assert out.data[0, 3, 0] == 3.0
    assert out.data[0, 3, 3] == 4.0


def test_upsample_factor_one_identity():
    x = rand((2, 3, 3), seed=9)
    out = tz.nearest_upsample(tz.Tensor(x), 1)
    np.testing.assert_array_equal(out.data, x)
    with pytest.raises(tz.ArgumentError):
        tz.nearest_upsample(tz.Tensor(x), 0)


def test_upsample_gradient_sums_blocks():
    x = np.ones((1, 2, 2))
    xt = tz.Tensor(x, requires_grad=True)
    with tz.Tape() as tape:
        loss = tz.sum_all(tz.nearest_upsample(xt, 3))
    tz.backward(loss, tape)
    np.testing.assert_array_equal(xt.grad, np.full((1, 2, 2), 9.0))


def test_upsample_then_avg_downsample_is_identity():
    for seed in range(5):
        x = rand((3, 4, 6), seed=seed)
        up = tz.nearest_upsample(tz.Tensor(x), 2)
        back = avg_downsample(up, 2)
        np.testing.assert_allclose(back.data, x, rtol=0, atol=1e-15)


def test_updown_gradients_match_fd():
    for factor in (2, 3, 4):
        for lead in ((2,), (2, 3)):  # rank 3 and rank 4
            label = "f%d rank %d" % (factor, len(lead) + 2)
            x = rand(lead + (3, 2), seed=10)
            check_op_gradient(lambda ts: tz.nearest_upsample(ts[0], factor), [x],
                              label="upsample " + label)
            # a non-uniform weight, so each block's taps carry different gradients
            wu = rand(lead + (3 * factor, 2 * factor), seed=12)
            check_op_gradient(lambda ts: tz.mul(tz.nearest_upsample(ts[0], factor), ts[1]),
                              [x, wu], label="weighted upsample " + label)
            xd = rand(lead + (2 * factor, 3 * factor), seed=11)
            check_op_gradient(lambda ts: avg_downsample(ts[0], factor), [xd],
                              label="downsample " + label)


# ---------------------------------------------------------------------------
# pooling


def test_pool_avg_and_max_values():
    x = tz.Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    avg = tz.pool(x, axes=(1, 2), mode="avg")
    mx = tz.pool(x, axes=(1, 2), mode="max")
    np.testing.assert_allclose(avg.data, [x.data[0].mean(), x.data[1].mean()])
    np.testing.assert_allclose(mx.data, [11.0, 23.0])


def test_pool_max_tie_routes_to_first():
    x = tz.Tensor(np.array([[5.0, 5.0]]), requires_grad=True)
    with tz.Tape() as tape:
        loss = tz.sum_all(tz.pool(x, axes=(0, 1), mode="max"))
    tz.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])


def test_pool_axis_validation():
    x = tz.Tensor(np.zeros((2, 3)))
    with pytest.raises(tz.ArgumentError):
        tz.pool(x, axes=(2,), mode="avg")
    with pytest.raises(tz.ArgumentError):
        tz.pool(x, axes=(0, 0), mode="avg")
    with pytest.raises(tz.ArgumentError):
        tz.pool(x, axes=(0,), mode="median")


def test_pool_gradients_match_fd():
    x = rand((3, 4, 5), seed=11)
    check_op_gradient(lambda ts: tz.pool(ts[0], axes=(1, 2), mode="avg"), [x], label="avgpool")
    check_op_gradient(lambda ts: tz.pool(ts[0], axes=(0, 2), mode="avg"), [x], label="avgpool02")
    # ties have measure zero for random input
    check_op_gradient(lambda ts: tz.pool(ts[0], axes=(1, 2), mode="max"), [x], label="maxpool")


# ---------------------------------------------------------------------------
# linear


def test_linear_identity_and_zero():
    x = rand((4,), seed=12)
    eye = np.eye(4)
    out = tz.linear(tz.Tensor(x), tz.Tensor(eye))
    np.testing.assert_allclose(out.data, x)
    out0 = tz.linear(tz.Tensor(x), tz.Tensor(np.zeros((3, 4))))
    np.testing.assert_array_equal(out0.data, np.zeros(3))


def test_linear_batched_rows():
    x = rand((5, 3, 4), seed=13)
    w = rand((2, 4), seed=14)
    b = rand((2,), seed=15)
    out = tz.linear(tz.Tensor(x), tz.Tensor(w), tz.Tensor(b))
    want = np.einsum("tbn,mn->tbm", x, w) + b
    np.testing.assert_allclose(out.data, want, rtol=1e-14)


def test_linear_feature_mismatch():
    with pytest.raises(tz.DimensionError):
        tz.linear(tz.Tensor(np.zeros((3,))), tz.Tensor(np.zeros((2, 4))))
    with pytest.raises(tz.DimensionError):
        tz.linear(tz.Tensor(np.zeros((4,))), tz.Tensor(np.zeros((2, 4))),
                  tz.Tensor(np.zeros((3,))))


def test_linear_gradients_match_fd():
    x = rand((3, 4), seed=16)
    w = rand((2, 4), seed=17)
    b = rand((2,), seed=18)
    check_op_gradient(lambda ts: tz.linear(ts[0], ts[1], ts[2]), [x, w, b], label="linear")


# ---------------------------------------------------------------------------
# activations and elementwise


def test_sigmoid_values_and_saturation():
    x = tz.Tensor(np.array([0.0, 50.0, -50.0, 1000.0, -1000.0]))
    s = tz.sigmoid(x)
    assert s.data[0] == 0.5
    assert np.isfinite(s.data).all()
    assert s.data[1] >= 1.0 - 1e-15 and s.data[2] <= 1e-15
    assert s.data[3] == 1.0 and s.data[4] == 0.0


def test_sigmoid_gradient_at_zero():
    x = tz.Tensor(np.array([0.0]), requires_grad=True)
    with tz.Tape() as tape:
        loss = tz.sum_all(tz.sigmoid(x))
    tz.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [0.25], rtol=1e-15)


def test_broadcast_mul_per_step_gate():
    x = rand((3, 2, 4, 4), seed=19)
    g = np.array([0.5, 1.0, 2.0])
    out = tz.mul(tz.Tensor(x), tz.Tensor(g))
    for t, f in enumerate(g):
        np.testing.assert_allclose(out.data[t], x[t] * f)


def test_broadcast_incompatible_axis():
    with pytest.raises(tz.DimensionError):
        tz.add(tz.Tensor(np.zeros((3, 4))), tz.Tensor(np.zeros((2,))))


def test_broadcast_gradients_match_fd():
    x = rand((3, 2, 4), seed=20)
    g = rand((3,), seed=21)
    check_op_gradient(lambda ts: tz.mul(ts[0], ts[1]), [x, g], label="bcast mul")
    g2 = rand((3, 2), seed=22)
    check_op_gradient(lambda ts: tz.add(ts[0], ts[1]), [x, g2], label="bcast add")


def test_concat_and_split_gradients():
    a = rand((2, 3, 4, 4), seed=23)
    b = rand((2, 1, 4, 4), seed=24)
    out = tz.concat([tz.Tensor(a), tz.Tensor(b)], axis=1)
    assert out.data.shape == (2, 4, 4, 4)
    check_op_gradient(lambda ts: tz.concat(ts, axis=1), [a, b], label="concat")
    with pytest.raises(tz.DimensionError):
        tz.concat([tz.Tensor(a), tz.Tensor(np.zeros((2, 1, 5, 4)))], axis=1)


def test_slice_and_pad():
    x = rand((2, 5, 6), seed=26)
    sl = tz.slice_nd(tz.Tensor(x), ((0, 2), (1, 4), (2, 6)))
    np.testing.assert_array_equal(sl.data, x[:, 1:4, 2:6])
    check_op_gradient(lambda ts: tz.slice_nd(ts[0], ((0, 2), (1, 4), (2, 6))), [x],
                      label="slice")
    check_op_gradient(lambda ts: tz.pad_bottom_right(ts[0], 3, 2), [x], label="pad")
    padded = tz.pad_bottom_right(tz.Tensor(x), 3, 2)
    assert padded.data.shape == (2, 8, 8)
    np.testing.assert_array_equal(padded.data[:, :5, :6], x)
    assert padded.data[:, 5:, :].sum() == 0.0
    with pytest.raises(tz.ArgumentError):
        tz.slice_nd(tz.Tensor(x), ((0, 2), (1, 4), (2, 7)))


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = tz.Tensor(rand((3, 2), seed=27), requires_grad=True)
    with tz.Tape() as tape:
        loss = tz.sum_all(x)
    tz.backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))


def test_backward_square_chain():
    x = tz.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with tz.Tape() as tape:
        loss = tz.sum_all(tz.mul(x, x))
    tz.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [2.0, -4.0, 6.0])


def test_backward_empty_tape_noop():
    x = tz.Tensor(np.array(3.0), requires_grad=True)
    with tz.Tape() as tape:
        pass
    tz.backward(x, tape)
    assert x.grad is None


def test_backward_requires_scalar():
    x = tz.Tensor(rand((3,), seed=28), requires_grad=True)
    with tz.Tape() as tape:
        y = tz.mul(x, x)
    with pytest.raises(tz.ArgumentError):
        tz.backward(y, tape)


def test_backward_accumulates_across_calls():
    x = tz.Tensor(np.array([2.0]), requires_grad=True)
    with tz.Tape() as tape:
        loss = tz.sum_all(tz.mul(x, x))
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

    f = lambda t: tz.sum_all(tz.mul(t, t))
    g = lambda t: tz.sum_all(tz.sigmoid(t))
    combo = lambda t: tz.add(tz.mul(f(t), 2.0), tz.mul(g(t), -3.0))
    np.testing.assert_allclose(grad_of(combo), 2 * grad_of(f) - 3 * grad_of(g),
                               rtol=1e-12)


TAPE_OPS = ("add", "sub", "mul", "square", "gate", "pool_avg", "pool_max", "upsample",
            "if_run", "sigmoid")


# IF populations for the if_run kind: two with two outputs, and an integrator
IF_KINDS = (nr.IFParams(v_reset=0.25), nr.IFParams(mode="smooth", surrogate_alpha=0.7),
            nr.IFParams(mode="integrator"))


def build_random_tape(ops, used, seed):
    """A tape over [2, 3, 2, 2] values drawn by (kind, i, j) triples.

    Returns (tape, loss, leaves). Values are picked from a growing pool, so
    tensors fan out; two-operand ops fan in. The loss sums the values named
    by `used` and is scaled by a scalar leaf, so other values go unused.
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
                out = tz.sub(a, b)
            elif kind == "mul":
                out = tz.mul(a, b)
            elif kind == "square":
                out = tz.mul(a, a)
            elif kind == "gate":  # broadcast [2] over [2, 3, 2, 2], both orders
                out = tz.mul(leaves["gate"], a) if j % 2 else tz.add(a, leaves["gate"])
            elif kind == "pool_avg":
                out = tz.mul(b, tz.pool(a, axes=(2, 3), mode="avg"))
            elif kind == "pool_max":
                out = tz.add(tz.pool(a, axes=(1, 2, 3), mode="max"), b)
            elif kind == "upsample":
                f = 2 + j % 3
                up = tz.mul(tz.nearest_upsample(a, f), tz.nearest_upsample(b, f))
                out = avg_downsample(up, f)
            elif kind == "if_run":  # one output is used, the spikes or the membrane
                spikes, membrane = nr.if_run(a, IF_KINDS[j % 3])
                if spikes is not None and j % 2:
                    out = spikes
                else:
                    out = tz.add(tz.reshape(membrane, (1, 3, 2, 2)), b)
            else:
                out = tz.sigmoid(a)
            vals.append(out)
        total = tz.sum_all(vals[used[0] % len(vals)])
        for u in used[1:]:
            total = tz.add(total, tz.sum_all(vals[u % len(vals)]))
        loss = tz.mul(total, leaves["scale"])
    return tape, loss, leaves


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(TAPE_OPS), st.integers(0, 63),
                              st.integers(0, 63)), min_size=1, max_size=10),
       used=st.lists(st.integers(0, 63), min_size=1, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_backward_matches_keep_everything_sweep(ops, used, seed):
    """Leaf gradients equal the oracle's bit for bit; intermediates get none."""
    tape, loss, leaves = build_random_tape(ops, used, seed)
    tz.backward(loss, tape)
    got = {name: t.grad for name, t in leaves.items()}
    for outputs, _, _ in tape._ops:
        assert all(o.grad is None for o in outputs)

    for t in leaves.values():
        t.grad = None
    reference_backward(loss, tape)
    for name, t in leaves.items():
        if t.grad is None:
            assert got[name] is None, name
        else:
            assert got[name].shape == t.grad.shape, name
            np.testing.assert_array_equal(got[name], t.grad, err_msg=name)

    # a loss that no op on the tape produced is a leaf: d loss / d loss = 1
    for t in leaves.values():
        t.grad = None
    tz.backward(leaves["scale"], tape)
    assert leaves["scale"].grad == 1.0
    assert all(t.grad is None for name, t in leaves.items() if name != "scale")


def test_leaf_grad_is_owned_when_it_arrives_as_a_view():
    # pool's avg backward broadcasts, and add hands the same array to both inputs
    x = tz.Tensor(rand((3, 4), seed=33), requires_grad=True)
    y = tz.Tensor(rand((3, 4), seed=34), requires_grad=True)
    with tz.Tape() as tape:
        loss = tz.sum_all(tz.pool(tz.add(x, y), axes=(1,), mode="avg"))
    tz.backward(loss, tape)
    assert x.grad.flags.c_contiguous and x.grad.flags.writeable
    assert not np.shares_memory(x.grad, y.grad)
    x.grad += 1.0
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 1.25))
    np.testing.assert_array_equal(y.grad, np.full((3, 4), 0.25))


def test_composite_pipeline_gradient():
    x = rand((2, 6, 6), seed=30)
    w = rand((3, 2, 3, 3), seed=31)

    def build(ts):
        y = tz.conv2d(ts[0], ts[1], stride=2, padding=1)
        return tz.sigmoid(y)

    check_op_gradient(build, [x, w], label="conv+sigmoid")


def test_no_tape_means_no_recording():
    x = tz.Tensor(rand((3,), seed=32), requires_grad=True)
    y = tz.mul(x, x)
    assert y.requires_grad is False
    with tz.Tape() as tape:
        z = tz.mul(x, x)
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
            y = tz.conv2d(xx, ww, stride=1, padding=1)
            y = tz.mul(y, gg)
            y = tz.nearest_upsample(y, 2)
            y = avg_downsample(y, 2)
            y = tz.relu(y)
            p = tz.pool(y, axes=(2, 3), mode="avg")
            q = tz.pool(y, axes=(2, 3), mode="max")
            z = tz.linear(vv, lww)
            s = tz.sigmoid(tz.concat([p, q], axis=1))
            return tz.add(tz.sum_all(s), tz.add(tz.sum_all(tz.absolute(z)),
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
