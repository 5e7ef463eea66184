import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikedepth import tensor as tz
from spikedepth import neurons as nr
from spikedepth import model as md
from spikedepth import events as ev
from spikedepth import cli
from spikedepth import kv
from spikedepth import losses as ls
from helpers import (check_op_gradient, depth_head_composed, mul, param_names, spike_trains,
                     sum_all, total_params)


def small_cfg(**kw):
    base = dict(height=32, width=32, time_steps=2, in_channels=2,
                base_channels=2, layers=4, encoder_variant="CE-Att",
                attention="CS", reduction=1)
    base.update(kw)
    return md.ModelConfig(**base)


def rand(shape, seed=0, lo=0.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(tz.ArgumentError):
        md.ModelConfig(encoder_variant="XX")
    with pytest.raises(tz.ArgumentError):
        md.ModelConfig(neuron_mode="hard")
    with pytest.raises(tz.ArgumentError):
        md.ModelConfig(time_steps=0)
    cfg = md.ModelConfig(attention="SC")
    assert cfg.attention == "CS"  # canonical order


@pytest.mark.parametrize("fields,message", [
    # refused from the bit lengths, before any channel count is built
    ({"layers": 10 ** 18}, "layers = %d" % 10 ** 18),
    ({"base_channels": 2 ** 29, "layers": 1}, "'res0.conv1' of shape (%d, %d, 3, 3)"
     % (2 ** 29, 2 ** 29)),
    ({"in_channels": 2 ** 62}, "'enc0.conv'"),
])
def test_config_of_a_weight_numpy_cannot_hold_is_refused(fields, message):
    with pytest.raises(tz.ArgumentError, match="numpy's largest array") as info:
        md.ModelConfig(**fields)
    assert message in str(info.value)
    md.ModelConfig(base_channels=2 ** 27, layers=1)  # a 9 * 2**54-element residual conv


def test_channel_ladder():
    cfg = md.ModelConfig(in_channels=4, base_channels=8, layers=4)
    assert cfg.channel_ladder == [4, 8, 16, 32, 64]


# ---------------------------------------------------------------------------
# encoder block variants


def built_block(kind, seed=0, **kw):
    """Block 0 of `kind` ("encoders", "residuals" or "decoders") of a small net."""
    return getattr(md.DepthNet(small_cfg(layers=2, **kw), seed=seed), kind)[0]


def block_pair(variant, seed=3):
    """Same 2 -> 4 conv weights, one block with zeroed attention and one without any."""
    plain = "CE" if variant.startswith("CE") else "DE"
    blk_a = built_block("encoders", seed, base_channels=4, encoder_variant=variant)
    blk_b = built_block("encoders", seed, base_channels=4, encoder_variant=plain)
    blk_b.conv.data = blk_a.conv.data.copy()
    for t in blk_a.att.values():
        t.data = np.zeros_like(t.data)
    return blk_a, blk_b


def run_block(blk):
    counts = md.Counts()
    x = tz.Tensor(rand((2, 2, 8, 8), seed=5))
    out = blk.forward(x, False, counts)
    return out, counts


def test_ce_att_is_quarter_of_ce_with_zero_gates():
    blk_att, blk_ce = block_pair("CE-Att")
    out_att, _ = run_block(blk_att)
    out_ce, _ = run_block(blk_ce)
    np.testing.assert_array_equal(out_att.data, 0.25 * out_ce.data)


def test_ce_propagates_continuous_de_propagates_binary():
    _, blk_ce = block_pair("CE-Att")
    _, blk_de = block_pair("DE-Att1")
    out_ce, _ = run_block(blk_ce)
    out_de, _ = run_block(blk_de)
    assert not set(np.unique(out_ce.data)) <= {0.0, 1.0}
    assert set(np.unique(out_de.data)) <= {0.0, 1.0}


def test_encoder_variant_order_is_the_stored_index():
    # a checkpoint stores cfg.encoder_variant as its index in this tuple, so
    # the order never changes
    assert md.ENCODER_VARIANTS == ("CE", "DE", "CE-Att", "DE-Att1", "DE-Att2")
    entries = kv.to_entries(md.ModelConfig(encoder_variant="DE-Att2"))
    assert entries["cfg.encoder_variant"] == 4


def test_encoder_variants_attention_site():
    # DE-Att2 gates after the conv: zero gates quarter the IF drive, not the conv input
    blk = built_block("encoders", 9, base_channels=4, encoder_variant="DE-Att2")
    assert blk.att["c_compress"].data.shape[1] == 4
    blk2 = built_block("encoders", 9, base_channels=4, encoder_variant="DE-Att1")
    assert blk2.att["c_compress"].data.shape[1] == 2


# ---------------------------------------------------------------------------
# residual block


def test_residual_identity_on_dead_path():
    blk = built_block("residuals", 2)  # 4 channels
    blk.conv1.data = np.zeros_like(blk.conv1.data)
    blk.conv2.data = np.zeros_like(blk.conv2.data)
    x = rand((2, 4, 4, 4), seed=6)
    counts = md.Counts()
    out = blk.forward(tz.Tensor(x), counts)
    np.testing.assert_array_equal(out.data, x)


def test_residual_additive_structure():
    blk = built_block("residuals", 4)
    x = rand((2, 4, 4, 4), seed=7)
    counts = md.Counts()
    out = blk.forward(tz.Tensor(x), counts)
    assert out.data.shape == x.shape
    # subtracting the identity leaves the gated branch, bounded by the conv range
    assert not np.array_equal(out.data, x)


# ---------------------------------------------------------------------------
# decoder block


def test_decoder_shapes_and_head_accumulation():
    blk = built_block("decoders", 5, base_channels=4, time_steps=3)  # 8 -> 4
    x = rand((3, 8, 4, 4), seed=8)
    skip = rand((3, 4, 8, 8), seed=9)
    counts = md.Counts()
    out, pred = blk.forward(tz.Tensor(x), tz.Tensor(skip), counts)
    assert out.data.shape == (3, 4, 8, 8)
    assert pred.data.shape == (8, 8)
    # depth head: the map is the sum of the per-step head responses
    up = np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1)
    w = blk.head.data[:, :, 0, 0]
    manual = np.einsum("tchw,oc->tohw", up, w).sum(axis=0)[0]
    np.testing.assert_allclose(pred.data, manual, rtol=1e-12)


def test_decoder_zero_input_zero_membrane():
    blk = built_block("decoders", 6, base_channels=4)
    counts = md.Counts()
    out, pred = blk.forward(tz.Tensor(np.zeros((2, 8, 4, 4))),
                            tz.Tensor(np.zeros((2, 4, 8, 8))), counts)
    np.testing.assert_array_equal(pred.data, np.zeros((8, 8)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 8, 8)))


def test_decoder_skip_shape_mismatch():
    blk = built_block("decoders", 7, base_channels=4)
    counts = md.Counts()
    with pytest.raises(tz.DimensionError):
        blk.forward(tz.Tensor(np.zeros((2, 8, 4, 4))),
                    tz.Tensor(np.zeros((2, 4, 4, 4))), counts)


def _depth_map_and_grads(head, x, weight, x_needs_grad, loss_weights):
    """The map of head(x, weight), x.grad, weight.grad under sum(map * loss_weights)."""
    xt = tz.Tensor(x.copy(), requires_grad=x_needs_grad)
    wt = tz.Tensor(weight.copy(), requires_grad=True)
    with tz.Tape() as tape:
        pred = head(xt, wt)
        loss = sum_all(mul(pred, tz.Tensor(loss_weights)))
    tz.backward(loss, tape)
    return pred.data, xt.grad, wt.grad


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hw=st.sampled_from([(3, 5), (5, 3), (1, 7)]),
       x_needs_grad=st.booleans())
def test_depth_head_matches_the_composed_chain(seed, hw, x_needs_grad):
    # the oracle is a 1x1 conv2d, a per-step sum from a zero membrane, a
    # reshape and a 2x nearest upsample; small integers keep every sum exact,
    # so the two summation orders give the same bits
    rng = np.random.default_rng(seed)
    (h, w), t, c = hw, 3, 4
    x = rng.integers(-4, 5, (t, c, h, w)).astype(np.float64)
    weight = rng.integers(-4, 5, (1, c, 1, 1)).astype(np.float64)
    loss_weights = rng.integers(-3, 4, (2 * h, 2 * w)).astype(np.float64)
    counts = md.Counts()
    got = _depth_map_and_grads(lambda a, b: md._depth_head(a, b, counts), x, weight,
                               x_needs_grad, loss_weights)
    want = _depth_map_and_grads(depth_head_composed, x, weight, x_needs_grad, loss_weights)
    assert got[0].shape == (2 * h, 2 * w)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[2], want[2])
    if x_needs_grad:
        np.testing.assert_array_equal(got[1], want[1])
        for step in range(t):  # every step's input gets the same gradient
            np.testing.assert_array_equal(got[1][step], got[1][0])
    else:
        assert got[1] is None and want[1] is None
    # MACs at the resolution of the map, and no ACs from a continuous input
    assert counts.dense_macs == t * c * (2 * h) * (2 * w) and counts.ac_ops == 0


@pytest.mark.parametrize("x_needs_grad", [True, False])
def test_depth_head_gradient_matches_finite_differences(x_needs_grad):
    x = rand((3, 4, 3, 5), seed=42, lo=-1.0, hi=1.0)
    weight = rand((1, 4, 1, 1), seed=43, lo=-1.0, hi=1.0)
    if x_needs_grad:
        check_op_gradient(lambda ts: md._depth_head(ts[0], ts[1], md.Counts()),
                          [x, weight], label="depth head")
    else:
        check_op_gradient(lambda ts: md._depth_head(tz.Tensor(x), ts[0], md.Counts()),
                          [weight], label="depth head weight")


def test_depth_head_is_one_tape_entry_that_keeps_only_its_inputs():
    x = tz.Tensor(rand((3, 4, 3, 5), seed=44), requires_grad=True)
    weight = tz.Tensor(rand((1, 4, 1, 1), seed=45), requires_grad=True)
    with tz.Tape() as tape:
        md._depth_head(x, weight, md.Counts())
    [(_, _, head_backward)] = tape._ops
    assert head_backward.__qualname__ == "_depth_head.<locals>.bw"
    held = [c.cell_contents for c in head_backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert arrays and all(np.shares_memory(a, x.data) or np.shares_memory(a, weight.data)
                          for a in arrays)


# ---------------------------------------------------------------------------
# whole network


def test_forward_shape_ladder():
    cfg = md.ModelConfig(height=64, width=64, time_steps=5, in_channels=4,
                         base_channels=8, layers=4)
    net = md.DepthNet(cfg, seed=0)
    x = tz.Tensor(rand((5, 4, 64, 64), seed=10, lo=0.0, hi=3.0))
    (depth, preds, stats), trains = spike_trains(net, x)
    assert depth.data.shape == (64, 64)
    assert [p.data.shape for p in preds] == [(8, 8), (16, 16), (32, 32), (64, 64)]
    enc_shapes = [s.data.shape for s in trains["encoder"]]
    assert enc_shapes == [(5, 8, 32, 32), (5, 16, 16, 16), (5, 32, 8, 8), (5, 64, 4, 4)]
    assert np.isfinite(depth.data).all()


def test_forward_zero_input_zero_depth():
    cfg = small_cfg()
    net = md.DepthNet(cfg, seed=1)
    depth, preds, stats = net.forward(tz.Tensor(np.zeros((2, 2, 32, 32))))
    np.testing.assert_array_equal(depth.data, np.zeros((32, 32)))
    assert stats.rate_total == 0.0


def test_forward_validates_axes():
    net = md.DepthNet(small_cfg(), seed=2)
    with pytest.raises(tz.DimensionError):
        net.forward(tz.Tensor(np.zeros((3, 2, 32, 32))))
    with pytest.raises(tz.DimensionError):
        net.forward(tz.Tensor(np.zeros((2, 3, 32, 32))))
    with pytest.raises(tz.DimensionError):
        net.forward(tz.Tensor(np.zeros((2, 2, 32))))


def test_forward_pads_and_crops_odd_geometry():
    # at 260x346 the forward pads its input to 272x352 as data and the last
    # depth head crops its own map back, so a default training step records
    # the 37 entries of a 64x64 one
    cfg = md.ModelConfig(height=260, width=346)
    net = md.DepthNet(cfg, seed=3)
    x = tz.Tensor(rand((5, 4, 260, 346), seed=11, lo=0.0, hi=2.0))
    gt = ev.DepthFrame(depth=rand((260, 346), seed=17, lo=0.5, hi=4.0),
                       valid=np.ones((260, 346), dtype=bool), t=0)
    with tz.Tape() as tape:
        depth, preds, _ = net.forward(x)
        cli.window_loss(depth, preds, gt, ls.LossConfig(), False, cfg.layers)
    assert depth.data.shape == (260, 346)
    assert depth is preds[-1] and preds[-2].data.shape == (136, 176)
    assert np.isfinite(depth.data).all()
    assert tape._ops[-2][0] is depth.node and len(tape) == 37


def test_forward_rejects_an_input_that_requires_a_gradient():
    # the forward pads its input as data and never differentiates it, so an
    # input leaf would silently get no gradient
    net = md.DepthNet(small_cfg(), seed=2)
    x = tz.Tensor(rand((2, 2, 32, 32), seed=12), requires_grad=True)
    with pytest.raises(tz.ArgumentError):
        net.forward(x)
    with tz.Tape(), pytest.raises(tz.ArgumentError):
        net.forward(x)


def _training_step(net, x, gt):
    """(depth, loss, Counts, weight gradients) of one taped default training
    step with multiscale_loss off."""
    net.params.zero_grad()
    with tz.Tape() as tape:
        depth, preds, counts = net.forward(tz.Tensor(x))
        loss = cli.window_loss(depth, preds, gt, ls.LossConfig(), False, net.config.layers)
    tz.backward(loss, tape)
    return depth.data, loss.item(), counts, {name: p.grad.copy() for name, p in net.params}


def test_odd_geometry_equals_hand_padding():
    # a 36x52 step pads its input to 48x64 and crops the last map back; the
    # same input padded by hand, with the added border invalid in the ground
    # truth, gives the same map bit for bit and the same counts, while the
    # loss sums run over a larger array, so loss and gradients agree to
    # rounding; a lower threshold makes the encoder populations fire
    net = md.DepthNet(md.ModelConfig(height=36, width=52, v_threshold=0.25), seed=6)
    rng = np.random.default_rng(21)
    x = rng.poisson(0.3, (5, 4, 36, 52)).astype(np.float64)
    valid = np.ones((36, 52), dtype=bool)
    valid[:9, :13] = False
    gt = ev.DepthFrame(depth=rng.uniform(0.5, 4.0, (36, 52)) * valid, valid=valid, t=0)
    x_pad = np.zeros((5, 4, 48, 64))
    x_pad[..., :36, :52] = x
    valid_pad = np.zeros((48, 64), dtype=bool)
    valid_pad[:36, :52] = valid
    depth_pad = np.zeros((48, 64))
    depth_pad[:36, :52] = gt.depth
    gt_pad = ev.DepthFrame(depth=depth_pad, valid=valid_pad, t=0)

    depth, loss, counts, grads = _training_step(net, x, gt)
    depth_p, loss_p, counts_p, grads_p = _training_step(net, x_pad, gt_pad)
    assert depth.shape == (36, 52)
    np.testing.assert_array_equal(depth, depth_p[:36, :52])
    assert counts == counts_p and counts.encoder_spikes > 0
    np.testing.assert_allclose(loss, loss_p, rtol=1e-10)
    assert any(g.any() for g in grads.values())
    for name, g in grads.items():
        np.testing.assert_allclose(g, grads_p[name], rtol=1e-10, err_msg=name)


def test_forward_deterministic_replay():
    net = md.DepthNet(small_cfg(), seed=4)
    x = tz.Tensor(rand((2, 2, 32, 32), seed=12, lo=0.0, hi=3.0))
    d1, _, s1 = net.forward(x)
    d2, _, s2 = net.forward(x)
    np.testing.assert_array_equal(d1.data, d2.data)
    assert s1 == s2


def tape_kinds(entries):
    return [bw.__qualname__.split(".<locals>")[0] for _, _, bw in entries]


def test_default_forward_tape_has_one_entry_per_if_population():
    # the 7 residual and decoder populations and the 4 depth heads are one
    # entry each (the CE-Att encoder populations feed only the counts and stay
    # off the tape), and so is each of the nine attention sites with its
    # channel and spatial gates (the last decoder layer has none); enc0's
    # attention over the input is taped for its weights. No entry is an
    # upsample of its own: a decoder site upsamples its input inside its
    # entry, and a depth head its map
    net = md.DepthNet(md.ModelConfig(), seed=0)
    x = tz.Tensor(rand((5, 4, 64, 64), seed=14, lo=0.0, hi=2.0))
    with tz.Tape() as tape:
        net.forward(x)
    kinds = tape_kinds(tape._ops)
    assert kinds.count("if_run") == 7
    assert kinds.count("_depth_head") == 4
    assert kinds.count("_site") == 9
    assert kinds.count("nearest_upsample") == 0
    assert len(tape) == 36


def record_entries(blk, tape):
    """Wrap blk.forward so that each call appends the tape entries it records."""
    entries = []

    def traced(*args, fwd=blk.forward):
        lo = len(tape)
        out = fwd(*args)
        entries.append(tape._ops[lo:])
        return out

    blk.forward = traced
    return entries


@pytest.mark.parametrize("variant", md.ENCODER_VARIANTS)
def test_ce_encoder_populations_are_off_the_tape(variant):
    # a CE block propagates its conv output, so its spikes feed only the counts;
    # a DE block propagates its spikes, and their population stays taped
    net = md.DepthNet(small_cfg(encoder_variant=variant), seed=12)
    x = tz.Tensor(rand((2, 2, 32, 32), seed=20, lo=0.0, hi=3.0))
    with tz.Tape() as tape:
        per_block = [record_entries(blk, tape) for blk in net.encoders]
        (_, _, stats), trains = spike_trains(net, x)
    taped = [tape_kinds(entries).count("if_run") for [entries] in per_block]
    assert taped == [0 if variant.startswith("CE") else 1] * len(net.encoders)
    assert stats.encoder_steps == sum(s.data.size for s in trains["encoder"]) > 0


def test_last_decoder_block_stops_at_its_head():
    # at the input scale only the depth head runs, as one entry: no gate,
    # conv or IF population runs there, and the head runs before the upsample,
    # so no 4-D tensor at the input resolution is on the tape; the weights of
    # the layer's unused gate and conv get no gradient even when every scale's
    # prediction is in the loss
    net = md.DepthNet(small_cfg(neuron_mode="smooth"), seed=11)
    x = tz.Tensor(rand((2, 2, 32, 32), seed=19, lo=0.0, hi=3.0))
    net.params.zero_grad()
    with tz.Tape() as tape:
        calls = record_entries(net.decoders[-1], tape)
        (_, preds, stats), trains = spike_trains(net, x)
        loss = sum_all(mul(preds[0], preds[0]))
        for p in preds[1:]:
            loss = tz.add(loss, sum_all(mul(p, p)))
    [last_entries] = calls
    assert tape_kinds(last_entries) == ["_depth_head"]
    # the arrays the head's closure holds are its 16x16 input, as [T, C, h*w],
    # and the weight; none is at the 32x32 input resolution
    [(node, _, head_backward)] = last_entries
    held = [c.cell_contents for c in head_backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    arrays += [t.data for t in held if isinstance(t, tz.Tensor)]
    assert sorted(a.shape for a in arrays) == [(1, 2), (2, 2, 16 * 16)]
    assert node is preds[-1].node and preds[-1].data.shape == (32, 32)
    assert len(trains["decoder"]) == len(net.decoders) - 1
    assert stats.decoder_steps == sum(s.data.size for s in trains["decoder"])
    tz.backward(loss, tape)
    last = "dec%d." % (len(net.decoders) - 1)
    dead = {name for name, p in net.params if not p.grad.any()}
    assert dead == {last + "conv"} | {last + "att." + n for n in net.decoders[-1].att}


@pytest.mark.parametrize("multiscale, entries", [(False, 37), (True, 43)])
def test_default_training_step_tape_has_one_loss_entry_per_scale(multiscale, entries):
    # the 36 forward entries above, then one total_loss per supervised scale
    # and one add joining each extra scale
    cfg = md.ModelConfig()
    net = md.DepthNet(cfg, seed=0)
    x = tz.Tensor(rand((5, 4, 64, 64), seed=14, lo=0.0, hi=2.0))
    gt = ev.DepthFrame(depth=rand((64, 64), seed=15, lo=0.5, hi=4.0),
                       valid=np.ones((64, 64), dtype=bool), t=0)
    with tz.Tape() as tape:
        depth, preds, _ = net.forward(x)
        cli.window_loss(depth, preds, gt, ls.LossConfig(), multiscale, cfg.layers)
    kinds = tape_kinds(tape._ops)
    assert kinds.count("total_loss") == (cfg.layers if multiscale else 1)
    assert len(tape) == entries


def test_param_count_invariant_in_time_steps():
    a = md.DepthNet(small_cfg(time_steps=1), seed=0)
    b = md.DepthNet(small_cfg(time_steps=5), seed=0)
    assert total_params(a.params) == total_params(b.params)


def test_smooth_mode_end_to_end_gradient_exists():
    cfg = small_cfg(neuron_mode="smooth", height=16, width=16)
    net = md.DepthNet(cfg, seed=5)
    x = tz.Tensor(rand((2, 2, 16, 16), seed=13, lo=0.0, hi=2.0))
    with tz.Tape() as tape:
        depth, _, _ = net.forward(x)
        loss = sum_all(mul(depth, depth))
    tz.backward(loss, tape)
    reached = sum(1 for _, p in net.params if p.grad is not None and np.abs(p.grad).sum() > 0)
    assert reached > 0.6 * len(param_names(net.params))


# ---------------------------------------------------------------------------
# spike statistics and op counting


def test_counts_exact_on_crafted_spike_trains():
    stats = md.Counts()
    enc = tz.Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    stats.fire("encoder", enc)
    dec = tz.Tensor(np.ones((2, 1, 2, 2)))
    stats.fire("decoder", dec)
    assert stats.encoder_spikes == 2.0 and stats.encoder_steps == 4
    assert stats.rate_encoder == 0.5
    assert stats.rate_decoder == 1.0
    assert stats.rate_residual == 0.0
    assert stats.rate_total == (2.0 + 8.0) / 12.0


def test_stats_match_recount_from_activations():
    net = md.DepthNet(small_cfg(), seed=6)
    x = tz.Tensor(rand((2, 2, 32, 32), seed=14, lo=0.0, hi=4.0))
    (_, _, stats), trains = spike_trains(net, x)
    enc = sum(float(s.data.sum()) for s in trains["encoder"])
    enc_n = sum(s.data.size for s in trains["encoder"])
    assert stats.encoder_spikes == enc and stats.encoder_steps == enc_n
    for s in trains["encoder"] + trains["residual"] + trains["decoder"]:
        assert set(np.unique(s.data)) <= {0.0, 1.0}


def brute_incidences(x, k, stride, padding):
    t, c, h, w = x.shape
    xp = np.zeros((t, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    total = 0
    for tt in range(t):
        for i in range(ho):
            for j in range(wo):
                patch = xp[tt, :, i * stride:i * stride + k, j * stride:j * stride + k]
                total += int((patch != 0).sum())
    return total


def test_ac_ops_exact_against_brute_force():
    rng = np.random.default_rng(15)
    x = (rng.uniform(size=(2, 2, 8, 8)) < 0.3).astype(np.float64)
    assert md._spike_incidences(x, 3, 2) == brute_incidences(x, 3, 2, 1)
    assert md._spike_incidences(x, 1, 1) == brute_incidences(x, 1, 1, 0)
    odd = (rng.uniform(size=(2, 3, 7, 9)) < 0.3).astype(np.float64)
    for k, stride in ((3, 2), (5, 1), (5, 2)):
        assert md._spike_incidences(odd, k, stride) == brute_incidences(odd, k, stride, k // 2)


def architecture_macs(cfg):
    """Dense MACs of one forward from the weight table alone: every conv and
    gating site at the scale it works at, each depth head at the scale it
    predicts, and nothing for the last decoder layer's unused gate and conv."""
    mult = 1 << cfg.layers
    h, w = (-(-n // mult) * mult for n in (cfg.height, cfg.width))  # padded input
    t, last = cfg.time_steps, "dec%d." % (cfg.layers - 1)
    total = 0
    for name, shape in md.param_shapes(cfg).items():
        block, rest = name.split(".", 1)
        i = int(block[3:])
        if name.startswith(last) and rest != "head":
            continue
        if block.startswith("enc"):  # stride 2: the conv works at scale i + 1
            scale = i + 1 if rest == "conv" or cfg.encoder_variant == "DE-Att2" else i
        elif block.startswith("res"):
            scale = cfg.layers
        else:  # decoder layer i works at, and predicts, its upsampled scale
            scale = cfg.layers - 1 - i
        pixels = (h >> scale) * (w >> scale)
        size = int(np.prod(shape))
        if rest.startswith("att.t_"):    # avg and max pools through each MLP weight
            total += 2 * size
        elif rest.startswith("att.c_"):  # the same, per step
            total += 2 * t * size
        else:                            # a conv, the gate's 2 -> 1 conv included
            total += t * pixels * size
    return total


def mac_cases():
    """The default config at 64x64, with its pinned total, and at 260x346,
    then every other encoder variant and attention set at 64x64."""
    yield pytest.param(64, 64, "CE-Att", "CS", 36_608_640, id="64-64-36608640")
    yield pytest.param(260, 346, "CE-Att", "CS", None, id="260-346-None")
    for variant in md.ENCODER_VARIANTS:
        for attention in ("", "T", "CS", "TCS"):
            if (variant, attention) != ("CE-Att", "CS"):
                yield pytest.param(64, 64, variant, attention, None,
                                   id="64-64-%s-%s" % (variant, attention or "none"))


@pytest.mark.parametrize("height, width, variant, attention, want", mac_cases())
def test_dense_macs_are_the_architecture_cost(height, width, variant, attention, want):
    cfg = md.ModelConfig(height=height, width=width, encoder_variant=variant,
                         attention=attention)
    if want is not None:
        assert architecture_macs(cfg) == want
    net = md.DepthNet(cfg, seed=0)
    _, _, counts = net.forward(tz.Tensor(np.zeros((5, 4, height, width))))
    assert counts.dense_macs == architecture_macs(cfg)


def test_op_counts_dense_is_input_independent():
    net = md.DepthNet(small_cfg(), seed=7)
    net.forward(tz.Tensor(rand((2, 2, 32, 32), seed=16, lo=0.0, hi=3.0)))
    first = net.last_ops.dense_macs
    net.forward(tz.Tensor(np.zeros((2, 2, 32, 32))))
    assert net.last_ops.dense_macs == first
    assert net.last_ops.ac_ops >= 0


@pytest.mark.parametrize("variant", ["DE", "DE-Att2"])
def test_ac_ops_are_the_incidences_of_the_spike_fed_convs(variant):
    # on binary input enc0's conv reads the input, each later encoder conv the
    # spikes of the encoder before it and each residual conv its population's
    # spikes; no other conv reads spikes. The low threshold makes every one of
    # those populations fire, so each of them adds to the count. An all-zero
    # input is binary too, and its count is 0
    net = md.DepthNet(small_cfg(encoder_variant=variant, v_threshold=0.02), seed=8)
    x = (rand((2, 2, 32, 32), seed=17) > 1.0).astype(np.float64)
    (_, _, counts), trains = spike_trains(net, tz.Tensor(x))
    fed = [(x, net.encoders[0].conv, 2)]
    fed += [(s.data, blk.conv, 2) for s, blk in zip(trains["encoder"], net.encoders[1:])]
    res_convs = [w for blk in net.residuals for w in (blk.conv1, blk.conv2)]
    fed += [(s.data, w, 1) for s, w in zip(trains["residual"], res_convs)]
    assert all(a.any() for a, _, _ in fed)
    want = sum(w.data.shape[0] * md._spike_incidences(a, 3, stride) for a, w, stride in fed)
    assert counts.ac_ops == want
    _, _, counts = net.forward(tz.Tensor(np.zeros((2, 2, 32, 32))))
    assert counts.ac_ops == 0.0


def test_sparsity_ratio_bounds():
    # the threshold of the exact test above, so that the spike-fed convs
    # after enc0 count ACs too
    net = md.DepthNet(small_cfg(encoder_variant="DE", v_threshold=0.02), seed=9)
    x = (rand((2, 2, 32, 32), seed=18) > 0.8).astype(np.float64)
    _, _, counts = net.forward(tz.Tensor(x))
    enc0 = net.encoders[0].conv.data.shape[0] * md._spike_incidences(x, 3, 2)
    assert counts.ac_ops > enc0
    assert 0.0 < counts.sparsity_ratio < 1.0


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = md.DepthNet(small_cfg(), seed=10)
    x = tz.Tensor(rand((2, 2, 32, 32), seed=19, lo=0.0, hi=3.0))
    d1, _, _ = net.forward(x)
    path = tmp_path / "model.spkc"
    md.save_model(path, net, extra={"train.epoch": 3.0})
    net2, entries = md.load_model(path)
    assert net2.config == net.config
    assert entries["train.epoch"] == 3.0
    for name, p in net.params:
        np.testing.assert_array_equal(dict(net2.params)[name].data, p.data)
    d2, _, _ = net2.forward(x)
    np.testing.assert_array_equal(d1.data, d2.data)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.spkc"
    path.write_bytes(b"NOPE1234" + b"\x00" * 8)
    with pytest.raises(tz.ArgumentError, match="magic"):
        md.load_checkpoint(path)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True))
def test_checkpoint_truncated_anywhere_is_argument_error(tmp_path_factory, fraction):
    path = tmp_path_factory.mktemp("trunc") / "model.spkc"
    md.save_checkpoint(path, md.model_entries(md.DepthNet(small_cfg(), seed=13)))
    raw = path.read_bytes()
    path.write_bytes(raw[:int(fraction * len(raw))])
    with pytest.raises(tz.ArgumentError, match="model.spkc"):
        md.load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "last.spkc"
    old = md.model_entries(md.DepthNet(small_cfg(), seed=14))
    md.save_checkpoint(path, old)
    before = path.read_bytes()
    written = []

    def write_then_fail(fh, value):
        if written:
            raise KeyboardInterrupt
        written.append(value)
        real_write(fh, value)

    real_write = tz.write_tensor
    monkeypatch.setattr(tz, "write_tensor", write_then_fail)
    with pytest.raises(KeyboardInterrupt):
        md.save_checkpoint(path, md.model_entries(md.DepthNet(small_cfg(), seed=15)))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["last.spkc"]


def test_checkpoint_shape_mismatch(tmp_path):
    net = md.DepthNet(small_cfg(), seed=11)
    path = tmp_path / "model.spkc"
    entries = md.model_entries(net)
    name = "param." + param_names(net.params)[0]
    entries[name] = np.zeros((1, 1, 1, 1))
    md.save_checkpoint(path, entries)
    with pytest.raises(tz.DimensionError):
        md.load_model(path)


def test_checkpoint_missing_param(tmp_path):
    net = md.DepthNet(small_cfg(), seed=12)
    entries = md.model_entries(net)
    del entries["param." + param_names(net.params)[-1]]
    path = tmp_path / "model.spkc"
    md.save_checkpoint(path, entries)
    with pytest.raises(tz.ArgumentError):
        md.load_model(path)


@pytest.mark.parametrize("name", ["enc0.conv_bias", "enc9.conv"])
def test_checkpoint_unknown_param(tmp_path, name):
    # a weight the config's table does not list would be dropped silently
    net = md.DepthNet(small_cfg(), seed=12)
    entries = md.model_entries(net)
    assert name not in param_names(net.params)
    entries["param." + name] = np.zeros(4)
    entries["opt.t"] = np.float64(3.0)
    path = tmp_path / "model.spkc"
    md.save_checkpoint(path, entries)
    with pytest.raises(tz.ArgumentError, match="unknown parameter '%s'" % name):
        md.load_model(path)
    del entries["param." + name]
    md.save_checkpoint(path, entries)
    md.load_model(path)


@pytest.mark.parametrize("variant", md.ENCODER_VARIANTS)
@pytest.mark.parametrize("attention,binocular,reduction", [
    ("CS", False, 1), ("TCS", True, 2), ("T", False, 1), ("", True, 1)])
def test_param_shapes_match_the_built_model(variant, attention, binocular, reduction):
    cfg = small_cfg(encoder_variant=variant, attention=attention,
                    in_channels=4 if binocular else 2, reduction=reduction, layers=2)
    built = [(name, t.data.shape) for name, t in md.DepthNet(cfg).params]
    assert list(md.param_shapes(cfg).items()) == built

