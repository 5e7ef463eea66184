import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikedepth import tensor as tz
from spikedepth import neurons as nr
from spikedepth import model as md
from spikedepth import events as ev
from helpers import param_names, spike_trains, total_params


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


def test_channel_ladder():
    cfg = md.ModelConfig(in_channels=4, base_channels=8, layers=4)
    assert cfg.channel_ladder == [4, 8, 16, 32, 64]


# ---------------------------------------------------------------------------
# encoder block variants


def block_pair(variant, seed=3):
    """Same conv weights, one block with zeroed attention and one without any."""
    cfg_att = small_cfg(encoder_variant=variant)
    cfg_plain = small_cfg(encoder_variant="CE" if variant.startswith("CE") else "DE")
    store_a, store_b = tz.ParamStore(), tz.ParamStore()
    rng = np.random.default_rng(seed)
    blk_a = md.EncoderBlock(cfg_att, 2, 4, store_a, "enc0", rng)
    blk_b = md.EncoderBlock(cfg_plain, 2, 4, store_b, "enc0",
                            np.random.default_rng(seed))
    blk_b.conv.weight.data = blk_a.conv.weight.data.copy()
    if blk_a.att is not None:
        for _, t in blk_a.att.parameters():
            t.data = np.zeros_like(t.data)
    return blk_a, blk_b


def run_block(blk):
    counts = md.Counts()
    x = tz.Tensor(rand((2, 2, 8, 8), seed=5))
    out = blk.forward(x, counts)
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
    assert out_de.is_spike


def test_encoder_variants_attention_site():
    # DE-Att2 gates after the conv: zero gates quarter the IF drive, not the conv input
    cfg = small_cfg(encoder_variant="DE-Att2")
    store = tz.ParamStore()
    blk = md.EncoderBlock(cfg, 2, 4, store, "enc0", np.random.default_rng(9))
    assert blk.att.channels == 4
    cfg2 = small_cfg(encoder_variant="DE-Att1")
    blk2 = md.EncoderBlock(cfg2, 2, 4, tz.ParamStore(), "enc0",
                           np.random.default_rng(9))
    assert blk2.att.channels == 2


def test_encoder_requires_even_dims():
    cfg = small_cfg()
    blk = md.EncoderBlock(cfg, 2, 4, tz.ParamStore(), "enc0",
                          np.random.default_rng(1))
    counts = md.Counts()
    with pytest.raises(tz.StateError):
        blk.forward(tz.Tensor(np.zeros((2, 2, 7, 8))), counts)


# ---------------------------------------------------------------------------
# residual block


def test_residual_identity_on_dead_path():
    cfg = small_cfg()
    store = tz.ParamStore()
    blk = md.ResidualBlock(cfg, 4, store, "res0", np.random.default_rng(2))
    blk.conv1.weight.data = np.zeros_like(blk.conv1.weight.data)
    blk.conv2.weight.data = np.zeros_like(blk.conv2.weight.data)
    x = rand((2, 4, 4, 4), seed=6)
    counts = md.Counts()
    out = blk.forward(tz.Tensor(x), counts)
    np.testing.assert_array_equal(out.data, x)


def test_residual_additive_structure():
    cfg = small_cfg()
    blk = md.ResidualBlock(cfg, 4, tz.ParamStore(), "res0", np.random.default_rng(4))
    x = rand((2, 4, 4, 4), seed=7)
    counts = md.Counts()
    out = blk.forward(tz.Tensor(x), counts)
    assert out.data.shape == x.shape
    # subtracting the identity leaves the gated branch, bounded by the conv range
    assert not np.array_equal(out.data, x)


# ---------------------------------------------------------------------------
# decoder block


def test_decoder_shapes_and_head_accumulation():
    cfg = small_cfg(time_steps=3)
    store = tz.ParamStore()
    blk = md.DecoderBlock(cfg, 8, 4, store, "dec0", np.random.default_rng(5))
    x = rand((3, 8, 4, 4), seed=8)
    skip = rand((3, 4, 8, 8), seed=9)
    counts = md.Counts()
    out, pred = blk.forward(tz.Tensor(x), tz.Tensor(skip), counts)
    assert out.data.shape == (3, 4, 8, 8)
    assert pred.data.shape == (8, 8)
    # integrator head: membrane equals the sum of per-step head responses
    up = np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1)
    w = blk.head.weight.data[:, :, 0, 0]
    manual = np.einsum("tchw,oc->tohw", up, w).sum(axis=0)[0]
    np.testing.assert_allclose(pred.data, manual, rtol=1e-12)


def test_decoder_zero_input_zero_membrane():
    cfg = small_cfg()
    blk = md.DecoderBlock(cfg, 8, 4, tz.ParamStore(), "dec0", np.random.default_rng(6))
    counts = md.Counts()
    out, pred = blk.forward(tz.Tensor(np.zeros((2, 8, 4, 4))),
                            tz.Tensor(np.zeros((2, 4, 8, 8))), counts)
    np.testing.assert_array_equal(pred.data, np.zeros((8, 8)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4, 8, 8)))


def test_decoder_skip_shape_mismatch():
    cfg = small_cfg()
    blk = md.DecoderBlock(cfg, 8, 4, tz.ParamStore(), "dec0", np.random.default_rng(7))
    counts = md.Counts()
    with pytest.raises(tz.DimensionError):
        blk.forward(tz.Tensor(np.zeros((2, 8, 4, 4))),
                    tz.Tensor(np.zeros((2, 4, 4, 4))), counts)


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
    cfg = md.ModelConfig(height=260, width=346, time_steps=1, in_channels=2,
                         base_channels=4, layers=4)
    net = md.DepthNet(cfg, seed=3)
    x = tz.Tensor(rand((1, 2, 260, 346), seed=11, lo=0.0, hi=2.0))
    depth, preds, _ = net.forward(x)
    assert depth.data.shape == (260, 346)
    assert preds[-1].data.shape == (272, 352)
    assert np.isfinite(depth.data).all()


def test_forward_deterministic_replay():
    net = md.DepthNet(small_cfg(), seed=4)
    x = tz.Tensor(rand((2, 2, 32, 32), seed=12, lo=0.0, hi=3.0))
    d1, _, s1 = net.forward(x)
    d2, _, s2 = net.forward(x)
    np.testing.assert_array_equal(d1.data, d2.data)
    assert s1 == s2


def test_default_forward_tape_has_one_entry_per_if_population():
    # 12 spiking populations and 4 integrator heads are one entry each; the
    # input requires a gradient, so enc0's attention over it is taped too
    net = md.DepthNet(md.ModelConfig(), seed=0)
    x = tz.Tensor(rand((5, 4, 64, 64), seed=14, lo=0.0, hi=2.0), requires_grad=True)
    with tz.Tape() as tape:
        net.forward(x)
    kinds = [bw.__qualname__.split(".<locals>")[0] for _, _, bw in tape._ops]
    assert kinds.count("if_run") == 16
    assert len(tape) == 236


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
        loss = tz.sum_all(tz.mul(depth, depth))
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
    got = md._spike_incidences(x, 3, 2, 1)
    assert got == brute_incidences(x, 3, 2, 1)
    got1 = md._spike_incidences(x, 1, 1, 0)
    assert got1 == brute_incidences(x, 1, 1, 0)


def test_op_counts_dense_is_input_independent():
    net = md.DepthNet(small_cfg(), seed=7)
    net.forward(tz.Tensor(rand((2, 2, 32, 32), seed=16, lo=0.0, hi=3.0)))
    first = net.last_ops.dense_macs
    net.forward(tz.Tensor(np.zeros((2, 2, 32, 32))))
    assert net.last_ops.dense_macs == first
    assert net.last_ops.ac_ops >= 0


def test_binarized_input_counts_first_conv_as_ac():
    net = md.DepthNet(small_cfg(encoder_variant="DE"), seed=8)
    x = (rand((2, 2, 32, 32), seed=17) > 1.0).astype(np.float64)
    net.forward(tz.Tensor(x))
    # first conv consumes the binary input, later convs consume spike sums or spikes
    c_out = net.encoders[0].conv.weight.data.shape[0]
    want_first = c_out * md._spike_incidences(x, 3, 2, 1)
    assert net.last_ops.ac_ops >= want_first
    zero = np.zeros((2, 2, 32, 32))
    net.forward(tz.Tensor(zero))
    assert net.last_ops.ac_ops == 0.0


def test_sparsity_ratio_bounds():
    net = md.DepthNet(small_cfg(encoder_variant="DE"), seed=9)
    x = (rand((2, 2, 32, 32), seed=18) > 0.8).astype(np.float64)
    net.forward(tz.Tensor(x))
    r = net.last_ops.sparsity_ratio
    assert 0.0 <= r < 1.0


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


@pytest.mark.parametrize("variant", md.ENCODER_VARIANTS)
@pytest.mark.parametrize("attention,conv_bias,reduction", [
    ("CS", False, 1), ("TCS", True, 2), ("T", False, 1), ("", True, 1)])
def test_param_shapes_match_the_built_model(variant, attention, conv_bias, reduction):
    cfg = small_cfg(encoder_variant=variant, attention=attention, conv_bias=conv_bias,
                    reduction=reduction, layers=2)
    built = [(name, t.data.shape) for name, t in md.DepthNet(cfg).params]
    assert list(md.param_shapes(cfg).items()) == built

