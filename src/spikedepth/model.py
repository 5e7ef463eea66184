"""Spiking U-Net for depth: strided encoder, residual bottleneck, upsampling
decoder with a depth head per scale.

Encoder blocks halve the resolution with a bias-free 3x3 stride-2 conv and
feed an integrate-and-fire population. The block variant decides where
attention sits and which tensor propagates:

  CE       conv -> IF, continuous conv output propagates
  CE-Att   attention -> conv -> IF, continuous conv output propagates
  DE       conv -> IF, spike train propagates
  DE-Att1  attention -> conv -> IF, spike train propagates
  DE-Att2  conv -> attention -> IF, spike train propagates

Residual blocks (IF, conv, IF, conv, attention, plus identity) keep the
bottleneck scale. Decoder blocks upsample by 2 (nearest), gate with
attention, 3x3 conv, IF; the spike train plus the matching-scale skip tensor
feeds the next layer. Skips are elementwise sums, and the full-resolution
skip is the network input itself. Each decoder layer also taps the upsampled
tensor through a 1x1 conv into an integrator population whose membrane after
step T is that scale's depth map. The final depth is the last layer's
membrane cropped back to the input geometry.

Each population starts from a zero membrane, so samples are independent.
Firing statistics cover the spiking populations only (integrator heads never
fire). Synaptic operation counting distinguishes accumulate ops (conv windows
reading binary spike tensors, counted from actual spike positions) from the
dense multiply-accumulate total that the same network would spend with no
sparsity.
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from . import neurons as nr
from . import attention as at
from . import events as ev
from . import kv
from .tensor import Tensor

ENCODER_VARIANTS = ("CE", "DE", "CE-Att", "DE-Att1", "DE-Att2")
NEURON_MODES = ("spiking", "smooth")
RESIDUAL_BLOCKS = 2
KERNEL = 3


@dataclass(frozen=True)
class ModelConfig:
    height: int = 64
    width: int = 64
    time_steps: int = 5
    in_channels: int = 4
    base_channels: int = 8
    layers: int = 4
    encoder_variant: str = kv.choice("CE-Att", ENCODER_VARIANTS)
    attention: str = kv.letter_set("CS", at.MODULE_ORDER)
    reduction: int = 1
    v_threshold: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = 1.0
    neuron_mode: str = kv.choice("spiking", NEURON_MODES)
    conv_bias: bool = False

    def __post_init__(self):
        kv.check_choices(self)
        object.__setattr__(self, "attention", at.normalize_enabled(self.attention))
        for name in ("height", "width", "time_steps", "in_channels",
                     "base_channels", "layers", "reduction"):
            if getattr(self, name) < 1:
                raise tz.ArgumentError("%s must be >= 1, got %r" % (name, getattr(self, name)))
        self.if_params()  # rejects v_threshold <= v_reset and surrogate_alpha <= 0

    @property
    def channel_ladder(self):
        return [self.in_channels] + [self.base_channels * (1 << i)
                                     for i in range(self.layers)]

    def if_params(self):
        return nr.IFParams(v_threshold=self.v_threshold, v_reset=self.v_reset,
                           surrogate_alpha=self.surrogate_alpha, mode=self.neuron_mode)

    def integrator_params(self):
        return nr.IFParams(v_reset=self.v_reset, mode="integrator")


@dataclass
class SpikeStats:
    """Spike and neuron-step totals per block group."""

    encoder_spikes: float = 0.0
    encoder_steps: int = 0
    residual_spikes: float = 0.0
    residual_steps: int = 0
    decoder_spikes: float = 0.0
    decoder_steps: int = 0

    def _rate(self, spikes, steps):
        return spikes / steps if steps else 0.0

    @property
    def rate_encoder(self):
        return self._rate(self.encoder_spikes, self.encoder_steps)

    @property
    def rate_residual(self):
        return self._rate(self.residual_spikes, self.residual_steps)

    @property
    def rate_decoder(self):
        return self._rate(self.decoder_spikes, self.decoder_steps)

    @property
    def rate_total(self):
        spikes = self.encoder_spikes + self.residual_spikes + self.decoder_spikes
        steps = self.encoder_steps + self.residual_steps + self.decoder_steps
        return self._rate(spikes, steps)

    def merge(self, other):
        self.encoder_spikes += other.encoder_spikes
        self.encoder_steps += other.encoder_steps
        self.residual_spikes += other.residual_spikes
        self.residual_steps += other.residual_steps
        self.decoder_spikes += other.decoder_spikes
        self.decoder_steps += other.decoder_steps


@dataclass
class LayerActivations:
    """Spike trains recorded during one forward, grouped by block family."""

    encoder: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    decoder: list = field(default_factory=list)
    predictions: list = field(default_factory=list)


def count_spikes(acts):
    """Build firing statistics from recorded spike trains."""
    stats = SpikeStats()
    for s in acts.encoder:
        stats.encoder_spikes += float(s.data.sum())
        stats.encoder_steps += s.data.size
    for s in acts.residual:
        stats.residual_spikes += float(s.data.sum())
        stats.residual_steps += s.data.size
    for s in acts.decoder:
        stats.decoder_spikes += float(s.data.sum())
        stats.decoder_steps += s.data.size
    return stats


@dataclass
class OpCounts:
    """Synaptic-operation tallies for one or more forwards."""

    ac_ops: float = 0.0
    dense_macs: int = 0

    @property
    def sparsity_ratio(self):
        return self.ac_ops / self.dense_macs if self.dense_macs else 0.0

    def merge(self, other):
        self.ac_ops += other.ac_ops
        self.dense_macs += other.dense_macs


def _spike_incidences(x4, k, stride, padding):
    """Count (nonzero input, output window) pairs for one conv application."""
    nnz = (x4 != 0.0).astype(np.float64).sum(axis=1)
    if padding > 0:
        nnz = np.pad(nnz, ((0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(nnz, (k, k), axis=(1, 2))
    return float(win[:, ::stride, ::stride].sum())


class _Recorder:
    def __init__(self):
        self.ops = OpCounts()

    def conv(self, x, weight, stride, padding, out):
        t_steps = x.data.shape[0]
        c_out, c_in, k, _ = weight.data.shape
        ho, wo = out.data.shape[-2], out.data.shape[-1]
        self.ops.dense_macs += t_steps * c_out * ho * wo * c_in * k * k
        if x.is_spike:
            self.ops.ac_ops += c_out * _spike_incidences(x.data, k, stride, padding)

    def attention_macs(self, params, x_shape):
        t, c, h, w = x_shape
        if "T" in params.enabled:
            hidden = params.t_steps // params.reduction
            self.ops.dense_macs += 2 * 2 * t * hidden  # two branches, two layers
        if "C" in params.enabled:
            hidden = params.channels // params.reduction
            self.ops.dense_macs += 2 * 2 * t * c * hidden
        if "S" in params.enabled:
            self.ops.dense_macs += t * h * w * 2 * KERNEL * KERNEL


def _init_conv(shape, rng):
    fan_in = int(np.prod(shape[1:]))
    bound = np.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def _register_attention(store, prefix, params):
    for name, t in params.parameters():
        store.add(prefix + ".att." + name, t)


class _ConvLayer:
    """Bias-free conv by default; optional per-layer bias."""

    def __init__(self, store, name, c_in, c_out, k, rng, bias):
        self.weight = store.add(name, _init_conv((c_out, c_in, k, k), rng))
        self.bias = store.add(name + "_bias", tz.zeros((c_out,))) if bias else None
        self.stride = 1
        self.padding = (k - 1) // 2

    def __call__(self, x, rec):
        out = tz.conv2d(x, self.weight, stride=self.stride, padding=self.padding)
        rec.conv(x, self.weight, self.stride, self.padding, out)
        if self.bias is not None:
            out = tz.add(out, tz.reshape(self.bias, (self.bias.data.shape[0], 1, 1)))
        return out


class EncoderBlock:
    def __init__(self, cfg, c_in, c_out, store, prefix, rng):
        self.variant = cfg.encoder_variant
        self.conv = _ConvLayer(store, prefix + ".conv", c_in, c_out, KERNEL, rng,
                               cfg.conv_bias)
        self.conv.stride = 2
        self.att = None
        if self.variant in ("CE-Att", "DE-Att1", "DE-Att2"):
            att_channels = c_out if self.variant == "DE-Att2" else c_in
            self.att = at.AttentionParams(cfg.time_steps, att_channels,
                                          reduction=cfg.reduction,
                                          enabled=cfg.attention, rng=rng)
            _register_attention(store, prefix, self.att)
        self.neuron = cfg.if_params()

    def forward(self, x, rec, acts):
        if x.data.shape[-1] % 2 or x.data.shape[-2] % 2:
            raise tz.StateError("encoder expects even spatial dims, got %s"
                                % (x.data.shape,))
        if self.variant in ("CE-Att", "DE-Att1"):
            rec.attention_macs(self.att, x.data.shape)
            x = at.tcsa(x, self.att)
        y = self.conv(x, rec)
        if self.variant == "DE-Att2":
            rec.attention_macs(self.att, y.data.shape)
            y = at.tcsa(y, self.att)
        spikes, _ = nr.if_run(y, self.neuron)
        acts.encoder.append(spikes)
        return spikes if self.variant.startswith("DE") else y


class ResidualBlock:
    def __init__(self, cfg, channels, store, prefix, rng):
        self.conv1 = _ConvLayer(store, prefix + ".conv1", channels, channels,
                                KERNEL, rng, cfg.conv_bias)
        self.conv2 = _ConvLayer(store, prefix + ".conv2", channels, channels,
                                KERNEL, rng, cfg.conv_bias)
        self.att = at.AttentionParams(cfg.time_steps, channels,
                                      reduction=cfg.reduction,
                                      enabled=cfg.attention, rng=rng)
        _register_attention(store, prefix, self.att)
        self.neuron = cfg.if_params()

    def forward(self, x, rec, acts):
        s1, _ = nr.if_run(x, self.neuron)
        acts.residual.append(s1)
        y1 = self.conv1(s1, rec)
        s2, _ = nr.if_run(y1, self.neuron)
        acts.residual.append(s2)
        y2 = self.conv2(s2, rec)
        rec.attention_macs(self.att, y2.data.shape)
        gated = at.tcsa(y2, self.att)
        return tz.add(gated, x)


class DecoderBlock:
    def __init__(self, cfg, c_in, c_out, store, prefix, rng):
        self.conv = _ConvLayer(store, prefix + ".conv", c_in, c_out, KERNEL, rng,
                               cfg.conv_bias)
        self.head = _ConvLayer(store, prefix + ".head", c_in, 1, 1, rng, False)
        self.att = at.AttentionParams(cfg.time_steps, c_in,
                                      reduction=cfg.reduction,
                                      enabled=cfg.attention, rng=rng)
        _register_attention(store, prefix, self.att)
        self.neuron = cfg.if_params()
        self.head_neuron = cfg.integrator_params()

    def forward(self, x, skip, rec, acts):
        up = tz.nearest_upsample(x, 2)
        if skip.data.shape[0] != up.data.shape[0]:
            raise tz.DimensionError("skip time axis %d does not match %d"
                                    % (skip.data.shape[0], up.data.shape[0]))
        head_in = self.head(up, rec)
        _, membrane = nr.if_run(head_in, self.head_neuron)
        h, w = membrane.data.shape[-2], membrane.data.shape[-1]
        pred = tz.reshape(membrane, (h, w))
        acts.predictions.append(pred)
        rec.attention_macs(self.att, up.data.shape)
        gated = at.tcsa(up, self.att)
        y = self.conv(gated, rec)
        spikes, _ = nr.if_run(y, self.neuron)
        acts.decoder.append(spikes)
        if spikes.data.shape != skip.data.shape:
            raise tz.DimensionError("skip shape %s does not match decoder output %s"
                                    % (skip.data.shape, spikes.data.shape))
        return tz.add(spikes, skip), pred


class DepthNet:
    """Config-built network; parameters live in an ordered ParamStore."""

    def __init__(self, config, seed=0):
        self.config = config
        self.params = tz.ParamStore()
        rng = np.random.default_rng(seed)
        ladder = config.channel_ladder
        self.encoders = [EncoderBlock(config, ladder[i], ladder[i + 1],
                                      self.params, "enc%d" % i, rng)
                         for i in range(config.layers)]
        self.residuals = [ResidualBlock(config, ladder[-1], self.params,
                                        "res%d" % i, rng)
                          for i in range(RESIDUAL_BLOCKS)]
        self.decoders = [DecoderBlock(config, ladder[config.layers - i],
                                      ladder[config.layers - i - 1],
                                      self.params, "dec%d" % i, rng)
                         for i in range(config.layers)]
        self.last_activations = None
        self.last_ops = None

    def forward(self, stacked):
        """Run one sample; returns (depth, per-scale predictions, stats)."""
        x = stacked.data if isinstance(stacked, ev.StackedTensor) else tz.as_tensor(stacked)
        if x.data.ndim != 4:
            raise tz.DimensionError("input must be [T, C, H, W], got %s" % (x.data.shape,))
        t, c, h, w = x.data.shape
        if t != self.config.time_steps:
            raise tz.DimensionError("time axis is %d, model expects %d"
                                    % (t, self.config.time_steps))
        if c != self.config.in_channels:
            raise tz.DimensionError("channel axis is %d, model expects %d"
                                    % (c, self.config.in_channels))
        if not x.is_spike:
            vals = x.data
            if ((vals == 0.0) | (vals == 1.0)).all():
                x.is_spike = True

        rec = _Recorder()
        acts = LayerActivations()

        mult = 1 << self.config.layers
        padded = tz.pad_bottom_right(x, (-h) % mult, (-w) % mult)
        padded.is_spike = x.is_spike

        skips = [padded]
        cur = padded
        for block in self.encoders:
            cur = block.forward(cur, rec, acts)
            skips.append(cur)
        for block in self.residuals:
            cur = block.forward(cur, rec, acts)
        for i, block in enumerate(self.decoders):
            cur, _ = block.forward(cur, skips[self.config.layers - 1 - i], rec, acts)

        full = acts.predictions[-1]
        depth = full
        if full.data.shape != (h, w):
            depth = tz.slice_nd(full, ((0, h), (0, w)))

        self.last_activations = acts
        self.last_ops = rec.ops
        return depth, list(acts.predictions), count_spikes(acts)


# ---------------------------------------------------------------------------
# checkpoints

_CHECKPOINT_MAGIC = b"SPKC0001"


def save_checkpoint(path, entries):
    """Write named tensors in order: magic, count, then (name, tensor) pairs.

    The bytes go to a temporary file beside `path` that then replaces it, so
    a write cut off part-way leaves the previous checkpoint intact.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", len(entries)))
            for name, value in entries.items():
                raw = name.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise tz.ArgumentError("entry name too long: %r" % name[:40])
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                tz.write_tensor(fh, value)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    try:
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _CHECKPOINT_MAGIC:
                raise tz.ArgumentError("bad checkpoint magic %r" % (magic,))
            (count,) = struct.unpack("<I", tz.read_exact(fh, 4))
            entries = {}
            for _ in range(count):
                (nlen,) = struct.unpack("<H", tz.read_exact(fh, 2))
                name = tz.read_exact(fh, nlen).decode("utf-8")
                entries[name] = tz.read_tensor(fh)
    except (tz.ArgumentError, UnicodeDecodeError) as e:
        raise tz.ArgumentError("%s: %s" % (path, e)) from None
    return entries


def model_entries(model):
    entries = kv.to_entries(model.config)
    for name, tensor in model.params:
        entries["param." + name] = tensor.data
    return entries


def save_model(path, model, extra=None):
    entries = model_entries(model)
    if extra:
        for k, v in extra.items():
            entries[k] = np.asarray(v, dtype=np.float64)
    save_checkpoint(path, entries)


def param_shapes(config):
    """Name -> shape of every parameter DepthNet(config) holds, in store
    order, worked out without allocating any."""
    ladder, t_steps, red = config.channel_ladder, config.time_steps, config.reduction
    shapes = {}

    def conv(name, c_in, c_out, k=KERNEL, bias=config.conv_bias):
        shapes[name] = (c_out, c_in, k, k)
        if bias:
            shapes[name + "_bias"] = (c_out,)

    def att(prefix, channels):
        for letter, n in (("T", t_steps), ("C", channels)):
            if letter in config.attention:
                shapes["%s.att.%s_compress" % (prefix, letter.lower())] = (n // red, n)
                shapes["%s.att.%s_expand" % (prefix, letter.lower())] = (n, n // red)
        if "S" in config.attention:
            shapes[prefix + ".att.s_conv"] = (1, 2, 3, 3)

    for i in range(config.layers):
        conv("enc%d.conv" % i, ladder[i], ladder[i + 1])
        if config.encoder_variant == "DE-Att2":
            att("enc%d" % i, ladder[i + 1])
        elif config.encoder_variant in ("CE-Att", "DE-Att1"):
            att("enc%d" % i, ladder[i])
    for i in range(RESIDUAL_BLOCKS):
        conv("res%d.conv1" % i, ladder[-1], ladder[-1])
        conv("res%d.conv2" % i, ladder[-1], ladder[-1])
        att("res%d" % i, ladder[-1])
    for i in range(config.layers):
        c_in, c_out = ladder[config.layers - i], ladder[config.layers - i - 1]
        conv("dec%d.conv" % i, c_in, c_out)
        conv("dec%d.head" % i, c_in, 1, k=1, bias=False)
        att("dec%d" % i, c_in)
    return shapes


def load_model(path):
    """Rebuild the model a checkpoint describes; returns (model, raw entries).

    The stored parameters are checked against the shapes the stored config
    implies before the model is built, so a config they do not match (say
    cfg.layers = 40, whose widest weight alone needs GiBs) allocates nothing.
    """
    entries = load_checkpoint(path)
    cfg = ModelConfig(**kv.from_entries(ModelConfig, entries))
    for name, shape in param_shapes(cfg).items():
        key = "param." + name
        if key not in entries:
            raise tz.ArgumentError("checkpoint lacks parameter %r" % name)
        if entries[key].shape != shape:
            raise tz.DimensionError("parameter %r has shape %s, model expects %s"
                                    % (name, entries[key].shape, shape))
    model = DepthNet(cfg, seed=0)
    for name, tensor in model.params:
        tensor.data = np.asarray(entries["param." + name], dtype=np.float64)
    return model, entries
