"""Spiking U-Net for depth: strided encoder, residual bottleneck, upsampling
decoder with a depth head per scale.

Encoder blocks halve the resolution with a bias-free 3x3 stride-2 conv and
feed an integrate-and-fire population. The `_ENCODER_LAYOUT` table gives
each block variant's gate (attention before the conv, after it, or none) and
whether the block passes on its spike train (DE) or its continuous conv
output (CE). In the CE variants the spikes reach only the counts, so their
population runs on an untaped view of the conv output and keeps nothing on
the tape.

Residual blocks (IF, conv, IF, conv, attention, plus identity) keep the
bottleneck scale. Each decoder layer reads its scale's depth map from
non-spiking output neurons: a bias-free 1x1 conv head drives them, their
membrane only accumulates over the T steps, and the membrane after step T,
upsampled by 2 (nearest), is that map (`_depth_head`, one tape entry). The
head runs on the layer's input before the upsample: a 1x1 conv and a sum
over steps commute with nearest upsampling, so the map is the one a head on
the upsampled input would give, from a quarter of the pixels. Every layer
but the last then upsamples its input by 2, gates it with attention, 3x3
conv, IF, and adds the matching encoder output as an elementwise skip; that
sum feeds the next layer. The upsample is folded into the gate: the layer
hands its input and the factor 2 to its site, which upsamples, pools and
gates as one tape entry that keeps the input rather than its 4x copy or any
gated intermediate. The last layer stops at its depth head, whose map is
the final depth. An input that 2**layers does not divide is zero-padded on
the bottom/right, and that head crops its map back to the input geometry
inside the same tape entry.

Every gating site is one `_gate` call: `attention.tcsa` on the block's
tensor with the site's weight dict (`<block>.att.*` in the store, whose names
say which gates are on), priced by `attention.site_macs`.

Every weight's name and shape comes from one table, `param_shapes(config)`
(with `attention.weight_shapes` for each gating site): DepthNet fills its
store from it, the blocks look their tensors up there by name, and a
checkpoint stores each entry as `param.<name>`.

Each population starts from a zero membrane, so samples are independent.
A forward tallies its cost in one `Counts` record as it runs: spikes and
neuron-steps per block group as each spiking population fires (a depth
head's output neurons never fire), accumulate ops for every conv fed a
binary spike train (counted from the actual spike positions), and the dense
multiply-accumulate total of every conv, gate and depth head, the dec0-dec2
heads included, though only the multiscale loss reads their maps. Dense MACs
are the architecture's cost: each head counts at the upsampled resolution it
predicts, not at the input resolution it runs on.

The blocks tell each conv whether it is fed spikes: enc0's is when the input
holds only 0s and 1s, a later encoder's when the encoder before it is a DE
variant in spiking mode, and a residual conv's in spiking mode. A gate in
front of an encoder conv (CE-Att, DE-Att1) makes its input continuous; a
decoder conv or depth head never reads spikes.
"""

import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as tz
from . import neurons as nr
from . import attention as at
from . import events as ev
from . import kv
from .tensor import Tensor

# variant -> (its gate: "before" the conv, "after" it or None; whether it passes on
# its spike train); the order is the checkpoint's cfg.encoder_variant index
_ENCODER_LAYOUT = {"CE": (None, False), "DE": (None, True), "CE-Att": ("before", False),
                   "DE-Att1": ("before", True), "DE-Att2": ("after", True)}
ENCODER_VARIANTS = tuple(_ENCODER_LAYOUT)
RESIDUAL_BLOCKS = 2
KERNEL = 3


@dataclass(frozen=True)
class ModelConfig:
    height: int = kv.at_least(64, 1)
    width: int = kv.at_least(64, 1)
    time_steps: int = kv.at_least(5, 1)
    in_channels: int = kv.at_least(4, 1)
    base_channels: int = kv.at_least(8, 1)
    layers: int = kv.at_least(4, 1)
    encoder_variant: str = kv.choice("CE-Att", ENCODER_VARIANTS)
    attention: str = kv.letter_set("CS", at.MODULE_ORDER)
    reduction: int = kv.at_least(1, 1)
    v_threshold: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = kv.positive(1.0)
    neuron_mode: str = kv.choice("spiking", nr.MODES)

    def __post_init__(self):
        kv.check_fields(self, tz.ArgumentError)
        # each letter once, in TCS order, as a dumped config writes it
        object.__setattr__(self, "attention",
                           "".join(m for m in at.MODULE_ORDER if m in self.attention))
        if not self.v_threshold > self.v_reset:
            raise tz.ArgumentError("v_threshold (%r) must exceed v_reset (%r)"
                                   % (self.v_threshold, self.v_reset))
        param_shapes(self)  # rejects a reduction that does not divide a gated axis

    @property
    def channel_ladder(self):
        return [self.in_channels] + [self.base_channels * (1 << i)
                                     for i in range(self.layers)]


def _spike_incidences(x4, k, stride):
    """Count (nonzero input, output window) pairs for one same-padded conv application."""
    p = k // 2
    nnz = np.pad((x4 != 0.0).astype(np.float64).sum(axis=1), ((0, 0), (p, p), (p, p)))
    win = np.lib.stride_tricks.sliding_window_view(nnz, (k, k), axis=(1, 2))
    return float(win[:, ::stride, ::stride].sum())


@dataclass
class Counts:
    """Spikes, neuron-steps and synaptic ops of one or more forwards.

    Spikes and neuron-steps are kept per block group over the spiking
    populations; every field is an exact integer, so `merge` adds runs
    without rounding.
    """

    encoder_spikes: float = 0.0
    encoder_steps: int = 0
    residual_spikes: float = 0.0
    residual_steps: int = 0
    decoder_spikes: float = 0.0
    decoder_steps: int = 0
    ac_ops: float = 0.0
    dense_macs: int = 0

    def merge(self, other):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def fire(self, group, spikes):
        """Add a population's spike train to its group ("encoder", ...)."""
        setattr(self, group + "_spikes",
                getattr(self, group + "_spikes") + float(spikes.data.sum()))
        setattr(self, group + "_steps", getattr(self, group + "_steps") + spikes.data.size)

    def conv(self, x, weight, stride, out_hw, spikes):
        """Dense MACs of one conv at the output resolution out_hw (h, w), plus
        its ACs when x is a binary spike train (spikes)."""
        c_out, c_in, k, _ = weight.data.shape
        ho, wo = out_hw
        self.dense_macs += x.data.shape[0] * c_out * ho * wo * c_in * k * k
        if spikes:
            self.ac_ops += c_out * _spike_incidences(x.data, k, stride)

    def _rate(self, *groups):
        spikes = sum(getattr(self, g + "_spikes") for g in groups)
        steps = sum(getattr(self, g + "_steps") for g in groups)
        return spikes / steps if steps else 0.0

    @property
    def rate_encoder(self):
        return self._rate("encoder")

    @property
    def rate_residual(self):
        return self._rate("residual")

    @property
    def rate_decoder(self):
        return self._rate("decoder")

    @property
    def rate_total(self):
        return self._rate("encoder", "residual", "decoder")

    @property
    def sparsity_ratio(self):
        return self.ac_ops / self.dense_macs if self.dense_macs else 0.0


def draw_weights(shapes, rng):
    """Arrays for a name -> shape table in table order, uniform in +-1/sqrt(fan_in)."""
    out = {}
    for name, shape in shapes.items():
        bound = np.sqrt(1.0 / int(np.prod(shape[1:])))
        out[name] = rng.uniform(-bound, bound, size=shape)
    return out


def _conv(x, weight, counts, spikes, stride=1):
    """tz.conv2d of x by weight, tallied in counts (see Counts.conv); spikes
    says whether x is a binary spike train."""
    out = tz.conv2d(x, weight, stride=stride)
    counts.conv(x, weight, stride, out.data.shape[-2:], spikes)
    return out


def _gate(x, weights, counts, upsample=1):
    """at.tcsa of x by one site's weight dict, its at.site_macs added to counts."""
    out = at.tcsa(x, weights, upsample)
    counts.dense_macs += at.site_macs(weights, out.data.shape)
    return out


def _depth_head(x, weight, counts, size=None):
    """The depth map [2h, 2w] that a 1x1 head reads from x [T, C, h, w], as one tape entry,
    or its top-left size = (H, W) crop when given.

    The head weight [1, C, 1, 1] drives one non-spiking neuron per pixel,
    whose membrane sums the T head responses from zero; the map is that
    membrane upsampled by 2 (nearest). The backward zero-pads the map's
    gradient g back to 2h x 2w on the bottom/right and sums each 2 x 2 block,
    which reaches every step alike: gW = sum_t g x_t^T and gx_t = W^T g. MACs
    are counted at the uncropped map's resolution; x is never a spike tensor
    (every decoder input is a sum), so no ACs are counted.
    """
    shape, need_gx = x.data.shape, x.requires_grad
    t, c, h, w = shape
    ph, pw = (0, 0) if size is None else (2 * h - size[0], 2 * w - size[1])
    w2 = weight.data.reshape(1, c)
    x3 = x.data.reshape(t, c, h * w)
    y = np.matmul(w2, x3)
    v = np.zeros((1, h * w))
    for step in range(t):
        v = v + y[step]
    pred = Tensor(tz._upsample(v.reshape(h, w), 2)[:2 * h - ph, :2 * w - pw])
    counts.conv(x, weight, 1, (2 * h, 2 * w), False)

    def bw(g):
        if ph or pw:
            g = np.pad(g, ((0, ph), (0, pw)))
        g3 = np.broadcast_to(tz._block_sum(g, 2).reshape(1, 1, h * w), (t, 1, h * w))
        gw = np.matmul(g3, x3.transpose(0, 2, 1)).sum(axis=0).reshape(1, c, 1, 1)
        return (np.multiply(w2.T, g3).reshape(shape) if need_gx else None), gw

    tz.record(pred, (x, weight), bw)
    return pred


class EncoderBlock:
    def __init__(self, cfg, store, prefix):
        self.gate_at, self.passes_spikes = _ENCODER_LAYOUT[cfg.encoder_variant]
        self.conv = store.group(prefix + ".")["conv"]
        self.att = store.group(prefix + ".att.")
        self.cfg = cfg

    def forward(self, x, spikes, counts):
        """The block output; spikes says whether x is a binary spike train."""
        if self.gate_at == "before":
            x = _gate(x, self.att, counts)
            spikes = spikes and not self.att  # a gated input is not binary
        y = _conv(x, self.conv, counts, spikes, stride=2)
        if self.gate_at == "after":
            y = _gate(y, self.att, counts)
        # a CE block propagates y, so its spikes reach only the counts: fired
        # from an untaped view of y, the population keeps nothing on the tape
        spikes = nr.if_run(y if self.passes_spikes else Tensor(y.data), self.cfg)
        counts.fire("encoder", spikes)
        return spikes if self.passes_spikes else y


class ResidualBlock:
    def __init__(self, cfg, store, prefix):
        weights = store.group(prefix + ".")
        self.conv1 = weights["conv1"]
        self.conv2 = weights["conv2"]
        self.att = store.group(prefix + ".att.")
        self.cfg = cfg

    def forward(self, x, counts):
        spiking = self.cfg.neuron_mode == "spiking"
        s1 = nr.if_run(x, self.cfg)
        counts.fire("residual", s1)
        y1 = _conv(s1, self.conv1, counts, spiking)
        s2 = nr.if_run(y1, self.cfg)
        counts.fire("residual", s2)
        y2 = _conv(s2, self.conv2, counts, spiking)
        return tz.add(_gate(y2, self.att, counts), x)


class DecoderBlock:
    def __init__(self, cfg, store, prefix):
        weights = store.group(prefix + ".")
        self.conv = weights["conv"]
        self.head = weights["head"]
        self.att = store.group(prefix + ".att.")
        self.cfg = cfg

    def forward(self, x, skip, counts, size=None):
        """(skip + spikes, depth map), or (None, depth map cropped to size
        (H, W)) with no skip.

        The depth head runs on x and upsamples only its map, so no [T, C]
        tensor at the upsampled scale is made for the head.
        """
        if skip is None:
            return None, _depth_head(x, self.head, counts, size)
        pred = _depth_head(x, self.head, counts)
        gated = _gate(x, self.att, counts, upsample=2)
        y = _conv(gated, self.conv, counts, False)
        spikes = nr.if_run(y, self.cfg)
        counts.fire("decoder", spikes)
        return tz.add(spikes, skip), pred


class DepthNet:
    """Config-built network. Its ParamStore holds the `param_shapes(config)`
    table in order, given as `weights` (name -> array) or drawn from `seed`;
    each block then takes its tensors from the store by name."""

    def __init__(self, config, seed=0, weights=None):
        self.config = config
        shapes = param_shapes(config)
        if weights is None:
            weights = draw_weights(shapes, np.random.default_rng(seed))
        self.params = tz.ParamStore()
        for name in shapes:
            self.params.add(name, Tensor(weights[name]))
        self.encoders = [EncoderBlock(config, self.params, "enc%d" % i)
                         for i in range(config.layers)]
        self.residuals = [ResidualBlock(config, self.params, "res%d" % i)
                          for i in range(RESIDUAL_BLOCKS)]
        self.decoders = [DecoderBlock(config, self.params, "dec%d" % i)
                         for i in range(config.layers)]
        self.last_ops = None

    def forward(self, stacked):
        """Run one sample; returns (depth, per-scale predictions, Counts).

        An H or W that 2**layers does not divide is zero-padded on the
        bottom/right, and the last head crops its map, the depth, back to H x W.
        The input is never differentiated, so one that requires a gradient is
        an ArgumentError.
        """
        x = stacked.data if isinstance(stacked, ev.StackedTensor) else tz.as_tensor(stacked)
        if x.requires_grad:
            raise tz.ArgumentError("forward does not differentiate its input; "
                                   "pass it without requires_grad")
        if x.data.ndim != 4:
            raise tz.DimensionError("input must be [T, C, H, W], got %s" % (x.data.shape,))
        t, c, h, w = x.data.shape
        if t != self.config.time_steps:
            raise tz.DimensionError("time axis is %d, model expects %d"
                                    % (t, self.config.time_steps))
        if c != self.config.in_channels:
            raise tz.DimensionError("channel axis is %d, model expects %d"
                                    % (c, self.config.in_channels))

        counts = Counts()
        mult = 1 << self.config.layers
        pad = ((0, 0), (0, 0), (0, (-h) % mult), (0, (-w) % mult))
        cur = Tensor(np.pad(x.data, pad)) if h % mult or w % mult else x
        skips = [None]  # the last decoder layer joins no skip
        # enc0 reads spikes when the input is binary, a later encoder when the
        # encoder before it propagates a spiking population's output
        spikes = bool(((x.data == 0.0) | (x.data == 1.0)).all())
        for block in self.encoders:
            cur = block.forward(cur, spikes, counts)
            skips.append(cur)
            spikes = block.passes_spikes and self.config.neuron_mode == "spiking"
        for block in self.residuals:
            cur = block.forward(cur, counts)
        preds = []
        for i, block in enumerate(self.decoders):
            cur, pred = block.forward(cur, skips[self.config.layers - 1 - i], counts, (h, w))
            preds.append(pred)
        self.last_ops = counts
        return preds[-1], preds, counts


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
                if name in entries:
                    raise tz.ArgumentError("repeated entry %r" % name)
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
    """Name -> shape of every DepthNet(config) weight, in store and draw order.

    This table is the model's weight layout: DepthNet builds its store from
    it, load_model checks checkpoints against it, and the checkpoint names
    its entries after it (`param.` + name). Worked out without allocating;
    raises ArgumentError when the reduction does not divide a gated axis.
    """
    ladder = config.channel_ladder
    shapes = {}

    def conv(name, c_in, c_out, k=KERNEL):
        shapes[name] = (c_out, c_in, k, k)

    def att(prefix, channels):
        for name, shape in at.weight_shapes(config.time_steps, channels, config.reduction,
                                            config.attention).items():
            shapes[prefix + ".att." + name] = shape

    gate_at = _ENCODER_LAYOUT[config.encoder_variant][0]
    for i in range(config.layers):
        conv("enc%d.conv" % i, ladder[i], ladder[i + 1])
        if gate_at:  # on the conv's input or output channels
            att("enc%d" % i, ladder[i + (gate_at == "after")])
    for i in range(RESIDUAL_BLOCKS):
        conv("res%d.conv1" % i, ladder[-1], ladder[-1])
        conv("res%d.conv2" % i, ladder[-1], ladder[-1])
        att("res%d" % i, ladder[-1])
    for i in range(config.layers):
        c_in, c_out = ladder[config.layers - i], ladder[config.layers - i - 1]
        conv("dec%d.conv" % i, c_in, c_out)
        conv("dec%d.head" % i, c_in, 1, k=1)
        att("dec%d" % i, c_in)
    return shapes


def load_model(path):
    """Rebuild the model a checkpoint describes; returns (model, raw entries).

    The stored parameters are checked against the table the stored config
    implies (no entry missing, none extra, every shape as listed) and for
    non-finite values before the model is built, so a config they do not
    match (say cfg.layers = 40, whose widest weight alone needs GiBs)
    allocates nothing.
    """
    entries = load_checkpoint(path)
    cfg = ModelConfig(**kv.from_entries(ModelConfig, entries))
    shapes = param_shapes(cfg)
    for key in entries:
        if key.startswith("param.") and key[6:] not in shapes:
            raise tz.ArgumentError("checkpoint has unknown parameter %r" % key[6:])
    for name, shape in shapes.items():
        key = "param." + name
        if key not in entries:
            raise tz.ArgumentError("checkpoint lacks parameter %r" % name)
        if entries[key].shape != shape:
            raise tz.DimensionError("parameter %r has shape %s, model expects %s"
                                    % (name, entries[key].shape, shape))
        if not np.isfinite(entries[key]).all():
            raise tz.ArgumentError("parameter %r holds a non-finite value" % name)
    model = DepthNet(cfg, weights={name: entries["param." + name] for name in shapes})
    return model, entries
