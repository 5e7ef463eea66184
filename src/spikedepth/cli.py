"""Command-line harness: synthesize, stack, train, evaluate, predict, inspect.

Every run is a pure function of its config file and dataset: logs, checkpoints,
and reports contain no timestamps and print floats via repr, so identical
inputs give byte-identical outputs.

Exit codes: 0 success, 2 usage or validation failure, 3 numerical failure.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import attention as at
from . import events as ev
from . import losses as ls
from . import model as md
from . import synth as sy
from . import tensor as tz

STACK_MODES = ("cumulative", "repeat")


class CliError(Exception):
    """User-facing failure with its process exit code."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    height: int = 64
    width: int = 64
    time_steps: int = 5
    in_channels: int = 4
    base_channels: int = 8
    layers: int = 4
    encoder_variant: str = "CE-Att"
    attention: str = "CS"
    reduction: int = 1
    neuron_mode: str = "spiking"
    v_threshold: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = 1.0
    conv_bias: bool = False
    lambda_reg: float = 0.5
    ssi_sign: str = "minus"
    multiscale_loss: bool = False
    learning_rate: float = 0.002
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-08
    epochs: int = 10
    milestone_fractions: tuple = (0.5, 0.75)
    windows_per_step: int = 1
    val_fraction: float = 0.2
    stack_mode: str = "cumulative"
    binarize: bool = False
    data_dir: str = ""
    out_dir: str = ""

    def __post_init__(self):
        if self.in_channels not in (2, 4):
            raise tz.ArgumentError("in_channels must be 2 (mono) or 4 (binocular), "
                                   "got %d" % self.in_channels)
        if self.stack_mode not in STACK_MODES:
            raise tz.ArgumentError("stack_mode must be one of %s, got %r"
                                   % (STACK_MODES, self.stack_mode))
        if self.ssi_sign not in ls.SSI_SIGNS:
            raise tz.ArgumentError("ssi_sign must be one of %s, got %r"
                                   % (ls.SSI_SIGNS, self.ssi_sign))
        if self.epochs < 1:
            raise tz.ArgumentError("epochs must be >= 1, got %d" % self.epochs)
        if self.windows_per_step < 1:
            raise tz.ArgumentError("windows_per_step must be >= 1, got %d"
                                   % self.windows_per_step)
        if not 0.0 <= self.val_fraction < 1.0:
            raise tz.ArgumentError("val_fraction must lie in [0, 1), got %r"
                                   % (self.val_fraction,))
        if self.learning_rate <= 0:
            raise tz.ArgumentError("learning_rate must be positive, got %r"
                                   % (self.learning_rate,))
        if self.adam_eps <= 0:
            raise tz.ArgumentError("adam_eps must be positive, got %r"
                                   % (self.adam_eps,))
        for f in self.milestone_fractions:
            if not 0.0 < f <= 1.0:
                raise tz.ArgumentError("milestone fractions must lie in (0, 1], got %r"
                                       % (f,))
        object.__setattr__(self, "attention", at.normalize_enabled(self.attention))
        # variant/geometry constraints live in ModelConfig
        self.model_config()

    def model_config(self):
        return md.ModelConfig(height=self.height, width=self.width,
                              time_steps=self.time_steps,
                              in_channels=self.in_channels,
                              base_channels=self.base_channels, layers=self.layers,
                              encoder_variant=self.encoder_variant,
                              attention=self.attention, reduction=self.reduction,
                              v_threshold=self.v_threshold, v_reset=self.v_reset,
                              surrogate_alpha=self.surrogate_alpha,
                              neuron_mode=self.neuron_mode, conv_bias=self.conv_bias)

    def loss_config(self):
        return ls.LossConfig(lambda_reg=self.lambda_reg, ssi_sign=self.ssi_sign)


_INT_KEYS = frozenset(("seed", "height", "width", "time_steps", "in_channels",
                       "base_channels", "layers", "reduction", "epochs",
                       "windows_per_step"))
_FLOAT_KEYS = frozenset(("v_threshold", "v_reset", "surrogate_alpha", "lambda_reg",
                         "learning_rate", "adam_beta1", "adam_beta2", "adam_eps",
                         "val_fraction"))
_STR_KEYS = frozenset(("encoder_variant", "attention", "neuron_mode", "ssi_sign",
                       "stack_mode", "data_dir", "out_dir"))
_BOOL_KEYS = frozenset(("conv_bias", "multiscale_loss", "binarize"))
_LIST_KEYS = frozenset(("milestone_fractions",))


def _parse_value(key, value, line_no):
    where = "line %d" % line_no
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise CliError("%s: %s must be an integer, got %r" % (where, key, value))
    if key in _FLOAT_KEYS:
        try:
            return float(value)
        except ValueError:
            raise CliError("%s: %s must be a number, got %r" % (where, key, value))
    if key in _BOOL_KEYS:
        if value not in ("true", "false"):
            raise CliError("%s: %s must be true or false, got %r" % (where, key, value))
        return value == "true"
    if key in _LIST_KEYS:
        parts = [p.strip() for p in value.split(",") if p.strip()]
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise CliError("%s: %s must be comma-separated numbers, got %r"
                           % (where, key, value))
    return value


def parse_run_config(text):
    """Flat key = value lines with # comments; unknown keys are hard errors."""
    if hasattr(text, "read"):
        text = text.read()
    known = {f.name for f in fields(RunConfig)}
    out = {}
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError("line %d: expected key = value, got %r" % (i, raw))
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise CliError("line %d: unknown config key %r" % (i, key))
        if key in out:
            raise CliError("line %d: duplicate config key %r" % (i, key))
        out[key] = _parse_value(key, value, i)
    return RunConfig(**out)


def serialize_run_config(cfg):
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, float):
            text = repr(v)
        elif isinstance(v, tuple):
            text = ", ".join(repr(x) for x in v)
        else:
            text = str(v)
        lines.append("%s = %s" % (f.name, text))
    return "\n".join(lines) + "\n"


def load_run_config(path):
    try:
        text = ev.read_text(path)
    except OSError as e:
        raise CliError("cannot read config: %s" % e)
    return parse_run_config(text)


# ---------------------------------------------------------------------------
# dataset plumbing


@dataclass
class WindowSample:
    x: ev.StackedTensor
    gt: ev.DepthFrame


def _stack_fn(mode):
    return ev.cumulative_stack if mode == "cumulative" else ev.repeat_stack


def load_windows(data_dir, height, width, t_steps, in_channels, stack_mode, binarize):
    """Stack every manifest window and pair it with aligned ground truth."""
    man_path = os.path.join(data_dir, sy.MANIFEST_NAME)
    if not os.path.isfile(man_path):
        raise CliError("no dataset manifest at %s" % man_path)
    man = sy.load_manifest(man_path)
    if (man.height, man.width) != (height, width):
        raise CliError("dataset frames are %dx%d but the model expects %dx%d"
                       % (man.height, man.width, height, width))
    if man.n_windows < 1:
        raise CliError("dataset has no windows")
    if in_channels == 4 and not (man.binocular and man.events_right):
        raise CliError("4-channel input needs a binocular dataset with "
                       "right-camera events")
    left = ev.load_events(os.path.join(data_dir, man.events_left))
    right = None
    if in_channels == 4:
        right = ev.load_events(os.path.join(data_dir, man.events_right))
    gt_frames = [ev.load_depth_frame(os.path.join(data_dir, name))
                 for name in man.gt_files]
    stack = _stack_fn(stack_mode)
    samples = []
    for start in man.window_starts:
        x = stack(left, start, man.window_len_us, t_steps, man.height, man.width,
                  binarize)
        if right is not None:
            x = ev.binocular_concat(x, stack(right, start, man.window_len_us,
                                             t_steps, man.height, man.width,
                                             binarize))
        gt = ev.align_ground_truth(gt_frames, start, man.window_len_us)
        samples.append(WindowSample(x=x, gt=gt))
    return samples


def _downsample_frame(gt, factor):
    """Block-average depth; a block is valid only when every pixel is."""
    h, w = gt.depth.data.shape
    d = gt.depth.data.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))
    v = gt.valid.reshape(h // factor, factor, w // factor, factor).all(axis=(1, 3))
    return ev.DepthFrame(depth=tz.Tensor(d * v), valid=v, t=gt.t)


def window_loss(depth, preds, gt, loss_cfg, multiscale, layers):
    """Loss on the final prediction, plus per-scale terms when enabled."""
    loss = ls.total_loss(depth, gt, loss_cfg)
    if multiscale:
        for i, p in enumerate(preds[:-1]):
            small = _downsample_frame(gt, 1 << (layers - 1 - i))
            loss = tz.add(loss, ls.total_loss(p, small, loss_cfg))
    return loss


def evaluate_dataset(model, samples, loss_cfg):
    """Mean losses, MDE, spike rates, and op counts over a window list."""
    stats = md.SpikeStats()
    ops = md.OpCounts()
    sums = {"mde_cm": 0.0, "loss_ssi": 0.0, "loss_reg": 0.0, "loss_total": 0.0}
    for s in samples:
        depth, _, st = model.forward(s.x)
        ssi = ls.ssi_loss(depth, s.gt, loss_cfg).item()
        reg = ls.reg_loss(depth, s.gt).item()
        sums["mde_cm"] += ls.mde_cm(depth, s.gt)
        sums["loss_ssi"] += ssi
        sums["loss_reg"] += reg
        sums["loss_total"] += ssi + loss_cfg.lambda_reg * reg
        stats.merge(st)
        ops.merge(model.last_ops)
    n = len(samples)
    metrics = {k: v / n for k, v in sums.items()}
    metrics["firing_rate_encoder"] = stats.rate_encoder
    metrics["firing_rate_residual"] = stats.rate_residual
    metrics["firing_rate_decoder"] = stats.rate_decoder
    metrics["firing_rate_total"] = stats.rate_total
    return metrics, stats, ops


# ---------------------------------------------------------------------------
# checkpoint extras


def _train_extras(cfg, window_len_us, epoch, step, lr, best_mde, params):
    extras = {
        "cfg.lambda_reg": cfg.lambda_reg,
        "cfg.ssi_sign": ls.SSI_SIGNS.index(cfg.ssi_sign),
        "cfg.stack_mode": STACK_MODES.index(cfg.stack_mode),
        "cfg.binarize": int(cfg.binarize),
        "train.window_len_us": window_len_us,
        "train.epoch": epoch,
        "train.step": step,
        "train.lr": lr,
        "train.best_mde": best_mde,
    }
    extras.update(params.optimizer_state())
    return extras


def _run_settings(entries):
    """Loss and stacking choices a checkpoint carries, with library defaults."""
    def geti(key, default):
        return int(entries[key]) if key in entries else default

    lam = float(entries["cfg.lambda_reg"]) if "cfg.lambda_reg" in entries else 0.5
    sign = ls.SSI_SIGNS[geti("cfg.ssi_sign", 0)]
    mode = STACK_MODES[geti("cfg.stack_mode", 0)]
    binarize = bool(geti("cfg.binarize", 0))
    window_len = geti("train.window_len_us", 0) or None
    return ls.LossConfig(lambda_reg=lam, ssi_sign=sign), mode, binarize, window_len


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    spec = sy.load_scene_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    manifest_path = os.path.join(args.out, sy.MANIFEST_NAME)
    sy.write_dataset(spec, args.out)
    if not args.quiet:
        print(manifest_path)
    return 0


def cmd_stack(args):
    window_len = args.window_ms * 1000
    stack = _stack_fn(args.mode)
    left = ev.load_events(args.events)
    x = stack(left, args.window_start, window_len, args.T, args.height,
              args.width, args.binarize)
    if args.events_right:
        right = ev.load_events(args.events_right)
        x = ev.binocular_concat(x, stack(right, args.window_start, window_len,
                                         args.T, args.height, args.width,
                                         args.binarize))
    tz.save_tensor(args.out, x.data.data)
    if not args.quiet:
        print("shape = %s" % " ".join(str(d) for d in x.data.data.shape))
    return 0


def _resolve_train_config(args):
    if args.config:
        cfg = load_run_config(args.config)
    elif args.dump_config:
        cfg = RunConfig()
    else:
        raise CliError("train needs --config (or --dump-config for defaults)")
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.data:
        cfg = replace(cfg, data_dir=args.data)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def cmd_train(args):
    cfg = _resolve_train_config(args)
    if args.dump_config:
        sys.stdout.write(serialize_run_config(cfg))
        return 0
    if not cfg.data_dir:
        raise CliError("no dataset: set data_dir in the config or pass --data")
    if not cfg.out_dir:
        raise CliError("no output directory: set out_dir in the config or pass --out")
    mult = 1 << cfg.layers
    if cfg.multiscale_loss and (cfg.height % mult or cfg.width % mult):
        raise CliError("multiscale_loss needs height and width divisible by %d" % mult)

    samples = load_windows(cfg.data_dir, cfg.height, cfg.width, cfg.time_steps,
                           cfg.in_channels, cfg.stack_mode, cfg.binarize)
    window_len_us = samples[0].x.window_len
    n_val = int(len(samples) * cfg.val_fraction)
    train_set = samples[:len(samples) - n_val]
    val_set = samples[len(samples) - n_val:] if n_val else []
    if not train_set:
        raise CliError("validation split leaves no training windows")

    model = md.DepthNet(cfg.model_config(), seed=cfg.seed)
    loss_cfg = cfg.loss_config()
    milestones = [int(f * cfg.epochs) for f in cfg.milestone_fractions]
    os.makedirs(cfg.out_dir, exist_ok=True)

    step = 0
    best = math.inf
    with open(os.path.join(cfg.out_dir, "train.log"), "w") as log:
        def emit(line):
            if not args.quiet:
                print(line)
            log.write(line + "\n")

        for epoch in range(cfg.epochs):
            lr = cfg.learning_rate * 0.5 ** sum(1 for m in milestones if epoch >= m)
            i = 0
            while i < len(train_set):
                group = train_set[i:i + cfg.windows_per_step]
                i += len(group)
                model.params.zero_grad()
                g_loss = 0.0
                g_mde = 0.0
                g_stats = md.SpikeStats()
                for s in group:
                    with tz.Tape() as tape:
                        depth, preds, st = model.forward(s.x)
                        loss = window_loss(depth, preds, s.gt, loss_cfg,
                                           cfg.multiscale_loss, cfg.layers)
                    value = loss.item()
                    if not math.isfinite(value):
                        raise CliError("loss is not finite at epoch %d step %d; "
                                       "stopping before the checkpoint is touched"
                                       % (epoch, step + 1), code=3)
                    tz.backward(loss, tape)
                    g_loss += value
                    g_mde += ls.mde_cm(depth, s.gt)
                    g_stats.merge(st)
                model.params.scale_grad(1.0 / len(group))
                tz.adam_step(model.params, lr,
                             betas=(cfg.adam_beta1, cfg.adam_beta2),
                             eps=cfg.adam_eps)
                step += 1
                emit("step=%d epoch=%d lr=%r loss=%r mde_cm=%r firing_rate_total=%r"
                     % (step, epoch, lr, g_loss / len(group), g_mde / len(group),
                        g_stats.rate_total))

            val_pool = val_set if val_set else train_set
            val_mde = sum(ls.mde_cm(model.forward(s.x)[0], s.gt)
                          for s in val_pool) / len(val_pool)
            emit("epoch=%d val_mde_cm=%r" % (epoch, val_mde))
            extras = _train_extras(cfg, window_len_us, epoch, step, lr,
                                   min(best, val_mde), model.params)
            md.save_model(os.path.join(cfg.out_dir, "last.spkc"), model, extras)
            if val_mde < best:
                best = val_mde
                md.save_model(os.path.join(cfg.out_dir, "best.spkc"), model, extras)

        metrics, _, _ = evaluate_dataset(model, samples, loss_cfg)
        emit("total_steps=%d" % step)
        emit("final_mde_cm=%r" % metrics["mde_cm"])
    return 0


def cmd_eval(args):
    model, entries = md.load_model(args.model)
    loss_cfg, stack_mode, binarize, _ = _run_settings(entries)
    c = model.config
    samples = load_windows(args.data, c.height, c.width, c.time_steps,
                           c.in_channels, stack_mode, binarize)
    metrics, _, _ = evaluate_dataset(model, samples, loss_cfg)
    sys.stdout.write(ls.format_metrics(metrics))
    return 0


def cmd_predict(args):
    model, entries = md.load_model(args.model)
    _, stack_mode, binarize, ckpt_len = _run_settings(entries)
    window_len = args.window_len or ckpt_len
    if not window_len:
        raise CliError("pass --window-len or use a checkpoint that records one")
    c = model.config
    stack = _stack_fn(stack_mode)
    left = ev.load_events(args.events)
    x = stack(left, args.window_start, window_len, c.time_steps, c.height,
              c.width, binarize)
    if c.in_channels == 4:
        if not args.events_right:
            raise CliError("this model takes binocular input; pass --events-right")
        right = ev.load_events(args.events_right)
        x = ev.binocular_concat(x, stack(right, args.window_start, window_len,
                                         c.time_steps, c.height, c.width, binarize))
    depth, _, _ = model.forward(x)
    data = depth.data
    _write_grid(args.out + ".txt", data)
    _write_pgm(args.out + ".pgm", data, args.max_depth)
    if not args.quiet:
        print("txt = %s.txt" % args.out)
        print("pgm = %s.pgm" % args.out)
        print("depth_min = %r" % float(data.min()))
        print("depth_max = %r" % float(data.max()))
    return 0


def cmd_inspect(args):
    model, entries = md.load_model(args.model)
    loss_cfg, stack_mode, binarize, _ = _run_settings(entries)
    c = model.config
    samples = load_windows(args.data, c.height, c.width, c.time_steps,
                           c.in_channels, stack_mode, binarize)
    metrics, stats, ops = evaluate_dataset(model, samples, loss_cfg)
    lines = [
        "windows=%d" % len(samples),
        "ac_ops=%r" % ops.ac_ops,
        "dense_macs=%d" % ops.dense_macs,
        "sparsity_ratio=%r" % ops.sparsity_ratio,
        "firing_rate_encoder=%r" % stats.rate_encoder,
        "firing_rate_residual=%r" % stats.rate_residual,
        "firing_rate_decoder=%r" % stats.rate_decoder,
        "firing_rate_total=%r" % stats.rate_total,
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _write_grid(path, data):
    h, w = data.shape
    lines = ["%d %d" % (h, w)]
    for row in data:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_pgm(path, data, max_depth):
    if max_depth is None:
        top = float(data.max())
        max_depth = top if top > 0 else 1.0
    h, w = data.shape
    gray = np.clip(np.rint(data / max_depth * 255.0), 0, 255).astype(np.int64)
    lines = ["P2", "%d %d" % (w, h), "255"]
    for row in gray:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spikedepth",
        description="Spiking depth estimation from event streams.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed in a scene spec or run config")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress status output (reports still print)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="scene spec file")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stack", help="stack one event window to a tensor dump")
    p.add_argument("--events", required=True)
    p.add_argument("--events-right", default=None)
    p.add_argument("--T", type=int, required=True, dest="T", help="time steps")
    p.add_argument("--window-ms", type=int, default=50)
    p.add_argument("--window-start", type=int, default=0, help="microseconds")
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--mode", choices=STACK_MODES, default="cumulative")
    p.add_argument("--binarize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--config", default=None, help="run config file")
    p.add_argument("--data", default=None, help="dataset directory (overrides data_dir)")
    p.add_argument("--out", default=None, help="output directory (overrides out_dir)")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective config and exit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="metrics report for a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="export one window's depth prediction")
    p.add_argument("--model", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--events-right", default=None)
    p.add_argument("--window-start", type=int, default=0, help="microseconds")
    p.add_argument("--window-len", type=int, default=None,
                   help="microseconds; defaults to the checkpoint's value")
    p.add_argument("--max-depth", type=float, default=None,
                   help="PGM white point in meters; defaults to the map maximum")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="firing rates and operation counts")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    except (tz.ArgumentError, tz.DimensionError, tz.StateError, ev.ParseError,
            ev.OrderingError, ev.BoundsError, ev.AlignmentError,
            sy.ValidationError, ls.MetricError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
