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

from . import events as ev
from . import kv
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


# the errors main reports as bad input, with exit code 2
INPUT_ERRORS = (OSError, tz.ArgumentError, tz.DimensionError, tz.StateError, ev.ParseError,
                ev.OrderingError, ev.BoundsError, ev.AlignmentError, sy.ValidationError,
                ls.MetricError)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig(ls.LossConfig, md.ModelConfig):
    """One training run: the model and loss fields it inherits, then its own."""

    seed: int = 0
    multiscale_loss: bool = False
    learning_rate: float = 0.002
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-08
    epochs: int = 10
    milestone_fractions: tuple = (0.5, 0.75)
    windows_per_step: int = 1
    val_fraction: float = 0.2
    stack_mode: str = kv.choice("cumulative", STACK_MODES)
    binarize: bool = False
    data_dir: str = ""
    out_dir: str = ""

    def __post_init__(self):
        # each parent checks every choice field, stack_mode included
        md.ModelConfig.__post_init__(self)
        ls.LossConfig.__post_init__(self)
        if self.in_channels not in (2, 4):
            raise tz.ArgumentError("in_channels must be 2 (mono) or 4 (binocular), "
                                   "got %d" % self.in_channels)
        if self.seed < 0:
            raise tz.ArgumentError("seed must be >= 0, got %d" % self.seed)
        for name in ("epochs", "windows_per_step"):
            if getattr(self, name) < 1:
                raise tz.ArgumentError("%s must be >= 1, got %d" % (name, getattr(self, name)))
        for name in ("learning_rate", "adam_eps"):
            if getattr(self, name) <= 0:
                raise tz.ArgumentError("%s must be positive, got %r" % (name, getattr(self, name)))
        for name in ("val_fraction", "adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise tz.ArgumentError("%s must lie in [0, 1), got %r"
                                       % (name, getattr(self, name)))
        for f in self.milestone_fractions:
            if not 0.0 < f <= 1.0:
                raise tz.ArgumentError("milestone fractions must lie in (0, 1], got %r"
                                       % (f,))
        mult = 1 << self.layers
        if self.multiscale_loss and (self.height % mult or self.width % mult):
            raise tz.ArgumentError("multiscale_loss needs height and width divisible by %d"
                                   % mult)

    def model_config(self):
        return self._project(md.ModelConfig)

    def loss_config(self):
        return self._project(ls.LossConfig)

    def _project(self, parent):
        """The parent config that holds this config's values of the parent's fields."""
        return parent(**{f.name: getattr(self, f.name) for f in fields(parent)})


def parse_run_config(text):
    """Flat key = value lines with # comments; unknown keys are hard errors."""
    values, rest = kv.read(text, RunConfig)
    if rest:
        raise ev.ParseError("line %d: unknown config key %r" % rest[0][:2])
    return RunConfig(**values)


def serialize_run_config(cfg):
    return "\n".join(kv.format_lines(cfg)) + "\n"


def load_run_config(path):
    return parse_run_config(ev.read_text(path))


# ---------------------------------------------------------------------------
# dataset plumbing


@dataclass
class WindowSample:
    x: ev.StackedTensor
    gt: ev.DepthFrame


def _stack_window(mode, left, right, start, window_len, t_steps, height, width, binarize):
    """One window of the left stream, with the right one beside it when given."""
    stack = ev.cumulative_stack if mode == "cumulative" else ev.repeat_stack
    x = stack(left, start, window_len, t_steps, height, width, binarize)
    if right is not None:
        x = ev.binocular_concat(x, stack(right, start, window_len, t_steps, height,
                                         width, binarize))
    return x


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
    samples = []
    for start in man.window_starts:
        x = _stack_window(stack_mode, left, right, start, man.window_len_us, t_steps,
                          man.height, man.width, binarize)
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
    """Mean losses and MDE over a window list, with the summed Counts."""
    counts = md.Counts()
    sums = {"mde_cm": 0.0, "loss_ssi": 0.0, "loss_reg": 0.0, "loss_total": 0.0}
    for s in samples:
        depth, _, c = model.forward(s.x)
        ssi = ls.ssi_loss(depth, s.gt, loss_cfg).item()
        reg = ls.reg_loss(depth, s.gt).item()
        sums["mde_cm"] += ls.mde_cm(depth, s.gt)
        sums["loss_ssi"] += ssi
        sums["loss_reg"] += reg
        sums["loss_total"] += ssi + loss_cfg.lambda_reg * reg
        counts.merge(c)
    n = len(samples)
    metrics = {k: v / n for k, v in sums.items()}
    metrics["firing_rate_encoder"] = counts.rate_encoder
    metrics["firing_rate_residual"] = counts.rate_residual
    metrics["firing_rate_decoder"] = counts.rate_decoder
    metrics["firing_rate_total"] = counts.rate_total
    return metrics, counts


# ---------------------------------------------------------------------------
# checkpoint extras


def _train_extras(cfg, window_len_us, epoch, step, lr, best_mde, params):
    """Checkpoint entries beyond the model's own: the settings eval, predict and
    inspect read back, and the training position. `params` is unused."""
    extras = kv.to_entries(cfg, ("lambda_reg", "ssi_sign", "stack_mode", "binarize"))
    extras.update({"train.window_len_us": window_len_us, "train.epoch": epoch,
                   "train.step": step, "train.lr": lr, "train.best_mde": best_mde})
    return extras


def _run_settings(entries):
    """The run config a checkpoint carries, defaults where it is silent."""
    return RunConfig(**kv.from_entries(RunConfig, entries, required=False))


def _window_len(entries):
    """The window length in microseconds a checkpoint records, None if none."""
    stored = entries.get("train.window_len_us")
    if stored is None:
        return None
    value = float(stored) if np.ndim(stored) == 0 else math.nan
    if not (value.is_integer() and value > 0):
        raise CliError("checkpoint entry train.window_len_us must be a positive "
                       "whole number, got %r" % value)
    return int(value)


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
    left = ev.load_events(args.events)
    right = ev.load_events(args.events_right) if args.events_right else None
    x = _stack_window(args.mode, left, right, args.window_start, args.window_ms * 1000,
                      args.T, args.height, args.width, args.binarize)
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
                g_counts = md.Counts()
                for s in group:
                    with tz.Tape() as tape:
                        depth, preds, c = model.forward(s.x)
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
                    g_counts.merge(c)
                model.params.scale_grad(1.0 / len(group))
                tz.adam_step(model.params, lr,
                             betas=(cfg.adam_beta1, cfg.adam_beta2),
                             eps=cfg.adam_eps)
                step += 1
                emit("step=%d epoch=%d lr=%r loss=%r mde_cm=%r firing_rate_total=%r"
                     % (step, epoch, lr, g_loss / len(group), g_mde / len(group),
                        g_counts.rate_total))

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

        metrics, _ = evaluate_dataset(model, samples, loss_cfg)
        emit("total_steps=%d" % step)
        emit("final_mde_cm=%r" % metrics["mde_cm"])
    return 0


def _evaluate_checkpoint(args):
    """--model over --data with the loss and stacking settings the checkpoint carries."""
    model, entries = md.load_model(args.model)
    cfg = _run_settings(entries)
    samples = load_windows(args.data, cfg.height, cfg.width, cfg.time_steps,
                           cfg.in_channels, cfg.stack_mode, cfg.binarize)
    return len(samples), evaluate_dataset(model, samples, cfg.loss_config())


def cmd_eval(args):
    _, (metrics, _) = _evaluate_checkpoint(args)
    sys.stdout.write(ls.format_metrics(metrics))
    return 0


def cmd_predict(args):
    if args.max_depth is not None and not (math.isfinite(args.max_depth) and args.max_depth > 0):
        raise CliError("--max-depth must be positive and finite, got %r" % args.max_depth)
    model, entries = md.load_model(args.model)
    c = _run_settings(entries)
    window_len = args.window_len or _window_len(entries)
    if not window_len:
        raise CliError("pass --window-len or use a checkpoint that records one")
    left = ev.load_events(args.events)
    if c.in_channels == 4 and not args.events_right:
        raise CliError("this model takes binocular input; pass --events-right")
    right = ev.load_events(args.events_right) if c.in_channels == 4 else None
    x = _stack_window(c.stack_mode, left, right, args.window_start, window_len,
                      c.time_steps, c.height, c.width, c.binarize)
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
    n_windows, (_, counts) = _evaluate_checkpoint(args)
    lines = [
        "windows=%d" % n_windows,
        "ac_ops=%r" % counts.ac_ops,
        "dense_macs=%d" % counts.dense_macs,
        "sparsity_ratio=%r" % counts.sparsity_ratio,
        "firing_rate_encoder=%r" % counts.rate_encoder,
        "firing_rate_residual=%r" % counts.rate_residual,
        "firing_rate_decoder=%r" % counts.rate_decoder,
        "firing_rate_total=%r" % counts.rate_total,
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
    # taken before or after the subcommand; suppressed defaults keep a value
    # given before it, and main() supplies the defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the seed in a scene spec or run config")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress status output (reports still print)")
    parser = argparse.ArgumentParser(
        prog="spikedepth", parents=[common],
        description="Spiking depth estimation from event streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="scene spec file")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("stack", parents=[common],
                       help="stack one event window to a tensor dump")
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

    p = sub.add_parser("train", parents=[common],
                       help="train a model on a dataset directory")
    p.add_argument("--config", default=None, help="run config file")
    p.add_argument("--data", default=None, help="dataset directory (overrides data_dir)")
    p.add_argument("--out", default=None, help="output directory (overrides out_dir)")
    p.add_argument("--dump-config", action="store_true",
                   help="print the effective config and exit")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="metrics report for a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", parents=[common],
                       help="export one window's depth prediction")
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

    p = sub.add_parser("inspect", parents=[common],
                       help="firing rates and operation counts")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv, argparse.Namespace(seed=None, quiet=False))
    try:
        return args.func(args)
    except CliError as e:
        print("error: %s" % e, file=sys.stderr)
        return e.code
    except INPUT_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
