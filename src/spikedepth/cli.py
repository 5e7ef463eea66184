"""Command-line harness: synthesize, stack, train, evaluate, predict, inspect.

Every run is a pure function of its config file and dataset, not of the
shell's BLAS thread setting (the package pins one thread) or of the usable
CPU count that sizes the conv kernels' thread pool: logs, checkpoints, and
reports contain no timestamps and print floats via repr, so identical inputs
give byte-identical outputs.

Exit codes: 0 success, 2 bad input (a usage error, an unreadable file or any
`tensor.InputError`), 3 numerical failure (a `FloatingPointError`: the training
loss went non-finite).
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


# the errors main reports as bad input, with exit code 2
INPUT_ERRORS = (tz.InputError, OSError)


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig(ls.LossConfig, md.ModelConfig):
    """One training run: the model and loss fields it inherits, then its own."""

    seed: int = kv.at_least(0, 0)
    multiscale_loss: bool = False
    learning_rate: float = kv.positive(0.002)
    adam_beta1: float = kv.fraction(0.9)
    adam_beta2: float = kv.fraction(0.999)
    adam_eps: float = kv.positive(1e-08)
    epochs: int = kv.at_least(10, 1)
    milestone_fractions: tuple = kv.within((0.5, 0.75), 0, 1, low_open=True)
    val_fraction: float = kv.fraction(0.2)
    stack_mode: str = kv.choice("cumulative", STACK_MODES)
    binarize: bool = False
    data_dir: str = ""
    out_dir: str = ""

    def __post_init__(self):
        # checks the domain of every field, this class's own included
        md.ModelConfig.__post_init__(self)
        if self.in_channels not in (2, 4):
            raise tz.InputError("in_channels must be 2 (mono) or 4 (binocular), "
                                   "got %d" % self.in_channels)

    def model_config(self):
        return self._project(md.ModelConfig)

    def loss_config(self):
        return self._project(ls.LossConfig)

    def _project(self, parent):
        """The parent config that holds this config's values of the parent's fields."""
        return parent(**{f.name: getattr(self, f.name) for f in fields(parent)})


def parse_run_config(text):
    """Flat key = value lines with # comments; unknown keys are hard errors."""
    return RunConfig(**kv.read(text, RunConfig, "config "))


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
        raise tz.InputError("no dataset manifest at %s" % man_path)
    man = sy.load_manifest(man_path)
    if (man.height, man.width) != (height, width):
        raise tz.InputError("dataset frames are %dx%d but the model expects %dx%d"
                            % (man.height, man.width, height, width))
    if man.n_windows < 1:
        raise tz.InputError("dataset has no windows")
    if in_channels == 4 and not (man.binocular and man.events_right):
        raise tz.InputError("4-channel input needs a binocular dataset with "
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


def _downsample_frame(gt, shape, factor):
    """Block-average depth to `shape` over the frame padded bottom/right to shape x
    factor, as the forward pads its input; a block is valid only when every pixel is."""
    pad = [(0, n * factor - m) for n, m in zip(shape, gt.depth.shape)]
    h, w = shape
    d = np.pad(gt.depth, pad).reshape(h, factor, w, factor).mean(axis=(1, 3))
    v = np.pad(gt.valid, pad).reshape(h, factor, w, factor).all(axis=(1, 3))
    return ev.DepthFrame(depth=d * v, valid=v, t=gt.t)


def window_loss(depth, preds, gt, loss_cfg, multiscale, layers):
    """Loss on the final prediction, plus per-scale terms when enabled."""
    loss = ls.total_loss(depth, gt, loss_cfg)
    if multiscale:
        for i, p in enumerate(preds[:-1]):
            small = _downsample_frame(gt, p.shape, 1 << (layers - 1 - i))
            loss = tz.add(loss, ls.total_loss(p, small, loss_cfg))
    return loss


def evaluate_dataset(model, samples, loss_cfg):
    """Mean MDE and losses over a window list, with the summed Counts.

    `train`'s per-epoch validation and closing MDE, `eval` and `inspect` all
    run this one loop. Each metric is the built-in `sum` of its per-window
    values over n, as the benchmark's training session averages its MDE, so
    they agree on every Python, 3.12's compensated float `sum` included.
    """
    counts = md.Counts()
    rows = []
    for s in samples:
        depth, _, c = model.forward(s.x)
        rows.append((ls.mde_cm(depth, s.gt), ls.ssi_loss(depth, s.gt, loss_cfg),
                     ls.reg_loss(depth, s.gt), ls.total_loss(depth, s.gt, loss_cfg).item()))
        counts.merge(c)
    metrics = {k: sum(col) / len(samples)
               for k, col in zip(("mde_cm", "loss_ssi", "loss_reg", "loss_total"), zip(*rows))}
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
    """The run config a checkpoint carries, defaults where it is silent.

    A `cfg.<name>` entry that names no RunConfig field is an InputError,
    so a misspelt or foreign setting is not dropped without a word.
    """
    # convs are bias-free; older checkpoints store the retired flag as 0, and
    # one that stores 1 holds bias weights that load_model has already refused
    known = {"cfg." + f.name for f in fields(RunConfig)} | {"cfg.conv_bias"}
    for key in entries:
        if key.startswith("cfg.") and key not in known:
            raise tz.InputError("checkpoint has unknown config entry %r" % key)
    return RunConfig(**kv.from_entries(RunConfig, entries, required=False))


def _window_len(entries):
    """The window length in microseconds a checkpoint records, None if none."""
    stored = entries.get("train.window_len_us")
    if stored is None:
        return None
    value = float(stored) if np.ndim(stored) == 0 else math.nan
    if not (value.is_integer() and value > 0):
        raise tz.InputError("checkpoint entry train.window_len_us must be a positive "
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
        raise tz.InputError("train needs --config (or --dump-config for defaults)")
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
        raise tz.InputError("no dataset: set data_dir in the config or pass --data")
    if not cfg.out_dir:
        raise tz.InputError("no output directory: set out_dir in the config or pass --out")
    samples = load_windows(cfg.data_dir, cfg.height, cfg.width, cfg.time_steps,
                           cfg.in_channels, cfg.stack_mode, cfg.binarize)
    window_len_us = samples[0].x.window_len
    n_val = int(len(samples) * cfg.val_fraction)
    train_set = samples[:len(samples) - n_val]
    val_set = samples[len(samples) - n_val:] if n_val else []
    if not train_set:
        raise tz.InputError("validation split leaves no training windows")

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
            for s in train_set:
                model.params.zero_grad()
                with tz.Tape() as tape:
                    depth, preds, c = model.forward(s.x)
                    loss = window_loss(depth, preds, s.gt, loss_cfg, cfg.multiscale_loss,
                                       cfg.layers)
                value = loss.item()
                if not math.isfinite(value):
                    raise FloatingPointError("loss is not finite at epoch %d step %d; "
                                             "stopping before the checkpoint is touched"
                                             % (epoch, step + 1))
                tz.backward(loss, tape)
                tz.adam_step(model.params, lr, betas=(cfg.adam_beta1, cfg.adam_beta2),
                             eps=cfg.adam_eps)
                step += 1
                emit("step=%d epoch=%d lr=%r loss=%r mde_cm=%r firing_rate_total=%r"
                     % (step, epoch, lr, value, ls.mde_cm(depth, s.gt), c.rate_total))

            val_mde = evaluate_dataset(model, val_set or train_set, loss_cfg)[0]["mde_cm"]
            emit("epoch=%d val_mde_cm=%r" % (epoch, val_mde))
            extras = _train_extras(cfg, window_len_us, epoch, step, lr,
                                   min(best, val_mde), model.params)
            md.save_model(os.path.join(cfg.out_dir, "last.spkc"), model, extras)
            if val_mde < best:
                best = val_mde
                md.save_model(os.path.join(cfg.out_dir, "best.spkc"), model, extras)

        emit("total_steps=%d" % step)
        emit("final_mde_cm=%r" % evaluate_dataset(model, samples, loss_cfg)[0]["mde_cm"])
    return 0


def _evaluate_checkpoint(args):
    """--model over --data with the loss and stacking settings the checkpoint carries."""
    model, entries = md.load_model(args.model)
    cfg = _run_settings(entries)
    samples = load_windows(args.data, cfg.height, cfg.width, cfg.time_steps,
                           cfg.in_channels, cfg.stack_mode, cfg.binarize)
    return len(samples), _in_float_range(
        args.model, args.data, lambda: evaluate_dataset(model, samples, cfg.loss_config()))


def _in_float_range(model_path, source, run):
    """run() with float64 overflow, invalid and divide-by-zero raised as one InputError."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return run()
    except FloatingPointError as e:
        # finite but huge weights (say 1e300) overflow in the forward
        raise tz.InputError("%s: evaluating over %s leaves float64 range (%s)"
                            % (model_path, source, e)) from None


def cmd_eval(args):
    _, (metrics, _) = _evaluate_checkpoint(args)
    sys.stdout.write("".join("%s=%r\n" % item for item in metrics.items()))
    return 0


def cmd_predict(args):
    if args.max_depth is not None and not (math.isfinite(args.max_depth) and args.max_depth > 0):
        raise tz.InputError("--max-depth must be positive and finite, got %r" % args.max_depth)
    model, entries = md.load_model(args.model)
    c = _run_settings(entries)
    window_len = _window_len(entries) if args.window_len is None else args.window_len
    if window_len is None:
        raise tz.InputError("pass --window-len or use a checkpoint that records one")
    left = ev.load_events(args.events)
    if c.in_channels == 4 and not args.events_right:
        raise tz.InputError("this model takes binocular input; pass --events-right")
    if c.in_channels == 2 and args.events_right:
        raise tz.InputError("this model takes monocular input; drop --events-right")
    right = ev.load_events(args.events_right) if c.in_channels == 4 else None
    x = _stack_window(c.stack_mode, left, right, args.window_start, window_len,
                      c.time_steps, c.height, c.width, c.binarize)
    data = _in_float_range(args.model, args.events, lambda: model.forward(x)[0].data)
    if not np.isfinite(data).all():
        raise tz.InputError("%s: the depth map over %s is not finite" % (args.model, args.events))
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
    # clipped before the division, which then cannot overflow
    gray = np.rint(np.clip(data, 0.0, max_depth) / max_depth * 255.0).astype(np.int64)
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
    except (FloatingPointError, MemoryError) + INPUT_ERRORS as e:
        # FloatingPointError: a diverged run; MemoryError: input this host
        # cannot hold, say a 1e9-row stack
        empty = isinstance(e, MemoryError) and not str(e)
        print("error: %s" % ("out of memory" if empty else e), file=sys.stderr)
        return 3 if isinstance(e, FloatingPointError) else 2


if __name__ == "__main__":
    sys.exit(main())
