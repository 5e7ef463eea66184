"""Memory of one default training step: what the tape holds, and where the backward peaks.

Runs one training step of the default run config (`cli.RunConfig`) at
--height x --width under tracemalloc: a forward and the loss on a tape, then
`tz.backward`. The input is a random stack of event counts and the ground
truth a random depth map, valid everywhere. It prints

    tape_entries      entries the forward and the loss recorded
    forward_held_mb   bytes still allocated when the loss is built, above the
                      level before the forward: the arrays the tape keeps
    backward_peak_mb  the highest traced level during the backward, above
                      the same base
    peak_entry        the tape entry (kind, output shape) whose step of the
                      sweep held that peak: its closure, plus the sums of the
                      input gradients it returned

    python3 scripts/step_memory.py --height 260 --width 346

tracemalloc sees numpy's array buffers and Python objects, not the
allocator's free lists or BLAS work space, so the numbers are what the step's
arrays hold, not the process's resident size. The program is imported from
the `src/` beside this script.
"""

import argparse
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from spikedepth import cli, events as ev, model as md, tensor as tz  # noqa: E402

MB = 1 << 20


def _kind(fn):
    return fn.__qualname__.split(".<locals>", 1)[0].rsplit(".", 1)[-1]


def step_memory(height, width):
    """(tape entries, forward-held bytes, backward peak bytes, (kind, shape) at the peak)."""
    cfg = cli.RunConfig(height=height, width=width)
    mc = cfg.model_config()
    net = md.DepthNet(mc, seed=cfg.seed)
    rng = np.random.default_rng(0)
    x = tz.Tensor(rng.poisson(0.3, (mc.time_steps, mc.in_channels, height, width))
                  .astype(np.float64))
    gt = ev.DepthFrame(depth=rng.uniform(0.5, 4.0, (height, width)),
                       valid=np.ones((height, width), dtype=bool), t=0)
    net.params.zero_grad()

    steps = []   # [kind, output shape, peak traced bytes] per backward closure run

    def close_step():
        """Give the running step the peak since the last reset, then reset."""
        if steps:
            steps[-1][2] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()

    record = tz.record

    def traced_record(output, inputs, backward):
        # the kind and shape only: a closure holding the output would pin every
        # op's output and report that as what the tape keeps
        kind, shape = _kind(backward), output.data.shape

        def bw(gout):
            close_step()
            steps.append([kind, shape, None])
            return backward(gout)
        return record(output, inputs, bw)

    tracemalloc.start()
    tz.record = traced_record
    try:
        base = tracemalloc.get_traced_memory()[0]
        with tz.Tape() as tape:
            depth, preds, _ = net.forward(x)
            loss = cli.window_loss(depth, preds, gt, cfg.loss_config(),
                                   cfg.multiscale_loss, mc.layers)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        tz.backward(loss, tape)
        close_step()
    finally:
        tz.record = record
        tracemalloc.stop()
    kind, shape, peak = max(steps, key=lambda s: s[2])
    return len(tape), held, peak - base, (kind, shape)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--height", type=int, default=64)
    ap.add_argument("--width", type=int, default=64)
    args = ap.parse_args(argv)
    entries, held, peak, (kind, shape) = step_memory(args.height, args.width)
    print("height=%d width=%d" % (args.height, args.width))
    print("tape_entries=%d" % entries)
    print("forward_held_mb=%.1f" % (held / MB))
    print("backward_peak_mb=%.1f" % (peak / MB))
    print("peak_entry=%s %s" % (kind, list(shape)))


if __name__ == "__main__":
    main()
