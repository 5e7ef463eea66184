"""One SHA-256 per encoder variant and attention set over a fixed two-step training run.

For each of the encoder variants CE-Att, DE and DE-Att2, builds the default
run config (`cli.RunConfig`) at --height x --width with that variant and
`multiscale_loss` on, so every depth head is supervised at any geometry.
Two more runs set the attention too: DE-Att1 with TCS gates the spike
trains in front of the encoder convs and runs the temporal gate, and CE
with none leaves each decoder site the bare upsample. The last run is
DE in smooth neuron mode, so the IF populations' smooth backward runs too.
Each run then takes two training steps as `train` does: zero the gradients,
forward and loss on a tape, `tz.backward`, then one Adam step.
The first window is a random stack of event counts and the second a random
binary spike stack, so both the dense and the spike-fed conv counts run.
The ground truth is a random depth map whose top-left corner is invalid.

Each digest covers, per step, the depth map, the loss, every per-scale
prediction, every parameter gradient and the `Counts` fields, and, after
the second Adam step, every parameter. The last prediction, `preds[-1]`,
is the depth map itself, cropped to --height x --width; the coarser ones
keep the geometry padded to a multiple of 2**layers, and their ground truth
is padded the same way, with the padding invalid. It prints one line
per run, with a field for each setting the run changes:

    variant=CE-Att height=64 width=64 multiscale_loss=1 sha256=<64 hex digits>
    variant=CE attention= height=64 width=64 multiscale_loss=1 sha256=<64 hex digits>
    variant=DE neuron_mode=smooth height=64 width=64 multiscale_loss=1 sha256=<64 hex digits>

    python3 scripts/step_digest.py --height 260 --width 346

Two commits that print the same digests compute the same bits on this run.
The program is imported from the `src/` beside this script before numpy, so
the package's one-thread BLAS pin holds and a GEMM's summation order does not
depend on the shell's thread settings or the host's core count.
"""

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from spikedepth import cli, events as ev, model as md, tensor as tz  # noqa: E402

import numpy as np  # noqa: E402  (after spikedepth pins BLAS)

# (encoder variant, the run config fields it sets besides the defaults)
RUNS = (("CE-Att", {}), ("DE", {}), ("DE-Att2", {}), ("DE-Att1", {"attention": "TCS"}),
        ("CE", {"attention": ""}), ("DE", {"neuron_mode": "smooth"}))


def _windows(mc, height, width):
    """Two (input, ground truth) pairs: event counts, then binary spikes."""
    rng = np.random.default_rng(0)
    shape = (mc.time_steps, mc.in_channels, height, width)
    inputs = [rng.poisson(0.3, shape).astype(np.float64),
              (rng.random(shape) < 0.2).astype(np.float64)]
    out = []
    for x in inputs:
        depth = rng.uniform(0.5, 4.0, (height, width))
        valid = np.ones((height, width), dtype=bool)
        valid[:height // 4, :width // 4] = False
        out.append((x, ev.DepthFrame(depth=depth * valid, valid=valid, t=0)))
    return out


def step_digest(variant, height, width, settings):
    """Hex digest of two training steps of one variant."""
    cfg = cli.RunConfig(height=height, width=width, encoder_variant=variant,
                        multiscale_loss=True, **settings)
    mc = cfg.model_config()
    net = md.DepthNet(mc, seed=cfg.seed)
    h = hashlib.sha256()

    def add(array):
        a = np.ascontiguousarray(array, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())

    for x, gt in _windows(mc, height, width):
        net.params.zero_grad()
        with tz.Tape() as tape:
            depth, preds, counts = net.forward(tz.Tensor(x))
            loss = cli.window_loss(depth, preds, gt, cfg.loss_config(), True, mc.layers)
        tz.backward(loss, tape)
        tz.adam_step(net.params, cfg.learning_rate,
                     betas=(cfg.adam_beta1, cfg.adam_beta2), eps=cfg.adam_eps)
        for a in [depth.data, loss.data] + [p.data for p in preds]:
            add(a)
        for name, t in net.params:
            h.update(name.encode())
            add(t.grad)
        h.update(repr(dataclasses.astuple(counts)).encode())
    for name, t in net.params:
        h.update(name.encode())
        add(t.data)
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--height", type=int, default=64)
    ap.add_argument("--width", type=int, default=64)
    args = ap.parse_args(argv)
    for variant, settings in RUNS:
        digest = step_digest(variant, args.height, args.width, settings)
        label = variant + "".join(" %s=%s" % item for item in settings.items())
        print("variant=%s height=%d width=%d multiscale_loss=1 sha256=%s"
              % (label, args.height, args.width, digest))


if __name__ == "__main__":
    main()
