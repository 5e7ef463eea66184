"""The three benchmark workloads, built from the program's own functions.

Each workload is a closed loop with one caller: the next op starts when the
previous one returns. prepare() does the whole set-up (synthesize the scene,
write and parse the dataset, build the model, run the warm-up ops) and
returns a session whose op() is timed by the runner. prepare() writes under
a work directory that the runner empties, untimed, before each set-up.
check() is called after each op, outside the timed region, and says whether
the op's output is right.

train64  C6 run (README two-plane scene, ssi_sign plus, lambda_reg 2.0,
         val_fraction 0) at 64x64. An op is one training step as cmd_train
         runs it; between ops, each epoch ends with the validation forwards
         and the last/best checkpoint writes of cmd_train.
stream64 inference over a 64x64 binocular recording twice as long as
         train64's (16 windows). An op stacks both eyes for one window and
         runs DepthNet.forward with no tape; the model is loaded from a
         checkpoint, as predict does.
sensor   one training step per op at the DAVIS 260x346 geometry, on a
         synthesized two-plane scene of two 10 ms windows.
"""

import math
import os

import numpy as np

from spikedepth import cli, events as ev, losses as ls, model as md, synth as sy
from spikedepth import tensor as tz

# The run config of the C6 overfit gate and the README; the seed is the
# benchmark's --seed.
C6_RUN = """\
seed = %d
ssi_sign = plus
lambda_reg = 2.0
epochs = 160
val_fraction = 0.0
"""

# The reference op: window 0 of the README scene (scene seed 12) through a
# fresh model with init seed 0. Its results from the seed commit are stored
# in reference.json and every run replays it.
REFERENCE_SCENE_SEED = 12
REFERENCE_MODEL_SEED = 0
REFERENCE_RTOL = 1e-6   # allows float reordering, not a flipped spike


def two_plane_spec(seed, height, width, n_windows, window_len_us):
    """The README scene: near plane (1 m) on top, far plane (2 m) below."""
    half = height // 2
    return sy.SceneSpec(seed=seed, height=height, width=width, n_windows=n_windows,
                        window_len_us=window_len_us, camera_velocity=80.0,
                        contrast_threshold=0.4, baseline_px=16.0, noise_rate_hz=0.0,
                        planes=(sy.PlaneSpec(1.0, 0, 0, width, half, 8.0),
                                sy.PlaneSpec(2.0, 0, half, width, height - half, 8.0)))


def grads_finite(net):
    return all(bool(np.isfinite(p.grad).all()) for _, p in net.params)


class TrainSession:
    """cmd_train's loop, one training step per op."""

    def __init__(self, cfg, samples, net, out_dir, epoch_end):
        self.cfg = cfg
        self.loss_cfg = cfg.loss_config()
        self.samples = samples
        self.net = net
        self.out_dir = out_dir
        self.epoch_end = epoch_end
        self.milestones = [int(f * cfg.epochs) for f in cfg.milestone_fractions]
        self.window_len_us = samples[0].x.window_len
        self.epoch = 0
        self.pos = 0
        self.step = 0
        self.best = math.inf
        self.lr = self._lr()
        self.log = open(os.path.join(out_dir, "train.log"), "w")
        self.last = None

    def _lr(self):
        return self.cfg.learning_rate * 0.5 ** sum(1 for m in self.milestones
                                                   if self.epoch >= m)

    def op(self):
        cfg, net = self.cfg, self.net
        s = self.samples[self.pos]
        self.pos += 1
        net.params.zero_grad()
        with tz.Tape() as tape:
            depth, preds, stats = net.forward(s.x)
            loss = cli.window_loss(depth, preds, s.gt, self.loss_cfg,
                                   cfg.multiscale_loss, cfg.layers)
        value = loss.item()
        self.last = (value, depth, stats, net.last_ops, len(tape))
        if not math.isfinite(value):
            return
        tz.backward(loss, tape)
        mde = ls.mde_cm(depth, s.gt)
        net.params.scale_grad(1.0)
        tz.adam_step(net.params, self.lr, betas=(cfg.adam_beta1, cfg.adam_beta2),
                     eps=cfg.adam_eps)
        self.step += 1
        self.log.write("step=%d epoch=%d lr=%r loss=%r mde_cm=%r firing_rate_total=%r\n"
                       % (self.step, self.epoch, self.lr, value, mde, stats.rate_total))

    def between(self):
        if self.pos < len(self.samples):
            return
        self.pos = 0
        if self.epoch_end:
            net = self.net
            val_mde = sum(ls.mde_cm(net.forward(s.x)[0], s.gt)
                          for s in self.samples) / len(self.samples)
            self.log.write("epoch=%d val_mde_cm=%r\n" % (self.epoch, val_mde))
            extras = cli._train_extras(self.cfg, self.window_len_us, self.epoch,
                                       self.step, self.lr, min(self.best, val_mde),
                                       net.params)
            md.save_model(os.path.join(self.out_dir, "last.spkc"), net, extras)
            if val_mde < self.best:
                self.best = val_mde
                md.save_model(os.path.join(self.out_dir, "best.spkc"), net, extras)
        self.epoch += 1
        self.lr = self._lr()

    def can_stop(self):
        return self.pos == 0 or not self.epoch_end

    def check(self):
        value, depth, _, _, _ = self.last
        return (math.isfinite(value)
                and depth.data.shape == (self.cfg.height, self.cfg.width)
                and grads_finite(self.net))

    def counts(self):
        _, _, stats, ops, tape_ops = self.last
        return op_counts(stats, ops, tape_ops)

    def checkpoint_bytes(self):
        path = os.path.join(self.out_dir, "last.spkc")
        return os.path.getsize(path) if os.path.exists(path) else 0

    def close(self):
        self.log.close()


class StreamSession:
    """Per-window stacking of both eyes plus an untaped forward."""

    def __init__(self, data_dir, manifest, left, right, net, checkpoint):
        self.data_dir = data_dir
        self.manifest = manifest
        self.left, self.right = left, right
        self.net = net
        self.checkpoint = checkpoint
        self.pos = 0
        self.last = None
        self.expected = None

    def _expected_counts(self):
        """Events per window and eye, from the CSV files by a parser of our own."""
        man = self.manifest
        starts = np.asarray(man.window_starts, dtype=np.int64)
        out = []
        for name in (man.events_left, man.events_right):
            t = np.loadtxt(os.path.join(self.data_dir, name), delimiter=",", skiprows=1,
                           usecols=0, dtype=np.int64, ndmin=1)
            out.append(np.searchsorted(t, starts + man.window_len_us)
                       - np.searchsorted(t, starts))
        return out

    def op(self):
        man, c = self.manifest, self.net.config
        k = self.pos % man.n_windows
        start = man.window_starts[k]
        self.pos += 1
        x = ev.binocular_concat(
            ev.cumulative_stack(self.left, start, man.window_len_us, c.time_steps,
                                man.height, man.width),
            ev.cumulative_stack(self.right, start, man.window_len_us, c.time_steps,
                                man.height, man.width))
        depth, _, stats = self.net.forward(x)
        self.last = (k, x, depth, stats, self.net.last_ops)

    def between(self):
        pass

    def can_stop(self):
        return True

    def check(self):
        if self.expected is None:
            self.expected = self._expected_counts()
        k, x, depth, _, _ = self.last
        last_frame = x.data.data[-1]
        return (int(last_frame[:2].sum()) == self.expected[0][k]
                and int(last_frame[2:].sum()) == self.expected[1][k]
                and depth.data.shape == (self.manifest.height, self.manifest.width)
                and bool(np.isfinite(depth.data).all()))

    def counts(self):
        _, _, _, stats, ops = self.last
        return op_counts(stats, ops, 0)

    def checkpoint_bytes(self):
        return os.path.getsize(self.checkpoint)

    def close(self):
        pass


def op_counts(stats, ops, tape_ops):
    """The paper's cost for one forward, as exact counts."""
    return {
        "tensor.tape_ops": tape_ops,
        "model.ac_ops": ops.ac_ops,
        "model.dense_macs": ops.dense_macs,
        "model.spikes_encoder": stats.encoder_spikes,
        "model.spikes_residual": stats.residual_spikes,
        "model.spikes_decoder": stats.decoder_spikes,
        "model.neuron_steps": stats.encoder_steps + stats.residual_steps
                              + stats.decoder_steps,
    }


def warm_up(session, n):
    for _ in range(n):
        session.op()
        session.between()
    return session


def prepare_train64(seed, work):
    data = os.path.join(work, "data")
    sy.write_dataset(two_plane_spec(seed, 64, 64, 8, 50000), data)
    cfg = cli.parse_run_config(C6_RUN % seed)
    samples = cli.load_windows(data, cfg.height, cfg.width, cfg.time_steps,
                               cfg.in_channels, cfg.stack_mode, cfg.binarize)
    net = md.DepthNet(cfg.model_config(), seed=cfg.seed)
    out = os.path.join(work, "out")
    os.makedirs(out)
    return warm_up(TrainSession(cfg, samples, net, out, epoch_end=True), 2)


def prepare_stream64(seed, work):
    data = os.path.join(work, "data")
    sy.write_dataset(two_plane_spec(seed, 64, 64, 16, 50000), data)
    man = sy.load_manifest(os.path.join(data, sy.MANIFEST_NAME))
    left = ev.load_events(os.path.join(data, man.events_left))
    right = ev.load_events(os.path.join(data, man.events_right))
    cfg = cli.parse_run_config(C6_RUN % seed)
    checkpoint = os.path.join(data, "model.spkc")
    md.save_model(checkpoint, md.DepthNet(cfg.model_config(), seed=cfg.seed))
    net, _ = md.load_model(checkpoint)
    return warm_up(StreamSession(data, man, left, right, net, checkpoint), 2)


def prepare_sensor(seed, work):
    data = os.path.join(work, "data")
    sy.write_dataset(two_plane_spec(seed, 260, 346, 2, 10000), data)
    cfg = cli.parse_run_config(C6_RUN % seed + "height = 260\nwidth = 346\n")
    samples = cli.load_windows(data, cfg.height, cfg.width, cfg.time_steps,
                               cfg.in_channels, cfg.stack_mode, cfg.binarize)
    net = md.DepthNet(cfg.model_config(), seed=cfg.seed)
    out = os.path.join(work, "out")
    os.makedirs(out)
    return warm_up(TrainSession(cfg, samples, net, out, epoch_end=False), 1)


PREPARE = {"train64": prepare_train64, "stream64": prepare_stream64,
           "sensor": prepare_sensor}


def reference_op(taped):
    """Window 0 of the README scene through a fresh model; one step if taped."""
    spec = two_plane_spec(REFERENCE_SCENE_SEED, 64, 64, 1, 50000)
    scene = sy.generate_scene(spec)
    cfg = cli.parse_run_config(C6_RUN % REFERENCE_MODEL_SEED)
    c = cfg.model_config()
    x = ev.binocular_concat(
        ev.cumulative_stack(scene.events_left, 0, spec.window_len_us, c.time_steps,
                            c.height, c.width),
        ev.cumulative_stack(scene.events_right, 0, spec.window_len_us, c.time_steps,
                            c.height, c.width))
    net = md.DepthNet(c, seed=cfg.seed)
    out = {}
    if taped:
        gt = ev.align_ground_truth(scene.gt_frames, 0, spec.window_len_us)
        net.params.zero_grad()
        with tz.Tape() as tape:
            depth, preds, _ = net.forward(x)
            loss = cli.window_loss(depth, preds, gt, cfg.loss_config(),
                                   cfg.multiscale_loss, cfg.layers)
        tz.backward(loss, tape)
        out["loss"] = loss.item()
        out["grad_norm"] = math.sqrt(sum(float((p.grad * p.grad).sum())
                                         for _, p in net.params))
    else:
        depth, _, _ = net.forward(x)
    d = depth.data
    out.update(depth_sum=float(d.sum()), depth_sumsq=float((d * d).sum()),
               depth_min=float(d.min()), depth_max=float(d.max()))
    return out


# Workloads that replay the reference op, and whether they replay it taped.
REFERENCE_TAPED = {"train64": True, "stream64": False}


def reference_mismatches(workload, reference):
    """Names of reference values the current code does not reproduce."""
    got = reference_op(taped=REFERENCE_TAPED[workload])
    return [k for k, v in got.items()
            if not math.isclose(v, reference[k], rel_tol=REFERENCE_RTOL, abs_tol=1e-12)]
