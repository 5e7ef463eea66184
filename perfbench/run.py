"""Run one spikedepth benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train64 --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; the program is imported from the
checkout's src/ directory, never from an installed copy. Workloads are
described in workloads.py and README.md.

--trace 0 sets up the workload three times (setup_s is the median), then
runs ops for --seconds and prints the end-to-end metrics. --trace 1 sets up
the same way with the program traced, runs --seconds/2 untraced and then
--seconds/2 traced, writes the spans to
.bench_build/perfbench/traces/<workload>-seed<seed>.json and prints the
per-layer metrics, with the tracing overhead as the traced op_ms_p50 minus
the untraced one, both at reference speed.

End-to-end times are scaled to a reference host speed with a probe kernel
timed between ops; see Probe below and README.md. The measured values are
printed before the result line.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Lines before it give each metric with its
unit, the tail percentile used, and the machine the numbers come from.

    python3 perfbench/run.py --record-reference

recomputes the reference op and rewrites reference.json; run it only on a
commit whose outputs are the accepted ones.
"""

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread. On a host of two shared cores, two OpenBLAS threads made
# the same kernel take 14 or 48 ms depending on what the process had run
# before; set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("train64", "stream64", "sensor")
SETUP_REPS = 3


def load_program():
    if not os.path.isfile(os.path.join(SRC, "spikedepth", "__init__.py")):
        sys.exit("error: no spikedepth sources under %s; run this file from a "
                 "checkout of the repository" % SRC)
    sys.path.insert(0, SRC)
    import spikedepth
    if os.path.dirname(os.path.dirname(os.path.abspath(spikedepth.__file__))) != SRC:
        sys.exit("error: spikedepth was imported from %s, not from %s"
                 % (spikedepth.__file__, SRC))


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": "%s %s" % (blas.get("name", "unknown"), blas.get("version", "")),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# timing


# The host is a shared machine whose speed drifts by tens of percent over
# seconds and minutes, for the program and for any fixed kernel alike. A
# probe, a fixed numpy convolution that imports nothing from the program, is
# timed between ops and around each set-up; every end-to-end time is
# reported scaled by REFERENCE_PROBE_S over the probe's median in the same
# phase, that is, as it would read on a host where the probe takes
# REFERENCE_PROBE_S. Probing takes about PROBE_SHARE of a phase.
#
# The probe convolves an 8-channel 132x176 frame, a quarter of the sensor's,
# through preallocated buffers: a cache-sized frame followed the sensor's
# 1.8 GB working set poorly, and a probe that allocates would time the
# allocator's state, which the program changes. See README.md.
REFERENCE_PROBE_S = 0.035
PROBE_SHARE = 0.15
SETUP_PROBES = 4


class Probe:
    """The host-speed probe; times[] holds the duration of every run()."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((8, 132, 176))
        self.w = rng.standard_normal((8 * 3 * 3, 8))
        self.cols = np.empty((130, 174, 8, 3, 3))
        self.out = np.empty((130 * 174, 8))
        self.times = []
        self.burst(SETUP_PROBES)   # fault in the buffers and numpy's code paths
        self.times = []

    def run(self):
        t0 = time.perf_counter()
        for _ in range(4):
            win = np.lib.stride_tricks.sliding_window_view(self.x, (3, 3), axis=(1, 2))
            np.copyto(self.cols, win.transpose(1, 2, 0, 3, 4))
            np.matmul(self.cols.reshape(self.out.shape[0], -1), self.w, out=self.out)
            np.tanh(self.out, out=self.out)
        t = time.perf_counter() - t0
        self.times.append(t)
        return t

    def burst(self, n):
        return sum(self.run() for _ in range(n))

    def scale(self, since=0):
        """Factor that turns a time measured since times[since] into reference time."""
        return REFERENCE_PROBE_S / statistics.median(self.times[since:])


def run_phase(session, seconds, probe, tracer=None):
    """Closed loop for `seconds`; returns op durations, failures, wall, counts, scale.

    Before each op the probe runs until it has taken more than PROBE_SHARE
    of the time spent in ops, so at least once before the first op. The
    wall time excludes the probing and the benchmark's own output checks;
    scale is the probe's factor over the phase.
    """
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    clock = time.perf_counter
    gc.collect()
    since = len(probe.times)
    durations, failed, excluded, first_counts = [], 0, 0.0, None
    busy = probing = 0.0
    start = clock()
    while True:
        while probing <= PROBE_SHARE * busy:
            probing += probe.run()
        with span("op"):
            t0 = clock()
            session.op()
            durations.append(clock() - t0)
        busy += durations[-1]
        t0 = clock()
        failed += not session.check()
        if first_counts is None:
            first_counts = session.counts()
        excluded += clock() - t0
        with span("between"):
            session.between()
        if clock() - start >= seconds and session.can_stop():
            break
    wall = clock() - start - excluded - probing
    return durations, failed, wall, first_counts, probe.scale(since)


def tail(durations):
    """Highest percentile with at least 10 samples beyond it.

    Below 21 samples that percentile is not above the median, so the slowest
    sample is reported instead.
    """
    s = sorted(durations)
    k = len(s) - 11 if len(s) >= 21 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code and exit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    load_program()
    import tracing
    import workloads

    if args.record_reference:
        ref = workloads.reference_op(taped=True)
        untaped = workloads.reference_op(taped=False)
        if any(untaped[k] != ref[k] for k in untaped):
            sys.exit("error: the untaped forward differs from the taped one")
        with open(REFERENCE, "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(json.dumps(ref))
        return 0

    env = environment()
    work = os.path.join(WORK, "run-%s-%d" % (args.workload, os.getpid()))
    tracer = tracing.Tracer() if args.trace else None
    prepare = workloads.PREPARE[args.workload]
    probe = Probe()
    setup_times, raw_setup_times, session = [], [], None
    try:
        if tracer:
            tracing.install_program(tracer)
        for _ in range(SETUP_REPS):
            if session is not None:
                session.close()
                session = None
            shutil.rmtree(work, ignore_errors=True)
            gc.collect()
            since = len(probe.times)
            probe.burst(SETUP_PROBES)
            with tracer.span("setup") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                session = prepare(args.seed, work)
                raw_setup_times.append(time.perf_counter() - t0)
            probe.burst(SETUP_PROBES)
            setup_times.append(raw_setup_times[-1] * probe.scale(since))
        if tracer:
            tracer.uninstall()
        phase_s = args.seconds / 2 if tracer else args.seconds
        durations, failed, wall, counts, scale = run_phase(session, phase_s, probe)
        attempted = len(durations)
        if tracer:
            tracing.install_program(tracer)
            tracing.install_blocks(tracer, session.net)
            traced, traced_failed, _, _, traced_scale = run_phase(session, phase_s,
                                                                  probe, tracer)
            tracer.uninstall()
            attempted += len(traced)
            failed += traced_failed
        checkpoint_bytes = session.checkpoint_bytes()
        mismatches = []
        if args.workload in workloads.REFERENCE_TAPED:
            with open(REFERENCE) as fh:
                mismatches = workloads.reference_mismatches(args.workload, json.load(fh))
            attempted += 1
            failed += bool(mismatches)
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(work, ignore_errors=True)

    print("workload = %s  seed = %d  seconds = %g  trace = %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env = %s" % json.dumps(env, sort_keys=True))
    print("setup_s per set-up, measured = %s; at reference speed = %s"
          % (", ".join("%.4f" % t for t in raw_setup_times),
             ", ".join("%.4f" % t for t in setup_times)))
    print("probe median = %.4f ms in the timed phase, %.4f ms reference"
          % (REFERENCE_PROBE_S / scale * 1e3, REFERENCE_PROBE_S * 1e3))
    if mismatches:
        print("reference op mismatch: %s" % ", ".join(mismatches))
    p50 = statistics.median(durations)
    if tracer:
        summary = tracing.Summary(tracer.spans)
        metrics = tracing.per_layer_metrics(
            summary, statistics.median(traced) * traced_scale - p50 * scale)
        for name, value in counts.items():
            metrics[name] = metric(value, "count")
        metrics["model.checkpoint_bytes"] = metric(checkpoint_bytes, "bytes")
        path = write_trace(tracer, summary, args, env)
        print("trace = %s" % os.path.relpath(path, ROOT))
        print("untraced op_ms_p50 = %.4f ms over %d ops; traced = %.4f ms over %d ops"
              " (measured; at reference speed %.4f and %.4f ms)"
              % (p50 * 1e3, len(durations), statistics.median(traced) * 1e3, len(traced),
                 p50 * scale * 1e3, statistics.median(traced) * traced_scale * 1e3))
        for name, self_s in summary.self_table("op").items():
            print("self_ms_per_op %s = %.4f" % (name, self_s * 1e3))
    else:
        t, pct = tail(durations)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "op_ms_p50": metric(p50 * scale * 1e3, "ms"),
            "op_ms_tail": metric(t * scale * 1e3, "ms"),
            "ops_per_s": metric(len(durations) / (wall * scale), "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0, "MB"),
        }
        print("measured: op_ms_p50 = %.4f ms, op_ms_tail = %.4f ms, ops_per_s = %.4f 1/s"
              % (p50 * 1e3, t * 1e3, len(durations) / wall))
        print("op_ms_tail is p%.1f of %d ops" % (pct, len(durations)))
    for name, m in metrics.items():
        print("%s = %r %s" % (name, m["value"], m["unit"]))
    print("ops_attempted = %d  ops_failed = %d" % (attempted, failed))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_trace(tracer, summary, args, env):
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    path = os.path.join(WORK, "traces", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "columns": ["name", "start_s", "end_s", "parent"],
                   "spans": [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans],
                   "self_s_per_op": summary.self_table("op"),
                   "self_s_per_setup": summary.self_table("setup")}, fh)
    return path


if __name__ == "__main__":
    sys.exit(main())
