"""Train the README C6 overfit config over several init seeds; write BENCH_c6_<label>.json.

C6 (tests/test_acceptance.py) trains one init seed and checks its final mean
depth error against a 5 cm bound. A change that only reorders a float sum
moves that one trajectory, so a single pass or fail cannot tell a regression
from a reordered sum. This script imports C6's scene and run config from
tests/test_acceptance.py and trains them for each seed in --seeds with the
checkout's own `synth` and `train` commands. It records every seed's final
MDE, step count and wall time, plus the minimum, median and maximum margin
to the 5 cm bound.

    python3 scripts/c6_sweep.py --label parent
    python3 scripts/c6_sweep.py --label smoke --seeds 0 --epochs 2 --out-dir /tmp/c6

The JSON file holds `label`, `bound_cm` (5.0), `epochs`, `host`, `runs` (one
record per seed: `seed`, `final_mde_cm`, `margin_cm`, `steps`, `wall_s`) and
`margin_cm` (`min`, `median`, `max` over the seeds).

The program and the test module (which needs numpy and pytest) are imported
from the `src/` and `tests/` beside this script. Each run trains in a
temporary directory that is removed afterwards.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BOUND_CM = 5.0

# C6's own scene and run config, so that the sweep trains the run C6 checks
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
from test_acceptance import OVERFIT_CFG, OVERFIT_SCENE  # noqa: E402
from spikedepth import tensor as tz  # noqa: E402

C6_CFG = dict(line.split(" = ", 1) for line in OVERFIT_CFG.splitlines())


def run_cfg(seed, epochs):
    """OVERFIT_CFG with its seed and epochs replaced, in the same order."""
    cfg = dict(C6_CFG, seed=str(seed), epochs=str(epochs))
    return "".join("%s = %s\n" % kv for kv in cfg.items())


def _cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    r = subprocess.run([sys.executable, "-m", "spikedepth", "--quiet"] + list(args),
                       capture_output=True, text=True, env=env)
    if r.returncode != 0:
        raise SystemExit("error: %s exited %d: %s" % (args[0], r.returncode, r.stderr.strip()))
    return r


def _last_value(text, key):
    found = None
    for line in text.splitlines():
        for tok in line.split():
            if tok.startswith(key + "="):
                found = tok[len(key) + 1:]
    if found is None:
        raise SystemExit("error: no %s= in train.log" % key)
    return found


def train_seed(root, data, seed, epochs):
    """One C6 training run; returns its record."""
    cfg = root / ("run%d.cfg" % seed)
    cfg.write_text(run_cfg(seed, epochs))
    out = root / ("out%d" % seed)
    t0 = time.monotonic()
    _cli("train", "--config", str(cfg), "--data", str(data), "--out", str(out))
    wall = time.monotonic() - t0
    log = (out / "train.log").read_text()
    mde = float(_last_value(log, "final_mde_cm"))
    return {"seed": seed, "final_mde_cm": mde, "margin_cm": BOUND_CM - mde,
            "steps": int(_last_value(log, "total_steps")), "wall_s": round(wall, 1)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output BENCH_c6_<label>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(8)),
                    help="init seeds to train (default 0-7)")
    ap.add_argument("--epochs", type=int, default=int(C6_CFG["epochs"]),
                    help="epochs per run (default %s, C6's)" % C6_CFG["epochs"])
    ap.add_argument("--out-dir", type=Path, default=REPO,
                    help="directory for the JSON file (default the repo root)")
    args = ap.parse_args(argv)

    runs = []
    with tempfile.TemporaryDirectory(prefix="c6_sweep-") as tmp:
        root = Path(tmp)
        (root / "scene.txt").write_text(OVERFIT_SCENE)
        data = root / "data"
        _cli("synth", "--spec", str(root / "scene.txt"), "--out", str(data))
        for seed in args.seeds:
            run = train_seed(root, data, seed, args.epochs)
            print("seed=%d final_mde_cm=%.4f steps=%d wall_s=%.1f"
                  % (seed, run["final_mde_cm"], run["steps"], run["wall_s"]), flush=True)
            runs.append(run)

    margins = [r["margin_cm"] for r in runs]
    result = {
        "label": args.label,
        "bound_cm": BOUND_CM,
        "epochs": args.epochs,
        # cpus: the CPUs this process may use, which size the conv kernels' pool
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": tz._WORKERS},
        "runs": runs,
        "margin_cm": {"min": min(margins), "median": statistics.median(margins),
                      "max": max(margins)},
    }
    path = args.out_dir / ("BENCH_c6_%s.json" % args.label)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print("wrote %s margin_cm min=%.2f median=%.2f max=%.2f"
          % (path, *(result["margin_cm"][k] for k in ("min", "median", "max"))))


if __name__ == "__main__":
    main()
