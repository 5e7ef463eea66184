"""Spiking depth prediction from event-camera streams.

Modules:
  tensor     taped reverse-mode autodiff over float64 numpy arrays
  neurons    integrate-and-fire dynamics with a triangular surrogate gradient
  events     event parsing, cumulative stacking, ground-truth alignment
  attention  temporal / channel / spatial gating
  model      spiking U-Net with residual bottleneck and per-scale depth heads
  losses     scale-shift-invariant depth loss, smoothness term, metrics
  synth      deterministic synthetic scene and dataset generator
  kv         key = value config files and the checkpoint cfg.* encoding
  cli        command-line harness (synth, stack, train, eval, predict, inspect)

Importing the package sets BLAS to one thread. This takes effect only when
numpy is not yet loaded, as in `python -m spikedepth` and the `spikedepth`
command; a process that imported numpy first keeps its own BLAS threads.
"""

import os

# the conv pool owns the parallelism, and a second BLAS thread would reorder a GEMM's sums
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

__version__ = "0.1.0"
