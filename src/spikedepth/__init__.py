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
"""

__version__ = "0.1.0"
