"""Span tracing from outside the program.

A Tracer replaces chosen functions of the spikedepth modules with wrappers
that record one span per call: name, start, end and the index of the span
that was open when the call began. Spans stay in memory until the run ends.
Nothing under src/ is edited; uninstall() puts every original back.

Self time of a span is its duration minus the durations of its direct
children. The program is single-threaded apart from BLAS, so children never
overlap and their summed duration is the part of the parent they cover.
"""

import contextlib
import statistics
import time

from spikedepth import attention, cli, events, model, neurons, synth, tensor

# Tape closure kinds reported one by one; every other kind counts as "other".
BACKWARD_KINDS = ("conv2d", "mul", "nearest_upsample", "pool", "sub", "linear",
                  "unstack", "concat", "sigmoid", "_fire", "add")

# Top-level spans opened by the runner. Program spans are grouped under them.
SCOPES = ("setup", "op", "between")


def backward_kind(fn):
    """'conv2d.<locals>.bw' -> 'conv2d'; unknown kinds -> 'other'."""
    kind = fn.__qualname__.split(".<locals>", 1)[0].rsplit(".", 1)[-1]
    return kind if kind in BACKWARD_KINDS else "other"


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self._open = []
        self._patches = []

    def wrap(self, fn, name):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(rec)
            open_.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(rec)
        self._open.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def patch(self, owner, attr, name):
        """Replace owner.attr (module, class or instance) by a traced wrapper."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, self.wrap(original, name))

    def patch_record(self, module):
        """Wrap every tape closure so the backward sweep yields one span per op."""
        record = module.record
        wrap = self.wrap

        def traced_record(outputs, inputs, backward):
            return record(outputs, inputs,
                          wrap(backward, "tensor.bw." + backward_kind(backward)))

        self._patches.append((module, "record", record, True))
        module.record = traced_record

    def uninstall(self):
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []


def install_program(tracer):
    """Trace the program functions the per-layer metrics are built from."""
    for owner, attr, name in (
            (synth, "generate_scene", "synth.generate_scene"),
            (synth, "write_dataset", "synth.write_dataset"),
            (events, "load_events", "events.load_events"),
            (events, "cumulative_stack", "events.cumulative_stack"),
            (events, "binocular_concat", "events.binocular_concat"),
            (cli, "load_windows", "cli.load_windows"),
            (cli, "window_loss", "losses.window_loss"),
            (model.DepthNet, "forward", "model.forward"),
            (model, "save_model", "model.save_model"),
            (neurons, "if_run", "neurons.if_run"),
            (attention, "tcsa", "attention.tcsa"),
            (tensor, "conv2d", "tensor.conv2d"),
            (tensor, "backward", "tensor.backward"),
            (tensor, "adam_step", "tensor.adam_step")):
        tracer.patch(owner, attr, name)
    tracer.patch_record(tensor)


def install_blocks(tracer, net):
    """Per-instance spans for each encoder, residual and decoder block."""
    for prefix, blocks in (("enc", net.encoders), ("res", net.residuals),
                           ("dec", net.decoders)):
        for i, block in enumerate(blocks):
            tracer.patch(block, "forward", "model.%s%d" % (prefix, i))


class Summary:
    """Per-scope inclusive and self totals derived from a span list."""

    def __init__(self, spans):
        n = len(spans)
        covered = [0.0] * n
        root = [0] * n
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        self.totals = {}   # root index -> {name: [inclusive, self]}
        self.calls = {}    # name -> list of durations
        for i, (name, start, end, _) in enumerate(spans):
            dur = end - start
            acc = self.totals.setdefault(root[i], {}).setdefault(name, [0.0, 0.0])
            acc[0] += dur
            acc[1] += dur - covered[i]
            self.calls.setdefault(name, []).append(dur)
        self.roots = {}    # scope name -> root indices in order
        for r in self.totals:
            if spans[r][3] < 0 and spans[r][0] in SCOPES:
                self.roots.setdefault(spans[r][0], []).append(r)

    def per_scope(self, scope, name, self_time=False):
        """Median over the scope's spans of the named span's total; 0 if absent."""
        roots = self.roots.get(scope, [])
        if not roots:
            return 0.0
        col = 1 if self_time else 0
        return statistics.median(self.totals[r].get(name, (0.0, 0.0))[col]
                                 for r in roots)

    def per_call(self, name):
        durs = self.calls.get(name)
        return statistics.median(durs) if durs else 0.0

    def self_table(self, scope):
        """Median self time per scope span for every span name seen under it."""
        names = set()
        for r in self.roots.get(scope, []):
            names.update(self.totals[r])
        return {name: self.per_scope(scope, name, self_time=True) for name in sorted(names)}


# (metric, span name, scope, self time?). Scope "op" is the median over ops
# of the span's total within one op, "setup" the median over set-ups, "call"
# the median over single calls wherever they happen.
PER_LAYER_SPANS = [
    ("cli.load_windows_s", "cli.load_windows", "setup", False),
    ("synth.generate_scene_s", "synth.generate_scene", "setup", False),
    ("synth.write_dataset_s", "synth.write_dataset", "setup", False),
    ("events.load_events_s", "events.load_events", "setup", False),
    ("events.cumulative_stack_ms", "events.cumulative_stack", "op", False),
    ("events.binocular_concat_ms", "events.binocular_concat", "op", False),
    ("model.forward_ms", "model.forward", "op", False),
] + [("model.%s_ms" % b, "model." + b, "op", False)
     for b in ("enc0", "enc1", "enc2", "enc3", "res0", "res1",
               "dec0", "dec1", "dec2", "dec3")] + [
    ("model.save_model_ms", "model.save_model", "call", False),
    ("attention.tcsa_ms", "attention.tcsa", "op", False),
    ("neurons.if_run_ms", "neurons.if_run", "op", False),
    ("losses.window_loss_ms", "losses.window_loss", "op", False),
    ("tensor.conv2d_ms", "tensor.conv2d", "op", False),
    ("tensor.backward_ms", "tensor.backward", "op", False),
    ("tensor.adam_step_ms", "tensor.adam_step", "op", False),
] + [("tensor.bw.%s_ms" % k, "tensor.bw." + k, "op", False)
     for k in BACKWARD_KINDS + ("other",)] + [
    ("tensor.bw.sweep_overhead_ms", "tensor.backward", "op", True),
]


def per_layer_metrics(summary, overhead_s):
    """Per-layer times from a traced phase; a layer an op never calls reads 0."""
    out = {}
    for name, span, scope, self_time in PER_LAYER_SPANS:
        if scope == "call":
            value = summary.per_call(span)
        else:
            value = summary.per_scope(scope, span, self_time)
        if name.endswith("_s"):
            out[name] = {"value": value, "unit": "s"}
        else:
            out[name] = {"value": value * 1e3, "unit": "ms"}
    out["trace.overhead_ms"] = {"value": overhead_s * 1e3, "unit": "ms"}
    return out
