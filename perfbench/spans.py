"""In-memory span recorder for the traced benchmark run.

Each probe replaces one public function of ``seirsde`` at the name its
caller looks it up under (a module attribute, or an entry of the CLI's
dispatch table), so the program itself carries no tracing code. A span
records its name, start, end, the span that was open when it started and
the pass it belongs to, plus work counts read from the call's arguments and
result. Three probes also record the ``tracemalloc`` peak of their call,
numpy reporting its buffers to ``tracemalloc``. Tracking every allocation
makes the per-step loops of those layers several times slower, so peaks
are taken only in a separate memory pass and the timing passes run without
``tracemalloc``.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

from seirsde import bayes, cli, diagnostics, estimate, simulate


def _file_bytes(name):
    return lambda args, result: {"bytes": os.path.getsize(args[name])}


def _batch_counts(args, result):
    states, _, failures = result
    return {"replicate_steps": states.shape[0] * (states.shape[1] - 1),
            "failed_replicates": len(failures)}


def _reconstruct_counts(args, result):
    _, increments, failures = result
    return {"replicate_steps": increments.size,
            "failed_replicates": len(failures)}


def _replicate_counts(args, result):
    return {"attempted": args["n_rep"], "kept": result.n_replicates}


def _study_counts(args, result):
    attempted = args["n_rep"] * len(result)
    return {"attempted": attempted,
            "kept": attempted - sum(row.n_failed for row in result)}


def _chain_counts(args, result):
    n = args["cfg"].iterations
    return {"iterations": n, "accepted": round(result.acceptance_rate * n)}


@dataclass(frozen=True)
class Probe:
    layer: str        # metric prefix, e.g. "simulate.path_io"
    owner: object     # module or dict the caller looks the function up in
    key: str
    counts: object = None   # (bound arguments, result) -> {counter: value}
    peak: bool = False


PROBES = (
    Probe("simulate.simulate_path", simulate, "simulate_path",
          lambda a, r: {"steps": a["cfg"].n_steps}),
    Probe("simulate.path_io", simulate, "path_to_csv", _file_bytes("target")),
    Probe("simulate.path_io", simulate, "path_from_csv",
          _file_bytes("source")),
    Probe("simulate.simulate_batch", diagnostics, "simulate_batch",
          _batch_counts),
    Probe("reconstruct.reconstruct_replicate_arrays", estimate,
          "reconstruct_replicate_arrays", _reconstruct_counts, peak=True),
    Probe("estimate.replicate_estimates", estimate, "replicate_estimates",
          _replicate_counts, peak=True),
    Probe("estimate.estimate_path", estimate, "estimate_path"),
    Probe("estimate.girsanov_loglik", estimate, "girsanov_loglik"),
    Probe("model.hypothesis_window", estimate, "hypothesis_window"),
    Probe("diagnostics.consistency_study", diagnostics, "consistency_study",
          _study_counts, peak=True),
    Probe("diagnostics.residual_increments", diagnostics,
          "residual_increments"),
    Probe("diagnostics.qq_points", diagnostics, "qq_points"),
    Probe("diagnostics.normality_test", diagnostics, "normality_test"),
    Probe("bayes.metropolis", bayes, "metropolis", _chain_counts),
    Probe("cli.simulate", cli._COMMANDS, "simulate"),
    Probe("cli.estimate", cli._COMMANDS, "estimate"),
    Probe("cli.validate", cli._COMMANDS, "validate"),
)


def _ratio(num, den):
    return num / den if den else 0.0


# Every per-layer metric of BENCHMARK.json is "<layer>.<kind>"; the kind
# says how one pass's totals for the layer give its value.
def metric_value(t, kind):
    """The value of one kind of metric from a layer's totals in one pass."""
    if kind == "busy_s":
        return t.busy
    if kind == "self_s":
        return t.self
    if kind == "calls":
        return t.calls
    if kind == "peak_alloc_mb":
        return t.peak_mb
    if kind == "useful_ratio":
        return _ratio(t.count("kept"), t.count("attempted"))
    if kind == "accept_ratio":
        return _ratio(t.count("accepted"), t.count("iterations"))
    if kind == "busy_us_per_iter":
        return 1e6 * _ratio(t.busy, t.count("iterations"))
    return t.count(kind)


@dataclass
class Span:
    name: str
    pass_id: int
    parent: int          # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    peak_mb: float = 0.0
    base: int = 0        # traced bytes at entry, for the peak
    high: int = 0        # highest traced bytes seen while open


@dataclass
class LayerTotals:
    """One layer's spans within one pass, summed."""

    calls: int = 0
    busy: float = 0.0
    self: float = 0.0
    peak_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    def count(self, name):
        return self.counts.get(name, 0)


class Recorder:
    """Installs the probes for one pass at a time and keeps every span."""

    def __init__(self):
        self.spans = []
        self._open = []       # indices of the spans now running
        self._peaks = []      # the open spans that track a peak
        self._saved = []      # (owner, key, original) while installed
        self._pass_id = -1
        self._memory = False

    def install(self, pass_id, memory=False):
        """Probe the next pass; ``memory`` also records allocation peaks."""
        self._pass_id = pass_id
        self._memory = memory
        for probe in PROBES:
            original = _get(probe.owner, probe.key)
            self._saved.append((probe.owner, probe.key, original))
            _set(probe.owner, probe.key, self._wrap(probe, original))

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            _set(owner, key, original)

    def _wrap(self, probe, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(probe.layer, self._pass_id,
                        self._open[-1] if self._open else -1, 0.0)
            started_tracing = False
            track_peak = probe.peak and self._memory
            if track_peak:
                if tracemalloc.is_tracing():
                    high = tracemalloc.get_traced_memory()[1]
                    for outer in self._peaks:
                        outer.high = max(outer.high, high)
                else:
                    tracemalloc.start()
                    started_tracing = True
                tracemalloc.reset_peak()
                span.base = span.high = tracemalloc.get_traced_memory()[0]
                self._peaks.append(span)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if track_peak:
                    self._peaks.pop()
                    span.high = max(span.high,
                                    tracemalloc.get_traced_memory()[1])
                    span.peak_mb = (span.high - span.base) / 2**20
                    for outer in self._peaks:
                        outer.high = max(outer.high, span.high)
                    if started_tracing:
                        tracemalloc.stop()
            if probe.counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = probe.counts(bound.arguments, result)
            return result

        return traced

    def totals(self, pass_id):
        """Per-layer totals of one pass; self time excludes child spans."""
        totals = {probe.layer: LayerTotals() for probe in PROBES}
        child_time = {}
        for span in self.spans:
            if span.pass_id == pass_id and span.parent >= 0:
                child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                           + span.end - span.start)
        for i, span in enumerate(self.spans):
            if span.pass_id != pass_id:
                continue
            t = totals[span.name]
            duration = span.end - span.start
            t.calls += 1
            t.busy += duration
            t.self += duration - child_time.get(i, 0.0)
            t.peak_mb = max(t.peak_mb, span.peak_mb)
            for name, value in span.counts.items():
                t.counts[name] = t.counts.get(name, 0) + value
        return totals

    def metrics(self, names, pass_ids, memory_pass_id):
        """The named per-layer metrics: allocation peaks from the memory
        pass, the rest as the median over the timing passes."""
        per_pass = [self.totals(i) for i in pass_ids]
        memory = self.totals(memory_pass_id)
        out = {}
        for name in names:
            layer, kind = name.rsplit(".", 1)
            if kind == "peak_alloc_mb":
                out[name] = metric_value(memory[layer], kind)
            else:
                out[name] = statistics.median(metric_value(t[layer], kind)
                                              for t in per_pass)
        return out

    def silent_layers(self, pass_ids, layers):
        """The given layers that recorded no call in some traced pass."""
        return sorted({layer for i in pass_ids
                       for layer, t in self.totals(i).items()
                       if layer in layers and t.calls == 0})

    def to_json(self):
        return [{"name": s.name, "pass": s.pass_id, "parent": s.parent,
                 "start": s.start, "end": s.end, "counts": s.counts,
                 "peak_alloc_mb": s.peak_mb} for s in self.spans]


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
