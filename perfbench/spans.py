"""Outside-in span tracing of the ddlf modules, and the per-layer metrics.

``Tracer.install`` replaces every public function of each ddlf layer module,
wherever a layer module binds it, with a wrapper that records one span per
call: ``[id, parent, name, start, end, trial, attrs]``. Times come from
``time.monotonic`` (CLOCK_MONOTONIC on Linux, so spans from forked pool
workers share the parent's time base). Children inherit the trial id of the
``harness.run_trial`` span they run under. Spans stay in memory; the caller
writes them out when the run ends. ``Tracer.uninstall`` puts every replaced
attribute back.

Pool workers: ``harness._trial_worker`` is wrapped to return its trial's
spans together with the trial result, and ``harness.ProcessPoolExecutor`` is
replaced by a subclass whose ``map`` strips them off again and files them
under the span that called ``map``. This relies on the fork start method, by
which workers inherit the wrapped modules; a trial whose spans do not come
back shows up as a missing ``harness.run_trial`` span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("harness", "gabor", "channel", "transforms", "piloting", "estimation", "link")
ESTIMATOR_VARIANTS = ("lmmse", "srh", "srh-na", "srh-ma", "srh-mna")
ID, PARENT, NAME, START, END, TRIAL, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._pid = os.getpid()
        self._count = 0
        self._patches: list[tuple[object, str, object]] = []

    def _own_process(self):
        # a forked pool worker inherits the parent's record; start its own
        if os.getpid() != self._pid:
            self._pid, self.spans, self._stack = os.getpid(), [], []

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._own_process()
            tracer._count += 1
            parent = tracer._stack[-1] if tracer._stack else None
            span = [f"{tracer._pid}.{tracer._count}", parent and parent[ID], name,
                    0.0, 0.0, parent and parent[TRIAL], None]
            if name == "harness.run_trial":
                a = sig.bind(*args, **kwargs).arguments
                span[TRIAL] = f"{a['cfg'].velocity}/{a['snr_db']:g}/{a['trial_index']}"
            elif name == "estimation.estimate":
                span[ATTRS] = {"variant": sig.bind(*args, **kwargs).arguments["cfg"].variant}
            tracer._stack.append(span)
            span[START] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ATTRS] = {**(span[ATTRS] or {}), "error": True}
                raise
            finally:
                span[END] = time.monotonic()
                tracer._stack.pop()
                tracer.spans.append(span)
            if name == "estimation.estimate":
                span[ATTRS]["residual"] = float(result.residual)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of every ddlf layer module."""
        wrappers = {}
        mods = {layer: importlib.import_module(f"ddlf.{layer}") for layer in LAYERS}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("ddlf."):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._patch(mod, attr, wrappers[obj])
        precoder = mods["transforms"].Precoder
        self._patch(precoder, "__init__", self._wrap("transforms.Precoder", precoder.__init__))
        self._patch_pool(mods["harness"])

    def _patch_pool(self, harness):
        tracer = self
        trial_worker = harness._trial_worker

        @functools.wraps(trial_worker)
        def traced_worker(job):
            tracer._own_process()
            index, result = trial_worker(job)
            spans, tracer.spans = tracer.spans, []
            return index, (result, spans)

        class TracedPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                caller = tracer._stack[-1][ID] if tracer._stack else None
                for index, (result, spans) in super().map(fn, *iterables, **kwargs):
                    for span in spans:
                        if span[PARENT] is None:
                            span[PARENT] = caller
                    tracer.spans.extend(spans)
                    yield index, result

        self._patch(harness, "_trial_worker", traced_worker)
        self._patch(harness, "ProcessPoolExecutor", TracedPool)

    def uninstall(self):
        """Restore every attribute install() replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: s[END] - s[START] - _covered(children[s[ID]]) for s in spans}


# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    *((f"estimation.{v}.ms_per_call", "ms") for v in ESTIMATOR_VARIANTS),
    ("estimation.fail", "count"),
    ("estimation.pilot_residual.median", "1"),
    ("channel.self_interference_power.self_ms_per_trial", "ms"),
    ("channel.self_interference_power.calls_per_trial", "calls"),
    *((f"gabor.{f}.{m}", u) for f in ("synthesize", "analyze", "cross_ambiguity")
      for m, u in (("ms_per_trial", "ms"), ("calls_per_trial", "calls"))),
    *((f"channel.{f}.{m}", u) for f in ("apply_channel", "true_cmd")
      for m, u in (("self_ms_per_trial", "ms"), ("calls_per_trial", "calls"))),
    ("channel.generate_channel.ms_per_trial", "ms"),
    ("gabor.tight_orthogonalize.calls", "calls"),
    ("gabor.tight_orthogonalize.ms", "ms"),
    ("piloting.accordion_placement.calls_per_trial", "calls"),
    ("piloting.accordion_placement.ms_per_trial", "ms"),
    ("piloting.mux.ms_per_trial", "ms"),
    ("transforms.Precoder.calls_per_trial", "calls"),
    ("transforms.Precoder.ms_per_trial", "ms"),
    ("transforms.encode.ms_per_trial", "ms"),
    ("transforms.decode.ms_per_trial", "ms"),
    ("link.conv_code_decode_hard.ms_per_trial", "ms"),
    ("link.conv_code_encode.ms_per_trial", "ms"),
    ("link.mmse_equalize.ms_per_trial", "ms"),
    ("link.compute_metrics.ms_per_trial", "ms"),
    ("harness.run_trial.self_ms", "ms"),
    ("harness.run_point.idle_ms", "ms"),
    ("setup.import_s", "s"),
    ("setup.first_trial_s", "s"),
    ("trace.overhead_frac", "frac"),
)

MUX = ("piloting.multiplex", "piloting.demultiplex", "piloting.extract_pilots",
       "piloting.qpsk_pilot_sequence")


def span_metrics(spans: list[list], sweeps: int, workers: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``sweeps`` traced sweeps.

    Per-trial figures divide by the number of ``harness.run_trial`` spans;
    ``gabor.tight_orthogonalize`` figures are per sweep; the run_point idle
    time is worker-slot time (workers x duration) not covered by its trials,
    averaged per point.
    """
    own = self_times(spans)
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        self_s[s[NAME]] += own[s[ID]]
    trials = calls["harness.run_trial"]
    if not trials:
        raise ValueError("no harness.run_trial spans were recorded")
    m = {}
    estimates = [s for s in spans if s[NAME] == "estimation.estimate"]
    for v in ESTIMATOR_VARIANTS:
        d = [s[END] - s[START] for s in estimates if s[ATTRS]["variant"] == v]
        m[f"estimation.{v}.ms_per_call"] = 1e3 * statistics.fmean(d) if d else 0.0
    m["estimation.fail"] = sum(1 for s in estimates if s[ATTRS].get("error"))
    residuals = [s[ATTRS]["residual"] for s in estimates if "residual" in s[ATTRS]]
    m["estimation.pilot_residual.median"] = statistics.median(residuals) if residuals else 0.0
    for name, _ in PER_LAYER:
        fn, _, kind = name.rpartition(".")
        if kind == "ms_per_trial":
            m[name] = 1e3 * total[fn] / trials
        elif kind == "self_ms_per_trial":
            m[name] = 1e3 * self_s[fn] / trials
        elif kind == "calls_per_trial":
            m[name] = calls[fn] / trials
    m["piloting.mux.ms_per_trial"] = 1e3 * sum(total[f] for f in MUX) / trials
    m["gabor.tight_orthogonalize.calls"] = calls["gabor.tight_orthogonalize"] / sweeps
    m["gabor.tight_orthogonalize.ms"] = 1e3 * total["gabor.tight_orthogonalize"] / sweeps
    m["harness.run_trial.self_ms"] = 1e3 * self_s["harness.run_trial"] / trials
    trial_time = defaultdict(float)
    for s in spans:
        if s[NAME] == "harness.run_trial":
            trial_time[s[PARENT]] += s[END] - s[START]
    points = [s for s in spans if s[NAME] == "harness.run_point"]
    m["harness.run_point.idle_ms"] = 1e3 * statistics.fmean(
        workers * (s[END] - s[START]) - trial_time[s[ID]] for s in points) if points else 0.0
    return m
