"""Span tracing of labelmoments' public functions, installed from outside the package.

The tracer replaces selected attributes of the labelmoments modules (and a
few class methods) with wrappers that record, per span name, the call
count, the inclusive span time, the self time (span minus the spans of
wrapped children) and the number of calls that raised.  Observers attached
to a span add counts taken from the arguments or the result, such as rows
scored or valid census columns.

A function imported by value into another module is looked up there, so it
is wrapped in every namespace that calls it (for example
``experiments.estimate_triplet_from_moments`` and
``analysis.estimate_triplet_from_moments``); all those wrappers report under
the one span name of the defining module.  Wrappers only time and count:
arguments and results pass through untouched, so traced outputs are
byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self._stack: list[list] = []     # [span name, time covered by children]
        self._undo: list = []

    def stat(self, name: str) -> SpanStats:
        if name not in self.stats:
            self.stats[name] = SpanStats()
        return self.stats[name]

    def wrap(self, name, fn, observe=None):
        """Wrap ``fn`` as span ``name``; ``name`` may be a callable of (args, kwargs)."""
        stack, edges = self._stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            raised = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st = self.stat(span)
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                st.raised += raised
                edges[(parent, span)] += 1
            if observe is not None:
                observe(st.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr`` (module attribute, method or classmethod) by a wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, observe))
        else:
            wrapped = self.wrap(name, original, observe)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


# -- observers ---------------------------------------------------------------


def _moment_bytes(counts, args, kwargs, result):
    # from_state_counts(cls, counts, m): the dense state table it reads is
    # 2^(m+1) rows of C(m,2) pair products plus 2m sign columns, float64.
    m = int(_arg(args, kwargs, 2, "m"))
    counts["computed_bytes"] += 8 * (1 << (m + 1)) * (m * (m - 1) // 2 + 2 * m)


def _census(counts, args, kwargs, result):
    meta = result.metadata
    size = int(meta["census_size"])
    cells = size * len(meta["skipped"])
    counts["cells"] += cells
    counts["valid"] += cells - sum(meta["skipped"])
    counts["tiebreaks"] += int(meta.get("tiebreaks", 0))


def _excess_rows(counts, args, kwargs, result):
    m = len(_arg(args, kwargs, 0, "true_accuracies"))
    counts["rows"] += int(np.size(_arg(args, kwargs, 2, "estimates"))) // m


def _trials(counts, args, kwargs, result):
    counts["trials"] += int(_arg(args, kwargs, 3, "trials"))


def _docs(counts, args, kwargs, result):
    counts["docs"] += int(result.n)


def _triplet_span(args, kwargs) -> str:
    agg = _arg(args, kwargs, 1, "aggregation", "mean")
    return f"estimators.estimate_triplet_from_moments.{agg}"


def install(tracer: Tracer, invoke):
    """Wrap the layer boundaries the workloads cross; returns ``invoke`` wrapped as span ``cli``."""
    from labelmoments import analysis, cli, experiments, ising, manifest, ws
    from labelmoments.estimators import SampleMoments
    from labelmoments.experiments import TrialEngine

    patches = [
        # experiments: trial engine, DVR bisection, combined sweep, suites
        (experiments, "trial_rng", "experiments.trial_rng", None),
        (TrialEngine, "excess_series", "experiments.excess_series", _trials),
        (TrialEngine, "fit", "experiments.fit", None),
        (experiments, "expected_excess_error", "experiments.expected_excess_error", None),
        (experiments, "data_value_ratio", "experiments.data_value_ratio", None),
        (experiments, "combined_sweep", "experiments.combined_sweep", None),
        (experiments, "run_curves", "experiments.run_curves", None),
        (experiments, "run_dvr", "experiments.run_dvr", None),
        (experiments, "run_combined", "experiments.run_combined", None),
        # estimators: moments, triplet fits, quadratic solver, shrinkage
        (SampleMoments, "from_state_counts", "estimators.from_state_counts", _moment_bytes),
        (SampleMoments, "from_source_matrix", "estimators.from_source_matrix", None),
        (experiments, "estimate_triplet_from_moments", _triplet_span, _census),
        (analysis, "estimate_triplet_from_moments", _triplet_span, _census),
        (ws, "estimate_quadratic_triplet_from_moments",
         "estimators.estimate_quadratic_triplet_from_moments", _census),
        (experiments, "green_strawderman_alpha", "estimators.green_strawderman_alpha", None),
        (ws, "green_strawderman_alpha", "estimators.green_strawderman_alpha", None),
        # analysis: excess scoring, median MSE, bounds
        (experiments, "accuracy_excess", "analysis.accuracy_excess", _excess_rows),
        (analysis, "median_mse", "analysis.median_mse", None),
        (analysis, "bound_report", "analysis.bound_report", None),
        # ising: calibration, exact diagnostics, state-count draws
        (experiments, "calibrate", "ising.calibrate", None),
        (cli, "calibrate", "ising.calibrate", None),
        (experiments, "diagnostics", "ising.diagnostics", None),
        (cli, "diagnostics", "ising.diagnostics", None),
        (ising, "diagnostics", "ising.diagnostics", None),
        (analysis, "sample_state_counts", "ising.sample_state_counts", None),
        # ws: keyword sources and the case study
        (ws, "apply_sources", "ws.apply_sources", _docs),
        (ws, "run_case_study", "ws.run_case_study", None),
        (ws.Corpus, "from_jsonl", "ws.Corpus.from_jsonl", None),
        # label_model: loss and F1 as the case study looks them up
        (ws, "cross_entropy", "label_model.cross_entropy", None),
        (ws, "f1_score", "label_model.f1_score", None),
        # manifest: output and input hashing
        (manifest, "file_sha256", "manifest.file_sha256", None),
    ]
    for owner, attr, name, observe in patches:
        tracer.patch(owner, attr, name, observe)
    return tracer.wrap("cli", invoke)


# -- per-layer metrics ---------------------------------------------------------

LAYERS = ("experiments", "estimators", "analysis", "ising", "ws", "label_model", "manifest", "cli")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers named as in BENCHMARK.json; layers not exercised read 0."""
    s = tracer.stats

    def get(name: str) -> SpanStats:
        return s.get(name, SpanStats())

    def per_call(name: str, scale: float) -> float:
        st = get(name)
        return st.self_s * scale / st.calls if st.calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    out["experiments.trial_rng.calls"] = get("experiments.trial_rng").calls
    out["experiments.trial_rng.us_per_call"] = per_call("experiments.trial_rng", 1e6)
    loop = get("experiments.excess_series")
    out["experiments.draw.us_per_trial"] = ratio(loop.self_s * 1e6, loop.counts["trials"])
    fit = get("experiments.fit")
    out["experiments.trials.attempted"] = fit.calls
    out["experiments.trials.failed"] = fit.raised
    cells = get("experiments.data_value_ratio").calls
    evals = tracer.edges[("experiments.data_value_ratio", "experiments.expected_excess_error")]
    out["experiments.data_value_ratio.points"] = ratio(evals - cells, cells)
    for suite in ("run_curves", "run_combined", "run_dvr"):
        out[f"experiments.{suite}.s"] = get(f"experiments.{suite}").total_s

    mom = get("estimators.from_state_counts")
    out["estimators.from_state_counts.calls"] = mom.calls
    out["estimators.from_state_counts.us_per_call"] = per_call("estimators.from_state_counts", 1e6)
    out["estimators.from_state_counts.computed_bytes"] = mom.counts["computed_bytes"]
    out["estimators.from_source_matrix.calls"] = get("estimators.from_source_matrix").calls
    out["estimators.from_source_matrix.us_per_call"] = per_call("estimators.from_source_matrix", 1e6)
    for agg in ("mean", "median", "single"):
        name = f"estimators.estimate_triplet_from_moments.{agg}"
        st = get(name)
        out[f"{name}.calls"] = st.calls
        out[f"{name}.us_per_call"] = per_call(name, 1e6)
        out[f"{name}.valid_ratio"] = ratio(st.counts["valid"], st.counts["cells"])
    name = "estimators.estimate_quadratic_triplet_from_moments"
    st = get(name)
    out[f"{name}.calls"] = st.calls
    out[f"{name}.ms_per_call"] = per_call(name, 1e3)
    out[f"{name}.solves"] = st.counts["cells"]
    out[f"{name}.valid_ratio"] = ratio(st.counts["valid"], st.counts["cells"])
    out[f"{name}.tiebreaks"] = st.counts["tiebreaks"]
    name = "estimators.green_strawderman_alpha"
    out[f"{name}.calls"] = get(name).calls
    out[f"{name}.us_per_call"] = per_call(name, 1e6)
    out[f"{name}.fallbacks"] = get(name).raised

    exc = get("analysis.accuracy_excess")
    out["analysis.accuracy_excess.calls"] = exc.calls
    out["analysis.accuracy_excess.rows"] = exc.counts["rows"]
    out["analysis.accuracy_excess.us_per_call"] = per_call("analysis.accuracy_excess", 1e6)
    out["analysis.median_mse.s"] = get("analysis.median_mse").total_s
    out["ising.calibrate.ms"] = get("ising.calibrate").total_s * 1e3
    out["ising.diagnostics.ms"] = get("ising.diagnostics").total_s * 1e3

    app = get("ws.apply_sources")
    out["ws.apply_sources.calls"] = app.calls
    out["ws.apply_sources.docs_per_s"] = ratio(app.counts["docs"], app.total_s)
    out["ws.run_case_study.s"] = get("ws.run_case_study").total_s
    for fn in ("cross_entropy", "f1_score"):
        name = f"label_model.{fn}"
        out[f"{name}.calls"] = get(name).calls
        out[f"{name}.ms_per_call"] = per_call(name, 1e3)
    out["manifest.file_sha256.calls"] = get("manifest.file_sha256").calls
    out["manifest.file_sha256.s"] = get("manifest.file_sha256").total_s

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            st.self_s for span, st in s.items() if span.split(".", 1)[0] == layer
        )
    return out
