"""Outside-in span tracer for the spidereval layers.

The tracer wraps public functions of the package's modules from the
benchmark's own code: each wrapper is installed in every ``spidereval``
module namespace that holds the original function (and on the class for
methods), so the traced path is the one the CLI runs and no package file
changes. Spans (id, name, start, end, parent, thread) and counts stay in
memory and are written when the run ends.

A span opened on a worker thread with no open span of its own gets the
innermost open span of the main thread as parent, which links the
``ThreadPoolExecutor`` fold tasks to their ``run_nested_cv``. A span's
self time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Self-time metrics: each traced span name belongs to exactly one metric,
# and the union of these names is what gets wrapped.
SELF_TIME = {
    "harness.fit_s": ["harness.fit_ridge"],
    "harness.search_self_s": ["harness.random_search"],
    "harness.orchestration_s": ["harness.run_nested_cv", "harness._run_fold"],
    "ingest.matrix_s": ["ingest.FeatureTable.matrix"],
    "ingest.load_ratings_s": ["ingest.load_ratings"],
    "ingest.first_trial_filter_s": ["ingest.first_trial_filter"],
    "ingest.load_grids_s": ["ingest.load_float_grid", "ingest.load_mask"],
    "ingest.load_features_s": ["ingest.load_features"],
    "ingest.load_tables_s": [
        "ingest.load_categories", "partition.load_cv_plan",
        "outputs.load_image_targets", "outputs.load_predictions",
    ],
    "rng.substream_s": ["rng.substream"],
    "error_analysis.bootstrap_s": ["error_analysis.stratified_bootstrap_ci"],
    "error_analysis.tests_s": [
        "error_analysis.analyze_errors", "error_analysis.image_abs_errors",
        "error_analysis.category_summaries", "error_analysis.run_omnibus",
        "error_analysis.kruskal_wallis", "error_analysis.dunn_posthoc",
        "error_analysis.bh_fdr", "error_analysis.rank_top_criteria",
    ],
    "reliability.icc2k_s": ["reliability.icc2k"],
    "reliability.bootstrap_self_s": ["reliability.bootstrap_icc"],
    "reliability.build_matrix_s": ["reliability.build_rating_matrix"],
    "qc.run_s": ["qc.run_qc"],
    "partition.plan_s": ["partition.make_cv_plan", "partition.assert_no_leakage"],
    "partition.split_s": ["partition.split_participants", "partition.image_group_means"],
    "metrics.report_s": ["metrics.metric_report"],
    "attribution.overlap_s": [
        "attribution.composite_heatmap", "attribution.overlap_stats",
        "attribution.paired_one_sided_t", "attribution.representative_examples",
        "attribution.delta_fear_correlations",
    ],
    "outputs.write_s": [
        "outputs.write_csv", "outputs.write_json", "outputs.write_qc_report",
        "outputs.write_qc_summary", "outputs.write_participant_split",
        "outputs.write_image_targets", "outputs.write_predictions",
        "outputs.write_search_log", "outputs.write_metrics", "outputs.write_icc_reports",
        "outputs.write_overlap", "outputs.write_error_analysis", "outputs.write_manifest",
        "ingest.write_ratings", "partition.write_cv_plan",
    ],
    "outputs.digest_s": ["outputs.sha256_file"],
    "svgplot.render_s": ["svgplot.line_plot", "svgplot.mean_sd_plot", "svgplot.grouped_bar_plot"],
}

# Call-count metrics: number of spans of one name.
CALLS = {
    "harness.fit_calls": "harness.fit_ridge",
    "ingest.matrix_calls": "ingest.FeatureTable.matrix",
    "rng.substream_calls": "rng.substream",
    "reliability.icc_calls": "reliability.icc2k",
    "outputs.files_digested": "outputs.sha256_file",
}


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Counts taken from a call's arguments or result: span name -> hook
# returning {counter: increment}.
HOOKS = {
    "ingest.FeatureTable.matrix": lambda fn, a, k, r: {"ingest.rows_stacked": r.shape[0]},
    "harness.random_search": lambda fn, a, k, r: {
        "harness.trials": len(r[1]),
        "harness.trials_ok": sum(t.loss is not None for t in r[1]),
    },
    "harness.run_nested_cv": lambda fn, a, k, r: {
        "harness.threads": _bound(fn, a, k, "threads"),
    },
    "error_analysis.stratified_bootstrap_ci": lambda fn, a, k, r: {
        "error_analysis.replicates": _bound(fn, a, k, "B"),
    },
    "qc.run_qc": lambda fn, a, k, r: {"qc.raters_dropped": len(r[0].excluded)},
}

# Every per-layer metric with its unit, in report order.
UNITS = {
    "harness.fit_calls": "count", "harness.fit_s": "s", "harness.search_self_s": "s",
    "harness.trials": "count", "harness.trial_ok_ratio": "ratio",
    "harness.pool_efficiency": "ratio", "harness.orchestration_s": "s",
    "ingest.matrix_calls": "count", "ingest.rows_stacked": "count", "ingest.matrix_s": "s",
    "ingest.load_ratings_s": "s", "ingest.first_trial_filter_s": "s",
    "ingest.load_grids_s": "s", "ingest.load_features_s": "s", "ingest.load_tables_s": "s",
    "rng.substream_calls": "count", "rng.substream_s": "s",
    "error_analysis.replicates": "count", "error_analysis.bootstrap_s": "s",
    "error_analysis.tests_s": "s",
    "reliability.icc_calls": "count", "reliability.icc2k_s": "s",
    "reliability.bootstrap_self_s": "s", "reliability.build_matrix_s": "s",
    "qc.run_s": "s", "qc.raters_dropped": "count",
    "partition.plan_s": "s", "partition.split_s": "s",
    "metrics.report_s": "s", "attribution.overlap_s": "s",
    "outputs.write_s": "s", "outputs.digest_s": "s", "outputs.files_digested": "count",
    "svgplot.render_s": "s",
    "cli.glue_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count(1)
        self._main = threading.get_ident()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main) if thread != self._main else None
                parent = main[-1] if main else None
            span = next(self._ids)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span, name, start, end, parent, thread))
            if hook is not None:
                increments = hook(fn, args, kwargs, result)
                with self._lock:
                    self.counts.update(increments)
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every function named in SELF_TIME, in every loaded spidereval
    namespace that holds it."""
    import spidereval

    for info in pkgutil.iter_modules(spidereval.__path__):
        importlib.import_module(f"spidereval.{info.name}")
    namespaces = [m for n, m in sys.modules.items() if n.startswith("spidereval.")]
    for names in SELF_TIME.values():
        for name in names:
            module, *attr = name.split(".")
            owner = importlib.import_module(f"spidereval.{module}")
            if len(attr) == 2:
                owner = getattr(owner, attr[0])
            original = getattr(owner, attr[-1])
            wrapper = tracer.wrap(name, original)
            setattr(owner, attr[-1], wrapper)
            if len(attr) == 1:
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (everything in UNITS except
    trace.overhead_s, which needs the untraced runs)."""
    spans = trace["spans"]
    counts = trace["counts"]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_by_name: Counter = Counter()
    dur_by_name: Counter = Counter()
    calls: Counter = Counter()
    top_level = 0.0
    for span, name, start, end, parent, _ in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(span, ())]
        self_by_name[name] += (end - start) - _covered([iv for iv in inside if iv[1] > iv[0]])
        dur_by_name[name] += end - start
        calls[name] += 1
        if parent is None:
            top_level += end - start
    out = {metric: sum(self_by_name[n] for n in names) for metric, names in SELF_TIME.items()}
    out.update({metric: float(calls[name]) for metric, name in CALLS.items()})
    for key in ("ingest.rows_stacked", "harness.trials", "error_analysis.replicates",
                "qc.raters_dropped"):
        out[key] = float(counts.get(key, 0))
    trials = counts.get("harness.trials", 0)
    out["harness.trial_ok_ratio"] = counts.get("harness.trials_ok", 0) / trials if trials else 0.0
    cv_wall = dur_by_name["harness.run_nested_cv"]
    threads = counts.get("harness.threads", 0)
    out["harness.pool_efficiency"] = (
        dur_by_name["harness._run_fold"] / (threads * cv_wall) if threads and cv_wall else 0.0
    )
    out["cli.glue_s"] = trace["wall_s"] - top_level
    out["trace.spans"] = float(len(spans))
    return out
