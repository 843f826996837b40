"""Command-line interface.

Subcommands mirror the analysis stages: ``qc``, ``split``, ``cv``,
``metrics``, ``icc``, ``curve``, ``overlap``, ``error-analysis``,
``prop-ci``, ``synth``, and ``all``. Options come from a JSON config
file (``--config``) overridden by flags; the master seed falls back to
the ``SPIDEREVAL_SEED`` environment variable. Validation failures exit
with code 1 and computation failures with code 2, both printing a
machine-readable error JSON on stderr. Outputs are byte-identical for
identical configs and inputs regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import re
import sys
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from . import __version__
from .defaults import (ALPHA, DEFAULT_BOOTSTRAP, DEFAULT_REPS, FORMS, KIND, MIN_CELL,
                       MISSING_MODES, N_TRIALS)
from .errors import ComputationError, InputError
from .ingest import (
    InputFile,
    RatingsTable,
    first_trial_filter,
    json_text,
    load_categories,
    load_features,
    load_float_grid,
    load_mask,
    load_ratings,
    write_features,
    write_ratings,
)
from .outputs import (
    load_image_targets,
    load_predictions,
    write_csv,
    write_error_analysis,
    write_fit_results,
    write_icc_reports,
    write_image_targets,
    write_json,
    write_manifest,
    write_metrics,
    write_overlap,
    write_participant_split,
    write_predictions,
    write_qc_report,
    write_qc_summary,
    write_search_log,
)
from .rng import check_seed

# The split, the search and the analysis modules are imported by the
# command that runs them, so a command loads only what it runs.

log = logging.getLogger("spidereval")

SEED_ENV = "SPIDEREVAL_SEED"


class _Parser(argparse.ArgumentParser):
    """Raise instead of exiting so argparse failures share the error JSON."""

    def error(self, message):
        raise InputError(message)


# -- option table ------------------------------------------------------------


def _int(value) -> int:
    """A JSON integer or a decimal string: a float would be truncated and a
    bool read as 0 or 1, so both are refused."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _count(value) -> int:
    n = _int(value)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _seed(value) -> int:
    return check_seed(_int(value))


def _path(value) -> str:
    value = str(value)
    if not os.path.exists(value):
        raise ValueError(f"path does not exist: {value}")
    return value


def _dirs(value) -> list[str]:
    dirs = [value] if isinstance(value, str) else [str(d) for d in value]
    for d in dirs:
        if not os.path.isdir(d):
            raise ValueError(f"not a directory: {d}")
    return dirs


def _mask_dir(value) -> str:
    (value,) = _dirs(str(value))
    if not any(f.endswith(".pgm") for f in os.listdir(value)):
        raise ValueError(f"no .pgm masks found in {value}")
    return value


def _sizes(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    return tuple(_int(v) for v in value)


def _text(value) -> str:
    """A label written into CSV and SVG files: text UTF-8 cannot encode (a
    lone surrogate from undecodable argv bytes or a JSON escape) is refused."""
    value = str(value)
    value.encode("utf-8")  # UnicodeEncodeError is a ValueError
    return value


def _predictor(value) -> dict:
    """The config's ``predictor`` object, checked as the spec it makes: its
    ``ranges`` replace the default search space and are what it resolves to.
    Its ``kind`` is checked here; the ``kind`` option decides the run's."""
    from .harness import PredictorSpec, default_spec
    if not isinstance(value, dict):
        raise TypeError("must be a JSON object")
    unknown = sorted(set(value) - {"kind", "ranges"})
    if unknown:
        raise InputError(f"unknown predictor config keys {unknown}", field="predictor")
    try:
        ranges = {
            str(name): (_float(lo), _float(hi), str(scale))
            for name, (lo, hi, scale) in value.get("ranges", default_spec().ranges).items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed predictor config: {exc}", field="predictor") from exc
    PredictorSpec(kind=value.get("kind", KIND), ranges=ranges)
    return {"ranges": ranges}


@dataclasses.dataclass(frozen=True)
class Option:
    """One row of the option table.

    ``name`` is the config key; the flag is ``--name`` with ``_`` written
    as ``-``. A value resolves as flag, else config key, else ``env``,
    else ``default``, and ``cast`` runs once on whatever was found: a
    ValueError, TypeError or OSError it raises, or a value outside
    ``choices``, is reported as a validation error naming the option.
    ``help=None`` marks a key that only a config file can set. A ``_path``,
    ``_dirs`` or ``_mask_dir`` option names input files, which the run
    manifest digests under ``inputs`` instead of recording the path.
    """

    name: str
    cast: Callable[[Any], Any]
    default: Any
    help: str | None
    commands: str
    nargs: str | None = None
    choices: tuple[str, ...] | None = None
    env: str | None = None


OPTIONS = (
    Option("out", str, None, "output directory",
           "qc split cv metrics icc curve overlap error-analysis prop-ci synth all"),
    Option("seed", _seed, None, f"master seed (default: ${SEED_ENV})",
           "split cv icc error-analysis synth all", env=SEED_ENV),
    Option("ratings", _path, None, "ratings CSV", "qc split icc all"),
    Option("plan", _path, None, "cv_plan.json", "cv"),
    Option("targets", _path, None, "image_targets.csv", "cv metrics error-analysis overlap"),
    Option("features", _path, None, "features CSV", "cv all"),
    Option("predictions", _path, None, "predictions.csv", "metrics error-analysis"),
    Option("categories", _path, None, "categories CSV (enables error analysis)",
           "error-analysis all"),
    Option("heatmaps", _dirs, None, "heatmap dirs, averaged (enables overlap)", "overlap all",
           nargs="+"),
    Option("masks", _mask_dir, None, "mask dir (enables overlap)", "overlap all"),
    Option("kind", str, KIND, "predictor kind", "cv all", choices=(KIND,)),
    Option("predictor", _predictor, {}, None, "cv all"),
    Option("trials", _count, N_TRIALS, "search trials per fold", "cv all"),
    Option("threads", _count, 1, "worker threads", "cv all"),
    Option("sizes", _sizes, None, "comma-separated ICC subsample sizes", "icc all"),
    Option("reps", _int, DEFAULT_REPS, "ICC bootstrap repetitions per size", "icc all"),
    Option("missing", str, "impute", "ICC missing-cell handling", "icc all",
           choices=MISSING_MODES),
    Option("bootstrap", _int, DEFAULT_BOOTSTRAP, "error-analysis bootstrap replicates",
           "error-analysis all"),
    Option("min_cell", _int, MIN_CELL, "minimum category size for tests", "error-analysis all"),
    Option("alpha", _float, ALPHA, "FDR significance level", "error-analysis all"),
    Option("level", _float, 0.95, "confidence level", "error-analysis prop-ci all"),
    Option("points", _path, None, "CSV with header n,y", "curve"),
    Option("form", str, None, "curve form", "curve", choices=FORMS),
    Option("model", _text, "", "label for the output row", "curve"),
    Option("metric", _text, "", "label for the output row", "curve"),
    Option("successes", _int, None, "number of successes", "prop-ci"),
    Option("n", _int, None, "number of trials", "prop-ci"),
    Option("images", _int, 313, "number of images", "synth"),
    Option("raters", _int, 148, "number of raters", "synth"),
    Option("var_image", _float, 100.0, "image variance component", "synth"),
    Option("var_rater", _float, 25.0, "rater variance component", "synth"),
    Option("var_residual", _float, 25.0, "residual variance", "synth"),
    Option("mu", _float, 50.0, "grand mean rating", "synth"),
    Option("outliers", _int, 0, "number of outlier raters", "synth"),
    Option("offset", _float, 0.0, "rating offset of the outlier raters", "synth"),
    Option("dim", _int, 0, "feature dimension (0: no features)", "synth"),
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config = InputFile(path, "config").read_json()
    if not isinstance(config, dict):
        raise InputError("config must be a JSON object", field="config")
    unknown = sorted(set(config) - {opt.name for opt in OPTIONS})
    if unknown:
        raise InputError(f"config key {unknown[0]!r} names no option", field=unknown[0])
    return config


def _resolve(args) -> SimpleNamespace:
    """Every option of ``args.command``, resolved and cast once.

    ``inputs`` lists the input files named.
    """
    config = _load_config(args.config)
    required = COMMANDS[args.command][2].split()
    opts = SimpleNamespace(inputs=[])
    for opt in OPTIONS:
        if args.command not in opt.commands.split():
            continue
        value = getattr(args, opt.name, None)
        if value is None:
            value = config.get(opt.name)
        if value is None and opt.env is not None:
            value = os.environ.get(opt.env)
        if value is None:
            if opt.name in required:
                raise InputError(f"missing required option {_flag(opt.name)}", field=opt.name)
            value = opt.default
        if value is not None:
            try:
                value = opt.cast(value)
                if opt.choices is not None and value not in opt.choices:
                    raise ValueError(f"must be one of {opt.choices}, got {value!r}")
            except (TypeError, ValueError, OSError) as exc:
                raise InputError(f"option {opt.name}: {exc}", field=opt.name) from exc
            if opt.cast is _path:
                opts.inputs.append(value)
        setattr(opts, opt.name, value)
    return opts


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "unnamed"


class _Run:
    """Output directory of one command plus the input and output files its
    manifest digests."""

    def __init__(self, out: str | None, inputs: list[str]) -> None:
        self.out = out
        self.inputs = list(inputs)
        self.outputs: list[str] = []

    def path(self, name: str) -> str:
        """Path of an artifact under the output directory, recorded as an
        output; the first creates the directory, so a refused run makes none."""
        if not self.outputs:
            os.makedirs(self.out, exist_ok=True)
        path = os.path.join(self.out, name)
        self.outputs.append(path)
        return path

    def write_svg(self, name: str, svg: str) -> None:
        with open(self.path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)


# -- commands: each loads its inputs and writes its artifacts; `all` runs ---
# them in turn and hands qc's cleaned table to split and icc, so the ratings
# are parsed once; main writes the manifest.


def _cmd_qc(opts, run: _Run) -> RatingsTable:
    """Screen the raters; returns the cleaned table as ratings_filtered.csv
    holds it, each rating parsed back from its text there."""
    from .qc import run_qc
    table = load_ratings(opts.ratings)
    report, cleaned = run_qc(table)
    counts = {
        "n_ratings_input": len(table),
        "n_ratings_first_trial": report.n_first_trial,
        "n_ratings_removed": report.n_first_trial - len(cleaned),
        "n_ratings_after": len(cleaned),
        "n_participants_input": table.n_participants,
        "n_participants_after": cleaned.n_participants,
    }
    write_qc_report(run.path("qc_report.csv"), report)
    write_qc_summary(run.path("qc_summary.json"), report, counts)
    rating = write_ratings(cleaned, run.path("ratings_filtered.csv"))
    log.info("qc: excluded %d participants", len(report.excluded))
    return RatingsTable.from_codes(cleaned.participant_ids, cleaned.participant,
                                   cleaned.image_ids, cleaned.image, cleaned.trial, rating)


def _cmd_split(opts, run: _Run, table: RatingsTable | None = None) -> None:
    """Split ``table``, by default the first trials of ``--ratings``."""
    from .partition import (assert_no_leakage, image_group_means, make_cv_plan,
                            split_participants, write_cv_plan)
    if table is None:
        table = first_trial_filter(load_ratings(opts.ratings))
    split = split_participants(table.participant_ids, opts.seed)
    targets = image_group_means(table, split)
    plan = make_cv_plan(targets.image_ids, opts.seed)
    assert_no_leakage(plan, targets)
    write_participant_split(run.path("participant_split.json"), split)
    write_image_targets(run.path("image_targets.csv"), targets)
    write_cv_plan(run.path("cv_plan.json"), plan)
    dropped = targets.dropped
    log.log(logging.WARNING if dropped else logging.INFO,
            "split: groups %d/%d, %d evaluable images, %d dropped%s", len(split.group_a),
            len(split.group_b), len(targets.mean_a), len(dropped),
            f" (not rated in both groups; first: {list(dropped[:5])})" if dropped else "")


def _cmd_icc(opts, run: _Run, table: RatingsTable | None = None) -> None:
    """The ICC(2,k) bootstrap of ``table``, by default the first trials of
    ``--ratings``."""
    from .reliability import DEFAULT_SIZES, bootstrap_icc, build_rating_matrix, icc2k
    from .svgplot import mean_sd_plot
    if table is None:
        table = first_trial_filter(load_ratings(opts.ratings))
    matrix = build_rating_matrix(table)
    if opts.sizes is None:
        n_raters = len(matrix.rater_ids)
        opts.sizes = tuple(s for s in DEFAULT_SIZES if s <= n_raters) or (n_raters,)
    boot = bootstrap_icc(
        matrix, sizes=opts.sizes, reps=opts.reps, seed=opts.seed, missing=opts.missing
    )
    write_icc_reports(run.path("icc_report.csv"), run.path("icc_summary.csv"), boot)
    write_json(
        run.path("icc_full.json"),
        {
            "icc2k": icc2k(matrix, missing=opts.missing),
            "n_images": len(matrix.image_ids),
            "n_raters": len(matrix.rater_ids),
            "missing_mode": opts.missing,
        },
    )
    run.write_svg(
        "icc_curve.svg",
        mean_sd_plot(
            [(s, boot.means[s], boot.sds[s]) for s in boot.sizes],
            "ICC(2,k) by rater subsample size", "raters", "ICC(2,k)",
        ),
    )


def _cmd_cv(opts, run: _Run) -> None:
    from .harness import PredictorSpec, run_nested_cv, search_summary
    from .partition import load_cv_plan
    spec = PredictorSpec(kind=opts.kind, ranges=opts.predictor["ranges"])
    plan = load_cv_plan(opts.plan)
    if opts.seed is None:
        opts.seed = plan.seed  # a stored plan fully determines the run
    ps, search_log = run_nested_cv(
        plan, load_image_targets(opts.targets), load_features(opts.features), spec,
        n_trials=opts.trials, seed=opts.seed, threads=opts.threads,
    )
    write_predictions(run.path("predictions.csv"), ps)
    write_search_log(run.path("search_log.jsonl"), search_log)
    write_json(run.path("search_summary.json"), search_summary(spec, search_log, ps.refits))


def _cmd_metrics(opts, run: _Run) -> None:
    from .metrics import metric_report
    report = metric_report(load_predictions(opts.predictions),
                           load_image_targets(opts.targets).mean_b)
    write_metrics(run.path("metrics.csv"), report, run.path("metrics_by_repetition.csv"))


def _load_points(path: str) -> list[tuple[float, float]]:
    """(n, y) rows, sorted; fit_curve checks that they can identify three parameters."""
    src = InputFile(path, "points")
    return sorted(
        (src.number(n, line, "n"), src.number(y, line, "y"))
        for line, (n, y) in src.rows(["n", "y"])
    )


def _cmd_curve(opts, run: _Run) -> None:
    from .curvefit import fit_curve, model_value
    from .svgplot import line_plot
    form, model_label, metric_label = opts.form, opts.model, opts.metric
    points = _load_points(opts.points)
    result = fit_curve(form, points)
    if not result.converged:
        raise ComputationError(
            f"curve fit has no interior optimum of the rate b (stop reason: {result.stop_reason})"
        )
    write_fit_results(run.path("learning_curve.csv"), model_label, metric_label, result)
    ns = np.array([n for n, _ in points], dtype=np.float64)
    grid = np.linspace(float(ns.min()), float(ns.max()), 100)
    fitted = model_value(form, np.array(result.params), grid)
    stem = _sanitize(f"curve_{model_label}_{metric_label}") if (model_label or metric_label) else "curve"
    run.write_svg(
        f"{stem}.svg",
        line_plot(
            [("fit", list(zip(grid.tolist(), fitted.tolist())))],
            f"{model_label} {metric_label}".strip() or "learning curve",
            "training images", metric_label or "value",
            markers=points,
        ),
    )


def _cmd_overlap(opts, run: _Run) -> None:
    """Overlap of the averaged heatmaps with each mask; ``--targets`` adds
    the fear filter and the delta-fear correlations."""
    from .attribution import (FEAR_FILTER_MIN, composite_heatmap, delta_fear_correlations,
                              overlap_stats, paired_one_sided_t, representative_examples)
    fear = None if opts.targets is None else load_image_targets(opts.targets).mean_b
    records = []
    for fname in sorted(f for f in os.listdir(opts.masks) if f.endswith(".pgm")):
        image_id = fname[: -len(".pgm")]
        mask_path = os.path.join(opts.masks, fname)
        mask = load_mask(mask_path)
        run.inputs.append(mask_path)
        grids = []
        for d in opts.heatmaps:
            hpath = os.path.join(d, image_id + ".pfm")
            grids.append(load_float_grid(hpath))
            run.inputs.append(hpath)
        records.append(overlap_stats(image_id, composite_heatmap(grids), mask))
    ttest = dataclasses.asdict(paired_one_sided_t(records))
    write_overlap(run.path("overlap.csv"), records)
    max_id, zero_id, min_id = representative_examples(records, fear=fear)
    write_json(
        run.path("representative_examples.json"),
        {
            "max_delta": max_id,
            "nearest_zero": zero_id,
            "min_delta": min_id,
            "fear_filter_min": None if fear is None else FEAR_FILTER_MIN,
        },
    )
    if fear is not None:
        corr = delta_fear_correlations(records, fear)
        ttest["delta_fear_pearson"] = corr["pearson"]
        ttest["delta_fear_spearman"] = corr["spearman"]
        write_csv(
            run.path("delta_vs_fear.csv"),
            ["image_id", "delta", "fear"],
            [[r.image_id, r.delta, fear[r.image_id]] for r in records if r.image_id in fear],
        )
    write_json(run.path("ttest.json"), ttest)


def _cmd_error_analysis(opts, run: _Run) -> None:
    from .error_analysis import analyze_errors, image_abs_errors
    from .svgplot import grouped_bar_plot
    ps, targets = load_predictions(opts.predictions), load_image_targets(opts.targets)
    cats = load_categories(opts.categories)
    report = analyze_errors(
        image_abs_errors(ps, targets.mean_b), cats,
        bootstrap=opts.bootstrap, level=opts.level,
        min_cell=opts.min_cell, alpha=opts.alpha, seed=opts.seed,
    )
    write_error_analysis(run.path("descriptives.csv"), run.path("omnibus.csv"),
                         run.path("posthoc.csv"), run.path("top_criteria.json"), report)
    for criterion in report.top_criteria:
        rows = [s for s in report.summaries if s.criterion == criterion]
        run.write_svg(
            f"shares_{_sanitize(criterion)}.svg",
            grouped_bar_plot(
                [s.category for s in rows],
                [(s.share, s.freq) for s in rows],
                ("share", "freq"), criterion, "proportion",
            ),
        )


def _cmd_prop_ci(opts, run: _Run) -> None:
    from .reliability import wilson_ci
    low, high = wilson_ci(opts.successes, opts.n, opts.level)
    doc = {
        "successes": opts.successes,
        "n": opts.n,
        "level": opts.level,
        "estimate": opts.successes / opts.n,
        "low": low,
        "high": high,
    }
    sys.stdout.write(json_text(doc))
    if opts.out is not None:
        write_json(run.path("prop_ci.json"), doc)


# synth option -> SynthSpec field
_SYNTH_FIELDS = {
    "images": "n_images", "raters": "n_raters", "var_image": "var_image",
    "var_rater": "var_rater", "var_residual": "var_residual", "mu": "mu",
    "outliers": "n_outliers", "offset": "outlier_offset", "dim": "feature_dim",
}


def _cmd_synth(opts, run: _Run) -> None:
    from .synth import SynthSpec, generate
    try:
        spec = SynthSpec(seed=opts.seed,
                         **{field: getattr(opts, name) for name, field in _SYNTH_FIELDS.items()})
    except InputError as exc:
        exc.field = {field: name for name, field in _SYNTH_FIELDS.items()}.get(exc.field, exc.field)
        raise
    table, features, truth = generate(spec)
    write_ratings(table, run.path("ratings.csv"))
    if features is not None:
        write_features(features, run.path("features.csv"))
    write_json(run.path("ground_truth.json"), truth)


def _cmd_all(opts, run: _Run) -> None:
    if (opts.masks is None) != (opts.heatmaps is None):
        absent = "masks" if opts.masks is None else "heatmaps"
        raise InputError(
            f"overlap needs both --masks and --heatmaps; {_flag(absent)} is missing",
            field=absent,
        )
    cleaned = _cmd_qc(opts, run)
    _cmd_split(opts, run, cleaned)
    # the later stages read back what split and cv wrote, as the chain does
    opts.plan, opts.targets, opts.predictions = (
        os.path.join(opts.out, name)
        for name in ("cv_plan.json", "image_targets.csv", "predictions.csv"))
    _cmd_cv(opts, run)
    _cmd_metrics(opts, run)
    _cmd_icc(opts, run, cleaned)
    if opts.categories is not None:
        _cmd_error_analysis(opts, run)
    if opts.masks is not None:
        _cmd_overlap(opts, run)


# name -> (implementation, help, options that must be set)
COMMANDS: dict[str, tuple[Callable[[SimpleNamespace, _Run], Any], str, str]] = {
    "qc": (_cmd_qc, "rater screening", "out ratings"),
    "split": (_cmd_split, "participant split, targets, CV plan", "out seed ratings"),
    "cv": (_cmd_cv, "nested cross-validation", "out plan targets features"),
    "metrics": (_cmd_metrics, "per-repetition and ensemble metrics", "out predictions targets"),
    "icc": (_cmd_icc, "ICC(2,k) rater-subsample bootstrap", "out seed ratings"),
    "curve": (_cmd_curve, "learning-curve fit", "out points form"),
    "overlap": (_cmd_overlap, "heatmap/mask overlap", "out heatmaps masks"),
    "error-analysis": (_cmd_error_analysis, "category-wise error decomposition",
                       "out seed predictions targets categories"),
    "prop-ci": (_cmd_prop_ci, "Wilson score interval", "successes n"),
    "synth": (_cmd_synth, "synthetic data with known truth", "out seed"),
    "all": (_cmd_all, "full pipeline on one ratings set", "out seed ratings features"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spidereval", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="JSON config file; flags override its keys")
        sub.add_argument("--verbose", action="store_true", help="log progress to stderr")
        for opt in OPTIONS:
            if opt.help is not None and command in opt.commands.split():
                choices = "" if opt.choices is None else f": {' or '.join(opt.choices)}"
                sub.add_argument(_flag(opt.name), nargs=opt.nargs, help=opt.help + choices)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # the handler is set up once per process, the level on every call
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
        log.setLevel(logging.INFO if args.verbose else logging.WARNING)
        opts = _resolve(args)
        run = _Run(opts.out, opts.inputs)
        COMMANDS[args.command][0](opts, run)
        if opts.out is not None:
            # Every option with its resolved value, apart from where the
            # artifacts go, the worker count (which changes no byte), the
            # seed (a field of its own) and input paths (digested instead).
            config = {
                opt.name: getattr(opts, opt.name) for opt in OPTIONS
                if args.command in opt.commands.split()
                and opt.name not in ("out", "threads", "seed")
                and opt.cast not in (_path, _dirs, _mask_dir)
                and getattr(opts, opt.name) is not None
            }
            write_manifest(opts.out, command=args.command, seed=getattr(opts, "seed", None),
                           config=config, inputs=run.inputs, outputs=run.outputs)
        return 0
    except (InputError, ComputationError, OSError) as exc:
        if isinstance(exc, OSError):  # every input read raises InputError: a write failed
            exc = InputError(f"cannot write {exc.filename or 'output'}: {exc.strerror}",
                             field="out")
        validation = isinstance(exc, InputError)
        doc = {"type": "validation" if validation else "computation", "message": str(exc)}
        if exc.field is not None:
            doc["field"] = exc.field
        sys.stderr.write(json.dumps({"error": doc}, sort_keys=True) + "\n")
        return 1 if validation else 2


if __name__ == "__main__":
    raise SystemExit(main())
