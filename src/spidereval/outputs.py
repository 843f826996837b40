"""Serialization of analysis artifacts.

Every CSV and JSON file goes through the writers of :mod:`.ingest`:
CSVs with Unix line endings, JSON with sorted keys, and floats in both
rounded to 9 significant digits (``%.9g``), so that identical results
are identical bytes whatever the BLAS thread count. The run
manifest records the command, config snapshot, seed, library versions,
and SHA-256 digests of inputs and outputs; it deliberately contains no
timestamps or thread counts.
"""

from __future__ import annotations

import hashlib
import os
import platform
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import __version__
from .ingest import InputFile, _encode, write_csv, write_json

if TYPE_CHECKING:  # types only; importing these modules costs start-up
    from .error_analysis import ErrorAnalysisReport
    from .harness import PredictionSet
    from .metrics import MetricReport
    from .partition import ImageTargets
    from .qc import QcReport
    from .reliability import IccBootstrapReport

__all__ = [
    "write_csv",
    "write_json",
    "sha256_file",
    "write_qc_report",
    "write_qc_summary",
    "write_participant_split",
    "write_image_targets",
    "load_image_targets",
    "write_predictions",
    "load_predictions",
    "write_search_log",
    "write_metrics",
    "write_icc_reports",
    "write_fit_results",
    "write_overlap",
    "write_error_analysis",
    "write_manifest",
]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_qc_report(path, report: QcReport) -> None:
    rows = [
        [pid, report.rho[pid], report.mad[pid], pid in report.corr_flagged,
         pid in report.mad_flagged, pid in report.excluded]
        for pid in sorted(report.mad)
    ]
    write_csv(path, ["participant", "rho", "mad_score", "corr_flag", "mad_flag", "excluded"], rows)


def write_qc_summary(path, report: QcReport, counts: Mapping[str, int]) -> None:
    write_json(path, {
        "corr_threshold": report.corr_threshold,
        "mad_threshold": report.mad_threshold,
        "n_corr_flagged": len(report.corr_flagged),
        "n_mad_flagged": len(report.mad_flagged),
        "n_excluded": len(report.excluded),
        "excluded": sorted(report.excluded),
        **dict(counts),
    })


def write_participant_split(path, split) -> None:
    write_json(path, split)


TARGETS_HEADER = ["image_id", "mean_a", "mean_b", "n_a", "n_b"]
PREDICTIONS_HEADER = ["rep", "fold", "image_id", "raw", "clipped"]


def write_image_targets(path, targets) -> None:
    rows = [
        [i, targets.mean_a[i], targets.mean_b[i], targets.n_a[i], targets.n_b[i]]
        for i in targets.image_ids
    ]
    write_csv(path, TARGETS_HEADER, rows)


def load_image_targets(path) -> ImageTargets:
    from .partition import ImageTargets
    src = InputFile(path, "targets")
    mean_a: dict[str, float] = {}
    mean_b: dict[str, float] = {}
    n_a: dict[str, int] = {}
    n_b: dict[str, int] = {}
    for line, (image_id, a, b, count_a, count_b) in src.rows(TARGETS_HEADER):
        if image_id in mean_a:
            raise src.error(f"duplicate image {image_id}", line)
        mean_a[image_id] = src.number(a, line, "mean_a")
        mean_b[image_id] = src.number(b, line, "mean_b")
        n_a[image_id] = src.integer(count_a, line, "n_a", 1)
        n_b[image_id] = src.integer(count_b, line, "n_b", 1)
    if not mean_a:
        raise src.error("no target rows")
    return ImageTargets(mean_a=mean_a, mean_b=mean_b, n_a=n_a, n_b=n_b, dropped=())


def write_predictions(path, ps: PredictionSet) -> None:
    entries = sorted(ps.entries, key=lambda p: (p.repetition, p.fold, p.image_id))
    write_csv(path, PREDICTIONS_HEADER, columns=[
        [p.repetition for p in entries], [p.fold for p in entries],
        _encode([p.image_id for p in entries]),
        np.array([p.raw for p in entries]), np.array([p.clipped for p in entries])])


def load_predictions(path) -> PredictionSet:
    from .harness import Prediction, PredictionSet
    src = InputFile(path, "predictions")
    entries: dict[tuple[int, str], Prediction] = {}
    for line, (rep, fold, image_id, raw, clipped) in src.rows(PREDICTIONS_HEADER):
        p = Prediction(
            repetition=src.integer(rep, line, "rep", 0),
            fold=src.integer(fold, line, "fold", 0),
            image_id=image_id,
            raw=src.number(raw, line, "raw"),
            clipped=src.number(clipped, line, "clipped"),
        )
        if not 0.0 <= p.clipped <= 100.0:
            raise src.error(f"clipped {clipped} outside [0, 100]", line)
        if (p.repetition, image_id) in entries:
            raise src.error(f"duplicate prediction for rep={p.repetition} image={image_id}", line)
        entries[p.repetition, image_id] = p
    if not entries:
        raise src.error("no prediction rows")
    return PredictionSet(entries=tuple(entries.values()))


def write_search_log(path, log: Sequence[Mapping]) -> None:
    write_json(path, log, lines=True)


def write_metrics(path, report: MetricReport, by_rep_path) -> None:
    write_csv(path, ["r2", "mae", "rmse", "r2_ens", "mae_ens", "rmse_ens"],
              [[report.mean_r2, report.mean_mae, report.mean_rmse,
                report.ensemble_r2, report.ensemble_mae, report.ensemble_rmse]])
    write_csv(by_rep_path, ["rep", "mae", "rmse", "r2"], report.per_repetition)


def write_icc_reports(report_path, summary_path, report: IccBootstrapReport) -> None:
    rows = [
        [size, rep, value]
        for size in report.sizes
        for rep, value in enumerate(report.values[size])
    ]
    write_csv(report_path, ["size", "rep", "icc"], rows)
    write_csv(
        summary_path,
        ["size", "mean", "sd"],
        [[size, report.means[size], report.sds[size]] for size in report.sizes],
    )


def write_fit_results(path, row: Mapping) -> None:
    header = ["model", "metric", "form", "a", "b", "c", "rss", "iterations", "converged",
              "asymptote"]
    write_csv(path, header, [[row[key] for key in header]])


def write_overlap(path, records) -> None:
    write_csv(
        path,
        ["image_id", "mu_in", "mu_out", "delta", "mask_fraction"],
        [[r.image_id, r.mu_in, r.mu_out, r.delta, r.mask_fraction] for r in records],
    )


def _p_display(p: float) -> str:
    return "< .001" if p < 0.001 else "%.3f" % p


def write_error_analysis(descriptives, omnibus, posthoc, top,
                         report: ErrorAnalysisReport) -> None:
    """Write the four error-analysis artifacts to the given paths."""
    write_csv(
        descriptives,
        [
            "criterion", "category", "n", "freq", "mean_ae", "sd_ae", "median_ae",
            "iqr_ae", "share", "delta", "mean_ci_low", "mean_ci_high",
            "share_ci_low", "share_ci_high", "small",
        ],
        [
            [s.criterion, s.category, s.n, s.freq, s.mean_ae, s.sd_ae, s.median_ae,
             s.iqr_ae, s.share, s.delta, *s.mean_ci, *s.share_ci, s.small]
            for s in report.summaries
        ],
    )
    write_csv(
        omnibus,
        ["criterion", "H", "epsilon_sq", "p", "p_fdr", "significant", "N", "k", "reason"],
        [[r.criterion, r.h, r.epsilon_sq, r.p, r.p_fdr, r.significant, r.n_total, r.k,
          r.skip_reason] for r in report.omnibus],
    )
    write_csv(
        posthoc,
        ["criterion", "category_a", "category_b", "z", "p", "p_fdr", "p_fdr_display"],
        [
            [r.criterion, r.category_a, r.category_b, r.z, r.p, r.p_fdr,
             _p_display(r.p_fdr)]
            for r in report.posthoc
        ],
    )
    write_json(top, {"top_criteria": list(report.top_criteria)})


def write_manifest(out_dir, *, command: str, config: Mapping, seed: int | None,
                   inputs: Sequence[str], outputs: Sequence[str]) -> str:
    """Digest-based manifest; byte-identical for identical runs.

    Outputs are keyed by file name. Inputs are keyed by their path
    relative to the deepest directory that holds all of them, so a lone
    input is keyed by its file name and same-named files from different
    directories keep separate entries.
    """
    path = os.path.join(out_dir, "run_manifest.json")
    inputs = sorted({os.path.abspath(str(p)) for p in inputs if os.path.isfile(p)})
    base = os.path.commonpath([os.path.dirname(p) for p in inputs]) if inputs else ""
    doc = {
        "command": command,
        "config": dict(config),
        "seed": seed,
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "inputs": {
            os.path.relpath(p, base).replace(os.sep, "/"): sha256_file(p) for p in inputs
        },
        "outputs": {
            os.path.basename(str(p)): sha256_file(p)
            for p in sorted(set(str(x) for x in outputs))
            if os.path.isfile(p)
        },
    }
    write_json(path, doc)
    return path
