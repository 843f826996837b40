"""Category-wise error decomposition and nonparametric tests.

Per-image absolute error is the mean over the five repetitions of
|clipped prediction - group-B mean|. For every annotation criterion the
images are grouped by category and summarized (n, frequency, error
moments, error share, delta = share - frequency, stratified bootstrap
CIs). Criteria whose smallest category falls below the minimum cell size
are summarized descriptively only; the rest get a tie-corrected
Kruskal-Wallis omnibus with epsilon-squared effect sizes, Benjamini-
Hochberg adjustment across criteria, and Dunn pairwise post-hoc tests
adjusted within each criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ComputationError, InputError
from .harness import PredictionSet
from .ingest import CategoryTable
from .ranking import average_ranks, tie_group_sizes
from .rng import substream
from .special import chi2_sf, normal_sf

__all__ = [
    "CategorySummary",
    "OmnibusResult",
    "PosthocRow",
    "ErrorAnalysisReport",
    "image_abs_errors",
    "category_summaries",
    "kruskal_wallis",
    "epsilon_squared",
    "bh_fdr",
    "dunn_posthoc",
    "stratified_bootstrap_ci",
    "run_omnibus",
    "rank_top_criteria",
    "analyze_errors",
]

MIN_CELL = 10
DEFAULT_BOOTSTRAP = 2000
ALPHA = 0.05


def image_abs_errors(
    ps: PredictionSet, mean_b: Mapping[str, float]
) -> dict[str, float]:
    """Per-image mean over repetitions of |clipped - group-B mean|."""
    reps = ps.repetitions
    if not reps:
        raise ComputationError("prediction set is empty")
    per_rep = {rep: ps.by_repetition(rep) for rep in reps}
    out: dict[str, float] = {}
    for image_id in sorted(mean_b):
        errs = []
        for rep in reps:
            pred = per_rep[rep].get(image_id)
            if pred is None:
                raise ComputationError(
                    f"image {image_id} has no prediction in repetition {rep}"
                )
            errs.append(abs(pred.clipped - mean_b[image_id]))
        out[image_id] = float(np.mean(errs))
    return out


@dataclass(frozen=True)
class CategorySummary:
    criterion: str
    category: str
    n: int
    freq: float
    mean_ae: float
    sd_ae: float
    median_ae: float
    iqr_ae: float
    share: float
    delta: float
    small: bool
    mean_ci: tuple[float, float] | None = None
    share_ci: tuple[float, float] | None = None


def _groups_for(
    errors: Mapping[str, float], cats: CategoryTable, criterion: str
) -> dict[str, np.ndarray]:
    """Category label -> error vector, over the images with errors."""
    groups: dict[str, list[float]] = {}
    for image_id in sorted(errors):
        label = cats.label(image_id, criterion)
        groups.setdefault(label, []).append(errors[image_id])
    return {lab: np.array(vals, dtype=np.float64) for lab, vals in groups.items()}


def category_summaries(
    errors: Mapping[str, float],
    cats: CategoryTable,
    min_cell: int = MIN_CELL,
) -> list[CategorySummary]:
    """Descriptive rows for every (criterion, category).

    ``sd_ae`` uses the sample convention (ddof=1) and is 0 for singleton
    categories. Shares and frequencies each sum to 1 within a criterion.
    """
    if not errors:
        raise ComputationError("no image errors to summarize")
    rows: list[CategorySummary] = []
    for criterion in cats.criteria():
        groups = _groups_for(errors, cats, criterion)
        n_total = sum(len(v) for v in groups.values())
        total_ae = float(sum(float(v.sum()) for v in groups.values()))
        if total_ae == 0.0:
            raise ComputationError(
                f"criterion {criterion!r}: total absolute error is zero"
            )
        for label in sorted(groups):
            v = groups[label]
            share = float(v.sum()) / total_ae
            freq = len(v) / n_total
            rows.append(
                CategorySummary(
                    criterion=criterion,
                    category=label,
                    n=len(v),
                    freq=freq,
                    mean_ae=float(v.mean()),
                    sd_ae=float(v.std(ddof=1)) if len(v) > 1 else 0.0,
                    median_ae=float(np.median(v)),
                    iqr_ae=float(np.quantile(v, 0.75) - np.quantile(v, 0.25)),
                    share=share,
                    delta=share - freq,
                    small=len(v) < min_cell,
                )
            )
    return rows


def kruskal_wallis(groups: Sequence[np.ndarray]) -> tuple[float, float]:
    """Tie-corrected Kruskal-Wallis H and its chi-square p-value."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    k = len(groups)
    if k < 2:
        raise InputError(f"kruskal_wallis needs >= 2 groups, got {k}")
    if any(g.shape[0] < 1 for g in groups):
        raise InputError("kruskal_wallis groups must be non-empty")
    pooled = np.concatenate(groups)
    n_total = pooled.shape[0]
    if n_total < 3:
        raise InputError(f"kruskal_wallis needs N >= 3, got {n_total}")
    ranks = average_ranks(pooled)
    h_raw = 0.0
    start = 0
    for g in groups:
        stop = start + g.shape[0]
        r_sum = float(ranks[start:stop].sum())
        h_raw += r_sum * r_sum / g.shape[0]
        start = stop
    h_raw = 12.0 / (n_total * (n_total + 1)) * h_raw - 3.0 * (n_total + 1)
    ties = tie_group_sizes(pooled)
    correction = 1.0 - float((ties.astype(np.float64) ** 3 - ties).sum()) / (
        n_total ** 3 - n_total
    )
    if correction == 0.0:
        raise ComputationError("kruskal_wallis undefined: all values identical")
    h = h_raw / correction
    return float(h), chi2_sf(h, k - 1)


def epsilon_squared(h: float, n_total: int, k: int) -> float:
    """Effect size (H - k + 1) / (N - k); may be negative."""
    if n_total <= k:
        raise InputError(f"epsilon_squared needs N > k, got N={n_total}, k={k}")
    return (h - k + 1.0) / (n_total - k)


def bh_fdr(pvals: Sequence[float]) -> np.ndarray:
    """Benjamini-Hochberg step-up adjustment, input order preserved."""
    p = np.asarray(pvals, dtype=np.float64)
    if p.ndim != 1:
        raise InputError("bh_fdr expects a 1-d array")
    if p.size and (np.min(p) < 0.0 or np.max(p) > 1.0):
        raise InputError("p-values must lie in [0, 1]")
    m = p.shape[0]
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m, dtype=np.float64)
    running = 1.0
    for idx in range(m - 1, -1, -1):
        running = min(running, p[order[idx]] * m / (idx + 1))
        adjusted[order[idx]] = running
    return adjusted


def dunn_posthoc(groups: Mapping[str, np.ndarray]) -> list[tuple[str, str, float, float, float]]:
    """Pairwise Dunn z-tests on pooled ranks, BH-adjusted within the set.

    Returns (category_a, category_b, z, p, p_adj) tuples with labels
    sorted lexicographically within and across pairs. Uses the tie
    correction sum(t^3 - t) / (12 (N - 1)) and two-sided normal
    p-values.
    """
    labels = sorted(groups)
    if len(labels) < 2:
        raise InputError("dunn_posthoc needs >= 2 groups")
    arrays = [np.asarray(groups[lab], dtype=np.float64) for lab in labels]
    if any(a.shape[0] == 0 for a in arrays):
        raise InputError("dunn_posthoc groups must be non-empty")
    pooled = np.concatenate(arrays)
    n_total = pooled.shape[0]
    ranks = average_ranks(pooled)
    mean_ranks: dict[str, float] = {}
    sizes: dict[str, int] = {}
    start = 0
    for lab, a in zip(labels, arrays):
        stop = start + a.shape[0]
        mean_ranks[lab] = float(ranks[start:stop].mean())
        sizes[lab] = a.shape[0]
        start = stop
    ties = tie_group_sizes(pooled)
    tie_term = float((ties.astype(np.float64) ** 3 - ties).sum()) / (12.0 * (n_total - 1))
    base_var = n_total * (n_total + 1) / 12.0 - tie_term
    if base_var <= 0.0:
        raise ComputationError("dunn_posthoc undefined: all values identical")
    rows = []
    pvals = []
    for i, lab_a in enumerate(labels):
        for lab_b in labels[i + 1 :]:
            sigma = np.sqrt(base_var * (1.0 / sizes[lab_a] + 1.0 / sizes[lab_b]))
            z = (mean_ranks[lab_a] - mean_ranks[lab_b]) / sigma
            p = min(1.0, 2.0 * normal_sf(abs(float(z))))
            rows.append((lab_a, lab_b, float(z), p))
            pvals.append(p)
    adjusted = bh_fdr(pvals)
    return [
        (lab_a, lab_b, z, p, float(p_adj))
        for (lab_a, lab_b, z, p), p_adj in zip(rows, adjusted)
    ]


# Largest index block drawn at once: bounds the bootstrap's transient
# memory to about 1 MB whatever B and the stratum sizes are.
_BLOCK_INDICES = 1 << 16


def _check_unit_interval(value: float, field: str) -> None:
    if not 0.0 < value < 1.0:
        raise InputError(f"{field} must be in (0, 1), got {value}", field=field)


def _replicate_sums(rng: np.random.Generator, values: np.ndarray, B: int) -> np.ndarray:
    """Sums of B resamples of ``values`` with replacement.

    Replicate b sums ``values[idx[b]]`` for the ``(B, n)`` index matrix
    ``idx = rng.integers(0, n, size=(B, n))``; the matrix is drawn in row
    blocks, which consume the stream exactly as one draw does.
    """
    n = values.shape[0]
    rows = max(1, _BLOCK_INDICES // n)
    sums = np.empty(B, dtype=np.float64)
    for start in range(0, B, rows):
        stop = min(B, start + rows)
        sums[start:stop] = values[rng.integers(0, n, size=(stop - start, n))].sum(axis=1)
    return sums


def stratified_bootstrap_ci(
    errors: Mapping[str, float],
    cats: CategoryTable,
    criterion: str,
    B: int = DEFAULT_BOOTSTRAP,
    level: float = 0.95,
    seed: int = 0,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Percentile CIs for per-category mean error and error share.

    Images are resampled with replacement within their category, keeping
    every stratum size fixed. Each stratum draws its B resamples from
    its own substream (seed, "error.bootstrap", criterion, category), so
    strata are independent and replicate b pairs the b-th resample of
    every stratum for the shares.
    """
    if B < 100:
        raise InputError(f"bootstrap needs B >= 100, got {B}", field="bootstrap")
    _check_unit_interval(level, "level")
    groups = _groups_for(errors, cats, criterion)
    labels = sorted(groups)
    if any(groups[lab].shape[0] == 0 for lab in labels):
        raise InputError(f"criterion {criterion!r} has an empty category")
    sums = np.column_stack([
        _replicate_sums(substream(seed, "error.bootstrap", criterion, lab), groups[lab], B)
        for lab in labels
    ])
    means = sums / [groups[lab].shape[0] for lab in labels]
    total = sums.sum(axis=1, keepdims=True)
    shares = np.full_like(sums, np.nan)
    np.divide(sums, total, out=shares, where=total > 0)
    q = [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0]
    mean_q = np.quantile(means, q, axis=0)
    share_q = np.quantile(shares, q, axis=0)
    return {
        lab: {
            "mean": (float(mean_q[0, j]), float(mean_q[1, j])),
            "share": (float(share_q[0, j]), float(share_q[1, j])),
        }
        for j, lab in enumerate(labels)
    }


@dataclass(frozen=True)
class OmnibusResult:
    criterion: str
    n_total: int
    k: int
    h: float | None
    p: float | None
    p_fdr: float | None
    epsilon_sq: float | None
    significant: bool | None
    skip_reason: str | None


@dataclass(frozen=True)
class PosthocRow:
    criterion: str
    category_a: str
    category_b: str
    z: float
    p: float
    p_fdr: float


def run_omnibus(
    errors: Mapping[str, float],
    cats: CategoryTable,
    min_cell: int = MIN_CELL,
    alpha: float = ALPHA,
) -> list[OmnibusResult]:
    """Kruskal-Wallis per criterion with BH adjustment across criteria.

    Criteria with any category below ``min_cell`` images, or with a
    single category, are skipped with a reason and excluded from the
    adjustment. ``alpha`` must lie in (0, 1).
    """
    _check_unit_interval(alpha, "alpha")
    partial: list[OmnibusResult] = []
    tested_idx: list[int] = []
    tested_p: list[float] = []
    for criterion in cats.criteria():
        groups = _groups_for(errors, cats, criterion)
        n_total = sum(v.shape[0] for v in groups.values())
        k = len(groups)
        skip = None
        if k < 2:
            skip = "single category (k=1)"
        elif min(v.shape[0] for v in groups.values()) < min_cell:
            skip = f"small cells (min_n={min_cell})"
        if skip is not None:
            partial.append(
                OmnibusResult(
                    criterion=criterion, n_total=n_total, k=k, h=None, p=None,
                    p_fdr=None, epsilon_sq=None, significant=None, skip_reason=skip,
                )
            )
            continue
        h, p = kruskal_wallis([groups[lab] for lab in sorted(groups)])
        partial.append(
            OmnibusResult(
                criterion=criterion, n_total=n_total, k=k, h=h, p=p,
                p_fdr=None, epsilon_sq=epsilon_squared(h, n_total, k),
                significant=None, skip_reason=None,
            )
        )
        tested_idx.append(len(partial) - 1)
        tested_p.append(p)
    if tested_p:
        adjusted = bh_fdr(tested_p)
        for pos, p_adj in zip(tested_idx, adjusted):
            res = partial[pos]
            partial[pos] = replace(
                res, p_fdr=float(p_adj), significant=bool(p_adj < alpha)
            )
    return partial


def rank_top_criteria(results: Sequence[OmnibusResult], top: int = 3) -> list[str]:
    """FDR-significant criteria ordered by effect size, best first."""
    significant = [r for r in results if r.significant]
    significant.sort(key=lambda r: (-r.epsilon_sq, r.p_fdr, r.criterion))
    return [r.criterion for r in significant[:top]]


@dataclass(frozen=True)
class ErrorAnalysisReport:
    summaries: tuple[CategorySummary, ...]
    omnibus: tuple[OmnibusResult, ...]
    posthoc: tuple[PosthocRow, ...]
    top_criteria: tuple[str, ...]


def analyze_errors(
    errors: Mapping[str, float],
    cats: CategoryTable,
    *,
    bootstrap: int = DEFAULT_BOOTSTRAP,
    level: float = 0.95,
    min_cell: int = MIN_CELL,
    alpha: float = ALPHA,
    seed: int = 0,
) -> ErrorAnalysisReport:
    """Full pipeline: descriptives with CIs, omnibus, post-hoc, ranking.

    Dunn tests run for every criterion whose omnibus ran, whether or not
    it reached significance.
    """
    summaries = category_summaries(errors, cats, min_cell=min_cell)
    omnibus = run_omnibus(errors, cats, min_cell=min_cell, alpha=alpha)
    with_ci: list[CategorySummary] = []
    for criterion in cats.criteria():
        cis = stratified_bootstrap_ci(
            errors, cats, criterion, B=bootstrap, level=level, seed=seed
        )
        for row in summaries:
            if row.criterion != criterion:
                continue
            ci = cis[row.category]
            with_ci.append(replace(row, mean_ci=ci["mean"], share_ci=ci["share"]))
    posthoc: list[PosthocRow] = []
    for res in omnibus:
        if res.skip_reason is not None:
            continue
        groups = _groups_for(errors, cats, res.criterion)
        for lab_a, lab_b, z, p, p_adj in dunn_posthoc(groups):
            posthoc.append(
                PosthocRow(
                    criterion=res.criterion, category_a=lab_a, category_b=lab_b,
                    z=z, p=p, p_fdr=p_adj,
                )
            )
    return ErrorAnalysisReport(
        summaries=tuple(with_ci),
        omnibus=tuple(omnibus),
        posthoc=tuple(posthoc),
        top_criteria=tuple(rank_top_criteria(omnibus)),
    )
