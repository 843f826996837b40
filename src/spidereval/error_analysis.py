"""Category-wise error decomposition and nonparametric tests.

Per-image absolute error is the mean over the five repetitions of
|clipped prediction - group-B mean|, under the coverage rule of
:meth:`PredictionSet.aligned`. :func:`analyze_errors` groups the images
by category once per annotation criterion, and every statistic reads
those groups: each category is summarized (n, frequency, error moments,
error share, delta = share - frequency, stratified bootstrap CIs).
Criteria with a single category, a category below the minimum cell size
or one image per category are summarized descriptively only; the rest
get a tie-corrected Kruskal-Wallis omnibus with epsilon-squared effect
sizes, Benjamini-Hochberg adjustment across criteria, and Dunn pairwise
post-hoc tests adjusted within each criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .defaults import ALPHA, DEFAULT_BOOTSTRAP, MIN_CELL
from .errors import ComputationError, InputError
from .harness import PredictionSet
from .ingest import CategoryTable
from .ranking import average_ranks, median, quantile, tie_group_sizes
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


def image_abs_errors(
    ps: PredictionSet, mean_b: Mapping[str, float]
) -> dict[str, float]:
    """Per-image mean over repetitions of |clipped - group-B mean|."""
    ids, obs, clipped = ps.aligned(mean_b)
    return dict(zip(ids, np.abs(clipped - obs[:, None]).mean(axis=1).tolist()))


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
    mean_ci: tuple[float, float]
    share_ci: tuple[float, float]


Groups = dict[str, np.ndarray]


def _groups_for(errors: Mapping[str, float], cats: CategoryTable, criterion: str) -> Groups:
    """Category label -> error vector, over the images with errors."""
    groups: dict[str, list[float]] = {}
    for image_id in sorted(errors):
        label = cats.label(image_id, criterion)
        groups.setdefault(label, []).append(errors[image_id])
    return {lab: np.array(vals, dtype=np.float64) for lab, vals in groups.items()}


def category_summaries(
    grouped: Mapping[str, Groups],
    *,
    bootstrap: int = DEFAULT_BOOTSTRAP,
    level: float = 0.95,
    seed: int = 0,
    min_cell: int = MIN_CELL,
) -> list[CategorySummary]:
    """Descriptive rows with bootstrap CIs for every (criterion, category).

    ``grouped`` maps each criterion to its category groups. ``sd_ae`` uses
    the sample convention (ddof=1) and is 0 for singleton categories.
    Shares and frequencies each sum to 1 within a criterion.
    """
    rows: list[CategorySummary] = []
    for criterion, groups in grouped.items():
        n_total = sum(len(v) for v in groups.values())
        total_ae = 0.0  # a loop: from Python 3.12 on, sum() compensates its float rounding
        for v in groups.values():
            total_ae += float(v.sum())
        if total_ae == 0.0:
            raise ComputationError(f"criterion {criterion!r}: total absolute error is zero")
        cis = stratified_bootstrap_ci(groups, criterion, B=bootstrap, level=level, seed=seed)
        for label in sorted(groups):
            v = groups[label]
            ordered = np.sort(v)
            share = float(v.sum()) / total_ae
            freq = len(v) / n_total
            rows.append(CategorySummary(
                criterion=criterion, category=label, n=len(v), freq=freq,
                mean_ae=float(v.mean()), sd_ae=float(v.std(ddof=1)) if len(v) > 1 else 0.0,
                median_ae=float(median(ordered)),
                iqr_ae=float(quantile(ordered, 0.75) - quantile(ordered, 0.25)),
                share=share, delta=share - freq, small=len(v) < min_cell,
                mean_ci=cis[label]["mean"], share_ci=cis[label]["share"],
            ))
    return rows


def _rank_pass(test: str, groups: Sequence[np.ndarray]) -> tuple[list[float], list[int], float]:
    """Each group's rank sum over the pooled average ranks, the group sizes,
    and sum(t^3 - t) over the pooled tie groups."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(groups) < 2:
        raise InputError(f"{test} needs >= 2 groups, got {len(groups)}")
    if any(g.shape[0] == 0 for g in groups):
        raise InputError(f"{test} groups must be non-empty")
    pooled = np.concatenate(groups)
    sizes = [g.shape[0] for g in groups]
    ranks = np.split(average_ranks(pooled), np.cumsum(sizes[:-1]))
    ties = tie_group_sizes(pooled).astype(np.float64)
    return [float(r.sum()) for r in ranks], sizes, float((ties ** 3 - ties).sum())


def kruskal_wallis(groups: Sequence[np.ndarray]) -> tuple[float, float]:
    """Tie-corrected Kruskal-Wallis H and its chi-square p-value."""
    sums, sizes, tie_sum = _rank_pass("kruskal_wallis", groups)
    n_total = sum(sizes)
    if n_total < 3:
        raise InputError(f"kruskal_wallis needs N >= 3, got {n_total}")
    h_raw = 0.0  # a loop: from Python 3.12 on, sum() compensates its float rounding
    for r_sum, n in zip(sums, sizes):
        h_raw += r_sum * r_sum / n
    h_raw = 12.0 / (n_total * (n_total + 1)) * h_raw - 3.0 * (n_total + 1)
    correction = 1.0 - tie_sum / (n_total ** 3 - n_total)
    if correction == 0.0:
        raise ComputationError("kruskal_wallis undefined: all values identical")
    h = h_raw / correction
    return float(h), chi2_sf(h, len(sizes) - 1)


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
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise InputError("p-values must lie in [0, 1]")
    m = p.shape[0]
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted = np.empty(m, dtype=np.float64)
    adjusted[order] = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    return adjusted


def dunn_posthoc(groups: Mapping[str, np.ndarray]) -> list[tuple[str, str, float, float, float]]:
    """Pairwise Dunn z-tests on pooled ranks, BH-adjusted within the set.

    Returns (category_a, category_b, z, p, p_adj) tuples with labels
    sorted lexicographically within and across pairs. Uses the tie
    correction sum(t^3 - t) / (12 (N - 1)) and two-sided normal
    p-values.
    """
    labels = sorted(groups)
    sums, sizes, tie_sum = _rank_pass("dunn_posthoc", [groups[lab] for lab in labels])
    n_total = sum(sizes)
    base_var = n_total * (n_total + 1) / 12.0 - tie_sum / (12.0 * (n_total - 1))
    if base_var <= 0.0:
        raise ComputationError("dunn_posthoc undefined: all values identical")
    rows = []
    for i, j in combinations(range(len(labels)), 2):
        sigma = np.sqrt(base_var * (1.0 / sizes[i] + 1.0 / sizes[j]))
        z = float((sums[i] / sizes[i] - sums[j] / sizes[j]) / sigma)
        rows.append((labels[i], labels[j], z, min(1.0, 2.0 * normal_sf(abs(z)))))
    adjusted = bh_fdr([row[3] for row in rows])
    return [(*row, float(p_adj)) for row, p_adj in zip(rows, adjusted)]


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
    groups: Groups,
    criterion: str,
    B: int = DEFAULT_BOOTSTRAP,
    level: float = 0.95,
    seed: int = 0,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Percentile CIs for per-category mean error and error share.

    ``groups`` maps each category of ``criterion`` to its errors. Images
    are resampled with replacement within their category, keeping every
    stratum size fixed. Each stratum draws its B resamples from its own
    substream (seed, "error.bootstrap", criterion, category), so strata
    are independent and replicate b pairs the b-th resample of every
    stratum for the shares.
    """
    if B < 100:
        raise InputError(f"bootstrap needs B >= 100, got {B}", field="bootstrap")
    _check_unit_interval(level, "level")
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
    mean_q, share_q = ([quantile(x, p) for p in q]
                       for x in (np.sort(means, axis=0), np.sort(shares, axis=0)))
    return {
        lab: {
            "mean": (float(mean_q[0][j]), float(mean_q[1][j])),
            "share": (float(share_q[0][j]), float(share_q[1][j])),
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


def _skip_reason(groups: Groups, min_cell: int) -> str | None:
    if len(groups) < 2:
        return "single category (k=1)"
    if min(v.shape[0] for v in groups.values()) < min_cell:
        return f"small cells (min_n={min_cell})"
    if all(v.shape[0] == 1 for v in groups.values()):
        return "one image per category (N=k)"
    return None


def run_omnibus(
    grouped: Mapping[str, Groups],
    min_cell: int = MIN_CELL,
    alpha: float = ALPHA,
) -> list[OmnibusResult]:
    """Kruskal-Wallis per criterion with BH adjustment across criteria.

    ``grouped`` maps each criterion to its category groups. Criteria with
    a single category, any category below ``min_cell`` images, or one
    image per category are skipped with a reason and excluded from the
    adjustment. ``alpha`` must lie in (0, 1).
    """
    _check_unit_interval(alpha, "alpha")
    skips = {c: _skip_reason(groups, min_cell) for c, groups in grouped.items()}
    tests = {
        c: kruskal_wallis([groups[lab] for lab in sorted(groups)])
        for c, groups in grouped.items() if skips[c] is None
    }
    adjusted = dict(zip(tests, bh_fdr([p for _, p in tests.values()]).tolist()))
    results = []
    for criterion, groups in grouped.items():
        n_total, k = sum(v.shape[0] for v in groups.values()), len(groups)
        h, p = tests.get(criterion, (None, None))
        p_fdr = adjusted.get(criterion)
        results.append(OmnibusResult(
            criterion=criterion, n_total=n_total, k=k, h=h, p=p, p_fdr=p_fdr,
            epsilon_sq=None if h is None else epsilon_squared(h, n_total, k),
            significant=None if p_fdr is None else p_fdr < alpha,
            skip_reason=skips[criterion],
        ))
    return results


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

    The images are grouped by category once per criterion. Dunn tests run
    for every criterion whose omnibus ran, whether or not it reached
    significance.
    """
    if not errors:
        raise ComputationError("no image errors to summarize")
    grouped = {c: _groups_for(errors, cats, c) for c in cats.criteria()}
    summaries = category_summaries(
        grouped, bootstrap=bootstrap, level=level, seed=seed, min_cell=min_cell
    )
    omnibus = run_omnibus(grouped, min_cell=min_cell, alpha=alpha)
    posthoc = (
        PosthocRow(res.criterion, *row)
        for res in omnibus if res.skip_reason is None
        for row in dunn_posthoc(grouped[res.criterion])
    )
    return ErrorAnalysisReport(
        summaries=tuple(summaries),
        omnibus=tuple(omnibus),
        posthoc=tuple(posthoc),
        top_criteria=tuple(rank_top_criteria(omnibus)),
    )
