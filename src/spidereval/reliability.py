"""Inter-rater reliability: ICC(2,k) with rater-subsample bootstrap, and
Wilson score intervals for proportions.

The ICC follows the two-way random-effects, average-measures form

    ICC(2,k) = (BMS - EMS) / (BMS + (JMS - EMS) / n)

with BMS/JMS/EMS the between-image, between-rater, and residual mean
squares of the two-way ANOVA and n the number of images. Missing cells
are handled by two-way mean imputation (row mean + column mean - grand
mean, all from observed cells) with the residual df reduced by one per
imputed cell; complete-case row deletion is available as an alternative.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError
from .ingest import RatingsTable
from .rng import substream
from .special import normal_ppf

__all__ = [
    "RatingMatrix",
    "IccBootstrapReport",
    "build_rating_matrix",
    "icc2k",
    "bootstrap_icc",
    "wilson_ci",
]

log = logging.getLogger(__name__)

MISSING_MODES = ("impute", "complete")
DEFAULT_SIZES = tuple(range(10, 81, 10))
DEFAULT_REPS = 100


@dataclass(frozen=True)
class RatingMatrix:
    """Images x raters matrix with NaN for missing cells."""

    values: np.ndarray
    image_ids: tuple[str, ...]
    rater_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape != (len(self.image_ids), len(self.rater_ids)):
            raise InputError("rating matrix shape does not match id lists")
        if v.shape[0] < 2 or v.shape[1] < 2:
            raise InputError("rating matrix needs at least 2 images and 2 raters")
        observed_per_row = (~np.isnan(v)).sum(axis=1)
        if (observed_per_row == 0).any():
            empty = [self.image_ids[i] for i in np.nonzero(observed_per_row == 0)[0]]
            raise InputError(f"images with no observed ratings: {empty[:5]}")

    def subset_raters(self, columns: np.ndarray) -> "RatingMatrix":
        """Column subset; rows left with no observations are dropped."""
        v = self.values[:, columns]
        keep = (~np.isnan(v)).sum(axis=1) > 0
        return RatingMatrix(
            values=v[keep].copy(),
            image_ids=tuple(np.array(self.image_ids)[keep]),
            rater_ids=tuple(np.array(self.rater_ids)[columns]),
        )


def build_rating_matrix(table: RatingsTable) -> RatingMatrix:
    """Pivot a (first-trial, QC-filtered) table into images x raters."""
    images = sorted(table.image_index)
    raters = sorted(table.participant_index)
    row = {im: i for i, im in enumerate(images)}
    col = {ra: j for j, ra in enumerate(raters)}
    values = np.full((len(images), len(raters)), np.nan, dtype=np.float64)
    for rec in table.records:
        i, j = row[rec.image_id], col[rec.participant_id]
        if not np.isnan(values[i, j]):
            raise InputError(
                f"duplicate cell for image {rec.image_id}, rater {rec.participant_id}; "
                "apply the first-trial filter before building the matrix"
            )
        values[i, j] = rec.rating
    return RatingMatrix(values=values, image_ids=tuple(images), rater_ids=tuple(raters))


def _complete_matrix(m: RatingMatrix, missing: str) -> tuple[np.ndarray, int]:
    """Return a complete matrix and the count of imputed cells."""
    v = m.values
    mask = np.isnan(v)
    n_missing = int(mask.sum())
    if n_missing == 0:
        return v, 0
    if missing == "complete":
        keep = ~mask.any(axis=1)
        if keep.sum() < 2:
            raise ComputationError(
                "complete-case ICC needs at least 2 fully observed images"
            )
        return v[keep], 0
    grand = float(np.nanmean(v))
    row_means = np.nanmean(v, axis=1)
    col_means = np.nanmean(v, axis=0)
    if np.isnan(col_means).any():
        empty = [m.rater_ids[j] for j in np.nonzero(np.isnan(col_means))[0]]
        raise ComputationError(f"raters with no observed ratings: {empty[:5]}")
    filled = v.copy()
    rows, cols = np.nonzero(mask)
    filled[rows, cols] = row_means[rows] + col_means[cols] - grand
    return filled, n_missing


def icc2k(m: RatingMatrix, missing: str = "impute") -> float:
    """Two-way random-effects, average-measures intraclass correlation."""
    if missing not in MISSING_MODES:
        raise InputError(f"unknown missing-data mode {missing!r}", field="missing")
    x, n_imputed = _complete_matrix(m, missing)
    n, k = x.shape
    if n < 2 or k < 2:
        raise ComputationError("ICC needs at least 2 images and 2 raters")
    grand = x.mean()
    row_means = x.mean(axis=1)
    col_means = x.mean(axis=0)
    bss = k * float(((row_means - grand) ** 2).sum())
    jss = n * float(((col_means - grand) ** 2).sum())
    resid = x - row_means[:, None] - col_means[None, :] + grand
    ess = float((resid ** 2).sum())
    df_e = (n - 1) * (k - 1) - n_imputed
    if df_e <= 0:
        raise ComputationError(
            f"degenerate ANOVA: residual df {(n - 1) * (k - 1)} - {n_imputed} imputed <= 0"
        )
    bms = bss / (n - 1)
    jms = jss / (k - 1)
    ems = ess / df_e
    denom = bms + (jms - ems) / n
    if denom == 0.0:
        raise ComputationError("degenerate ANOVA: zero denominator")
    return float((bms - ems) / denom)


@dataclass(frozen=True)
class IccBootstrapReport:
    sizes: tuple[int, ...]
    values: dict[int, tuple[float, ...]]
    means: dict[int, float]
    sds: dict[int, float]


def bootstrap_icc(
    m: RatingMatrix,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
    missing: str = "impute",
) -> IccBootstrapReport:
    """ICC over rater subsamples drawn without replacement.

    Per size s and repetition r the columns come from the substream
    keyed (seed, "icc.bootstrap", s, r), so the report is reproducible
    bit-for-bit. SD uses the sample convention (ddof=1).
    """
    n_raters = len(m.rater_ids)
    sizes = tuple(sorted(set(int(s) for s in sizes)))
    if not sizes:
        raise InputError("bootstrap needs at least one subsample size")
    if sizes[-1] > n_raters:
        raise InputError(
            f"subsample size {sizes[-1]} exceeds available raters ({n_raters})"
        )
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}", field="reps")
    values: dict[int, tuple[float, ...]] = {}
    means: dict[int, float] = {}
    sds: dict[int, float] = {}
    for size in sizes:
        vals = []
        for rep in range(reps):
            rng = substream(seed, "icc.bootstrap", size, rep)
            cols = np.sort(rng.choice(n_raters, size=size, replace=False))
            vals.append(icc2k(m.subset_raters(cols), missing=missing))
        arr = np.array(vals, dtype=np.float64)
        values[size] = tuple(float(v) for v in vals)
        means[size] = float(arr.mean())
        sds[size] = float(arr.std(ddof=1)) if reps > 1 else 0.0
    ordered = [means[s] for s in sizes]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        log.warning("bootstrap ICC means are not monotone nondecreasing: %s", ordered)
    return IccBootstrapReport(sizes=sizes, values=values, means=means, sds=sds)


def wilson_ci(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if not 0 <= successes <= n:
        raise InputError(f"successes must be in [0, {n}], got {successes}")
    if not 0.0 < level < 1.0:
        raise InputError(f"level must be in (0, 1), got {level}")
    z = normal_ppf(1.0 - (1.0 - level) / 2.0)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    # at the boundaries the bound is exactly 0 or 1; avoid cancellation noise
    low = 0.0 if successes == 0 else float(max(0.0, center - half))
    high = 1.0 if successes == n else float(min(1.0, center + half))
    return low, high
