"""Inter-rater reliability: ICC(2,k) with rater-subsample bootstrap, and
Wilson score intervals for proportions.

The ICC follows the two-way random-effects, average-measures form

    ICC(2,k) = (BMS - EMS) / (BMS + (JMS - EMS) / n)

with BMS/JMS/EMS the between-image, between-rater, and residual mean
squares of the two-way ANOVA and n the number of images. Missing cells
are handled by two-way mean imputation (row mean + column mean - grand
mean, all from observed cells) with the residual df reduced by one per
imputed cell; complete-case row deletion is available as an alternative.
The point estimate and every bootstrap subsample take the ANOVA from
sums in one engine, :func:`_subset_icc2k`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_REPS, MISSING_MODES
from .errors import ComputationError, InputError
from .ingest import RatingsTable
from .rng import substream

__all__ = [
    "RatingMatrix",
    "IccBootstrapReport",
    "build_rating_matrix",
    "icc2k",
    "bootstrap_icc",
    "wilson_ci",
]

log = logging.getLogger(__name__)

DEFAULT_SIZES = tuple(range(10, 81, 10))


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
            raise InputError("rating matrix needs at least 2 images and 2 raters",
                             field="ratings")
        observed_per_row = (~np.isnan(v)).sum(axis=1)
        if (observed_per_row == 0).any():
            empty = [self.image_ids[i] for i in np.nonzero(observed_per_row == 0)[0]]
            raise InputError(f"images with no observed ratings: {empty[:5]}")


def build_rating_matrix(table: RatingsTable) -> RatingMatrix:
    """Pivot a (first-trial, QC-filtered) table into images x raters."""
    shape = (table.n_images, table.n_participants)
    cell = table.image * shape[1] + table.participant
    repeats = np.flatnonzero(cell[1:] == cell[:-1])  # a cell's rows are adjacent
    if repeats.size:
        row = int(repeats[0]) + 1
        raise InputError(
            f"duplicate cell for image {table.image_ids[table.image[row]]}, "
            f"rater {table.participant_ids[table.participant[row]]}; "
            "apply the first-trial filter before building the matrix"
        )
    values = np.full(shape, np.nan, dtype=np.float64)
    values.reshape(-1)[cell] = table.rating
    return RatingMatrix(values=values, image_ids=table.image_ids,
                        rater_ids=table.participant_ids)


def icc2k(m: RatingMatrix, missing: str = "impute") -> float:
    """Two-way random-effects, average-measures intraclass correlation."""
    if missing not in MISSING_MODES:
        raise InputError(f"unknown missing-data mode {missing!r}", field="missing")
    k = len(m.rater_ids)
    return float(_subset_icc2k(m, {k: np.arange(k)[None, :]}, missing)[k][0])


@dataclass(frozen=True)
class IccBootstrapReport:
    sizes: tuple[int, ...]
    values: dict[int, tuple[float, ...]]
    means: dict[int, float]
    sds: dict[int, float]


def _subset_icc2k(
    m: RatingMatrix, draws: dict[int, np.ndarray], missing: str
) -> dict[int, np.ndarray]:
    """ICC(2,k) of ``m.values[:, cols]`` for every row ``cols`` of each ``draws[size]``.

    The two-way ANOVA of a column subset needs only sums (McGraw & Wong
    1996). With observed cells centred per column and missing ones set
    to 0, the subset's row sums are ``xc @ S`` for its 0/1 column
    indicator S, BSS and ESS do not change when a column is shifted, and
    JSS comes from the column means; so a size costs a few matrix
    products for all of its subsets. Rows with no observed cell in a
    subset are dropped. The rest of ``missing`` enters as corrections
    that are products with the fill (``gap * f``; "impute") or with the
    dropped rows ("complete"), taken over the rows with a missing cell
    only, so a complete matrix has none. A degenerate subset raises the
    error of the first one in draw order.
    """
    x = m.values
    holes = np.isnan(x)
    col_n = len(x) - holes.sum(axis=0)
    col_means = np.where(holes, 0.0, x).sum(axis=0) / np.maximum(col_n, 1)
    xc = np.where(holes, 0.0, x - col_means)
    col_ss = (xc * xc).sum(axis=0)
    dev = col_means - col_means[col_n > 0].mean()
    h = np.nonzero(holes.any(axis=1))[0]  # the rows that take corrections
    miss, xh = holes[h].astype(np.float64), xc[h]
    out: dict[int, np.ndarray] = {}
    for size, cols in draws.items():
        S = np.zeros((len(m.rater_ids), len(cols)), dtype=np.float64)
        S[cols, np.arange(len(cols))[:, None]] = 1.0
        rows = xc @ S
        gap = miss @ S  # missing cells per row, then the cells to fill
        keep = gap < size if missing == "impute" else gap == 0
        gap *= keep
        if missing == "impute":
            # a filled cell minus its column mean: row mean - grand mean
            grand = (col_n * dev) @ S / np.maximum(col_n @ S, 1)
            observed_dev = dev @ S - miss @ (dev[:, None] * S)
            f = ((rows[h] + observed_dev) / (size - gap) - grand) * keep
            rows[h] += gap * f
            col_sums = (miss.T @ f) * S
            extra_ss = (gap * f * f).sum(axis=0)
        else:
            drop = 1.0 - keep
            rows[h] *= keep
            col_sums = -(xh.T @ drop) * S
            extra_ss = -(((xh * xh) @ S) * drop).sum(axis=0)
        n = len(x) - len(h) + keep.sum(axis=0)
        n_filled = gap.sum(axis=0)
        total = col_sums.sum(axis=0)
        # a degenerate subset divides by zero here and raises below
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = col_sums / n
            dev_sum = dev @ S + total / n
            bss = (rows * rows).sum(axis=0) / size - total * total / (n * size)
            ess = col_ss @ S + extra_ss - (col_sums * col_sums).sum(axis=0) / n - bss
            jss = n * ((dev * dev) @ S + ((2.0 * dev[:, None] + shift) * shift).sum(axis=0)
                       - dev_sum * dev_sum / size)
            df_e = (n - 1) * (size - 1) - n_filled
            bms = bss / (n - 1)
            jms = jss / (size - 1)
            ems = ess / df_e
            denom = bms + (jms - ems) / n
            out[size] = (bms - ems) / denom
        no_rater = (col_n == 0) @ S > 0
        failed = np.nonzero((n < 2) | no_rater | (df_e <= 0) | (denom == 0.0))[0]
        if failed.size:
            r = failed[0]
            if (~holes[:, cols[r]]).any(axis=1).sum() < 2:
                raise ComputationError(f"a subsample of {size} raters leaves fewer than 2 "
                                       "images with a rating")
            if n[r] < 2:
                raise ComputationError("complete-case ICC needs at least 2 fully observed images")
            if no_rater[r]:
                empty = [m.rater_ids[j] for j in cols[r] if col_n[j] == 0]
                raise ComputationError(f"raters with no observed ratings: {empty[:5]}")
            if df_e[r] <= 0:
                raise ComputationError(f"degenerate ANOVA: residual df {(n[r] - 1) * (size - 1)}"
                                       f" - {int(n_filled[r])} imputed <= 0")
            raise ComputationError("degenerate ANOVA: zero denominator")
    return out


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
    if missing not in MISSING_MODES:
        raise InputError(f"unknown missing-data mode {missing!r}", field="missing")
    n_raters = len(m.rater_ids)
    sizes = tuple(sorted(set(int(s) for s in sizes)))
    if not sizes:
        raise InputError("bootstrap needs at least one subsample size", field="sizes")
    if sizes[0] < 2:
        raise InputError(f"subsample sizes must be >= 2, got {sizes[0]}", field="sizes")
    if sizes[-1] > n_raters:
        raise InputError(
            f"subsample size {sizes[-1]} exceeds available raters ({n_raters})", field="sizes"
        )
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}", field="reps")
    draws = {
        size: np.array([
            np.sort(substream(seed, "icc.bootstrap", size, rep)
                    .choice(n_raters, size=size, replace=False))
            for rep in range(reps)
        ])
        for size in sizes
    }
    iccs = _subset_icc2k(m, draws, missing)
    values = {size: tuple(float(v) for v in iccs[size]) for size in sizes}
    means = {size: float(iccs[size].mean()) for size in sizes}
    sds = {size: float(iccs[size].std(ddof=1)) if reps > 1 else 0.0 for size in sizes}
    ordered = [means[s] for s in sizes]
    if any(b < a for a, b in zip(ordered, ordered[1:])):
        log.warning("bootstrap ICC means are not monotone nondecreasing: %s", ordered)
    return IccBootstrapReport(sizes=sizes, values=values, means=means, sds=sds)


def wilson_ci(successes: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    z comes from the lower tail ``(1 - level) / 2``, which is exact for a
    level >= 0.5; the upper tail ``1 - (1 - level) / 2`` rounds, to 1 for
    a level within ~1e-16 of 1.
    """
    from statistics import NormalDist  # pulls in decimal and fractions: load on use

    if n < 1:
        raise InputError(f"n must be >= 1, got {n}", field="n")
    if not 0 <= successes <= n:
        raise InputError(f"successes must be in [0, {n}], got {successes}", field="successes")
    if not 0.0 < level < 1.0:
        raise InputError(f"level must be in (0, 1), got {level}", field="level")
    z = -NormalDist().inv_cdf((1.0 - level) / 2.0)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    # at the boundaries the bound is exactly 0 or 1; avoid cancellation noise
    low = 0.0 if successes == 0 else float(max(0.0, center - half))
    high = 1.0 if successes == n else float(min(1.0, center + half))
    return low, high
