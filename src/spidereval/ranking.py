"""Rank transforms shared by the rank-based statistics, and the Spearman
correlation built on them."""

from __future__ import annotations

import numpy as np

from .errors import ComputationError

__all__ = ["average_ranks", "spearman_rho", "tie_group_sizes"]

MIN_PAIRS = 3


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values assigned the mean of their rank range."""
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    ordered = values[order]
    # sorted positions i..j of a run of equal values share 0.5 * (i + j) + 1
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], n] - 1
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman_rho(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with average ranks for ties.

    Computed as the Pearson correlation of the rank vectors. Raises
    :class:`ComputationError` when either rank vector is constant, since
    the correlation is undefined in that case.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ComputationError("spearman_rho expects two 1-d arrays of equal length")
    if x.shape[0] < MIN_PAIRS:
        raise ComputationError(
            f"spearman_rho needs at least {MIN_PAIRS} pairs, got {x.shape[0]}"
        )
    rx = average_ranks(x)
    ry = average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        raise ComputationError("spearman_rho undefined: a rank vector is constant")
    return float((rx @ ry) / denom)


def tie_group_sizes(values: np.ndarray) -> np.ndarray:
    """Sizes of the tie groups (>= 2) among the pooled values."""
    values = np.asarray(values, dtype=np.float64)
    _, counts = np.unique(values, return_counts=True)
    return counts[counts > 1]
