"""Rank transforms shared by the rank-based statistics, the Pearson
correlation, the Spearman correlation built on both, and the order
statistics of sorted samples: the median and the type-7 quantile."""

from __future__ import annotations

import numpy as np

from .errors import ComputationError

__all__ = ["average_ranks", "median", "pearson_r", "quantile", "spearman_rho",
           "tie_group_sizes"]

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


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two 1-d arrays of at least ``MIN_PAIRS`` values.

    Raises :class:`ComputationError` when either array is constant, since
    the correlation is undefined in that case.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < MIN_PAIRS:
        raise ComputationError(f"pearson_r expects two 1-d arrays of length >= {MIN_PAIRS}")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0.0:
        raise ComputationError("pearson_r undefined: zero variance")
    return float(xc @ yc / denom)


def spearman_rho(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with average ranks for ties: the Pearson
    correlation of the rank vectors, undefined when one is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ComputationError("spearman_rho expects two 1-d arrays of equal length")
    if x.shape[0] < MIN_PAIRS:
        raise ComputationError(
            f"spearman_rho needs at least {MIN_PAIRS} pairs, got {x.shape[0]}"
        )
    return pearson_r(average_ranks(x), average_ranks(y))


def tie_group_sizes(values: np.ndarray) -> np.ndarray:
    """Sizes of the tie groups (>= 2) among the pooled values."""
    values = np.asarray(values, dtype=np.float64)
    _, counts = np.unique(values, return_counts=True)
    return counts[counts > 1]


def median(ordered: np.ndarray):
    """``np.median`` along axis 0 of ``ordered``, finite values sorted along
    that axis: the middle value, or the mean of the middle pair."""
    half = ordered.shape[0] // 2
    return ordered[half] if ordered.shape[0] % 2 else 0.5 * (ordered[half - 1] + ordered[half])


def quantile(ordered: np.ndarray, q: float):
    """``np.quantile``'s default, the type-7 (linear) rule, along axis 0 of
    ``ordered``, sorted along that axis by ``np.sort`` (NaNs last)."""
    n = ordered.shape[0]
    j, g = divmod((n - 1) * q, 1)
    a, b = ordered[int(j)], ordered[min(int(j) + 1, n - 1)]
    value = a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)
    return np.where(np.isnan(ordered[-1]), ordered[-1], value)
