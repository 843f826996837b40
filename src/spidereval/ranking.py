"""Rank transforms shared by the rank-based statistics."""

from __future__ import annotations

import numpy as np

__all__ = ["average_ranks", "tie_group_sizes"]


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


def tie_group_sizes(values: np.ndarray) -> np.ndarray:
    """Sizes of the tie groups (>= 2) among the pooled values."""
    values = np.asarray(values, dtype=np.float64)
    _, counts = np.unique(values, return_counts=True)
    return counts[counts > 1]
