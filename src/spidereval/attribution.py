"""Agreement between attribution heatmaps and binary object masks.

Per image the composite heatmap (pixel mean of the per-repetition maps)
is compared against the mask: mean raw activation inside versus outside,
their difference delta, and a one-sided paired t-test over images with
Cohen's d for paired samples. Heatmaps are used at their stored
resolution; this module never resizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ComputationError
from .ingest import BinaryMask, FloatGrid
from .ranking import pearson_r, spearman_rho
from .special import student_t_sf

__all__ = [
    "OverlapRecord",
    "PairedTestResult",
    "composite_heatmap",
    "overlap_stats",
    "paired_one_sided_t",
    "representative_examples",
    "delta_fear_correlations",
]

FEAR_FILTER_MIN = 40.0


@dataclass(frozen=True)
class OverlapRecord:
    image_id: str
    mu_in: float
    mu_out: float
    delta: float
    mask_fraction: float


@dataclass(frozen=True)
class PairedTestResult:
    n: int
    mean_diff: float
    sd_diff: float
    t: float
    df: int
    one_sided_p: float
    cohen_d: float


def composite_heatmap(grids: Sequence[FloatGrid]) -> FloatGrid:
    """Element-wise mean of equally sized heatmaps (one per repetition),
    summed in the order of their bytes, so the order of ``grids`` changes
    no bit."""
    if not grids:
        raise ComputationError("composite_heatmap needs at least one grid")
    first = grids[0]
    for g in grids[1:]:
        if (g.width, g.height) != (first.width, first.height):
            raise ComputationError(
                f"heatmap dimensions differ: {g.width}x{g.height} vs "
                f"{first.width}x{first.height}"
            )
    stacked = np.stack(sorted((g.values for g in grids), key=np.ndarray.tobytes), axis=0)
    return FloatGrid(width=first.width, height=first.height, values=stacked.mean(axis=0))


def overlap_stats(image_id: str, heatmap: FloatGrid, mask: BinaryMask) -> OverlapRecord:
    """Mean raw activation inside and outside the mask, without rescaling."""
    if (heatmap.width, heatmap.height) != (mask.width, mask.height):
        raise ComputationError(
            f"image {image_id}: heatmap {heatmap.width}x{heatmap.height} does not "
            f"match mask {mask.width}x{mask.height}"
        )
    inside = mask.bits
    n_in = int(inside.sum())
    n_total = inside.size
    if n_in == 0 or n_in == n_total:
        raise ComputationError(
            f"image {image_id}: mask must contain both classes "
            f"(true fraction {n_in / n_total})"
        )
    mu_in = float(heatmap.values[inside].mean())
    mu_out = float(heatmap.values[~inside].mean())
    return OverlapRecord(
        image_id=image_id,
        mu_in=mu_in,
        mu_out=mu_out,
        delta=mu_in - mu_out,
        mask_fraction=n_in / n_total,
    )


def paired_one_sided_t(records: Sequence[OverlapRecord]) -> PairedTestResult:
    """Upper-tail paired t-test on the deltas; d = mean/sd."""
    deltas = np.array([r.delta for r in records], dtype=np.float64)
    n = deltas.shape[0]
    if n < 2:
        raise ComputationError(f"paired t-test needs n >= 2, got {n}")
    mean = float(deltas.mean())
    sd = float(deltas.std(ddof=1))
    if sd == 0.0:
        raise ComputationError("paired t-test undefined: zero standard deviation")
    t = mean / (sd / np.sqrt(n))
    return PairedTestResult(
        n=n,
        mean_diff=mean,
        sd_diff=sd,
        t=float(t),
        df=n - 1,
        one_sided_p=student_t_sf(float(t), n - 1),
        cohen_d=mean / sd,
    )


def representative_examples(
    records: Sequence[OverlapRecord],
    fear: Mapping[str, float] | None = None,
    min_fear: float = FEAR_FILTER_MIN,
) -> tuple[str, str, str]:
    """(argmax delta, nearest-zero delta, argmin delta) image ids.

    When ``fear`` is given, only images with an observed rating of at
    least ``min_fear`` are candidates; the filter affects example
    selection only, never the quantitative statistics. Ties break by
    lexicographic image id.
    """
    pool = list(records)
    if fear is not None:
        pool = [r for r in pool if fear.get(r.image_id, -np.inf) >= min_fear]
    if not pool:
        raise ComputationError("no candidate images for representative examples")
    max_id = min(pool, key=lambda r: (-r.delta, r.image_id)).image_id
    zero_id = min(pool, key=lambda r: (abs(r.delta), r.image_id)).image_id
    min_id = min(pool, key=lambda r: (r.delta, r.image_id)).image_id
    return max_id, zero_id, min_id


def delta_fear_correlations(
    records: Sequence[OverlapRecord], fear: Mapping[str, float]
) -> dict[str, float]:
    """Pearson and Spearman correlation of delta against observed fear."""
    paired = [(r.delta, fear[r.image_id]) for r in records if r.image_id in fear]
    if len(paired) < 3:
        raise ComputationError("delta-fear correlation needs at least 3 paired images")
    deltas = np.array([d for d, _ in paired], dtype=np.float64)
    fears = np.array([f for _, f in paired], dtype=np.float64)
    return {
        "pearson": pearson_r(deltas, fears),
        "spearman": spearman_rho(deltas, fears),
    }
