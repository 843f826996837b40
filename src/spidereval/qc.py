"""Rater quality control.

Participants are screened on first-trial ratings with two complementary
rules and the union of both flag sets is excluded:

* low agreement with the consensus (Spearman correlation against the
  per-image median, flagged below ``Q1 - 1.5 * IQR``), and
* systematic deviation (median absolute deviation from the consensus,
  flagged above ``Q3 + 1.5 * IQR``).

Quartiles use the linear interpolation rule (type 7). The consensus is
computed once over all participants and is not recomputed after
exclusions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, InputError
from .ingest import RatingsTable, first_trial_filter, rows_by_code
from .ranking import MIN_PAIRS, median, quantile, spearman_rho

__all__ = [
    "QcReport",
    "consensus_median",
    "flag_correlation_outliers",
    "flag_mad_outliers",
    "run_qc",
]

MIN_PARTICIPANTS = 4


def consensus_median(table: RatingsTable) -> dict[str, float]:
    """Per-image median rating over all participants (first trials only)."""
    by_image = rows_by_code(table.image, table.n_images)
    return {image_id: float(median(np.sort(table.rating[rows])))
            for image_id, rows in zip(table.image_ids, by_image)}


def _fence(scores: dict[str, float], rule: str, upper: bool) -> float:
    """The Tukey fence (1.5 IQR beyond the type-7 quartiles) of the scores."""
    if len(scores) < MIN_PARTICIPANTS:
        raise ComputationError(f"{rule} screening needs at least {MIN_PARTICIPANTS} participants")
    values = np.sort(np.array(list(scores.values()), dtype=np.float64))
    q1, q3 = float(quantile(values, 0.25)), float(quantile(values, 0.75))
    return q3 + 1.5 * (q3 - q1) if upper else q1 - 1.5 * (q3 - q1)


def flag_correlation_outliers(rhos: dict[str, float]) -> tuple[set[str], float]:
    """Participants whose consensus correlation falls below the lower fence."""
    lower = _fence(rhos, "correlation", upper=False)
    return {pid for pid, rho in rhos.items() if rho < lower}, lower


def flag_mad_outliers(scores: dict[str, float]) -> tuple[set[str], float]:
    """Participants whose median absolute deviation exceeds the upper fence."""
    upper = _fence(scores, "deviation", upper=True)
    return {pid for pid, s in scores.items() if s > upper}, upper


@dataclass(frozen=True)
class QcReport:
    """Outcome of the screening pass.

    ``rho`` is ``None`` for participants with fewer than three rated
    images; such participants cannot be assessed by the correlation rule
    and are only subject to the deviation rule. ``n_first_trial`` counts
    the first-trial ratings that were screened.
    """

    n_first_trial: int
    rho: dict[str, float | None]
    mad: dict[str, float]
    corr_threshold: float
    mad_threshold: float
    corr_flagged: frozenset[str]
    mad_flagged: frozenset[str]
    excluded: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "excluded", self.corr_flagged | self.mad_flagged)


def run_qc(table: RatingsTable) -> tuple[QcReport, RatingsTable]:
    """Apply the first-trial filter and both screening rules.

    Returns the report together with the filtered table with all flagged
    participants removed. Fewer than ``MIN_PARTICIPANTS`` participants is an
    input error, fewer defined correlations (constant raters) a computation one.
    """
    filtered = first_trial_filter(table)
    if filtered.n_participants < MIN_PARTICIPANTS:
        raise InputError(f"rater screening needs at least {MIN_PARTICIPANTS} participants, "
                         f"got {filtered.n_participants}", field="ratings")
    consensus = np.array(list(consensus_median(filtered).values()))[filtered.image]

    rho: dict[str, float | None] = {}
    mad: dict[str, float] = {}
    by_participant = rows_by_code(filtered.participant, filtered.n_participants)
    for pid, rows in zip(filtered.participant_ids, by_participant):
        own, cons = filtered.rating[rows], consensus[rows]
        mad[pid] = float(median(np.sort(np.abs(own - cons))))
        rho[pid] = None
        if own.shape[0] >= MIN_PAIRS:
            try:
                rho[pid] = spearman_rho(own, cons)
            except ComputationError:
                pass  # constant ratings carry no rank signal: rho stays undefined

    defined = {pid: v for pid, v in rho.items() if v is not None}
    corr_flagged, corr_threshold = flag_correlation_outliers(defined)
    mad_flagged, mad_threshold = flag_mad_outliers(mad)

    report = QcReport(
        n_first_trial=len(filtered),
        rho=rho,
        mad=mad,
        corr_threshold=corr_threshold,
        mad_threshold=mad_threshold,
        corr_flagged=frozenset(corr_flagged),
        mad_flagged=frozenset(mad_flagged),
    )
    cleaned = filtered.without_participants(report.excluded)
    return report, cleaned
