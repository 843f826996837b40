"""Single-model and ensemble performance metrics.

All metrics are computed on clipped predictions against group-B means.
Per repetition the held-out predictions of the five folds are
concatenated and scored once; the five triples are then averaged. The
ensemble prediction is the per-image mean of the five clipped held-out
predictions. Two Jensen inequalities (ensemble MAE and MSE never exceed
the repetition averages) are asserted on every report. Every score
reads :meth:`PredictionSet.aligned`, which holds the one coverage rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ComputationError
from .harness import PredictionSet

__all__ = [
    "MetricReport",
    "mae",
    "rmse",
    "r2",
    "repetition_metrics",
    "ensemble_metrics",
    "ensemble_predictions",
    "metric_report",
]


def _check(pred: np.ndarray, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    if pred.shape != obs.shape or pred.ndim != 1:
        raise ComputationError("metric expects two 1-d arrays of equal length")
    if pred.shape[0] < 2:
        raise ComputationError("metric needs at least 2 points")
    return pred, obs


def mae(pred: np.ndarray, obs: np.ndarray) -> float:
    pred, obs = _check(pred, obs)
    return float(np.mean(np.abs(pred - obs)))


def rmse(pred: np.ndarray, obs: np.ndarray) -> float:
    pred, obs = _check(pred, obs)
    return float(np.sqrt(np.mean((pred - obs) ** 2)))


def r2(pred: np.ndarray, obs: np.ndarray) -> float:
    """1 - SSE/SST with SST about the observed mean of this scope."""
    pred, obs = _check(pred, obs)
    sst = float(np.sum((obs - obs.mean()) ** 2))
    if sst == 0.0:
        raise ComputationError("r2 undefined: observed values have zero variance")
    sse = float(np.sum((obs - pred) ** 2))
    return 1.0 - sse / sst


@dataclass(frozen=True)
class MetricReport:
    per_repetition: tuple[tuple[int, float, float, float], ...]  # (rep, mae, rmse, r2)
    mean_mae: float
    mean_rmse: float
    mean_r2: float
    ensemble_mae: float
    ensemble_rmse: float
    ensemble_r2: float


def _scores(pred: np.ndarray, obs: np.ndarray) -> tuple[float, float, float]:
    return mae(pred, obs), rmse(pred, obs), r2(pred, obs)


def repetition_metrics(
    ps: PredictionSet, targets_b: Mapping[str, float]
) -> tuple[tuple[tuple[int, float, float, float], ...], tuple[float, float, float]]:
    """Per-repetition (MAE, RMSE, R2) triples and their mean."""
    _, obs, clipped = ps.aligned(targets_b)
    rows = tuple(
        (rep, *_scores(clipped[:, j], obs)) for j, rep in enumerate(ps.repetitions)
    )
    arr = np.array([row[1:] for row in rows], dtype=np.float64)
    mean = tuple(float(v) for v in arr.mean(axis=0))
    return rows, mean


def ensemble_predictions(
    ps: PredictionSet, targets_b: Mapping[str, float]
) -> dict[str, float]:
    """Per-image mean of the clipped held-out predictions across repetitions."""
    ids, _, clipped = ps.aligned(targets_b)
    return dict(zip(ids, clipped.mean(axis=1).tolist()))


def ensemble_metrics(
    ps: PredictionSet, targets_b: Mapping[str, float]
) -> tuple[float, float, float]:
    _, obs, clipped = ps.aligned(targets_b)
    return _scores(clipped.mean(axis=1), obs)


def metric_report(ps: PredictionSet, targets_b: Mapping[str, float]) -> MetricReport:
    """Full report with the Jensen inequalities verified."""
    rows, (mean_mae, mean_rmse, mean_r2) = repetition_metrics(ps, targets_b)
    ens_mae, ens_rmse, ens_r2 = ensemble_metrics(ps, targets_b)
    tol = 1e-9
    if ens_mae > mean_mae + tol:
        raise ComputationError(
            f"ensemble MAE {ens_mae} exceeds mean per-repetition MAE {mean_mae}"
        )
    mean_mse = float(np.mean([r_ ** 2 for _, _, r_, _ in rows]))
    if ens_rmse ** 2 > mean_mse + tol:
        raise ComputationError(
            f"ensemble MSE {ens_rmse ** 2} exceeds mean per-repetition MSE {mean_mse}"
        )
    return MetricReport(
        per_repetition=rows,
        mean_mae=mean_mae,
        mean_rmse=mean_rmse,
        mean_r2=mean_r2,
        ensemble_mae=ens_mae,
        ensemble_rmse=ens_rmse,
        ensemble_r2=ens_r2,
    )
