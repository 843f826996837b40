"""Single-model and ensemble performance metrics.

All metrics are computed on clipped predictions against group-B means.
Per repetition the held-out predictions of the five folds are
concatenated and scored once; the five triples are then averaged. The
ensemble prediction is the per-image mean of the five clipped held-out
predictions. Two Jensen inequalities (ensemble MAE and MSE never exceed
the repetition averages) are asserted on every report. A report reads
:meth:`PredictionSet.aligned`, which holds the one coverage rule, once:
every score comes from that one aligned matrix.
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


def metric_report(ps: PredictionSet, targets_b: Mapping[str, float]) -> MetricReport:
    """Per-repetition and ensemble scores with the Jensen inequalities verified."""
    _, obs, clipped = ps.aligned(targets_b)
    rows = tuple(
        (rep, *_scores(clipped[:, j], obs)) for j, rep in enumerate(ps.repetitions)
    )
    mean_mae, mean_rmse, mean_r2 = (
        float(v) for v in np.array([row[1:] for row in rows]).mean(axis=0)
    )
    ens_mae, ens_rmse, ens_r2 = _scores(clipped.mean(axis=1), obs)
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
