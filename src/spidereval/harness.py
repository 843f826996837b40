"""Nested cross-validation harness with random hyperparameter search.

Per (repetition, fold): thirty random trials are scored by mean MSE over
the five inner folds of the outer training set, the argmin trial wins
(earliest trial on ties), the winning configuration is refit on the full
outer training set, and the held-out test images receive one raw and one
clipped prediction. All losses are computed on raw predictions.

Two predictor kinds are provided. ``ridge_closed_form`` solves the
normal equations with an unpenalized intercept and is the deterministic
baseline used throughout. ``iterative_stub`` is a full-batch gradient
descent linear model that exercises the epoch-checkpoint path: each
trial also runs a monitored fit on (training minus the 20% validation
subset) against that subset to locate ``best_epoch``, and the final fit
uses ``best_epoch + 5`` epochs capped at the trial's sampled maximum.

(rep, fold) tasks are independent; every random draw comes from a
substream keyed by (seed, purpose, rep, fold, trial), so results do not
depend on the number of worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ComputationError, InputError
from .ingest import FeatureTable
from .partition import CvPlan, FoldPlan, ImageTargets, assert_no_leakage
from .rng import substream

__all__ = [
    "PredictorSpec",
    "TrialResult",
    "Prediction",
    "PredictionSet",
    "default_spec",
    "effective_epochs",
    "fit_ridge",
    "random_search",
    "run_nested_cv",
]

KINDS = ("ridge_closed_form", "iterative_stub")
N_TRIALS = 30
EPOCH_BUFFER = 5


@dataclass(frozen=True)
class PredictorSpec:
    """Predictor kind plus the hyperparameter search space.

    ``ranges`` maps a parameter name to (low, high, scale) with scale
    "linear" or "log"; sampling is uniform on the declared scale.
    ``epochs_range`` bounds the per-trial integer max-epoch draw and is
    used by iterative kinds only.
    """

    kind: str
    ranges: Mapping[str, tuple[float, float, str]]
    epochs_range: tuple[int, int] = (10, 50)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InputError(f"unknown predictor kind {self.kind!r}", field="kind")
        if not self.ranges:
            raise InputError("hyperparameter ranges must be non-empty", field="ranges")
        for name, (low, high, scale) in self.ranges.items():
            if scale not in ("linear", "log"):
                raise InputError(f"range {name}: unknown scale {scale!r}", field="ranges")
            if not (np.isfinite(low) and np.isfinite(high) and low <= high):
                raise InputError(f"range {name}: invalid bounds ({low}, {high})", field="ranges")
            if scale == "log" and low <= 0:
                raise InputError(f"range {name}: log scale needs positive bounds", field="ranges")
        lo, hi = self.epochs_range
        if not (1 <= lo <= hi):
            raise InputError(f"invalid epochs range {self.epochs_range}", field="epochs_range")

    @property
    def iterative(self) -> bool:
        return self.kind == "iterative_stub"


def default_spec(kind: str = "ridge_closed_form") -> PredictorSpec:
    if kind == "ridge_closed_form":
        return PredictorSpec(kind=kind, ranges={"lambda": (1e-4, 1e2, "log")})
    if kind == "iterative_stub":
        return PredictorSpec(kind=kind, ranges={"learning_rate": (1e-3, 1e-1, "log")})
    raise InputError(f"unknown predictor kind {kind!r}", field="kind")


@dataclass(frozen=True)
class TrialResult:
    trial: int
    params: dict[str, float]
    max_epochs: int | None
    loss: float | None
    best_epoch: int | None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.loss is not None and not (np.isfinite(self.loss) and self.loss >= 0):
            raise ComputationError(f"trial {self.trial}: loss must be finite and >= 0")


@dataclass(frozen=True)
class Prediction:
    repetition: int
    fold: int
    image_id: str
    raw: float
    clipped: float


def make_prediction(repetition: int, fold: int, image_id: str, raw: float) -> Prediction:
    return Prediction(
        repetition=repetition,
        fold=fold,
        image_id=image_id,
        raw=float(raw),
        clipped=float(min(100.0, max(0.0, raw))),
    )


@dataclass(frozen=True)
class PredictionSet:
    """Held-out predictions, exactly one per (repetition, image)."""

    entries: tuple[Prediction, ...]
    _by_rep: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_rep: dict[int, dict[str, Prediction]] = {}
        for p in self.entries:
            per_image = by_rep.setdefault(p.repetition, {})
            if p.image_id in per_image:
                raise ComputationError(
                    f"duplicate prediction for rep={p.repetition} image={p.image_id}"
                )
            per_image[p.image_id] = p
        object.__setattr__(self, "_by_rep", by_rep)

    @property
    def repetitions(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_rep))

    def by_repetition(self, repetition: int) -> dict[str, Prediction]:
        return dict(self._by_rep[repetition])

    def image_ids(self) -> tuple[str, ...]:
        ids: set[str] = set()
        for per_image in self._by_rep.values():
            ids.update(per_image)
        return tuple(sorted(ids))


def effective_epochs(best_epoch: int, max_epochs: int | None = None) -> int:
    """Checkpoint epoch plus the fixed 5-epoch buffer, capped at the
    sampled maximum when one is given."""
    if best_epoch < 1:
        raise InputError(f"best_epoch must be >= 1, got {best_epoch}")
    epochs = best_epoch + EPOCH_BUFFER
    if max_epochs is not None:
        epochs = min(epochs, max_epochs)
    return epochs


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Solve (XtX + lam*I) w = Xt y with an unpenalized intercept.

    Returns (weights, intercept).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise InputError("fit_ridge expects X (n, d) and y (n,)")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise InputError("fit_ridge inputs must be finite")
    if not (np.isfinite(lam) and lam > 0):
        raise InputError(f"lambda must be positive and finite, got {lam}")
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    A = Xa.T @ Xa
    A[np.arange(d), np.arange(d)] += lam
    b = Xa.T @ y
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"ridge normal equations are singular: {exc}") from exc
    return w[:d].copy(), float(w[d])


def _mse(pred: np.ndarray, obs: np.ndarray) -> float:
    diff = pred - obs
    return float(diff @ diff / diff.shape[0])


def _design(
    features: FeatureTable, targets: Mapping[str, float], ids
) -> tuple[np.ndarray, np.ndarray]:
    ids = list(ids)
    X = features.matrix(ids)
    y = np.array([targets[i] for i in ids], dtype=np.float64)
    return X, y


class _RidgeModel:
    __slots__ = ("w", "b")

    def __init__(self, X: np.ndarray, y: np.ndarray, params: Mapping[str, float]):
        self.w, self.b = fit_ridge(X, y, params["lambda"])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b


class _GradientDescentModel:
    """Linear model fit by full-batch gradient descent on the MSE."""

    __slots__ = ("w", "b")

    def __init__(self, X: np.ndarray, y: np.ndarray, lr: float, epochs: int):
        n, d = X.shape
        self.w = np.zeros(d, dtype=np.float64)
        self.b = 0.0
        for _ in range(epochs):
            self._step(X, y, lr)

    def _step(self, X: np.ndarray, y: np.ndarray, lr: float) -> None:
        n = X.shape[0]
        resid = X @ self.w + self.b - y
        self.w -= lr * (2.0 / n) * (X.T @ resid)
        self.b -= lr * 2.0 * float(resid.mean())
        if not (np.isfinite(self.w).all() and np.isfinite(self.b)):
            raise ComputationError("gradient descent diverged to non-finite weights")

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b


def _monitored_best_epoch(
    X: np.ndarray,
    y: np.ndarray,
    Xv: np.ndarray,
    yv: np.ndarray,
    lr: float,
    max_epochs: int,
) -> int:
    """Epoch (1-based) with the lowest validation MSE; earliest on ties."""
    model = _GradientDescentModel(X, y, lr, epochs=0)
    best_epoch, best_loss = 1, np.inf
    for epoch in range(1, max_epochs + 1):
        model._step(X, y, lr)
        loss = _mse(model.predict(Xv), yv)
        if not np.isfinite(loss):
            raise ComputationError(f"validation loss non-finite at epoch {epoch}")
        if loss < best_loss:
            best_epoch, best_loss = epoch, loss
    return best_epoch


def _sample_trial(spec: PredictorSpec, rng: np.random.Generator) -> tuple[dict, int | None]:
    params: dict[str, float] = {}
    for name in sorted(spec.ranges):
        low, high, scale = spec.ranges[name]
        u = float(rng.random())
        if scale == "log":
            params[name] = float(np.exp(np.log(low) + u * (np.log(high) - np.log(low))))
        else:
            params[name] = float(low + u * (high - low))
    max_epochs = None
    if spec.iterative:
        lo, hi = spec.epochs_range
        max_epochs = int(rng.integers(lo, hi + 1))
    return params, max_epochs


def _fit(spec: PredictorSpec, X, y, params, epochs: int | None):
    if spec.kind == "ridge_closed_form":
        return _RidgeModel(X, y, params)
    if epochs is None:
        raise ComputationError("iterative fit requires an epoch count")
    return _GradientDescentModel(X, y, params["learning_rate"], epochs)


def random_search(
    spec: PredictorSpec,
    inner_folds: tuple[tuple[str, ...], ...],
    features: FeatureTable,
    targets: Mapping[str, float],
    *,
    validation: tuple[str, ...] = (),
    n_trials: int = N_TRIALS,
    seed: int = 0,
    repetition: int = 0,
    fold: int = 0,
) -> tuple[TrialResult, list[TrialResult]]:
    """Sample ``n_trials`` configurations and return (winner, all trials).

    The winner minimizes the mean MSE across the inner folds; ties go to
    the earliest trial. A trial that fails to fit is recorded with its
    error and skipped; if every trial fails a ComputationError carrying
    the per-trial diagnostics is raised.
    """
    if n_trials < 1:
        raise InputError(f"n_trials must be >= 1, got {n_trials}")
    train_ids = sorted({i for part in inner_folds for i in part})
    val_set = set(validation)
    trials: list[TrialResult] = []
    for t in range(n_trials):
        rng = substream(seed, "search", repetition, fold, t)
        params, max_epochs = _sample_trial(spec, rng)
        try:
            fold_losses = []
            for held_out in inner_folds:
                held = set(held_out)
                fit_ids = [i for i in train_ids if i not in held]
                X, y = _design(features, targets, fit_ids)
                Xv, yv = _design(features, targets, sorted(held))
                model = _fit(spec, X, y, params, max_epochs)
                fold_losses.append(_mse(model.predict(Xv), yv))
            loss = float(np.mean(fold_losses))
            best_epoch = None
            if spec.iterative:
                fit_ids = [i for i in train_ids if i not in val_set]
                if not fit_ids or not val_set:
                    raise ComputationError(
                        "iterative search needs a non-empty validation subset"
                    )
                X, y = _design(features, targets, fit_ids)
                Xv, yv = _design(features, targets, sorted(val_set))
                best_epoch = _monitored_best_epoch(
                    X, y, Xv, yv, params["learning_rate"], max_epochs
                )
            trials.append(
                TrialResult(
                    trial=t, params=params, max_epochs=max_epochs,
                    loss=loss, best_epoch=best_epoch,
                )
            )
        except ComputationError as exc:
            trials.append(
                TrialResult(
                    trial=t, params=params, max_epochs=max_epochs,
                    loss=None, best_epoch=None, error=str(exc),
                )
            )
    viable = [tr for tr in trials if tr.loss is not None]
    if not viable:
        details = "; ".join(f"trial {tr.trial}: {tr.error}" for tr in trials)
        raise ComputationError(f"all {n_trials} search trials failed: {details}")
    best = min(viable, key=lambda tr: (tr.loss, tr.trial))
    return best, trials


def _run_fold(
    fp: FoldPlan,
    features: FeatureTable,
    targets: ImageTargets,
    spec: PredictorSpec,
    n_trials: int,
    seed: int,
) -> tuple[list[Prediction], list[TrialResult], int]:
    try:
        best, trials = random_search(
            spec,
            fp.inner,
            features,
            targets.mean_a,
            validation=fp.validation,
            n_trials=n_trials,
            seed=seed,
            repetition=fp.repetition,
            fold=fp.fold,
        )
        epochs = None
        if spec.iterative:
            epochs = effective_epochs(best.best_epoch, best.max_epochs)
        X, y = _design(features, targets.mean_a, fp.train)
        model = _fit(spec, X, y, best.params, epochs)
        Xt = features.matrix(list(fp.test))
        raw = model.predict(Xt)
        preds = [
            make_prediction(fp.repetition, fp.fold, image_id, raw_val)
            for image_id, raw_val in zip(fp.test, raw)
        ]
        return preds, trials, best.trial
    except (ComputationError, InputError) as exc:
        raise ComputationError(
            f"rep={fp.repetition} fold={fp.fold}: {exc}"
        ) from exc


def run_nested_cv(
    plan: CvPlan,
    targets: ImageTargets,
    features: FeatureTable,
    spec: PredictorSpec,
    *,
    n_trials: int = N_TRIALS,
    seed: int | None = None,
    threads: int = 1,
) -> tuple[PredictionSet, list[dict]]:
    """Execute the full plan and return predictions plus the search log.

    The log holds one record per (repetition, fold, trial) with the
    winning trial flagged. ``seed`` defaults to the plan's own seed so a
    stored plan fully determines the run.
    """
    assert_no_leakage(plan, targets)
    if seed is None:
        seed = plan.seed
    tasks = sorted(plan.folds, key=lambda fp: (fp.repetition, fp.fold))

    def work(fp: FoldPlan):
        return _run_fold(fp, features, targets, spec, n_trials, seed)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, tasks))
    else:
        results = [work(fp) for fp in tasks]

    entries: list[Prediction] = []
    log: list[dict] = []
    for fp, (preds, trials, winner) in zip(tasks, results):
        entries.extend(preds)
        for tr in trials:
            log.append(
                {
                    "repetition": fp.repetition,
                    "fold": fp.fold,
                    "trial": tr.trial,
                    "params": tr.params,
                    "max_epochs": tr.max_epochs,
                    "best_epoch": tr.best_epoch,
                    "loss": tr.loss,
                    "error": tr.error,
                    "selected": tr.trial == winner,
                }
            )
    return PredictionSet(entries=tuple(entries)), log
