"""Nested cross-validation harness with random hyperparameter search.

Per (repetition, fold): ``n_trials`` random trials (``N_TRIALS`` = 30 by
default; ``--trials``) are scored by mean MSE over the inner folds of the
outer training set, the argmin trial wins (earliest trial on ties), the
winning configuration is refit on the full outer training set, and the
held-out test images receive one raw and one clipped prediction. All
losses are computed on raw predictions.

The one predictor kind, ``ridge_closed_form``, is ridge regression with
an unpenalized intercept, searched over its penalty lambda; deep models
are trained elsewhere and only their predictions are scored. A search
prices every trial's lambda, and returns its refit, from
eigendecompositions of Gram matrices at one of three levels. The run
hands every search one object, ``factors``, whose ``search`` prices it:

* per fit set (d < n), a ``_Kernel`` of no image: each inner fit set and
  the training set are factored;
* per outer fold (d >= n), a ``_Kernel`` of every planned image: each
  fold's block of it gives every inner fold's held-out residuals, by
  grouped deletion (see ``_RidgeFit``), and the refit;
* per run (d >= n, few trials), a ``_PlanFit``: one factorization of that
  kernel prices every fold, deleting its held-out images too.

``_factor_level`` picks the level by an operation count of the plan
size, the fold sizes and the trial count: the per-run level saves an
eigendecomposition per fold but costs more per trial. At the paper's
313 images and d = 768 it is cheaper up to 7 trials and the measured
crossover is 8, so the default 30 trials run per outer fold.

Feature rows, or kernel blocks when d >= n, are gathered once per fold,
never per trial. (rep, fold) tasks are independent; every random draw comes
from a substream keyed by (seed, purpose, rep, fold, trial), so results
do not depend on the number of worker threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .defaults import KIND, N_TRIALS
from .errors import ComputationError, InputError
from .ingest import FeatureTable
from .partition import CvPlan, FoldPlan, ImageTargets, assert_no_leakage
from .ranking import quantile
from .rng import substream

__all__ = [
    "PredictorSpec",
    "TrialResult",
    "Prediction",
    "PredictionSet",
    "Refit",
    "default_spec",
    "fit_ridge",
    "random_search",
    "run_nested_cv",
    "search_summary",
]

SUMMARY_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class PredictorSpec:
    """Predictor kind plus the hyperparameter search space.

    ``ranges`` maps the one searched parameter, ``lambda``, to (low, high,
    scale) with scale "linear" or "log"; sampling is uniform on the
    declared scale.
    """

    kind: str
    ranges: Mapping[str, tuple[float, float, str]]

    def __post_init__(self) -> None:
        if self.kind != KIND:
            raise InputError(f"unknown predictor kind {self.kind!r}", field="kind")
        if "lambda" not in self.ranges:
            raise InputError(f"{KIND} needs a range for 'lambda'", field="ranges")
        unread = sorted(set(self.ranges) - {"lambda"})
        if unread:
            raise InputError(f"{KIND} reads no range {unread}", field="ranges")
        low, high, scale = self.ranges["lambda"]
        if scale not in ("linear", "log"):
            raise InputError(f"range lambda: unknown scale {scale!r}", field="ranges")
        if not (np.isfinite(low) and np.isfinite(high) and low <= high):
            raise InputError(f"range lambda: invalid bounds ({low}, {high})", field="ranges")
        if low <= 0:
            raise InputError("range lambda: the ridge penalty needs positive bounds", field="ranges")


def default_spec() -> PredictorSpec:
    return PredictorSpec(kind=KIND, ranges={"lambda": (1e-4, 1e2, "log")})


@dataclass(frozen=True)
class TrialResult:
    trial: int
    params: dict[str, float]
    loss: float | None
    error: str | None = None


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
class Refit:
    """The winning trial of one (repetition, fold), refit on its outer
    training set. ``effective_dof`` is the ridge fit's effective degrees
    of freedom, sum e / (e + lambda) over the eigenvalues e of the centred
    Gram matrix."""

    repetition: int
    fold: int
    trial: int
    params: dict[str, float]
    effective_dof: float


@dataclass(frozen=True)
class PredictionSet:
    """Held-out predictions, exactly one per (repetition, image), plus the
    refits that made them (empty when read back from a file)."""

    entries: tuple[Prediction, ...]
    refits: tuple[Refit, ...] = field(default=(), compare=False)
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

    def aligned(
        self, targets: Mapping[str, float]
    ) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """Sorted target ids, their targets, and the clipped predictions as
        an (images, repetitions) array, repetitions in ascending order.

        The one coverage rule of every score: the set is not empty, and
        each repetition predicts every targeted image and no other; a
        mismatch is bad input naming the predictions or the targets.
        """
        if not self._by_rep:
            raise ComputationError("prediction set is empty")
        reps = self.repetitions
        for rep in reps:
            predicted = self._by_rep[rep].keys()
            missing = sorted(targets.keys() - predicted)
            if missing:
                raise InputError(
                    f"repetition {rep} lacks predictions for {len(missing)} images "
                    f"(first: {missing[:3]})", field="predictions"
                )
            extra = sorted(predicted - targets.keys())
            if extra:
                raise InputError(
                    f"repetition {rep} has predictions for untargeted images {extra[:3]}",
                    field="targets",
                )
        ids = tuple(sorted(targets))
        clipped = np.array(
            [[self._by_rep[rep][i].clipped for rep in reps] for i in ids], dtype=np.float64
        )
        return ids, np.array([targets[i] for i in ids], dtype=np.float64), clipped


def _check_penalty(lam) -> None:
    if not (np.isfinite(lam) and lam > 0):
        raise InputError(f"lambda must be positive and finite, got {lam}")


def _reflect(a: np.ndarray) -> np.ndarray:
    """``P a`` for the Householder reflector ``P = I - v v^T / v[0]``,
    ``v = 1 / sqrt(n) + e_1``, which maps 1 to -sqrt(n) e_1: rows 1: of
    the symmetric orthogonal P span the complement of the constants."""
    root = np.sqrt(len(a))
    scale = (a.sum(axis=0) / root + a[0]) / (1.0 + 1.0 / root)
    out = a - scale / root
    out[0] -= scale
    return out


def _factor_kernel(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (rounding below zero clipped) and vectors of
    ``(P K P)_1:,1:`` for a kernel K of rows centred by a common vector.
    Each reflection drops the matrix before it, so a caller that passes
    its only reference to K frees K, and ``K P``, before the eigh."""
    gram = _reflect(gram).T
    gram = _reflect(gram)[1:, 1:]
    eig, vecs = np.linalg.eigh(gram)
    return np.maximum(eig, 0.0), vecs


def _basis(vecs: np.ndarray) -> np.ndarray:
    """``W = P [0; V]``, an orthonormal basis of the complement of the
    constants in which ``M = I - H(lam) = W diag(lam / (e + lam)) W^T``."""
    return _reflect(np.vstack([np.zeros(len(vecs)), vecs]))


class _RidgeFit:
    """Ridge regression with an unpenalized intercept on one fit set,
    factored once so that each penalty costs O(nd).

    With the intercept unpenalized, ridge equals ridge on centred data
    (Hastie, Tibshirani & Friedman, ESL section 3.4.1). When d < n,
    ``Xc^T Xc = V E V^T`` (d x d) gives ``w = V (E + lam)^-1 V^T Xc^T yc``.
    When d >= n it is ridge in dual variables (Saunders, Gammerman & Vovk
    1998) on ``K = G G^T``, G the rows centred by any common vector (X is K
    with ``kernel=True``): rows 1: of P (``_reflect``) span the complement
    of the constants, so ``Z = (P G)_1:`` has ``Z Z^T = (P K P)_1:,1: = V E V^T``
    and ``a = V (E + lam)^-1 V^T (P yc)_1:`` weighs the coordinates
    ``Z g_x = (P K_Rx)_1:`` of a row x (``predict``); ``w = Z^T a``. Both
    sides have the same non-zero eigenvalues, so ``sum e / (e + lam)`` is the
    effective degrees of freedom either way.

    When d >= n, ``W = P [0; V]`` is an orthonormal basis of that
    complement and ``M = I - H(lam) = W diag(lam / (e + lam)) W^T``, so
    by grouped deletion the residuals on rows H of the fit without them
    are ``M_HH^-1 (M y)_H`` (Golub, Heath & Wahba 1979; Pahikkala et al.
    2006): ``held_out_losses``. ``I - H`` is never formed, nor is 11^T/n
    taken off a full-basis M: near interpolation (lam << e) both cancel
    every digit, and with repeated rows eigh cannot single out 1.
    """

    __slots__ = ("x_mean", "y_mean", "eig", "coef", "vecs", "xc", "kernel")

    def __init__(self, X: np.ndarray, y: np.ndarray, kernel: bool = False):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
            raise InputError("ridge fit expects X (n, d) and y (n,) with n >= 1")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise InputError("ridge fit inputs must be finite")
        n, d = X.shape
        # a kernel fit is linear in its rows' coordinates, whose mean is (P K 1 / n)_1:
        self.x_mean = _reflect(X.mean(axis=0))[1:] if kernel else X.mean(axis=0)
        self.y_mean = float(y.mean())
        yc = y - self.y_mean
        self.xc = None if kernel or d < n else X - self.x_mean
        self.kernel = kernel
        try:
            if d < n:
                xc = X - self.x_mean
                eig, self.vecs = np.linalg.eigh(xc.T @ xc)
                self.coef = self.vecs.T @ (xc.T @ yc)
            else:
                eig, self.vecs = _factor_kernel(X if kernel else self.xc @ self.xc.T)
                self.coef = self.vecs.T @ _reflect(yc)[1:]
        except np.linalg.LinAlgError as exc:
            raise ComputationError(f"ridge eigendecomposition failed: {exc}") from exc
        # The Gram matrix is positive semi-definite; clip rounding below zero.
        self.eig = np.maximum(eig, 0.0)

    def weights(self, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weights (d, T; for a kernel fit on its coordinates) and intercepts (T,)."""
        w = self.vecs @ (self.coef[:, None] / (self.eig[:, None] + lams[None, :]))
        if self.xc is not None:
            w = _reflect(self.xc)[1:].T @ w
        return w, self.y_mean - self.x_mean @ w

    def predict(self, X: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Predictions (t, T) for t rows at each of T penalties: the rows of
        X, or for a kernel fit their kernel block ``K_RT`` (n, t)."""
        w, b = self.weights(lams)
        return (_reflect(X)[1:].T if self.kernel else X) @ w + b

    def dof(self, lam: float) -> float:
        return float(np.sum(self.eig / (self.eig + lam)))

    def held_out_losses(self, held, lams: np.ndarray) -> np.ndarray:
        """Losses ``[t, k]``: MSE on rows ``held[k]`` of the fit without them at
        penalty t. d >= n only; parts are disjoint, non-empty and not all rows."""
        basis = _basis(self.vecs)
        shrink = lams[:, None] / (self.eig + lams[:, None])
        resid = basis @ (shrink * self.coef).T
        losses = np.empty((len(lams), len(held)))
        for k, rows in enumerate(held):
            part = basis[rows]
            r = np.linalg.solve((part * shrink[:, None, :]) @ part.T, resid[rows].T[..., None])
            losses[:, k] = np.einsum("thi,thi->t", r, r) / len(rows)
        return losses


class _PlanFit:
    """The kernel of every planned image, factored once per run, pricing
    every outer fold of the plan (d >= n).

    A fold's fit on its training rows F is the fit on all planned rows
    with the fold's held-out rows D deleted, so its search deletes D and
    an inner fold k at once, by block elimination of D from the grouped
    deletion of ``_RidgeFit``. The fold's targets are centred on F and
    zeroed on D, so no held-out value enters. With M the residual maker
    of the plan fit, L the Cholesky factor of ``M_DD``, ``B = L^-1 M_DF``
    and ``b = L^-1 (M y)_D``:

    - inner fold k's residuals solve ``S_k r = (M y)_k - B_k^T b``, with
      ``S_k = M_kk - B_k^T B_k = M_kk - M_kD M_DD^-1 M_Dk``;
    - the refit's predictions on D are ``-M_DD^-1 (M y)_D = -L^-T b``,
      plus the mean the targets were centred by;
    - the refit's residual maker is ``M_FF - B^T B``, of trace
      ``n_F - 1 - dof``.
    """

    __slots__ = ("row", "eig", "basis")

    def __init__(self, features: FeatureTable, ids):
        self.row = {image_id: k for k, image_id in enumerate(ids)}
        try:
            self.eig, vecs = _factor_kernel(_centred_gram(features, ids))
        except np.linalg.LinAlgError as exc:
            raise ComputationError(f"ridge eigendecomposition failed: {exc}") from exc
        self.basis = _basis(vecs)

    def search(self, train_ids, y: np.ndarray, held, lams: np.ndarray):
        """Losses ``[t, k]`` of the fit on ``train_ids`` (targets ``y``), as
        ``_RidgeFit.held_out_losses`` gives them, each trial's error (a
        ``M_DD`` that rounding leaves without a Cholesky factor), and
        ``refit(ids, t)``: the predictions of held-out ``ids`` and the
        effective dof at penalty t."""
        fit = np.array([self.row[i] for i in train_ids], dtype=np.intp)
        out = np.flatnonzero(_fit_mask(len(self.row), fit))
        y_mean = float(y.mean())
        targets = np.zeros(len(self.row))
        targets[fit] = y - y_mean
        coef, basis_out = targets @ self.basis, self.basis[out]
        # the columns of W are unit vectors: tr M_FF = sum(s) - sum_D s W_D^2
        out_weight = np.einsum("dm,dm->m", basis_out, basis_out)
        losses = np.zeros((len(lams), len(held)))
        preds = np.zeros((len(lams), len(out)))
        dof = np.zeros(len(lams))
        errors: list[str | None] = [None] * len(lams)
        for t, lam in enumerate(lams):
            shrink = lam / (self.eig + lam)
            resid = self.basis @ (shrink * coef)
            m_out = (basis_out * shrink) @ self.basis.T
            try:
                inv = np.linalg.inv(np.linalg.cholesky(m_out[:, out]))
            except np.linalg.LinAlgError as exc:
                errors[t] = f"held-out block elimination failed: {exc}"
                continue
            b_fit, b_y = inv @ m_out[:, fit], inv @ resid[out]
            for k, rows in enumerate(held):
                part, b_k = self.basis[fit[rows]], b_fit[:, rows]
                schur = (part * shrink) @ part.T - b_k.T @ b_k
                r = np.linalg.solve(schur, resid[fit[rows]] - b_y @ b_k)
                losses[t, k] = r @ r / len(rows)
            preds[t] = y_mean - b_y @ inv
            trace_fit = shrink.sum() - shrink @ out_weight
            dof[t] = len(fit) - 1 - trace_fit + np.einsum("df,df->", b_fit, b_fit)

        def refit(ids, t: int) -> tuple[np.ndarray, float]:
            cols = np.searchsorted(out, [self.row[i] for i in ids])
            return preds[t, cols], float(dof[t])

        return losses, errors, refit


def fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Minimize ||y - X w - b||^2 + lam ||w||^2 with an unpenalized intercept.

    Returns (weights, intercept).
    """
    _check_penalty(lam)
    w, b = _RidgeFit(X, y).weights(np.array([lam], dtype=np.float64))
    return w[:, 0].copy(), float(b[0])


def _sample_trial(spec: PredictorSpec, rng: np.random.Generator) -> dict[str, float]:
    low, high, scale = spec.ranges["lambda"]
    u = float(rng.random())
    if scale == "log":
        return {"lambda": float(np.exp(np.log(low) + u * (np.log(high) - np.log(low))))}
    return {"lambda": float(low + u * (high - low))}


def _fit_mask(n: int, held: np.ndarray) -> np.ndarray:
    """Mask of the rows of an n-row training set outside ``held``."""
    mask = np.ones(n, dtype=bool)
    mask[held] = False
    return mask


def _centred_gram(features: FeatureTable, ids) -> np.ndarray:
    """The Gram matrix of ``ids``' features, centred on their mean."""
    g = features.matrix(ids)
    g -= g.mean(axis=0)
    return g @ g.T


def _kernel_route(features: FeatureTable, n: int) -> bool:
    return features.dim >= n  # the kernel is the smaller Gram matrix


# An n x n eigh costs about EIGH_COST n^3 multiply-adds of the stacked
# products and solves that price trials: the weight that puts the count's
# switch at the measured crossover, 8 trials at 313 images and d = 768.
EIGH_COST = 4.5


def _factor_level(features: FeatureTable, folds, ids, n_trials: int):
    """The ``factors`` a run over the images ``ids`` searches with, by
    operation count: a ``_Kernel`` of no image when no fold takes the
    kernel route (each inner fit set and each training set factored), a
    ``_PlanFit`` when every fold does and factoring the kernel of all ids
    once is cheaper, else a ``_Kernel`` of all ids (each kernel fold's
    block factored once). Only sizes and ``n_trials`` count, so the
    choice, and the bytes, do not depend on the host or the thread count."""
    wide = [_kernel_route(features, len(fp.train)) for fp in folds]
    if not any(wide):
        return _Kernel(features, ())
    per_fold, per_run = 0.0, EIGH_COST * (len(ids) - 1) ** 3
    for fp in folds:
        n, d = len(fp.train), len(fp.test)
        inner = sum(len(part) ** 2 for part in fp.inner)
        # per trial, the inner blocks M_kk; for the per-run level also rows D
        # of M, the factor of M_DD with B, and B_k^T B_k
        per_fold += EIGH_COST * (n - 1) ** 3 + n_trials * inner * n
        per_run += n_trials * (d * len(ids) ** 2 + d * d * (d + n) + inner * (len(ids) + d))
    if all(wide) and per_run < per_fold:
        return _PlanFit(features, ids)
    return _Kernel(features, ids)


class _Kernel:
    """The Gram matrix of ``ids``' centred features, or none when ``ids``
    is empty: the factors of the fit-set and per-outer-fold levels."""

    __slots__ = ("features", "row", "gram")

    def __init__(self, features: FeatureTable, ids):
        self.features = features
        self.row = {image_id: k for k, image_id in enumerate(ids)}
        self.gram = _centred_gram(features, ids) if ids else None

    def block(self, rows, cols) -> np.ndarray:
        return self.gram[np.ix_([self.row[i] for i in rows], [self.row[i] for i in cols])]

    def search(self, train_ids, y: np.ndarray, held, lams: np.ndarray):
        """``_PlanFit.search`` from one factorization of the training set's
        block on the kernel route, else of the training set and of each
        inner fit set, whose failure is the error of every trial."""
        errors = [None] * len(lams)
        kernel = self.gram is not None and _kernel_route(self.features, len(y))
        if kernel:
            model = _RidgeFit(self.block(train_ids, train_ids), y, kernel=True)
            losses = model.held_out_losses(held, lams)
        else:
            X = self.features.matrix(train_ids)
            model = _RidgeFit(X, y)
            losses = np.zeros((len(lams), len(held)))
            for k, rows in enumerate(held):
                fit = _fit_mask(len(y), rows)
                try:
                    inner = _RidgeFit(X[fit], y[fit])
                except ComputationError as exc:
                    errors = [err or str(exc) for err in errors]
                    continue
                resid = inner.predict(X[rows], lams) - y[rows][:, None]
                losses[:, k] = np.einsum("ij,ij->j", resid, resid) / len(rows)

        def refit(ids, t: int) -> tuple[np.ndarray, float]:
            rows = self.block(train_ids, ids) if kernel else self.features.matrix(ids)
            return model.predict(rows, lams[t:t + 1])[:, 0], model.dof(lams[t])

        return losses, errors, refit


def random_search(
    spec: PredictorSpec,
    inner_folds: tuple[tuple[str, ...], ...],
    features: FeatureTable,
    targets: Mapping[str, float],
    *,
    n_trials: int = N_TRIALS,
    seed: int = 0,
    repetition: int = 0,
    fold: int = 0,
    factors=None,
) -> tuple[TrialResult, list[TrialResult], Callable]:
    """Sample ``n_trials`` configurations and return (winner, all trials,
    refit).

    The winner minimizes the mean MSE across the inner folds; ties go to
    the earliest trial. A trial that fails to fit is recorded with its
    error and skipped; if every trial fails a ComputationError carrying
    the per-trial diagnostics is raised. ``refit(ids, t) -> (raw
    predictions of ids, effective dof)`` is the fit on the whole training
    set at trial t's penalty. ``factors`` prices the trials and builds the
    refit (see ``_factor_level``); when None, the search factors its own
    training set: a ``_Kernel`` of its ids when d >= n, else of none.
    """
    if n_trials < 1:
        raise InputError(f"n_trials must be >= 1, got {n_trials}", field="trials")
    train_ids = sorted({i for part in inner_folds for i in part})
    position = {image_id: k for k, image_id in enumerate(train_ids)}
    y = np.array([targets[i] for i in train_ids], dtype=np.float64)
    held = [np.array(sorted(position[i] for i in part), dtype=np.intp) for part in inner_folds]
    if not all(0 < len(rows) < len(y) for rows in held):
        raise InputError("each inner fold must hold some but not all training images")
    draws = [
        _sample_trial(spec, substream(seed, "search", repetition, fold, t))
        for t in range(n_trials)
    ]
    lams = np.array([params["lambda"] for params in draws], dtype=np.float64)
    if factors is None:
        factors = _Kernel(features, train_ids if _kernel_route(features, len(y)) else ())
    losses, errors, refit = factors.search(train_ids, y, held, lams)

    trials: list[TrialResult] = []
    for t, params in enumerate(draws):
        loss, error = None, errors[t]
        if error is None:
            loss = float(np.mean(losses[t]))
            if not (np.isfinite(loss) and loss >= 0):
                loss, error = None, f"loss must be finite and >= 0, got {loss}"
        trials.append(TrialResult(trial=t, params=params, loss=loss, error=error))
    viable = [tr for tr in trials if tr.loss is not None]
    if not viable:
        details = "; ".join(f"trial {tr.trial}: {tr.error}" for tr in trials)
        raise ComputationError(f"all {n_trials} search trials failed: {details}")
    return min(viable, key=lambda tr: (tr.loss, tr.trial)), trials, refit


def _run_fold(
    fp: FoldPlan,
    features: FeatureTable,
    targets: ImageTargets,
    spec: PredictorSpec,
    n_trials: int,
    seed: int,
    factors,
) -> tuple[list[Prediction], list[TrialResult], Refit]:
    try:
        best, trials, fitted = random_search(
            spec, fp.inner, features, targets.mean_a, factors=factors,
            n_trials=n_trials, seed=seed, repetition=fp.repetition, fold=fp.fold,
        )
        raw, dof = fitted(fp.test, best.trial)
        preds = [
            make_prediction(fp.repetition, fp.fold, image_id, raw_val)
            for image_id, raw_val in zip(fp.test, raw)
        ]
        refit = Refit(fp.repetition, fp.fold, best.trial, best.params, dof)
        return preds, trials, refit
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
    winning trial flagged; the prediction set carries each fold's refit.
    ``seed`` defaults to the plan's own seed so a stored plan fully
    determines the run. Every planned training image needs a group-A
    target, every test image a group-B target, and every planned image a
    feature vector.
    """
    for group, means, part in (("A", targets.mean_a, "train"), ("B", targets.mean_b, "test")):
        lacking = sorted({i for fp in plan.folds for i in getattr(fp, part)} - means.keys())
        if lacking:
            raise InputError(f"no group-{group} target for {len(lacking)} planned {part} "
                             f"images (first: {lacking[:5]})", field="targets")
    assert_no_leakage(plan, targets)
    missing = sorted(set(plan.image_ids) - features.row.keys())
    if missing:
        raise InputError(f"no feature vector for {len(missing)} planned images "
                         f"(first: {missing[:5]})", field="features")
    if seed is None:
        seed = plan.seed
    tasks = sorted(plan.folds, key=lambda fp: (fp.repetition, fp.fold))
    factors = _factor_level(features, tasks, plan.image_ids, n_trials)

    def work(fp: FoldPlan):
        return _run_fold(fp, features, targets, spec, n_trials, seed, factors)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, tasks))
    else:
        results = [work(fp) for fp in tasks]

    entries: list[Prediction] = []
    log: list[dict] = []
    for fp, (preds, trials, refit) in zip(tasks, results):
        entries.extend(preds)
        log.extend({"repetition": fp.repetition, "fold": fp.fold, **vars(tr),
                    "selected": tr.trial == refit.trial} for tr in trials)
    refits = tuple(refit for _, _, refit in results)
    return PredictionSet(entries=tuple(entries), refits=refits), log


def search_summary(spec: PredictorSpec, log: list[dict], refits: tuple[Refit, ...]) -> dict:
    """What the search did, for ``search_summary.json``.

    Per searched parameter: quantiles of the winning values, and the share
    of winners in the lowest and in the highest tenth of the range on its
    sampling scale; many winners there suggest a mis-set search space
    (Bergstra & Bengio, JMLR 2012). Also the failed-trial counts and each
    winner's effective degrees of freedom.
    """
    parameters = {}
    for name, (low, high, scale) in sorted(spec.ranges.items()):
        values = np.array([r.params[name] for r in refits], dtype=np.float64)
        lowest = highest = None
        if high > low:
            to_scale = np.log if scale == "log" else np.asarray
            position = (to_scale(values) - to_scale(low)) / (to_scale(high) - to_scale(low))
            lowest = float(np.mean(position <= 0.1))
            highest = float(np.mean(position >= 0.9))
        parameters[name] = {
            "range": [low, high, scale],
            "winner_quantiles": {
                f"{q:g}": float(quantile(np.sort(values), q)) for q in SUMMARY_QUANTILES
            },
            "winner_share_lowest_tenth": lowest,
            "winner_share_highest_tenth": highest,
        }
    failed = [rec for rec in log if rec["error"] is not None]
    return {
        "kind": spec.kind,
        "folds": len(refits),
        "trials": len(log),
        "failed_trials": len(failed),
        "folds_with_failed_trials": len({(r["repetition"], r["fold"]) for r in failed}),
        "parameters": parameters,
        "winners": [dict(vars(r)) for r in refits],
    }
