"""Three-parameter learning-curve fits by Levenberg-Marquardt.

Two model forms:

* ``decay``: f(n) = a * exp(-b * n) + c  (error metrics falling with n)
* ``rise``:  f(n) = a * (1 - exp(-b * n)) + c  (scores rising with n)

The solver minimizes the residual sum of squares with an analytic
Jacobian and multiplicative damping. Iteration stops when the relative
RSS change drops below 1e-12, the gradient infinity-norm drops below
1e-10, or after 500 iterations. :func:`fit_curve` always fits the
heuristic start plus four rescaled rates b and keeps the lowest-RSS
fit, which protects against the constant-plateau local minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import FORMS
from .errors import ComputationError, InputError

__all__ = [
    "FORMS",
    "FitResult",
    "model_value",
    "model_jacobian",
    "default_init",
    "levenberg_marquardt",
    "fit_curve",
]

MAX_ITERATIONS = 500
RSS_RTOL = 1e-12
GRAD_ATOL = 1e-10
_DAMP_INIT = 1e-3
_DAMP_FACTOR = 10.0
_DAMP_MAX = 1e12


def model_value(form: str, params: np.ndarray, n: np.ndarray) -> np.ndarray:
    a, b, c = params
    e = np.exp(-b * n)
    if form == "decay":
        return a * e + c
    if form == "rise":
        return a * (1.0 - e) + c
    raise InputError(f"unknown curve form {form!r}", field="form")


def model_jacobian(form: str, params: np.ndarray, n: np.ndarray) -> np.ndarray:
    """d f / d (a, b, c), one row per data point."""
    a, b, _ = params
    e = np.exp(-b * n)
    if form == "decay":
        return np.column_stack([e, -a * n * e, np.ones_like(n)])
    if form == "rise":
        return np.column_stack([1.0 - e, a * n * e, np.ones_like(n)])
    raise InputError(f"unknown curve form {form!r}", field="form")


@dataclass(frozen=True)
class FitResult:
    form: str
    params: tuple[float, float, float]
    rss: float
    iterations: int
    converged: bool
    stop_reason: str


def _as_points(points) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError("points must be an (m, 2) array of (n, y) pairs")
    if not np.isfinite(pts).all():
        raise InputError("points must be finite")
    return pts[:, 0], pts[:, 1]


def default_init(form: str, points) -> tuple[float, float, float]:
    """Heuristic start: amplitude from the endpoint spread, offset from
    the relevant endpoint, rate 1/median(n)."""
    n, y = _as_points(points)
    if np.unique(n).shape[0] < 2:
        raise InputError("default_init needs at least 2 distinct n values")
    lo, hi = int(np.argmin(n)), int(np.argmax(n))
    b = 1.0 / float(np.median(n))
    if form == "decay":
        return float(y[lo] - y[hi]), b, float(y[hi])
    if form == "rise":
        return float(y[hi] - y[lo]), b, float(y[lo])
    raise InputError(f"unknown curve form {form!r}", field="form")


def levenberg_marquardt(
    form: str,
    points,
    init: tuple[float, float, float],
    *,
    max_iterations: int = MAX_ITERATIONS,
) -> FitResult:
    """Damped least squares on Sum (y - f(n))^2 from the given start."""
    n, y = _as_points(points)
    if n.shape[0] < 4:
        raise InputError(f"need at least 4 points for a 3-parameter fit, got {n.shape[0]}")
    params = np.asarray(init, dtype=np.float64)
    if params.shape != (3,) or not np.isfinite(params).all():
        raise InputError("init must be 3 finite values (a, b, c)")

    def rss_at(p: np.ndarray) -> tuple[np.ndarray, float]:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            f = model_value(form, p, n)
            if not np.isfinite(f).all():
                raise ComputationError("model value non-finite over the data range")
            r = y - f
            total = float(r @ r)
        if not np.isfinite(total):
            raise ComputationError("residual sum of squares overflowed")
        return r, total

    resid, rss = rss_at(params)
    damp = _DAMP_INIT
    stop_reason = "max_iterations"
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            jac = model_jacobian(form, params, n)
        if not np.isfinite(jac).all():
            if iterations == 1:
                raise ComputationError("Jacobian non-finite over the data range")
            # a previously accepted step reached the edge of the numeric
            # range; keep the current iterate instead of discarding the fit
            stop_reason = "stalled"
            break
        grad = jac.T @ resid
        if float(np.max(np.abs(grad))) < GRAD_ATOL:
            stop_reason = "gradient"
            break
        jtj = jac.T @ jac
        scale = np.diag(jtj).copy()
        scale[scale <= 0] = 1.0
        accepted = False
        while damp <= _DAMP_MAX:
            try:
                step = np.linalg.solve(jtj + damp * np.diag(scale), grad)
            except np.linalg.LinAlgError:
                damp *= _DAMP_FACTOR
                continue
            trial = params + step
            try:
                trial_resid, trial_rss = rss_at(trial)
            except ComputationError:
                damp *= _DAMP_FACTOR
                continue
            if trial_rss < rss:
                change = rss - trial_rss
                params, resid = trial, trial_resid
                rel = change / max(rss, np.finfo(np.float64).tiny)
                rss = trial_rss
                damp = max(damp / _DAMP_FACTOR, 1e-15)
                accepted = True
                if rel < RSS_RTOL:
                    stop_reason = "rss_change"
                break
            damp *= _DAMP_FACTOR
        if not accepted:
            # No damping level improves the fit: treat as converged to a
            # local minimum unless the very first step already failed.
            stop_reason = "rss_change" if iterations > 1 else "stalled"
            break
        if stop_reason == "rss_change":
            break
    converged = stop_reason in ("gradient", "rss_change")
    return FitResult(
        form=form,
        params=(float(params[0]), float(params[1]), float(params[2])),
        rss=rss,
        iterations=iterations,
        converged=converged,
        stop_reason=stop_reason,
    )


def fit_curve(
    form: str,
    points,
    init: tuple[float, float, float] | None = None,
) -> FitResult:
    """Fit from the start plus four rescaled rates b.

    The rescaled starts multiply the starting rate by 0.01, 0.1, 10 and
    100; the fit with the lowest RSS wins, the earliest of equal ones.
    Trying them unconditionally guards against the first start settling
    on the constant plateau (b driven so large the model degenerates to
    y = c).
    """
    start = default_init(form, points) if init is None else init
    a0, b0, c0 = start
    candidates: list[FitResult] = []
    for factor in (1.0, 0.01, 0.1, 10.0, 100.0):
        try:
            candidates.append(levenberg_marquardt(form, points, (a0, b0 * factor, c0)))
        except ComputationError:
            pass
    if not candidates:
        raise ComputationError(f"curve fit failed for form {form!r} at every start")
    # lowest RSS wins outright; a stationary fit with a clearly worse RSS
    # (the constant plateau, typically) must not beat a better minimum
    # that merely ran out of iterations. The winner carries its own
    # convergence flag for callers that insist on stationarity.
    return min(candidates, key=lambda r: r.rss)
