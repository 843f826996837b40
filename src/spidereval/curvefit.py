"""Three-parameter learning-curve fits by variable projection.

Two model forms:

* ``decay``: f(n) = a * exp(-b * n) + c  (error metrics falling with n)
* ``rise``:  f(n) = a * (1 - exp(-b * n)) + c  (scores rising with n)

For a fixed rate b both forms are linear least squares on the columns
[exp(-b n), 1]: decay gives a = alpha, c = gamma; rise gives a = -alpha,
c = alpha + gamma. So the residual sum of squares is a function of b alone
(variable projection, Golub & Pereyra 1973). :func:`fit_curve` evaluates
that profile at 61 rates b = t / (max n - min n), t log-spaced from 1e-3 to
1e3, and refines the best grid rate by golden-section search on log b
between its two neighbours, one profile evaluation per step, to a bracket
narrower than 1e-9. A best rate at either end of the grid is an ``edge``
fit with no interior optimum: the points lie on a line in n (b -> 0) or
on a constant apart from the smallest n (b -> infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import FORMS
from .errors import ComputationError, InputError

__all__ = ["FORMS", "FitResult", "model_value", "model_jacobian", "fit_curve"]

_GRID = np.log(np.geomspace(1e-3, 1e3, 61))  # log of b * (max n - min n)
_LOG_TOL = 1e-9
_SHRINK = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio


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
    """``stop_reason`` is ``interior`` when the best grid rate was refined
    between its neighbours (``converged``), ``edge`` when it ended the grid;
    ``iterations`` counts profile evaluations. ``asymptote`` is f at
    n -> infinity, the profile's intercept: c for ``decay``, a + c for
    ``rise``, whose c = alpha + gamma can lose its last digits to
    cancellation."""

    form: str
    params: tuple[float, float, float]
    rss: float
    iterations: int
    converged: bool
    stop_reason: str
    asymptote: float


def _as_points(points) -> tuple[np.ndarray, np.ndarray]:
    """(n, y) sorted by n, then y, so point order cannot change a bit."""
    if len(points) < 4:
        raise InputError(f"need at least 4 points for a 3-parameter fit, got {len(points)}",
                         field="points")
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InputError("points must be an (m, 2) array of (n, y) pairs", field="points")
    if not np.isfinite(pts).all():
        raise InputError("points must be finite", field="points")
    if (pts[:, 0] <= 0).any() or np.unique(pts[:, 0]).shape[0] < 3:
        raise InputError("points need n > 0 and at least 3 distinct n", field="points")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    return pts[:, 0], pts[:, 1]


def fit_curve(form: str, points) -> FitResult:
    """Least-squares fit of ``form`` to (n, y) points by variable projection.

    Huge finite y overflow its sums of squares without a numpy warning; an
    amplitude that overflows is refused."""
    if form not in FORMS:
        raise InputError(f"unknown curve form {form!r}", field="form")
    n, y = _as_points(points)
    with np.errstate(over="ignore", invalid="ignore"):
        return _fit_points(form, n, y)


def _fit_points(form: str, n: np.ndarray, y: np.ndarray) -> FitResult:
    span, yc = float(n[-1] - n[0]), y - y.mean()

    def profile(log_t: float) -> tuple[float, float, float]:
        """RSS, slope and intercept of y on exp(-b * (n - min n)) at b = e^log_t / span;
        the column lies in [exp(-b * span), 1], so it underflows only past the grid."""
        e = np.exp(-math.exp(log_t) / span * (n - n[0]))
        ec = e - e.mean()
        slope = float(ec @ yc) / float(ec @ ec)
        r = yc - slope * ec
        return float(r @ r), slope, float(y.mean() - slope * e.mean())

    rss = [profile(t)[0] for t in _GRID]
    k = _GRID.size - 1 - int(np.argmin(rss[::-1]))  # last of equal minima: a flat tail is an edge
    interior = 0 < k < _GRID.size - 1
    lo, hi = (_GRID[k - 1], _GRID[k + 1]) if interior else (_GRID[k], _GRID[k])
    iterations = _GRID.size + 1  # the grid, then the fit at the chosen rate
    if interior:  # golden-section search on log b; each step keeps one inner point
        x1, x2 = hi - _SHRINK * (hi - lo), lo + _SHRINK * (hi - lo)
        f1, f2 = profile(x1)[0], profile(x2)[0]
        iterations += 2
        while hi - lo > _LOG_TOL:
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _SHRINK * (hi - lo)
                f1 = profile(x1)[0]
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _SHRINK * (hi - lo)
                f2 = profile(x2)[0]
            iterations += 1
    _, slope, intercept = profile((lo + hi) / 2.0)
    b = math.exp((lo + hi) / 2.0) / span
    amplitude = float(slope * np.exp(b * n[0]))
    if not math.isfinite(amplitude):
        raise ComputationError(f"curve fit amplitude overflows at rate b = {b:.6g}")
    a, c = (amplitude, intercept) if form == "decay" else (-amplitude, intercept + amplitude)
    resid = y - model_value(form, np.array([a, b, c]), n)
    return FitResult(form, (a, b, c), float(resid @ resid), iterations, interior,
                     "interior" if interior else "edge", intercept)
