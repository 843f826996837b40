"""Scalar special functions backing the statistical tests.

Self-contained double-precision implementations (no dependency beyond the
stdlib ``math`` module):

* regularized upper incomplete gamma ``Q``: ``1 - P`` from the power series
  for ``x < a + 1``, modified Lentz continued fraction otherwise;
* regularized incomplete beta: continued fraction with the usual symmetry
  switch at ``x = (a + 1)/(a + b + 2)``;
* Student-t and chi-square upper tails expressed through the two above;
* the standard normal upper tail via ``math.erfc``.

The normal quantile comes from the standard library
(``statistics.NormalDist.inv_cdf``), so it is not repeated here.
"""

from __future__ import annotations

import math

__all__ = [
    "gamma_q",
    "betainc_reg",
    "chi2_sf",
    "student_t_sf",
    "normal_sf",
]

_ITMAX = 500
_EPS = 3e-16
_FPMIN = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if b != 0.0 else 1.0 / _FPMIN
    h = d
    for i in range(1, _ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise ValueError("gamma_q requires a > 0")
    if x < 0.0:
        raise ValueError("gamma_q requires x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def _betacf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("betainc_reg requires a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def chi2_sf(x: float, df: float) -> float:
    """Chi-square upper tail P(X >= x) with df degrees of freedom."""
    if df <= 0.0:
        raise ValueError("chi2_sf requires df > 0")
    if x <= 0.0:
        return 1.0
    return gamma_q(df / 2.0, x / 2.0)


def student_t_sf(t: float, df: float) -> float:
    """Student-t upper tail P(T >= t) with df degrees of freedom."""
    if df <= 0.0:
        raise ValueError("student_t_sf requires df > 0")
    x = df / (df + t * t)
    half = 0.5 * betainc_reg(df / 2.0, 0.5, x)
    return half if t >= 0.0 else 1.0 - half


def normal_sf(z: float) -> float:
    """Standard normal upper tail P(Z >= z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
