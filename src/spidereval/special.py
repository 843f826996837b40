"""Scalar special functions backing the statistical tests.

Self-contained double-precision implementations (no dependency beyond the
stdlib ``math`` module):

* chi-square upper tail at integer degrees of freedom, the only ones the
  Kruskal-Wallis tests pass: a finite Poisson sum for even df, ``math.erfc``
  plus a half-integer sum for odd df;
* regularized incomplete beta: continued fraction with the usual symmetry
  switch at ``x = (a + 1)/(a + b + 2)``, and the Student-t upper tail
  through it;
* the standard normal upper tail via ``math.erfc``.

The normal quantile comes from the standard library
(``statistics.NormalDist.inv_cdf``), so it is not repeated here.
"""

from __future__ import annotations

import math

__all__ = [
    "betainc_reg",
    "chi2_sf",
    "student_t_sf",
    "normal_sf",
]

_ITMAX = 500
_EPS = 3e-16
_FPMIN = 1e-300


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
        # one modified Lentz step for the even, then the odd coefficient
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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
    """Chi-square upper tail P(X >= x) at a positive integer df.

    With y = x / 2, m = df // 2 and h = 1/2 for odd df (0 for even df),
    the tail is the finite sum of e^-y y^(k+h) / Gamma(k+h+1) for k < m,
    plus erfc(sqrt(y)) for odd df. Each term is the previous one times
    y / (k+h), so no Gamma function is evaluated. The factor e^-y comes
    as 2^j equal factors exp(-y / 2^j) >= e^-512 (a power of two divides
    y exactly), one applied each time the running term passes 1, so a
    large x neither underflows nor overflows a term.
    """
    if df < 1 or not float(df).is_integer():
        raise ValueError(f"chi2_sf requires a positive integer df, got {df!r}")
    if x <= 0.0:
        return 1.0
    y = x / 2.0
    m, odd = divmod(int(df), 2)
    chunks = 1
    while y / chunks > 512.0:
        chunks *= 2
    step = math.exp(-y / chunks)
    term = (2.0 * math.sqrt(y / math.pi) if odd else 1.0) * step
    left, total = chunks - 1, 0.0
    for k in range(m):
        total += term
        term *= y / (k + 1 + 0.5 * odd)
        while term > 1.0 and left:
            term, total, left = term * step, total * step, left - 1
    return total * step**left + (math.erfc(math.sqrt(y)) if odd else 0.0)


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
