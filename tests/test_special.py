"""Tail-probability kernels checked against high-precision reference values.

Every frozen constant below was produced with mpmath at 50 decimal digits:
chi-square tails via the regularized upper incomplete gamma, Student-t tails
via the regularized incomplete beta, and normal CDF values via erfc. The
regularized lower incomplete gamma P(a, x) is checked as 1 - chi2_sf(2x, 2a)
and the normal CDF at x as normal_sf(-x).
"""

import mpmath as mp
import pytest

from spidereval.special import betainc_reg, chi2_sf, normal_sf, student_t_sf

mp.mp.dps = 50

CHI2_SF_CASES = [
    (7.2, 2, 0.027323722447292558),
    (14.856451, 2, 0.00059424105762925349),
    (24.348922, 2, 5.1605830018420458e-6),
    (10.69493, 3, 0.013495236214941827),
    (3.84, 1, 0.050043521248705103),
    (50.0, 30, 0.01240206071890058),
    (1.0, 5, 0.96256577324729637),
    (300.0, 281, 0.20838012563471319),
    (0.5, 1, 0.47950012218695346),
    (8.865665, 3, 0.031131303566802401),
]

T_SF_CASES = [
    (3.4641016151377544, 2, 0.037089950113724273),
    (2.0, 1, 0.14758361765043327),
    (2.0, 2, 0.091751709536136984),
    (2.0, 30, 0.027312522481491552),
    (2.0, 281, 0.023231280189318934),
    (0.5, 30, 0.31036150244256364),
    (1.0, 1, 0.25),
    (2.75, 281, 0.0031730766934398285),
    (12.0, 2, 0.0034364668385792301),
    (0.0, 5, 0.5),
]

NORMAL_CDF_CASES = [
    (-3.0, 0.0013498980316300945),
    (-1.0, 0.15865525393145705),
    (0.0, 0.5),
    (1.0, 0.84134474606854295),
    (1.959963984540054, 0.97499999999999999),
    (3.0, 0.99865010196836991),
    (-6.0, 9.8658764503769814e-10),
]

GAMMA_P_CASES = [
    (0.5, 0.5, 0.6826894921370859),
    (2.5, 3.0, 0.6937810815867216),
    (10.0, 9.0, 0.41259175566805859),
    (140.5, 150.0, 0.79161987436528681),
]

BETAINC_CASES = [
    (0.5, 0.5, 0.25, 0.33333333333333333),
    (2.0, 3.0, 0.4, 0.52480000000000004),
    (15.0, 0.5, 0.9, 0.077858670314667837),
    (140.5, 0.5, 0.98, 0.017288124561700563),
]


@pytest.mark.parametrize("x,df,expected", CHI2_SF_CASES)
def test_chi2_sf_frozen(x, df, expected):
    assert abs(chi2_sf(x, df) - expected) < 1e-10


@pytest.mark.parametrize("t,df,expected", T_SF_CASES)
def test_student_t_sf_frozen(t, df, expected):
    assert abs(student_t_sf(t, df) - expected) < 1e-10


@pytest.mark.parametrize("x,expected", NORMAL_CDF_CASES)
def test_normal_cdf_frozen(x, expected):
    assert abs(normal_sf(-x) - expected) < 1e-12


@pytest.mark.parametrize("a,x,expected", GAMMA_P_CASES)
def test_gamma_p_frozen(a, x, expected):
    assert abs(1.0 - chi2_sf(2 * x, 2 * a) - expected) < 1e-12


@pytest.mark.parametrize("a,b,x,expected", BETAINC_CASES)
def test_betainc_frozen(a, b, x, expected):
    assert abs(betainc_reg(a, b, x) - expected) < 1e-12


def test_chi2_sf_against_mpmath_sweep():
    for df in (1, 2, 3, 5, 12, 30, 281):
        for x in (0.01, 0.5, 1.0, df * 0.5, float(df), df * 1.5, df * 3.0):
            got = chi2_sf(x, df)
            want = float(mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, mp.inf,
                                     regularized=True))
            assert abs(got - want) < 1e-10, (x, df)


def test_chi2_sf_relative_error_against_mpmath():
    """Every integer df 1-300, x up to 2000, wherever the tail is >= 1e-300."""
    worst = 0.0
    for df in range(1, 301):
        for x in (1e-3, 0.7, df / 2, df, 2 * df, 3 * df + 50, 1300.0, 2000.0):
            want = mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, mp.inf, regularized=True)
            if x <= 2000 and want >= mp.mpf("1e-300"):
                worst = max(worst, float(abs(chi2_sf(x, df) - want) / want))
    assert worst < 1e-13


@pytest.mark.parametrize("df", [0, -2, 2.5, 0.5])
def test_chi2_sf_needs_a_positive_integer_df(df):
    with pytest.raises(ValueError):
        chi2_sf(3.0, df)


def test_student_t_sf_against_mpmath_sweep():
    for df in (1, 2, 4, 30, 148, 281):
        for t in (-4.0, -1.5, 0.0, 0.3, 1.0, 2.5, 6.0):
            got = student_t_sf(t, df)
            v = mp.mpf(df)
            tt = mp.mpf(t)
            half = mp.betainc(v / 2, mp.mpf(1) / 2, 0, v / (v + tt * tt),
                              regularized=True) / 2
            want = float(half if t >= 0 else 1 - half)
            assert abs(got - want) < 1e-10, (t, df)


def test_tail_function_edges():
    assert chi2_sf(0.0, 4) == pytest.approx(1.0)
    assert student_t_sf(-3.0, 7) + student_t_sf(3.0, 7) == pytest.approx(1.0)
    assert normal_sf(0.0) == 0.5
    # symmetric tails
    assert normal_sf(2.2) + normal_sf(-2.2) == pytest.approx(1.0, abs=1e-15)

