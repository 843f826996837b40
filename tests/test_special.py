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



# Bit patterns of betainc_reg and student_t_sf, compared with ``==``: any
# reordering of the continued fraction's floating-point steps shows here.
# The (a, b) pairs each take x near 0, one point on each side of the
# symmetry switch at (a + 1)/(a + b + 2), and x near 1.
BETAINC_BITS = [
    (0.5, 0.5, 1e-10, '0x1.ab3a71b025d54p-18'),
    (0.5, 0.5, 0.25, '0x1.5555555555550p-2'),
    (0.5, 0.5, 0.75, '0x1.5555555555558p-1'),
    (0.5, 0.5, 0.9999999999, '0x1.ffff2a62c693bp-1'),
    (1.0, 3.0, 1e-10, '0x1.49da7e358f39fp-32'),
    (1.0, 3.0, 0.16666666666666666, '0x1.af684bda12f70p-2'),
    (1.0, 3.0, 0.6666666666666667, '0x1.ed097b425ed0ap-1'),
    (1.0, 3.0, 0.9999999999, '0x1.0000000000000p+0'),
    (2.5, 0.5, 1e-10, '0x1.5041384b8af8ap-85'),
    (2.5, 0.5, 0.35, '0x1.d32b6deaf1fdap-6'),
    (2.5, 0.5, 0.85, '0x1.900f78889a32cp-2'),
    (2.5, 0.5, 0.9999999999, '0x1.fffdc65cbc351p-1'),
    (10.0, 20.0, 1e-10, '0x1.0b66258693efcp-308'),
    (10.0, 20.0, 0.171875, '0x1.35a282b26190bp-6'),
    (10.0, 20.0, 0.671875, '0x1.fff665a388b44p-1'),
    (10.0, 20.0, 0.9999999999, '0x1.0000000000000p+0'),
    (15.0, 0.5, 1e-10, '0x1.e43ce691ca85bp-502'),
    (15.0, 0.5, 0.45714285714285713, '0x1.988b14f99456cp-20'),
    (15.0, 0.5, 0.9571428571428571, '0x1.05bb8d955381ap-2'),
    (15.0, 0.5, 0.9999999999, '0x1.fffa51c5efd05p-1'),
    (100.0, 0.5, 1e-10, '0x0.0p+0'),
    (100.0, 0.5, 0.4926829268292683, '0x1.275bc8fc019ccp-106'),
    (100.0, 0.5, 0.9926829268292683, '0x1.cf15be33ae8a0p-3'),
    (100.0, 0.5, 0.9999999999, '0x1.fff13a84770d8p-1'),
    (0.1, 50.0, 1e-10, '0x1.3e0c9b8b6e2e6p-3'),
    (0.1, 50.0, 0.01055662188099808, '0x1.e384db7829864p-1'),
    (0.1, 50.0, 0.510556621880998, '0x1.0000000000000p+0'),
    (0.1, 50.0, 0.9999999999, '0x1.0000000000000p+0'),
    (700.0, 900.0, 1e-10, '0x0.0p+0'),
    (700.0, 900.0, 0.21878901373283396, '0x1.22c672aa69cbcp-279'),
    (700.0, 900.0, 0.7187890137328339, '0x1.0000000000000p+0'),
    (700.0, 900.0, 0.9999999999, '0x1.0000000000000p+0'),
]

T_SF_BITS = [
    (0.25, 1, '0x1.b0263d2508e32p-2'),
    (-3.0, 1, '0x1.cb90147677cc3p-1'),
    (50.0, 1, '0x1.a128d6375f832p-8'),
    (1.5, 2, '0x1.16ee392c3f955p-3'),
    (-0.7, 3, '0x1.77365888e943ep-1'),
    (2.2, 5, '0x1.43f7f68cead39p-5'),
    (4.0, 7, '0x1.54204c1ab3a53p-9'),
    (-12.5, 10, '0x1.fffffcaa0d174p-1'),
    (1.96, 30, '0x1.e621d9a50a85ap-6'),
    (0.1, 30, '0x1.d78e9263e1b9bp-2'),
    (3.3, 100, '0x1.5f6f7403463afp-11'),
    (-2.0, 148, '0x1.f3e22e7123ef7p-1'),
    (2.75, 281, '0x1.9fe6c940862b3p-9'),
    (6.0, 281, '0x1.a0b1e95d21c6cp-29'),
    (1.0, 500, '0x1.456bd83c2c412p-3'),
    (-1.3, 1000, '0x1.ce5c88f3c75d9p-1'),
    (0.01, 1000, '0x1.fbea79c18dcfep-2'),
    (8.0, 2000, '0x1.2cafebf3f1754p-50'),
    (-50.0, 2000, '0x1.0000000000000p+0'),
    (2.5, 2000, '0x1.998ff992beef9p-8'),
]


@pytest.mark.parametrize("a,b,x,bits", BETAINC_BITS)
def test_betainc_bits_frozen(a, b, x, bits):
    assert betainc_reg(a, b, x) == float.fromhex(bits)


@pytest.mark.parametrize("t,df,bits", T_SF_BITS)
def test_student_t_sf_bits_frozen(t, df, bits):
    assert student_t_sf(t, df) == float.fromhex(bits)
