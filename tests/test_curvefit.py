import warnings

import numpy as np
import pytest
from scipy import optimize

from spidereval.curvefit import fit_curve, model_jacobian, model_value
from spidereval.errors import ComputationError, InputError

SIZES = np.array([50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 313.0])


def _curve(form, a, b, c, n):
    if form == "decay":
        return a * np.exp(-b * n) + c
    return a * (1.0 - np.exp(-b * n)) + c


def _points(form, a, b, c, n=SIZES, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    y = _curve(form, a, b, c, n) + noise * rng.standard_normal(n.shape[0])
    return np.column_stack([n, y])


class TestModelFunctions:
    @pytest.mark.parametrize("form", ["decay", "rise"])
    def test_jacobian_matches_central_differences(self, form):
        # b is kept small enough that exp(-b*n) stays well above the
        # float64 noise floor, otherwise the difference quotient itself
        # is meaningless
        rng = np.random.default_rng(2)
        n = np.linspace(10, 320, 9)
        for _ in range(25):
            params = np.array([
                rng.uniform(-20, 20),
                rng.uniform(0.001, 0.02),
                rng.uniform(-10, 30),
            ])
            J = model_jacobian(form, params, n)
            for j in range(3):
                h = 1e-6 * max(1.0, abs(params[j]))
                up = params.copy(); up[j] += h
                dn = params.copy(); dn[j] -= h
                fd = (model_value(form, up, n) - model_value(form, dn, n)) / (2 * h)
                denom = np.maximum(np.abs(fd), 1e-8)
                rel = np.abs(J[:, j] - fd) / denom
                assert rel.max() < 1e-4, (form, j, params)

    def test_forms_are_mirrored(self):
        params = np.array([5.0, 0.02, 1.0])
        n = np.linspace(1, 100, 7)
        decay = model_value("decay", params, n)
        rise = model_value("rise", params, n)
        # a*e + c and a*(1-e) + c must sum to a + 2c
        assert np.allclose(decay + rise, params[0] + 2 * params[2])

    def test_unknown_form(self):
        with pytest.raises(InputError):
            model_value("sigmoid", np.array([1.0, 1.0, 1.0]), np.array([1.0]))


def _scipy_rss(form, pts, p0):
    """RSS of scipy's Levenberg-Marquardt fit from ``p0`` (inf if it fails)."""
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            popt, _ = optimize.curve_fit(lambda n, a, b, c: _curve(form, a, b, c, n),
                                         pts[:, 0], pts[:, 1], p0=p0, maxfev=20000)
    except RuntimeError:
        return np.inf
    return float(((pts[:, 1] - _curve(form, *popt, pts[:, 0])) ** 2).sum())


class TestLevenbergMarquardt:
    """fit_curve, the variable-projection fit that replaced the
    Levenberg-Marquardt solver this class is named after."""

    @pytest.mark.parametrize("form,a,b,c", [
        ("decay", 12.0, 0.02, 10.5),
        ("rise", 0.6, 0.015, -0.1),
    ])
    def test_noiseless_recovery(self, form, a, b, c):
        pts = _points(form, a, b, c)
        res = fit_curve(form, pts)
        assert res.converged
        assert res.params[0] == pytest.approx(a, abs=1e-6)
        assert res.params[1] == pytest.approx(b, abs=1e-8)
        assert res.params[2] == pytest.approx(c, abs=1e-6)
        assert res.rss < 1e-12

    @pytest.mark.parametrize("form,a,b,c", [
        ("decay", 12.0, 0.02, 10.5),
        ("rise", 0.6, 0.015, -0.1),
    ])
    def test_asymptote_is_the_value_at_infinity(self, form, a, b, c):
        res = fit_curve(form, _points(form, a, b, c, noise=0.01, seed=3))
        fit_a, _, fit_c = res.params
        if form == "decay":
            assert res.asymptote == fit_c
        else:
            assert res.asymptote == pytest.approx(fit_a + fit_c, rel=1e-12)
        assert res.asymptote == pytest.approx(a + c if form == "rise" else c, abs=0.1)

    def test_matches_scipy_curve_fit(self):
        """Every interior optimum on 200 noisy random curves per form is at
        least as good as scipy started from the true parameters or from it."""
        rng = np.random.default_rng(4)
        interior = 0
        for form in ("decay", "rise"):
            for trial in range(200):
                true = (rng.uniform(3, 15), rng.uniform(0.005, 0.05), rng.uniform(5, 20))
                pts = _points(form, *true, noise=0.3, seed=trial)
                res = fit_curve(form, pts)
                if not res.converged:
                    continue
                interior += 1
                scipy_rss = min(_scipy_rss(form, pts, p0) for p0 in (true, res.params))
                assert res.rss <= scipy_rss * (1 + 1e-9), (form, trial)
        assert interior >= 300

    def test_reported_rss_is_true_rss(self):
        pts = _points("decay", 9.0, 0.03, 12.0, noise=0.5, seed=9)
        res = fit_curve("decay", pts)
        recomputed = float(((pts[:, 1]
                             - _curve("decay", *res.params, pts[:, 0])) ** 2).sum())
        assert res.rss == pytest.approx(recomputed, rel=1e-12)

    def test_point_order_irrelevant_in_predictions(self):
        # the points are sorted before any arithmetic, so every bit agrees
        pts = _points("rise", 0.5, 0.02, 0.1, noise=0.01, seed=5)
        res = fit_curve("rise", pts)
        assert fit_curve("rise", pts[::-1]) == res
        assert fit_curve("rise", np.random.default_rng(1).permutation(pts)) == res

    def test_stop_reason_recorded(self):
        pts = _points("decay", 12.0, 0.02, 10.5)
        res = fit_curve("decay", pts)
        assert res.stop_reason == "interior"
        # 61 grid rates, the final fit and the first two inner points, then
        # one per golden-section step: 42 shrink the bracket of two grid
        # steps, 2 ln(1e6) / 60, below 1e-9
        assert res.iterations == 64 + 42

    @pytest.mark.parametrize("form,y", [
        ("decay", SIZES / 100.0),  # a line in n: the optimum is b -> 0
        ("rise", 1.0 + SIZES / 100.0),
        ("decay", [1.0, 0, 0, 0, 0, 0, 0]),  # flat after the first point: b -> infinity
        ("rise", [0.0, 1, 1, 1, 1, 1, 1]),
    ])
    def test_no_interior_optimum_is_an_edge_fit(self, form, y):
        res = fit_curve(form, np.column_stack([SIZES, y]))
        assert (res.converged, res.stop_reason, res.iterations) == (False, "edge", 62)

    def test_amplitude_beyond_float64_is_a_computation_error(self):
        # b = 1 at n >= 1000 puts a = exp(1000) past the largest double
        n = np.arange(1000.0, 1005.0)
        with pytest.raises(ComputationError):
            fit_curve("decay", np.column_stack([n, np.exp(1000.0 - n) + 2.0]))

    def test_flat_data(self):
        pts = np.column_stack([SIZES, np.full(7, 4.25)])
        res = fit_curve("decay", pts)
        assert res.rss < 1e-12
        fitted = _curve("decay", *res.params, SIZES)
        assert np.allclose(fitted, 4.25, atol=1e-6)

    def test_far_off_rate_recovered_by_multistart(self):
        # the rate is ~200x the reciprocal median n
        pts = _points("decay", 30.0, 1.5, 5.0, n=np.linspace(0.5, 8, 12))
        res = fit_curve("decay", pts)
        assert res.converged
        assert res.params[1] == pytest.approx(1.5, rel=1e-4)

    def test_needs_four_points(self):
        pts = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
        with pytest.raises(InputError) as info:
            fit_curve("decay", pts)
        assert info.value.field == "points"

    @pytest.mark.parametrize("ns", [
        [50, 50, 100, 100],  # two distinct n
        [50, 50, 50, 100, 100],
        [0, 50, 100, 150],
        [-50, 50, 100, 150],
    ])
    def test_points_that_cannot_identify_three_parameters(self, ns):
        pts = np.column_stack([ns, np.arange(len(ns), dtype=float)])
        with pytest.raises(InputError) as info:
            fit_curve("decay", pts)
        assert info.value.field == "points"

    def test_non_finite_points_rejected(self):
        pts = np.array([[1.0, 2.0], [2.0, np.nan], [3.0, 4.0], [4.0, 5.0]])
        with pytest.raises(InputError):
            fit_curve("decay", pts)


PAPER_EMPIRICAL = {
    # size -> (resnet, convnextv2, swin) per metric
    "r2": {
        50: (0.132, 0.238, 0.205), 75: (0.307, 0.380, 0.397),
        100: (0.359, 0.414, 0.470), 150: (0.438, 0.479, 0.495),
        200: (0.456, 0.508, 0.535), 250: (0.492, 0.557, 0.549),
        313: (0.503, 0.563, 0.565),
    },
    "mae": {
        50: (13.533, 12.844, 13.167), 75: (12.923, 12.395, 12.241),
        100: (12.101, 11.754, 11.431), 150: (11.562, 11.026, 10.754),
        200: (11.360, 10.598, 10.595), 250: (11.336, 10.415, 10.584),
        313: (11.025, 10.426, 10.327),
    },
    "rmse": {
        50: (17.804, 16.722, 17.269), 75: (16.394, 15.502, 15.764),
        100: (15.544, 14.905, 14.650), 150: (14.505, 13.966, 14.029),
        200: (14.289, 13.590, 13.600), 250: (14.208, 13.278, 13.438),
        313: (14.067, 13.191, 13.163),
    },
}

# (a, b, c) of the Levenberg-Marquardt solver that fit_curve replaced, on the
# nine published curves; that solver stopped on a relative RSS change of 1e-12.
LEVENBERG_MARQUARDT_FITS = {
    ("r2", 0): (0.9969775810156345, 0.021014761889893326, -0.5072895728762374),
    ("r2", 1): (0.6590040321135325, 0.015329631418172982, -0.10004240256760671),
    ("r2", 2): (1.4762196821566982, 0.029703145194754203, -0.9323389742128667),
    ("mae", 0): (5.457561076794772, 0.015735160202560813, 11.09295922681458),
    ("mae", 1): (4.865032431191876, 0.011436123476951726, 10.187737532637202),
    ("mae", 2): (7.190703376187645, 0.018867140403469564, 10.398497252466242),
    ("rmse", 0): (9.861420902292217, 0.019329705096804078, 14.066763627836686),
    ("rmse", 1): (7.311064984009603, 0.014389834709538616, 13.119716569836957),
    ("rmse", 2): (10.286172215888223, 0.01915889652143465, 13.298936179820455),
}


def _published_points(metric, model):
    sizes = sorted(PAPER_EMPIRICAL[metric])
    return np.column_stack([sizes, [PAPER_EMPIRICAL[metric][s][model] for s in sizes]])


@pytest.mark.parametrize("metric,model", sorted(LEVENBERG_MARQUARDT_FITS))
def test_published_curves_keep_the_levenberg_marquardt_parameters(metric, model):
    res = fit_curve("rise" if metric == "r2" else "decay", _published_points(metric, model))
    assert res.converged
    assert res.params == pytest.approx(LEVENBERG_MARQUARDT_FITS[metric, model], rel=1e-6)


def test_representative_published_refit():
    """One decay and one rise refit against published parameter triples;
    the acceptance suite covers all nine."""
    res = fit_curve("decay", _published_points("mae", 0))
    assert res.converged
    for got, want, tol in zip(res.params, (5.461, 0.016, 11.093), (0.05, 0.05, 0.05)):
        assert abs(got - want) <= tol * abs(want)

    res = fit_curve("rise", _published_points("r2", 0))
    assert res.converged
    for got, want, tol in zip(res.params, (0.998, 0.021, -0.508), (0.1, 0.1, 0.1)):
        assert abs(got - want) <= tol * abs(want)
