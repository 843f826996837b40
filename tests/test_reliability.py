import numpy as np
import pytest

from spidereval.errors import ComputationError, InputError
from spidereval.ingest import RatingRecord, RatingsTable
from spidereval.reliability import (
    RatingMatrix,
    _subset_icc2k,
    bootstrap_icc,
    build_rating_matrix,
    icc2k,
    wilson_ci,
)
from spidereval.rng import substream


def _matrix(values, image_ids=None, rater_ids=None):
    values = np.asarray(values, dtype=np.float64)
    n, k = values.shape
    return RatingMatrix(
        values=values,
        image_ids=tuple(image_ids or (f"i{r}" for r in range(n))),
        rater_ids=tuple(rater_ids or (f"p{c}" for c in range(k))),
    )


def _synthetic(n_images, k_raters, var_img, var_rater, var_resid, seed):
    rng = np.random.default_rng(seed)
    img = rng.normal(0.0, np.sqrt(var_img), size=n_images)
    rat = rng.normal(0.0, np.sqrt(var_rater), size=k_raters)
    eps = rng.normal(0.0, np.sqrt(var_resid), size=(n_images, k_raters))
    return _matrix(50.0 + img[:, None] + rat[None, :] + eps)


def icc2k_reference(x):
    """Textbook two-way ANOVA route, written out independently."""
    n, k = x.shape
    grand = x.mean()
    ss_rows = k * ((x.mean(axis=1) - grand) ** 2).sum()
    ss_cols = n * ((x.mean(axis=0) - grand) ** 2).sum()
    ss_tot = ((x - grand) ** 2).sum()
    ss_err = ss_tot - ss_rows - ss_cols
    bms = ss_rows / (n - 1)
    jms = ss_cols / (k - 1)
    ems = ss_err / ((n - 1) * (k - 1))
    return (bms - ems) / (bms + (jms - ems) / n)


class TestIcc2k:
    def test_identical_raters_give_one(self):
        col = np.array([10.0, 30.0, 50.0, 70.0, 90.0])
        m = _matrix(np.tile(col[:, None], (1, 4)))
        assert icc2k(m) == pytest.approx(1.0)

    def test_pure_noise_is_near_zero(self):
        rng = np.random.default_rng(0)
        vals = []
        for trial in range(50):
            m = _matrix(rng.normal(50, 10, size=(300, 6)))
            vals.append(icc2k(m))
        assert abs(np.mean(vals)) < 0.05

    @pytest.mark.parametrize("k,analytic", [
        (5, 100.0 / (100.0 + 50.0 / 5)),
        (10, 100.0 / (100.0 + 50.0 / 10)),
        (20, 100.0 / (100.0 + 50.0 / 20)),
    ])
    def test_variance_component_oracle(self, k, analytic):
        m = _synthetic(300, k, var_img=100.0, var_rater=25.0,
                       var_resid=25.0, seed=k)
        assert icc2k(m) == pytest.approx(analytic, abs=0.02)

    def test_matches_anova_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(0, 100, size=(rng.integers(3, 30), rng.integers(2, 8)))
            assert icc2k(_matrix(x)) == pytest.approx(icc2k_reference(x), abs=1e-12)

    def test_shift_and_scale_invariant(self):
        m = _synthetic(40, 6, 100.0, 25.0, 25.0, seed=7)
        base = icc2k(m)
        shifted = _matrix(m.values * 3.5 - 12.0)
        assert icc2k(shifted) == pytest.approx(base, abs=1e-12)

    def test_rejects_unknown_missing_mode(self):
        m = _synthetic(10, 4, 100.0, 25.0, 25.0, seed=2)
        with pytest.raises(InputError):
            icc2k(m, missing="interpolate")

    def test_constant_matrix_degenerate(self):
        m = _matrix(np.full((5, 4), 42.0))
        with pytest.raises(ComputationError):
            icc2k(m)


class TestMissingCells:
    def test_impute_single_cell_close_to_complete(self):
        m = _synthetic(60, 8, 100.0, 25.0, 25.0, seed=3)
        full = icc2k(m)
        v = m.values.copy()
        v[5, 2] = np.nan
        assert icc2k(_matrix(v)) == pytest.approx(full, abs=0.01)

    def test_complete_case_equals_submatrix(self):
        m = _synthetic(12, 5, 100.0, 25.0, 25.0, seed=4)
        v = m.values.copy()
        v[3, 1] = np.nan
        dropped = np.delete(m.values, 3, axis=0)
        assert icc2k(_matrix(v), missing="complete") == pytest.approx(
            icc2k(_matrix(dropped)), abs=1e-12)

    def test_imputed_cell_reduces_residual_df(self):
        # with a (n-1)(k-1) residual df budget of 6, seven imputed cells
        # must fail while six could in principle succeed
        rng = np.random.default_rng(5)
        v = rng.uniform(0, 100, size=(4, 3))
        v[0, 0] = v[1, 1] = v[2, 2] = v[3, 0] = v[0, 1] = v[1, 2] = v[2, 0] = np.nan
        with pytest.raises(ComputationError, match="df"):
            icc2k(_matrix(v))

    def test_complete_case_needs_two_full_rows(self):
        v = np.array([[1.0, 2.0], [np.nan, 3.0], [4.0, np.nan]])
        with pytest.raises(ComputationError):
            icc2k(_matrix(v), missing="complete")


class TestBuildRatingMatrix:
    def test_sorted_axes(self):
        table = RatingsTable(tuple(RatingRecord(*r) for r in [
            ("p2", "i2", 1, 4.0),
            ("p1", "i1", 1, 1.0),
            ("p2", "i1", 1, 2.0),
            ("p1", "i2", 1, 3.0),
        ]))
        m = build_rating_matrix(table)
        assert m.image_ids == ("i1", "i2")
        assert m.rater_ids == ("p1", "p2")
        assert m.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_missing_cells_are_nan(self):
        table = RatingsTable(tuple(RatingRecord(*r) for r in [
            ("p1", "i1", 1, 1.0),
            ("p2", "i1", 1, 2.0),
            ("p1", "i2", 1, 3.0),
            ("p2", "i2", 1, 4.0),
            ("p1", "i3", 1, 5.0),
        ]))
        m = build_rating_matrix(table)
        assert np.isnan(m.values[2, 1])

    def test_duplicate_cell_mentions_first_trial_filter(self):
        table = RatingsTable(tuple(RatingRecord(*r) for r in [
            ("p1", "i1", 1, 1.0),
            ("p1", "i1", 2, 9.0),
            ("p2", "i1", 1, 2.0),
            ("p1", "i2", 1, 3.0),
            ("p2", "i2", 1, 4.0),
        ]))
        with pytest.raises(InputError, match="first-trial filter"):
            build_rating_matrix(table)


class TestBootstrapIcc:
    def test_deterministic(self):
        m = _synthetic(40, 12, 100.0, 25.0, 25.0, seed=6)
        a = bootstrap_icc(m, sizes=(4, 8), reps=20, seed=9)
        b = bootstrap_icc(m, sizes=(4, 8), reps=20, seed=9)
        assert a == b
        c = bootstrap_icc(m, sizes=(4, 8), reps=20, seed=10)
        assert a.values != c.values

    def test_full_subsample_has_zero_sd(self):
        m = _synthetic(30, 6, 100.0, 25.0, 25.0, seed=7)
        report = bootstrap_icc(m, sizes=(6,), reps=5, seed=0)
        # drawing all 6 raters without replacement always yields the
        # same matrix, hence identical ICC values
        assert report.sds[6] == pytest.approx(0.0, abs=1e-15)
        assert report.means[6] == pytest.approx(icc2k(m))

    def test_means_grow_with_rater_count(self):
        m = _synthetic(200, 24, 100.0, 25.0, 25.0, seed=8)
        report = bootstrap_icc(m, sizes=(3, 6, 12, 24), reps=40, seed=1)
        ordered = [report.means[s] for s in report.sizes]
        assert ordered == sorted(ordered)

    def test_sd_uses_sample_convention(self):
        m = _synthetic(30, 8, 100.0, 25.0, 25.0, seed=9)
        report = bootstrap_icc(m, sizes=(4,), reps=15, seed=2)
        arr = np.array(report.values[4])
        assert report.sds[4] == pytest.approx(arr.std(ddof=1))

    def test_size_above_rater_count_rejected(self):
        m = _synthetic(10, 4, 100.0, 25.0, 25.0, seed=10)
        with pytest.raises(InputError) as exc:
            bootstrap_icc(m, sizes=(8,), reps=3)
        assert exc.value.field == "sizes"

    @pytest.mark.parametrize("sizes", [(1, 3), (0,), (-2, 3)])
    def test_size_below_two_rejected(self, sizes):
        m = _synthetic(10, 4, 100.0, 25.0, 25.0, seed=10)
        with pytest.raises(InputError, match="sizes must be >= 2") as exc:
            bootstrap_icc(m, sizes=sizes, reps=3)
        assert exc.value.field == "sizes"

    def test_unknown_missing_mode_rejected_on_complete_data(self):
        m = _synthetic(10, 4, 100.0, 25.0, 25.0, seed=10)
        with pytest.raises(InputError) as exc:
            bootstrap_icc(m, sizes=(2,), reps=3, missing="drop")
        assert exc.value.field == "missing"

    @staticmethod
    def _draws(n_raters, size, reps, seed):
        """The column draws of bootstrap_icc, written out."""
        return [
            np.sort(substream(seed, "icc.bootstrap", size, rep)
                    .choice(n_raters, size=size, replace=False))
            for rep in range(reps)
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_sums_path_matches_icc2k(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(3, 80)), int(rng.integers(3, 40))
        m = _synthetic(n, k, rng.uniform(10, 200), rng.uniform(0, 50), rng.uniform(5, 50),
                       seed=seed)
        size = int(rng.integers(2, k + 1))
        cols = np.array([np.sort(rng.choice(k, size=size, replace=False)) for _ in range(7)])
        got = _subset_icc2k(m.values, {size: cols})[size]
        want = np.array([icc2k(m.subset_raters(c)) for c in cols])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_complete_matrix_uses_the_same_draws(self):
        m = _synthetic(40, 12, 100.0, 25.0, 25.0, seed=6)
        report = bootstrap_icc(m, sizes=(3, 8), reps=9, seed=4)
        for size in (3, 8):
            want = [icc2k(m.subset_raters(c)) for c in self._draws(12, size, 9, 4)]
            np.testing.assert_allclose(report.values[size], want, rtol=1e-12)

    @pytest.mark.parametrize("missing", ["impute", "complete"])
    def test_missing_cells_keep_the_per_subset_path(self, missing):
        m = _synthetic(40, 12, 100.0, 25.0, 25.0, seed=6)
        values = m.values.copy()
        values[np.random.default_rng(1).uniform(size=values.shape) < 0.05] = np.nan
        m = _matrix(values)
        report = bootstrap_icc(m, sizes=(4, 8), reps=9, seed=4, missing=missing)
        for size in (4, 8):
            want = tuple(icc2k(m.subset_raters(c), missing=missing)
                         for c in self._draws(12, size, 9, 4))
            assert report.values[size] == want

    def test_constant_matrix_degenerate(self):
        m = _matrix(np.full((5, 4), 3.0))
        with pytest.raises(ComputationError, match="degenerate"):
            bootstrap_icc(m, sizes=(2,), reps=3)


class TestWilsonCi:
    def test_reference_proportions(self):
        low, high = wilson_ci(419, 500)
        assert round(low, 3) == 0.803
        assert round(high, 3) == 0.868
        low, high = wilson_ci(65, 500)
        assert round(low, 3) == 0.103
        assert round(high, 3) == 0.162

    def test_zero_successes(self):
        low, high = wilson_ci(0, 10)
        assert low == 0.0
        assert 0.0 < high < 0.35

    def test_all_successes(self):
        low, high = wilson_ci(10, 10)
        assert high == pytest.approx(1.0)
        assert 0.65 < low < 1.0

    def test_interval_contains_point_estimate(self):
        for n in (5, 50, 500):
            for k in range(n + 1):
                low, high = wilson_ci(k, n)
                assert low <= k / n <= high

    def test_higher_level_widens(self):
        narrow = wilson_ci(30, 100, level=0.8)
        wide = wilson_ci(30, 100, level=0.99)
        assert wide[0] < narrow[0] < narrow[1] < wide[1]

    def test_validation(self):
        with pytest.raises(InputError):
            wilson_ci(5, 0)
        with pytest.raises(InputError):
            wilson_ci(11, 10)
        for level in (1.0, float("nan")):
            with pytest.raises(InputError) as exc:
                wilson_ci(5, 10, level=level)
            assert exc.value.field == "level"
