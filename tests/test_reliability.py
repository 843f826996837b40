import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


# -- per-subset oracle ----------------------------------------------------------
# The direct route the sums engine replaced: take the subset's columns,
# drop the rows left with no observation, fill or drop the missing cells,
# and run the ANOVA on the complete matrix.


def subset_raters(m, columns):
    """Column subset; rows left with no observations are dropped."""
    v = m.values[:, columns]
    keep = (~np.isnan(v)).sum(axis=1) > 0
    if keep.sum() < 2:
        raise ComputationError(f"a subsample of {len(columns)} raters leaves fewer than 2 "
                               "images with a rating")
    return RatingMatrix(
        values=v[keep].copy(),
        image_ids=tuple(im for im, k in zip(m.image_ids, keep) if k),
        rater_ids=tuple(m.rater_ids[j] for j in columns),
    )


def complete_matrix(m, missing):
    """Return a complete matrix and the count of imputed cells."""
    v = m.values
    mask = np.isnan(v)
    n_missing = int(mask.sum())
    if n_missing == 0:
        return v, 0
    if missing == "complete":
        keep = ~mask.any(axis=1)
        if keep.sum() < 2:
            raise ComputationError(
                "complete-case ICC needs at least 2 fully observed images"
            )
        return v[keep], 0
    grand = float(np.nanmean(v))
    row_means = np.nanmean(v, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a rater with no rating
        col_means = np.nanmean(v, axis=0)
    if np.isnan(col_means).any():
        empty = [m.rater_ids[j] for j in np.nonzero(np.isnan(col_means))[0]]
        raise ComputationError(f"raters with no observed ratings: {empty[:5]}")
    filled = v.copy()
    rows, cols = np.nonzero(mask)
    filled[rows, cols] = row_means[rows] + col_means[cols] - grand
    return filled, n_missing


def oracle_icc2k(m, missing="impute"):
    """ICC(2,k) by a direct two-way ANOVA of the completed matrix."""
    x, n_imputed = complete_matrix(m, missing)
    n, k = x.shape
    if n < 2 or k < 2:
        raise ComputationError("ICC needs at least 2 images and 2 raters")
    grand = x.mean()
    row_means = x.mean(axis=1)
    col_means = x.mean(axis=0)
    bss = k * float(((row_means - grand) ** 2).sum())
    jss = n * float(((col_means - grand) ** 2).sum())
    resid = x - row_means[:, None] - col_means[None, :] + grand
    ess = float((resid ** 2).sum())
    df_e = (n - 1) * (k - 1) - n_imputed
    if df_e <= 0:
        raise ComputationError(
            f"degenerate ANOVA: residual df {(n - 1) * (k - 1)} - {n_imputed} imputed <= 0"
        )
    bms = bss / (n - 1)
    jms = jss / (k - 1)
    ems = ess / df_e
    denom = bms + (jms - ems) / n
    if denom == 0.0:
        raise ComputationError("degenerate ANOVA: zero denominator")
    return float((bms - ems) / denom)


def oracle_subsets(m, draws, missing):
    """The engine's contract, one subset at a time in draw order."""
    return {size: np.array([oracle_icc2k(subset_raters(m, c), missing) for c in cols])
            for size, cols in draws.items()}


def complete_only_sums(x, draws):
    """The sums route for complete matrices only, as it was before the
    engine took missing cells; the engine must reproduce its bytes."""
    n, n_raters = x.shape
    col_means = x.mean(axis=0)
    xc = x - col_means
    col_ss = (xc * xc).sum(axis=0)
    dev = col_means - col_means.mean()
    out = {}
    for size, cols in draws.items():
        reps = cols.shape[0]
        S = np.zeros((n_raters, reps), dtype=np.float64)
        S[cols, np.arange(reps)[:, None]] = 1.0
        rows = xc @ S
        bss = (rows * rows).sum(axis=0) / size
        ess = col_ss @ S - bss
        dev_sum = dev @ S
        jss = n * ((dev * dev) @ S - dev_sum * dev_sum / size)
        bms = bss / (n - 1)
        jms = jss / (size - 1)
        ems = ess / ((n - 1) * (size - 1))
        out[size] = (bms - ems) / (bms + (jms - ems) / n)
    return out


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
        for missing in ("impute", "complete"):
            got = _subset_icc2k(m, {size: cols}, missing)[size]
            np.testing.assert_allclose(got, oracle_subsets(m, {size: cols}, missing)[size],
                                       rtol=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_complete_matrix_bytes_match_the_complete_only_sums(self, seed):
        # every missing-cell correction is an exact zero on a complete
        # matrix, so the bootstrap values keep their bytes
        rng = np.random.default_rng(100 + seed)
        n, k = int(rng.integers(2, 121)), int(rng.integers(2, 61))
        x = rng.normal(50.0, rng.uniform(1, 30), size=(n, k)) + rng.normal(0, 10, size=(n, 1))
        draws = {size: np.array([np.sort(rng.choice(k, size=size, replace=False))
                                 for _ in range(int(rng.integers(1, 20)))])
                 for size in sorted(set(rng.integers(2, k + 1, size=3).tolist()))}
        want = complete_only_sums(x, draws)
        for missing in ("impute", "complete"):
            got = _subset_icc2k(_matrix(x), draws, missing)
            assert {s: v.tobytes() for s, v in got.items()} == \
                {s: v.tobytes() for s, v in want.items()}

    def test_complete_matrix_uses_the_same_draws(self):
        m = _synthetic(40, 12, 100.0, 25.0, 25.0, seed=6)
        report = bootstrap_icc(m, sizes=(3, 8), reps=9, seed=4)
        for size in (3, 8):
            want = [oracle_icc2k(subset_raters(m, c)) for c in self._draws(12, size, 9, 4)]
            np.testing.assert_allclose(report.values[size], want, rtol=1e-12)

    @pytest.mark.parametrize("missing", ["impute", "complete"])
    def test_missing_cells_keep_the_per_subset_path(self, missing):
        # the bootstrap keeps the per-subset oracle's values to rounding
        m = _synthetic(40, 12, 100.0, 25.0, 25.0, seed=6)
        values = m.values.copy()
        values[np.random.default_rng(1).uniform(size=values.shape) < 0.05] = np.nan
        m = _matrix(values)
        report = bootstrap_icc(m, sizes=(4, 8), reps=9, seed=4, missing=missing)
        for size in (4, 8):
            want = [oracle_icc2k(subset_raters(m, c), missing=missing)
                    for c in self._draws(12, size, 9, 4)]
            np.testing.assert_allclose(report.values[size], want, rtol=1e-12)

    def test_constant_matrix_degenerate(self):
        m = _matrix(np.full((5, 4), 3.0))
        with pytest.raises(ComputationError, match="degenerate"):
            bootstrap_icc(m, sizes=(2,), reps=3)


@st.composite
def _engine_case(draw):
    """A matrix with 0-30% missing cells, a mode, and subsets of sizes 2..k.

    Some matrices are constant (zero denominator) or have a rater with
    no rating; small sparse ones leave subset rows with no observation
    and run out of residual df or of complete rows.
    """
    n, k = draw(st.integers(2, 14)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ratings", "ratings", "constant", "empty rater"]))
    if kind == "constant":
        x = np.full((n, k), 3.0)
    else:
        scale = 10.0 ** rng.uniform(0, 2)
        x = scale * (rng.normal(0, 3, (n, 1)) + rng.normal(0, 1, (1, k))
                     + rng.normal(0, 1, (n, k))) + rng.uniform(-100, 100)
    holes = rng.uniform(size=(n, k)) < draw(st.sampled_from([0.0, 0.1, 0.2, 0.3]))
    blank = int(rng.integers(k)) if kind == "empty rater" else None
    if blank is not None:
        holes[:, blank] = True
    # every image keeps one rating, outside the blank column
    for i in np.nonzero(holes.all(axis=1))[0]:
        holes[i, rng.choice([j for j in range(k) if j != blank])] = False
    x[holes] = np.nan
    sizes = sorted(set(draw(st.lists(st.integers(2, k), min_size=1, max_size=3))))
    draws = {size: np.array([np.sort(rng.choice(k, size=size, replace=False))
                             for _ in range(draw(st.integers(1, 6)))])
             for size in sizes}
    return _matrix(x), draws, draw(st.sampled_from(["impute", "complete"]))


def _same_outcome(run, oracle):
    """``run()`` raises the error type and message ``oracle()`` raises, or
    returns its values to 1e-12, relative to max(1, ICC^2): an ICC far
    outside [-1, 1] comes from a small ANOVA denominator, which both
    routes round, and one near 0 from a difference of mean squares."""
    try:
        want = np.asarray(oracle())
    except (InputError, ComputationError) as exc:
        with pytest.raises(type(exc)) as got:
            run()
        assert str(got.value) == str(exc)
        return
    assert (np.abs(run() - want) <= 1e-12 * np.maximum(1.0, want * want)).all()


class TestEngineAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_engine_case())
    def test_matches_per_subset_oracle(self, case):
        m, draws, missing = case
        _same_outcome(lambda: np.concatenate(list(_subset_icc2k(m, draws, missing).values())),
                      lambda: np.concatenate(list(oracle_subsets(m, draws, missing).values())))
        _same_outcome(lambda: icc2k(m, missing), lambda: oracle_icc2k(m, missing))

    # raters 0 and 1 rated image 0 only: the subset {0, 1} leaves one image
    SPARSE = [[1.0, 2.0, 5.0, 6.0], [np.nan, np.nan, 4.0, 3.0], [np.nan, np.nan, 7.0, 9.0]]

    @pytest.mark.parametrize("values,cols,missing,error,message", [
        (SPARSE, [[2, 3], [0, 1]], "impute", ComputationError,
         "a subsample of 2 raters leaves fewer than 2 images"),
        ([[1.0, 2.0, 5.0], [np.nan, 3.0, 4.0], [4.0, 6.0, np.nan]], [[0, 1, 2]], "complete",
         ComputationError, "2 fully observed"),
        ([[1.0, np.nan, 5.0], [2.0, np.nan, 4.0], [4.0, np.nan, 9.0]], [[0, 2], [0, 1]],
         "impute", ComputationError, r"raters with no observed ratings: \['p1'\]"),
        ([[1.0, np.nan, 5.0], [2.0, 3.0, np.nan], [np.nan, np.nan, 9.0]], [[0, 1, 2]], "impute",
         ComputationError, r"residual df 4 - 4 imputed <= 0"),
        ([[3.0, 3.0, np.nan], [np.nan, 3.0, 3.0], [3.0, 3.0, 3.0]], [[0, 1], [1, 2]], "impute",
         ComputationError, "zero denominator"),
    ], ids=["empty-subset-rows", "complete-rows", "empty-rater", "df", "denominator"])
    def test_degenerate_subset_raises_like_the_oracle(self, values, cols, missing, error,
                                                      message):
        m = _matrix(values)
        draws = {len(cols[0]): np.array(cols)}
        with pytest.raises(error, match=message):
            oracle_subsets(m, draws, missing)
        with pytest.raises(error, match=message):
            _subset_icc2k(m, draws, missing)

    def test_first_failing_subset_in_draw_order_decides(self):
        # rep 1 of size 2 leaves one image; rep 2 and size 3 run out of df
        m = _matrix(self.SPARSE)
        draws = {2: np.array([[2, 3], [0, 1], [0, 2]]), 3: np.array([[0, 1, 2]])}
        with pytest.raises(ComputationError, match="leaves fewer than 2 images"):
            _subset_icc2k(m, draws, "impute")

    def test_rater_without_ratings_leaves_other_subsets_alone(self):
        # the blank rater's column mean must not enter the centring
        values = _synthetic(20, 4, 100.0, 25.0, 25.0, seed=12).values + 1e4
        values[3, 1] = np.nan
        blank = np.column_stack([values, np.full(20, np.nan)])
        cols = np.array([[0, 1, 2], [0, 2, 3], [1, 2, 3]])
        for missing in ("impute", "complete"):
            np.testing.assert_allclose(_subset_icc2k(_matrix(blank), {3: cols}, missing)[3],
                                       _subset_icc2k(_matrix(values), {3: cols}, missing)[3],
                                       rtol=1e-13)

    def test_subset_rows_with_no_observation_are_dropped(self):
        m = _synthetic(12, 5, 100.0, 25.0, 25.0, seed=11)
        values = m.values.copy()
        values[[2, 7], :3] = np.nan
        values[4, 1] = np.nan
        m = _matrix(values)
        cols = np.array([[0, 1, 2], [0, 2, 3]])
        want = [icc2k(_matrix(np.delete(values[:, c], [2, 7], axis=0))) for c in cols[:1]]
        got = _subset_icc2k(m, {3: cols}, "impute")[3]
        np.testing.assert_allclose(got[:1], want, rtol=1e-12)
        np.testing.assert_allclose(got, oracle_subsets(m, {3: cols}, "impute")[3], rtol=1e-12)


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

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.95, 0.99, 0.999999, 1 - 1e-16])
    def test_matches_mpmath(self, level):
        # 50-digit Wilson bounds from z = sqrt(2) erfinv(level) for the same float level;
        # center - half cancels to 2.6e-13 relative at (1, 1000) next to level 1
        with mp.workdps(50):
            z = mp.sqrt(2) * mp.erfinv(mp.mpf(level))
            for k, n in [(0, 10), (1, 2), (3, 10), (65, 500), (419, 500), (10, 10), (1, 1000)]:
                p, z2 = mp.mpf(k) / n, z * z
                center = (p + z2 / (2 * n)) / (1 + z2 / n)
                half = z * mp.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
                want = (0.0 if k == 0 else float(center - half),
                        1.0 if k == n else float(center + half))
                assert wilson_ci(k, n, level) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(InputError):
            wilson_ci(5, 0)
        with pytest.raises(InputError):
            wilson_ci(11, 10)
        for level in (1.0, float("nan")):
            with pytest.raises(InputError) as exc:
                wilson_ci(5, 10, level=level)
            assert exc.value.field == "level"
