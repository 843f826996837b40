"""Heatmap-versus-mask agreement statistics."""

import itertools

import numpy as np
import pytest
from scipy import stats

from spidereval.attribution import (
    OverlapRecord,
    composite_heatmap,
    delta_fear_correlations,
    overlap_stats,
    paired_one_sided_t,
    representative_examples,
)
from spidereval.errors import ComputationError
from spidereval.ingest import BinaryMask, FloatGrid
from spidereval.ranking import pearson_r


def _grid(values):
    arr = np.asarray(values, dtype=np.float64)
    return FloatGrid(width=arr.shape[1], height=arr.shape[0], values=arr)


def _mask(bits):
    arr = np.asarray(bits, dtype=bool)
    return BinaryMask(width=arr.shape[1], height=arr.shape[0], bits=arr)


def _record(image_id, delta):
    return OverlapRecord(
        image_id=image_id, mu_in=delta, mu_out=0.0, delta=delta, mask_fraction=0.5
    )


class TestComposite:
    def test_single_grid_is_identity(self):
        g = _grid([[1.0, 2.0], [3.0, 4.0]])
        comp = composite_heatmap([g])
        assert np.array_equal(comp.values, g.values)

    def test_mean_of_five(self):
        rng = np.random.default_rng(31)
        grids = [_grid(rng.uniform(0, 1, size=(6, 4))) for _ in range(5)]
        comp = composite_heatmap(grids)
        manual = sum(g.values for g in grids) / 5.0
        assert np.allclose(comp.values, manual, atol=1e-12)
        assert (comp.width, comp.height) == (4, 6)

    def test_order_of_grids_changes_no_bit(self):
        # float32 values over 24 decades, so a float64 sum of three can round
        rng = np.random.default_rng(7)
        grids = [_grid((rng.standard_normal((64, 64)) * 10.0 ** rng.integers(-12, 12, (64, 64)))
                       .astype(np.float32)) for _ in range(3)]
        bits = {composite_heatmap(list(order)).values.tobytes()
                for order in itertools.permutations(grids)}
        assert len(bits) == 1

    def test_dimension_mismatch(self):
        a = _grid(np.zeros((3, 3)))
        b = _grid(np.zeros((3, 4)))
        with pytest.raises(ComputationError, match="dimensions differ"):
            composite_heatmap([a, b])

    def test_empty(self):
        with pytest.raises(ComputationError):
            composite_heatmap([])


class TestOverlapStats:
    def test_indicator_heatmap(self):
        # heatmap exactly equal to the mask gives mu_in 1, mu_out 0
        bits = np.zeros((5, 5), dtype=bool)
        bits[1:4, 1:4] = True
        rec = overlap_stats("img", _grid(bits.astype(np.float64)), _mask(bits))
        assert rec.mu_in == 1.0
        assert rec.mu_out == 0.0
        assert rec.delta == 1.0
        assert rec.mask_fraction == pytest.approx(9 / 25)

    def test_constant_heatmap_has_zero_delta(self):
        bits = np.zeros((4, 6), dtype=bool)
        bits[0, :3] = True
        rec = overlap_stats("img", _grid(np.full((4, 6), 0.37)), _mask(bits))
        assert rec.delta == pytest.approx(0.0, abs=1e-15)

    def test_matches_pixel_loop(self):
        rng = np.random.default_rng(7)
        heat = rng.uniform(-1, 3, size=(9, 7))
        bits = rng.uniform(size=(9, 7)) < 0.4
        bits[0, 0] = True  # both classes present whatever the draw
        bits[-1, -1] = False
        rec = overlap_stats("img", _grid(heat), _mask(bits))
        in_vals, out_vals = [], []
        for row in range(9):
            for col in range(7):
                (in_vals if bits[row, col] else out_vals).append(heat[row, col])
        assert rec.mu_in == pytest.approx(np.mean(in_vals), rel=1e-12)
        assert rec.mu_out == pytest.approx(np.mean(out_vals), rel=1e-12)
        assert rec.delta == pytest.approx(rec.mu_in - rec.mu_out, rel=1e-12)

    def test_raw_values_not_rescaled(self):
        # negative activations must survive; no normalization to [0, 1]
        bits = np.array([[True, False]])
        rec = overlap_stats("img", _grid([[-5.0, 10.0]]), _mask(bits))
        assert rec.mu_in == -5.0
        assert rec.mu_out == 10.0
        assert rec.delta == -15.0

    def test_size_mismatch(self):
        with pytest.raises(ComputationError, match="does not match"):
            overlap_stats("x", _grid(np.zeros((2, 2))), _mask(np.ones((3, 3), bool)))

    @pytest.mark.parametrize("fill", [True, False])
    def test_single_class_mask_rejected(self, fill):
        bits = np.full((3, 3), fill)
        with pytest.raises(ComputationError, match="both classes"):
            overlap_stats("x", _grid(np.zeros((3, 3))), _mask(bits))


class TestPairedT:
    def test_canonical_one_two_three(self):
        recs = [_record(f"i{k}", float(k)) for k in (1, 2, 3)]
        res = paired_one_sided_t(recs)
        assert res.n == 3
        assert res.df == 2
        assert res.mean_diff == pytest.approx(2.0)
        assert res.sd_diff == pytest.approx(1.0)
        assert res.t == pytest.approx(3.4641016151377544, rel=1e-12)
        assert res.one_sided_p == pytest.approx(0.037089950113724273, rel=1e-10)
        assert res.cohen_d == pytest.approx(2.0, rel=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(12)
        deltas = rng.normal(0.1, 0.4, size=40)
        recs = [_record(f"i{k:02d}", float(d)) for k, d in enumerate(deltas)]
        res = paired_one_sided_t(recs)
        ref = stats.ttest_1samp(deltas, 0.0, alternative="greater")
        assert res.t == pytest.approx(ref.statistic, rel=1e-12)
        assert res.one_sided_p == pytest.approx(ref.pvalue, rel=1e-10)
        assert res.cohen_d == pytest.approx(deltas.mean() / deltas.std(ddof=1), rel=1e-12)

    def test_negative_mean_gives_large_p(self):
        recs = [_record(f"i{k}", d) for k, d in enumerate([-2.0, -1.0, -3.0, -2.5])]
        res = paired_one_sided_t(recs)
        assert res.one_sided_p > 0.95

    def test_zero_sd_rejected(self):
        recs = [_record(f"i{k}", 1.5) for k in range(5)]
        with pytest.raises(ComputationError, match="zero standard deviation"):
            paired_one_sided_t(recs)

    def test_needs_two(self):
        with pytest.raises(ComputationError, match="n >= 2"):
            paired_one_sided_t([_record("solo", 1.0)])


class TestRepresentativeExamples:
    def test_max_zero_min(self):
        recs = [_record("A", 0.5), _record("B", -0.2), _record("C", 0.01)]
        assert representative_examples(recs) == ("A", "C", "B")

    def test_fear_filter_changes_pool(self):
        recs = [_record("A", 0.5), _record("B", -0.2), _record("C", 0.01)]
        fear = {"A": 10.0, "B": 80.0, "C": 55.0}
        # A is the overall max but falls below the fear threshold
        assert representative_examples(recs, fear=fear) == ("C", "C", "B")

    def test_missing_fear_entry_excludes_image(self):
        recs = [_record("A", 0.5), _record("B", -0.2)]
        assert representative_examples(recs, fear={"B": 90.0}) == ("B", "B", "B")

    def test_ties_break_lexicographically(self):
        recs = [_record("b", 1.0), _record("a", 1.0), _record("c", -1.0)]
        top, near_zero, bottom = representative_examples(recs)
        assert top == "a"
        assert near_zero in {"a", "c"}  # |1.0| == |-1.0|, lexicographic pick
        assert near_zero == "a"
        assert bottom == "c"

    def test_empty_pool(self):
        recs = [_record("A", 0.5)]
        with pytest.raises(ComputationError, match="no candidate"):
            representative_examples(recs, fear={"A": 5.0})


class TestCorrelations:
    def test_pearson_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=25)
        y = 0.6 * x + rng.normal(scale=0.5, size=25)
        assert pearson_r(x, y) == pytest.approx(stats.pearsonr(x, y).statistic, rel=1e-12)

    def test_pearson_perfect_line(self):
        x = np.arange(10.0)
        assert pearson_r(x, 3.0 * x - 7.0) == pytest.approx(1.0, rel=1e-12)
        assert pearson_r(x, -2.0 * x + 1.0) == pytest.approx(-1.0, rel=1e-12)

    def test_pearson_constant_rejected(self):
        with pytest.raises(ComputationError, match="zero variance"):
            pearson_r(np.ones(5), np.arange(5.0))

    def test_delta_fear_both_coefficients(self):
        rng = np.random.default_rng(8)
        deltas = rng.normal(size=30)
        fears = 40.0 + 20.0 * deltas + rng.normal(scale=4.0, size=30)
        recs = [_record(f"im{k:02d}", float(d)) for k, d in enumerate(deltas)]
        fear = {f"im{k:02d}": float(f) for k, f in enumerate(fears)}
        out = delta_fear_correlations(recs, fear)
        assert out["pearson"] == pytest.approx(
            stats.pearsonr(deltas, fears).statistic, rel=1e-10
        )
        assert out["spearman"] == pytest.approx(
            stats.spearmanr(deltas, fears).statistic, rel=1e-10
        )

    def test_delta_fear_ignores_unmatched_images(self):
        recs = [_record(f"i{k}", float(k)) for k in range(6)]
        fear = {f"i{k}": 10.0 * k + 1.0 for k in range(4)}  # i4, i5 missing
        out = delta_fear_correlations(recs, fear)
        assert out["pearson"] == pytest.approx(1.0, rel=1e-12)

    def test_delta_fear_needs_three_pairs(self):
        recs = [_record("a", 1.0), _record("b", 2.0)]
        with pytest.raises(ComputationError, match="at least 3"):
            delta_fear_correlations(recs, {"a": 5.0, "b": 6.0})
