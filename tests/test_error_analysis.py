"""Category error decomposition, omnibus tests, and adjustments."""

import math

import numpy as np
import pytest
from scipy import stats

from spidereval.error_analysis import (
    OmnibusResult,
    _groups_for,
    _replicate_sums,
    analyze_errors,
    bh_fdr,
    category_summaries,
    dunn_posthoc,
    epsilon_squared,
    image_abs_errors,
    kruskal_wallis,
    rank_top_criteria,
    run_omnibus,
    stratified_bootstrap_ci,
)
from spidereval.errors import ComputationError, InputError
from spidereval.harness import PredictionSet, make_prediction
from spidereval.ingest import CategoryTable
from spidereval.rng import substream

# Published omnibus rows used as effect-size cross-checks: H, N, k,
# epsilon squared. Negative values are legitimate for H < k - 1.
EPSILON_ROWS = [
    (14.856451, 313, 3, 0.041472),
    (24.348922, 313, 3, 0.072093),
    (10.694930, 313, 4, 0.024903),
    (20.156262, 313, 3, 0.058569),
    (8.865665, 313, 4, 0.018983),
    (2.266214, 313, 2, 0.004071),
    (1.863228, 313, 3, -0.000441),
    (8.331621, 313, 3, 0.020425),
]

# One model's omnibus column: (H, k, printed FDR p or None for "<0.001").
RESNET_OMNIBUS = [
    (14.856451, 3, 0.002179),
    (2.266214, 2, 0.132223),
    (7.701195, 3, 0.030762),
    (24.348922, 3, None),
    (10.694930, 4, 0.024741),
    (20.156262, 3, None),
    (9.217141, 3, 0.021925),
    (7.544071, 3, 0.030762),
    (8.865665, 4, 0.034244),
    (7.364286, 3, 0.030762),
    (11.139163, 3, 0.010483),
]


def _table(assignments):
    """CategoryTable from {criterion: {image: label}}."""
    entries = {}
    for criterion, mapping in assignments.items():
        for image, label in mapping.items():
            entries[(image, criterion)] = label
    return CategoryTable(entries)


def _grouped(errors, cats):
    """Criterion -> category groups, as analyze_errors builds them."""
    return {c: _groups_for(errors, cats, c) for c in cats.criteria()}


def _kruskal_brute(groups):
    """Textbook H with tie correction, ranks from scipy.stats.rankdata."""
    pooled = np.concatenate(groups)
    ranks = stats.rankdata(pooled)
    n = pooled.size
    h = 0.0
    start = 0
    for g in groups:
        r = ranks[start:start + g.size]
        h += float(r.sum()) ** 2 / g.size
        start += g.size
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    _, counts = np.unique(pooled, return_counts=True)
    correction = 1.0 - float(((counts.astype(float) ** 3) - counts).sum()) / (n ** 3 - n)
    return h / correction


def _dunn_brute(groups):
    """Pairwise z and two-sided p from first principles."""
    labels = sorted(groups)
    pooled = np.concatenate([groups[lab] for lab in labels])
    ranks = stats.rankdata(pooled)
    n = pooled.size
    mean_ranks, sizes = {}, {}
    start = 0
    for lab in labels:
        size = groups[lab].size
        mean_ranks[lab] = float(ranks[start:start + size].mean())
        sizes[lab] = size
        start += size
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts.astype(float) ** 3) - counts).sum()) / (12.0 * (n - 1))
    out = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            sigma = math.sqrt(
                (n * (n + 1) / 12.0 - tie_term) * (1.0 / sizes[a] + 1.0 / sizes[b])
            )
            z = (mean_ranks[a] - mean_ranks[b]) / sigma
            out[(a, b)] = (z, min(1.0, 2.0 * stats.norm.sf(abs(z))))
    return out


def _random_groups(rng, tie_heavy=True):
    k = int(rng.integers(2, 5))
    groups = []
    for _ in range(k):
        size = int(rng.integers(3, 9))
        if tie_heavy:
            vals = rng.integers(0, 6, size=size).astype(np.float64)
        else:
            vals = rng.normal(size=size)
        groups.append(vals)
    pooled = np.concatenate(groups)
    if np.all(pooled == pooled[0]):
        groups[0][0] += 1.0
    return groups


class TestKruskalWallis:
    def test_canonical_three_by_three(self):
        h, p = kruskal_wallis(
            [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]), np.array([7.0, 8.0, 9.0])]
        )
        assert h == pytest.approx(7.2, rel=1e-12)
        assert p == pytest.approx(0.027323722447292558, rel=1e-10)

    def test_matches_scipy_and_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            groups = _random_groups(rng, tie_heavy=(trial % 2 == 0))
            h, p = kruskal_wallis(groups)
            h_ref, p_ref = stats.kruskal(*groups)
            assert h == pytest.approx(h_ref, abs=1e-9), f"trial {trial}"
            assert p == pytest.approx(p_ref, abs=1e-9), f"trial {trial}"
            assert h == pytest.approx(_kruskal_brute(groups), abs=1e-9)

    def test_identical_values_rejected(self):
        with pytest.raises(ComputationError, match="identical"):
            kruskal_wallis([np.full(5, 3.0), np.full(4, 3.0)])

    def test_needs_two_groups(self):
        with pytest.raises(InputError, match=">= 2 groups"):
            kruskal_wallis([np.array([1.0, 2.0, 3.0])])

    def test_rejects_empty_group(self):
        with pytest.raises(InputError, match="non-empty"):
            kruskal_wallis([np.array([1.0, 2.0]), np.array([])])

    def test_label_order_irrelevant(self):
        a = np.array([1.0, 5.0, 2.0])
        b = np.array([4.0, 4.0, 9.0])
        c = np.array([7.0, 3.0])
        h1, _ = kruskal_wallis([a, b, c])
        h2, _ = kruskal_wallis([c, a, b])
        assert h1 == pytest.approx(h2, rel=1e-12)


class TestEpsilonSquared:
    @pytest.mark.parametrize("h,n,k,expected", EPSILON_ROWS)
    def test_published_rows(self, h, n, k, expected):
        assert epsilon_squared(h, n, k) == pytest.approx(expected, abs=1e-5)

    def test_formula_shape(self):
        assert epsilon_squared(7.2, 9, 3) == pytest.approx((7.2 - 2) / 6)

    def test_requires_n_above_k(self):
        with pytest.raises(InputError, match="N > k"):
            epsilon_squared(1.0, 3, 3)


class TestBhFdr:
    def test_single_p_unchanged(self):
        assert bh_fdr([0.04])[0] == pytest.approx(0.04)

    def test_empty(self):
        assert bh_fdr([]).size == 0

    def test_hand_example(self):
        # sorted p * m / rank with the running minimum from the right
        p = [0.01, 0.04, 0.03, 0.005]
        out = bh_fdr(p)
        assert out == pytest.approx([0.02, 0.04, 0.04, 0.02])

    def test_monotone_in_sorted_order(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=30)
        adj = bh_fdr(p)
        order = np.argsort(p)
        assert np.all(np.diff(adj[order]) >= -1e-15)
        assert np.all(adj >= p - 1e-15)
        assert np.all(adj <= 1.0)

    def test_reproduces_published_column(self):
        raw = [stats.chi2.sf(h, k - 1) for h, k, _ in RESNET_OMNIBUS]
        adjusted = bh_fdr(raw)
        for (h, k, printed), adj in zip(RESNET_OMNIBUS, adjusted):
            if printed is None:
                assert adj < 0.001
            else:
                assert adj == pytest.approx(printed, abs=1e-5), f"H={h}"

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            bh_fdr([0.5, 1.2])
        with pytest.raises(InputError):
            bh_fdr([-0.1])
        with pytest.raises(InputError):
            bh_fdr([0.5, math.nan])


class TestDunnPosthoc:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            arrays = _random_groups(rng, tie_heavy=(trial % 2 == 0))
            groups = {f"g{j}": arr for j, arr in enumerate(arrays)}
            try:
                rows = dunn_posthoc(groups)
            except ComputationError:
                continue
            ref = _dunn_brute(groups)
            ref_adj = bh_fdr([ref[(a, b)][1] for a, b, *_ in rows])
            for (a, b, z, p, p_adj), exp_adj in zip(rows, ref_adj):
                z_ref, p_ref = ref[(a, b)]
                assert z == pytest.approx(z_ref, abs=1e-9), f"trial {trial} {a}-{b}"
                assert p == pytest.approx(p_ref, abs=1e-9)
                assert p_adj == pytest.approx(exp_adj, abs=1e-9)

    def test_separated_groups_significant(self):
        groups = {
            "low": np.arange(0.0, 12.0),
            "high": np.arange(100.0, 112.0),
        }
        (label_a, label_b, z, p, p_adj), = dunn_posthoc(groups)
        assert (label_a, label_b) == ("high", "low")
        assert z > 0  # higher mean rank listed first alphabetically here
        assert p < 0.001
        assert p_adj == pytest.approx(p)  # single pair, no adjustment effect

    def test_pair_count(self):
        rng = np.random.default_rng(2)
        groups = {lab: rng.normal(size=6) for lab in "abcd"}
        rows = dunn_posthoc(groups)
        assert len(rows) == 6
        assert [(r[0], r[1]) for r in rows] == [
            ("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"),
        ]

    def test_identical_values_rejected(self):
        with pytest.raises(ComputationError, match="identical"):
            dunn_posthoc({"a": np.full(6, 2.0), "b": np.full(6, 2.0)})


# Bit patterns of the rank tests and BH on tie-heavy inputs, compared with
# ``==``: the pooled ranks, rank sums, tie term and step-up minimum must
# keep every floating-point step.
TIE_SETS = {
    "integers": {"a": [1, 1, 2, 2, 3], "b": [2, 2, 3, 3, 3, 4], "c": [1, 4, 4, 4]},
    "tenths": {
        "low": [0.1, 0.1, 0.3, 0.3, 0.3, 0.7],
        "mid": [0.3, 0.7, 0.7, 0.7, 1.1, 0.1, 0.3],
        "high": [0.7, 1.1, 1.1, 1.3, 1.3, 1.3],
        "top": [1.3, 1.3, 0.7, 2.9, 2.9],
    },
    "halves": {
        "x": [0.5, 0.5, 0.5, 1.0, 1.5, 1.5, 2.0, 2.0],
        "y": [1.0, 1.0, 1.5, 1.5, 1.5, 1.5],
        "z": [0.5, 2.0, 2.0, 2.5, 2.5, 2.5, 2.5, 3.0, 3.0],
    },
}


KRUSKAL_BITS = {
    "integers": ("0x1.0fcb9129fc3cbp+2", "0x1.e9fb187efb44bp-4"),
    "tenths": ("0x1.f6f83ee145e08p+3", "0x1.539b09f29481bp-10"),
    "halves": ("0x1.3707a83125015p+3", "0x1.fc040b3f0ef49p-8"),
}

DUNN_BITS = {
    "integers": [
        ("a", "b", "-0x1.7faa017533378p+0", "0x1.1256cec746301p-3", "0x1.9b82362ae9482p-3"),
        ("a", "c", "-0x1.f8134136d8e03p+0", "0x1.90fb863757b49p-5", "0x1.2cbca4a981c77p-3"),
        ("b", "c", "-0x1.47e20e3abbf97p-1", "0x1.0b386bae9dafep-1", "0x1.0b386bae9dafep-1"),
    ],
    "tenths": [
        ("high", "low", "0x1.74a8a98d268d7p+1", "0x1.d79e532a203f9p-9", "0x1.61b6be5f982fbp-7"),
        ("high", "mid", "0x1.0a5e1dab81f1ep+1", "0x1.32a92167e5fd7p-5", "0x1.cbfdb21bd8fc2p-5"),
        ("high", "top", "-0x1.2a7735605bec6p-1", "0x1.1eaf904e6df90p-1", "0x1.1eaf904e6df90p-1"),
        ("low", "mid", "-0x1.e16f5211f4582p-1", "0x1.636456dd75398p-2", "0x1.aa78683cf311dp-2"),
        ("low", "top", "-0x1.adeec3be9ccb8p+1", "0x1.9a59490771850p-11", "0x1.33c2f6c59523cp-8"),
        ("mid", "top", "-0x1.4a40819579da6p+1", "0x1.43a941b7816dcp-7", "0x1.43a941b7816dcp-6"),
    ],
    "halves": [
        ("x", "y", "-0x1.ce5a733d511e2p-3", "0x1.a48d230b8f27ap-1", "0x1.a48d230b8f27bp-1"),
        ("x", "z", "-0x1.6bb8c0c32034fp+1", "0x1.2632ebc2f7a7ep-8", "0x1.b94c61a4737bdp-7"),
        ("y", "z", "-0x1.31b960b88f35bp+1", "0x1.15322b5d5982dp-6", "0x1.9fcb410c06444p-6"),
    ],
}


BH_BITS = [
    (
        [0.01, 0.04, 0.04, 0.03, 0.5, 0.9, 0.9, 1.0, 0.2, 0.04],
        [
            "0x1.47ae147ae147bp-4", "0x1.47ae147ae147bp-4", "0x1.47ae147ae147bp-4",
            "0x1.47ae147ae147bp-4", "0x1.6db6db6db6db7p-1", "0x1.0000000000000p+0",
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.5555555555555p-2",
            "0x1.47ae147ae147bp-4",
        ],
    ),
    (
        [1.0, 1.0, 0.3, 0.3, 0.3, 0.7],
        [
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.3333333333333p-1",
            "0x1.3333333333333p-1", "0x1.3333333333333p-1", "0x1.0000000000000p+0",
        ],
    ),
    (
        [0.6, 0.7, 0.7, 0.05, 0.9999999999999999, 0.9999999999999999, 0.0],
        [
            "0x1.f5c28f5c28f5bp-1", "0x1.f5c28f5c28f5bp-1", "0x1.f5c28f5c28f5bp-1",
            "0x1.6666666666667p-3", "0x1.fffffffffffffp-1", "0x1.fffffffffffffp-1",
            "0x0.0p+0",
        ],
    ),
    (
        [0.2, 0.2, 0.2, 0.2, 0.2],
        [
            "0x1.999999999999ap-3", "0x1.999999999999ap-3", "0x1.999999999999ap-3",
            "0x1.999999999999ap-3", "0x1.999999999999ap-3",
        ],
    ),
]


class TestFrozenBits:
    @pytest.mark.parametrize("name", sorted(TIE_SETS))
    def test_kruskal_wallis(self, name):
        groups = TIE_SETS[name]
        h, p = kruskal_wallis([np.array(groups[lab], dtype=float) for lab in sorted(groups)])
        assert (h.hex(), p.hex()) == KRUSKAL_BITS[name]

    @pytest.mark.parametrize("name", sorted(TIE_SETS))
    def test_dunn_posthoc(self, name):
        groups = {lab: np.array(v, dtype=float) for lab, v in TIE_SETS[name].items()}
        rows = [(a, b, z.hex(), p.hex(), q.hex()) for a, b, z, p, q in dunn_posthoc(groups)]
        assert rows == DUNN_BITS[name]

    @pytest.mark.parametrize("pvals,bits", BH_BITS)
    def test_bh_fdr(self, pvals, bits):
        assert [v.hex() for v in bh_fdr(pvals).tolist()] == bits

    def test_share_total_is_summed_left_to_right(self):
        # 1.0 + 1e-16 + 1e-16 is 1.0 one addition at a time; a compensated
        # sum (builtin sum() from Python 3.12 on) gives 0x1.0000000000001p+0
        groups = {"a": np.array([1.0]), "b": np.array([1e-16]), "c": np.array([1e-16])}
        rows = category_summaries({"texture": groups}, bootstrap=100)
        assert rows[0].category == "a" and rows[0].share.hex() == "0x1.0000000000000p+0"


class TestCategorySummaries:
    def test_hand_example(self):
        errors = {"a": 2.0, "b": 4.0, "c": 6.0, "d": 8.0}
        cats = _table({"texture": {"a": "smooth", "b": "smooth", "c": "hairy", "d": "hairy"}})
        rows = category_summaries(_grouped(errors, cats))
        by_cat = {r.category: r for r in rows}
        smooth, hairy = by_cat["smooth"], by_cat["hairy"]
        assert smooth.n == 2 and smooth.freq == pytest.approx(0.5)
        assert smooth.share == pytest.approx(6.0 / 20.0)
        assert smooth.delta == pytest.approx(-0.2)
        assert smooth.mean_ae == pytest.approx(3.0)
        assert smooth.sd_ae == pytest.approx(math.sqrt(2.0))
        assert smooth.median_ae == pytest.approx(3.0)
        assert smooth.iqr_ae == pytest.approx(1.0)
        assert hairy.share == pytest.approx(0.7)
        assert hairy.delta == pytest.approx(0.2)

    def test_shares_freqs_deltas_balance(self):
        rng = np.random.default_rng(23)
        errors = {f"i{k:03d}": float(rng.uniform(0.5, 20)) for k in range(60)}
        labels = ["x", "y", "z"]
        cats = _table({
            "environment": {img: labels[int(rng.integers(0, 3))] for img in errors},
            "texture": {img: labels[int(rng.integers(0, 2))] for img in errors},
        })
        rows = category_summaries(_grouped(errors, cats))
        for criterion in ("environment", "texture"):
            sub = [r for r in rows if r.criterion == criterion]
            assert sum(r.freq for r in sub) == pytest.approx(1.0, abs=1e-12)
            assert sum(r.share for r in sub) == pytest.approx(1.0, abs=1e-12)
            assert sum(r.delta for r in sub) == pytest.approx(0.0, abs=1e-12)
            assert sum(r.n for r in sub) == 60

    def test_small_flag(self):
        errors = {f"i{k}": float(k + 1) for k in range(12)}
        mapping = {f"i{k}": ("rare" if k < 3 else "common") for k in range(12)}
        cats = _table({"eyes": mapping})
        rows = category_summaries(_grouped(errors, cats), min_cell=5)
        flags = {r.category: r.small for r in rows}
        assert flags == {"rare": True, "common": False}

    def test_singleton_category_sd_zero(self):
        errors = {"a": 3.0, "b": 5.0, "c": 7.0}
        cats = _table({"perspective": {"a": "solo", "b": "pair", "c": "pair"}})
        rows = category_summaries(_grouped(errors, cats))
        solo = next(r for r in rows if r.category == "solo")
        assert solo.sd_ae == 0.0
        assert solo.iqr_ae == 0.0

    def test_empty_errors_rejected(self):
        with pytest.raises(ComputationError, match="no image errors"):
            analyze_errors({}, _table({"texture": {}}))


class TestRunOmnibus:
    def _errors_and_cats(self):
        rng = np.random.default_rng(11)
        errors = {}
        texture, eyes, distance = {}, {}, {}
        for k in range(45):
            img = f"i{k:03d}"
            group = k % 3
            errors[img] = float(rng.normal(8.0 + 4.0 * group, 1.0))
            texture[img] = ["smooth", "hairy", "none"][group]
            eyes[img] = "visible" if k < 6 else "hidden"  # 6 < MIN_CELL
            distance[img] = "close"  # single category
        return errors, _table({"texture": texture, "eyes": eyes, "subjective distance": distance})

    def test_skip_reasons(self):
        errors, cats = self._errors_and_cats()
        results = {r.criterion: r for r in run_omnibus(_grouped(errors, cats))}
        assert results["eyes"].skip_reason == "small cells (min_n=10)"
        assert results["subjective distance"].skip_reason == "single category (k=1)"
        assert results["texture"].skip_reason is None
        assert results["texture"].significant is True

    def test_skipped_rows_have_no_statistics(self):
        errors, cats = self._errors_and_cats()
        results = {r.criterion: r for r in run_omnibus(_grouped(errors, cats))}
        skipped = results["eyes"]
        assert skipped.h is None and skipped.p is None and skipped.p_fdr is None
        assert skipped.epsilon_sq is None and skipped.significant is None
        assert skipped.n_total == 45 and skipped.k == 2

    def test_adjustment_spans_tested_only(self):
        errors, cats = self._errors_and_cats()
        results = run_omnibus(_grouped(errors, cats))
        tested = [r for r in results if r.skip_reason is None]
        adjusted = bh_fdr([r.p for r in tested])
        for r, exp in zip(tested, adjusted):
            assert r.p_fdr == pytest.approx(float(exp), rel=1e-12)

    def test_criteria_in_canonical_order(self):
        errors, cats = self._errors_and_cats()
        names = [r.criterion for r in run_omnibus(_grouped(errors, cats))]
        assert names == ["subjective distance", "texture", "eyes"]

    @pytest.mark.parametrize("n_images", [2, 3])
    def test_one_image_per_category_is_skipped(self, n_images):
        # N = k leaves epsilon squared undefined (and N = 2 the omnibus).
        errors = {f"i{k}": float(k + 1) for k in range(n_images)}
        cats = _table({
            "texture": {img: img for img in errors},
            "eyes": {img: "hidden" if k else "visible" for k, img in enumerate(errors)},
        })
        results = {r.criterion: r for r in run_omnibus(_grouped(errors, cats), min_cell=1)}
        skipped = results["texture"]
        assert skipped.skip_reason == "one image per category (N=k)"
        assert (skipped.n_total, skipped.k, skipped.h) == (n_images, n_images, None)
        assert results["eyes"].skip_reason == (None if n_images == 3 else skipped.skip_reason)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        errors, cats = self._errors_and_cats()
        with pytest.raises(InputError, match="alpha must be in") as exc:
            run_omnibus(_grouped(errors, cats), alpha=alpha)
        assert exc.value.field == "alpha"
        with pytest.raises(InputError, match="alpha must be in"):
            analyze_errors(errors, cats, bootstrap=100, alpha=alpha)


class TestStratifiedBootstrap:
    def _fixture(self):
        rng = np.random.default_rng(3)
        errors = {f"i{k:02d}": float(rng.gamma(4.0, 2.5)) for k in range(30)}
        mapping = {img: ("a" if k % 2 == 0 else "b") for k, img in enumerate(sorted(errors))}
        mapping["i00"] = "solo"
        cats = _table({"texture": mapping})
        return errors, cats, _groups_for(errors, cats, "texture")

    def test_deterministic(self):
        _, _, groups = self._fixture()
        one = stratified_bootstrap_ci(groups, "texture", B=150, seed=9)
        two = stratified_bootstrap_ci(groups, "texture", B=150, seed=9)
        assert one == two
        other = stratified_bootstrap_ci(groups, "texture", B=150, seed=10)
        assert other != one

    def test_singleton_stratum_zero_width_mean(self):
        errors, _, groups = self._fixture()
        out = stratified_bootstrap_ci(groups, "texture", B=150, seed=1)
        lo, hi = out["solo"]["mean"]
        assert lo == hi == pytest.approx(errors["i00"])

    def test_brackets_point_estimates(self):
        errors, cats, groups = self._fixture()
        out = stratified_bootstrap_ci(groups, "texture", B=400, seed=2)
        rows = {r.category: r for r in category_summaries(_grouped(errors, cats))}
        for lab in ("a", "b"):
            lo, hi = out[lab]["mean"]
            assert lo <= rows[lab].mean_ae <= hi
            lo_s, hi_s = out[lab]["share"]
            assert lo_s <= rows[lab].share <= hi_s
            assert 0.0 <= lo_s <= hi_s <= 1.0

    def test_level_widens_interval(self):
        _, _, groups = self._fixture()
        narrow = stratified_bootstrap_ci(groups, "texture", B=300, seed=4, level=0.5)
        wide = stratified_bootstrap_ci(groups, "texture", B=300, seed=4, level=0.99)
        for lab in ("a", "b"):
            assert wide[lab]["mean"][0] <= narrow[lab]["mean"][0]
            assert wide[lab]["mean"][1] >= narrow[lab]["mean"][1]

    def test_rejects_small_b_and_bad_level(self):
        _, _, groups = self._fixture()
        with pytest.raises(InputError, match="B >= 100") as exc:
            stratified_bootstrap_ci(groups, "texture", B=50)
        assert exc.value.field == "bootstrap"
        for level in (1.0, 0.0, float("nan")):
            with pytest.raises(InputError, match="level") as exc:
                stratified_bootstrap_ci(groups, "texture", B=150, level=level)
            assert exc.value.field == "level"

    def test_rejects_an_empty_category(self):
        _, _, groups = self._fixture()
        with pytest.raises(InputError, match="'texture' has an empty category"):
            stratified_bootstrap_ci({**groups, "none": np.array([])}, "texture", B=150)

    @pytest.mark.parametrize("n", [1, 7, 78, 157, 313])
    def test_blocked_draws_match_one_draw(self, n):
        values = np.random.default_rng(n).gamma(4.0, 2.5, size=n)
        blocked = _replicate_sums(substream(3, "error.bootstrap", "c", "x"), values, 2000)
        idx = substream(3, "error.bootstrap", "c", "x").integers(0, n, size=(2000, n))
        np.testing.assert_array_equal(blocked, values[idx].sum(axis=1))

    def _three_strata(self):
        """errors, categories, and each stratum's errors in image order."""
        rng = np.random.default_rng(11)
        errors, mapping, groups = {}, {}, {}
        for lab, size, scale in (("low", 18, 1.0), ("mid", 41, 2.0), ("high", 77, 3.0)):
            groups[lab] = rng.gamma(3.0, scale, size=size)
            for k, value in enumerate(groups[lab]):
                errors[f"{lab}{k:03d}"] = float(value)
                mapping[f"{lab}{k:03d}"] = lab
        return errors, _table({"texture": mapping}), groups

    @staticmethod
    def _percentiles(means, shares, level=0.95):
        q = [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0]
        return {
            lab: {
                "mean": tuple(float(v) for v in np.quantile(means[lab], q)),
                "share": tuple(float(v) for v in np.quantile(shares[lab], q)),
            }
            for lab in means
        }

    def test_one_stream_per_stratum(self):
        errors, cats, groups = self._three_strata()
        sums = {}
        for lab in sorted(groups):
            v = groups[lab]
            rng = substream(7, "error.bootstrap", "texture", lab)
            sums[lab] = v[rng.integers(0, v.size, size=(2000, v.size))].sum(axis=1)
        total = sum(sums[lab] for lab in sorted(sums))
        means = {lab: sums[lab] / groups[lab].size for lab in sums}
        shares = {lab: sums[lab] / total for lab in sums}
        out = stratified_bootstrap_ci(_groups_for(errors, cats, "texture"), "texture",
                                      B=2000, seed=7)
        assert out == self._percentiles(means, shares)

    def test_close_to_the_per_replicate_scheme(self):
        # The scheme before one stream per stratum: replicate b drew every
        # stratum from (seed, "error.bootstrap", criterion, b).
        errors, cats, groups = self._three_strata()
        labels = sorted(groups)
        B = 2000
        means = {lab: np.empty(B) for lab in labels}
        shares = {lab: np.empty(B) for lab in labels}
        for b in range(B):
            rng = substream(7, "error.bootstrap", "texture", b)
            sums = {}
            for lab in labels:
                v = groups[lab]
                sample = v[rng.integers(0, v.size, size=v.size)]
                sums[lab] = float(sample.sum())
                means[lab][b] = float(sample.mean())
            for lab in labels:
                shares[lab][b] = sums[lab] / sum(sums.values())
        old = self._percentiles(means, shares)
        new = stratified_bootstrap_ci(_groups_for(errors, cats, "texture"), "texture",
                                      B=B, seed=7)
        for lab in labels:
            for kind in ("mean", "share"):
                (lo0, hi0), (lo1, hi1) = old[lab][kind], new[lab][kind]
                width = hi0 - lo0
                assert abs(lo1 - lo0) <= 0.15 * width, (lab, kind)
                assert abs(hi1 - hi0) <= 0.15 * width, (lab, kind)


class TestRankTopCriteria:
    def _result(self, criterion, eps, p_fdr, significant=True):
        return OmnibusResult(
            criterion=criterion, n_total=313, k=3, h=10.0, p=p_fdr / 2,
            p_fdr=p_fdr, epsilon_sq=eps, significant=significant, skip_reason=None,
        )

    def test_orders_by_effect_size(self):
        results = [
            self._result("texture", 0.058, 0.001),
            self._result("subjective distance", 0.072, 0.001),
            self._result("spider in picture", 0.041, 0.002),
            self._result("eyes", 0.023, 0.022),
        ]
        assert rank_top_criteria(results) == [
            "subjective distance", "texture", "spider in picture",
        ]

    def test_excludes_nonsignificant_and_skipped(self):
        results = [
            self._result("texture", 0.9, 0.20, significant=False),
            OmnibusResult(
                criterion="color of picture", n_total=313, k=2, h=None, p=None,
                p_fdr=None, epsilon_sq=None, significant=None,
                skip_reason="small cells (min_n=10)",
            ),
            self._result("eyes", 0.02, 0.03),
        ]
        assert rank_top_criteria(results) == ["eyes"]

    def test_top_parameter(self):
        results = [self._result(f"c{k}", 0.01 * (k + 1), 0.01) for k in range(5)]
        assert len(rank_top_criteria(results, top=2)) == 2


class TestImageAbsErrors:
    def test_hand_computed(self):
        entries = (
            make_prediction(0, 0, "a", 50.0),
            make_prediction(0, 1, "b", 120.0),   # clips to 100
            make_prediction(1, 0, "a", 70.0),
            make_prediction(1, 1, "b", 80.0),
        )
        ps = PredictionSet(entries)
        out = image_abs_errors(ps, {"a": 60.0, "b": 90.0})
        assert out["a"] == pytest.approx(10.0)   # (|50-60| + |70-60|) / 2
        assert out["b"] == pytest.approx(10.0)   # (|100-90| + |80-90|) / 2

    def test_missing_prediction(self):
        ps = PredictionSet((make_prediction(0, 0, "a", 10.0),))
        with pytest.raises(InputError, match="lacks predictions"):
            image_abs_errors(ps, {"a": 5.0, "b": 5.0})

    def test_untargeted_prediction(self):
        ps = PredictionSet((make_prediction(0, 0, "a", 10.0), make_prediction(0, 0, "zz", 1.0)))
        with pytest.raises(InputError, match=r"untargeted images \['zz'\]"):
            image_abs_errors(ps, {"a": 5.0})

    def test_empty_set(self):
        with pytest.raises(ComputationError, match="empty"):
            image_abs_errors(PredictionSet(()), {"a": 5.0})


class TestAnalyzeErrors:
    def _fixture(self):
        rng = np.random.default_rng(19)
        errors, texture, eyes = {}, {}, {}
        for k in range(40):
            img = f"i{k:03d}"
            group = k % 2
            errors[img] = float(rng.normal(10.0 + 5.0 * group, 1.5))
            texture[img] = "smooth" if group == 0 else "hairy"
            eyes[img] = "visible" if k < 4 else "hidden"
        return errors, _table({"texture": texture, "eyes": eyes})

    def test_report_structure(self):
        errors, cats = self._fixture()
        report = analyze_errors(errors, cats, bootstrap=150, seed=7)
        assert all(r.mean_ci is not None and r.share_ci is not None
                   for r in report.summaries)
        by_crit = {r.criterion: r for r in report.omnibus}
        assert by_crit["eyes"].skip_reason == "small cells (min_n=10)"
        assert by_crit["texture"].skip_reason is None
        assert {p.criterion for p in report.posthoc} == {"texture"}
        assert report.top_criteria == ("texture",)

    def test_posthoc_even_when_not_significant(self):
        rng = np.random.default_rng(4)
        errors = {f"i{k:03d}": float(rng.normal(10.0, 2.0)) for k in range(40)}
        cats = _table({
            "texture": {img: ("smooth" if k % 2 else "hairy")
                        for k, img in enumerate(sorted(errors))},
        })
        report = analyze_errors(errors, cats, bootstrap=150, seed=7)
        (res,) = report.omnibus
        assert res.significant is False
        assert len(report.posthoc) == 1  # pairwise rows reported regardless

    def test_labels_read_once_per_image_and_criterion(self, monkeypatch):
        errors, cats = self._fixture()
        calls = []
        label = CategoryTable.label

        def counted(table, image_id, criterion):
            calls.append((image_id, criterion))
            return label(table, image_id, criterion)

        monkeypatch.setattr(CategoryTable, "label", counted)
        analyze_errors(errors, cats, bootstrap=100, min_cell=4, seed=7)
        assert len(calls) == len(errors) * len(cats.criteria())
        assert len(set(calls)) == len(calls)

    def test_deterministic(self):
        errors, cats = self._fixture()
        one = analyze_errors(errors, cats, bootstrap=150, seed=7)
        two = analyze_errors(errors, cats, bootstrap=150, seed=7)
        assert one == two
