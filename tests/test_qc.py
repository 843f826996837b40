import numpy as np
import pytest
from scipy import stats

from spidereval.errors import ComputationError
from spidereval.ingest import RatingRecord, RatingsTable
from spidereval.qc import (
    consensus_median,
    flag_correlation_outliers,
    flag_mad_outliers,
    run_qc,
)
from spidereval.ranking import spearman_rho
from spidereval.synth import SynthSpec, generate


def _table(rows):
    return RatingsTable(tuple(RatingRecord(*r) for r in rows))


def test_consensus_median_simple():
    table = _table([
        ("p1", "i1", 1, 10.0),
        ("p2", "i1", 1, 20.0),
        ("p3", "i1", 1, 90.0),
        ("p1", "i2", 1, 40.0),
        ("p2", "i2", 1, 60.0),
    ])
    assert consensus_median(table) == {"i1": 20.0, "i2": 50.0}


def test_spearman_monotone():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman_rho(x, x**3) == pytest.approx(1.0)
    assert spearman_rho(x, -x) == pytest.approx(-1.0)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(3, 30))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        want = stats.spearmanr(x, y).statistic
        assert spearman_rho(x, y) == pytest.approx(want, abs=1e-12)


def test_spearman_needs_three_pairs():
    with pytest.raises(ComputationError):
        spearman_rho(np.array([1.0, 2.0]), np.array([3.0, 4.0]))


def test_spearman_constant_input_undefined():
    with pytest.raises(ComputationError):
        spearman_rho(np.array([5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0]))


def test_correlation_fence_hand_derived():
    # sorted values [0.1, 0.8, 0.85, 0.9, 0.95]:
    # Q1 = 0.8, Q3 = 0.9, IQR = 0.1, lower fence = 0.65
    rhos = {"a": 0.95, "b": 0.8, "c": 0.1, "d": 0.9, "e": 0.85}
    flagged, lower = flag_correlation_outliers(rhos)
    assert lower == pytest.approx(0.65)
    assert flagged == {"c"}


def test_mad_fence_hand_derived():
    # sorted values [1, 1.1, 1.2, 1.3, 9]:
    # Q1 = 1.1, Q3 = 1.3, IQR = 0.2, upper fence = 1.6
    scores = {"a": 1.0, "b": 1.1, "c": 1.2, "d": 1.3, "e": 9.0}
    flagged, upper = flag_mad_outliers(scores)
    assert upper == pytest.approx(1.6)
    assert flagged == {"e"}


def test_flagging_requires_four_participants():
    with pytest.raises(ComputationError):
        flag_mad_outliers({"a": 1.0, "b": 2.0, "c": 3.0})


def _clean_table(n_images=20, n_raters=12, seed=3):
    spec = SynthSpec(n_images=n_images, n_raters=n_raters, var_image=400.0,
                     var_rater=4.0, var_residual=4.0, seed=seed)
    table, _, _ = generate(spec)
    return table


def _uniform_quality_table(n_images=20, n_raters=12):
    # all raters deviate from the image median by exactly 0.5 and track the
    # image ordering perfectly, so neither screening rule has any spread to
    # work with
    rows = []
    for j in range(n_raters):
        for i in range(n_images):
            center = 5.0 * (i + 1)
            offset = 0.5 if (i + j) % 2 == 0 else -0.5
            rows.append((f"p{j:03d}", f"i{i:03d}", 1, center + offset))
    return _table(rows)


def test_run_qc_uniform_quality_keeps_everyone():
    table = _uniform_quality_table()
    report, cleaned = run_qc(table)
    assert report.excluded == frozenset()
    assert cleaned.n_participants == table.n_participants
    assert all(v == pytest.approx(1.0) for v in report.rho.values())
    assert all(v == pytest.approx(0.5) for v in report.mad.values())


def test_run_qc_bookkeeping_on_noisy_data():
    table = _clean_table()
    report, cleaned = run_qc(table)
    assert len(report.rho) == table.n_participants
    assert len(report.mad) == table.n_participants
    assert cleaned.n_participants == table.n_participants - len(report.excluded)
    assert report.excluded <= table.participant_index


def test_run_qc_flags_reversed_rater():
    table = _clean_table()
    consensus = consensus_median(table)
    flipped = []
    for rec in table.records:
        if rec.participant_id == "p000":
            r = max(0.0, min(100.0, 100.0 - consensus[rec.image_id]))
            flipped.append(RatingRecord(rec.participant_id, rec.image_id,
                                        rec.trial_index, r))
        else:
            flipped.append(rec)
    report, cleaned = run_qc(RatingsTable(tuple(flipped)))
    assert "p000" in report.corr_flagged
    assert "p000" not in cleaned.participant_index
    assert report.rho["p000"] < report.corr_threshold


def test_run_qc_flags_extreme_offset_rater():
    spec = SynthSpec(n_images=25, n_raters=14, var_image=100.0, var_rater=1.0,
                     var_residual=1.0, n_outliers=1, outlier_offset=45.0, seed=11)
    table, _, truth = generate(spec)
    assert len(truth.outlier_ids) == 1
    report, _ = run_qc(table)
    assert set(truth.outlier_ids) <= set(report.mad_flagged)


def test_run_qc_union_rule():
    table = _clean_table()
    report, _ = run_qc(table)
    assert report.excluded == report.corr_flagged | report.mad_flagged


def test_run_qc_uses_first_trials_only():
    base = _clean_table(n_images=10, n_raters=8, seed=9)
    # append garbage second trials; the screen must ignore them
    noisy = list(base.records)
    for rec in base.records:
        noisy.append(RatingRecord(rec.participant_id, rec.image_id, 2,
                                  100.0 - rec.rating))
    report_noisy, cleaned = run_qc(RatingsTable(tuple(noisy)))
    report_base, _ = run_qc(base)
    assert report_noisy.rho == report_base.rho
    assert report_noisy.mad == report_base.mad
    assert all(r.trial_index == 1 for r in cleaned.records)


def test_run_qc_short_history_gets_no_rho():
    rows = []
    rng = np.random.default_rng(2)
    for p in range(6):
        for i in range(8):
            rows.append((f"p{p}", f"i{i}", 1, float(rng.integers(0, 101))))
    rows.append(("stub", "i0", 1, 50.0))
    rows.append(("stub", "i1", 1, 50.0))
    report, _ = run_qc(_table(rows))
    assert report.rho["stub"] is None
    assert "stub" not in report.corr_flagged
    assert "stub" in report.mad  # deviation rule still applies
