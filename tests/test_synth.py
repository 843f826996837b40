"""Synthetic data generator sanity checks against its own ground truth."""

import numpy as np
import pytest

from spidereval.errors import InputError
from spidereval.qc import run_qc
from spidereval.reliability import build_rating_matrix, icc2k
from spidereval.synth import GroundTruth, SynthSpec, generate


def test_deterministic_for_same_spec():
    spec = SynthSpec(n_images=20, n_raters=8, seed=77)
    table_a, _, truth_a = generate(spec)
    table_b, _, truth_b = generate(spec)
    assert table_a.records == table_b.records
    assert truth_a.image_effects == truth_b.image_effects
    assert truth_a.rater_effects == truth_b.rater_effects


def test_seed_changes_output():
    a, _, _ = generate(SynthSpec(n_images=20, n_raters=8, seed=1))
    b, _, _ = generate(SynthSpec(n_images=20, n_raters=8, seed=2))
    assert a.records != b.records


def test_complete_single_trial_table():
    spec = SynthSpec(n_images=12, n_raters=5, seed=3)
    table, features, _ = generate(spec)
    assert features is None
    assert len(table.records) == 60
    pairs = {(r.participant_id, r.image_id) for r in table.records}
    assert len(pairs) == 60
    assert all(r.trial_index == 1 for r in table.records)
    assert all(0.0 <= r.rating <= 100.0 for r in table.records)


def test_id_scheme():
    table, _, truth = generate(SynthSpec(n_images=2, n_raters=2, seed=0))
    assert sorted(table.image_index) == ["img000", "img001"]
    assert sorted(table.participant_index) == ["p000", "p001"]
    assert set(truth.image_effects) == {"img000", "img001"}
    big, _, _ = generate(SynthSpec(n_images=1200, n_raters=2, var_residual=0.0, seed=0))
    assert "img0000" in big.image_index
    assert "img1199" in big.image_index


def test_effect_variances_match_spec():
    spec = SynthSpec(n_images=4000, n_raters=600, var_image=81.0,
                     var_rater=16.0, var_residual=4.0, seed=5)
    _, _, truth = generate(spec)
    img = np.array(list(truth.image_effects.values()))
    rat = np.array(list(truth.rater_effects.values()))
    assert img.var(ddof=1) == pytest.approx(81.0, rel=0.15)
    assert rat.var(ddof=1) == pytest.approx(16.0, rel=0.25)
    assert abs(img.mean()) < 1.0
    assert abs(rat.mean()) < 1.0


def test_ratings_decompose_exactly_before_clipping():
    spec = SynthSpec(n_images=10, n_raters=6, var_image=4.0, var_rater=1.0,
                     var_residual=0.0, mu=50.0, seed=9)
    table, _, truth = generate(spec)
    for rec in table.records:
        expected = truth.mu + truth.image_effects[rec.image_id] + \
            truth.rater_effects[rec.participant_id]
        assert rec.rating == pytest.approx(expected, abs=1e-9)


def test_zero_noise_gives_perfect_icc():
    # absolute agreement: rater variance must be zero as well
    spec = SynthSpec(n_images=30, n_raters=10, var_image=64.0, var_rater=0.0,
                     var_residual=0.0, seed=21)
    table, _, _ = generate(spec)
    m = build_rating_matrix(table)
    assert icc2k(m) == pytest.approx(1.0, abs=1e-9)


def test_rater_variance_lowers_icc_analytically():
    # sigma_img^2 / (sigma_img^2 + (sigma_rater^2 + sigma_resid^2) / k)
    spec = SynthSpec(n_images=400, n_raters=10, var_image=64.0, var_rater=9.0,
                     var_residual=0.0, seed=21)
    table, _, _ = generate(spec)
    m = build_rating_matrix(table)
    assert icc2k(m) == pytest.approx(64.0 / (64.0 + 9.0 / 10.0), abs=0.01)


def test_extreme_mu_clips():
    table, _, _ = generate(SynthSpec(n_images=5, n_raters=5, var_image=1.0,
                                     var_rater=1.0, var_residual=1.0,
                                     mu=130.0, seed=2))
    assert all(r.rating == 100.0 for r in table.records)


def test_features_drive_image_effects():
    spec = SynthSpec(n_images=50, n_raters=4, var_image=36.0, feature_dim=8, seed=13)
    _, features, truth = generate(spec)
    assert features is not None
    assert features.dim == 8
    assert truth.weights is not None
    norm = float(np.linalg.norm(truth.weights))
    for image_id, effect in truth.image_effects.items():
        x = features.matrix([image_id])[0]
        predicted = np.sqrt(36.0) * float(x @ truth.weights) / norm
        assert effect == pytest.approx(predicted, abs=1e-12)


def test_planted_outliers_marked_and_found():
    spec = SynthSpec(n_images=40, n_raters=12, n_outliers=2,
                     outlier_offset=45.0, seed=11)
    table, _, truth = generate(spec)
    assert len(truth.outlier_ids) == 2
    assert truth.outlier_ids <= set(table.participant_index)
    report, _ = run_qc(table)
    assert truth.outlier_ids <= report.excluded


def test_no_outliers_by_default():
    _, _, truth = generate(SynthSpec(n_images=10, n_raters=5, seed=1))
    assert truth.outlier_ids == frozenset()


def test_spec_validation():
    with pytest.raises(InputError):
        SynthSpec(n_images=0, n_raters=5)
    with pytest.raises(InputError, match="var_rater"):
        SynthSpec(n_images=5, n_raters=5, var_rater=-1.0)
    with pytest.raises(InputError, match="n_raters"):
        SynthSpec(n_images=5, n_raters=3, n_outliers=3)
    with pytest.raises(InputError):
        SynthSpec(n_images=5, n_raters=3, feature_dim=-1)


def test_truth_dataclass_defaults():
    truth = GroundTruth(image_effects={}, rater_effects={}, outlier_ids=frozenset())
    assert truth.weights is None
    assert truth.mu == 50.0


@pytest.mark.parametrize("name", ["var_image", "var_rater", "var_residual", "mu",
                                  "outlier_offset"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_non_finite_values(name, value):
    with pytest.raises(InputError, match=f"{name} must be finite") as info:
        SynthSpec(n_images=5, n_raters=5, **{name: value})
    assert info.value.field == name


@pytest.mark.parametrize("kwargs, field", [
    ({"n_images": 0, "n_raters": 5}, "n_images"),
    ({"n_images": 5, "n_raters": -1}, "n_raters"),
    ({"n_images": 5, "n_raters": 5, "var_residual": -0.5}, "var_residual"),
])
def test_spec_errors_name_the_field(kwargs, field):
    with pytest.raises(InputError) as info:
        SynthSpec(**kwargs)
    assert info.value.field == field


def test_table_is_rater_major_and_matches_the_records():
    table, _, _ = generate(SynthSpec(n_images=3, n_raters=2, var_residual=0.0, seed=4))
    assert table.participant_ids == ("p000", "p001")
    assert table.image_ids == ("img000", "img001", "img002")
    assert [(r.participant_id, r.image_id) for r in table.records] == [
        (p, i) for p in table.participant_ids for i in table.image_ids
    ]
    assert table.trial.tolist() == [1] * 6
