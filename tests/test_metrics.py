import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidereval.error_analysis import image_abs_errors
from spidereval.errors import ComputationError, InputError
from spidereval.harness import PredictionSet, make_prediction
from spidereval.metrics import mae, metric_report, r2, rmse


def test_hand_computed_values():
    pred = np.array([0.0, 0.0])
    obs = np.array([3.0, 4.0])
    assert mae(pred, obs) == pytest.approx(3.5)
    assert rmse(pred, obs) == pytest.approx(math.sqrt(12.5))


def test_perfect_prediction():
    obs = np.array([1.0, 5.0, 9.0])
    assert mae(obs, obs) == 0.0
    assert rmse(obs, obs) == 0.0
    assert r2(obs, obs) == 1.0


def test_mean_predictor_scores_zero_r2():
    obs = np.array([10.0, 20.0, 60.0])
    pred = np.full(3, obs.mean())
    assert r2(pred, obs) == pytest.approx(0.0)
    # doing worse than the mean goes negative
    assert r2(np.array([60.0, 10.0, 20.0]), obs) < 0.0


def test_r2_undefined_for_constant_observations():
    with pytest.raises(ComputationError):
        r2(np.array([1.0, 2.0]), np.array([5.0, 5.0]))


def test_metric_input_validation():
    with pytest.raises(ComputationError):
        mae(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ComputationError):
        rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def _prediction_set(values):
    """values: dict (rep, image_id) -> raw"""
    entries = tuple(
        make_prediction(rep, 0, image_id, raw)
        for (rep, image_id), raw in sorted(values.items())
    )
    return PredictionSet(entries=entries)


def test_repetition_metrics_small_example():
    targets = {"a": 10.0, "b": 20.0}
    ps = _prediction_set({
        (0, "a"): 12.0, (0, "b"): 16.0,
        (1, "a"): 10.0, (1, "b"): 20.0,
    })
    report = metric_report(ps, targets)
    rows = report.per_repetition
    assert rows[0][0] == 0
    assert rows[0][1] == pytest.approx(3.0)       # mae of (2, 4)
    assert rows[0][2] == pytest.approx(math.sqrt(10.0))
    assert rows[1][1] == 0.0
    assert report.mean_mae == pytest.approx(1.5)


def test_ensemble_is_per_image_mean_of_clipped():
    targets = {"a": 10.0, "b": 90.0}
    ps = _prediction_set({
        (0, "a"): -10.0, (0, "b"): 120.0,   # clips to 0 and 100
        (1, "a"): 20.0, (1, "b"): 80.0,
    })
    ids, _, clipped = ps.aligned(targets)
    assert dict(zip(ids, clipped.mean(axis=1).tolist())) == {"a": 10.0, "b": 90.0}
    report = metric_report(ps, targets)
    assert report.ensemble_mae == 0.0 and report.ensemble_r2 == 1.0


def test_missing_prediction_detected():
    targets = {"a": 10.0, "b": 20.0}
    ps = _prediction_set({(0, "a"): 10.0})
    with pytest.raises(InputError, match="lacks predictions"):
        metric_report(ps, targets)


def test_extra_prediction_detected():
    targets = {"a": 10.0}
    ps = _prediction_set({(0, "a"): 10.0, (0, "zz"): 5.0})
    with pytest.raises(InputError, match="untargeted"):
        metric_report(ps, targets)


def test_report_matches_brute_force():
    rng = np.random.default_rng(17)
    images = [f"i{k}" for k in range(12)]
    targets = {i: float(rng.uniform(0, 100)) for i in images}
    values = {(rep, i): float(rng.uniform(-10, 110))
              for rep in range(5) for i in images}
    ps = _prediction_set(values)
    report = metric_report(ps, targets)

    clip = lambda v: min(100.0, max(0.0, v))
    obs = np.array([targets[i] for i in sorted(images)])
    rep_mats = []
    for rep in range(5):
        pred = np.array([clip(values[(rep, i)]) for i in sorted(images)])
        err = pred - obs
        m = np.abs(err).mean()
        r = math.sqrt((err**2).mean())
        q = 1 - (err**2).sum() / ((obs - obs.mean()) ** 2).sum()
        rep_mats.append((m, r, q))
        got = report.per_repetition[rep]
        assert got[1:] == pytest.approx((m, r, q))
    assert report.mean_mae == pytest.approx(np.mean([t[0] for t in rep_mats]))
    ens = np.array([
        np.mean([clip(values[(rep, i)]) for rep in range(5)])
        for i in sorted(images)
    ])
    assert report.ensemble_mae == pytest.approx(np.abs(ens - obs).mean())
    assert report.ensemble_rmse == pytest.approx(
        math.sqrt(((ens - obs) ** 2).mean()))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_jensen_inequalities_hold(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 15))
    reps = int(rng.integers(2, 6))
    images = [f"i{k}" for k in range(n)]
    targets = {i: float(rng.uniform(0, 100)) for i in images}
    values = {(rep, i): float(rng.uniform(-30, 130))
              for rep in range(reps) for i in images}
    report = metric_report(_prediction_set(values), targets)
    assert report.ensemble_mae <= report.mean_mae + 1e-9
    mean_mse = np.mean([row[2] ** 2 for row in report.per_repetition])
    assert report.ensemble_rmse ** 2 <= mean_mse + 1e-9


def test_image_order_irrelevant():
    rng = np.random.default_rng(3)
    images = [f"i{k}" for k in range(9)]
    targets = {i: float(rng.uniform(0, 100)) for i in images}
    values = {(rep, i): float(rng.uniform(0, 100))
              for rep in range(3) for i in images}
    a = metric_report(_prediction_set(values), targets)
    shuffled = dict(reversed(list(values.items())))
    b = metric_report(_prediction_set(shuffled), dict(reversed(list(targets.items()))))
    assert a == b


def test_ensemble_and_errors_at_nine_repetitions_match_list_mean():
    """Per-image means reduce each image's repetitions as one contiguous
    row, as ``np.mean`` of a list does. From 8 repetitions on numpy sums
    such a row pairwise, so summing repetition by repetition over the
    other axis would move some values in the last bit."""
    rng = np.random.default_rng(29)
    images = [f"i{k:03d}" for k in range(300)]
    targets = {i: float(rng.uniform(0, 100)) for i in images}
    values = {(rep, i): float(rng.uniform(-10, 110)) for rep in range(9) for i in images}
    ps = _prediction_set(values)
    clip = lambda v: min(100.0, max(0.0, v))
    ids, _, matrix = ps.aligned(targets)
    ensemble = dict(zip(ids, matrix.mean(axis=1).tolist()))
    errors = image_abs_errors(ps, targets)
    list_means = []
    for i in images:
        clipped = [clip(values[(rep, i)]) for rep in range(9)]
        list_means.append(float(np.mean(clipped)))
        assert ensemble[i] == list_means[-1]
        assert errors[i] == float(np.mean([abs(c - targets[i]) for c in clipped]))
    obs = np.array([targets[i] for i in images])
    report = metric_report(ps, targets)
    assert report.ensemble_mae == mae(np.array(list_means), obs)
    assert report.ensemble_rmse == rmse(np.array(list_means), obs)


def test_ensemble_rejects_untargeted_images():
    ps = _prediction_set({(0, "a"): 10.0, (0, "b"): 20.0, (0, "zz"): 5.0})
    with pytest.raises(InputError, match="untargeted"):
        metric_report(ps, {"a": 10.0, "b": 20.0})


def test_report_aligns_the_predictions_once(monkeypatch):
    calls = []
    aligned = PredictionSet.aligned

    def counted(ps, targets):
        calls.append(ps)
        return aligned(ps, targets)

    monkeypatch.setattr(PredictionSet, "aligned", counted)
    targets = {"a": 10.0, "b": 20.0, "c": 35.0}
    ps = _prediction_set({(rep, i): 5.0 * rep + t for rep in range(3)
                          for i, t in targets.items()})
    metric_report(ps, targets)
    assert len(calls) == 1
