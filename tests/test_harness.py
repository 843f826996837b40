import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spidereval import harness
from spidereval.cli import main
from spidereval.errors import ComputationError, InputError
from spidereval.harness import (
    PredictionSet,
    PredictorSpec,
    Refit,
    default_spec,
    fit_ridge,
    make_prediction,
    random_search,
    run_nested_cv,
    search_summary,
)
from spidereval.ingest import FeatureTable
from spidereval.partition import ImageTargets, make_cv_plan


def ridge_oracle(X, y, lam):
    """Same estimator via the centering identity instead of the augmented
    normal equations: w from centered data, intercept from the means."""
    xm = X.mean(axis=0)
    ym = y.mean()
    Xc = X - xm
    yc = y - ym
    w = np.linalg.solve(Xc.T @ Xc + lam * np.eye(X.shape[1]), Xc.T @ yc)
    return w, ym - xm @ w


def normal_equation_ridge(X, y, lam):
    """Reference: solve (Xa^T Xa + lam I') theta = Xa^T y on X augmented
    with a ones column, with the intercept entry of I' left at zero."""
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    A = Xa.T @ Xa
    A[np.arange(d), np.arange(d)] += lam
    theta = np.linalg.solve(A, Xa.T @ y)
    return theta[:d], float(theta[d])


def lstsq_ridge(X, y, lam):
    """Reference: least squares on [X 1; sqrt(lam) I 0] theta = [y; 0]."""
    n, d = X.shape
    A = np.vstack([np.hstack([X, np.ones((n, 1))]),
                   np.hstack([np.sqrt(lam) * np.eye(d), np.zeros((d, 1))])])
    theta = np.linalg.lstsq(A, np.concatenate([y, np.zeros(d)]), rcond=None)[0]
    return theta[:d], float(theta[d])


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _linear_problem(n, d, noise, seed, coef_scale=8.0):
    rng = np.random.default_rng(seed)
    ids = [f"i{k:03d}" for k in range(n)]
    X = rng.standard_normal((n, d))
    w = rng.standard_normal(d) * coef_scale
    y = 50.0 + X @ w + rng.standard_normal(n) * noise
    features = FeatureTable(vectors={i: X[k] for k, i in enumerate(ids)})
    targets = {i: float(y[k]) for k, i in enumerate(ids)}
    return ids, features, targets


def _overflowing_problem(n, d, seed):
    """A noiseless linear problem scaled by 1e154: a light penalty fits it
    closely, while the squared held-out residuals of a heavy one overflow."""
    ids, features, targets = _linear_problem(n, d, noise=0.0, seed=seed)
    return ids, features, {i: v * 1e154 for i, v in targets.items()}


WIDE_PENALTIES = PredictorSpec(kind="ridge_closed_form", ranges={"lambda": (1e-4, 1e4, "log")})


def _targets_from(mean_a, jitter_seed=0, sd=1.0):
    rng = np.random.default_rng(jitter_seed)
    mean_b = {i: v + float(rng.standard_normal()) * sd for i, v in mean_a.items()}
    return ImageTargets(
        mean_a=dict(mean_a), mean_b=mean_b,
        n_a={i: 4 for i in mean_a}, n_b={i: 4 for i in mean_a}, dropped=(),
    )


class TestPredictorSpec:
    def test_defaults(self):
        assert default_spec() == PredictorSpec(kind="ridge_closed_form",
                                               ranges={"lambda": (1e-4, 1e2, "log")})

    def test_unknown_kind(self):
        for kind in ("boosted_trees", "iterative_stub"):
            with pytest.raises(InputError) as exc:
                PredictorSpec(kind=kind, ranges={"lambda": (0.1, 1.0, "log")})
            assert exc.value.field == "kind"

    def test_bad_scale(self):
        with pytest.raises(InputError):
            PredictorSpec(kind="ridge_closed_form",
                          ranges={"lambda": (0.1, 1.0, "sqrt")})

    def test_log_range_needs_positive_low(self):
        with pytest.raises(InputError):
            PredictorSpec(kind="ridge_closed_form",
                          ranges={"lambda": (0.0, 1.0, "log")})

    def test_empty_ranges(self):
        with pytest.raises(InputError):
            PredictorSpec(kind="ridge_closed_form", ranges={})

    @pytest.mark.parametrize("kind, ranges", [
        ("ridge_closed_form", {"alpha": (0.1, 1.0, "linear")}),
    ])
    def test_range_of_the_searched_parameter_required(self, kind, ranges):
        with pytest.raises(InputError) as exc:
            PredictorSpec(kind=kind, ranges=ranges)
        assert exc.value.field == "ranges"

    @pytest.mark.parametrize("low, scale", [(0.0, "linear"), (-1.0, "linear"), (0.0, "log")])
    def test_ridge_penalty_range_must_be_positive(self, low, scale):
        with pytest.raises(InputError) as exc:
            PredictorSpec(kind="ridge_closed_form", ranges={"lambda": (low, 1.0, scale)})
        assert exc.value.field == "ranges"

    def test_range_no_predictor_reads_is_rejected(self):
        with pytest.raises(InputError) as exc:
            PredictorSpec(kind="ridge_closed_form",
                          ranges={"alpha": (0.0, 1.0, "linear"), "lambda": (1e-4, 1e2, "log")})
        assert (exc.value.field, str(exc.value)) == (
            "ranges", "ridge_closed_form reads no range ['alpha']")


class TestPredictions:
    def test_clipping(self):
        assert make_prediction(0, 0, "i", -5.0).clipped == 0.0
        assert make_prediction(0, 0, "i", 105.0).clipped == 100.0
        assert make_prediction(0, 0, "i", 42.5).clipped == 42.5

    def test_raw_is_preserved(self):
        p = make_prediction(0, 0, "i", -5.0)
        assert p.raw == -5.0

    def test_duplicate_rep_image_rejected(self):
        a = make_prediction(0, 0, "i1", 10.0)
        b = make_prediction(0, 3, "i1", 20.0)  # same repetition, other fold
        with pytest.raises(ComputationError):
            PredictionSet(entries=(a, b))

    def test_lookup_helpers(self):
        entries = (
            make_prediction(1, 1, "i2", 120.0),
            make_prediction(0, 0, "i1", 10.0),
            make_prediction(1, 0, "i1", 20.0),
            make_prediction(0, 1, "i2", 30.0),
        )
        ps = PredictionSet(entries=entries)
        assert ps.repetitions == (0, 1)
        assert ps.by_repetition(0)["i2"].raw == 30.0
        ids, targets, clipped = ps.aligned({"i2": 2.0, "i1": 1.0})
        assert ids == ("i1", "i2")
        assert targets.tolist() == [1.0, 2.0]
        assert clipped.tolist() == [[10.0, 20.0], [30.0, 100.0]]  # (images, reps)
        assert clipped.flags.c_contiguous


class TestAligned:
    """The one coverage rule every score goes through."""

    def test_missing_before_untargeted_per_repetition(self):
        ps = PredictionSet((
            make_prediction(0, 0, "a", 1.0),
            make_prediction(0, 0, "zz", 1.0),
            make_prediction(1, 0, "a", 1.0),
        ))
        with pytest.raises(InputError,
                           match=r"repetition 0 lacks predictions for 1 images \(first: \['b'\]\)"):
            ps.aligned({"a": 1.0, "b": 2.0})
        with pytest.raises(InputError,
                           match=r"repetition 0 has predictions for untargeted images \['zz'\]"):
            ps.aligned({"a": 1.0})

    def test_later_repetition_checked(self):
        ps = PredictionSet((
            make_prediction(0, 0, "a", 1.0),
            make_prediction(3, 0, "a", 1.0),
            make_prediction(3, 0, "b", 1.0),
        ))
        with pytest.raises(InputError, match="repetition 3 has predictions for untargeted"):
            ps.aligned({"a": 1.0})


class TestFitRidge:
    def test_recovers_noiseless_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 4))
        w_true = np.array([3.0, -1.5, 0.25, 4.0])
        y = X @ w_true + 7.0
        w, b = fit_ridge(X, y, lam=1e-10)
        assert np.allclose(w, w_true, atol=1e-6)
        assert b == pytest.approx(7.0, abs=1e-6)

    def test_matches_centering_identity(self):
        rng = np.random.default_rng(1)
        for lam in (1e-4, 0.5, 10.0, 1e3):
            X = rng.standard_normal((40, 6)) * rng.uniform(0.5, 3.0, size=6)
            y = rng.standard_normal(40) * 20 + 50
            w, b = fit_ridge(X, y, lam)
            w2, b2 = ridge_oracle(X, y, lam)
            assert np.allclose(w, w2, rtol=1e-9, atol=1e-9)
            assert b == pytest.approx(b2, rel=1e-9)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        lam = 0.3
        w, b = fit_ridge(X, y, lam)
        Xa = np.hstack([X, np.ones((30, 1))])
        theta = np.concatenate([w, [b]])
        A = Xa.T @ Xa + np.diag([lam] * 5 + [0.0])
        rhs = Xa.T @ y
        assert np.linalg.norm(A @ theta - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_heavy_penalty_shrinks_to_mean(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((25, 3))
        y = rng.uniform(0, 100, size=25)
        w, b = fit_ridge(X, y, lam=1e12)
        assert np.allclose(w, 0.0, atol=1e-6)
        assert b == pytest.approx(y.mean(), abs=1e-4)

    def test_intercept_not_penalized(self):
        # constant target must be fit exactly no matter the penalty
        X = np.random.default_rng(4).standard_normal((20, 3))
        y = np.full(20, 73.25)
        for lam in (1e-6, 1.0, 1e8):
            w, b = fit_ridge(X, y, lam)
            assert np.allclose(X @ w + b, y, atol=1e-9)

    @pytest.mark.parametrize("n, d", [(60, 12), (30, 90)])
    @pytest.mark.parametrize("lam", [1e-4, 1e-2, 1.0, 1e2])
    def test_predictions_match_references(self, n, d, lam):
        # d < n factors X^T X, d > n factors X X^T; both must agree with
        # the augmented least-squares and normal-equation solutions.
        rng = np.random.default_rng(n * 1000 + d)
        X = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d) + 2.0
        y = X @ rng.standard_normal(d) + rng.standard_normal(n) * 5 + 50
        X_new = rng.standard_normal((25, d)) + 2.0
        w, b = fit_ridge(X, y, lam)
        for reference in (lstsq_ridge, normal_equation_ridge):
            w_ref, b_ref = reference(X, y, lam)
            assert _rel_err(X_new @ w + b, X_new @ w_ref + b_ref) < 1e-6, reference
            assert _rel_err(X @ w + b, X @ w_ref + b_ref) < 1e-6, reference

    def test_input_validation(self):
        X = np.zeros((4, 2))
        y = np.zeros(4)
        with pytest.raises(InputError):
            fit_ridge(X, y, lam=0.0)
        with pytest.raises(InputError):
            fit_ridge(X, y, lam=float("nan"))
        with pytest.raises(InputError):
            fit_ridge(X, np.zeros(5), lam=1.0)
        with pytest.raises(InputError, match="finite"):
            fit_ridge(np.full((4, 2), np.nan), y, lam=1.0)


def _inner_partition(ids, k=5):
    parts = np.array_split(np.array(ids), k)
    return tuple(tuple(p.tolist()) for p in parts)


class TestRandomSearch:
    def test_winner_minimizes_mean_inner_mse(self):
        ids, features, targets = _linear_problem(20, 3, noise=3.0, seed=5)
        best, trials, _ = random_search(
            default_spec(), _inner_partition(ids), features, targets,
            n_trials=12, seed=7, repetition=0, fold=0,
        )
        viable = [t for t in trials if t.loss is not None]
        assert len(trials) == 12
        assert best.trial == min(viable, key=lambda t: (t.loss, t.trial)).trial

    @pytest.mark.parametrize("n, d", [(40, 5), (40, 70)])
    def test_losses_match_a_normal_equation_search(self, n, d):
        ids, features, targets = _linear_problem(n, d, noise=4.0, seed=n + d)
        inner = _inner_partition(ids)
        _, trials, _ = random_search(default_spec(), inner, features, targets,
                                     n_trials=8, seed=3, repetition=1, fold=2)
        for t in trials:
            fold_losses = []
            for held in inner:
                fit = [i for i in sorted(ids) if i not in held]
                w, b = normal_equation_ridge(
                    features.matrix(fit), np.array([targets[i] for i in fit]),
                    t.params["lambda"],
                )
                resid = features.matrix(held) @ w + b - np.array([targets[i] for i in held])
                fold_losses.append(float(np.mean(resid ** 2)))
            assert t.loss == pytest.approx(np.mean(fold_losses), rel=1e-7)

    @pytest.mark.parametrize("d", [3, 30])
    @pytest.mark.parametrize("cut", ["empty", "whole"])
    def test_inner_fold_leaving_nothing_on_one_side_is_rejected(self, d, cut):
        ids, features, targets = _linear_problem(20, d, noise=1.0, seed=10)
        inner = (tuple(ids[:10]), (), tuple(ids[10:])) if cut == "empty" else (tuple(ids),)
        with pytest.raises(InputError, match="some but not all training images"):
            random_search(default_spec(), inner, features, targets, n_trials=2)

    def test_zero_trials_names_the_option(self):
        ids, features, targets = _linear_problem(20, 3, noise=3.0, seed=5)
        with pytest.raises(InputError) as exc:
            random_search(default_spec(), _inner_partition(ids), features, targets,
                          n_trials=0)
        assert exc.value.field == "trials"

    def test_deterministic_per_key(self):
        ids, features, targets = _linear_problem(20, 3, noise=3.0, seed=5)
        kw = dict(n_trials=6, seed=7, repetition=2, fold=3)
        b1, t1, _ = random_search(default_spec(), _inner_partition(ids),
                                  features, targets, **kw)
        b2, t2, _ = random_search(default_spec(), _inner_partition(ids),
                                  features, targets, **kw)
        assert t1 == t2 and b1 == b2
        b3, _, _ = random_search(default_spec(), _inner_partition(ids),
                                 features, targets, n_trials=6, seed=8,
                                 repetition=2, fold=3)
        assert b3.params != b1.params

    def test_log_scale_sampling_uniform_in_exponent(self):
        ids, features, targets = _linear_problem(10, 2, noise=1.0, seed=6)
        spec = PredictorSpec(kind="ridge_closed_form",
                             ranges={"lambda": (1e-4, 1e2, "log")})
        _, trials, _ = random_search(spec, _inner_partition(ids), features,
                                     targets, n_trials=1500, seed=0)
        lams = np.array([t.params["lambda"] for t in trials])
        assert lams.min() >= 1e-4 and lams.max() <= 1e2
        # geometric midpoint 1e-1 splits the draws evenly
        assert abs((lams < 1e-1).mean() - 0.5) < 0.06
        # first decade of six holds about a sixth of them
        assert abs((lams < 1e-3).mean() - 1 / 6) < 0.045

    def test_linear_scale_sampling_uniform(self):
        ids, features, targets = _linear_problem(10, 2, noise=1.0, seed=6)
        spec = PredictorSpec(kind="ridge_closed_form",
                             ranges={"lambda": (0.2, 0.8, "linear")})
        _, trials, _ = random_search(spec, _inner_partition(ids), features,
                                     targets, n_trials=1500, seed=1)
        lams = np.array([t.params["lambda"] for t in trials])
        assert lams.min() >= 0.2 and lams.max() <= 0.8
        assert abs(lams.mean() - 0.5) < 0.03

    def test_constant_target_is_fit_exactly(self):
        ids, features, _ = _linear_problem(15, 3, noise=0.0, seed=8)
        targets = {i: 64.0 for i in ids}
        best, trials, _ = random_search(default_spec(), _inner_partition(ids),
                                        features, targets, n_trials=5, seed=2)
        assert all(t.loss < 1e-12 for t in trials)
        assert best.loss < 1e-12

    def test_all_trials_failed_raises_with_diagnostics(self):
        ids, features, targets = _overflowing_problem(20, 3, seed=10)
        doomed = PredictorSpec(kind="ridge_closed_form", ranges={"lambda": (1e3, 1e4, "log")})
        with pytest.raises(ComputationError, match="all 3 search trials failed: trial 0: "):
            random_search(doomed, _inner_partition(ids), features, targets,
                          n_trials=3, seed=0)

    @pytest.mark.parametrize("d", [3, 30])
    def test_each_failed_trial_is_named_once(self, d):
        # squared residuals of 1e200 overflow every loss on both ridge routes
        ids, features, _ = _linear_problem(20, d, noise=1.0, seed=10)
        targets = {i: (-1) ** k * 1e200 for k, i in enumerate(ids)}
        with pytest.raises(ComputationError) as exc:
            random_search(default_spec(), _inner_partition(ids), features, targets,
                          n_trials=2, seed=0)
        assert str(exc.value) == (
            "all 2 search trials failed: trial 0: loss must be finite and >= 0, got inf; "
            "trial 1: loss must be finite and >= 0, got inf"
        )

    def test_a_failed_factorization_is_every_trials_error(self, monkeypatch):
        # d < n: the training set is factored first, then each inner fit
        # set; the second inner fit set's factorization fails
        ids, features, targets = _linear_problem(20, 3, noise=1.0, seed=10)
        eigh, calls = np.linalg.eigh, []

        def failing(a, *args, **kwargs):
            calls.append(np.shape(a))
            if len(calls) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ComputationError) as exc:
            random_search(default_spec(), _inner_partition(ids), features, targets,
                          n_trials=2, seed=0)
        error = "ridge eigendecomposition failed: Eigenvalues did not converge"
        assert str(exc.value) == f"all 2 search trials failed: trial 0: {error}; trial 1: {error}"
        assert calls == [(3, 3)] * 6  # the other inner fit sets are still factored

    def test_failed_trials_are_recorded_not_fatal(self):
        ids, features, targets = _overflowing_problem(20, 3, seed=10)
        best, trials, _ = random_search(WIDE_PENALTIES, _inner_partition(ids), features,
                                        targets, n_trials=30, seed=4)
        failed = [t.params["lambda"] for t in trials if t.error is not None]
        viable = [t.params["lambda"] for t in trials if t.error is None]
        assert failed and viable
        assert min(failed) > max(viable)  # only the heavy penalties overflow
        assert best.error is None and best.params["lambda"] in viable


class TestRunNestedCv:
    def _setup(self, n=60, d=4, noise=2.0, seed=12):
        ids, features, mean_a = _linear_problem(n, d, noise=noise, seed=seed)
        targets = _targets_from(mean_a, jitter_seed=seed, sd=noise)
        plan = make_cv_plan(ids, seed=21)
        return plan, targets, features

    def test_each_image_predicted_five_times(self):
        plan, targets, features = self._setup()
        preds, log = run_nested_cv(plan, targets, features, default_spec(),
                                   n_trials=4)
        assert len(preds.entries) == 5 * 60
        for rep in range(5):
            per_rep = preds.by_repetition(rep)
            assert len(per_rep) == 60
        assert all(0.0 <= p.clipped <= 100.0 for p in preds.entries)

    def test_log_structure(self):
        plan, targets, features = self._setup()
        preds, log = run_nested_cv(plan, targets, features, default_spec(),
                                   n_trials=4)
        assert len(log) == 25 * 4
        assert {tuple(entry) for entry in log} == {
            ("repetition", "fold", "trial", "params", "loss", "error", "selected")}
        by_fold = {}
        for entry in log:
            by_fold.setdefault((entry["repetition"], entry["fold"]), []).append(entry)
        for key, entries in by_fold.items():
            assert sum(e["selected"] for e in entries) == 1

    def test_thread_count_does_not_change_results(self):
        plan, targets, features = self._setup(n=40)
        kw = dict(n_trials=4)
        preds1, log1 = run_nested_cv(plan, targets, features, default_spec(), **kw)
        preds8, log8 = run_nested_cv(plan, targets, features, default_spec(),
                                     threads=8, **kw)
        assert preds1 == preds8
        assert log1 == log8

    def test_seed_defaults_to_plan_seed(self):
        plan, targets, features = self._setup(n=40)
        preds_default, _ = run_nested_cv(plan, targets, features,
                                         default_spec(), n_trials=3)
        preds_explicit, _ = run_nested_cv(plan, targets, features,
                                          default_spec(), n_trials=3,
                                          seed=plan.seed)
        assert preds_default == preds_explicit

    def test_learns_linear_signal(self):
        plan, targets, features = self._setup(n=80, noise=1.0, seed=13)
        preds, _ = run_nested_cv(plan, targets, features, default_spec(),
                                 n_trials=6)
        _, obs, clipped = preds.aligned(targets.mean_b)
        pred = clipped.mean(axis=1)
        sse = float(((obs - pred) ** 2).sum())
        sst = float(((obs - obs.mean()) ** 2).sum())
        assert 1.0 - sse / sst > 0.6

    def test_audit_runs_before_fitting(self, monkeypatch):
        plan, targets, features = self._setup(n=40)
        incomplete = ImageTargets(
            mean_a={k: v for k, v in list(targets.mean_a.items())[:-1]},
            mean_b=targets.mean_b, n_a=targets.n_a, n_b=targets.n_b,
            dropped=(),
        )
        monkeypatch.setattr(harness, "_run_fold", lambda *args: pytest.fail("a fold ran"))
        # a gap in the targets is bad input, found before the leakage audit
        with pytest.raises(InputError, match=r"no group-A target for 1 planned train images"):
            run_nested_cv(plan, incomplete, features, default_spec(), n_trials=2)
        incomplete = dataclasses.replace(targets, mean_b=dict(list(targets.mean_b.items())[1:]))
        with pytest.raises(InputError, match=r"no group-B target for 1 planned test images"):
            run_nested_cv(plan, incomplete, features, default_spec(), n_trials=2)
        leaky = dataclasses.replace(plan, folds=(dataclasses.replace(
            plan.folds[0], train=plan.folds[0].train + plan.folds[0].test[:1]),
            *plan.folds[1:]))
        with pytest.raises(ComputationError, match="in both train and test"):
            run_nested_cv(leaky, targets, features, default_spec(), n_trials=2)

    @pytest.mark.parametrize("d, kind", [
        (70, "ridge_closed_form"), (4, "ridge_closed_form"),
    ])
    def test_missing_feature_vectors_fail_before_any_fold(self, monkeypatch, d, kind):
        plan, targets, features = self._setup(d=d)
        gone = {"i052", "i003", "i044", "i059", "i031", "i007"}
        kept = [i for i in features.ids if i not in gone]
        partial = FeatureTable.from_array(kept, features.matrix(kept))
        monkeypatch.setattr(harness, "_run_fold", lambda *args: pytest.fail("a fold ran"))
        kernels = _remember_kernels(monkeypatch)
        with pytest.raises(InputError) as exc:
            run_nested_cv(plan, targets, partial,
                          PredictorSpec(kind=kind, ranges=default_spec().ranges), n_trials=2)
        assert (exc.value.field, str(exc.value)) == (
            "features",
            "no feature vector for 6 planned images "
            "(first: ['i003', 'i007', 'i031', 'i044', 'i052'])",
        )
        assert kernels == []


class TestSearchSummary:
    def test_counts_quantiles_and_edges(self):
        ids, features, mean_a = _linear_problem(60, 4, noise=2.0, seed=12)
        targets = _targets_from(mean_a, jitter_seed=12, sd=2.0)
        plan = make_cv_plan(ids, seed=21)
        spec = default_spec()
        preds, log = run_nested_cv(plan, targets, features, spec, n_trials=4)
        summary = search_summary(spec, log, preds.refits)
        assert (summary["folds"], summary["trials"], summary["failed_trials"]) == (25, 100, 0)
        winners = [r["params"]["lambda"] for r in log if r["selected"]]
        assert [w["params"]["lambda"] for w in summary["winners"]] == winners
        lam = summary["parameters"]["lambda"]
        assert lam["winner_quantiles"]["0"] == min(winners)
        assert lam["winner_quantiles"]["0.5"] == pytest.approx(np.median(winners))
        assert lam["winner_quantiles"]["1"] == max(winners)
        # lowest tenth of [1e-4, 1e2] on the log scale is [1e-4, 10**-3.4]
        assert lam["winner_share_lowest_tenth"] == pytest.approx(
            np.mean(np.array(winners) <= 10 ** -3.4))
        assert lam["winner_share_highest_tenth"] == pytest.approx(
            np.mean(np.array(winners) >= 10 ** 1.4))

    def test_edges_on_a_linear_scale(self):
        spec = PredictorSpec(kind="ridge_closed_form", ranges={"lambda": (1.0, 11.0, "linear")})
        refits = tuple(Refit(0, k, 0, {"lambda": v}, 1.0)
                       for k, v in enumerate([1.5, 2.0, 6.0, 10.5]))
        lam = search_summary(spec, [], refits)["parameters"]["lambda"]
        assert lam["winner_share_lowest_tenth"] == 0.5
        assert lam["winner_share_highest_tenth"] == 0.25
        assert lam["winner_quantiles"]["0.5"] == 4.0

    # Few distinct values give ties; n = 1..9 gives every fraction g of the
    # quartiles' positions (n - 1) q: 0, 0.25, 0.5 and 0.75.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.sampled_from([1e-4, 0.5, 3.0, 1e2]),
                              st.floats(1e-4, 1e2)), min_size=1, max_size=9))
    def test_winner_quantiles_are_numpys_bit_for_bit(self, winners):
        spec = PredictorSpec(kind="ridge_closed_form", ranges={"lambda": (1e-4, 1e2, "log")})
        refits = tuple(Refit(0, k, 0, {"lambda": v}, 1.0) for k, v in enumerate(winners))
        got = search_summary(spec, [], refits)["parameters"]["lambda"]["winner_quantiles"]
        want = {f"{q:g}": float(np.quantile(winners, q)) for q in harness.SUMMARY_QUANTILES}
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    @pytest.mark.parametrize("d, trials, level", [
        (4, 3, "fit_set"), (50, 3, "run"), (50, 30, "fold")])
    def test_effective_dof_is_the_hat_matrix_trace(self, d, trials, level):
        # Whatever level factored it, each fold's refit gives the dof and the
        # held-out raw predictions of a direct ridge solve at the winner's
        # penalty, within TestGroupedDeletion's bound at the training set's
        # condition number.
        assert _level_of(60, d, trials) == level
        ids, features, mean_a = _linear_problem(60, d, noise=2.0, seed=12)
        targets = _targets_from(mean_a, jitter_seed=12, sd=2.0)
        plan = make_cv_plan(ids, seed=21)
        preds, _ = run_nested_cv(plan, targets, features, default_spec(), n_trials=trials)
        raw = {(p.repetition, p.image_id): p.raw for p in preds.entries}
        for refit in preds.refits:
            fp = plan.fold_plan(refit.repetition, refit.fold)
            X, y = features.matrix(fp.train), np.array([mean_a[i] for i in fp.train])
            Xc, lam = X - X.mean(axis=0), refit.params["lambda"]
            gram = Xc.T @ Xc
            solve = np.linalg.solve(gram + lam * np.eye(d), Xc.T)
            eig = np.maximum(np.linalg.eigvalsh(gram), 0.0)
            rel = 1e-12 + 16 * np.finfo(float).eps * (eig.max() + lam) / (eig.min() + lam)
            hat = np.trace(Xc @ solve)
            assert abs(refit.effective_dof - hat) <= rel * max(hat, 1)
            want = (features.matrix(fp.test) - X.mean(axis=0)) @ solve @ (y - y.mean()) + y.mean()
            got = np.array([raw[fp.repetition, i] for i in fp.test])
            scale = np.maximum(np.abs(want - y.mean()), y.std())
            assert (np.abs(got - want) <= rel * scale).all()

    def test_failed_trials_are_counted(self):
        ids, features, mean_a = _overflowing_problem(30, 2, seed=11)
        preds, log = run_nested_cv(make_cv_plan(ids, seed=4), _targets_from(mean_a),
                                   features, WIDE_PENALTIES, n_trials=8)
        summary = search_summary(WIDE_PENALTIES, log, preds.refits)
        failed = sum(r["error"] is not None for r in log)
        assert failed > 0
        assert summary["failed_trials"] == failed
        assert all(isinstance(w["effective_dof"], float) for w in summary["winners"])


class TestSharedKernel:
    """When d >= n one kernel of every planned image serves all folds:
    a fold reads no test target, and test features only centre it."""

    def _run(self, mean_a, features, **kw):
        return run_nested_cv(self.plan, _targets_from(mean_a), features, default_spec(),
                             n_trials=4, **kw)

    def setup_method(self):
        self.ids, self.features, self.mean_a = _linear_problem(40, 50, noise=2.0, seed=5)
        self.plan = make_cv_plan(self.ids, seed=9)
        self.test = self.plan.fold_plan(0, 0).test

    @staticmethod
    def _fold(preds, log, rep=0, fold=0):
        return ([p for p in preds.entries if (p.repetition, p.fold) == (rep, fold)],
                [r for r in log if (r["repetition"], r["fold"]) == (rep, fold)])

    def test_test_targets_do_not_reach_their_fold(self):
        base = self._run(self.mean_a, self.features)
        moved = dict(self.mean_a)
        for k, image_id in enumerate(self.test):
            moved[image_id] = 1e3 * (-1) ** k
        preds, log = self._run(moved, self.features)
        assert self._fold(preds, log) == self._fold(*base)
        # the same images train the other folds of repetition 0, which move
        assert self._fold(preds, log, fold=1) != self._fold(*base, fold=1)

    def test_test_features_only_centre_their_fold(self):
        _, base = self._run(self.mean_a, self.features)
        array = np.array(self.features.array)
        array[self.features.row[self.test[0]]] += 25.0
        _, log = self._run(self.mean_a, FeatureTable.from_array(self.features.ids, array))
        in_fold = [(a["loss"], b["loss"]) for a, b in zip(base, log)
                   if (a["repetition"], a["fold"]) == (0, 0)]
        assert all(abs(b / a - 1) <= 1e-12 for a, b in in_fold)
        elsewhere = [abs(b["loss"] / a["loss"] - 1) for a, b in zip(base, log)]
        assert max(elsewhere) > 1e-3

    def test_threads_share_the_kernel_without_changing_results(self):
        alone = self._run(self.mean_a, self.features)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = self._run(self.mean_a, self.features, threads=3)
        finally:
            sys.setswitchinterval(interval)
        assert shared == alone


@st.composite
def _wide_case(draw):
    """A d >= n training set at any scale and offset, some rows repeated,
    split into 2..6 inner folds of unequal sizes, six penalties over
    [1e-8, 1e6], both ends included, and 1..6 test rows drawn alike, some
    repeating training rows."""
    n = draw(st.integers(3, 24))
    d = draw(st.integers(n, 2 * n + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-2, 2)
    noise = rng.standard_normal((n, d))
    offset = rng.uniform(-10, 10, d)
    X = scale * (noise + offset)
    copies = draw(st.integers(0, n // 2))
    X[rng.integers(0, n, copies)] = X[rng.integers(0, n, copies)]
    y = rng.uniform(0, 100, n)
    cuts = np.sort(rng.choice(np.arange(1, n), draw(st.integers(1, min(n, 6) - 1)),
                              replace=False))
    held = [np.sort(part) for part in np.split(rng.permutation(n), cuts)]
    lams = np.concatenate([[1e-8, 1e6], 10.0 ** rng.uniform(-8, 6, 4)])
    t = draw(st.integers(1, 6))
    Xt = scale * (rng.standard_normal((t, d)) + offset)
    copies = draw(st.integers(0, t))
    Xt[rng.integers(0, t, copies)] = X[rng.integers(0, n, copies)]
    return X, y, held, lams, Xt


def _remember_designs(monkeypatch) -> list:
    """Patch ``_RidgeFit.__init__`` to record every fit's (X, y, kernel);
    returns the record, one entry per factorization."""
    designs = []
    init = harness._RidgeFit.__init__

    def recording(self, X, y, kernel=False):
        init(self, X, y, kernel)
        designs.append((self, X, y, kernel))

    monkeypatch.setattr(harness._RidgeFit, "__init__", recording)
    return designs


def _remember_kernels(monkeypatch) -> list:
    """Patch ``_kernel`` to record the ids of every kernel formed."""
    kernels = []
    kernel = harness._kernel

    def recording(features, ids):
        kernels.append(tuple(ids))
        return kernel(features, ids)

    monkeypatch.setattr(harness, "_kernel", recording)
    return kernels


def _count_eigh(monkeypatch) -> list:
    """Patch ``np.linalg.eigh`` to record the shape of every matrix it factors."""
    shapes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return shapes


def _kernel_fit(X, y):
    """The kernel route on the first len(y) rows of X: one ``_kernel`` of
    every row, the training block's fit and the test block."""
    ids = [f"i{k:03d}" for k in range(len(X))]
    kernel = harness._kernel(FeatureTable.from_array(ids, X), ids)
    train, test = ids[:len(y)], ids[len(y):]
    return harness._RidgeFit(kernel(train, train), y, kernel=True), kernel(train, test)


class TestGroupedDeletion:
    """When d >= n, one factorization of the outer training set prices
    every inner fold; the per-inner-fit-set route is the oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_wide_case())
    def test_matches_the_per_fold_route(self, case):
        X, y, held, lams, Xt = case
        fit = harness._RidgeFit(X, y)
        want, errors = harness._ridge_losses(X, y, held, lams)
        assert errors == [None] * len(lams)
        # Both routes take lam + e for eigenvalues e of a Gram matrix, which
        # carry absolute rounding error ~ eps * e_max; each so loses about
        # eps * cond digits, cond = (e_max + lam) / (e_min + lam). Repeated
        # rows make e_min 0, so tiny penalties lose many (60-digit mpmath
        # finds both routes off alike there). The scale is max(loss, var y):
        # a held-out residual near 0 by chance has no relative accuracy.
        cond = (fit.eig.max() + lams) / (fit.eig.min() + lams)
        rel = 1e-12 + 16 * np.finfo(float).eps * cond
        tol = rel[:, None] * np.maximum(want, y.var())
        assert (np.abs(fit.held_out_losses(held, lams) - want) <= tol).all()
        # The kernel route, with the test rows centred alongside as in a run,
        # within the same bound: its losses, its test predictions against the
        # X-side refit (scale: prediction offset or sd y) and dof (scale 1).
        kernel_fit, cross = _kernel_fit(np.vstack([X, Xt]), y)
        assert (np.abs(kernel_fit.held_out_losses(held, lams) - want) <= tol).all()
        want_pred = fit.predict(Xt, lams)
        scale = np.maximum(np.abs(want_pred - y.mean()), y.std())
        assert (np.abs(kernel_fit.predict(cross, lams) - want_pred) <= rel * scale).all()
        dof = np.array([[kernel_fit.dof(lam), fit.dof(lam)] for lam in lams])
        assert (np.abs(dof[:, 0] - dof[:, 1]) <= rel * np.maximum(dof[:, 1], 1)).all()

    def test_matches_the_per_fold_route_to_1e12_at_bench_shape(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((200, 600))
        y = X @ rng.standard_normal(600) + rng.standard_normal(200) * 5 + 50
        held = np.array_split(rng.permutation(200), 5)
        held = [np.sort(rows) for rows in held]
        lams = np.array([1e-8, 1e-4, 1.0, 1e2, 1e6])
        want = harness._ridge_losses(X, y, held, lams)[0]
        got = harness._RidgeFit(X, y).held_out_losses(held, lams)
        assert np.abs(got / want - 1).max() <= 1e-12
        # the kernel route, centred with 50 test images as a run centres them
        Xt = rng.standard_normal((50, 600)) + 3
        fit, cross = _kernel_fit(np.vstack([X, Xt]), y)
        assert np.abs(fit.held_out_losses(held, lams) / want - 1).max() <= 1e-12
        refit = harness._RidgeFit(X, y)
        assert _rel_err(fit.predict(cross, lams), refit.predict(Xt, lams)) <= 1e-12
        for lam in lams:
            assert fit.dof(lam) == pytest.approx(refit.dof(lam), rel=1e-12)

    @pytest.mark.parametrize("trials", [3, 30])
    @pytest.mark.parametrize("d, per_outer_fold", [(70, 1), (48, 1), (5, 6)])
    def test_factorizations_per_outer_fold(self, monkeypatch, d, per_outer_fold, trials):
        # 60 images leave 48 training rows per outer fold. d >= 48 forms one
        # kernel of all 60 images per run; below the rule's crossover (about
        # 7 trials at this shape) it factors that kernel once, above it each
        # fold's block of it once. d < 48 factors the 5 inner fit sets and
        # the training set.
        designs = _remember_designs(monkeypatch)
        kernels = _remember_kernels(monkeypatch)
        eighs = _count_eigh(monkeypatch)
        ids, features, mean_a = _linear_problem(60, d, noise=2.0, seed=12)
        run_nested_cv(make_cv_plan(ids, seed=21), _targets_from(mean_a), features,
                      default_spec(), n_trials=trials)
        if per_outer_fold == 6:
            assert len(designs) == len(eighs) == 25 * 6
            assert kernels == []
            assert {(X.shape[0], kernel) for _, X, _, kernel in designs} == {
                (38, False), (39, False), (48, False)}
            return
        assert kernels == [tuple(ids)]
        if trials == 3:
            assert designs == [] and eighs == [(59, 59)]
        else:
            assert len(designs) == len(eighs) == 25
            assert {(X.shape, kernel) for _, X, _, kernel in designs} == {((48, 48), True)}
            assert set(eighs) == {(47, 47)}

    def test_a_plan_straddling_d_n_routes_each_fold_by_its_width(self, monkeypatch):
        # 62 images at d = 49: the 10 outer folds with 49 training images take
        # the kernel route and factor their block of the one plan kernel; the
        # 15 with 50 factor their 5 inner fit sets of 40 and the training set
        assert _level_of(62, 49, 3) == "fold"
        designs = _remember_designs(monkeypatch)
        kernels = _remember_kernels(monkeypatch)
        ids, features, mean_a = _linear_problem(62, 49, noise=2.0, seed=12)
        plan = make_cv_plan(ids, seed=21)
        assert sorted(len(fp.train) for fp in plan.folds) == [49] * 10 + [50] * 15
        run_nested_cv(plan, _targets_from(mean_a), features, default_spec(), n_trials=3)
        assert kernels == [tuple(ids)]
        assert Counter((X.shape, kernel) for _, X, _, kernel in designs) == {
            ((49, 49), True): 10, ((40, 49), False): 75, ((50, 49), False): 15}

    def test_cli_bytes_match_the_per_fold_route(self, tmp_path, monkeypatch):
        cv = _cli_cv(tmp_path)
        chosen = cv(tmp_path / "chosen", 8)
        # 32 training rows per outer fold at d = 48: 8 trials are above the
        # rule's crossover, so the run factors each fold's kernel block
        assert _level_of(40, 48, 8) == "fold"
        rule = harness._factor_level
        monkeypatch.setattr(harness, "_factor_level", lambda *args: "run")
        assert cv(tmp_path / "per_run", 8) == chosen
        monkeypatch.setattr(harness, "_factor_level", rule)
        designs = _remember_designs(monkeypatch)
        kernels = _remember_kernels(monkeypatch)
        monkeypatch.setattr(harness, "_kernel_route", lambda features, n: False)
        assert cv(tmp_path / "per_fit_set", 8) == chosen
        # the forced route factors the 5 inner fit sets and the training set
        # from X, and forms no kernel
        assert len(designs) == 25 * 6
        assert kernels == [] and not any(kernel for *_, kernel in designs)

    def test_cli_bytes_do_not_depend_on_threads_per_run(self, tmp_path):
        cv = _cli_cv(tmp_path)
        assert _level_of(40, 48, 3) == "run"
        assert cv(tmp_path / "one", 3, "1") == cv(tmp_path / "two", 3, "2")

    def test_cli_bytes_do_not_depend_on_threads_straddling_d_n(self, tmp_path):
        cv = _cli_cv(tmp_path, images=62, dim=49)
        assert cv(tmp_path / "one", 3, "1") == cv(tmp_path / "two", 3, "2")


def _cli_cv(tmp_path, images=40, dim=48):
    """Synthesize ``images`` images at d = ``dim`` and split them; returns
    ``cv(out, trials, threads)``, the bytes of one ``cv`` run's artifacts."""
    synth, split = tmp_path / "synth", tmp_path / "split"
    assert main(["synth", "--out", str(synth), "--seed", "4", "--images", str(images),
                 "--raters", "8", "--dim", str(dim)]) == 0
    assert main(["split", "--out", str(split), "--seed", "4",
                 "--ratings", str(synth / "ratings.csv")]) == 0

    def cv(out, trials, threads="1"):
        assert main(["cv", "--out", str(out), "--trials", str(trials), "--threads", threads,
                     "--plan", str(split / "cv_plan.json"),
                     "--targets", str(split / "image_targets.csv"),
                     "--features", str(synth / "features.csv")]) == 0
        return {name: (out / name).read_bytes()
                for name in ("predictions.csv", "search_log.jsonl", "search_summary.json")}

    return cv


def _level_of(n_images, d, trials):
    """The factorization level the rule picks for a plan of ``n_images`` at
    feature dimension d."""
    ids = [f"i{k:03d}" for k in range(n_images)]
    features = FeatureTable.from_array(ids, np.zeros((n_images, d)))
    plan = make_cv_plan(ids, seed=0)
    return harness._factor_level(features, plan.folds, n_images, trials)


@st.composite
def _plan_case(draw):
    """A plan of N rows at d >= n, n the training rows, at any scale and
    offset, some rows repeated; 1..N-3 held-out rows, the training rows
    split into 2..6 inner folds of unequal sizes, and six penalties over
    the default range [1e-4, 1e2], both ends included."""
    N = draw(st.integers(4, 28))
    out = draw(st.integers(1, N - 3))
    n = N - out
    d = draw(st.integers(n, 2 * N + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-2, 2)
    X = scale * (rng.standard_normal((N, d)) + rng.uniform(-10, 10, d))
    copies = draw(st.integers(0, N // 2))
    X[rng.integers(0, N, copies)] = X[rng.integers(0, N, copies)]
    rows = rng.permutation(N)
    y = rng.uniform(0, 100, n)
    cuts = np.sort(rng.choice(np.arange(1, n), draw(st.integers(1, min(n, 6) - 1)),
                              replace=False))
    held = [np.sort(part) for part in np.split(rng.permutation(n), cuts)]
    lams = np.concatenate([[1e-4, 1e2], 10.0 ** rng.uniform(-4, 2, 4)])
    return X, np.sort(rows[out:]), np.sort(rows[:out]), y, held, lams


class TestPlanLevel:
    """Below the rule's crossover one factorization of the kernel of every
    planned image prices every outer fold; the per-fold level is the oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_plan_case())
    def test_matches_the_per_fold_route(self, case):
        X, fit, out, y, held, lams = case
        ids = [f"i{k:03d}" for k in range(len(X))]
        kernel = harness._kernel(FeatureTable.from_array(ids, X), ids)
        train, test = [ids[i] for i in fit], [ids[i] for i in out]
        fold = harness._RidgeFit(kernel(train, train), y, kernel=True)
        plan = harness._PlanFit(kernel, ids)
        losses, errors, refit = plan.fold(train, y, held, lams)
        assert errors == [None] * len(lams)
        # The bound of TestGroupedDeletion, at the larger condition number of
        # the two factorizations: the per-run level loses eps * cond of the
        # plan kernel, which exceeds the fold's when a held-out row (nearly)
        # repeats another row.
        cond = np.maximum(*((f.eig.max() + lams) / (f.eig.min() + lams) for f in (fold, plan)))
        rel = 1e-12 + 16 * np.finfo(float).eps * cond
        want = fold.held_out_losses(held, lams)
        assert (np.abs(losses - want) <= rel[:, None] * np.maximum(want, y.var())).all()
        got = [refit(test, t) for t in range(len(lams))]
        want_pred = fold.predict(kernel(train, test), lams)
        scale = np.maximum(np.abs(want_pred - y.mean()), y.std())
        assert (np.abs(np.array([p for p, _ in got]).T - want_pred) <= rel * scale).all()
        dof = np.array([[d, fold.dof(lam)] for (_, d), lam in zip(got, lams)])
        assert (np.abs(dof[:, 0] - dof[:, 1]) <= rel * np.maximum(dof[:, 1], 1)).all()

    def test_a_factorless_held_out_block_fails_its_trial_only(self, monkeypatch):
        ids, features, mean_a = _linear_problem(40, 50, noise=2.0, seed=5)
        plan, targets = make_cv_plan(ids, seed=9), _targets_from(mean_a)
        assert _level_of(40, 50, 3) == "run"
        _, want = run_nested_cv(plan, targets, features, default_spec(), n_trials=3)
        calls = []
        cholesky = np.linalg.cholesky

        def second_trial_fails(a):
            calls.append(None)
            if len(calls) % 3 == 2:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", second_trial_fails)
        _, log = run_nested_cv(plan, targets, features, default_spec(), n_trials=3)
        assert len(calls) == 25 * 3
        for got, ref in zip(log, want):
            if got["trial"] == 1:
                assert got["loss"] is None and not got["selected"]
                assert got["error"] == ("held-out block elimination failed: "
                                        "Matrix is not positive definite")
            else:
                assert got["loss"] == ref["loss"]

    @pytest.mark.parametrize("d, trials, level", [
        (768, 3, "run"), (768, 30, "fold"), (64, 3, "fit_set"), (64, 30, "fit_set")])
    def test_rule_at_the_paper_shape(self, d, trials, level):
        assert _level_of(313, d, trials) == level

    def test_crossover_at_the_paper_shape(self):
        # measured, CPU seconds per run against per outer fold, one thread:
        # 0.28 against 0.30 at 7 trials, 0.32 both at 8, 0.35 against 0.32 at 9
        assert [_level_of(313, 768, t) for t in range(1, 11)] == ["run"] * 7 + ["fold"] * 3
