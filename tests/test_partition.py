import collections

import pytest

from spidereval.errors import ComputationError, InputError
from spidereval.ingest import RatingRecord, RatingsTable
from spidereval.partition import (
    CvPlan,
    FoldPlan,
    assert_no_leakage,
    image_group_means,
    leakage_audit,
    load_cv_plan,
    make_cv_plan,
    split_participants,
    write_cv_plan,
)

IDS_148 = [f"p{i:03d}" for i in range(148)]
IMAGES_313 = [f"img{i:03d}" for i in range(313)]


class TestSplitParticipants:
    def test_even_halves(self):
        split = split_participants(IDS_148, seed=1)
        assert len(split.group_a) == 74
        assert len(split.group_b) == 74
        assert split.group_a | split.group_b == set(IDS_148)
        assert not split.group_a & split.group_b

    def test_odd_count_gives_b_the_extra(self):
        split = split_participants([f"p{i}" for i in range(7)], seed=0)
        assert len(split.group_a) == 3
        assert len(split.group_b) == 4

    def test_deterministic(self):
        a = split_participants(IDS_148, seed=5)
        b = split_participants(IDS_148, seed=5)
        assert a == b

    def test_seed_changes_assignment(self):
        a = split_participants(IDS_148, seed=5)
        b = split_participants(IDS_148, seed=6)
        assert a.group_a != b.group_a

    def test_input_order_irrelevant(self):
        a = split_participants(IDS_148, seed=5)
        b = split_participants(list(reversed(IDS_148)), seed=5)
        assert a == b

    def test_needs_two(self):
        with pytest.raises(InputError):
            split_participants(["p1"], seed=0)


class TestImageGroupMeans:
    def test_means_by_group(self):
        table = RatingsTable(tuple(RatingRecord(*r) for r in [
            ("a1", "i1", 1, 10.0),
            ("a2", "i1", 1, 20.0),
            ("b1", "i1", 1, 50.0),
            ("a1", "i2", 1, 30.0),
            ("b1", "i2", 1, 70.0),
            ("b2", "i2", 1, 90.0),
            ("a1", "i3", 1, 40.0),  # nobody from group B rated i3
        ]))
        from spidereval.partition import ParticipantSplit
        split = ParticipantSplit(group_a=frozenset({"a1", "a2"}),
                                 group_b=frozenset({"b1", "b2"}), seed=0)
        targets = image_group_means(table, split)
        assert targets.mean_a == {"i1": 15.0, "i2": 30.0}
        assert targets.mean_b == {"i1": 50.0, "i2": 80.0}
        assert targets.n_a == {"i1": 2, "i2": 1}
        assert targets.n_b == {"i1": 1, "i2": 2}
        assert targets.dropped == ("i3",)
        assert targets.image_ids == ("i1", "i2")


class TestMakeCvPlan:
    def test_fold_sizes_differ_by_at_most_one(self):
        plan = make_cv_plan(IMAGES_313, seed=42)
        for rep in range(5):
            sizes = sorted(len(plan.fold_plan(rep, f).test) for f in range(5))
            assert sizes == [62, 62, 63, 63, 63]

    def test_each_image_tested_once_per_repetition(self):
        plan = make_cv_plan(IMAGES_313, seed=42)
        for rep in range(5):
            counts = collections.Counter()
            for f in range(5):
                counts.update(plan.fold_plan(rep, f).test)
            assert set(counts) == set(IMAGES_313)
            assert set(counts.values()) == {1}

    def test_validation_subset_size(self):
        plan = make_cv_plan(IMAGES_313, seed=42)
        for fp in plan.folds:
            assert len(fp.validation) == int(len(fp.train) * 0.2 + 0.5)
            assert set(fp.validation) <= set(fp.train)

    def test_inner_folds_partition_training_set(self):
        plan = make_cv_plan(IMAGES_313, seed=42)
        for fp in plan.folds:
            flattened = [i for part in fp.inner for i in part]
            assert sorted(flattened) == sorted(fp.train)
            sizes = [len(part) for part in fp.inner]
            assert max(sizes) - min(sizes) <= 1

    def test_memberships_are_sorted(self):
        plan = make_cv_plan(IMAGES_313, seed=42)
        assert plan.image_ids == tuple(sorted(IMAGES_313))
        for fp in plan.folds:
            assert list(fp.train) == sorted(fp.train)
            assert list(fp.test) == sorted(fp.test)
            assert list(fp.validation) == sorted(fp.validation)
            for part in fp.inner:
                assert list(part) == sorted(part)

    def test_deterministic_and_order_insensitive(self):
        a = make_cv_plan(IMAGES_313, seed=9)
        b = make_cv_plan(list(reversed(IMAGES_313)), seed=9)
        assert a == b

    def test_repetitions_differ(self):
        plan = make_cv_plan(IMAGES_313, seed=9)
        assert plan.fold_plan(0, 0).test != plan.fold_plan(1, 0).test

    def test_too_few_images_rejected(self):
        with pytest.raises(InputError):
            make_cv_plan([f"i{k}" for k in range(4)], seed=0)


class TestLeakageAudit:
    def test_clean_plans_across_seeds(self):
        images = [f"i{k:03d}" for k in range(41)]
        for seed in range(100):
            plan = make_cv_plan(images, seed=seed)
            assert leakage_audit(plan) == []

    def test_clean_plan_with_targets(self):
        plan = make_cv_plan(IMAGES_313, seed=3)
        targets = _full_targets(IMAGES_313)
        assert leakage_audit(plan, targets) == []
        assert_no_leakage(plan, targets)

    def test_train_test_overlap_detected(self):
        plan = make_cv_plan(IMAGES_313, seed=3)
        fp = plan.folds[0]
        bad_fold = FoldPlan(
            repetition=fp.repetition, fold=fp.fold,
            train=tuple(sorted(fp.train + (fp.test[0],))),
            test=fp.test, validation=fp.validation, inner=fp.inner,
        )
        bad = _replace_fold(plan, 0, bad_fold)
        violations = leakage_audit(bad)
        assert violations
        assert any(fp.test[0] in v for v in violations)
        with pytest.raises(ComputationError):
            assert_no_leakage(bad)

    def test_validation_outside_train_detected(self):
        plan = make_cv_plan(IMAGES_313, seed=3)
        fp = plan.folds[2]
        outsider = fp.test[0]
        bad_fold = FoldPlan(
            repetition=fp.repetition, fold=fp.fold, train=fp.train,
            test=fp.test,
            validation=tuple(sorted(fp.validation[:-1] + (outsider,))),
            inner=fp.inner,
        )
        violations = leakage_audit(_replace_fold(plan, 2, bad_fold))
        assert any("validation" in v for v in violations)

    def test_incomplete_test_coverage_detected(self):
        plan = make_cv_plan(IMAGES_313, seed=3)
        fp = plan.folds[4]
        bad_fold = FoldPlan(
            repetition=fp.repetition, fold=fp.fold, train=fp.train,
            test=fp.test[:-1], validation=fp.validation, inner=fp.inner,
        )
        violations = leakage_audit(_replace_fold(plan, 4, bad_fold))
        assert violations

    def test_inner_not_partition_detected(self):
        plan = make_cv_plan(IMAGES_313, seed=3)
        fp = plan.folds[1]
        inner = list(list(p) for p in fp.inner)
        inner[0] = inner[0][:-1]  # lose one training image
        bad_fold = FoldPlan(
            repetition=fp.repetition, fold=fp.fold, train=fp.train,
            test=fp.test, validation=fp.validation,
            inner=tuple(tuple(p) for p in inner),
        )
        violations = leakage_audit(_replace_fold(plan, 1, bad_fold))
        assert any("inner" in v for v in violations)

    @pytest.mark.parametrize("merge", ["one_empty", "all_in_one"])
    def test_inner_fold_leaving_nothing_on_one_side_detected(self, merge):
        # the parts still partition the training set, so only this check fires
        plan = make_cv_plan(IMAGES_313, seed=3)
        fp = plan.folds[6]
        if merge == "one_empty":
            inner = (fp.inner[0] + fp.inner[2],) + fp.inner[1:2] + ((),) + fp.inner[3:]
            count, k = 0, 2
        else:
            inner, count, k = (fp.train,), len(fp.train), 0
        bad_fold = FoldPlan(
            repetition=fp.repetition, fold=fp.fold, train=fp.train,
            test=fp.test, validation=fp.validation, inner=inner,
        )
        assert leakage_audit(_replace_fold(plan, 6, bad_fold)) == [
            f"rep=1 fold=1: inner fold {k} holds {count} of {len(fp.train)} training images"
        ]

    def test_missing_target_detected(self):
        plan = make_cv_plan(IMAGES_313, seed=3)
        targets = _full_targets(IMAGES_313[:-1])
        violations = leakage_audit(plan, targets)
        assert any(IMAGES_313[-1] in v for v in violations)


def _full_targets(images):
    from spidereval.partition import ImageTargets
    return ImageTargets(
        mean_a={i: 50.0 for i in images},
        mean_b={i: 55.0 for i in images},
        n_a={i: 3 for i in images},
        n_b={i: 3 for i in images},
        dropped=(),
    )


def _replace_fold(plan, index, fold):
    folds = list(plan.folds)
    folds[index] = fold
    return CvPlan(
        seed=plan.seed, image_ids=plan.image_ids, folds=tuple(folds),
        n_repetitions=plan.n_repetitions, n_outer_folds=plan.n_outer_folds,
        n_inner_folds=plan.n_inner_folds,
        validation_fraction=plan.validation_fraction,
        inner_search_scope=plan.inner_search_scope,
    )


class TestPlanSerialization:
    def test_round_trip(self, tmp_path):
        plan = make_cv_plan([f"i{k:02d}" for k in range(37)], seed=11)
        path = tmp_path / "cv_plan.json"
        write_cv_plan(path, plan)
        loaded = load_cv_plan(path)
        assert loaded == plan
        assert leakage_audit(loaded) == []

    def test_loaded_folds_hold_the_plan_id_objects(self, tmp_path):
        plan = make_cv_plan([f"i{k:02d}" for k in range(37)], seed=11)
        path = tmp_path / "cv_plan.json"
        write_cv_plan(path, plan)
        loaded = load_cv_plan(path)
        own = {i: i for i in loaded.image_ids}
        for fp in loaded.folds:
            for part in (fp.train, fp.test, fp.validation, *fp.inner):
                assert all(i is own[i] for i in part)

    def test_scope_recorded(self, tmp_path):
        plan = make_cv_plan([f"i{k:02d}" for k in range(37)], seed=11)
        path = tmp_path / "cv_plan.json"
        write_cv_plan(path, plan)
        assert '"inner_search_scope": "outer_training_set"' in path.read_text()
