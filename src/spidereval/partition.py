"""Dual-level partitioning: participant groups and image-level CV splits.

Participants are split once into two fixed, non-overlapping groups.
Group A means become the modeling targets; group B means are reserved
for evaluation so that no rating influences both sides. Images are then
partitioned by a repeated cross-validation plan that every trainer must
reuse verbatim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, InputError
from .ingest import InputFile, RatingsTable, rows_by_code, write_json
from .rng import check_seed, substream

__all__ = [
    "ParticipantSplit",
    "ImageTargets",
    "FoldPlan",
    "CvPlan",
    "split_participants",
    "image_group_means",
    "make_cv_plan",
    "leakage_audit",
    "assert_no_leakage",
    "write_cv_plan",
    "load_cv_plan",
]

N_REPETITIONS = 5
N_OUTER_FOLDS = 5
N_INNER_FOLDS = 5
VALIDATION_FRACTION = 0.20
INNER_SEARCH_SCOPE = "outer_training_set"


@dataclass(frozen=True)
class ParticipantSplit:
    group_a: frozenset[str]
    group_b: frozenset[str]
    seed: int

    def __post_init__(self) -> None:
        if self.group_a & self.group_b:
            raise ComputationError("participant groups overlap")


def split_participants(ids, seed: int) -> ParticipantSplit:
    """Deterministically halve the participant set.

    Ids are sorted, shuffled by a dedicated substream, and the first
    ``n // 2`` go to group A. With an odd count group B keeps the extra
    participant.
    """
    ordered = sorted(set(ids))
    if len(ordered) < 2:
        raise InputError("participant split needs at least 2 participants", field="ratings")
    rng = substream(seed, "participant_split")
    perm = rng.permutation(len(ordered))
    shuffled = [ordered[i] for i in perm]
    half = len(shuffled) // 2
    return ParticipantSplit(
        group_a=frozenset(shuffled[:half]),
        group_b=frozenset(shuffled[half:]),
        seed=seed,
    )


@dataclass(frozen=True)
class ImageTargets:
    """Per-image group means. Images lacking ratings in either group are
    dropped from modeling and listed in ``dropped``."""

    mean_a: dict[str, float]
    mean_b: dict[str, float]
    n_a: dict[str, int]
    n_b: dict[str, int]
    dropped: tuple[str, ...]

    @property
    def image_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.mean_a))


def image_group_means(table: RatingsTable, split: ParticipantSplit) -> ImageTargets:
    """Arithmetic mean rating per image, separately per participant group,
    each summed in participant order, the order of an image's table rows."""
    mean_a, mean_b, n_a, n_b, dropped = {}, {}, {}, {}, []
    # whether each row's participant is in group A, in group B
    in_a = np.array([pid in split.group_a for pid in table.participant_ids])[table.participant]
    in_b = np.array([pid in split.group_b for pid in table.participant_ids])[table.participant]
    for image_id, rows in zip(table.image_ids, rows_by_code(table.image, table.n_images)):
        a_vals = table.rating[rows[in_a[rows]]]
        b_vals = table.rating[rows[in_b[rows]]]
        if not a_vals.size or not b_vals.size:
            dropped.append(image_id)
            continue
        mean_a[image_id], mean_b[image_id] = float(np.mean(a_vals)), float(np.mean(b_vals))
        n_a[image_id], n_b[image_id] = len(a_vals), len(b_vals)
    return ImageTargets(
        mean_a=mean_a, mean_b=mean_b, n_a=n_a, n_b=n_b, dropped=tuple(dropped)
    )


@dataclass(frozen=True)
class FoldPlan:
    repetition: int
    fold: int
    train: tuple[str, ...]
    test: tuple[str, ...]
    validation: tuple[str, ...]
    inner: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class CvPlan:
    seed: int
    image_ids: tuple[str, ...]
    folds: tuple[FoldPlan, ...]
    n_repetitions: int = N_REPETITIONS
    n_outer_folds: int = N_OUTER_FOLDS
    n_inner_folds: int = N_INNER_FOLDS
    validation_fraction: float = VALIDATION_FRACTION
    inner_search_scope: str = INNER_SEARCH_SCOPE

    def fold_plan(self, repetition: int, fold: int) -> FoldPlan:
        return self.folds[repetition * self.n_outer_folds + fold]


def _partition(ids: list[str], n_parts: int) -> list[list[str]]:
    """Split ``ids`` (already shuffled) into parts whose sizes differ by <= 1."""
    parts = np.array_split(np.arange(len(ids)), n_parts)
    return [[ids[i] for i in part] for part in parts]


def make_cv_plan(image_ids, seed: int) -> CvPlan:
    """Construct the repeated nested cross-validation plan.

    Five repetitions of an independent shuffle, each partitioned into
    five outer folds. Every outer training set carries a seeded 20%
    internal validation subset, kept for trainers outside spidereval, and
    a five-way inner fold partition for the hyperparameter search. All
    stored id lists are sorted, so the plan is invariant to the input
    ordering of ``image_ids``.
    """
    ordered = sorted(set(image_ids))
    if len(ordered) < 25:
        raise InputError("cv plan needs at least 25 images", field="ratings")
    folds: list[FoldPlan] = []
    for rep in range(N_REPETITIONS):
        rep_rng = substream(seed, "cv.outer", rep)
        shuffled = [ordered[i] for i in rep_rng.permutation(len(ordered))]
        test_folds = _partition(shuffled, N_OUTER_FOLDS)
        for fold_idx in range(N_OUTER_FOLDS):
            test = set(test_folds[fold_idx])
            train = sorted(i for i in ordered if i not in test)
            val_rng = substream(seed, "cv.val", rep, fold_idx)
            val_order = [train[i] for i in val_rng.permutation(len(train))]
            n_val = int(len(train) * VALIDATION_FRACTION + 0.5)
            validation = sorted(val_order[:n_val])
            inner_rng = substream(seed, "cv.inner", rep, fold_idx)
            inner_order = [train[i] for i in inner_rng.permutation(len(train))]
            inner = tuple(
                tuple(sorted(part)) for part in _partition(inner_order, N_INNER_FOLDS)
            )
            folds.append(
                FoldPlan(
                    repetition=rep,
                    fold=fold_idx,
                    train=tuple(train),
                    test=tuple(sorted(test)),
                    validation=tuple(validation),
                    inner=inner,
                )
            )
    return CvPlan(seed=seed, image_ids=tuple(ordered), folds=tuple(folds))


def leakage_audit(plan: CvPlan, targets: ImageTargets | None = None) -> list[str]:
    """Collect structural and target-side leakage violations.

    Checks, per (repetition, fold): train/test disjointness and coverage,
    the validation subset and inner folds staying within the training
    set, each inner fold leaving images on both sides, and (when targets
    are given) that train images resolve to a group-A mean and test images
    to a group-B mean. Within a repetition every image must appear in
    exactly one test fold.
    """
    violations: list[str] = []
    all_ids = set(plan.image_ids)
    for rep in range(plan.n_repetitions):
        seen_test: dict[str, int] = {}
        for fold_idx in range(plan.n_outer_folds):
            fp = plan.fold_plan(rep, fold_idx)
            train, test = set(fp.train), set(fp.test)
            where = f"rep={rep} fold={fold_idx}"
            for image_id in sorted(train & test):
                violations.append(f"{where}: image {image_id} in both train and test")
            if train | test != all_ids:
                missing = sorted(all_ids - (train | test))
                violations.append(f"{where}: images missing from split: {missing}")
            for image_id in sorted(set(fp.validation) - train):
                violations.append(
                    f"{where}: validation image {image_id} outside training set"
                )
            inner_union: set[str] = set()
            for k, part in enumerate(fp.inner):
                inner_union.update(part)
                if not 0 < len(part) < len(train):
                    violations.append(f"{where}: inner fold {k} holds {len(part)} of "
                                      f"{len(train)} training images")
            if inner_union != train:
                violations.append(f"{where}: inner folds do not partition training set")
            if sum(len(part) for part in fp.inner) != len(train):
                violations.append(f"{where}: inner folds overlap")
            for image_id in fp.test:
                seen_test[image_id] = seen_test.get(image_id, 0) + 1
            if targets is not None:
                for image_id in sorted(set(fp.train) - set(targets.mean_a)):
                    violations.append(f"{where}: train image {image_id} lacks group-A mean")
                for image_id in sorted(set(fp.test) - set(targets.mean_b)):
                    violations.append(f"{where}: test image {image_id} lacks group-B mean")
        for image_id in sorted(all_ids):
            count = seen_test.get(image_id, 0)
            if count != 1:
                violations.append(
                    f"rep={rep}: image {image_id} appears in {count} test folds"
                )
    return violations


def assert_no_leakage(plan: CvPlan, targets: ImageTargets | None = None) -> None:
    violations = leakage_audit(plan, targets)
    if violations:
        raise ComputationError(
            "leakage audit failed: " + "; ".join(violations[:10])
            + (f" (+{len(violations) - 10} more)" if len(violations) > 10 else "")
        )


def write_cv_plan(path, plan: CvPlan) -> None:
    write_json(path, plan)


def load_cv_plan(path) -> CvPlan:
    """Read a plan written by :func:`write_cv_plan`, checking its shape:
    each image id once, one fold per (repetition, outer fold), in that
    order, and a seed that can key substreams."""
    src = InputFile(path, "plan")
    doc = src.read_json()

    def ids(seq) -> tuple:  # the plan's own id objects, not one copy per fold
        return tuple(same.get(i, i) for i in seq)

    try:
        same = {i: i for i in doc["image_ids"]}
        # each field in declaration order, cast to its type
        folds = tuple(
            FoldPlan(int(f["repetition"]), int(f["fold"]), ids(f["train"]), ids(f["test"]),
                     ids(f["validation"]), tuple(map(ids, f["inner"])))
            for f in doc["folds"]
        )
        plan = CvPlan(
            check_seed(int(doc["seed"])), tuple(doc["image_ids"]), folds,
            int(doc["n_repetitions"]), int(doc["n_outer_folds"]), int(doc["n_inner_folds"]),
            float(doc["validation_fraction"]), str(doc["inner_search_scope"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise src.error(f"malformed cv plan: {exc}") from exc
    if len(same) < len(plan.image_ids):
        repeated = [i for i, n in Counter(plan.image_ids).items() if n > 1]
        raise src.error(f"malformed cv plan: image_ids repeats {repeated[:5]}")
    n_outer = plan.n_outer_folds
    if (
        plan.n_repetitions < 1
        or n_outer < 1
        or len(folds) != plan.n_repetitions * n_outer
        or any((fp.repetition, fp.fold) != divmod(k, n_outer) for k, fp in enumerate(folds))
    ):
        raise src.error(
            f"malformed cv plan: folds must list (repetition, fold) for "
            f"{plan.n_repetitions} repetitions x {n_outer} outer folds in order, "
            f"got {len(folds)} folds"
        )
    return plan
