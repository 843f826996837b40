"""Benchmark workloads: seeded input generation, CLI arguments, oracles.

Each workload generates its inputs from the workload seed through the
package's public APIs (``spidereval.synth.generate`` and the ``ingest``
writers), untimed, into an input directory. The timed program receives
only those files. After a run, ``check`` compares the artifacts with
references the benchmark computes on its own (least-squares refits,
ANOVA, the synthetic variance components) within recorded tolerances,
so a later change that moves bytes in the last digits is not a failure.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from spidereval.ingest import (
    CRITERIA,
    BinaryMask,
    FloatGrid,
    RatingsTable,
    write_features,
    write_float_grid,
    write_mask,
    write_ratings,
)
from spidereval.outputs import write_image_targets
from spidereval.partition import (
    image_group_means,
    make_cv_plan,
    split_participants,
    write_cv_plan,
)
from spidereval.synth import SynthSpec, generate

# Variance components of every synthetic study (the SynthSpec defaults).
VAR_IMAGE, VAR_RATER, VAR_RESIDUAL = 100.0, 25.0, 25.0

# Tolerances of the oracle checks.
TOL_EXACT = 1e-6        # recomputed statistics against the CSV values (%.9g)
TOL_PRED = 1e-4         # ridge predictions against a least-squares refit
CI_WIDTH_RATIO = (0.5, 2.0)  # bootstrap CI width / normal-approximation width


@dataclass(frozen=True)
class Scale:
    images: int
    raters: int
    dim: int
    grid: int = 64          # heatmap and mask edge length
    outliers: int = 0
    trials: int | None = None     # None: the CLI default (30)
    bootstrap: int | None = None  # None: the CLI default (2000)
    reps: int | None = None       # None: the CLI default (100)
    threads: int = 1
    missing_fraction: float = 0.0


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def _synth(scale: Scale, seed: int, outlier_offset: float = 0.0):
    spec = SynthSpec(
        n_images=scale.images,
        n_raters=scale.raters,
        var_image=VAR_IMAGE,
        var_rater=VAR_RATER,
        var_residual=VAR_RESIDUAL,
        n_outliers=scale.outliers,
        outlier_offset=outlier_offset,
        feature_dim=scale.dim,
        seed=seed,
    )
    return generate(spec)


def _write_meta(inputs: str, meta: dict) -> None:
    with open(os.path.join(inputs, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def read_meta(inputs: str) -> dict:
    with open(os.path.join(inputs, "meta.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- input generators ----------------------------------------------------


def _write_categories(path: str, image_effects: dict[str, float], seed: int) -> None:
    """Labels for all 12 criteria. The first three follow the size of the
    image effect, so prediction error differs between their categories and
    the omnibus tests find something; the last has one rare category, so
    the small-cell path runs too."""
    rng = _rng(seed, 1)
    ids = sorted(image_effects)
    magnitude = np.array([abs(image_effects[i]) for i in ids])
    order = np.argsort(np.argsort(magnitude, kind="stable"), kind="stable")
    rows = []
    for c, criterion in enumerate(CRITERIA):
        k = 2 + c % 3
        if c < 3:
            labels = order * k // len(ids)
        elif c == len(CRITERIA) - 1:
            labels = (rng.random(len(ids)) < 0.03).astype(int)
        else:
            labels = rng.integers(0, k, size=len(ids))
        rows += [[image, criterion, f"cat{int(lab)}"] for image, lab in zip(ids, labels)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id", "criterion", "category"])
        writer.writerows(rows)


def _write_grids(inputs: str, image_ids, size: int, seed: int) -> tuple[list[str], str]:
    """Two heatmap directories and one mask directory. Each heatmap holds a
    bump centred on the image's elliptical mask plus noise, so activation
    is higher inside the mask."""
    rng = _rng(seed, 2)
    heat_dirs = [os.path.join(inputs, f"heatmaps{r}") for r in (1, 2)]
    mask_dir = os.path.join(inputs, "masks")
    for d in heat_dirs + [mask_dir]:
        os.makedirs(d)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    for image in image_ids:
        cx, cy = rng.uniform(0.3, 0.7, size=2) * size
        rx, ry = rng.uniform(0.1, 0.25, size=2) * size
        dist2 = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2
        bits = dist2 <= 1.0
        bits[int(cy), int(cx)] = True
        bits[0, 0] = False
        write_mask(BinaryMask(size, size, bits), os.path.join(mask_dir, image + ".pgm"))
        for d in heat_dirs:
            amp = rng.uniform(0.5, 1.5)
            noise = np.abs(rng.standard_normal((size, size))) * 0.3
            values = (amp * np.exp(-dist2 / 4.0) + noise).astype(np.float32)
            write_float_grid(
                FloatGrid(size, size, values.astype(np.float64)),
                os.path.join(d, image + ".pfm"),
            )
    return heat_dirs, mask_dir


def _drop_cells(table: RatingsTable, fraction: float, seed: int) -> RatingsTable:
    """Remove about ``fraction`` of the cells at random, keeping at least
    two ratings per image and one per rater."""
    rng = _rng(seed, 3)
    keep = rng.random(len(table.records)) >= fraction
    kept = RatingsTable(tuple(r for r, k in zip(table.records, keep) if k))
    per_image = {}
    for rec in kept.records:
        per_image[rec.image_id] = per_image.get(rec.image_id, 0) + 1
    if (
        kept.participant_index != table.participant_index
        or kept.image_index != table.image_index
        or min(per_image.values()) < 2
    ):
        raise RuntimeError("cell dropping emptied an image or a rater; pick a smaller fraction")
    return kept


# -- oracles ---------------------------------------------------------------


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_jsonl(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _read_features(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[0]: np.array(row[1:], dtype=np.float64) for row in reader}


def _read_ratings_matrix(path: str) -> np.ndarray:
    """Images x raters matrix (NaN for missing cells), first trials only."""
    rows = _read_csv(path)
    images = sorted({r["image_id"] for r in rows})
    raters = sorted({r["participant_id"] for r in rows})
    row = {im: i for i, im in enumerate(images)}
    col = {ra: j for j, ra in enumerate(raters)}
    values = np.full((len(images), len(raters)), np.nan)
    trial = np.full(values.shape, np.inf)
    for r in rows:
        i, j, t = row[r["image_id"]], col[r["participant_id"]], int(r["trial_index"])
        if t < trial[i, j]:
            values[i, j], trial[i, j] = float(r["rating"]), t
    return values


def anova_icc(values: np.ndarray) -> float:
    """ICC(2,k) by two-way mean imputation of missing cells (residual df
    reduced by one per imputed cell), written independently of the package."""
    missing = np.isnan(values)
    grand = np.nanmean(values)
    filled = np.where(
        missing,
        np.nanmean(values, axis=1)[:, None] + np.nanmean(values, axis=0)[None, :] - grand,
        values,
    )
    n, k = filled.shape
    g = filled.mean()
    r = filled.mean(axis=1)
    c = filled.mean(axis=0)
    bms = k * ((r - g) ** 2).sum() / (n - 1)
    jms = n * ((c - g) ** 2).sum() / (k - 1)
    resid = filled - r[:, None] - c[None, :] + g
    ems = (resid ** 2).sum() / ((n - 1) * (k - 1) - int(missing.sum()))
    return float((bms - ems) / (bms + (jms - ems) / n))


def model_icc(k: float) -> float:
    """ICC(2,k) implied by the synthetic variance components for k raters."""
    return VAR_IMAGE / (VAR_IMAGE + (VAR_RATER + VAR_RESIDUAL) / k)


def ridge_oracle(X: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    """Ridge with an unpenalized intercept as least squares on the
    augmented system [X 1; sqrt(lam) I 0] w = [y; 0]."""
    n, d = X.shape
    A = np.vstack([np.hstack([X, np.ones((n, 1))]),
                   np.hstack([np.sqrt(lam) * np.eye(d), np.zeros((d, 1))])])
    w = np.linalg.lstsq(A, np.concatenate([y, np.zeros(d)]), rcond=None)[0]
    return w[:d], float(w[d])


def icc_tolerance(icc: float, n_images: int, n_raters: int) -> float:
    """Allowed distance of an estimated ICC(2,k) from the model value: five
    standard errors from sampling the image and rater variances, since
    ICC = V / (V + E/k) moves by ICC (1 - ICC) times their relative error."""
    spread = np.sqrt(2.0 / (n_images - 1)) + np.sqrt(2.0 / (n_raters - 1))
    return 1e-3 + 5.0 * (1.0 - icc) * spread


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_predictions(problems, out, plan_path, targets_path, features_path, n_folds):
    """Predictions: one per (rep, image), clipping, and the raw values of
    the first ``n_folds`` folds against least-squares refits at the
    selected lambda. Search log: one selected trial per fold, at the
    lowest loss. The selected trial's loss of fold (0, 0) is recomputed."""
    preds = _read_csv(os.path.join(out, "predictions.csv"))
    log = _read_jsonl(os.path.join(out, "search_log.jsonl"))
    plan = _read_json(plan_path)
    targets = {r["image_id"]: float(r["mean_a"]) for r in _read_csv(targets_path)}
    features = _read_features(features_path)
    seen = {}
    for p in preds:
        key = (p["rep"], p["image_id"])
        seen[key] = seen.get(key, 0) + 1
        raw, clipped = float(p["raw"]), float(p["clipped"])
        if not _close(clipped, min(100.0, max(0.0, raw)), TOL_EXACT):
            problems.append(f"prediction {key}: clipped {clipped} != clip({raw})")
    expected = {(str(f["repetition"]), i) for f in plan["folds"] for i in f["test"]}
    if set(seen) != expected or max(seen.values()) != 1:
        problems.append("predictions do not cover each (repetition, image) exactly once")
    winners = {}
    for rec in log:
        if rec["selected"]:
            key = (rec["repetition"], rec["fold"])
            if key in winners:
                problems.append(f"search log selects two trials for fold {key}")
            winners[key] = rec
    for key, win in winners.items():
        losses = [r["loss"] for r in log if (r["repetition"], r["fold"]) == key and r["loss"] is not None]
        if win["loss"] != min(losses):
            problems.append(f"fold {key}: selected loss {win['loss']} is not the minimum")
    if len(winners) != len(plan["folds"]):
        problems.append(f"search log selects {len(winners)} trials for {len(plan['folds'])} folds")
        return
    by_fold = {(str(p["rep"]), int(p["fold"]), p["image_id"]): float(p["raw"]) for p in preds}

    def design(ids):
        return np.stack([features[i] for i in ids]), np.array([targets[i] for i in ids])

    for fp in plan["folds"][:n_folds]:
        lam = winners[(fp["repetition"], fp["fold"])]["params"]["lambda"]
        w, b = ridge_oracle(*design(fp["train"]), lam)
        X_test = np.stack([features[i] for i in fp["test"]])
        for image, value in zip(fp["test"], X_test @ w + b):
            got = by_fold[(str(fp["repetition"]), fp["fold"], image)]
            if abs(got - value) > TOL_PRED:
                problems.append(f"fold {fp['repetition']}/{fp['fold']} image {image}: "
                                f"raw prediction {got} != refit {value}")
                break
    fp = plan["folds"][0]
    win = winners[(fp["repetition"], fp["fold"])]
    losses = []
    for held in fp["inner"]:
        fit_ids = [i for i in fp["train"] if i not in set(held)]
        w, b = ridge_oracle(*design(fit_ids), win["params"]["lambda"])
        Xv, yv = design(sorted(held))
        losses.append(float(np.mean((Xv @ w + b - yv) ** 2)))
    if not _close(win["loss"], float(np.mean(losses)), 1e-5):
        problems.append(f"fold 0/0: selected loss {win['loss']} != refit loss {np.mean(losses)}")


def check_metrics(problems, out, targets_path):
    """metrics.csv and metrics_by_repetition.csv against a recomputation
    from predictions.csv and the group-B targets."""
    targets = {r["image_id"]: float(r["mean_b"]) for r in _read_csv(targets_path)}
    ids = sorted(targets)
    obs = np.array([targets[i] for i in ids])
    per_rep: dict[str, dict[str, float]] = {}
    for p in _read_csv(os.path.join(out, "predictions.csv")):
        per_rep.setdefault(p["rep"], {})[p["image_id"]] = float(p["clipped"])

    def scores(pred):
        err = pred - obs
        return (float(np.abs(err).mean()), float(np.sqrt((err ** 2).mean())),
                float(1.0 - (err ** 2).sum() / ((obs - obs.mean()) ** 2).sum()))

    rep_scores = {rep: scores(np.array([v[i] for i in ids])) for rep, v in per_rep.items()}
    for row in _read_csv(os.path.join(out, "metrics_by_repetition.csv")):
        want = rep_scores[row["rep"]]
        got = (float(row["mae"]), float(row["rmse"]), float(row["r2"]))
        if not all(_close(g, w, TOL_EXACT) for g, w in zip(got, want)):
            problems.append(f"metrics for repetition {row['rep']}: {got} != {want}")
    mean = np.mean(list(rep_scores.values()), axis=0)
    ens = scores(np.mean([[v[i] for i in ids] for v in per_rep.values()], axis=0))
    (row,) = _read_csv(os.path.join(out, "metrics.csv"))
    got = [float(row[k]) for k in ("mae", "rmse", "r2", "mae_ens", "rmse_ens", "r2_ens")]
    want = [*mean, *ens]
    if not all(_close(g, w, TOL_EXACT) for g, w in zip(got, want)):
        problems.append(f"metrics.csv {got} != recomputed {want}")


def check_icc(problems, out, ratings_path, sizes_expected: int, reps: int):
    """icc_full.json against an independent ANOVA of the ratings and
    against the model value; per-size bootstrap means against the model."""
    values = _read_ratings_matrix(ratings_path)
    full = _read_json(os.path.join(out, "icc_full.json"))
    if full["n_raters"] != values.shape[1] or full["n_images"] != values.shape[0]:
        problems.append(f"icc_full.json shape {full['n_images']}x{full['n_raters']} "
                        f"!= ratings {values.shape}")
    if not _close(full["icc2k"], anova_icc(values), TOL_EXACT):
        problems.append(f"icc2k {full['icc2k']} != recomputed {anova_icc(values)}")
    # Missing cells shrink each image's rater count to about (1 - share) k.
    n, k = values.shape
    keep = 1.0 - np.isnan(values).mean()
    want = model_icc(k * keep)
    if abs(full["icc2k"] - want) > icc_tolerance(want, n, k):
        problems.append(f"icc2k {full['icc2k']} is not within {icc_tolerance(want, n, k)} "
                        f"of the model value {want}")
    summary = _read_csv(os.path.join(out, "icc_summary.csv"))
    if len(summary) != sizes_expected:
        problems.append(f"icc_summary.csv has {len(summary)} sizes, expected {sizes_expected}")
    for row in summary:
        s, mean = int(row["size"]), float(row["mean"])
        want = model_icc(s * keep)
        if abs(mean - want) > icc_tolerance(want, n, k):
            problems.append(f"bootstrap ICC mean {mean} at size {s} is not within "
                            f"{icc_tolerance(want, n, k)} of the model value {want}")
    n_rows = len(_read_csv(os.path.join(out, "icc_report.csv")))
    if n_rows != sizes_expected * reps:
        problems.append(f"icc_report.csv has {n_rows} rows, expected {sizes_expected * reps}")


def check_error_analysis(problems, out, targets_path, categories_path):
    """descriptives.csv against a recomputation of n, mean error and share
    per category; each bootstrap CI contains its point estimate and has a
    width near the normal approximation."""
    targets = {r["image_id"]: float(r["mean_b"]) for r in _read_csv(targets_path)}
    clipped: dict[str, list[float]] = {}
    for p in _read_csv(os.path.join(out, "predictions.csv")):
        clipped.setdefault(p["image_id"], []).append(float(p["clipped"]))
    err = {i: float(np.mean([abs(c - targets[i]) for c in clipped[i]])) for i in targets}
    labels = {(r["image_id"], r["criterion"]): r["category"] for r in _read_csv(categories_path)}
    rows = _read_csv(os.path.join(out, "descriptives.csv"))
    if {r["criterion"] for r in rows} != set(CRITERIA):
        problems.append("descriptives.csv does not cover all criteria")
    total = sum(err.values())
    for row in rows:
        v = np.array([e for i, e in err.items() if labels[(i, row["criterion"])] == row["category"]])
        want = (len(v), float(v.mean()), float(v.sum()) / total)
        got = (int(row["n"]), float(row["mean_ae"]), float(row["share"]))
        if got[0] != want[0] or not all(_close(g, w, TOL_EXACT) for g, w in zip(got[1:], want[1:])):
            problems.append(f"descriptives {row['criterion']}/{row['category']}: {got} != {want}")
            continue
        low, high = float(row["mean_ci_low"]), float(row["mean_ci_high"])
        if not low - TOL_EXACT <= want[1] <= high + TOL_EXACT:
            problems.append(f"mean CI [{low}, {high}] of {row['criterion']}/{row['category']} "
                            f"misses the mean {want[1]}")
        if len(v) >= 10:
            normal = 2 * 1.96 * v.std() / np.sqrt(len(v))
            ratio = (high - low) / normal
            if not CI_WIDTH_RATIO[0] <= ratio <= CI_WIDTH_RATIO[1]:
                problems.append(f"mean CI of {row['criterion']}/{row['category']} is "
                                f"{ratio:.2f} times the normal-approximation width")
        s_low, s_high = float(row["share_ci_low"]), float(row["share_ci_high"])
        if not s_low - TOL_EXACT <= want[2] <= s_high + TOL_EXACT:
            problems.append(f"share CI [{s_low}, {s_high}] of {row['criterion']}/"
                            f"{row['category']} misses the share {want[2]}")


def check_overlap(problems, out):
    """ttest.json against the paired t statistic of overlap.csv; the
    generated heatmaps put more activation inside the masks."""
    deltas = np.array([float(r["delta"]) for r in _read_csv(os.path.join(out, "overlap.csv"))])
    doc = _read_json(os.path.join(out, "ttest.json"))
    t = deltas.mean() / (deltas.std(ddof=1) / np.sqrt(len(deltas)))
    if doc["n"] != len(deltas) or not _close(doc["t"], float(t), TOL_EXACT):
        problems.append(f"ttest.json t={doc['t']} n={doc['n']} != recomputed {t} n={len(deltas)}")
    if not (doc["mean_diff"] > 0 and doc["one_sided_p"] < 1e-3):
        problems.append(f"overlap test finds no excess inside the masks: {doc}")


# -- workloads -------------------------------------------------------------


class Workload:
    name: str
    why: str
    scales: dict[str, Scale]

    def generate(self, inputs: str, seed: int, scale: Scale) -> None:
        raise NotImplementedError

    def cli_args(self, inputs: str, out: str, seed: int, scale: Scale) -> list[str]:
        raise NotImplementedError

    def check(self, inputs: str, out: str, scale: Scale) -> list[str]:
        raise NotImplementedError


def _n_default_sizes(raters: int) -> int:
    """How many of the CLI's default ICC subsample sizes (10, 20, ..., 80)
    fit the rater count; the CLI falls back to one size when none does."""
    return max(1, sum(1 for s in range(10, 81, 10) if s <= raters))


class PipelineD64(Workload):
    name = "pipeline_d64"
    why = ("spidereval all --threads 1 at 313 images x 148 raters, d=64, with categories, "
           "heatmaps and masks: every layer works; single-threaded end-to-end baseline")
    scales = {
        "paper": Scale(images=313, raters=148, dim=64, outliers=4),
        "tiny": Scale(images=40, raters=12, dim=8, grid=16, outliers=1,
                      trials=3, bootstrap=200, reps=10),
    }
    OUTLIER_OFFSET = 30.0

    def generate(self, inputs, seed, scale):
        table, features, truth = _synth(scale, seed, self.OUTLIER_OFFSET)
        write_ratings(table, os.path.join(inputs, "ratings.csv"))
        write_features(features, os.path.join(inputs, "features.csv"))
        _write_categories(os.path.join(inputs, "categories.csv"), truth.image_effects, seed)
        _write_grids(inputs, sorted(truth.image_effects), scale.grid, seed)
        _write_meta(inputs, {"outliers": sorted(truth.outlier_ids)})

    def cli_args(self, inputs, out, seed, scale):
        p = lambda name: os.path.join(inputs, name)  # noqa: E731
        args = ["all", "--out", out, "--seed", str(seed), "--threads", str(scale.threads),
                "--ratings", p("ratings.csv"), "--features", p("features.csv"),
                "--categories", p("categories.csv"),
                "--heatmaps", p("heatmaps1"), p("heatmaps2"), "--masks", p("masks")]
        return args + _sized_args(scale)

    def check(self, inputs, out, scale):
        problems: list[str] = []
        summary = _read_json(os.path.join(out, "qc_summary.json"))
        missed = set(read_meta(inputs)["outliers"]) - set(summary["excluded"])
        if missed:
            problems.append(f"QC kept the outlier raters {sorted(missed)}")
        targets = os.path.join(out, "image_targets.csv")
        check_predictions(problems, out, os.path.join(out, "cv_plan.json"), targets,
                          os.path.join(inputs, "features.csv"), n_folds=5)
        check_metrics(problems, out, targets)
        check_icc(problems, out, os.path.join(out, "ratings_filtered.csv"),
                  _n_default_sizes(scale.raters - len(summary["excluded"])), scale.reps or 100)
        check_error_analysis(problems, out, targets, os.path.join(inputs, "categories.csv"))
        check_overlap(problems, out)
        return problems


class SearchD768(Workload):
    name = "search_d768"
    why = ("spidereval cv --threads 2 at d=768 on a prepared plan: ridge solver and thread "
           "pool; bypasses error analysis, reliability, QC and ratings ingest")
    scales = {
        "paper": Scale(images=313, raters=148, dim=768, trials=3, threads=2),
        "tiny": Scale(images=40, raters=12, dim=32, trials=2, threads=2),
    }

    def generate(self, inputs, seed, scale):
        table, features, _ = _synth(scale, seed)
        write_features(features, os.path.join(inputs, "features.csv"))
        split = split_participants(sorted(table.participant_index), seed)
        targets = image_group_means(table, split)
        write_image_targets(os.path.join(inputs, "image_targets.csv"), targets)
        write_cv_plan(os.path.join(inputs, "cv_plan.json"), make_cv_plan(targets.image_ids, seed))

    def cli_args(self, inputs, out, seed, scale):
        p = lambda name: os.path.join(inputs, name)  # noqa: E731
        return ["cv", "--out", out, "--seed", str(seed), "--threads", str(scale.threads),
                "--plan", p("cv_plan.json"), "--targets", p("image_targets.csv"),
                "--features", p("features.csv"), "--trials", str(scale.trials)]

    def check(self, inputs, out, scale):
        problems: list[str] = []
        check_predictions(problems, out, os.path.join(inputs, "cv_plan.json"),
                          os.path.join(inputs, "image_targets.csv"),
                          os.path.join(inputs, "features.csv"), n_folds=2)
        n_log = len(_read_jsonl(os.path.join(out, "search_log.jsonl")))
        if n_log != 25 * scale.trials:
            problems.append(f"search log has {n_log} records, expected {25 * scale.trials}")
        return problems


class IccMissing(Workload):
    name = "icc_missing"
    why = ("spidereval icc --missing impute at 313 x 148 with ~15% of cells missing: the "
           "imputation path of icc2k and subset_raters; bypasses the harness and error analysis")
    scales = {
        "paper": Scale(images=313, raters=148, dim=0, reps=400, missing_fraction=0.15),
        "tiny": Scale(images=40, raters=12, dim=0, reps=20, missing_fraction=0.15),
    }

    def generate(self, inputs, seed, scale):
        table, _, _ = _synth(scale, seed)
        table = _drop_cells(table, scale.missing_fraction, seed)
        write_ratings(table, os.path.join(inputs, "ratings.csv"))

    def cli_args(self, inputs, out, seed, scale):
        return ["icc", "--out", out, "--seed", str(seed), "--missing", "impute",
                "--ratings", os.path.join(inputs, "ratings.csv"), "--reps", str(scale.reps)]

    def check(self, inputs, out, scale):
        problems: list[str] = []
        check_icc(problems, out, os.path.join(inputs, "ratings.csv"),
                  _n_default_sizes(scale.raters), scale.reps)
        return problems


def _sized_args(scale: Scale) -> list[str]:
    args = []
    for flag, value in (("--trials", scale.trials), ("--bootstrap", scale.bootstrap),
                        ("--reps", scale.reps)):
        if value is not None:
            args += [flag, str(value)]
    return args


WORKLOADS = {w.name: w for w in (PipelineD64(), SearchD768(), IccMissing())}
