"""Golden digests: every artifact of one small fixed workspace, hashed.

The workspace runs ``synth``, then every subcommand in pipeline order
(qc -> split -> cv -> metrics -> icc -> error-analysis -> overlap, plus
curve and prop-ci), then ``all`` on the same raw inputs. It runs from a
temporary directory so the paths recorded in manifests are relative, and
uses d = 6 features so BLAS threading cannot change any byte.

``run_manifest.json`` is hashed with its ``versions`` block removed.
When a digest differs, the failure message holds the complete
replacement for ``tests/golden/digests.json``: a change that alters
bytes on purpose refreshes the file by pasting it and says why in
CHANGES.md.
"""

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from spidereval.cli import main
from spidereval.ingest import BinaryMask, FloatGrid, write_float_grid, write_mask

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

SEED = "5"
TRIALS, SIZES, REPS, BOOTSTRAP = "4", "3,5", "10", "150"
HEATMAPS = ("inputs/heat_a", "inputs/heat_b")
MASKS = "inputs/masks"
CATEGORIES = "inputs/categories.csv"

# Directory of the chained subcommand that writes each artifact of `all`.
CHAIN = {
    "qc": ("qc_report.csv", "qc_summary.json", "ratings_filtered.csv"),
    "split": ("participant_split.json", "image_targets.csv", "cv_plan.json"),
    "cv": ("predictions.csv", "search_log.jsonl", "search_summary.json"),
    "metrics": ("metrics.csv", "metrics_by_repetition.csv"),
    "icc": ("icc_report.csv", "icc_summary.csv", "icc_full.json", "icc_curve.svg"),
    "errors": (
        "descriptives.csv", "omnibus.csv", "posthoc.csv", "top_criteria.json",
        "shares_texture.svg",
    ),
    "overlap": (
        "overlap.csv", "ttest.json", "representative_examples.json", "delta_vs_fear.csv",
    ),
}


def _run(argv):
    assert main(argv) == 0, argv


def _write_categories(predictions, targets):
    """'texture' follows each image's mean absolute error, so it ranks as
    a top criterion; 'eyes' is unrelated to the errors."""
    with open(targets, newline="") as fh:
        fear = {row["image_id"]: float(row["mean_b"]) for row in csv.DictReader(fh)}
    errors = {}
    with open(predictions, newline="") as fh:
        for row in csv.DictReader(fh):
            image = row["image_id"]
            errors.setdefault(image, []).append(abs(float(row["clipped"]) - fear[image]))
    mean_ae = {image: float(np.mean(v)) for image, v in errors.items()}
    cut = float(np.median(list(mean_ae.values())))
    with open(CATEGORIES, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id", "criterion", "category"])
        for k, image in enumerate(sorted(mean_ae)):
            writer.writerow([image, "texture", "hairy" if mean_ae[image] > cut else "smooth"])
            writer.writerow([image, "eyes", "visible" if k % 3 == 0 else "hidden"])


def _write_inputs(image_ids):
    rng = np.random.default_rng(11)
    for d in (MASKS,) + HEATMAPS:
        os.makedirs(d, exist_ok=True)
    for image in image_ids[:6]:
        bits = rng.uniform(size=(6, 8)) < 0.4
        bits[0, 0], bits[-1, -1] = True, False
        write_mask(BinaryMask(width=8, height=6, bits=bits), f"{MASKS}/{image}.pgm")
        for d in HEATMAPS:
            values = rng.uniform(0, 1, size=(6, 8)) + 0.5 * bits
            write_float_grid(FloatGrid(width=8, height=6, values=values), f"{d}/{image}.pfm")
    with open("inputs/points.csv", "w", newline="") as fh:
        fh.write("n,y\n50,13.533\n75,12.923\n100,12.101\n150,11.562\n"
                 "200,11.36\n250,11.336\n313,11.025\n")


def _build_workspace():
    _run(["synth", "--out", "synth", "--seed", SEED, "--images", "41", "--raters", "12",
          "--dim", "6", "--outliers", "2", "--offset", "25"])
    with open("synth/ratings.csv", newline="") as fh:
        image_ids = sorted({row["image_id"] for row in csv.DictReader(fh)})
    _write_inputs(image_ids)
    _run(["qc", "--out", "qc", "--ratings", "synth/ratings.csv"])
    _run(["split", "--out", "split", "--seed", SEED, "--ratings", "qc/ratings_filtered.csv"])
    _run(["cv", "--out", "cv", "--seed", SEED, "--plan", "split/cv_plan.json",
          "--targets", "split/image_targets.csv", "--features", "synth/features.csv",
          "--trials", TRIALS])
    _write_categories("cv/predictions.csv", "split/image_targets.csv")
    _run(["metrics", "--out", "metrics", "--predictions", "cv/predictions.csv",
          "--targets", "split/image_targets.csv"])
    _run(["icc", "--out", "icc", "--seed", SEED, "--ratings", "qc/ratings_filtered.csv",
          "--sizes", SIZES, "--reps", REPS])
    _run(["error-analysis", "--out", "errors", "--seed", SEED,
          "--predictions", "cv/predictions.csv", "--targets", "split/image_targets.csv",
          "--categories", CATEGORIES, "--bootstrap", BOOTSTRAP])
    _run(["overlap", "--out", "overlap", "--heatmaps", *HEATMAPS, "--masks", MASKS,
          "--targets", "split/image_targets.csv"])
    _run(["curve", "--out", "curve", "--points", "inputs/points.csv", "--form", "decay",
          "--model", "resnet", "--metric", "mae"])
    _run(["prop-ci", "--out", "prop_ci", "--successes", "419", "--n", "500"])
    _run(["all", "--out", "all", "--seed", SEED, "--ratings", "synth/ratings.csv",
          "--features", "synth/features.csv", "--categories", CATEGORIES,
          "--heatmaps", *HEATMAPS, "--masks", MASKS, "--trials", TRIALS,
          "--sizes", SIZES, "--reps", REPS, "--bootstrap", BOOTSTRAP])


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "run_manifest.json":
        doc = json.loads(data)
        del doc["versions"]
        data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        _build_workspace()
    return root


def test_artifact_digests(workspace):
    actual = {
        path.relative_to(workspace).as_posix(): _digest(path)
        for path in sorted(workspace.rglob("*"))
        if path.is_file()
    }
    expected = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    replacement = json.dumps(actual, indent=2, sort_keys=True) + "\n"
    changed = sorted(k for k in expected.keys() | actual.keys()
                     if expected.get(k) != actual.get(k))
    assert not changed, (
        f"artifact bytes changed: {changed}\n"
        f"replacement for {GOLDEN.relative_to(GOLDEN.parents[2])}:\n{replacement}"
    )


def test_json_floats_have_nine_significant_digits(workspace):
    """Every float in every JSON and JSONL artifact follows the CSV rule."""
    floats = []
    for path in sorted(workspace.rglob("*.json*")):
        text = path.read_text(encoding="utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_float=lambda t, p=path: floats.append((p.name, float(t))))
    assert len({name for name, _ in floats}) >= 8
    assert [(name, v) for name, v in floats if float("%.9g" % v) != v] == []


def test_all_matches_the_subcommand_chain(workspace):
    produced = {p.name for p in (workspace / "all").iterdir()} - {"run_manifest.json"}
    assert produced == {name for names in CHAIN.values() for name in names}
    for stage, names in CHAIN.items():
        for name in names:
            assert (workspace / "all" / name).read_bytes() == \
                (workspace / stage / name).read_bytes(), name
