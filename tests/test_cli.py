"""Subcommand smoke tests through main(argv), plus error-path contracts."""

import ast
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spidereval
from spidereval.cli import main
from spidereval.ingest import BinaryMask, FloatGrid, write_float_grid, write_mask
from spidereval.outputs import sha256_file
from spidereval.partition import split_participants

SIZES_313 = [50, 75, 100, 150, 200, 250, 313]
MAE_SERIES = [13.533, 12.923, 12.101, 11.562, 11.360, 11.336, 11.025]


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic ratings/features plus derived artifacts, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    synth = root / "synth"
    assert main([
        "synth", "--out", str(synth), "--seed", "5",
        "--images", "41", "--raters", "12", "--dim", "6",
    ]) == 0
    qc = root / "qc"
    assert main(["qc", "--out", str(qc), "--ratings", str(synth / "ratings.csv")]) == 0
    split = root / "split"
    assert main([
        "split", "--out", str(split), "--seed", "5",
        "--ratings", str(qc / "ratings_filtered.csv"),
    ]) == 0
    cv = root / "cv"
    assert main([
        "cv", "--out", str(cv),
        "--plan", str(split / "cv_plan.json"),
        "--targets", str(split / "image_targets.csv"),
        "--features", str(synth / "features.csv"),
        "--trials", "5",
    ]) == 0
    return {
        "root": root,
        "ratings": synth / "ratings.csv",
        "features": synth / "features.csv",
        "filtered": qc / "ratings_filtered.csv",
        "plan": split / "cv_plan.json",
        "targets": split / "image_targets.csv",
        "predictions": cv / "predictions.csv",
    }


def _write_categories(path, image_ids):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id", "criterion", "category"])
        for k, image in enumerate(sorted(image_ids)):
            writer.writerow([image, "texture", "smooth" if k % 2 == 0 else "hairy"])
            writer.writerow([image, "eyes", "visible" if k < 3 else "hidden"])


def _write_overlap_inputs(root, image_ids, seed=3):
    rng = np.random.default_rng(seed)
    dirs = {"masks": root / "masks", "heat_a": root / "heat_a", "heat_b": root / "heat_b"}
    for d in dirs.values():
        d.mkdir(exist_ok=True)
    for image in image_ids:
        bits = rng.uniform(size=(6, 8)) < 0.4
        bits[0, 0], bits[-1, -1] = True, False
        write_mask(BinaryMask(width=8, height=6, bits=bits), dirs["masks"] / f"{image}.pgm")
        for key in ("heat_a", "heat_b"):
            values = rng.uniform(0, 1, size=(6, 8)) + 0.5 * bits
            write_float_grid(
                FloatGrid(width=8, height=6, values=values), dirs[key] / f"{image}.pfm"
            )
    return dirs


def _image_ids(workspace):
    with open(workspace["targets"], newline="") as fh:
        return [row[0] for row in list(csv.reader(fh))[1:]]


@pytest.fixture(scope="module")
def inputs(workspace, tmp_path_factory):
    """A valid file (or directory) for every file option of the commands below."""
    root = tmp_path_factory.mktemp("inputs")
    cats = root / "categories.csv"
    _write_categories(cats, _image_ids(workspace))
    points = root / "points.csv"
    points.write_text("n,y\n" + "".join(f"{n},{y}\n" for n, y in zip(SIZES_313, MAE_SERIES)))
    config = root / "config.json"
    config.write_text('{"trials": 2}\n')
    dirs = _write_overlap_inputs(root, _image_ids(workspace)[:3])
    return {**workspace, "categories": cats, "points": points, "config": config,
            "masks": dirs["masks"], "heatmaps": dirs["heat_a"]}


# One command line per subcommand that reads files; "{x}" stands for the
# file of option x.
COMMAND_LINES = {
    "qc": ["qc", "--ratings", "{ratings}"],
    "split": ["split", "--seed", "5", "--ratings", "{ratings}"],
    "cv": ["cv", "--config", "{config}", "--plan", "{plan}", "--targets", "{targets}",
           "--features", "{features}"],
    "metrics": ["metrics", "--predictions", "{predictions}", "--targets", "{targets}"],
    "error-analysis": ["error-analysis", "--seed", "5", "--bootstrap", "100",
                       "--predictions", "{predictions}", "--targets", "{targets}",
                       "--categories", "{categories}"],
    "curve": ["curve", "--form", "decay", "--points", "{points}"],
    "overlap": ["overlap", "--heatmaps", "{heatmaps}", "--masks", "{masks}",
                "--targets", "{targets}"],
}


CV_ARGV = ["cv", "--plan", "{plan}", "--targets", "{targets}", "--features", "{features}"]
ICC_ARGV = ["icc", "--seed", "5", "--ratings", "{filtered}"]
EA_ARGV = ["error-analysis", "--seed", "5", "--predictions", "{predictions}",
           "--targets", "{targets}", "--categories", "{categories}"]


def _fill(argv, files):
    return [str(files[a[1:-1]]) if a.startswith("{") else a for a in argv]


def _command(name, files, out):
    return _fill(COMMAND_LINES[name], files) + ["--out", str(out)]


class TestMetricsCommand:
    def test_writes_tables(self, workspace, tmp_path):
        out = tmp_path / "metrics"
        assert main([
            "metrics", "--out", str(out),
            "--predictions", str(workspace["predictions"]),
            "--targets", str(workspace["targets"]),
        ]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r2", "mae", "rmse", "r2_ens", "mae_ens", "rmse_ens"]
        assert len(rows) == 2
        with open(out / "metrics_by_repetition.csv", newline="") as fh:
            rep_rows = list(csv.reader(fh))
        assert len(rep_rows) == 6  # header + 5 repetitions
        assert (out / "run_manifest.json").exists()


class TestIccCommand:
    def test_reports_and_plot(self, workspace, tmp_path):
        out = tmp_path / "icc"
        assert main([
            "icc", "--out", str(out), "--seed", "5",
            "--ratings", str(workspace["filtered"]),
            "--sizes", "3,5", "--reps", "20",
        ]) == 0
        summary = _read(out / "icc_summary.csv").splitlines()
        assert summary[0] == "size,mean,sd"
        assert len(summary) == 3
        full = json.loads(_read(out / "icc_full.json"))
        assert 0.0 < full["icc2k"] <= 1.0
        assert full["missing_mode"] == "impute"
        assert (out / "icc_curve.svg").read_text().startswith("<svg")

    def test_degenerate_draw_is_a_computation_error(self, tmp_path, capsys):
        # p3 and p4 rated image a only: the draw {p3, p4} leaves one image
        rows = [("p1", "a", 10), ("p1", "b", 20), ("p1", "c", 30), ("p2", "a", 12),
                ("p2", "b", 25), ("p2", "c", 29), ("p3", "a", 40), ("p4", "a", 44)]
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("participant_id,image_id,trial_index,rating\n"
                           + "".join(f"{p},{i},1,{r}\n" for p, i, r in rows))
        assert main(["icc", "--out", str(tmp_path / "icc"), "--seed", "1", "--sizes", "2",
                     "--reps", "1", "--ratings", str(ratings)]) == 2
        assert _one_error_line(capsys) == {
            "type": "computation",
            "message": "a subsample of 2 raters leaves fewer than 2 images with a rating",
        }


class TestSplitCommand:
    def test_row_order_of_the_ratings_changes_no_byte(self, tmp_path):
        """Each image's group means sum in participant order, whatever the
        order of the rows that hold them."""
        assert main(["synth", "--out", str(tmp_path / "synth"), "--seed", "7",
                     "--images", "120", "--raters", "20"]) == 0
        header, *rows = (tmp_path / "synth" / "ratings.csv").read_bytes().splitlines(True)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_bytes(header + b"".join(rows[k] for k in
                                               np.random.default_rng(0).permutation(len(rows))))
        for name, ratings in (("file", tmp_path / "synth" / "ratings.csv"),
                              ("shuffled", shuffled)):
            assert main(["split", "--out", str(tmp_path / name), "--seed", "5",
                         "--ratings", str(ratings)]) == 0
        for name in ("image_targets.csv", "participant_split.json", "cv_plan.json"):
            assert (tmp_path / "shuffled" / name).read_bytes() == \
                (tmp_path / "file" / name).read_bytes(), name

    @pytest.mark.parametrize("shared", [0, 25])
    def test_images_one_group_rated_make_one_stderr_line(self, tmp_path, shared):
        # group A rates i00-i29 and group B the 30 images from i{30 - shared}
        ids = ["p1", "p2", "p3", "p4"]
        group_a = split_participants(ids, 5).group_a
        ratings = tmp_path / "ratings.csv"
        first = {pid: 0 if pid in group_a else 30 - shared for pid in ids}
        ratings.write_text("participant_id,image_id,trial_index,rating\n" + "".join(
            f"{pid},i{k:02d},1,{(7 * k + 11 * j) % 100}\n"
            for j, pid in enumerate(ids) for k in range(first[pid], first[pid] + 30)
        ))
        out = tmp_path / "split"
        src = os.path.dirname(os.path.dirname(spidereval.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "spidereval", "split", "--out", str(out), "--seed", "5",
             "--ratings", str(ratings)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        lines = done.stderr.splitlines()
        assert len(lines) == 1, lines
        if shared == 0:
            assert done.returncode == 1
            assert json.loads(lines[0])["error"] == {
                "type": "validation", "field": "ratings",
                "message": "cv plan needs at least 25 images",
            }
            assert not out.exists()
        else:
            assert done.returncode == 0
            assert lines[0] == (
                "WARNING spidereval: split: groups 2/2, 25 evaluable images, 10 dropped "
                "(not rated in both groups; first: ['i00', 'i01', 'i02', 'i03', 'i04'])"
            )


class TestLogging:
    @pytest.mark.parametrize("verbose_first", [False, True])
    def test_each_call_logs_at_its_own_level(self, workspace, tmp_path, verbose_first):
        """Two runs in one process, one with --verbose: its INFO line shows
        once, whichever runs first. In a subprocess, since in process the
        root logger belongs to pytest."""
        qc = ["qc", "--ratings", str(workspace["ratings"])]
        calls = [qc + ["--out", str(tmp_path / "quiet")],
                 qc + ["--out", str(tmp_path / "verbose"), "--verbose"]]
        if verbose_first:
            calls.reverse()
        script = f"from spidereval.cli import main\nfor argv in {calls!r}:\n    main(argv)\n"
        src = os.path.dirname(os.path.dirname(spidereval.__file__))
        done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("INFO spidereval: qc: excluded "), lines


class TestCurveCommand:
    def test_fit_from_points_csv(self, tmp_path):
        points = tmp_path / "points.csv"
        with open(points, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "y"])
            for n, y in zip(SIZES_313, MAE_SERIES):
                writer.writerow([n, y])
        out = tmp_path / "curve"
        assert main([
            "curve", "--out", str(out), "--points", str(points),
            "--form", "decay", "--model", "resnet", "--metric", "mae",
        ]) == 0
        with open(out / "learning_curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:6] == ["model", "metric", "form", "a", "b", "c"]
        assert rows[1][0] == "resnet"
        assert rows[1][8] == "true"
        assert float(rows[1][3]) == pytest.approx(5.461, rel=0.05)
        assert (out / "curve_resnet_mae.svg").exists()

    def test_row_order_of_the_points_changes_no_byte(self, inputs, tmp_path):
        header, *rows = inputs["points"].read_bytes().splitlines()
        relaid = tmp_path / "points.csv"
        relaid.write_bytes(b"".join(line + b"\r\n" for line in [header, *rows[::-1]]))
        for name, points in (("file", inputs["points"]), ("relaid", relaid)):
            assert main(["curve", "--out", str(tmp_path / name), "--points", str(points),
                         "--form", "decay"]) == 0
        for name in ("curve.svg", "learning_curve.csv"):
            assert (tmp_path / "file" / name).read_bytes() == \
                (tmp_path / "relaid" / name).read_bytes(), name

    def test_model_label_with_markup_gives_a_parsable_plot(self, inputs, tmp_path):
        out = tmp_path / "curve"
        assert main(["curve", "--out", str(out), "--points", str(inputs["points"]),
                     "--form", "decay", "--model", "a<b"]) == 0
        (svg,) = out.glob("*.svg")
        root = ET.parse(svg).getroot()
        assert "a<b" in {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}

    def test_control_character_in_model_gives_a_parsable_plot(self, inputs, tmp_path):
        out = tmp_path / "curve"
        assert main(["curve", "--out", str(out), "--points", str(inputs["points"]),
                     "--form", "decay", "--model", "a\x01b"]) == 0
        (svg,) = out.glob("*.svg")
        root = ET.parse(svg).getroot()
        assert "a\ufffdb" in {t.text for t in root.iter("{http://www.w3.org/2000/svg}text")}

    def test_undecodable_argv_bytes_in_a_label_name_the_option(self, inputs, tmp_path):
        out = tmp_path / "o"
        src = os.path.dirname(os.path.dirname(spidereval.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "spidereval", "curve", "--out", str(out),
             "--points", str(inputs["points"]), "--form", "decay", "--model", b"a\xffb"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
        )
        lines = done.stderr.decode("utf-8", "replace").strip().splitlines()
        assert done.returncode == 1 and len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert (error["type"], error["field"]) == ("validation", "model")
        assert not (out / "learning_curve.csv").exists()

    def test_lone_surrogate_in_a_config_label_names_the_option(self, inputs, tmp_path,
                                                                capsys):
        config = tmp_path / "config.json"
        config.write_text('{"metric": "a\\udcffb"}\n')  # a JSON escape, not a character
        out = tmp_path / "o"
        assert main(["curve", "--out", str(out), "--points", str(inputs["points"]),
                     "--form", "decay", "--config", str(config)]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "metric")
        assert not (out / "learning_curve.csv").exists()

    @pytest.mark.parametrize("rows", [
        "50,1\n50,2\n100,3\n100,4\n",  # two distinct n
        "0,4\n50,3\n100,2\n150,1\n",
        "-50,4\n50,3\n100,2\n150,1\n",
        "50,4\n100,3\n150,2\n",
    ])
    def test_points_that_cannot_identify_three_parameters(self, tmp_path, capsys, rows):
        points = tmp_path / "p.csv"
        points.write_text("n,y\n" + rows)
        assert main(["curve", "--out", str(tmp_path / "o"), "--points", str(points),
                     "--form", "decay"]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "points")

    def test_edge_optimum_is_a_computation_error(self, tmp_path, capsys):
        points = tmp_path / "p.csv"
        points.write_text("n,y\n50,5\n100,10\n150,15\n200,20\n")  # a line: b -> 0
        out = tmp_path / "o"
        assert main(["curve", "--out", str(out), "--points", str(points),
                     "--form", "decay"]) == 2
        error = _one_error_line(capsys)
        assert error["type"] == "computation" and "edge" in error["message"]
        assert not (out / "learning_curve.csv").exists()

    def test_rejects_unknown_form(self, tmp_path, capsys):
        points = tmp_path / "p.csv"
        points.write_text("n,y\n1,2\n2,3\n3,4\n4,5\n")
        assert main([
            "curve", "--out", str(tmp_path / "o"), "--points", str(points),
            "--form", "decay2",
        ]) == 1
        assert _stderr_json(capsys)["error"]["type"] == "validation"


class TestErrorAnalysisCommand:
    def test_full_artifacts(self, workspace, tmp_path):
        image_ids = _image_ids(workspace)
        cats = tmp_path / "categories.csv"
        _write_categories(cats, image_ids)
        out = tmp_path / "errors"
        assert main([
            "error-analysis", "--out", str(out), "--seed", "5",
            "--predictions", str(workspace["predictions"]),
            "--targets", str(workspace["targets"]),
            "--categories", str(cats),
            "--bootstrap", "150",
        ]) == 0
        with open(out / "omnibus.csv", newline="") as fh:
            rows = {row[0]: row for row in list(csv.reader(fh))[1:]}
        assert rows["eyes"][8] == "small cells (min_n=10)"
        assert rows["texture"][8] == ""
        with open(out / "descriptives.csv", newline="") as fh:
            desc = list(csv.reader(fh))
        assert len(desc) == 5  # header + texture x2 + eyes x2
        assert json.loads(_read(out / "top_criteria.json")).keys() == {"top_criteria"}

    def test_one_image_per_category_is_skipped(self, workspace, tmp_path):
        cats = tmp_path / "categories.csv"
        _write_categories(cats, _image_ids(workspace))
        with open(cats, "a", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for image in _image_ids(workspace):
                writer.writerow([image, "environment", f"own {image}"])
        out = tmp_path / "errors"
        assert main([
            "error-analysis", "--out", str(out), "--seed", "5",
            "--predictions", str(workspace["predictions"]),
            "--targets", str(workspace["targets"]),
            "--categories", str(cats), "--bootstrap", "100", "--min-cell", "1",
        ]) == 0
        with open(out / "omnibus.csv", newline="") as fh:
            rows = {row[0]: row for row in list(csv.reader(fh))[1:]}
        assert rows["environment"][8] == "one image per category (N=k)"
        assert rows["eyes"][8] == rows["texture"][8] == ""
        with open(out / "posthoc.csv", newline="") as fh:
            assert {row[0] for row in list(csv.reader(fh))[1:]} == {"texture", "eyes"}

    def test_missing_category_label_names_the_option(self, workspace, tmp_path, capsys):
        cats = tmp_path / "categories.csv"
        _write_categories(cats, _image_ids(workspace)[1:])
        assert main([
            "error-analysis", "--out", str(tmp_path / "errors"), "--seed", "5",
            "--predictions", str(workspace["predictions"]),
            "--targets", str(workspace["targets"]),
            "--categories", str(cats), "--bootstrap", "150",
        ]) == 1
        error = _stderr_json(capsys)["error"]
        assert error["type"] == "validation"
        assert error["field"] == "categories"
        assert "no category label for image" in error["message"]


class TestOverlapCommand:
    def test_composite_and_ttest(self, workspace, tmp_path):
        images = [f"img{k:03d}" for k in range(5)]
        dirs = _write_overlap_inputs(tmp_path, images)
        out = tmp_path / "overlap"
        assert main([
            "overlap", "--out", str(out),
            "--heatmaps", str(dirs["heat_a"]), str(dirs["heat_b"]),
            "--masks", str(dirs["masks"]),
            "--targets", str(workspace["targets"]),
        ]) == 0
        ttest = json.loads(_read(out / "ttest.json"))
        assert ttest["n"] == 5
        assert ttest["df"] == 4
        assert "delta_fear_pearson" in ttest
        with open(out / "overlap.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 6
        reps = json.loads(_read(out / "representative_examples.json"))
        assert set(reps) == {"max_delta", "nearest_zero", "min_delta", "fear_filter_min"}
        assert (out / "delta_vs_fear.csv").exists()

    def test_single_image_fails_as_computation(self, tmp_path, capsys):
        dirs = _write_overlap_inputs(tmp_path, ["img000"])
        assert main([
            "overlap", "--out", str(tmp_path / "o"),
            "--heatmaps", str(dirs["heat_a"]),
            "--masks", str(dirs["masks"]),
        ]) == 2
        doc = _stderr_json(capsys)
        assert doc["error"]["type"] == "computation"
        assert "n >= 2" in doc["error"]["message"]


class TestPropCiCommand:
    def test_prints_json(self, capsys):
        assert main(["prop-ci", "--successes", "419", "--n", "500"]) == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert round(doc["low"], 3) == 0.803
        assert round(doc["high"], 3) == 0.868
        assert doc["estimate"] == pytest.approx(0.838)

    def test_optional_output_file(self, tmp_path, capsys):
        out = tmp_path / "ci"
        assert main([
            "prop-ci", "--successes", "65", "--n", "500", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(_read(out / "prop_ci.json"))
        assert round(doc["low"], 3) == 0.103
        assert round(doc["high"], 3) == 0.162

    def test_stdout_shows_the_file_digits(self, tmp_path, capsys):
        assert main(["prop-ci", "--successes", "419", "--n", "500",
                     "--out", str(tmp_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(_read(tmp_path / "prop_ci.json"))
        assert printed["low"] == float("%.9g" % printed["low"])

    def test_level_next_to_one_gives_an_interval(self, capsys):
        # 1 - (1 - level) / 2 rounds to 1 here; the quantile used to reject it
        assert main(["prop-ci", "--successes", "1", "--n", "2",
                     "--level", "0.9999999999999999"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1
        doc = json.loads(out)
        assert 0.0 < doc["low"] < 0.5 < doc["high"] < 1.0

    def test_missing_count_is_validation_error(self, capsys):
        assert main(["prop-ci", "--successes", "10"]) == 1
        assert _stderr_json(capsys)["error"]["field"] == "n"


class TestSeedHandling:
    def test_env_fallback(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPIDEREVAL_SEED", "31")
        out = tmp_path / "split"
        assert main([
            "split", "--out", str(out), "--ratings", str(workspace["filtered"]),
        ]) == 0
        manifest = json.loads(_read(out / "run_manifest.json"))
        assert manifest["seed"] == 31

    def test_flag_beats_config(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 11, "ratings": str(workspace["filtered"]),
        }))
        out = tmp_path / "split"
        assert main([
            "split", "--out", str(out), "--config", str(config), "--seed", "22",
        ]) == 0
        manifest = json.loads(_read(out / "run_manifest.json"))
        assert manifest["seed"] == 22

    def test_config_supplies_paths(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 11, "ratings": str(workspace["filtered"]),
        }))
        out = tmp_path / "split"
        assert main(["split", "--out", str(out), "--config", str(config)]) == 0
        manifest = json.loads(_read(out / "run_manifest.json"))
        assert manifest["seed"] == 11

    def test_missing_seed_reported(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SPIDEREVAL_SEED", raising=False)
        assert main([
            "split", "--out", str(tmp_path / "s"),
            "--ratings", str(workspace["filtered"]),
        ]) == 1
        doc = _stderr_json(capsys)
        assert doc["error"]["type"] == "validation"
        assert doc["error"]["field"] == "seed"

    def test_malformed_env_seed(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPIDEREVAL_SEED", "not-a-number")
        assert main([
            "split", "--out", str(tmp_path / "s"),
            "--ratings", str(workspace["filtered"]),
        ]) == 1
        assert _stderr_json(capsys)["error"]["field"] == "seed"


class TestErrorContracts:
    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_failed_fold_names_its_repetition_and_fold(self, workspace, tmp_path, capsys,
                                                       threads):
        # squared residuals of targets near 1e200 overflow every trial's loss
        header, *rows = csv.reader(io.StringIO(_read(workspace["targets"])))
        targets = tmp_path / "image_targets.csv"
        with open(targets, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [header, *([r[0], repr(float(r[1]) * 1e200), *r[2:]] for r in rows)])
        out = tmp_path / "cv"
        argv = _fill(CV_ARGV, {**workspace, "targets": targets})
        assert main([*argv, "--out", str(out), "--trials", "3", "--threads", threads]) == 2
        error = _one_error_line(capsys)
        assert error["type"] == "computation" and "field" not in error
        assert error["message"].startswith(
            "rep=0 fold=0: all 3 search trials failed: trial 0: loss must be finite")
        assert error["message"].endswith("trial 2: loss must be finite and >= 0, got inf")
        assert not out.exists()

    def test_nonexistent_input_path(self, tmp_path, capsys):
        assert main([
            "qc", "--out", str(tmp_path / "o" / "x"), "--ratings", str(tmp_path / "ghost.csv"),
        ]) == 1
        doc = _stderr_json(capsys)
        assert doc["error"]["type"] == "validation"
        assert doc["error"]["field"] == "ratings"
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_is_refused(self, workspace, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("kept")
        assert main(["qc", "--out", str(out), "--ratings", str(workspace["ratings"])]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "out")
        assert out.read_text() == "kept"

    def test_unknown_flag(self, capsys):
        assert main(["qc", "--frobnicate"]) == 1
        assert _stderr_json(capsys)["error"]["type"] == "validation"

    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("[1, 2]")
        assert main(["qc", "--out", str(tmp_path / "o"), "--config", str(config)]) == 1
        assert _stderr_json(capsys)["error"]["field"] == "config"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "spidereval" in capsys.readouterr().out

    def test_seed_outside_128_bits(self, workspace, tmp_path, capsys):
        assert main([
            "split", "--out", str(tmp_path / "o"), "--seed", str(10 ** 40),
            "--ratings", str(workspace["filtered"]),
        ]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "seed")

    def test_unwritable_output_names_out(self, workspace, tmp_path, capsys):
        # a directory sitting on an artifact's name fails the write, even as root
        blocker = tmp_path / "o" / "qc_report.csv"
        blocker.mkdir(parents=True)
        assert main(["qc", "--out", str(tmp_path / "o"),
                     "--ratings", str(workspace["ratings"])]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "out")
        assert str(blocker) in error["message"]

    @pytest.mark.parametrize("command, images, raters, message", [
        ("split", 20, 12, "cv plan needs at least 25 images"),
        ("split", 30, 1, "participant split needs at least 2 participants"),
        ("icc", 30, 1, "rating matrix needs at least 2 images and 2 raters"),
    ])
    def test_too_few_ratings_name_the_option(self, tmp_path, capsys, command, images,
                                             raters, message):
        synth = tmp_path / "synth"
        assert main(["synth", "--out", str(synth), "--seed", "3", "--images", str(images),
                     "--raters", str(raters), "--dim", "2"]) == 0
        capsys.readouterr()
        assert main([command, "--out", str(tmp_path / "o"), "--seed", "3",
                     "--ratings", str(synth / "ratings.csv")]) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "ratings", "message": message,
        }

    @pytest.mark.parametrize("command", ["qc", "all"])
    @pytest.mark.parametrize("raters", [1, 2, 3])
    def test_qc_with_too_few_raters_names_the_option(self, tmp_path, capsys, command, raters):
        synth = tmp_path / "synth"
        assert main(["synth", "--out", str(synth), "--seed", "3", "--images", "30",
                     "--raters", str(raters), "--dim", "2"]) == 0
        capsys.readouterr()
        argv = [command, "--out", str(tmp_path / "o"), "--ratings", str(synth / "ratings.csv")]
        if command == "all":
            argv += ["--seed", "3", "--features", str(synth / "features.csv")]
        assert main(argv) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "ratings",
            "message": f"rater screening needs at least 4 participants, got {raters}",
        }

    def _cv(self, workspace, tmp_path, plan=None, targets=None):
        return main([
            "cv", "--out", str(tmp_path / "o"), "--trials", "2",
            "--plan", str(plan or workspace["plan"]),
            "--targets", str(targets or workspace["targets"]),
            "--features", str(workspace["features"]),
        ])

    def test_non_finite_target_is_a_validation_error(self, workspace, tmp_path, capsys):
        lines = _read(workspace["targets"]).splitlines(keepends=True)
        image, _, rest = lines[2].split(",", 2)
        lines[2] = f"{image},nan,{rest}"
        targets = tmp_path / "image_targets.csv"
        targets.write_text("".join(lines))
        assert self._cv(workspace, tmp_path, targets=targets) == 1
        error = _one_error_line(capsys)
        assert error["type"] == "validation"
        assert f"{targets}:3: non-finite" in error["message"]

    @pytest.mark.parametrize("command", ["cv", "all"])
    def test_missing_feature_vectors_name_the_option(self, workspace, tmp_path, capsys,
                                                     command):
        # used to exit 2 naming only fold 0's gaps, as a computation error
        lines = _read(workspace["features"]).splitlines(keepends=True)
        features = tmp_path / "features.csv"
        features.write_text("".join(line for line in lines if line.split(",", 1)[0]
                                    not in {"img040", "img002", "img017"}))
        inputs = {
            "cv": ["--plan", str(workspace["plan"]), "--targets", str(workspace["targets"])],
            "all": ["--seed", "5", "--ratings", str(workspace["ratings"])],
        }[command]
        assert main([command, "--out", str(tmp_path / "o"), "--trials", "2", *inputs,
                     "--features", str(features)]) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "features",
            "message": "no feature vector for 3 planned images "
                       "(first: ['img002', 'img017', 'img040'])",
        }

    def test_targets_missing_planned_images_name_the_option(self, workspace, tmp_path,
                                                            capsys):
        # used to exit 2 from the leakage audit, listing every fold's gaps
        lines = _read(workspace["targets"]).splitlines(keepends=True)
        targets = tmp_path / "image_targets.csv"
        targets.write_text("".join(line for line in lines if line.split(",", 1)[0]
                                   not in {"img040", "img002", "img017"}))
        assert self._cv(workspace, tmp_path, targets=targets) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "targets",
            "message": "no group-A target for 3 planned train images "
                       "(first: ['img002', 'img017', 'img040'])",
        }

    @pytest.mark.parametrize("command", ["cv", "metrics", "error-analysis", "overlap"])
    def test_targets_without_rows_name_the_option(self, inputs, tmp_path, capsys, command):
        targets = tmp_path / "image_targets.csv"
        targets.write_text("image_id,mean_a,mean_b,n_a,n_b\n")
        assert main(_command(command, {**inputs, "targets": targets}, tmp_path / "o")) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "targets",
            "message": f"{targets}: no target rows",
        }

    @pytest.mark.parametrize("command", ["metrics", "error-analysis"])
    def test_predictions_without_rows_name_the_option(self, inputs, tmp_path, capsys, command):
        # used to exit 2 from metrics with "prediction set is empty"
        predictions = tmp_path / "predictions.csv"
        predictions.write_text("rep,fold,image_id,raw,clipped\n")
        assert main(_command(command, {**inputs, "predictions": predictions},
                             tmp_path / "o")) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "predictions",
            "message": f"{predictions}: no prediction rows",
        }

    @pytest.mark.parametrize("command", ["qc", "split", "icc", "all"])
    def test_ratings_without_rows_name_the_option(self, workspace, tmp_path, capsys, command):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("participant_id,image_id,trial_index,rating\n")
        extra = {"qc": [], "split": ["--seed", "5"], "icc": ["--seed", "5"],
                 "all": ["--seed", "5", "--features", str(workspace["features"])]}[command]
        assert main([command, "--out", str(tmp_path / "o"), "--ratings", str(ratings),
                     *extra]) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "ratings",
            "message": f"{ratings}: no rating rows",
        }

    # a config number of the wrong kind: int() would truncate a float and
    # read a bool as 0 or 1, float() would read a bool as 0.0 or 1.0
    @pytest.mark.parametrize("argv, config, field", [
        (ICC_ARGV, {"reps": 20.7}, "reps"),
        (ICC_ARGV, {"sizes": [2, 3.9]}, "sizes"),
        (ICC_ARGV, {"reps": True}, "reps"),
        (["split", "--ratings", "{filtered}"], {"seed": 1.5}, "seed"),
        (CV_ARGV, {"trials": 2.9}, "trials"),
        (CV_ARGV, {"threads": True}, "threads"),
        (CV_ARGV, {"predictor": {"ranges": {"lambda": [0.001, False, "log"]}}}, "predictor"),
        (CV_ARGV, {"predictor": {"ranges": {"lambda": [True, 10, "log"]}}}, "predictor"),
        (EA_ARGV, {"bootstrap": 150.0}, "bootstrap"),
        (EA_ARGV, {"min_cell": True}, "min_cell"),
        (["synth", "--seed", "3"], {"var_rater": True}, "var_rater"),
        (["synth", "--seed", "3"], {"dim": 2.5}, "dim"),
        (["synth", "--seed", "3"], {"mu": False}, "mu"),
        (["prop-ci", "--successes", "3"], {"n": 10.0}, "n"),
    ])
    def test_config_number_of_the_wrong_kind(self, inputs, tmp_path, capsys, argv, config,
                                             field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main([*_fill(argv, inputs), "--out", str(out), "--config", str(path)]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", field)
        assert not out.exists()

    # option -> the command that reads it in the probes below
    READER = {
        "ratings": "qc", "config": "cv", "features": "cv", "plan": "cv", "targets": "metrics",
        "predictions": "metrics", "categories": "error-analysis", "masks": "overlap",
        "points": "curve",
    }

    @staticmethod
    def _corrupt(path, how, root):
        """A broken copy of the input at ``path``, under ``root``."""
        bad = root / f"bad_{path.name}"
        if how == "directory":  # inside a directory option, a directory named like a file
            bad.mkdir()
            if path.is_dir():
                (bad / "x.pgm").mkdir()
            return bad
        lines = path.read_bytes().split(b"\n")
        if how == "not_utf8":
            lines[1] = b"\xff" + lines[1]
        elif how == "trailing_blank_line":
            lines.append(b"")
        else:  # set a cell of line 2: "<column>=<text>"
            column, text = how.split("=")
            cells = lines[1].split(b",")
            cells[int(column)] = text.encode()
            lines[1] = b",".join(cells)
        bad.write_bytes(b"\n".join(lines))
        return bad

    @pytest.mark.parametrize("option, how, message", [
        ("ratings", "directory", "cannot read"),
        ("features", "directory", "cannot read"),
        ("categories", "directory", "cannot read"),
        ("masks", "directory", "cannot read"),
        ("ratings", "not_utf8", "not UTF-8"),
        ("features", "not_utf8", "not UTF-8"),
        ("categories", "not_utf8", "not UTF-8"),
        ("plan", "not_utf8", "not UTF-8"),
        ("config", "not_utf8", "not UTF-8"),
        ("targets", "not_utf8", "not UTF-8"),
        ("predictions", "not_utf8", "not UTF-8"),
        ("points", "not_utf8", "not UTF-8"),
        ("ratings", "1=" + "x" * 140_000, "field larger than field limit"),
        ("predictions", "4=nan", ":2: non-finite clipped"),
        ("predictions", "4=150", ":2: clipped 150 outside [0, 100]"),
        ("points", "1=nan", ":2: non-finite y"),
        ("targets", "3=-3", ":2: n_a must be an integer >= 1"),
        ("targets", "4=0", ":2: n_b must be an integer >= 1"),
    ], ids=lambda v: v[:12] if isinstance(v, str) else v)
    def test_bad_input_file_names_its_option(self, inputs, tmp_path, capsys, option, how,
                                             message):
        bad = self._corrupt(Path(inputs[option]), how, tmp_path)
        argv = _command(self.READER[option], {**inputs, option: bad}, tmp_path / "o")
        assert main(argv) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", option)
        assert message in error["message"]
        assert str(bad) in error["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", ["targets", "predictions", "points"])
    def test_trailing_blank_line_is_skipped(self, inputs, tmp_path, option):
        bad = self._corrupt(Path(inputs[option]), "trailing_blank_line", tmp_path)
        assert main(_command(self.READER[option], {**inputs, option: bad}, tmp_path / "o")) == 0

    def test_clipped_prediction_at_the_bound_is_scored(self, inputs, tmp_path):
        good = self._corrupt(Path(inputs["predictions"]), "4=100", tmp_path)
        assert main(_command("metrics", {**inputs, "predictions": good}, tmp_path / "o")) == 0

    @pytest.mark.parametrize("command", ["metrics", "error-analysis"])
    def test_repeated_prediction_row_names_its_line(self, inputs, tmp_path, capsys, command):
        lines = _read(inputs["predictions"]).splitlines(keepends=True)
        bad = tmp_path / "predictions.csv"
        bad.write_text("".join(lines[:2] + lines[1:]))
        assert main(_command(command, {**inputs, "predictions": bad}, tmp_path / "o")) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "predictions")
        rep, _, image = lines[1].split(",")[:3]
        assert error["message"] == f"{bad}:3: duplicate prediction for rep={rep} image={image}"

    def _score_both(self, inputs, tmp_path, capsys, predictions):
        """The one error line each scorer gives for a predictions file with
        these lines: used to exit 2 naming no option."""
        bad = tmp_path / "predictions.csv"
        bad.write_text("".join(predictions))
        errors = []
        for command in ("metrics", "error-analysis"):
            out = tmp_path / command
            assert main(_command(command, {**inputs, "predictions": bad}, out)) == 1
            errors.append(_one_error_line(capsys))
            assert not out.exists()
        assert errors[0] == errors[1]
        return errors[0]

    def test_untargeted_prediction_fails_every_scorer_alike(self, inputs, tmp_path, capsys):
        lines = _read(inputs["predictions"]).splitlines(keepends=True)
        assert self._score_both(inputs, tmp_path, capsys, lines + ["0,0,ghost,50,50\n"]) == {
            "type": "validation", "field": "targets",
            "message": "repetition 0 has predictions for untargeted images ['ghost']",
        }

    def test_unpredicted_target_fails_every_scorer_alike(self, inputs, tmp_path, capsys):
        lines = _read(inputs["predictions"]).splitlines(keepends=True)
        image = lines[1].split(",")[2]
        assert self._score_both(inputs, tmp_path, capsys, lines[:1] + lines[2:]) == {
            "type": "validation", "field": "predictions",
            "message": f"repetition 0 lacks predictions for 1 images (first: ['{image}'])",
        }

    def test_missing_heatmap_names_the_option(self, inputs, tmp_path, capsys):
        heatmaps = tmp_path / "heatmaps"
        shutil.copytree(inputs["heatmaps"], heatmaps)
        missing = sorted(heatmaps.iterdir())[0]
        missing.unlink()
        assert main(_command("overlap", {**inputs, "heatmaps": heatmaps}, tmp_path / "o")) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "heatmaps")
        assert str(missing) in error["message"]

    def test_non_finite_heatmap_scale_names_the_option(self, inputs, tmp_path, capsys):
        """A ``nan`` scale names no byte order: bad input, not garbage values."""
        heatmaps = tmp_path / "heatmaps"
        shutil.copytree(inputs["heatmaps"], heatmaps)
        bad = sorted(heatmaps.iterdir())[0]
        bad.write_bytes(bad.read_bytes().replace(b"\n-1.0\n", b"\nnan\n", 1))
        assert main(_command("overlap", {**inputs, "heatmaps": heatmaps}, tmp_path / "o")) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "heatmaps",
            "message": f"{bad}: malformed PFM header",
        }

    @pytest.mark.parametrize("text", ['{"alpha": NaN}', '{"level": Infinity}',
                                      '{"alpha": -Infinity}', '{"alpha": 1e400}'])
    def test_non_finite_config_number(self, inputs, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        argv = _command("error-analysis", inputs, tmp_path / "o") + ["--config", str(config)]
        assert main(argv) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "config")
        assert f"{config}: non-finite number" in error["message"]

    def test_non_finite_plan_number(self, workspace, tmp_path, capsys):
        doc = json.loads(_read(workspace["plan"]))
        doc["validation_fraction"] = float("nan")
        plan = tmp_path / "cv_plan.json"
        plan.write_text(json.dumps(doc))
        assert self._cv(workspace, tmp_path, plan=plan) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "plan")
        assert f"{plan}: non-finite number NaN" in error["message"]

    def test_empty_inner_fold_fails_the_audit(self, workspace, tmp_path, capsys):
        # a hand-edited plan that moves one inner fold's images into another
        doc = json.loads(_read(workspace["plan"]))
        inner = doc["folds"][3]["inner"]
        inner[0], inner[4] = sorted(inner[0] + inner[4]), []
        plan = tmp_path / "cv_plan.json"
        plan.write_text(json.dumps(doc))
        assert self._cv(workspace, tmp_path, plan=plan) == 2
        n_train = len(doc["folds"][3]["train"])
        assert _one_error_line(capsys) == {
            "type": "computation",
            "message": f"leakage audit failed: rep=0 fold=3: inner fold 4 holds 0 of "
                       f"{n_train} training images",
        }

    @pytest.mark.parametrize("edit", ["drop_last_fold", "swap_folds", "huge_seed", "list_id",
                                      "repeated_id"])
    def test_malformed_plan_shape(self, workspace, tmp_path, capsys, edit):
        doc = json.loads(_read(workspace["plan"]))
        if edit == "repeated_id":
            doc["image_ids"].append(doc["image_ids"][3])
        elif edit == "drop_last_fold":
            doc["folds"].pop()
        elif edit == "swap_folds":
            doc["folds"][0], doc["folds"][1] = doc["folds"][1], doc["folds"][0]
        elif edit == "list_id":
            train = doc["folds"][0]["train"]
            train[0] = [train[0]]
        else:
            doc["seed"] = 10 ** 40
        plan = tmp_path / "cv_plan.json"
        plan.write_text(json.dumps(doc))
        assert self._cv(workspace, tmp_path, plan=plan) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "plan")


MUTATIONS = ["truncate", "flip", "not_utf8", "nan", "inf", "extra_field"]


def _mutate(data: bytes, kind: str, at: float, value: int) -> bytes:
    """``data`` with one mutation at the byte ``at`` of the way through."""
    i = min(int(at * len(data)), max(len(data) - 1, 0))
    if kind == "truncate":
        return data[:i]
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ value]) + data[i + 1:] if data else data
    if kind == "not_utf8":
        return data[:i] + b"\xff" + data[i:]
    end = min((j for j in (data.find(b",", i), data.find(b"\n", i)) if j >= 0),
              default=len(data))
    if kind == "extra_field":
        return data[:end] + b",1" + data[end:]
    start = max(data.rfind(b",", 0, i), data.rfind(b"\n", 0, i)) + 1
    return data[:start] + kind.encode() + data[end:]


class TestFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        target=st.sampled_from([
            (name, arg[1:-1]) for name, argv in COMMAND_LINES.items()
            for arg in argv if arg.startswith("{")
        ]),
        kind=st.sampled_from(MUTATIONS),
        at=st.floats(0, 1),
        value=st.integers(1, 255),
    )
    def test_mutated_input_keeps_the_error_contract(self, inputs, target, kind, at, value):
        """Exit 0, 1 or 2, never a traceback; a failure prints one JSON line."""
        name, option = target
        with tempfile.TemporaryDirectory() as tmp:
            source, bad = Path(inputs[option]), Path(tmp) / "bad"
            if source.is_dir():  # mutate the first file of a directory option
                shutil.copytree(source, bad)
                path = sorted(bad.iterdir())[0]
            else:
                path = bad
                shutil.copy(source, path)
            path.write_bytes(_mutate(path.read_bytes(), kind, at, value))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(_command(name, {**inputs, option: bad}, Path(tmp) / "o"))
        assert code in (0, 1, 2)
        if code != 0:
            lines = stderr.getvalue().strip().splitlines()
            assert len(lines) == 1, lines
            assert set(json.loads(lines[0])) == {"error"}


class TestLocale:
    def test_qc_bytes_do_not_depend_on_the_locale(self, workspace, tmp_path):
        """Inputs and outputs are UTF-8 even where the locale's encoding is ASCII."""
        text = _read(workspace["ratings"])
        image = text.splitlines()[1].split(",")[1]
        ratings = tmp_path / "ratings.csv"
        ratings.write_bytes(text.replace(f",{image},", ",araña-ü,").encode("utf-8"))
        assert main(["qc", "--out", str(tmp_path / "here"), "--ratings", str(ratings)]) == 0
        src = os.path.dirname(os.path.dirname(spidereval.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "spidereval", "qc", "--out", str(tmp_path / "c"),
             "--ratings", str(ratings)],
            env=env, check=True, timeout=120,
        )
        names = sorted(p.name for p in (tmp_path / "here").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "c").iterdir())
        assert "araña-ü" in _read(tmp_path / "c" / "ratings_filtered.csv")
        for name in names:
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


    def test_byte_order_mark_is_skipped(self, workspace, tmp_path):
        """A BOM'd ratings file or config (as Excel's "CSV UTF-8" export
        writes) gives the bytes its text without the BOM gives."""
        bom = tmp_path / "bom"
        bom.mkdir()
        (bom / "ratings.csv").write_bytes(b"\xef\xbb\xbf" + workspace["ratings"].read_bytes())
        config = tmp_path / "config.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"ratings": str(workspace["ratings"])})
                           .encode())
        runs = {"plain": ["--ratings", str(workspace["ratings"])],
                "bom_ratings": ["--ratings", str(bom / "ratings.csv")],
                "bom_config": ["--config", str(config)]}
        for name, argv in runs.items():
            assert main(["qc", "--out", str(tmp_path / name)] + argv) == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        for name in runs:
            assert sorted(p.name for p in (tmp_path / name).iterdir()) == names
        digests = [sha256_file(p).encode() for p in (bom / "ratings.csv", workspace["ratings"])]
        for name in names:
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "bom_config" / name).read_bytes() == plain
            # the manifest digests the input file, BOM and all
            assert (tmp_path / "bom_ratings" / name).read_bytes().replace(*digests) == plain


class TestDeterminism:
    def test_threads_do_not_change_bytes(self, workspace, tmp_path):
        outs = []
        for label, threads in (("one", "1"), ("eight", "8")):
            out = tmp_path / label
            assert main([
                "cv", "--out", str(out),
                "--plan", str(workspace["plan"]),
                "--targets", str(workspace["targets"]),
                "--features", str(workspace["features"]),
                "--trials", "5", "--threads", threads,
            ]) == 0
            outs.append(out)
        for name in ("predictions.csv", "search_log.jsonl", "search_summary.json",
                     "run_manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_blas_threads_do_not_change_icc_bytes(self, tmp_path):
        """Every ICC value comes from matrix products. At the paper's 313 x 148
        shape with ~15% of cells missing, BLAS on 1 or 2 threads writes the
        same bytes."""
        assert main(["synth", "--out", str(tmp_path / "synth"), "--seed", "7"]) == 0
        header, *rows = _read(tmp_path / "synth" / "ratings.csv").splitlines(keepends=True)
        holes = np.random.default_rng(7).uniform(size=len(rows)) < 0.15
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(header + "".join(r for r, h in zip(rows, holes) if not h),
                           encoding="utf-8")
        src = os.path.dirname(os.path.dirname(spidereval.__file__))
        for threads in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "spidereval", "icc", "--out", str(tmp_path / threads),
                 "--seed", "5", "--ratings", str(ratings), "--reps", "50"],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
                check=True, timeout=120,
            )
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert "icc_full.json" in names
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_blas_threads_do_not_change_cv_bytes(self, tmp_path):
        """At d > n the ridge losses move in their last bits with the BLAS
        thread count; every artifact, search log and summary included, still
        has the same bytes on 1 or 2 BLAS threads."""
        synth, split = tmp_path / "synth", tmp_path / "split"
        assert main(["synth", "--out", str(synth), "--seed", "7", "--images", "313",
                     "--raters", "10", "--dim", "400"]) == 0
        assert main(["split", "--out", str(split), "--seed", "7",
                     "--ratings", str(synth / "ratings.csv")]) == 0
        src = os.path.dirname(os.path.dirname(spidereval.__file__))
        for threads in ("1", "2"):
            subprocess.run(
                [sys.executable, "-m", "spidereval", "cv", "--out", str(tmp_path / threads),
                 "--plan", str(split / "cv_plan.json"),
                 "--targets", str(split / "image_targets.csv"),
                 "--features", str(synth / "features.csv"), "--trials", "3"],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
                check=True, timeout=120,
            )
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert "search_log.jsonl" in names
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_repeat_run_identical(self, workspace, tmp_path):
        outs = []
        for label in ("first", "second"):
            out = tmp_path / label
            assert main([
                "split", "--out", str(out), "--seed", "5",
                "--ratings", str(workspace["filtered"]),
            ]) == 0
            outs.append(out)
        for name in ("participant_split.json", "image_targets.csv",
                     "cv_plan.json", "run_manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestAllCommand:
    def test_full_pipeline(self, workspace, tmp_path):
        image_ids = _image_ids(workspace)
        cats = tmp_path / "categories.csv"
        _write_categories(cats, image_ids)
        dirs = _write_overlap_inputs(tmp_path, image_ids[:5])
        out = tmp_path / "all"
        assert main([
            "all", "--out", str(out), "--seed", "5",
            "--ratings", str(workspace["ratings"]),
            "--features", str(workspace["features"]),
            "--categories", str(cats),
            "--heatmaps", str(dirs["heat_a"]), str(dirs["heat_b"]),
            "--masks", str(dirs["masks"]),
            "--trials", "4", "--sizes", "3,5", "--reps", "10",
            "--bootstrap", "150",
        ]) == 0
        expected = [
            "qc_report.csv", "qc_summary.json", "ratings_filtered.csv",
            "participant_split.json", "image_targets.csv", "cv_plan.json",
            "predictions.csv", "search_log.jsonl", "search_summary.json", "metrics.csv",
            "metrics_by_repetition.csv", "icc_report.csv", "icc_summary.csv",
            "icc_full.json", "icc_curve.svg", "descriptives.csv", "omnibus.csv",
            "posthoc.csv", "top_criteria.json", "overlap.csv", "ttest.json",
            "representative_examples.json", "delta_vs_fear.csv",
            "run_manifest.json",
        ]
        for name in expected:
            assert (out / name).exists(), name
        manifest = json.loads(_read(out / "run_manifest.json"))
        assert manifest["command"] == "all"
        assert len(manifest["outputs"]) >= len(expected) - 1
        heatmaps = sorted(dirs["heat_a"].iterdir()) + sorted(dirs["heat_b"].iterdir())
        assert len(heatmaps) == 10
        digests = set(manifest["inputs"].values())
        for path in heatmaps:
            assert sha256_file(path) in digests, path

    def test_fifteen_digit_ratings_give_the_chain_bytes(self, workspace, tmp_path):
        """`all` writes what qc -> split -> cv -> metrics -> icc write, also
        when the ratings carry more digits than the float rule keeps."""
        rng = np.random.default_rng(8)
        with open(workspace["ratings"], newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            jitter = float(rng.uniform(-0.01, 0.01))
            row[3] = "%.15g" % min(100.0, max(0.0, float(row[3]) + jitter))
        ratings = tmp_path / "ratings.csv"
        with open(ratings, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        assert any(len(row[3].replace(".", "").lstrip("0")) == 15 for row in rows[1:])
        features, seed = str(workspace["features"]), ["--seed", "5"]
        icc_flags = ["--sizes", "3,5", "--reps", "10"]
        chain = tmp_path / "chain"
        for argv in (
            ["qc", "--ratings", str(ratings)],
            ["split", *seed, "--ratings", str(chain / "ratings_filtered.csv")],
            ["cv", *seed, "--plan", str(chain / "cv_plan.json"),
             "--targets", str(chain / "image_targets.csv"), "--features", features,
             "--trials", "3"],
            ["metrics", "--predictions", str(chain / "predictions.csv"),
             "--targets", str(chain / "image_targets.csv")],
            ["icc", *seed, "--ratings", str(chain / "ratings_filtered.csv"), *icc_flags],
        ):
            assert main([*argv, "--out", str(chain)]) == 0, argv
        out = tmp_path / "all"
        assert main(["all", "--out", str(out), *seed, "--ratings", str(ratings),
                     "--features", features, "--trials", "3", *icc_flags]) == 0
        names = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
        assert names == sorted(p.name for p in chain.iterdir() if p.name != "run_manifest.json")
        assert [n for n in names if (out / n).read_bytes() != (chain / n).read_bytes()] == []


ALL_FLAGS = {"--seed": "5", "--trials": "2", "--sizes": "3", "--reps": "5",
             "--bootstrap": "100"}


# the manifest's `predictor` record when nothing overrides the ridge defaults
RIDGE_DEFAULT = {"ranges": {"lambda": [0.0001, 100.0, "log"]}}


# Runs one command line and prints its exit code and the spidereval
# modules it loaded.
LOADED = """\
import sys
from spidereval.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("spidereval")))
"""

# `all` with every optional stage on
ALL_ARGV = ["all", *[a for kv in ALL_FLAGS.items() for a in kv], "--ratings", "{ratings}",
            "--features", "{features}", "--categories", "{categories}",
            "--heatmaps", "{heat_a}", "{heat_b}", "--masks", "{masks}"]
CORE_MODULES = ["", ".cli", ".defaults", ".errors", ".ingest", ".outputs", ".rng"]
SEARCH = [".harness", ".partition", ".ranking"]


class TestModulesLoaded:
    """Each command imports the core every command needs plus the analysis
    modules it runs, and no other."""

    @pytest.mark.parametrize("argv, runs", [
        (["--version"], []),
        (CV_ARGV + ["--trials", "2"], SEARCH),
        (["qc", "--ratings", "{ratings}"], [".qc", ".ranking"]),
        (ICC_ARGV + ["--sizes", "3", "--reps", "5"], [".reliability", ".svgplot"]),
        (ALL_ARGV,
         [".attribution", ".error_analysis", ".metrics", ".qc", ".reliability", ".special",
          ".svgplot", *SEARCH]),
        (["overlap", "--heatmaps", "{heat_a}", "--masks", "{masks}"],
         [".attribution", ".ranking", ".special"]),
        (["metrics", "--predictions", "{predictions}", "--targets", "{targets}"],
         [".metrics", *SEARCH]),
        (["prop-ci", "--successes", "419", "--n", "500"], [".reliability"]),
        (COMMAND_LINES["curve"], [".curvefit", ".svgplot"]),
        (COMMAND_LINES["split"], [".partition"]),
        (EA_ARGV + ["--bootstrap", "100"],
         [".error_analysis", ".special", ".svgplot", *SEARCH]),
        (["synth", "--seed", "5", "--images", "30", "--raters", "4", "--dim", "3"], [".synth"]),
    ])
    def test_command_loads_only_what_it_runs(self, inputs, tmp_path, argv, runs):
        argv = _fill(argv, {**inputs, **_write_overlap_inputs(tmp_path, _image_ids(inputs)[:5])})
        if argv != ["--version"]:
            argv += ["--out", str(tmp_path / "o")]
        src = os.path.dirname(os.path.dirname(spidereval.__file__))
        done = subprocess.run(
            [sys.executable, "-c", LOADED, *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=120,
        )
        code, *modules = done.stdout.splitlines()[-1].split()
        assert code == "0", done.stderr
        assert modules == sorted("spidereval" + m for m in CORE_MODULES + runs)

    @pytest.mark.parametrize("argv", [
        ["--version"], CV_ARGV + ["--trials", "2"], COMMAND_LINES["qc"],
        EA_ARGV + ["--bootstrap", "100"], ALL_ARGV,
    ])
    def test_command_leaves_numpy_ma_unloaded(self, inputs, tmp_path, argv):
        """``numpy.ma`` costs ~10 ms to import (``np.quantile`` and
        ``np.median`` import it); these commands load none of it beyond
        what ``import numpy`` does."""
        argv = _fill(argv, {**inputs, **_write_overlap_inputs(tmp_path, _image_ids(inputs)[:5])})
        if argv != ["--version"]:
            argv += ["--out", str(tmp_path / "o")]
        script = ("import sys, numpy\neager = 'numpy.ma' in sys.modules\n" + LOADED
                  + "print(eager, 'numpy.ma' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(spidereval.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=120,
        )
        last = done.stdout.splitlines()
        assert last[-2].split()[0] == "0", done.stderr
        eager, loaded = last[-1].split()
        assert loaded == eager

    def test_trials_default_has_one_definition(self):
        from spidereval import defaults, harness
        assert harness.N_TRIALS is defaults.N_TRIALS

    def test_package_imports_only_the_stdlib_and_numpy(self):
        """The test extras install scipy and mpmath, so an import of either in
        the package would pass every other test."""
        allowed = set(sys.stdlib_module_names) | {"numpy", "spidereval"}
        found = set()
        for path in sorted(Path(spidereval.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    found |= {(path.name, a.name.split(".")[0]) for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add((path.name, node.module.split(".")[0]))
        assert {name for _, name in found} >= {"math", "numpy"}
        assert sorted(f for f in found if f[1] not in allowed) == []


class TestManifestConfig:
    """A manifest's config holds every option with its resolved value,
    except the output directory, the thread count, the seed and input
    paths."""

    def _all(self, inputs, out, flags=(), config=None):
        argv = ["all", "--out", str(out), "--ratings", str(inputs["ratings"]),
                "--features", str(inputs["features"]),
                "--categories", str(inputs["categories"])]
        for flag, value in {**ALL_FLAGS, **dict(flags)}.items():
            argv += [flag, value]
        if config is not None:
            path = out.with_suffix(".json")
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert main(argv) == 0
        return json.loads(_read(out / "run_manifest.json"))["config"]

    @pytest.fixture(scope="class")
    def base(self, inputs, tmp_path_factory):
        return self._all(inputs, tmp_path_factory.mktemp("manifest") / "base")

    def test_all_records_every_setting(self, base):
        assert base == {
            "alpha": 0.05, "bootstrap": 100, "kind": "ridge_closed_form", "level": 0.95,
            "min_cell": 10, "missing": "impute", "predictor": RIDGE_DEFAULT, "reps": 5,
            "sizes": [3], "trials": 2,
        }

    RANGES = {"lambda": [0.01, 10.0, "log"]}

    @pytest.mark.parametrize("flags, config, key, value", [
        ({"--reps": "9"}, None, "reps", 9),
        ({"--missing": "complete"}, None, "missing", "complete"),
        ({"--sizes": "3,5"}, None, "sizes", [3, 5]),
        ({"--bootstrap": "200"}, None, "bootstrap", 200),
        ({"--alpha": "0.1"}, None, "alpha", 0.1),
        ({"--level": "0.9"}, None, "level", 0.9),
        ({"--min-cell": "5"}, None, "min_cell", 5),
        ({"--trials": "3"}, None, "trials", 3),
        ({}, {"predictor": {"ranges": RANGES}}, "predictor", {"ranges": RANGES}),
    ])
    def test_one_changed_setting_changes_the_config(self, inputs, base, tmp_path, flags,
                                                    config, key, value):
        changed = self._all(inputs, tmp_path / "all", flags, config)
        assert changed[key] == value
        assert {k for k in base.keys() | changed.keys() if base.get(k) != changed.get(k)} == {key}

    def test_threads_and_path_spelling_change_no_byte(self, inputs, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("ratings", "features", "categories"):
            shutil.copy(inputs[name], data / f"{name}.csv")
        _write_overlap_inputs(data, _image_ids(inputs))

        def manifest(cwd, prefix, out, *extra):
            monkeypatch.chdir(cwd)
            argv = ["all", "--out", str(out), "--heatmaps", f"{prefix}heat_a",
                    f"{prefix}heat_b", "--masks", f"{prefix}masks", *extra]
            for name in ("ratings", "features", "categories"):
                argv += [f"--{name}", f"{prefix}{name}.csv"]
            for flag, value in ALL_FLAGS.items():
                argv += [flag, value]
            assert main(argv) == 0
            return (out / "run_manifest.json").read_bytes()

        first = manifest(tmp_path, "data/", tmp_path / "a")
        assert manifest(tmp_path, "./data/", tmp_path / "b", "--threads", "2") == first
        assert manifest(data, "", tmp_path / "c") == first

    def test_cv_records_the_resolved_kind(self, workspace, tmp_path):
        out = tmp_path / "cv"
        assert main(["cv", "--out", str(out), "--plan", str(workspace["plan"]),
                     "--targets", str(workspace["targets"]),
                     "--features", str(workspace["features"]), "--trials", "2"]) == 0
        config = json.loads(_read(out / "run_manifest.json"))["config"]
        assert config == {"kind": "ridge_closed_form", "predictor": RIDGE_DEFAULT, "trials": 2}

    @pytest.mark.parametrize("predictor", [
        {"kind": "ridge_closed_form"},
        {"ranges": {"lambda": [0.0001, 100, "log"]}},
        {"kind": "ridge_closed_form", "ranges": {"lambda": [1e-4, 1e2, "log"]}},
        {"ranges": {"lambda": ["0.0001", "100", "log"]}},
    ])
    def test_spelled_out_predictor_defaults_change_no_byte(self, workspace, tmp_path,
                                                           predictor):
        def manifest(name, predictor):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"predictor": predictor}))
            assert main(["cv", "--out", str(tmp_path / name), "--config", str(config),
                         "--plan", str(workspace["plan"]), "--targets", str(workspace["targets"]),
                         "--features", str(workspace["features"]), "--trials", "3"]) == 0
            return (tmp_path / name / "run_manifest.json").read_bytes()

        assert manifest("spelled", predictor) == manifest("empty", {})

    def test_icc_records_the_defaulted_sizes(self, workspace, tmp_path):
        out = tmp_path / "icc"
        assert main(["icc", "--out", str(out), "--seed", "5", "--reps", "5",
                     "--ratings", str(workspace["filtered"])]) == 0
        n_raters = json.loads(_read(out / "icc_full.json"))["n_raters"]
        sizes = [s for s in range(10, 81, 10) if s <= n_raters] or [n_raters]
        config = json.loads(_read(out / "run_manifest.json"))["config"]
        assert config == {"missing": "impute", "reps": 5, "sizes": sizes}


def _one_error_line(capsys):
    """stderr holds exactly one line, the error JSON."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])["error"]


class TestTypedOptions:
    @pytest.mark.parametrize("command, config, field", [
        ("cv", {"trials": "abc"}, "trials"),
        ("icc", {"reps": "x"}, "reps"),
        ("split", {"seed": "x"}, "seed"),
    ])
    def test_config_value_that_does_not_cast(
        self, workspace, tmp_path, capsys, command, config, field
    ):
        inputs = {
            "cv": ["--plan", str(workspace["plan"]), "--targets", str(workspace["targets"]),
                   "--features", str(workspace["features"])],
            "icc": ["--seed", "5", "--ratings", str(workspace["filtered"])],
            "split": ["--ratings", str(workspace["filtered"])],
        }[command]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--out", str(tmp_path / "o"), "--config", str(path),
                     *inputs]) == 1
        error = _one_error_line(capsys)
        assert error["type"] == "validation"
        assert error["field"] == field

    @pytest.mark.parametrize("option", ["trials", "threads"])
    def test_zero_count_names_the_option(self, workspace, tmp_path, capsys, option):
        out = tmp_path / "o"
        assert main([*_fill(CV_ARGV, workspace), "--out", str(out), f"--{option}", "0"]) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": option,
            "message": f"option {option}: must be >= 1, got 0",
        }
        assert not out.exists()

    @pytest.mark.parametrize("key", ["rep", "verbose", "config"])
    def test_config_key_that_names_no_option_is_refused(self, workspace, tmp_path, capsys,
                                                         key):
        # `verbose` and `config` are flags only; `rep` is a misspelt `reps`
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"reps": 5, key: 5}))
        out = tmp_path / "o"
        assert main([*_fill(ICC_ARGV, workspace), "--out", str(out), "--config", str(path)]) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": key, "message": f"config key {key!r} names no option",
        }
        assert not out.exists()

    def test_config_keys_of_other_commands_are_accepted(self, workspace, tmp_path):
        # one file can serve several commands
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"reps": 5, "sizes": "3", "trials": 2, "form": "rise",
                                    "predictor": {"ranges": {"lambda": [1, 2, "log"]}}}))
        out = tmp_path / "o"
        assert main([*_fill(ICC_ARGV, workspace), "--out", str(out), "--config", str(path)]) == 0
        config = json.loads(_read(out / "run_manifest.json"))["config"]
        assert config == {"missing": "impute", "reps": 5, "sizes": [3]}

    def test_kind_flag_does_not_hide_an_invalid_predictor_kind(self, workspace, tmp_path,
                                                                capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"predictor": {"kind": "iterative_stub"}}))
        assert main([*_fill(CV_ARGV, workspace), "--out", str(tmp_path / "o"),
                     "--config", str(path), "--kind", "ridge_closed_form"]) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "kind",
            "message": "unknown predictor kind 'iterative_stub'",
        }

    def test_explicit_zero_reps_reaches_the_library_check(self, workspace, tmp_path, capsys):
        assert main([
            "icc", "--out", str(tmp_path / "o"), "--seed", "5",
            "--ratings", str(workspace["filtered"]), "--reps", "0",
        ]) == 1
        error = _one_error_line(capsys)
        assert "reps must be >= 1" in error["message"]
        assert error["field"] == "reps"

    @pytest.mark.parametrize("flag, value, field", [
        ("--alpha", "nan", "alpha"),
        ("--alpha", "0", "alpha"),
        ("--alpha", "1.5", "alpha"),
        ("--bootstrap", "50", "bootstrap"),
        ("--level", "nan", "level"),
    ])
    def test_error_analysis_option_out_of_range(self, inputs, tmp_path, capsys, flag, value,
                                                field):
        argv = _command("error-analysis", inputs, tmp_path / "o") + [flag, value]
        assert main(argv) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", field)

    def test_prop_ci_level_names_the_option(self, capsys):
        assert main(["prop-ci", "--successes", "3", "--n", "10", "--level", "nan"]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "level")

    @pytest.mark.parametrize("argv, field", [
        (["--successes", "5", "--n", "3"], "successes"),
        (["--successes", "1", "--n", "0"], "n"),
    ])
    def test_prop_ci_count_errors_name_the_option(self, capsys, argv, field):
        assert main(["prop-ci", *argv]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", field)

    @pytest.mark.parametrize("command", ["icc", "curve"])
    def test_unknown_choice_names_the_option(self, workspace, tmp_path, capsys, command):
        # flags and config keys go through the same check
        points = tmp_path / "p.csv"
        points.write_text("n,y\n1,2\n2,3\n3,4\n4,5\n")
        argv, field = {
            "icc": (["--seed", "5", "--ratings", str(workspace["filtered"]),
                     "--missing", "bogus"], "missing"),
            "curve": (["--points", str(points), "--form", "x"], "form"),
        }[command]
        assert main([command, "--out", str(tmp_path / "o"), *argv]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", field)
        assert "must be one of" in error["message"]

    def test_icc_size_below_two_names_the_option(self, workspace, tmp_path, capsys):
        assert main([
            "icc", "--out", str(tmp_path / "o"), "--seed", "5",
            "--ratings", str(workspace["filtered"]), "--sizes", "1,3",
        ]) == 1
        assert _one_error_line(capsys)["field"] == "sizes"

    @pytest.mark.parametrize("flags, field", [
        (["--var-image", "nan"], "var_image"),
        (["--var-rater", "inf"], "var_rater"),
        (["--var-residual", "-1"], "var_residual"),
        (["--mu=-inf"], "mu"),
        (["--offset", "nan"], "offset"),
        (["--raters", "5", "--outliers", "9"], "outliers"),
        (["--images", "-3"], "images"),
        (["--raters", "0"], "raters"),
        (["--dim", "-1"], "dim"),
    ])
    def test_synth_errors_name_the_option(self, tmp_path, capsys, flags, field):
        out = tmp_path / "o"
        assert main(["synth", "--out", str(out), "--seed", "3", *flags]) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", field)
        assert not (out / "ratings.csv").exists()

    @pytest.mark.parametrize("config, field", [
        ({"icc": {"reps": 5}}, "icc"),
        ({"predictor": {"batch_size": 16}}, "predictor"),
        ({"predictor": [1, 2]}, "predictor"),
        ({"missing": "drop"}, "missing"),
        # ridge_closed_form is the one kind, and it reads no epoch range
        ({"kind": "iterative_stub"}, "kind"),
        ({"predictor": {"kind": "iterative_stub"}}, "kind"),
        ({"predictor": {"epochs_range": [10, 50]}}, "predictor"),
    ])
    def test_unsupported_config_is_rejected(self, workspace, tmp_path, capsys, config, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([
            "all", "--out", str(tmp_path / "o"), "--seed", "5", "--config", str(path),
            "--ratings", str(workspace["ratings"]), "--features", str(workspace["features"]),
        ]) == 1
        assert _one_error_line(capsys)["field"] == field

    @pytest.mark.parametrize("bounds", [[0, 0, "linear"], [0, 1, "linear"], [-1, 1, "linear"],
                                        [0, 1, "log"], [-1, 1, "log"]])
    def test_ridge_penalty_range_reaching_zero_is_rejected(self, workspace, tmp_path, capsys,
                                                            bounds):
        # [0, 1] used to run whenever no draw happened to hit 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"predictor": {"ranges": {"lambda": bounds}}}))
        out = tmp_path / "cv"
        assert main([
            "cv", "--out", str(out), "--config", str(path), "--trials", "2",
            "--plan", str(workspace["plan"]), "--targets", str(workspace["targets"]),
            "--features", str(workspace["features"]),
        ]) == 1
        assert _one_error_line(capsys) == {
            "type": "validation", "field": "ranges",
            "message": "range lambda: the ridge penalty needs positive bounds",
        }
        assert not out.exists()


class TestAllOverlapValidation:
    def _all(self, workspace, tmp_path, *extra):
        return main([
            "all", "--out", str(tmp_path / "o"), "--seed", "5",
            "--ratings", str(workspace["ratings"]), "--features", str(workspace["features"]),
            *extra,
        ])

    def test_empty_masks_dir(self, workspace, tmp_path, capsys):
        dirs = _write_overlap_inputs(tmp_path, ["img000", "img001"])
        empty = tmp_path / "empty"
        empty.mkdir()
        assert self._all(workspace, tmp_path, "--masks", str(empty),
                         "--heatmaps", str(dirs["heat_a"])) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "masks")

    def test_masks_path_is_a_file(self, workspace, tmp_path, capsys):
        dirs = _write_overlap_inputs(tmp_path, ["img000", "img001"])
        assert self._all(workspace, tmp_path, "--masks", str(workspace["ratings"]),
                         "--heatmaps", str(dirs["heat_a"])) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "masks")

    @pytest.mark.parametrize("given, absent", [("masks", "heatmaps"), ("heat_a", "masks")])
    def test_one_of_masks_and_heatmaps(self, workspace, tmp_path, capsys, given, absent):
        dirs = _write_overlap_inputs(tmp_path, ["img000", "img001"])
        flag = "--masks" if given == "masks" else "--heatmaps"
        assert self._all(workspace, tmp_path, flag, str(dirs[given])) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", absent)
