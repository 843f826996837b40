"""Subcommand smoke tests through main(argv), plus error-path contracts."""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spidereval
from spidereval.cli import main
from spidereval.ingest import BinaryMask, FloatGrid, write_float_grid, write_mask
from spidereval.outputs import sha256_file

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


def _command(name, files, out):
    argv = COMMAND_LINES[name]
    return [str(files[a[1:-1]]) if a.startswith("{") else a for a in argv] + ["--out", str(out)]


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
    def test_nonexistent_input_path(self, tmp_path, capsys):
        assert main([
            "qc", "--out", str(tmp_path / "o"), "--ratings", str(tmp_path / "ghost.csv"),
        ]) == 1
        doc = _stderr_json(capsys)
        assert doc["error"]["type"] == "validation"
        assert doc["error"]["field"] == "ratings"

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

    @pytest.mark.parametrize("option", ["targets", "predictions", "points"])
    def test_trailing_blank_line_is_skipped(self, inputs, tmp_path, option):
        bad = self._corrupt(Path(inputs[option]), "trailing_blank_line", tmp_path)
        assert main(_command(self.READER[option], {**inputs, option: bad}, tmp_path / "o")) == 0

    def test_missing_heatmap_names_the_option(self, inputs, tmp_path, capsys):
        heatmaps = tmp_path / "heatmaps"
        shutil.copytree(inputs["heatmaps"], heatmaps)
        missing = sorted(heatmaps.iterdir())[0]
        missing.unlink()
        assert main(_command("overlap", {**inputs, "heatmaps": heatmaps}, tmp_path / "o")) == 1
        error = _one_error_line(capsys)
        assert (error["type"], error["field"]) == ("validation", "heatmaps")
        assert str(missing) in error["message"]

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

    @pytest.mark.parametrize("edit", ["drop_last_fold", "swap_folds", "huge_seed"])
    def test_malformed_plan_shape(self, workspace, tmp_path, capsys, edit):
        doc = json.loads(_read(workspace["plan"]))
        if edit == "drop_last_fold":
            doc["folds"].pop()
        elif edit == "swap_folds":
            doc["folds"][0], doc["folds"][1] = doc["folds"][1], doc["folds"][0]
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

    def test_icc_size_below_two_names_the_option(self, workspace, tmp_path, capsys):
        assert main([
            "icc", "--out", str(tmp_path / "o"), "--seed", "5",
            "--ratings", str(workspace["filtered"]), "--sizes", "1,3",
        ]) == 1
        assert _one_error_line(capsys)["field"] == "sizes"

    @pytest.mark.parametrize("config, field", [
        ({"icc": {"reps": 5}}, "icc"),
        ({"predictor": {"batch_size": 16}}, "predictor"),
        ({"predictor": [1, 2]}, "predictor"),
        ({"missing": "drop"}, "missing"),
    ])
    def test_unsupported_config_is_rejected(self, workspace, tmp_path, capsys, config, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([
            "all", "--out", str(tmp_path / "o"), "--seed", "5", "--config", str(path),
            "--ratings", str(workspace["ratings"]), "--features", str(workspace["features"]),
        ]) == 1
        assert _one_error_line(capsys)["field"] == field

    def test_epochs_range_applies_without_ranges(self, workspace, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"predictor": {"kind": "iterative_stub", "epochs_range": [3, 4]}}
        ))
        out = tmp_path / "cv"
        assert main([
            "cv", "--out", str(out), "--config", str(path), "--trials", "2",
            "--plan", str(workspace["plan"]), "--targets", str(workspace["targets"]),
            "--features", str(workspace["features"]),
        ]) == 0
        with open(out / "search_log.jsonl") as fh:
            epochs = {json.loads(line)["max_epochs"] for line in fh}
        assert epochs <= {3, 4}


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
