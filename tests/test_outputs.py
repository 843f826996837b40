"""File formats: stable float rendering, round-trips, manifests."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from spidereval.error_analysis import analyze_errors
from spidereval.errors import InputError
from spidereval.harness import PredictionSet, make_prediction
from spidereval.ingest import CategoryTable
from spidereval.metrics import MetricReport
from spidereval.outputs import (
    fmt,
    load_image_targets,
    load_predictions,
    sha256_file,
    write_csv,
    write_error_analysis,
    write_image_targets,
    write_json,
    write_manifest,
    write_metrics,
    write_predictions,
    write_search_log,
)
from spidereval.partition import ImageTargets


class TestFmt:
    def test_nine_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333"
        assert fmt(0.1) == "0.1"
        assert fmt(123456789012.0) == "1.23456789e+11"
        assert fmt(0.000012345678949) == "1.23456789e-05"

    def test_integers_and_bools(self):
        assert fmt(42) == "42"
        assert fmt(np.int64(7)) == "7"
        assert fmt(True) == "true"
        assert fmt(False) == "false"

    def test_none_is_empty(self):
        assert fmt(None) == ""

    def test_numpy_floats(self):
        assert fmt(np.float64(2.5)) == "2.5"

    def test_strings_pass_through(self):
        assert fmt("texture") == "texture"


class TestCsvJson:
    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], [3, None]])
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "value"], [["x", 0.25], ["y", 1e-9]])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["name", "value"], ["x", "0.25"], ["y", "1e-09"]]

    def test_json_sorted_keys_and_newline(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"zeta": 1, "alpha": 2})
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("\n")
        assert json.loads(text) == {"zeta": 1, "alpha": 2}

    def test_search_log_is_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_search_log(path, [{"b": 1, "a": 2}, {"trial": 3}])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"a": 2, "b": 1}
        assert lines[0].index('"a"') < lines[0].index('"b"')


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = b"abc123" * 1000
        path.write_bytes(payload)
        assert sha256_file(path) == hashlib.sha256(payload).hexdigest()


class TestPredictionsRoundTrip:
    def test_exact_for_short_decimals(self, tmp_path):
        ps = PredictionSet((
            make_prediction(0, 2, "img001", 50.25),
            make_prediction(0, 1, "img000", -3.5),
            make_prediction(1, 0, "img000", 107.0),
        ))
        path = tmp_path / "preds.csv"
        write_predictions(path, ps)
        back = load_predictions(path)
        # the writer sorts rows, so compare contents rather than order
        assert set(back.entries) == set(ps.entries)

    def test_rows_sorted_by_rep_fold_image(self, tmp_path):
        ps = PredictionSet((
            make_prediction(1, 0, "b", 1.0),
            make_prediction(0, 1, "z", 2.0),
            make_prediction(0, 0, "a", 3.0),
        ))
        path = tmp_path / "preds.csv"
        write_predictions(path, ps)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            ("0", "0", "a"), ("0", "1", "z"), ("1", "0", "b"),
        ]

    def test_arbitrary_floats_survive_to_nine_digits(self, tmp_path):
        rng = np.random.default_rng(6)
        ps = PredictionSet(tuple(
            make_prediction(0, 0, f"i{k:03d}", float(rng.uniform(-20, 120)))
            for k in range(50)
        ))
        path = tmp_path / "preds.csv"
        write_predictions(path, ps)
        back = load_predictions(path)
        for orig, loaded in zip(
            sorted(ps.entries, key=lambda p: p.image_id),
            sorted(back.entries, key=lambda p: p.image_id),
        ):
            assert loaded.raw == pytest.approx(orig.raw, rel=1e-8)
            assert loaded.clipped == pytest.approx(orig.clipped, rel=1e-8)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(InputError, match="bad header"):
            load_predictions(path)

    def test_malformed_float_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("rep,fold,image_id,raw,clipped\n0,0,a,abc,1.0\n")
        with pytest.raises(InputError, match="malformed numeric"):
            load_predictions(path)


class TestImageTargetsRoundTrip:
    def _targets(self):
        return ImageTargets(
            mean_a={"a": 10.5, "b": 20.25},
            mean_b={"a": 11.0, "b": 19.75},
            n_a={"a": 12, "b": 12},
            n_b={"a": 13, "b": 13},
            dropped=(),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "targets.csv"
        write_image_targets(path, self._targets())
        back = load_image_targets(path)
        assert back.mean_a == self._targets().mean_a
        assert back.mean_b == self._targets().mean_b
        assert back.n_a == self._targets().n_a

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text(
            "image_id,mean_a,mean_b,n_a,n_b\na,1,2,3,4\na,5,6,7,8\n"
        )
        with pytest.raises(InputError, match="duplicate image"):
            load_image_targets(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_image_targets(tmp_path / "absent.csv")


class TestMetricsFile:
    def test_single_row_layout(self, tmp_path):
        report = MetricReport(
            per_repetition=((0, 11.0, 14.0, 0.5), (1, 11.2, 14.2, 0.48)),
            mean_mae=11.1, mean_rmse=14.1, mean_r2=0.49,
            ensemble_mae=10.8, ensemble_rmse=13.9, ensemble_r2=0.52,
        )
        main = tmp_path / "metrics.csv"
        by_rep = tmp_path / "metrics_by_rep.csv"
        write_metrics(main, report, by_rep_path=by_rep)
        with open(main, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r2", "mae", "rmse", "r2_ens", "mae_ens", "rmse_ens"]
        assert rows[1] == ["0.49", "11.1", "14.1", "0.52", "10.8", "13.9"]
        with open(by_rep, newline="") as fh:
            rep_rows = list(csv.reader(fh))
        assert rep_rows[0] == ["rep", "mae", "rmse", "r2"]
        assert len(rep_rows) == 3


class TestErrorAnalysisFiles:
    def _report(self):
        rng = np.random.default_rng(19)
        errors, texture = {}, {}
        for k in range(30):
            img = f"i{k:03d}"
            errors[img] = float(rng.normal(10.0 + 6.0 * (k % 2), 1.0))
            texture[img] = "smooth" if k % 2 == 0 else "hairy"
        cats = CategoryTable({(img, "texture"): lab for img, lab in texture.items()})
        return analyze_errors(errors, cats, bootstrap=150, seed=3)

    def test_writes_four_files(self, tmp_path):
        paths = write_error_analysis(tmp_path, self._report())
        assert [p.split("/")[-1] for p in paths] == [
            "descriptives.csv", "omnibus.csv", "posthoc.csv", "top_criteria.json",
        ]
        for p in paths:
            assert (tmp_path / p.split("/")[-1]).exists()

    def test_posthoc_display_column(self, tmp_path):
        paths = write_error_analysis(tmp_path, self._report())
        with open(paths[2], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-1] == "p_fdr_display"
        # strongly separated groups: adjusted p prints as "< .001"
        assert rows[1][-1] == "< .001"


class TestManifest:
    def test_deterministic_and_timestamp_free(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("a,b\n1,2\n")
        out = tmp_path / "out.csv"
        out.write_text("x\n1\n")
        path1 = write_manifest(
            tmp_path, command="evaluate", config={"seed": 3}, seed=3,
            inputs=[str(data)], outputs=[str(out)],
        )
        first = Path(path1).read_text()
        path2 = write_manifest(
            tmp_path, command="evaluate", config={"seed": 3}, seed=3,
            inputs=[str(data)], outputs=[str(out)],
        )
        assert Path(path2).read_text() == first
        doc = json.loads(first)
        assert "time" not in first.lower()
        assert "thread" not in first.lower()
        assert doc["inputs"]["in.csv"] == sha256_file(data)
        assert doc["outputs"]["out.csv"] == sha256_file(out)
        assert doc["seed"] == 3
        assert set(doc["versions"]) == {"package", "python", "numpy"}

    def test_same_named_inputs_keep_separate_entries(self, tmp_path):
        paths = []
        for d in ("heat_a", "heat_b", "masks/sub"):
            (tmp_path / d).mkdir(parents=True)
            paths.append(tmp_path / d / "img000.pfm")
            paths[-1].write_text(d)
        doc = json.loads(Path(write_manifest(
            tmp_path, command="c", config={}, seed=None,
            inputs=[str(p) for p in paths], outputs=[],
        )).read_text())
        assert doc["inputs"] == {
            "heat_a/img000.pfm": sha256_file(paths[0]),
            "heat_b/img000.pfm": sha256_file(paths[1]),
            "masks/sub/img000.pfm": sha256_file(paths[2]),
        }

    def test_missing_files_skipped(self, tmp_path):
        path = write_manifest(
            tmp_path, command="c", config={}, seed=None,
            inputs=[str(tmp_path / "ghost.csv")], outputs=[],
        )
        doc = json.loads(Path(path).read_text())
        assert doc["inputs"] == {}
        assert doc["seed"] is None
