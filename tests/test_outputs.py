"""File formats: stable float rendering, round-trips, manifests."""

import ast
import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import spidereval
from spidereval.error_analysis import analyze_errors
from spidereval.errors import InputError
from spidereval.harness import PredictionSet, make_prediction
from spidereval.ingest import CategoryTable, fmt, json_text
from spidereval.metrics import MetricReport
from spidereval.outputs import (
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


@dataclass(frozen=True)
class _Inner:
    values: tuple[float, ...]
    ids: tuple[str, ...]


@dataclass(frozen=True)
class _Outer:
    name: str
    inner: _Inner
    rest: tuple[_Inner, ...]


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

    @pytest.mark.parametrize("obj, same", [
        (_Outer("o", _Inner((1, 2.0000000001), ("b", "a")), (_Inner((), ()),)),
         {"name": "o", "inner": {"values": [1, 2.0000000001], "ids": ["b", "a"]},
          "rest": [{"values": [], "ids": []}]}),
        (frozenset({"b", "c", "a"}), ["a", "b", "c"]),
        (np.array([[0.1, 1 / 3], [2.0, -0.0]]), [[0.1, 1 / 3], [2.0, -0.0]]),
    ], ids=["dataclass", "frozenset", "ndarray"])
    def test_json_text_writes_a_record_as_its_plain_data(self, obj, same):
        assert json_text(obj) == json_text(same)
        assert json_text(obj, indent=2) == json_text(same, indent=2)

    def test_search_log_is_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_search_log(path, [{"b": 1, "a": 2}, {"trial": 3}])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0]) == {"a": 2, "b": 1}
        assert lines[0].index('"a"') < lines[0].index('"b"')


    def test_columns_match_rows(self, tmp_path):
        ids, counts, values = ["x", "y,z"], [1, 2], np.array([1.0 / 3.0, -0.0])
        write_csv(tmp_path / "rows.csv", ["id", "n", "v"], zip(ids, counts, values))
        write_csv(tmp_path / "cols.csv", ["id", "n", "v"], columns=[ids, counts, values])
        assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert (tmp_path / "cols.csv").read_text() == 'id,n,v\nx,1,0.333333333\n"y,z",2,-0\n'


    def test_columns_quote_each_distinct_cell_as_rows_do(self, tmp_path):
        labels = iter(["c", "b,c", 'd"e', "f\ng", "b,c"])
        names, counts = ("v", "w,x", "y", "z", "v"), [1, 2, 3, 4, 5]
        header = ["label", "name", "n"]
        write_csv(tmp_path / "rows.csv", header,
                  zip(["c", "b,c", 'd"e', "f\ng", "b,c"], names, counts))
        write_csv(tmp_path / "cols.csv", header, columns=[labels, names, counts])
        assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestJsonFloatRule:
    """JSON floats carry the digits of their CSV cell: 9 significant."""

    @staticmethod
    def _text(tmp_path, obj):
        write_json(tmp_path / "t.json", obj)
        return (tmp_path / "t.json").read_text()

    def test_short_decimals_unchanged(self, tmp_path):
        assert self._text(tmp_path, {"x": 0.1}) == '{\n  "x": 0.1\n}\n'

    def test_nine_significant_digits(self, tmp_path):
        assert self._text(tmp_path, [1.0 / 3.0, 2.0 / 3.0]) == (
            "[\n  0.333333333,\n  0.666666667\n]\n"
        )

    def test_numpy_floats(self, tmp_path):
        assert json.loads(self._text(tmp_path, {"x": np.float64(2.0) / 3.0})) == {"x": 0.666666667}

    def test_nested_lists_and_tuples(self, tmp_path):
        doc = {"a": [(1.0 / 3.0, [2.0 / 3.0])], "b": {"c": (0.1,)}}
        assert json.loads(self._text(tmp_path, doc)) == {
            "a": [[0.333333333, [0.666666667]]], "b": {"c": [0.1]}
        }

    def test_ints_bools_and_strings_untouched(self, tmp_path):
        doc = [2**100, 2**127 - 1, True, False, None, "1.23456789012"]
        assert json.loads(self._text(tmp_path, doc)) == doc

    def test_negative_zero_and_non_finite(self, tmp_path):
        assert self._text(tmp_path, [-0.0, float("inf")]) == "[\n  -0.0,\n  Infinity\n]\n"

    def test_search_log_same_rule(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_search_log(path, [{"loss": 1.0 / 3.0}])
        assert path.read_text() == '{"loss": 0.333333333}\n'


class _WriterCalls(ast.NodeVisitor):
    """``csv.writer``, ``json.dump`` and ``json.dumps`` calls by enclosing function."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                and (f.value.id, f.attr) in {("csv", "writer"), ("json", "dump"),
                                             ("json", "dumps")}):
            self.found.append((self.module, ".".join(self.scope), f"{f.value.id}.{f.attr}"))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module in ("csv", "json"):
            self.found.append((self.module, ".".join(self.scope), f"from {node.module} import"))


def test_text_artifacts_have_one_writer():
    """Every CSV and JSON text is encoded by the shared writers in ingest;
    the one other encoder is main's error line on stderr."""
    found = []
    for path in sorted(Path(spidereval.__file__).parent.glob("*.py")):
        visitor = _WriterCalls(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert sorted(found) == [
        ("cli", "main", "json.dumps"),
        ("ingest", "json_text", "json.dumps"),
        ("ingest", "write_csv", "csv.writer"),
    ]


def _text_writes(tree):
    """``(line, newline given)`` of every ``open``/``.open`` call whose mode
    writes text: a mode with w, a or x and no b."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "open"
                or getattr(node.func, "attr", None) == "open")):
            continue
        at = 1 if isinstance(node.func, ast.Name) else 0  # open(file, mode), Path.open(mode)
        modes = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "mode"]
        mode = modes[0].value if modes else "r"
        if set(mode) & set("wax") and "b" not in mode:
            yield node.lineno, any(k.arg == "newline" for k in node.keywords)


def test_text_writes_pin_their_line_ends():
    """Every text file src/ writes passes ``newline``, so a ``\\n`` is
    written as LF on every platform (Python's default writes os.linesep)."""
    found = []
    for path in sorted(Path(spidereval.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, line, given) for line, given in _text_writes(tree)]
    assert {stem for stem, _, _ in found} == {"cli", "ingest"}
    assert [(stem, line) for stem, line, given in found if not given] == []


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
        write_metrics(main, report, by_rep)
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

    NAMES = ("descriptives.csv", "omnibus.csv", "posthoc.csv", "top_criteria.json")

    def _write(self, tmp_path):
        paths = [tmp_path / name for name in self.NAMES]
        write_error_analysis(*paths, self._report())
        return paths

    def test_writes_four_files(self, tmp_path):
        self._write(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(self.NAMES)

    def test_posthoc_display_column(self, tmp_path):
        paths = self._write(tmp_path)
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
