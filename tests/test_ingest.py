import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spidereval import ingest
from spidereval.cli import main
from spidereval.errors import InputError
from spidereval.ingest import (
    CRITERIA,
    RATINGS_HEADER,
    BinaryMask,
    FloatGrid,
    InputFile,
    RatingRecord,
    RatingsTable,
    first_trial_filter,
    load_categories,
    load_features,
    load_float_grid,
    load_mask,
    load_ratings,
    rows_by_code,
    write_features,
    write_float_grid,
    write_mask,
    write_ratings,
)
from spidereval.ingest import FeatureTable
from spidereval.outputs import PREDICTIONS_HEADER, TARGETS_HEADER


def _table(rows):
    return RatingsTable(tuple(RatingRecord(*r) for r in rows))


def write_text(path, text):
    path.write_text(text)
    return path


class TestRatings:
    def test_round_trip(self, tmp_path):
        table = _table([
            ("p1", "img1", 1, 42.0),
            ("p1", "img2", 1, 0.0),
            ("p2", "img1", 2, 99.5),
        ])
        out = tmp_path / "r.csv"
        write_ratings(table, out)
        loaded = load_ratings(out)
        assert loaded.records == table.records

    def test_header_required(self, tmp_path):
        p = write_text(tmp_path / "r.csv", "a,b,c,d\np1,i1,1,5\n")
        with pytest.raises(InputError, match="bad header"):
            load_ratings(p)

    def test_empty_file(self, tmp_path):
        p = write_text(tmp_path / "r.csv", "")
        with pytest.raises(InputError, match="empty file"):
            load_ratings(p)

    def test_error_carries_line_number(self, tmp_path):
        p = write_text(
            tmp_path / "r.csv",
            "participant_id,image_id,trial_index,rating\np1,i1,1,5\np1,i2,1,oops\n",
        )
        with pytest.raises(InputError, match=r":3:"):
            load_ratings(p)

    @pytest.mark.parametrize("value", ["-1", "100.5", "nan", "inf"])
    def test_rating_range_enforced(self, tmp_path, value):
        p = write_text(
            tmp_path / "r.csv",
            f"participant_id,image_id,trial_index,rating\np1,i1,1,{value}\n",
        )
        with pytest.raises(InputError):
            load_ratings(p)

    def test_duplicate_triple_rejected(self, tmp_path):
        p = write_text(
            tmp_path / "r.csv",
            "participant_id,image_id,trial_index,rating\n"
            "p1,i1,1,5\np1,i1,1,6\n",
        )
        with pytest.raises(InputError, match="duplicate"):
            load_ratings(p)

    def test_trial_index_must_be_positive(self, tmp_path):
        p = write_text(
            tmp_path / "r.csv",
            "participant_id,image_id,trial_index,rating\np1,i1,0,5\n",
        )
        with pytest.raises(InputError, match="trial_index"):
            load_ratings(p)

    def test_indexes_and_grouping(self):
        table = _table([
            ("p2", "i1", 1, 1.0),
            ("p1", "i1", 1, 2.0),
            ("p1", "i2", 1, 3.0),
        ])
        assert table.participant_index == frozenset({"p1", "p2"})
        assert table.image_index == frozenset({"i1", "i2"})
        assert table.n_participants == 2
        assert table.n_images == 2
        assert table.participant_ids == ("p1", "p2")
        assert table.image_ids == ("i1", "i2")
        # rows in (participant, image, trial) order: p1 i1, p1 i2, p2 i1
        assert [rows.tolist() for rows in rows_by_code(table.image, 2)] == [[0, 2], [1]]
        by_participant = rows_by_code(table.participant, 2)
        assert [table.rating[rows].tolist() for rows in by_participant] == [[2.0, 3.0], [1.0]]

    def test_without_participants(self):
        table = _table([("p1", "i1", 1, 1.0), ("p2", "i1", 1, 2.0)])
        kept = table.without_participants({"p1"})
        assert kept.participant_index == frozenset({"p2"})
        assert len(kept) == 1


RATINGS_HEAD = "participant_id,image_id,trial_index,rating\n"


class TestRatingsErrors:
    """Every row check names the first bad row of the file, with its line."""

    def _error(self, tmp_path, body):
        path = write_text(tmp_path / "r.csv", RATINGS_HEAD + body)
        with pytest.raises(InputError) as info:
            load_ratings(path)
        assert info.value.field == "ratings"
        return str(info.value).replace(f"{path}:", "")

    @pytest.mark.parametrize("body, message", [
        ("p1,i1,1,5\n,i2,1,5\n", "3: empty participant or image id"),
        ("p1,,1,5\n", "2: empty participant or image id"),
        ("p1,i1,0,5\n", "2: trial_index must be an integer >= 1, got '0'"),
        ("p1,i1,x,5\n", "2: trial_index must be an integer >= 1, got 'x'"),
        ("p1,i1,99999999999999999999,5\n",
         "2: trial_index must be <= 9223372036854775807, got '99999999999999999999'"),
        ("p1,i1,1,100.5\n", "2: rating 100.5 outside [0, 100]"),
        ("p1,i1,1,-0.1\n", "2: rating -0.1 outside [0, 100]"),
        ("p1,i1,1,nan\n", "2: non-finite rating: 'nan'"),
    ])
    def test_row_checks_keep_their_messages(self, tmp_path, body, message):
        assert self._error(tmp_path, body) == message

    def test_two_bad_rows_name_the_first(self, tmp_path):
        body = "p1,i1,1,5\np1,i2,1,101\np2,,1,5\n"
        assert self._error(tmp_path, body) == "3: rating 101 outside [0, 100]"

    def test_duplicate_names_the_later_line(self, tmp_path):
        body = "p2,i1,1,5\np1,i1,1,5\np1,i1,2,5\np2,i1,1,6\np1,i1,1,6\n"
        assert self._error(tmp_path, body) == (
            "5: duplicate (participant, image, trial) ('p2', 'i1', 1)"
        )

    def test_duplicate_above_a_bad_row_comes_first(self, tmp_path):
        body = "p1,i1,1,5\np1,i1,1,6\np1,i2,1,oops\n"
        assert self._error(tmp_path, body) == (
            "3: duplicate (participant, image, trial) ('p1', 'i1', 1)"
        )

    def test_bad_row_above_a_duplicate_comes_first(self, tmp_path):
        body = "p1,i1,1,5\np1,i2,1,oops\np1,i1,1,6\n"
        assert self._error(tmp_path, body) == "3: malformed numeric field rating: 'oops'"

    def test_line_numbers_count_physical_lines(self, tmp_path):
        body = 'p1,"i\n1",1,5\np1,"i\n1",1,6\n'
        assert self._error(tmp_path, body).startswith("5: duplicate")

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_a_file_without_rows_is_an_error(self, tmp_path, body):
        path = write_text(tmp_path / "r.csv", RATINGS_HEAD + body)
        with pytest.raises(InputError) as info:
            load_ratings(path)
        assert info.value.field == "ratings"
        assert str(info.value) == f"{path}: no rating rows"


def _reference_error(path):
    """The first error of a ratings file by a row-by-row parse: each row's
    cells are checked in column order and a repeated (participant, image,
    trial) is reported at the repeat, whichever comes first in the file."""
    src = InputFile(path, "ratings")
    seen = set()
    try:
        for line, (participant, image, trial_raw, rating_raw) in src.rows(RATINGS_HEADER):
            if not participant or not image:
                raise src.error("empty participant or image id", line)
            trial = src.integer(trial_raw, line, "trial_index", 1)
            if trial > 2**63 - 1:
                raise src.error(f"trial_index must be <= {2**63 - 1}, got {trial_raw!r}", line)
            rating = src.number(rating_raw, line, "rating")
            if not 0.0 <= rating <= 100.0:
                raise src.error(f"rating {rating_raw} outside [0, 100]", line)
            key = (participant, image, trial)
            if key in seen:
                raise src.error(f"duplicate (participant, image, trial) {key}", line)
            seen.add(key)
    except InputError as exc:
        return str(exc)
    return None


CORRUPTIONS = [
    (0, ""), (1, ""),
    (2, "0"), (2, "x"), (2, str(2**63)),
    (3, "-0.1"), (3, "101"), (3, "nan"), (3, "inf"), (3, "oops"),
    ("fields", 3), ("fields", 5),
]


@st.composite
def corrupted_ratings(draw):
    """Valid rating rows with one corrupted row and, sometimes, a repeat of
    a valid row's (participant, image, trial) inserted above or below it."""
    rows = draw(st.lists(
        st.tuples(st.sampled_from(["p1", "p2", "p10"]), st.sampled_from(["i1", "i2", "a"]),
                  st.sampled_from(["1", "2", "07"]), st.sampled_from(["0", "5.5", "100", "1e1"])),
        min_size=1, max_size=12, unique_by=lambda r: (r[0], r[1], int(r[2]))))
    rows = [list(r) for r in rows]
    bad = draw(st.integers(0, len(rows) - 1))
    # one or two cells of the row, so that the order of the checks shows
    corruptions = draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=2,
                                unique_by=lambda c: c[0]))
    for where, value in sorted(corruptions, key=lambda c: c[0] == "fields"):
        if where == "fields":
            rows[bad] = (rows[bad] + ["9"])[:value]
        else:
            rows[bad][where] = value
    valid = [k for k in range(len(rows)) if k != bad]
    if valid and draw(st.booleans()):
        source = rows[draw(st.sampled_from(valid))]
        repeat = source[:3] + ["50"]
        rows.insert(draw(st.integers(0, len(rows))), repeat)
    return rows


class TestRatingsErrorOrder:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(corrupted_ratings())
    def test_same_message_and_line_as_a_row_by_row_parse(self, tmp_path, rows):
        path = tmp_path / "r.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RATINGS_HEADER)
            writer.writerows(rows)
        expected = _reference_error(path)
        assert expected is not None
        with pytest.raises(InputError) as info:
            load_ratings(path)
        assert (str(info.value), info.value.field) == (expected, "ratings")


def test_parse_keeps_no_python_object_per_row(tmp_path):
    # Per-row str/int/float objects alone would take ~270 bytes a row.
    path = tmp_path / "r.csv"
    rows = [f"p{p},img{i},{1 + (p + i) % 3},{(p * 7 + i) % 100}.25"
            for p in range(200) for i in range(100)]
    path.write_text(RATINGS_HEAD + "\n".join(rows) + "\n")
    tracemalloc.start()
    try:
        table = load_ratings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 20_000
    assert peak / len(table) <= 110


class TestFirstTrialFilter:
    def test_keeps_earliest_trial(self):
        table = _table([
            ("p1", "i1", 2, 10.0),
            ("p1", "i1", 1, 20.0),
            ("p1", "i2", 3, 30.0),
        ])
        filtered = first_trial_filter(table)
        assert [(r.image_id, r.trial_index, r.rating) for r in filtered.records] == [
            ("i1", 1, 20.0),
            ("i2", 3, 30.0),
        ]

    def test_idempotent(self):
        table = _table([
            ("p1", "i1", 2, 10.0),
            ("p1", "i1", 1, 20.0),
            ("p2", "i1", 1, 5.0),
        ])
        once = first_trial_filter(table)
        twice = first_trial_filter(once)
        assert once.records == twice.records

    @given(st.lists(
        st.tuples(st.sampled_from(["p1", "p2", "p3"]),
                  st.sampled_from(["i1", "i2"]),
                  st.integers(min_value=1, max_value=5),
                  st.floats(min_value=0, max_value=100, allow_nan=False)),
        max_size=25, unique_by=lambda r: (r[0], r[1], r[2])))
    def test_one_record_per_pair(self, rows):
        filtered = first_trial_filter(_table(rows))
        pairs = [(r.participant_id, r.image_id) for r in filtered.records]
        assert len(pairs) == len(set(pairs))
        # every (participant, image) pair of the input survives
        assert set(pairs) == {(r[0], r[1]) for r in rows}


class TestCategories:
    def _write(self, tmp_path, rows):
        lines = ["image_id,criterion,category"]
        lines += [",".join(r) for r in rows]
        return write_text(tmp_path / "c.csv", "\n".join(lines) + "\n")

    def test_load_and_lookup(self, tmp_path):
        p = self._write(tmp_path, [
            ("i1", "texture", "hairy"),
            ("i2", "texture", "smooth"),
        ])
        cats = load_categories(p)
        assert cats.criteria() == ["texture"]
        assert cats.images() == ["i1", "i2"]
        assert cats.label("i1", "texture") == "hairy"

    def test_criteria_follow_canonical_order(self, tmp_path):
        p = self._write(tmp_path, [
            ("i1", "texture", "hairy"),
            ("i1", "spider in picture", "spider"),
        ])
        cats = load_categories(p)
        assert cats.criteria() == ["spider in picture", "texture"]
        assert cats.criteria() == [c for c in CRITERIA if c in cats.criteria()]

    def test_unknown_criterion_rejected(self, tmp_path):
        p = self._write(tmp_path, [("i1", "mood", "dark")])
        with pytest.raises(InputError, match="unknown criterion"):
            load_categories(p)

    def test_incomplete_criterion_rejected(self, tmp_path):
        p = self._write(tmp_path, [
            ("i1", "texture", "hairy"),
            ("i2", "texture", "smooth"),
            ("i1", "eyes", "visible"),
        ])
        with pytest.raises(InputError):
            load_categories(p)

    def test_missing_label_raises(self, tmp_path):
        p = self._write(tmp_path, [("i1", "texture", "hairy")])
        cats = load_categories(p)
        with pytest.raises(InputError):
            cats.label("i9", "texture")

    @pytest.mark.parametrize("last, line, message", [
        (("i2", "texture", ""), 3, "empty category label"),
        (("i1", "texture", "bald"), 3, "duplicate entry for ('i1', 'texture')"),
    ])
    def test_bad_row_names_its_line_through_error_analysis(self, tmp_path, capsys, last, line,
                                                           message):
        p = self._write(tmp_path, [("i1", "texture", "hairy"), last])
        with pytest.raises(InputError) as info:
            load_categories(p)
        assert (str(info.value), info.value.field) == (f"{p}:{line}: {message}", "categories")
        targets = write_text(tmp_path / "t.csv", ",".join(TARGETS_HEADER) + "\ni1,50,40,2,2\n")
        predictions = write_text(tmp_path / "p.csv",
                                 ",".join(PREDICTIONS_HEADER) + "\n0,0,i1,45,45\n")
        out = tmp_path / "errors"
        assert main(["error-analysis", "--out", str(out), "--seed", "5",
                     "--predictions", str(predictions), "--targets", str(targets),
                     "--categories", str(p)]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert json.loads(err)["error"] == {
            "type": "validation", "field": "categories", "message": f"{p}:{line}: {message}"}
        assert not out.exists()


class TestFeatures:
    def test_round_trip(self, tmp_path):
        feats = FeatureTable(vectors={
            "i1": np.array([1.0, -2.5]),
            "i2": np.array([0.25, 4.0]),
        })
        out = tmp_path / "f.csv"
        write_features(feats, out)
        loaded = load_features(out)
        assert loaded.dim == 2
        assert np.allclose(loaded.matrix(["i2", "i1"]),
                           [[0.25, 4.0], [1.0, -2.5]])

    def test_matrix_missing_image(self):
        feats = FeatureTable(vectors={"i1": np.zeros(3)})
        with pytest.raises(InputError, match="missing feature"):
            feats.matrix(["i1", "i2"])

    def test_bad_header(self, tmp_path):
        p = write_text(tmp_path / "f.csv", "image_id,a,b\ni1,1,2\n")
        with pytest.raises(InputError):
            load_features(p)

    def test_non_finite_rejected(self, tmp_path):
        p = write_text(tmp_path / "f.csv", "image_id,f0\ni1,inf\n")
        with pytest.raises(InputError, match="non-finite"):
            load_features(p)

    # numpy's C reader or the row loop converts a cell; each must read it as
    # float() does, which InputFile.number applies to one cell.
    @pytest.mark.parametrize("text", ["1_0", " 1.5 ", "\u0661", "nan", "Infinity", "1e400",
                                      "+.5", "1.", "-0", "0x10", "1e", "1d5", ""])
    def test_cell_reads_as_float_does(self, tmp_path, text):
        p = tmp_path / "f.csv"
        p.write_bytes(f"image_id,f0,f1\ni1,2,{text}\n".encode())
        try:
            expected = InputFile(p, "features").number(text, 2, "f1")
        except InputError as exc:
            with pytest.raises(InputError) as got:
                load_features(p)
            assert (str(got.value), got.value.field) == (str(exc), "features")
        else:
            row = load_features(p).matrix(["i1"])[0]
            assert row.tolist() == [2.0, expected]
            assert np.signbit(row[1]) == np.signbit(expected)


def _features_or_error(load, path):
    """What a features parse gives: ids, shape and value bits, or its error."""
    try:
        table = load(path)
    except InputError as exc:
        return str(exc), exc.field
    return table.ids, table.array.shape, table.array.tobytes()


def _row_loop(path):
    return ingest._feature_rows(InputFile(path, "features"))


LIMIT = csv.field_size_limit()
# Cell texts that numpy's C reader and float() both read, that only
# float() reads, that neither reads, and that the csv module splits or
# unquotes; the last two are a field over the csv field limit and a field
# just under it that makes its line longer than the limit.
SPECIAL_CELLS = [
    "0", "-0", "+.5", "1.", "4e-320", "2.5E+3", " 1.5 ", "\t7\x0c", "\xa01\u2028",
    "1_0", "\u0661", "\uff13", "nan", "-inf", "Infinity", "1e999", "", " ", "0x10", "1e",
    '"2"', '"1,5"', '"1\n5"', 'a"b', "#3", "3\r", "1\x00",
    " " * LIMIT + "1", "1" + " " * (LIMIT - 2),
]
PLAIN_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
HEADERS = ["image_id", "image_id,f1", "image_id, f0", "Image_id,f0", '"image_id",f0', ""]


@st.composite
def feature_files(draw):
    """Features CSV bytes, with a BOM or not, LF or CRLF line ends, blank
    lines and lines of spaces. Half the files are well formed but for
    those; the other half may hold a bad header, short and long rows,
    repeated or odd ids and cells of every kind above."""
    dim = draw(st.integers(1, 3))
    header = ",".join(["image_id", *(f"f{i}" for i in range(dim))])
    faulty = draw(st.booleans())
    cells = st.one_of(PLAIN_CELLS, PLAIN_CELLS, st.sampled_from(SPECIAL_CELLS))
    lines = [draw(st.sampled_from([header] * 6 + HEADERS)) if faulty else header]
    for k in range(draw(st.integers(0, 5))):
        if faulty:
            width = draw(st.sampled_from([dim] * 6 + [dim - 1, dim + 1]))
            image = draw(st.sampled_from(["i0", "i1", "img 2", "\xe9", "", " i0"]))
        else:
            width, image = dim, f"i{k}"
        lines.append(",".join([image, *draw(st.lists(cells if faulty else PLAIN_CELLS,
                                                     min_size=width, max_size=width))]))
    for _ in range(draw(st.integers(0, 2))):
        blank = draw(st.sampled_from(["", "", "   "] if faulty else [""]))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return (("\ufeff" if draw(st.booleans()) else "") + text).encode()


class TestFeaturesParse:
    """``load_features`` gives what the row loop, the reference parse, gives:
    the same ids and value bits, or the same error message and ``field``."""

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(feature_files())
    def test_same_result_as_the_row_loop(self, tmp_path, data):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        assert _features_or_error(load_features, path) == _features_or_error(_row_loop, path)

    @pytest.mark.parametrize("data", [
        b"",
        b"image_id,f0,f1\n",
        b"image_id,f0\n\n\r\n",
        b"image_id,f0\ni1,1\n   \n",
        b"image_id,f0\ni1,1\ni1,2\n",
        b"image_id,f0,f1\ni1,1\n",
        b"image_id,f0\ni1,1,2\n",
        b"image_id,f0\ni1,\n",
        b"image_id,f0\ni1,1\ni2,1e999\n",
        b"image_id,f0\ni1,1\rx,2\n",
        b"image_id,f0\ni1,\xff\n",
        # what only float() reads, or only the csv module unquotes
        'image_id,f0,f1\ni1,1_0,"2"\n"i,2",\u0661,\uff13\n'.encode(),
        # a line over the field limit whose fields are all under it
        (",".join(["image_id", *(f"f{i}" for i in range(20_000))]) + "\ni1"
         + ",0.12345" * 20_000 + "\n").encode(),
    ])
    def test_edge_files(self, tmp_path, data):
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        assert _features_or_error(load_features, path) == _features_or_error(_row_loop, path)

    @pytest.mark.parametrize("data", [
        b"image_id,f0,f1\ni1,1.5,-2\ni2,0,3e-5\n",
        b"\xef\xbb\xbfimage_id,f0\r\n\r\ni1, 1.5 \r\n\r\ni2,4e-320\r\n",
        b"image_id,f0\n\ni1,-0\ni2,2",
        "image_id,f0\n\xe9 \u2028,7\xa0\n".encode(),
    ])
    def test_plain_file_never_reaches_the_row_loop(self, tmp_path, monkeypatch, data):
        """numpy's C reader parses a plain file, on every supported numpy."""
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        expected = _features_or_error(_row_loop, path)
        assert len(expected) == 3  # parsed, not an error

        def reached(src):
            raise AssertionError(f"row loop reached for {src.path}")

        monkeypatch.setattr(ingest, "_feature_rows", reached)
        assert _features_or_error(load_features, path) == expected


class TestFloatGrid:
    def test_round_trip_known_values(self, tmp_path):
        values = np.array([[0.0, 1.5], [-2.25, 8.0]])
        grid = FloatGrid(width=2, height=2, values=values)
        out = tmp_path / "g.pfm"
        write_float_grid(grid, out)
        loaded = load_float_grid(out)
        assert loaded.width == 2 and loaded.height == 2
        assert np.array_equal(loaded.values, values)

    @settings(max_examples=30)
    @given(arrays(np.float32, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                  elements=st.floats(-1e6, 1e6, width=32)))
    def test_round_trip_random(self, tmp_path_factory, values):
        out = tmp_path_factory.mktemp("pfm") / "g.pfm"
        h, w = values.shape
        grid = FloatGrid(width=w, height=h, values=values.astype(np.float64))
        write_float_grid(grid, out)
        loaded = load_float_grid(out)
        assert np.array_equal(loaded.values, values.astype(np.float64))

    def test_row_order_is_flipped_on_disk(self, tmp_path):
        # PFM payload is bottom-to-top: first stored row is the last grid row
        grid = FloatGrid(width=1, height=2,
                         values=np.array([[1.0], [2.0]]))
        out = tmp_path / "g.pfm"
        write_float_grid(grid, out)
        raw = out.read_bytes()
        payload = np.frombuffer(raw[raw.index(b"-1.0\n") + 5:], dtype="<f4")
        assert payload.tolist() == [2.0, 1.0]

    def test_color_pfm_rejected(self, tmp_path):
        p = tmp_path / "g.pfm"
        p.write_bytes(b"PF\n1 1\n-1.0\n" + b"\0" * 12)
        with pytest.raises(InputError, match="grayscale"):
            load_float_grid(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "g.pfm"
        p.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\0" * 8)
        with pytest.raises(InputError):
            load_float_grid(p)

    def test_non_finite_payload(self, tmp_path):
        p = tmp_path / "g.pfm"
        p.write_bytes(b"Pf\n1 1\n-1.0\n" + np.float32("nan").tobytes())
        with pytest.raises(InputError, match="non-finite"):
            load_float_grid(p)

    @pytest.mark.parametrize("scale, order", [("-1.0", "<f4"), ("1.0", ">f4")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_file_and_field(self, tmp_path, scale, order, bad):
        p = tmp_path / "g.pfm"
        p.write_bytes(f"Pf\n2 1\n{scale}\n".encode() + np.array([1.5, bad], order).tobytes())
        with pytest.raises(InputError) as info:
            load_float_grid(p)
        assert (str(info.value), info.value.field) == (f"{p}: non-finite float values", "heatmaps")

    def test_constructed_grid_is_checked(self):
        with pytest.raises(InputError, match="grid contains non-finite values"):
            FloatGrid(width=2, height=1, values=np.array([[0.0, np.nan]]))

    PAYLOAD = np.array([1.5, -2.0], dtype="<f4").tobytes()  # one row of two

    @pytest.mark.parametrize("header", [
        b"Pf\n2 1\n-1.0\n",  # as the writer writes it
        b"Pf\r\n2 1\r\n-1.0\r\n",
        b"Pf \n\t2\t1 \n -1 \n",
        b"Pf\n0002 01\n-1.000000\n",
        b"Pf\n2 1\n-.5\n",
        b"Pf\n2 1\n-1e0\n",
        b"Pf\n2 1\n-3.\n",
    ])
    def test_header_grammar_accepted(self, tmp_path, header):
        p = tmp_path / "g.pfm"
        p.write_bytes(header + self.PAYLOAD)
        assert load_float_grid(p).values.tolist() == [[1.5, -2.0]]

    @pytest.mark.parametrize("scale", [b"1.0", b"+1", b"2e-3"])
    def test_positive_scale_is_big_endian(self, tmp_path, scale):
        p = tmp_path / "g.pfm"
        p.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + np.array([1.5, -2.0], dtype=">f4").tobytes())
        assert load_float_grid(p).values.tolist() == [[1.5, -2.0]]

    @pytest.mark.parametrize("header", [
        b"Pf\n2 1\nnan\n",
        b"Pf\n2 1\n-inf\n",
        b"Pf\n2 1\ninfinity\n",
        b"Pf\n+2 1\n-1.0\n",
        b"Pf\n2 0_1\n-1.0\n",
        b"Pf\n2 -1\n-1.0\n",
        b"Pf\n2 1\n-1_0\n",
        b"Pf\n2 1 1\n-1.0\n",
        b"Pf\n2\n1\n-1.0\n",
        b"Pf\n2 1\n\n",
        b"Pf\n2 1\n-1.0 2\n",
        b"Pf\n2 1\n-1.0",
        b"Pf2 1\n-1.0\n",
        b"Pf\n" + b"9" * 19 + b" 1\n-1.0\n",
        b"Pf\n" + b"9" * 5000 + b" 1\n-1.0\n",
    ])
    def test_header_grammar_rejected(self, tmp_path, header):
        p = tmp_path / "g.pfm"
        p.write_bytes(header + self.PAYLOAD)
        with pytest.raises(InputError, match="malformed PFM header") as exc:
            load_float_grid(p)
        assert exc.value.field == "heatmaps"

    @pytest.mark.parametrize("scale", [b"0", b"-0.0", b"1e999", b"-1e999"])
    def test_zero_or_overflowing_scale_rejected(self, tmp_path, scale):
        p = tmp_path / "g.pfm"
        p.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + self.PAYLOAD)
        with pytest.raises(InputError, match="scale must be finite and non-zero") as exc:
            load_float_grid(p)
        assert exc.value.field == "heatmaps"

    @pytest.mark.parametrize("data, message", [
        (b"P5\n2 1\n-1.0\n", "bad magic"),
        (b"Pf\n0 1\n-1.0\n", "non-positive dimensions 0x1"),
        (b"Pf\n3 1\n-1.0\n", "payload holds 2 floats, header declares 3"),
    ])
    def test_each_fault_keeps_its_message(self, tmp_path, data, message):
        p = tmp_path / "g.pfm"
        p.write_bytes(data + self.PAYLOAD)
        with pytest.raises(InputError, match=message) as exc:
            load_float_grid(p)
        assert exc.value.field == "heatmaps"


class TestMask:
    def test_round_trip(self, tmp_path):
        bits = np.array([[True, False], [False, True]])
        mask = BinaryMask(width=2, height=2, bits=bits)
        out = tmp_path / "m.pgm"
        write_mask(mask, out)
        loaded = load_mask(out)
        assert np.array_equal(loaded.bits, bits)

    @settings(max_examples=30)
    @given(arrays(np.bool_, st.tuples(st.integers(1, 9), st.integers(1, 9))))
    def test_round_trip_random(self, tmp_path_factory, bits):
        out = tmp_path_factory.mktemp("pgm") / "m.pgm"
        h, w = bits.shape
        write_mask(BinaryMask(width=w, height=h, bits=bits), out)
        assert np.array_equal(load_mask(out).bits, bits)

    def test_threshold_at_128(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([127, 128]))
        assert load_mask(p).bits.tolist() == [[False, True]]

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n# made by hand\n1 1\n255\n\xff")
        assert load_mask(p).bits.tolist() == [[True]]

    @pytest.mark.parametrize("header", [
        b"P5# after the magic\n2 1\n255\n",
        b"P5\n2 # between fields\n\t1\r\n# and again\n255\n",
        b"P5\n2# straight after a number\n1 255 ",
        b"P5 0002 01 0255\n",
    ])
    def test_header_grammar_accepted(self, tmp_path, header):
        p = tmp_path / "m.pgm"
        p.write_bytes(header + bytes([255, 0]))
        assert load_mask(p).bits.tolist() == [[True, False]]

    @pytest.mark.parametrize("header", [
        b"P52 1 255\n",  # width glued to the magic
        b"P5 +2 1 255\n",
        b"P5 2 1 2_55\n",
        b"P5 2 1 -255\n",
        b"P5 2 1 255",  # no separator before the pixels
        b"P5 2 1 255# comment\n",
        b"P5 2 1",
        b"P5 2 # unterminated comment",
        b"P5 " + b"9" * 5000 + b" 1 255\n",
    ])
    def test_header_grammar_rejected(self, tmp_path, header):
        p = tmp_path / "m.pgm"
        p.write_bytes(header + bytes([255, 0]))
        with pytest.raises(InputError, match="malformed PGM header") as exc:
            load_mask(p)
        assert exc.value.field == "masks"

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(InputError, match="magic"):
            load_mask(p)

    def test_maxval_must_be_255(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n1 1\n15\n\x0f")
        with pytest.raises(InputError, match="maxval"):
            load_mask(p)

    def test_payload_size_checked(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(InputError, match="payload"):
            load_mask(p)
