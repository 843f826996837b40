"""Input parsing and the core data model.

Tabular inputs are CSV:

* ``ratings.csv`` with header ``participant_id,image_id,trial_index,rating``,
  one row per rating event, ratings on the 0-100 scale, held as a
  columnar :class:`RatingsTable`: sorted participant and image ids, and
  the rows' id codes, trials and ratings, sorted by participant, image, trial;
* ``categories.csv`` with header ``image_id,criterion,category``, long form
  over the fixed 12-criterion taxonomy;
* ``features.csv`` with header ``image_id,f0,...,f{D-1}`` and one embedding
  row per image. A plain one (no ``"`` or NUL byte, every CR before an LF,
  no line over ``csv.field_size_limit()``) goes to numpy's C text reader,
  any other cell by cell through ``float()``: the same values or errors.

Dense grids use two binary formats, each header matched by one pattern.
Heatmaps are grayscale PFM: the lines ``Pf``, width and height, and a
finite non-zero decimal scale, with blanks (whitespace but LF) around
each field; the scale's sign picks the byte order (negative: little-endian),
its magnitude is not applied, and rows run bottom-to-top on disk. Masks
are binary PGM: ``P5``, width, height and maxval 255, each after
whitespace and ``#`` comments, then one whitespace byte; gray >= 128 is
inside. The writers write little-endian ``Pf`` with scale ``-1.0``.

Every input file of the package is read through :class:`InputFile`, so
text is UTF-8 whatever the locale (a leading byte-order mark is skipped)
and every failure to read it is an :class:`InputError`. Every text
artifact is written through :func:`write_csv` or :func:`write_json`,
which share one float rule, 9 significant digits (``%.9g``): a JSON
float carries the digits of its CSV cell. A dataclass record is written
as the dict of its fields (:func:`rounded`), so no writer restates a schema.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from array import array
from itertools import islice
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "CRITERIA",
    "InputFile",
    "RatingRecord",
    "RatingsTable",
    "CategoryTable",
    "FeatureTable",
    "FloatGrid",
    "BinaryMask",
    "rounded",
    "fmt",
    "write_csv",
    "json_text",
    "write_json",
    "load_ratings",
    "write_ratings",
    "first_trial_filter",
    "rows_by_code",
    "load_categories",
    "load_features",
    "write_features",
    "load_float_grid",
    "write_float_grid",
    "load_mask",
    "write_mask",
]

#: The fixed annotation criteria, in canonical order.
CRITERIA = (
    "spider in picture",
    "cobweb in picture",
    "number of spiders",
    "subjective distance",
    "environment",
    "texture",
    "eyes",
    "eating prey",
    "subjective size",
    "perspective",
    "color of picture",
    "prominent legs",
)

RATINGS_HEADER = ["participant_id", "image_id", "trial_index", "rating"]
#: The float rule of every text artifact: 9 significant digits.
FLOAT_FORMAT = "%.9g"
_INT64_MAX = int(np.iinfo(np.int64).max)


def rounded(obj):
    """``obj`` with every float in it, at any depth, rounded by the float
    rule: what reading back its text rendering gives. The record rule: a
    dataclass becomes the dict of its fields, a set its sorted list and an
    array its ``tolist()``."""
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):  # numpy's float64 too
        return float(FLOAT_FORMAT % obj)
    if isinstance(obj, dict):
        return {key: rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):  # mostly id lists: strings skip the call
        return [value if type(value) is str else rounded(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        return rounded(sorted(obj))
    if isinstance(obj, np.ndarray):
        return rounded(obj.tolist())
    if is_dataclass(obj):
        return {f.name: rounded(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


class InputFile:
    """An input file and the CLI option (``field``) that supplied it.

    The readers decode text as UTF-8 past any byte-order mark and turn
    every way reading can fail into an :class:`InputError` naming the
    file and ``field``; loaders add their own checks through
    :meth:`error`, :meth:`number` and :meth:`integer`, which name the line too.
    """

    def __init__(self, path: str | Path, field: str):
        self.path = Path(path)
        self.field = field

    def error(self, message: str, line: int | None = None) -> InputError:
        where = self.path if line is None else f"{self.path}:{line}"
        return InputError(f"{where}: {message}", field=self.field)

    def rows(self, header: list[str] | None = None) -> Iterator[tuple[int, list[str]]]:
        """Yield ``(line number, fields)`` for each non-blank row of a CSV.

        With ``header`` the first line must equal it; without, the first
        line is yielded as line 1 for the caller to check. Every row must
        have as many fields as the first line.
        """
        reader = None
        try:
            with self.path.open(encoding="utf-8-sig", newline="") as fh:
                reader = csv.reader(fh)
                first = next(reader, None)
                if first is None:
                    raise self.error(f"empty file, expected header {header or '...'}")
                if header is None:
                    yield 1, first
                elif first != header:
                    raise self.error(f"bad header {first}, expected {header}")
                width = len(first)
                for row in reader:
                    if len(row) != width:
                        if not row:
                            continue
                        raise self.error(
                            f"expected {width} fields, got {len(row)}", reader.line_num
                        )
                    yield reader.line_num, row
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise self._unreadable(exc, reader and reader.line_num) from None

    def read_json(self):
        """The parsed JSON document; ``NaN``, ``Infinity`` and numbers that
        overflow a float are errors, as non-finite CSV cells are."""
        try:
            with self.path.open(encoding="utf-8-sig") as fh:
                return json.load(
                    fh, parse_constant=_reject_constant, parse_float=_finite_float
                )
        except (OSError, ValueError) as exc:
            raise self._unreadable(exc) from None

    def read_binary(self) -> bytes:
        try:
            return self.path.read_bytes()
        except OSError as exc:
            raise self._unreadable(exc) from None

    def _unreadable(self, exc: Exception, line: int | None = None) -> InputError:
        if isinstance(exc, OSError):
            return self.error(f"cannot read: {exc.strerror or exc}")
        if isinstance(exc, UnicodeDecodeError):
            # Text is decoded in chunks, so the error knows no line.
            return self.error(f"not UTF-8 text: {exc.reason}")
        return self.error(str(exc), line)

    def number(self, text: str, line: int, column: str) -> float:
        """The finite float in a cell, or an error naming file, line and column."""
        try:
            value = float(text)
        except ValueError:
            raise self.error(f"malformed numeric field {column}: {text!r}", line) from None
        if not math.isfinite(value):
            raise self.error(f"non-finite {column}: {text!r}", line)
        return value

    def integer(self, text: str, line: int, column: str, low: int) -> int:
        """The integer >= ``low`` in a cell, or an error naming file, line and column."""
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise self.error(f"{column} must be an integer >= {low}, got {text!r}", line)
        return value


def fmt(value) -> str:
    """One CSV cell: floats by the float rule, bools lower case, ``None`` empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return FLOAT_FORMAT % value
    return str(value)


_BLOCK = 4096  # rows that ``write_csv`` renders from its columns at a time


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence] = (), *,
              columns: Sequence | None = None) -> None:
    """A CSV with LF newlines from ``rows``, each cell rendered by :func:`fmt`,
    or from two or more ``columns``, one per header field, joined as text
    ``_BLOCK`` rows at a time: a float array is rendered by the float rule,
    a pair (labels, code array) by its labels, and any other column is an
    iterable of str or int cells. Either way each cell is quoted as
    ``csv.writer`` quotes it; the columns quote each distinct label or
    cell once."""
    text: list[str] = []
    writer = csv.writer(SimpleNamespace(write=text.append), lineterminator="\n")

    def quoted(cell: str) -> str:
        writer.writerow([cell, ""])  # a cell of a row of several, as the columns hold it
        return text.pop()[:-2]

    def blocks(column) -> Iterator[list[str]]:
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            for start in range(0, len(column), _BLOCK):
                yield list(map(FLOAT_FORMAT.__mod__, column[start:start + _BLOCK].tolist()))
        elif isinstance(column, tuple) and isinstance(column[-1], np.ndarray):
            labels, codes = column
            cells = list(map(quoted, labels))
            for start in range(0, len(codes), _BLOCK):
                yield list(map(cells.__getitem__, codes[start:start + _BLOCK].tolist()))
        else:
            memo: dict[str, str] = {}
            cells = iter(column)
            while block := list(map(str, islice(cells, _BLOCK))):
                joined = "".join(block)
                if any(char in joined for char in ',"\r\n'):  # a superset of what gets quoted
                    block = [memo[c] if c in memo else memo.setdefault(c, quoted(c)) for c in block]
                yield block

    writer.writerow(header)
    if columns is None:
        writer.writerows([fmt(v) for v in row] for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(text))
        text.clear()
        for block in zip(*map(blocks, columns or ())):
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def json_text(obj, indent: int | None = None) -> str:
    """``obj`` as JSON with sorted keys and floats rounded by the float
    rule, ending in a newline."""
    return json.dumps(rounded(obj), indent=indent, sort_keys=True) + "\n"


def write_json(path, obj, *, lines: bool = False) -> None:
    """``obj`` as indented JSON; with ``lines``, each record of the
    sequence ``obj`` on a line of its own (JSONL)."""
    text = "".join(map(json_text, obj)) if lines else json_text(obj, indent=2)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@dataclass(frozen=True)
class RatingRecord:
    """One rating event: a participant rated an image at a session trial."""

    participant_id: str
    image_id: str
    trial_index: int
    rating: float


def _encode(values: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted distinct strings and each value's position among them."""
    ids = sorted(set(values))
    index = {value: k for k, value in enumerate(ids)}
    return tuple(ids), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def rows_by_code(codes: np.ndarray, n: int) -> list[np.ndarray]:
    """The row indices of each code 0..n-1, each in table order."""
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(n + 1)).tolist()
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


class RatingsTable:
    """Rating events as four aligned read-only columns, sorted by participant,
    image and trial (stably: a repeated row follows the row it repeats).

    ``participant_ids`` and ``image_ids`` are the sorted ids that have a
    row; ``participant`` and ``image`` code each row by its position in
    them (:func:`load_ratings` codes ids in the order it first sees them,
    then remaps the codes to these positions), next to its ``trial``
    (int64) and ``rating`` (float64). ``RatingsTable(records)``, which
    sorts them, and :attr:`records` convert from and to :class:`RatingRecord`.
    """

    __slots__ = ("participant_ids", "participant", "image_ids", "image", "trial", "rating")

    def __init__(self, records: Iterable[RatingRecord] = ()):
        rows = sorted(records, key=lambda r: (r.participant_id, r.image_id, r.trial_index))
        self._set(*_encode([r.participant_id for r in rows]), *_encode([r.image_id for r in rows]),
                  [r.trial_index for r in rows], [r.rating for r in rows])

    @classmethod
    def from_codes(cls, participant_ids, participant, image_ids, image, trial, rating):
        """A table from sorted id lists and the rows, already in table order
        (unchecked), coded by position in them.

        The table takes ownership of a column whose buffer already holds
        its dtype (intp codes, int64 trials, float64 ratings): the column
        is marked read-only, not copied, so the caller must not write to it
        afterwards. Any other column is copied."""
        table = cls.__new__(cls)
        table._set(participant_ids, participant, image_ids, image, trial, rating)
        return table

    def _set(self, participant_ids, participant, image_ids, image, trial, rating) -> None:
        self.participant_ids, self.image_ids = tuple(participant_ids), tuple(image_ids)
        for name, values, dtype in (("participant", participant, np.intp),
                                    ("image", image, np.intp),
                                    ("trial", trial, np.int64),
                                    ("rating", rating, np.float64)):
            column = np.asarray(values, dtype=dtype)
            column.flags.writeable = False
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.rating)

    @property
    def records(self) -> tuple[RatingRecord, ...]:
        participants = map(self.participant_ids.__getitem__, self.participant.tolist())
        images = map(self.image_ids.__getitem__, self.image.tolist())
        return tuple(map(RatingRecord, participants, images, self.trial.tolist(),
                         self.rating.tolist()))

    @property
    def participant_index(self) -> frozenset[str]:
        return frozenset(self.participant_ids)

    @property
    def image_index(self) -> frozenset[str]:
        return frozenset(self.image_ids)

    @property
    def n_participants(self) -> int:
        return len(self.participant_ids)

    @property
    def n_images(self) -> int:
        return len(self.image_ids)

    def select(self, keep: np.ndarray) -> "RatingsTable":
        """The rows picked by ``keep`` (a boolean mask or increasing row
        indices), listing only the ids that keep a row."""
        columns = []
        for ids, codes in ((self.participant_ids, self.participant), (self.image_ids, self.image)):
            used = np.bincount(codes[keep], minlength=len(ids)) > 0
            columns += [[ids[k] for k in np.flatnonzero(used)], (np.cumsum(used) - 1)[codes[keep]]]
        return RatingsTable.from_codes(*columns, self.trial[keep], self.rating[keep])

    def without_participants(self, excluded: set[str] | frozenset[str]) -> "RatingsTable":
        dropped = np.array([pid in excluded for pid in self.participant_ids], dtype=bool)
        return self.select(~dropped[self.participant])


@dataclass(frozen=True)
class CategoryTable:
    """Image -> category label for each annotation criterion present."""

    entries: dict[tuple[str, str], str]

    def criteria(self) -> list[str]:
        present = {crit for (_, crit) in self.entries}
        return [c for c in CRITERIA if c in present]

    def images(self) -> list[str]:
        return sorted({img for (img, _) in self.entries})

    def label(self, image_id: str, criterion: str) -> str:
        try:
            return self.entries[(image_id, criterion)]
        except KeyError:
            raise InputError(
                f"no category label for image {image_id!r}, criterion {criterion!r}",
                field="categories",
            ) from None


class FeatureTable:
    """Per-image embedding vectors, all of the same dimension D >= 1.

    The vectors live in one read-only ``(N, D)`` float64 ``array``; ``ids``
    names its rows in order and ``row`` maps an image id to its row.
    """

    __slots__ = ("ids", "array", "row")

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        ids = list(vectors)
        try:
            array = np.array([vectors[i] for i in ids], dtype=np.float64)
        except ValueError:
            raise InputError("feature vectors must all have the same dimension") from None
        self._set(ids, array)

    @classmethod
    def from_array(cls, ids: Sequence[str], array: np.ndarray) -> "FeatureTable":
        """Wrap an ``(N, D)`` array whose rows belong to ``ids``, without copying."""
        table = cls.__new__(cls)
        table._set(list(ids), np.asarray(array, dtype=np.float64))
        return table

    def _set(self, ids: list[str], array: np.ndarray) -> None:
        if array.ndim != 2 or array.shape[1] < 1 or array.shape[0] != len(ids):
            raise InputError(
                f"features need one vector of dimension >= 1 per image, "
                f"got shape {array.shape} for {len(ids)} images"
            )
        row = {image_id: k for k, image_id in enumerate(ids)}
        if len(row) != len(ids):
            raise InputError("duplicate image ids in features")
        view = array.view()
        view.flags.writeable = False
        self.ids, self.array, self.row = tuple(ids), view, row

    @property
    def dim(self) -> int:
        return int(self.array.shape[1])

    def matrix(self, image_ids) -> np.ndarray:
        """Stack feature rows for the given images, in the given order."""
        try:
            rows = [self.row[i] for i in image_ids]
        except KeyError:
            missing = [i for i in image_ids if i not in self.row]
            raise InputError(f"missing feature vectors for images: {missing[:5]}") from None
        return self.array[np.array(rows, dtype=np.intp)]


@dataclass(frozen=True)
class FloatGrid:
    """Dense 2-D float map in row-major, top-down order."""

    width: int
    height: int
    values: np.ndarray  # shape (height, width), float64 carrying float32 values

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise InputError(
                f"grid shape {self.values.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InputError("grid contains non-finite values")


@dataclass(frozen=True)
class BinaryMask:
    """Dense 2-D boolean mask; True marks the annotated (spider) pixels."""

    width: int
    height: int
    bits: np.ndarray  # shape (height, width), bool

    def __post_init__(self):
        if self.bits.shape != (self.height, self.width):
            raise InputError(
                f"mask shape {self.bits.shape} does not match "
                f"{self.height}x{self.width}"
            )


def load_ratings(path: str | Path) -> RatingsTable:
    """Parse a ratings CSV, validating every row.

    Any malformed row raises :class:`InputError` with its line number, so
    nothing is ever dropped silently; of several, the first in the file
    is named, and a file without rows is an error too. No Python object is
    kept per row: ids are coded in the order first seen, the codes, trials,
    ratings and line numbers go to typed arrays, and at the end the codes
    are remapped to positions among the sorted ids and the rows sorted.
    """
    src = InputFile(path, "ratings")
    participant_ids: dict[str, int] = {}  # id -> first-seen code
    image_ids: dict[str, int] = {}
    participants, images, trials, lines, ratings = map(array, "qqqqd")
    error = None
    try:
        for line, (participant, image, trial_raw, rating_raw) in src.rows(RATINGS_HEADER):
            if not participant or not image:
                raise src.error("empty participant or image id", line)
            trial = src.integer(trial_raw, line, "trial_index", 1)
            if trial > _INT64_MAX:
                raise src.error(f"trial_index must be <= {_INT64_MAX}, got {trial_raw!r}", line)
            rating = src.number(rating_raw, line, "rating")
            if not 0.0 <= rating <= 100.0:
                raise src.error(f"rating {rating_raw} outside [0, 100]", line)
            participants.append(participant_ids.setdefault(participant, len(participant_ids)))
            images.append(image_ids.setdefault(image, len(image_ids)))
            trials.append(trial)
            ratings.append(rating)
            lines.append(line)
    except InputError as exc:
        error = exc  # a repeat in the rows above it comes first in the file
    if error is None and not ratings:
        raise src.error("no rating rows")
    columns = []
    for ids, column in ((participant_ids, participants), (image_ids, images)):
        ordered = sorted(ids)
        rank = np.argsort([ids[i] for i in ordered])  # first-seen code -> sorted position
        columns += [ordered, rank[np.asarray(column)]]
    order = np.lexsort((trials, columns[3], columns[1]))  # stable: a repeat follows its row
    table = RatingsTable.from_codes(columns[0], columns[1][order], columns[2], columns[3][order],
                                    np.asarray(trials)[order], np.asarray(ratings)[order])
    del participants, images, trials, ratings, columns, column  # done with the file-order columns
    pair, trial = table.participant * table.n_images + table.image, table.trial
    repeats = np.flatnonzero((pair[1:] == pair[:-1]) & (trial[1:] == trial[:-1])) + 1
    if repeats.size:
        row = repeats[np.argmin(order[repeats])]  # of all repeats, the first in the file
        key = (table.participant_ids[table.participant[row]],
               table.image_ids[table.image[row]], int(trial[row]))
        raise src.error(f"duplicate (participant, image, trial) {key}", lines[order[row]])
    if error is not None:
        raise error
    return table


def write_ratings(table: RatingsTable, path: str | Path) -> np.ndarray:
    """Write ``table`` as a ratings CSV; returns its ratings as the file
    holds them, each parsed back from the text written."""
    written = np.empty(len(table))

    def ratings() -> Iterator[str]:
        for start in range(0, len(table), _BLOCK):
            cells = list(map(FLOAT_FORMAT.__mod__, table.rating[start:start + _BLOCK].tolist()))
            written[start:start + len(cells)] = cells
            yield from cells

    write_csv(path, RATINGS_HEADER, columns=[
        (table.participant_ids, table.participant), (table.image_ids, table.image),
        table.trial.tolist(), ratings(),
    ])
    return written


def first_trial_filter(table: RatingsTable) -> RatingsTable:
    """Keep only each (participant, image) pair's first row, its earliest trial."""
    pair = table.participant * table.n_images + table.image
    return table.select(np.diff(pair, prepend=-1) != 0)


def load_categories(path: str | Path) -> CategoryTable:
    """Parse the long-form image/criterion/category CSV."""
    src = InputFile(path, "categories")
    entries: dict[tuple[str, str], str] = {}
    for line, (image, criterion, category) in src.rows(["image_id", "criterion", "category"]):
        if criterion not in CRITERIA:
            raise src.error(f"unknown criterion {criterion!r}", line)
        if not category:
            raise src.error("empty category label", line)
        key = (image, criterion)
        if key in entries:
            raise src.error(f"duplicate entry for {key}", line)
        entries[key] = category
    table = CategoryTable(entries)
    # Every image must carry a label for every criterion present in the file.
    images = table.images()
    for crit in table.criteria():
        missing = [img for img in images if (img, crit) not in entries]
        if missing:
            raise src.error(
                f"criterion {crit!r} missing labels for {len(missing)} "
                f"images (e.g. {missing[:3]})"
            )
    return table


def load_features(path: str | Path) -> FeatureTable:
    """Parse the per-image embedding CSV (header ``image_id,f0..f{D-1}``).

    A plain file is read once and parsed by numpy's C reader; any other,
    or one that reader refuses, or that repeats an id or holds a non-finite
    value, by :func:`_feature_rows`, the reference parse.
    """
    src = InputFile(path, "features")
    raw = src.read_binary()
    lines = io.BytesIO(raw)
    header = lines.readline().removeprefix(b"\xef\xbb\xbf").rstrip(b"\r\n")
    dim = header.count(b",")
    ids: list[str] = []

    def cells() -> Iterator[bytes]:  # each row's cells after its id
        if (b'"' in raw or b"\0" in raw
                or b"\r" in raw and raw.count(b"\r") != raw.count(b"\r\n")  # a CR not before an LF
                or header != b",".join([b"image_id", *(b"f%d" % i for i in range(dim))])):
            raise ValueError("not a plain file")
        for line in lines:
            image, comma, rest = line.rstrip(b"\r\n").partition(b",")
            if rest and len(line) <= csv.field_size_limit():  # no field over the limit
                ids.append(image.decode())
                yield rest
            elif image or comma:  # not a blank line
                raise ValueError("not a plain row")
        if not ids:
            raise ValueError("no rows")

    try:
        values = np.loadtxt(cells(), delimiter=",", comments=None, encoding="utf-8", ndmin=2)
    except ValueError:
        return _feature_rows(src)
    if values.shape != (len(ids), dim) or len(set(ids)) < len(ids) or not np.isfinite(values).all():
        return _feature_rows(src)
    return FeatureTable.from_array(ids, values)


def _feature_rows(src: InputFile) -> FeatureTable:
    """The reference parse of a features CSV, row by row and cell by cell."""
    vectors: dict[str, list[float]] = {}  # image id -> its row, in file order
    for line, row in src.rows():  # the for loop closes the file on an error
        if line == 1:
            header = row
            if len(header) < 2 or header != ["image_id"] + [f"f{i}" for i in range(len(header) - 1)]:
                raise src.error(f"bad header {header[:3]}..., expected image_id,f0,...,f{{D-1}}", 1)
        elif row[0] in vectors:
            raise src.error(f"duplicate image {row[0]!r}", line)
        else:
            vectors[row[0]] = [src.number(text, line, column)
                               for column, text in zip(header[1:], row[1:])]
    if not vectors:
        raise src.error("no feature rows")
    return FeatureTable.from_array(list(vectors), np.array(list(vectors.values())))


def write_features(features: FeatureTable, path: str | Path) -> None:
    ids = sorted(features.ids)
    vectors = features.array[[features.row[image] for image in ids]]
    write_csv(path, ["image_id"] + [f"f{i}" for i in range(features.dim)],
              columns=[ids, *vectors.T])


# -- Binary grids: PFM heatmaps and PGM masks -------------------------------


# A dimension has at most 18 digits after its leading zeros: a larger one
# matches no payload, and int() refuses over 4300 digits.
_DIM = rb"0*([0-9]{1,18})"
_PFM_HEADER = re.compile(
    rb"Pf[^\S\n]*\n[^\S\n]*" + _DIM + rb"[^\S\n]+" + _DIM + rb"[^\S\n]*\n[^\S\n]*"
    rb"([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)[^\S\n]*\n"
)
_PGM_HEADER = re.compile(rb"P5" + (rb"(?:\s|#[^\n]*\n)+" + _DIM) * 3 + rb"\s")


def _read_grid(src: InputFile, header: re.Pattern, sample: int, unit: str):
    """Width, height, third header field and payload of a binary grid file
    whose header ``header`` matches, with ``sample`` payload bytes a cell."""
    raw = src.read_binary()
    magic = header.pattern[:2]
    if raw[:2] != magic:
        if raw[:2] == b"PF":
            raise src.error("color PFM not supported, expected grayscale 'Pf'")
        raise src.error(f"bad magic {raw[:2]!r}, expected {magic.decode()!r}")
    match = header.match(raw)
    if match is None:
        raise src.error(f"malformed {'PFM' if magic == b'Pf' else 'PGM'} header")
    width, height, third = int(match[1]), int(match[2]), match[3]
    if width <= 0 or height <= 0:
        raise src.error(f"non-positive dimensions {width}x{height}")
    data = raw[match.end():]
    if len(data) != sample * width * height:
        raise src.error(f"payload holds {len(data) // sample} {unit}, "
                        f"header declares {width * height}")
    return width, height, third, data


def load_float_grid(path: str | Path) -> FloatGrid:
    """Decode a grayscale PFM file into top-down row-major order."""
    src = InputFile(path, "heatmaps")
    width, height, scale_text, data = _read_grid(src, _PFM_HEADER, 4, "floats")
    scale = float(scale_text)
    if not math.isfinite(scale) or scale == 0.0:
        raise src.error(f"scale must be finite and non-zero, got {scale_text.decode()}")
    # The sign of the scale is the byte order; PFM stores rows bottom-to-top.
    values = np.frombuffer(data, dtype="<f4" if scale < 0 else ">f4")
    try:  # the grid checks that its values are finite; the shape fits by construction
        return FloatGrid(width=width, height=height,
                         values=values.reshape(height, width)[::-1].astype(np.float64))
    except InputError:
        raise src.error("non-finite float values") from None


def write_float_grid(grid: FloatGrid, path: str | Path) -> None:
    """Encode in canonical form: 'Pf', little-endian, scale -1.0."""
    rows = np.ascontiguousarray(grid.values[::-1], dtype="<f4")
    Path(path).write_bytes(f"Pf\n{grid.width} {grid.height}\n-1.0\n".encode() + rows.tobytes())


def load_mask(path: str | Path) -> BinaryMask:
    """Decode a binary (P5, maxval 255) PGM; gray >= 128 maps to True."""
    src = InputFile(path, "masks")
    width, height, maxval, data = _read_grid(src, _PGM_HEADER, 1, "pixels")
    if int(maxval) != 255:
        raise src.error(f"maxval must be 255, got {int(maxval)}")
    gray = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    return BinaryMask(width=width, height=height, bits=gray >= 128)


def write_mask(mask: BinaryMask, path: str | Path) -> None:
    """Encode in canonical form: 'P5', maxval 255, True -> 255, False -> 0."""
    gray = np.where(mask.bits, 255, 0).astype(np.uint8)
    Path(path).write_bytes(f"P5\n{mask.width} {mask.height}\n255\n".encode() + gray.tobytes())
