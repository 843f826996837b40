"""Input parsing and the core data model.

Tabular inputs are CSV:

* ``ratings.csv`` with header ``participant_id,image_id,trial_index,rating``,
  one row per rating event, ratings on the 0-100 scale;
* ``categories.csv`` with header ``image_id,criterion,category``, long form
  over the fixed 12-criterion taxonomy;
* ``features.csv`` with header ``image_id,f0,...,f{D-1}`` and one embedding
  row per image.

Dense grids use two bit-exact binary formats: heatmaps are grayscale PFM
(``Pf``, little-endian, scale header ``-1.0``, rows stored bottom-to-top and
converted to top-down order in memory) and masks are binary PGM (``P5``,
maxval 255, gray >= 128 counts as inside the mask).

Every input file of the package is read through :class:`InputFile`, so
text is UTF-8 whatever the locale and every failure to read it is an
:class:`InputError`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

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
    "load_ratings",
    "write_ratings",
    "first_trial_filter",
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


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


class InputFile:
    """An input file and the CLI option (``field``) that supplied it.

    The readers decode text as UTF-8 and turn every way reading can fail
    into an :class:`InputError` naming the file and ``field``; loaders
    add their own checks through :meth:`error`, :meth:`number` and
    :meth:`integer`, which name the line too.
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
            with self.path.open(encoding="utf-8", newline="") as fh:
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
            with self.path.open(encoding="utf-8") as fh:
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


@dataclass(frozen=True)
class RatingRecord:
    """One rating event: a participant rated an image at a session trial."""

    participant_id: str
    image_id: str
    trial_index: int
    rating: float


@dataclass(frozen=True)
class RatingsTable:
    """A set of rating records with derived participant/image indexes."""

    records: tuple[RatingRecord, ...]
    participant_index: frozenset[str] = field(init=False)
    image_index: frozenset[str] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "participant_index", frozenset(r.participant_id for r in self.records)
        )
        object.__setattr__(self, "image_index", frozenset(r.image_id for r in self.records))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_participants(self) -> int:
        return len(self.participant_index)

    @property
    def n_images(self) -> int:
        return len(self.image_index)

    def by_participant(self) -> dict[str, list[RatingRecord]]:
        out: dict[str, list[RatingRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.participant_id, []).append(rec)
        return out

    def by_image(self) -> dict[str, list[RatingRecord]]:
        out: dict[str, list[RatingRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.image_id, []).append(rec)
        return out

    def without_participants(self, excluded: set[str]) -> "RatingsTable":
        return RatingsTable(
            tuple(r for r in self.records if r.participant_id not in excluded)
        )


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
                f"no category label for image {image_id!r}, criterion {criterion!r}"
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

    @property
    def true_fraction(self) -> float:
        return float(np.count_nonzero(self.bits)) / self.bits.size


def load_ratings(path: str | Path) -> RatingsTable:
    """Parse a ratings CSV, validating every row.

    Any malformed row raises :class:`InputError` with its line number, so
    nothing is ever dropped silently.
    """
    src = InputFile(path, "ratings")
    records: list[RatingRecord] = []
    seen: set[tuple[str, str, int]] = set()
    for line, (participant, image, trial_raw, rating_raw) in src.rows(RATINGS_HEADER):
        if not participant or not image:
            raise src.error("empty participant or image id", line)
        trial = src.integer(trial_raw, line, "trial_index", 1)
        rating = src.number(rating_raw, line, "rating")
        if not 0.0 <= rating <= 100.0:
            raise src.error(f"rating {rating_raw} outside [0, 100]", line)
        key = (participant, image, trial)
        if key in seen:
            raise src.error(f"duplicate (participant, image, trial) {key}", line)
        seen.add(key)
        records.append(RatingRecord(participant, image, trial, rating))
    return RatingsTable(tuple(records))


def write_ratings(table: RatingsTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RATINGS_HEADER)
        for rec in table.records:
            writer.writerow(
                [rec.participant_id, rec.image_id, rec.trial_index, f"{rec.rating:.9g}"]
            )


def first_trial_filter(table: RatingsTable) -> RatingsTable:
    """Keep only the earliest-trial record per (participant, image) pair."""
    best: dict[tuple[str, str], RatingRecord] = {}
    for rec in table.records:
        key = (rec.participant_id, rec.image_id)
        cur = best.get(key)
        if cur is None or rec.trial_index < cur.trial_index:
            best[key] = rec
    kept = [r for r in table.records if best[(r.participant_id, r.image_id)] is r]
    return RatingsTable(tuple(kept))


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
    """Parse the per-image embedding CSV (header ``image_id,f0..f{D-1}``)."""
    src = InputFile(path, "features")
    rows = src.rows()
    _, header = next(rows)
    if len(header) < 2 or header != ["image_id"] + [f"f{i}" for i in range(len(header) - 1)]:
        raise src.error(f"bad header {header[:3]}..., expected image_id,f0,...,f{{D-1}}", 1)
    ids: list[str] = []
    vectors: list[np.ndarray] = []
    seen: set[str] = set()
    for line, row in rows:
        image = row[0]
        if image in seen:
            raise src.error(f"duplicate image {image!r}", line)
        try:
            vec = np.array([float(v) for v in row[1:]], dtype=np.float64)
            finite = np.isfinite(vec).all()
        except ValueError:
            finite = False
        if not finite:  # name the first bad cell
            for column, text in zip(header[1:], row[1:]):
                src.number(text, line, column)
        seen.add(image)
        ids.append(image)
        vectors.append(vec)
    if not vectors:
        raise src.error("no feature rows")
    return FeatureTable.from_array(ids, np.stack(vectors))


def write_features(features: FeatureTable, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["image_id"] + [f"f{i}" for i in range(features.dim)])
        for image in sorted(features.ids):
            vec = features.array[features.row[image]]
            writer.writerow([image] + [f"{v:.9g}" for v in vec])


# -- PFM (grayscale float grids) --------------------------------------------


def load_float_grid(path: str | Path) -> FloatGrid:
    """Decode a grayscale PFM file into top-down row-major order."""
    src = InputFile(path, "heatmaps")
    raw = src.read_binary()
    try:
        magic, rest = raw.split(b"\n", 1)
        dims, rest = rest.split(b"\n", 1)
        scale_raw, data = rest.split(b"\n", 1)
    except ValueError:
        raise src.error("truncated PFM header") from None
    if magic == b"PF":
        raise src.error("color PFM not supported, expected grayscale 'Pf'")
    if magic != b"Pf":
        raise src.error(f"bad magic {magic!r}, expected 'Pf'")
    parts = dims.split()
    if len(parts) != 2:
        raise src.error(f"malformed PFM dimension line {dims!r}")
    try:
        width, height = int(parts[0]), int(parts[1])
        scale = float(scale_raw)
    except ValueError:
        raise src.error("malformed PFM header") from None
    if width <= 0 or height <= 0:
        raise src.error(f"non-positive dimensions {width}x{height}")
    if scale == 0.0:
        raise src.error("zero scale in PFM header")
    endian = "<" if scale < 0 else ">"
    count = width * height
    if len(data) != 4 * count:
        raise src.error(f"payload holds {len(data) // 4} floats, header declares {count}")
    values = np.frombuffer(data, dtype=f"{endian}f4").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise src.error("non-finite float values")
    # PFM stores rows bottom-to-top; flip to top-down.
    grid = values.reshape(height, width)[::-1].copy()
    return FloatGrid(width=width, height=height, values=grid)


def write_float_grid(grid: FloatGrid, path: str | Path) -> None:
    """Encode in canonical form: 'Pf', little-endian, scale -1.0."""
    path = Path(path)
    rows = np.ascontiguousarray(grid.values[::-1], dtype="<f4")
    with path.open("wb") as fh:
        fh.write(f"Pf\n{grid.width} {grid.height}\n-1.0\n".encode("ascii"))
        fh.write(rows.tobytes())


# -- PGM (binary masks) ------------------------------------------------------


def _read_pgm_tokens(raw: bytes, src: InputFile) -> tuple[list[int], int]:
    """Read magic-less header tokens (width, height, maxval), skipping
    comments, and return them with the offset where pixel data starts."""
    tokens: list[int] = []
    i = 0
    while len(tokens) < 3:
        if i >= len(raw):
            raise src.error("truncated PGM header")
        ch = raw[i : i + 1]
        if ch == b"#":
            nl = raw.find(b"\n", i)
            if nl == -1:
                raise src.error("unterminated PGM comment")
            i = nl + 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(raw) and not raw[j : j + 1].isspace():
                j += 1
            tok = raw[i:j]
            try:
                tokens.append(int(tok))
            except ValueError:
                raise src.error(f"bad PGM header token {tok!r}") from None
            i = j
    # Exactly one whitespace byte separates maxval from the pixel data.
    if i >= len(raw) or not raw[i : i + 1].isspace():
        raise src.error("missing separator before PGM pixel data")
    return tokens, i + 1


def load_mask(path: str | Path) -> BinaryMask:
    """Decode a binary (P5, maxval 255) PGM; gray >= 128 maps to True."""
    src = InputFile(path, "masks")
    raw = src.read_binary()
    if raw[:2] != b"P5":
        raise src.error(f"bad magic {raw[:2]!r}, expected 'P5'")
    (width, height, maxval), offset = _read_pgm_tokens(raw[2:], src)
    offset += 2
    if width <= 0 or height <= 0:
        raise src.error(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise src.error(f"maxval must be 255, got {maxval}")
    data = raw[offset:]
    count = width * height
    if len(data) != count:
        raise src.error(f"payload holds {len(data)} pixels, header declares {count}")
    gray = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    return BinaryMask(width=width, height=height, bits=gray >= 128)


def write_mask(mask: BinaryMask, path: str | Path) -> None:
    """Encode in canonical form: 'P5', maxval 255, True -> 255, False -> 0."""
    path = Path(path)
    gray = np.where(mask.bits, 255, 0).astype(np.uint8)
    with path.open("wb") as fh:
        fh.write(f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())
