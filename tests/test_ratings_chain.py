"""The columnar ratings chain against a record-based reference.

The reference functions below are the record-at-a-time implementations
the columnar table replaced: dicts of records grouped in the order given,
and ranks from a Python loop over tie runs (``test_ranking``). The
property tests give them the records in the table's order
(:func:`canonical`) and require the two to agree bit for bit, from the
first-trial filter through QC, the participant split's group means and
the ICC rating matrix.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from spidereval.errors import ComputationError, InputError
from spidereval.ingest import (
    RATINGS_HEADER,
    RatingRecord,
    RatingsTable,
    first_trial_filter,
    load_ratings,
    write_ratings,
)
from spidereval.partition import image_group_means, split_participants
from spidereval.qc import MIN_PARTICIPANTS, consensus_median, run_qc
from spidereval.ranking import MIN_PAIRS
from spidereval.reliability import build_rating_matrix
from test_ranking import loop_average_ranks

# -- record-based reference ---------------------------------------------------


def canonical(records):
    """The records in a table's (participant, image, trial) order."""
    return sorted(records, key=lambda r: (r.participant_id, r.image_id, r.trial_index))


def _group(records, key):
    out = {}
    for rec in records:
        out.setdefault(key(rec), []).append(rec)
    return out


def ref_first_trial(records):
    best = {}
    for rec in records:
        key = (rec.participant_id, rec.image_id)
        if key not in best or rec.trial_index < best[key].trial_index:
            best[key] = rec
    return [r for r in records if best[(r.participant_id, r.image_id)] is r]


def ref_consensus(records):
    by_image = _group(records, lambda r: r.image_id)
    return {im: float(np.median([r.rating for r in recs]))
            for im, recs in sorted(by_image.items())}


def ref_spearman(x, y):
    rx, ry = loop_average_ranks(x), loop_average_ranks(y)
    rx, ry = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        return None
    return float((rx @ ry) / denom)


def ref_fences(scores):
    if len(scores) < MIN_PARTICIPANTS:
        raise ComputationError("too few participants")
    values = np.array(list(scores.values()), dtype=np.float64)
    q1 = float(np.quantile(values, 0.25))
    q3 = float(np.quantile(values, 0.75))
    iqr = q3 - q1
    return q1 - 1.5 * iqr, q3 + 1.5 * iqr


def ref_run_qc(records):
    filtered = ref_first_trial(records)
    if len({r.participant_id for r in filtered}) < MIN_PARTICIPANTS:
        raise InputError("too few participants")
    consensus = ref_consensus(filtered)
    by_participant = _group(filtered, lambda r: r.participant_id)
    rho, mad = {}, {}
    for pid in sorted(by_participant):
        recs = by_participant[pid]
        own = np.array([r.rating for r in recs], dtype=np.float64)
        cons = np.array([consensus[r.image_id] for r in recs], dtype=np.float64)
        mad[pid] = float(np.median(np.abs(own - cons)))
        rho[pid] = ref_spearman(own, cons) if len(recs) >= MIN_PAIRS else None
    defined = {pid: v for pid, v in rho.items() if v is not None}
    lower, _ = ref_fences(defined)
    _, upper = ref_fences(mad)
    corr = {pid for pid, v in defined.items() if v < lower}
    dev = {pid for pid, v in mad.items() if v > upper}
    cleaned = [r for r in filtered if r.participant_id not in corr | dev]
    return len(filtered), rho, mad, lower, upper, corr, dev, cleaned


def ref_group_means(records, split):
    out = {"mean_a": {}, "mean_b": {}, "n_a": {}, "n_b": {}, "dropped": []}
    for image_id, recs in sorted(_group(records, lambda r: r.image_id).items()):
        recs = sorted(recs, key=lambda r: r.participant_id)  # summed in participant order
        a = [r.rating for r in recs if r.participant_id in split.group_a]
        b = [r.rating for r in recs if r.participant_id in split.group_b]
        if not a or not b:
            out["dropped"].append(image_id)
            continue
        out["mean_a"][image_id], out["mean_b"][image_id] = float(np.mean(a)), float(np.mean(b))
        out["n_a"][image_id], out["n_b"][image_id] = len(a), len(b)
    return out


def ref_matrix(records):
    images = sorted({r.image_id for r in records})
    raters = sorted({r.participant_id for r in records})
    row = {im: i for i, im in enumerate(images)}
    col = {ra: j for j, ra in enumerate(raters)}
    values = np.full((len(images), len(raters)), np.nan)
    for rec in records:
        values[row[rec.image_id], col[rec.participant_id]] = rec.rating
    return values, tuple(images), tuple(raters)


# -- strategies -----------------------------------------------------------------

# Ids with the characters CSV quoting and the id coder must survive.
ODD_IDS = ["p,1", 'q"2', "é", "画像", "a b", "x\x00", "x", "z\n"]


@st.composite
def ratings_tables(draw):
    """Records with repeated trials, missing cells and shuffled order; one
    rater may reverse the consensus and alone rate an extra image, so that
    QC removes both a participant and an image."""
    def ids(n, alphabet):
        some_id = st.sampled_from(ODD_IDS) | st.text(alphabet, min_size=1, max_size=3)
        return draw(st.lists(some_id, min_size=n, max_size=n, unique=True))

    participants = ids(draw(st.integers(MIN_PARTICIPANTS + 1, 7)), "pqr")
    images = ids(draw(st.integers(MIN_PAIRS, 6)), "ijk")
    tied = draw(st.booleans())
    value = st.sampled_from([0.0, 25.0, 50.0, 50.0, 100.0]) if tied else st.floats(0, 100)
    effects = [10.0 * k for k in range(len(images))]
    rows = []
    for p in participants:
        for i, effect in zip(images, effects):
            if draw(st.integers(0, 9)) == 0:
                continue  # missing cell
            for t in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True)):
                noise = draw(value)
                rows.append((p, i, t, noise if tied else effect + noise * 0.1))
    if draw(st.booleans()):
        extra = draw(st.sampled_from(["outlier", "o,ut"]))
        lone_image = draw(st.sampled_from(["only", "ön,ly"]))
        if extra not in participants and lone_image not in images:
            rows += [(extra, i, 1, 100.0 - e) for i, e in zip(images, effects)]
            rows.append((extra, lone_image, 1, 50.0))
    order = draw(st.permutations(range(len(rows))))
    return [RatingRecord(*rows[k]) for k in order]


def _grid(participants, images, rating):
    """One first-trial record per (participant, image), rated ``rating(p, i)``
    for the participant's and the image's positions."""
    return [RatingRecord(p, im, 1, rating(j, k))
            for j, p in enumerate(participants) for k, im in enumerate(images)]


# QC excludes the reversed rater "o,ut" and with it "ön,ly", the image only
# it rated; the others' later trials are dropped by the first-trial filter.
REVERSED_RATER = (_grid(["p1", "p2", "p3", "p4", "p5"], ["i,1", "i2", "i3", "i4"],
                        lambda j, k: 10.0 * k + 0.5 * ((j * 3 + k) % 4))
                  + [RatingRecord("p1", "i2", 2, 99.0)]
                  + _grid(["o,ut"], ["i,1", "i2", "i3", "i4"], lambda j, k: 100.0 - 10.0 * k)
                  + [RatingRecord("o,ut", "ön,ly", 1, 50.0)])
# exactly MIN_PARTICIPANTS raters, each with MIN_PAIRS images
FEWEST_RATERS = _grid([f"p{j}" for j in range(MIN_PARTICIPANTS)],
                      [f"i{k}" for k in range(MIN_PAIRS)],
                      lambda j, k: 20.0 * k + (j * k) % 3)
# every rating tied: no rater has a defined correlation
ALL_TIED = _grid([f"p{j}" for j in range(MIN_PARTICIPANTS + 1)], ["i0", "i1", "i2"],
                 lambda j, k: 50.0)


def _outcome(fn, *args):
    """The result of ``fn``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (InputError, ComputationError) as exc:
        return type(exc).__name__, str(exc)


def _bits(mapping):
    return {k: None if v is None else float(v).hex() for k, v in mapping.items()}


CHAIN_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                          suppress_health_check=[HealthCheck.too_slow,
                                                 HealthCheck.data_too_large])


class TestAgainstRecordReference:
    @CHAIN_SETTINGS
    @given(ratings_tables())
    def test_first_trial_filter_and_consensus(self, records):
        table = RatingsTable(records)
        filtered = first_trial_filter(table)
        want = ref_first_trial(canonical(records))
        assert filtered.records == tuple(want)
        assert filtered.participant_ids == tuple(sorted({r.participant_id for r in want}))
        assert filtered.image_ids == tuple(sorted({r.image_id for r in want}))
        assert _bits(consensus_median(filtered)) == _bits(ref_consensus(want))

    @CHAIN_SETTINGS
    @given(ratings_tables())
    @example([])
    @example(REVERSED_RATER)
    @example(FEWEST_RATERS)
    @example(ALL_TIED)
    def test_run_qc(self, records):
        got = _outcome(run_qc, RatingsTable(records))
        want = _outcome(ref_run_qc, canonical(records))
        if isinstance(want[0], str):  # both reject the table with the same error type
            assert isinstance(got[0], str) and got[0] == want[0]
            return
        report, cleaned = got
        n_first, rho, mad, lower, upper, corr, dev, kept = want
        assert report.n_first_trial == n_first
        assert _bits(report.rho) == _bits(rho)
        assert _bits(report.mad) == _bits(mad)
        assert (report.corr_threshold, report.mad_threshold) == (lower, upper)
        assert (report.corr_flagged, report.mad_flagged) == (corr, dev)
        assert cleaned.records == tuple(kept)
        assert cleaned.participant_ids == tuple(sorted({r.participant_id for r in kept}))
        assert cleaned.image_ids == tuple(sorted({r.image_id for r in kept}))

    @CHAIN_SETTINGS
    @given(ratings_tables(), st.integers(0, 2**32 - 1))
    def test_group_means_and_matrix(self, records, seed):
        table = first_trial_filter(RatingsTable(records))
        kept = ref_first_trial(records)
        # the last participant is in neither group, so it counts for neither mean;
        # a split needs two participants
        ids = table.participant_ids
        assume(len(ids) >= 2)
        split = split_participants(ids[: max(2, len(ids) - 1)], seed)
        targets = image_group_means(table, split)
        want = ref_group_means(kept, split)
        assert _bits(targets.mean_a) == _bits(want["mean_a"])
        assert _bits(targets.mean_b) == _bits(want["mean_b"])
        assert (targets.n_a, targets.n_b) == (want["n_a"], want["n_b"])
        assert list(targets.dropped) == want["dropped"]
        values, images, raters = ref_matrix(kept)
        matrix = _outcome(build_rating_matrix, table)
        if isinstance(matrix, tuple):
            assert matrix[0] == "InputError" and min(values.shape) < 2
            return
        assert (matrix.image_ids, matrix.rater_ids) == (images, raters)
        assert matrix.values.tobytes() == values.tobytes()

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                     HealthCheck.function_scoped_fixture])
    @given(ratings_tables())
    def test_csv_round_trip_keeps_odd_ids(self, tmp_path, records):
        records = [r for r in records if "\x00" not in r.participant_id + r.image_id]
        path = tmp_path / "ratings.csv"
        write_ratings(RatingsTable(records), path)
        loaded = load_ratings(path)
        assert loaded.records == tuple(
            RatingRecord(r.participant_id, r.image_id, r.trial_index, float(f"{r.rating:.9g}"))
            for r in canonical(records)
        )


@pytest.mark.parametrize("odd", ODD_IDS)
def test_write_ratings_renders_ids_as_csv_writer_does(tmp_path, odd):
    records = [RatingRecord(odd, "i" + odd, 1, 12.5), RatingRecord("p", odd, 2, 1 / 3),
               RatingRecord(odd, odd, 3, 1e-300)]
    table = RatingsTable(records)
    assert table.records == tuple(canonical(records))
    path = tmp_path / "ratings.csv"
    ratings = write_ratings(table, path)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(RATINGS_HEADER)
    writer.writerows([r.participant_id, r.image_id, r.trial_index, f"{r.rating:.9g}"]
                     for r in table.records)
    assert path.read_bytes() == want.getvalue().encode()
    written = {12.5: 12.5, 1 / 3: 0.333333333, 1e-300: 1e-300}
    assert ratings.tolist() == [written[r.rating] for r in table.records]


def test_matrix_duplicate_cell_names_the_later_row():
    # in table order p1's two rows come first, so p1's second row is the first repeat
    table = RatingsTable([RatingRecord("p1", "i1", 1, 1.0), RatingRecord("p2", "i1", 1, 2.0),
                          RatingRecord("p2", "i1", 2, 3.0), RatingRecord("p1", "i1", 2, 4.0)])
    with pytest.raises(InputError, match="image i1, rater p1; apply the first-trial filter"):
        build_rating_matrix(table)


def test_without_participants_drops_ids_left_without_rows():
    table = RatingsTable([RatingRecord("p1", "only", 1, 1.0), RatingRecord("p2", "i1", 1, 2.0),
                          RatingRecord("p1", "i1", 1, 3.0)])
    kept = table.without_participants({"p1"})
    assert (kept.participant_ids, kept.image_ids) == (("p2",), ("i1",))
    assert kept.records == (RatingRecord("p2", "i1", 1, 2.0),)
