"""The readers of the stage tables, the annotation log and the user-supplied
``--features`` and ``--predictions`` tables, held to the per-row parsers they
replaced.

`read_csv_blocks` converts each plain block a column at a time and the rows
csv.reader reads from the first block that is not plain on in batches; a
rejected block or batch is converted again a row at a time.  The per-row
parsers in `helpers` are the oracle: each case must give equal values, or an
equal error message, at each block size, and with `tables._plain_fields`
patched to find no block plain, so every row goes through csv.reader, at
each batch size.
"""

from __future__ import annotations

import csv
import io
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adl_engine import cli, tables
from adl_engine.affect import ANNOTATED_FIELDS, EmotionLabel, UXLabel, read_annotated
from adl_engine.ingestion import (
    ADL_LOG_FIELDS,
    OCCURRENCE_FIELDS,
    OccurrenceRecord,
    Source,
    parse_adl_log,
    read_occurrences,
    write_occurrences,
)
from adl_engine.recognition import VERDICT_FIELDS, read_verdicts
from adl_engine.recommender import DayKind, FeatureVector, LabeledTransition, train
from adl_engine.tables import TRACE_BLOCK_CHARS, csv_field
from helpers import (
    load_adl_defs,
    oracle_parse_adl_log,
    oracle_read_annotated,
    oracle_read_features,
    oracle_read_occurrences,
    oracle_read_predictions,
    oracle_read_verdicts,
)

ADL_DEFS = load_adl_defs()
NAMES = list(ADL_DEFS)
BLOCK_SIZES = (TRACE_BLOCK_CHARS, 40, 7)
BATCH_SIZES = (tables.CSV_BATCH_ROWS, 2)


@contextmanager
def _field_limit(limit: int | None):
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def _outcome(read, text: str):
    """The rows ``read`` gives, a NaN field as its text so equal rows compare
    equal, or the type and message of its error."""
    try:
        rows = read(io.StringIO(text))
    except (ValueError, OverflowError) as exc:
        return None, (type(exc), str(exc))
    return [tuple("nan" if v != v else v for v in row) for row in rows], None


def _assert_blocks_match_per_row(read, oracle, text: str, limit: int | None = None):
    """``read`` gives the ``oracle``'s values or error at every block size, and
    through csv.reader alone at every batch size."""
    with _field_limit(limit):
        expected = _outcome(oracle, text)
        for block_chars in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tables, "TRACE_BLOCK_CHARS", block_chars)
                assert _outcome(read, text) == expected, block_chars
        for batch_rows in BATCH_SIZES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tables, "_plain_fields", lambda text, width: None)
                patch.setattr(tables, "CSV_BATCH_ROWS", batch_rows)
                assert _outcome(read, text) == expected, batch_rows


# ---------------------------------------------------------------------------
# Drawn tables
# ---------------------------------------------------------------------------

# each field's (good, bad) texts; a bad one leaves the column pass
_ACTIVITIES = (NAMES, ["Jogging", " Sleeping", "a,b", 'say "hi"', "two\nlines", "cr\rx", ""])
_INTS = (["0", "1709511000", "1709534280", "-5"], ["soon", "1.5", " 7", "", "+3", "1_000"])
_FLOATS = (["1.0", "0.5", "0.25"], ["nan", "inf", "1e400", "x", "", " 2"])
_FLAGS = (["true", "false"], ["yes", "True", ""])
_IDS = (["1;2;3;4;5", "1;2;3;4;5;6", "1;2", "1", ""], ["1;x", "99", "1;;2"])
_SOURCES = (["annotation", "power-trace"], ["dream", "Annotation"])
_EMOTIONS = (["positive", "negative"], ["meh"])
_UXES = (["good", "bad"], ["ok"])
_STAMPS = (
    ["2024-03-04T07:00:00Z", "2024-03-04T08:00:00Z", "2024-03-04T08:00:00+02:00",
     "2024-03-04T06:30:00-01:00", " 2024-03-04T09:15:00Z "],
    ["2024-03-04T07:00:00", "2024-03-04", "yesterday", "2024-03-04T07:00:00ZZ",
     "0001-01-01T00:00:00+01:00"],
)

_TABLES = {
    "occurrences": (OCCURRENCE_FIELDS, [_ACTIVITIES, _INTS, _INTS, _IDS, _IDS, _SOURCES]),
    "verdicts": (VERDICT_FIELDS, [_ACTIVITIES, _INTS, _INTS, _FLOATS, _FLAGS]),
    "annotated": (
        ANNOTATED_FIELDS,
        [_ACTIVITIES, _INTS, _INTS, _FLOATS, _FLAGS, _EMOTIONS, _UXES],
    ),
    "adl-log": (ADL_LOG_FIELDS, [_STAMPS, _STAMPS, _ACTIVITIES]),
}


@st.composite
def _table_texts(draw, table: str) -> str:
    """Table text of mostly good rows, with each variant that must leave the
    column pass: bad ints, floats, flags and enum texts, unknown ids and
    activities, names holding ``,``, ``"``, ``\n`` or ``\r`` (as written,
    quoted, or not), quoted plain fields, CRLF line ends, blank and
    whitespace-only lines, short and long rows, a wrong or padded header,
    and a missing final line end."""
    header, pools = _TABLES[table]
    header_text = draw(st.sampled_from(
        [",".join(header)] * 8 + [",".join(reversed(header)), " " + ",".join(header)]
    ))
    lines = [header_text]
    for _ in range(draw(st.integers(0, 14))):
        fields = [draw(st.sampled_from(good)) for good, _ in pools]
        kind = draw(st.sampled_from(
            ["good"] * 6 + ["bad", "written", "quoted", "short", "long", "blank", "space"]
        ))
        column = draw(st.integers(0, len(fields) - 1))
        if kind in ("bad", "written"):
            fields[column] = draw(st.sampled_from(pools[column][1]))
        if kind == "written":
            fields[column] = csv_field(fields[column])
        elif kind == "quoted":
            fields[column] = '"' + fields[column].replace('"', '""') + '"'
        elif kind == "short":
            fields = fields[:column]
        elif kind == "long":
            fields.append("x")
        elif kind in ("blank", "space"):
            fields = [] if kind == "blank" else ["  "]
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(["\n"] * 19 + ["\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final line end
    return text


# most drawn cases keep the default field limit; some lower it so a drawn
# field is over it
_LIMITS = st.sampled_from([None] * 5 + [24])

_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)


@_SETTINGS
@given(text=_table_texts("occurrences"), with_defs=st.booleans(), limit=_LIMITS)
@example(text="activity,start,end,observed_atomics,satisfied_contexts,source\n"
         "Sleeping,1,2,1;2,1;99,annotation\n", with_defs=True, limit=None)
@example(text="activity,start,end,observed_atomics,satisfied_contexts,source\n"
         "Sleeping,1,2,1,1,annotation\ncr\rx,1,2,1,1,annotation\n",
         with_defs=False, limit=None)
def test_read_occurrences_matches_per_row(text, with_defs, limit):
    defs = ADL_DEFS if with_defs else None
    _assert_blocks_match_per_row(
        lambda s: read_occurrences(s, defs), lambda s: oracle_read_occurrences(s, defs),
        text, limit,
    )


@_SETTINGS
@given(text=_table_texts("verdicts"), limit=_LIMITS)
def test_read_verdicts_matches_per_row(text, limit):
    _assert_blocks_match_per_row(read_verdicts, oracle_read_verdicts, text, limit)


@_SETTINGS
@given(text=_table_texts("annotated"), known=st.booleans(), limit=_LIMITS)
def test_read_annotated_matches_per_row(text, known, limit):
    activities = set(NAMES) if known else None
    _assert_blocks_match_per_row(
        lambda s: read_annotated(s, activities),
        lambda s: oracle_read_annotated(s, activities), text, limit,
    )


@_SETTINGS
@given(text=_table_texts("adl-log"), limit=_LIMITS)
@example(text="start_iso8601,end_iso8601,activity\n"
         "2024-03-04T08:00:00Z,2024-03-04T07:00:00Z,Sleeping\n", limit=None)
def test_parse_adl_log_matches_per_row(text, limit):
    _assert_blocks_match_per_row(_read_log, _oracle_log, text, limit)


def _read_log(stream):
    return parse_adl_log(stream, ADL_DEFS)


def _oracle_log(stream):
    return oracle_parse_adl_log(stream, ADL_DEFS)


def test_naive_stamps_read_as_utc_in_any_local_zone(monkeypatch):
    text = (
        "start_iso8601,end_iso8601,activity\n"
        "2024-03-04T07:00:00,2024-03-04T23:20:00Z,Eating Breakfast\n"
    )
    monkeypatch.setenv("TZ", "XYZ+05")  # five hours west of UTC, no zone files needed
    time.tzset()
    try:
        _assert_blocks_match_per_row(_read_log, _oracle_log, text)
        [record] = parse_adl_log(io.StringIO(text), ADL_DEFS)
    finally:
        monkeypatch.undo()
        time.tzset()
    assert (record.start, record.end) == (1709535600, 1709594400)


@pytest.mark.parametrize("read, oracle, header", [
    (read_occurrences, oracle_read_occurrences, OCCURRENCE_FIELDS),
    (read_verdicts, oracle_read_verdicts, VERDICT_FIELDS),
    (read_annotated, oracle_read_annotated, ANNOTATED_FIELDS),
    (_read_log, _oracle_log, ADL_LOG_FIELDS),
], ids=["occurrences", "verdicts", "annotated", "adl-log"])
def test_a_field_over_the_csv_limit_matches_per_row(read, oracle, header):
    row = ",".join(["x" * (csv.field_size_limit() + 1)] * len(header))
    text = ",".join(header) + "\n" + row + "\n"
    _assert_blocks_match_per_row(read, oracle, text)
    with pytest.raises(ValueError, match="line 2: field larger than field limit"):
        read(io.StringIO(text))


# ---------------------------------------------------------------------------
# User tables, read by column name
# ---------------------------------------------------------------------------

# defined names that need quotes, beside the catalogue's
_USER_NAMES = (*NAMES, "a,b", 'say "hi"')
# a model of 30-minute buckets, so a day holds buckets 0 to 47
_MODEL = train([LabeledTransition(
    FeatureVector(0, None, EmotionLabel.POSITIVE, UXLabel.GOOD, DayKind.WEEKDAY), NAMES[0],
)], bucket_width=30)
# the readers look up only the names of the definitions
_USER_STORE = {"defs": dict.fromkeys(_USER_NAMES), "model": _MODEL}
_LABELS = (list(_USER_NAMES), ["Jogging", "none", "None", "two\nlines", "cr\rx"])
_EXTRA = (["x", "a,b", 'q"uote', "line\nbreak", ""], [])

# each column's (good, bad) texts, with whether it is required
_USER_TABLES = {
    "features": {
        "time_bucket": (True, ["0", "15", "47", " 7", "1_000"],
                        ["soon", "1.5", "", "-5", "-1", "48", "1000"]),
        "emotion": (True, ["positive", "negative", " positive"], ["meh", ""]),
        "ux": (True, ["good", "bad"], ["ok"]),
        "day_kind": (True, ["weekday", "weekend"], ["holiday", "Weekday"]),
        "previous_activity": (False, [*_LABELS[0], "", "none", " none", " Sleeping"],
                              _LABELS[1]),
        "activity": (False, [*_LABELS[0], "", " Leaving"], _LABELS[1]),
        "note": (False, *_EXTRA),
    },
    "predictions": {
        "activity": (True, _LABELS[0], [*_LABELS[1], "", " "]),
        "prediction": (True, _LABELS[0], [*_LABELS[1], ""]),
        "confidence(Sleeping)": (False, ["0.5", "1e-3", "x"], []),
        "confidence(a,b)": (False, ["0.25", ""], []),
        "note": (False, *_EXTRA),
    },
}


@st.composite
def _user_table_texts(draw, table: str) -> str:
    """Table text under a permuted header of every required column and
    some optional ones, written as `csv_field` writes them or quoted, of
    mostly good rows, with each variant that must leave the column pass:
    bad ints and enums, negative buckets, unknown or missing labels, names
    holding ``,``, ``"`` or a line break (quoted, or not), quoted plain
    fields, CRLF line ends, blank and whitespace-only lines, short and long
    rows, and a missing final line end."""
    pools = _USER_TABLES[table]
    names = draw(st.permutations(
        [name for name, (required, *_) in pools.items()
         if required or draw(st.booleans())]
    ))
    quote = draw(st.sampled_from([csv_field] * 3 + [lambda name: f'"{name}"']))
    lines = [",".join(map(quote, names))]
    for _ in range(draw(st.integers(0, 14))):
        fields = [draw(st.sampled_from(pools[name][1])) for name in names]
        kind = draw(st.sampled_from(
            ["good"] * 12 + ["bad"] * 3
            + ["unquoted", "quoted", "short", "long", "blank", "space"]
        ))
        column = draw(st.integers(0, len(fields) - 1))
        bad = pools[names[column]][2]
        if kind == "bad" and bad:
            fields[column] = draw(st.sampled_from(bad))
        if kind != "quoted":
            fields = list(map(csv_field, fields))
        if kind == "unquoted":  # a field that needs quotes, written without
            fields[column] = fields[column].strip('"').replace('""', '"')
        elif kind == "quoted":
            fields[column] = '"' + fields[column].replace('"', '""') + '"'
        elif kind == "short":
            fields = fields[:column]
        elif kind == "long":
            fields.append("x")
        elif kind in ("blank", "space"):
            fields = [] if kind == "blank" else ["  "]
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(["\n"] * 19 + ["\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]  # no final line end
    return text


def _assert_user_table_matches_per_row(read, oracle, text: str):
    """``read`` gives the ``oracle``'s values or error for ``text`` saved as a
    file, at every block size, and through csv.reader alone at every batch
    size."""
    def outcome(reader):
        try:
            return reader(_USER_STORE, path), None
        except ValueError as exc:
            return None, str(exc)

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        path.write_text(text, newline="")
        expected = outcome(oracle)
        for block_chars in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tables, "TRACE_BLOCK_CHARS", block_chars)
                assert outcome(read) == expected, block_chars
        for batch_rows in BATCH_SIZES:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(tables, "_plain_fields", lambda text, width: None)
                patch.setattr(tables, "CSV_BATCH_ROWS", batch_rows)
                assert outcome(read) == expected, batch_rows


@_SETTINGS
@given(text=_user_table_texts("features"))
@example(text="time_bucket,emotion,ux,day_kind,previous_activity\n"
         "-5,positive,good,weekday,Swimming\n")
def test_read_features_matches_per_row(text):
    _assert_user_table_matches_per_row(cli._read_features, oracle_read_features, text)


@_SETTINGS
@given(text=_user_table_texts("predictions"))
@example(text="prediction,activity\nSleeping,\n")
def test_read_predictions_matches_per_row(text):
    _assert_user_table_matches_per_row(
        cli._read_predictions, oracle_read_predictions, text
    )


# ---------------------------------------------------------------------------
# The plain path is the one taken
# ---------------------------------------------------------------------------

def _no_csv_reader(*args, **kwargs):
    raise AssertionError("a plain table reached csv.reader")


def test_plain_tables_never_reach_the_per_row_parsers(monkeypatch):
    # padded labels and a last line with no line end are plain too
    log = "start_iso8601,end_iso8601,activity\n" + "".join(
        f"2024-03-{day:02d}T0{hour}:00:00Z,2024-03-{day:02d}T0{hour}:30:00Z, {name}\n"
        for day in range(1, 29) for hour, name in enumerate(NAMES)
    ).rstrip("\n")
    buf = io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(csv, "reader", _no_csv_reader)
        records = parse_adl_log(io.StringIO(log), ADL_DEFS)
        assert len(records) == 28 * len(NAMES)
        write_occurrences(records, buf)
        assert read_occurrences(io.StringIO(buf.getvalue()), ADL_DEFS) == records
        assert read_occurrences(io.StringIO(buf.getvalue().rstrip("\n"))) == records
    # a name that needs quotes does reach it
    quoted = buf.getvalue().replace("Sleeping", "Sleeping, late")
    with monkeypatch.context() as patch:
        patch.setattr(csv, "reader", _no_csv_reader)
        with pytest.raises(AssertionError, match="csv.reader"):
            read_occurrences(io.StringIO(quoted))


def test_plain_user_tables_never_reach_csv_reader(monkeypatch, tmp_path):
    # columns in another order, a missing optional column, padded labels, and
    # confidence columns the reader does not want are plain too
    features = tmp_path / "features.csv"
    features.write_text("activity,day_kind,ux,emotion,time_bucket\n" + "".join(
        f" {name},weekday,good,positive,{bucket}\n"
        for bucket in range(40) for name in NAMES
    ))
    predictions = tmp_path / "predictions.csv"
    predictions.write_text(
        "prediction,activity,"
        + ",".join(f"confidence({name})" for name in NAMES) + "\n"
        + "".join(f"{name},{name}," + ",".join(["0.125"] * len(NAMES)) + "\n"
                  for name in NAMES * 40)
    )
    store = {"defs": ADL_DEFS, "model": _MODEL}
    with monkeypatch.context() as patch:
        patch.setattr(csv, "reader", _no_csv_reader)
        rows = cli._read_features(store, features)
        pairs = cli._read_predictions(store, predictions)
    assert rows == oracle_read_features(store, features)
    assert len(rows) == 40 * len(NAMES)
    assert pairs == oracle_read_predictions(store, predictions) == [
        (name, name) for name in NAMES * 40
    ]
    # a header name that needs quotes does reach it
    predictions.write_text(predictions.read_text().replace("confidence(", '"c,(', 1)
                           .replace(")", ')"', 1))
    with monkeypatch.context() as patch:
        patch.setattr(csv, "reader", _no_csv_reader)
        with pytest.raises(AssertionError, match="csv.reader"):
            cli._read_predictions(store, predictions)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def _occurrence(activity: str, i: int) -> OccurrenceRecord:
    return OccurrenceRecord(
        activity, 1_700_000_000 + 600 * i, 1_700_000_300 + 600 * i,
        frozenset({1, 2, 3}), frozenset({1, 2}), Source.POWER_TRACE,
    )


def _transient_bytes(rows: int, path, activity: str = "Watching TV") -> int:
    """Peak traced memory of `read_occurrences` above what its result holds."""
    with open(path, "w") as stream:
        write_occurrences((_occurrence(activity, i) for i in range(rows)), stream)
    with open(path) as stream:
        tracemalloc.start()
        try:
            records = read_occurrences(stream)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(records) == rows
    return peak - held


def test_read_occurrences_memory_does_not_grow_with_table_length(tmp_path):
    # a 20k-row table is 1.2 MB of text, so reading it whole would not fit
    bound = 512 * 1024
    assert _transient_bytes(20_000, tmp_path / "short.csv") < bound
    assert _transient_bytes(200_000, tmp_path / "long.csv") < bound


def test_quoted_table_memory_does_not_grow_with_table_length(tmp_path):
    # a name that needs quotes sends every row through csv.reader
    bound = 512 * 1024
    name = "Watching TV, late"
    assert _transient_bytes(20_000, tmp_path / "short.csv", name) < bound
    assert _transient_bytes(200_000, tmp_path / "long.csv", name) < bound
