"""The strict stage-table format: `write_table`, `read_csv_blocks`, the flag
fields `FLAG_TEXT` writes and `parse_flag` reads, and every table writer
held byte for byte to the field-by-field ``csv.writer`` oracle."""

from __future__ import annotations

import argparse
import csv
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adl_engine import cli
from adl_engine import recommender as recom_mod
from adl_engine.affect import (
    ANNOTATED_FIELDS, AffectAnnotation, EmotionLabel, UXLabel, read_annotated,
    write_annotated,
)
from adl_engine.config import RunConfig
from adl_engine.evaluation import (
    CONFUSION_CORNER, ConfusionMatrix, build_report, write_confusion, write_report_csv,
)
from adl_engine.ingestion import (
    OCCURRENCE_FIELDS,
    OccurrenceRecord,
    Source,
    read_occurrences,
    write_occurrences,
)
from adl_engine.recognition import (
    VERDICT_FIELDS, ScoredOccurrence, read_verdicts, write_verdicts,
)
from adl_engine.tables import (
    FLAG_TEXT, WRITE_LINES, csv_field, parse_flag, read_csv_blocks, timed_heads,
    write_table,
)
from adl_engine.temporal import CLUSTER_FIELDS, write_clusters
from helpers import (
    oracle_table, per_row_write_annotated, per_row_write_occurrences,
    per_row_write_verdicts,
)

_HEADER = ["name", "count"]


def _pairs(names: list[str], counts: list[str]) -> list[tuple[str, int]]:
    return list(zip(names, map(int, counts)))


def test_write_table_then_read_table_round_trips():
    buf = io.StringIO()
    write_table(buf, _HEADER, (
        f"{csv_field(name)},{count}\n" for name, count in [("a,b", 1), ('say "hi"', 2)]
    ))
    assert buf.getvalue() == 'name,count\n"a,b",1\n"say ""hi""",2\n'
    assert read_csv_blocks(io.StringIO(buf.getvalue()), _HEADER, _pairs) == [
        ("a,b", 1), ('say "hi"', 2),
    ]


class _RecordingStream(io.StringIO):
    """A text buffer that keeps the text of each ``write`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def test_write_table_writes_the_lines_in_chunks_of_write_lines():
    lines = [f"row {i},{i}\n" for i in range(2 * WRITE_LINES + 1)]
    buf = _RecordingStream()
    write_table(buf, _HEADER, iter(lines))
    assert buf.writes == [
        "name,count\n",
        "".join(lines[:WRITE_LINES]),
        "".join(lines[WRITE_LINES:-1]),
        lines[-1],
    ]


def test_read_table_skips_blank_lines_and_reads_empty_stream():
    assert read_csv_blocks(io.StringIO(""), _HEADER, _pairs) == []
    text = "name,count\n\na,1\n\nb,2\n"
    assert read_csv_blocks(io.StringIO(text), _HEADER, _pairs) == [("a", 1), ("b", 2)]


@pytest.mark.parametrize("text, fragment", [
    ("count,name\n1,a\n", "line 1: expected header 'name,count', got 'count,name'"),
    ("name,count\na,1\nb\n", "line 3: expected 2 fields, got 1"),
    ("name,count\na,1\n\nb,two\n", "line 4: invalid literal"),
    (f"name,count\n{'x' * (csv.field_size_limit() + 1)},1\n",
     "line 2: field larger than field limit"),
], ids=["header", "field-count", "parse", "csv-error"])
def test_read_table_names_the_line(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        read_csv_blocks(io.StringIO(text), _HEADER, _pairs)


def test_parse_flag_accepts_only_true_and_false():
    assert parse_flag("true") is True
    assert parse_flag("false") is False
    for text in ("True", "yes", "1", "", " true"):
        with pytest.raises(ValueError, match="expected 'true' or 'false'"):
            parse_flag(text)


def test_format_flag_round_trips_through_parse_flag():
    assert [FLAG_TEXT[flag] for flag in (True, False)] == ["true", "false"]
    for flag in (True, False):
        assert parse_flag(FLAG_TEXT[flag]) is flag


# ---------------------------------------------------------------------------
# Fuzz: a stage reader returns a value or raises ValueError, nothing else
# ---------------------------------------------------------------------------

_READERS = {
    "occurrences": (read_occurrences, OCCURRENCE_FIELDS),
    "verdicts": (read_verdicts, VERDICT_FIELDS),
    "annotated": (read_annotated, ANNOTATED_FIELDS),
}

# field texts near the valid values of some column, plus arbitrary text
_FIELD = st.one_of(
    st.sampled_from([
        "", "0", "-3", "1.5", "nan", "inf", "1e400", "1;2", "1;;2", "1;x",
        "true", "false", "yes", "power-trace", "annotation", "positive",
        "negative", "good", "bad",
    ]),
    st.integers().map(str),
    st.text(max_size=8),
)


@st.composite
def _table_text(draw, header: list[str]) -> str:
    """A valid header, random rows of about its width, then arbitrary text."""
    width = len(header)
    rows = draw(st.lists(
        st.one_of(
            st.lists(_FIELD, min_size=width, max_size=width),
            st.lists(_FIELD, max_size=width + 2),
        ),
        max_size=5,
    ))
    return oracle_table(header, rows) + draw(st.text(max_size=20))


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_stage_readers_raise_only_value_error(name, data):
    read, header = _READERS[name]
    text = data.draw(st.one_of(st.text(), _table_text(header)))
    try:
        read(io.StringIO(text))
    except ValueError:
        pass


# ---------------------------------------------------------------------------
# Every table writer writes the bytes of the csv.writer oracle
# ---------------------------------------------------------------------------

# user text the csv module quotes, or might: delimiter, quote, line ends,
# edge spaces, non-ASCII, a backslash; plus arbitrary text
_NAME = st.one_of(
    st.sampled_from([
        ",", '"', "\n", "\r", "\r\n", " lead", "trail ", "a,b", 'say "hi"', "",
        "naïve café", "日本語", "pred\\true", "Eating Breakfast",
    ]),
    st.text(max_size=12),
)
_SCORE = st.floats(allow_nan=False, allow_infinity=False)
_IDS = st.frozensets(st.integers(-3, 10_000), max_size=4)


def _ids_text(ids: frozenset[int]) -> str:
    return ";".join(str(i) for i in sorted(ids))


def _flag_text(flag: bool) -> str:
    return "true" if flag else "false"


def _written(write, rows) -> str:
    buf = io.StringIO()
    write(rows, buf)
    return buf.getvalue()


_WRITER_SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


@_WRITER_SETTINGS
@given(st.lists(st.builds(
    OccurrenceRecord, _NAME, st.integers(), st.integers(), _IDS, _IDS,
    st.sampled_from(Source),
), max_size=6))
def test_write_occurrences_matches_the_csv_writer_oracle(records):
    assert _written(write_occurrences, records) == oracle_table(OCCURRENCE_FIELDS, [
        [r.activity, r.start, r.end, _ids_text(r.observed_atomics),
         _ids_text(r.satisfied_contexts), r.source]
        for r in records
    ])


@_WRITER_SETTINGS
@given(st.lists(st.builds(
    ScoredOccurrence, _NAME, st.integers(), st.integers(), _SCORE, st.booleans(),
), max_size=6))
def test_write_verdicts_matches_the_csv_writer_oracle(rows):
    assert _written(write_verdicts, rows) == oracle_table(VERDICT_FIELDS, [
        [r.activity, r.start, r.end, repr(r.score), _flag_text(r.completed)]
        for r in rows
    ])


@_WRITER_SETTINGS
@given(st.lists(st.builds(
    AffectAnnotation, _NAME, st.integers(), st.integers(), _SCORE, st.booleans(),
    st.sampled_from(EmotionLabel), st.sampled_from(UXLabel),
), max_size=6))
def test_write_annotated_matches_the_csv_writer_oracle(rows):
    assert _written(write_annotated, rows) == oracle_table(ANNOTATED_FIELDS, [
        [r.activity, r.start, r.end, repr(r.score), _flag_text(r.completed),
         r.emotion, r.ux]
        for r in rows
    ])


# equal scores that print differently (0.0 == -0.0, 1 == 1.0), each after the
# other, so a memo of score texts keyed by value alone would print the second
# as the first; and repeats of scores that print alike
_TRAP_SCORES = [0.0, -0.0, 0.0, 1.0, 1, 1.0, -0.0, 0.1 + 0.2, 0.30000000000000004, 0.3]


def test_score_texts_keep_equal_scores_that_print_differently_apart():
    verdicts = [
        ScoredOccurrence("A", i, i + 1, score, i % 2 == 0)
        for i, score in enumerate(_TRAP_SCORES)
    ]
    annotations = [
        AffectAnnotation(*v, EmotionLabel.POSITIVE, UXLabel.BAD) for v in verdicts
    ]
    assert _written(write_verdicts, verdicts) == oracle_table(VERDICT_FIELDS, [
        [v.activity, v.start, v.end, repr(v.score), _flag_text(v.completed)]
        for v in verdicts
    ])
    assert _written(write_annotated, annotations) == oracle_table(ANNOTATED_FIELDS, [
        [a.activity, a.start, a.end, repr(a.score), _flag_text(a.completed),
         a.emotion, a.ux]
        for a in annotations
    ])


# few distinct values of each field after the end, so tails repeat, with the
# trap scores among them
_TAIL_SCORE = st.sampled_from(_TRAP_SCORES) | _SCORE
_FEW_IDS = st.sampled_from([frozenset(), frozenset({1, 2}), frozenset({-3, 10_000})]) | _IDS
_TIMED_ROWS = {
    "occurrences": (write_occurrences, per_row_write_occurrences, st.builds(
        OccurrenceRecord, _NAME, st.integers(), st.integers(), _FEW_IDS, _FEW_IDS,
        st.sampled_from(Source),
    )),
    "verdicts": (write_verdicts, per_row_write_verdicts, st.builds(
        ScoredOccurrence, _NAME, st.integers(), st.integers(), _TAIL_SCORE, st.booleans(),
    )),
    "annotated": (write_annotated, per_row_write_annotated, st.builds(
        AffectAnnotation, _NAME, st.integers(), st.integers(), _TAIL_SCORE, st.booleans(),
        st.sampled_from(EmotionLabel), st.sampled_from(UXLabel),
    )),
}


@pytest.mark.parametrize("shared", [False, True], ids=["own-heads", "shared-heads"])
@pytest.mark.parametrize("table", sorted(_TIMED_ROWS))
@_WRITER_SETTINGS
@given(data=st.data())
def test_occurrence_table_writers_match_the_per_row_writers(table, shared, data):
    write, oracle, row = _TIMED_ROWS[table]
    rows = data.draw(st.lists(row, max_size=12))
    expected = io.StringIO()
    oracle(rows, expected)
    got = io.StringIO()
    write(rows, got, timed_heads(rows) if shared else None)
    assert got.getvalue() == expected.getvalue()


@_WRITER_SETTINGS
@given(st.lists(st.tuples(_NAME, st.integers(), st.integers()), max_size=6))
def test_write_clusters_matches_the_csv_writer_oracle(rows):
    assert _written(write_clusters, rows) == oracle_table(CLUSTER_FIELDS, rows)


@st.composite
def _confusion(draw) -> ConfusionMatrix:
    labels = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    cell = st.integers(0, 10**6)
    counts = tuple(
        tuple(draw(st.lists(cell, min_size=len(labels), max_size=len(labels))))
        for _ in labels
    )
    return ConfusionMatrix(tuple(labels), counts)


@_WRITER_SETTINGS
@given(_confusion())
def test_write_confusion_matches_the_csv_writer_oracle(cm):
    buf = io.StringIO()
    write_confusion(cm, buf)
    assert buf.getvalue() == oracle_table(
        [CONFUSION_CORNER, *cm.labels],
        [[label, *row] for label, row in zip(cm.labels, cm.counts)],
    )


def _percent(value: float | None) -> str:
    return "n/a" if value is None else f"{value * 100:.2f}%"


@_WRITER_SETTINGS
@given(_confusion())
def test_emit_report_matches_the_csv_writer_oracle(cm):
    assume(any(map(any, cm.counts)))
    report = build_report(cm)
    rows = [["accuracy", "", _percent(report.accuracy)]]
    rows += [["precision", label, _percent(report.precision[label])] for label in cm.labels]
    rows += [["recall", label, _percent(report.recall[label])] for label in cm.labels]
    rows.append(["grand_total", "", str(report.grand_total)])
    buf = io.StringIO()
    write_report_csv(report, buf)
    assert buf.getvalue() == oracle_table(["metric", "label", "value"], rows)


@st.composite
def _model_and_features(draw):
    """A model trained over adversarially named activities, and feature rows
    (with repeats) labelled by those names or by other text."""
    activities = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    features = st.builds(
        recom_mod.FeatureVector,
        st.integers(0, 3),
        st.none() | st.sampled_from(activities),
        st.sampled_from(EmotionLabel),
        st.sampled_from(UXLabel),
        st.sampled_from(recom_mod.DayKind),
    )
    transitions = draw(st.lists(
        st.builds(recom_mod.LabeledTransition, features, st.sampled_from(activities)),
        min_size=1, max_size=8,
    ))
    model = recom_mod.train(transitions, activities=activities)
    rows = draw(st.lists(
        st.tuples(st.sampled_from(activities) | _NAME, features), max_size=8,
    ))
    return model, rows


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_model_and_features())
def test_recommend_stage_matches_the_csv_writer_oracle(case):
    model, rows = case
    oracle_rows = []
    for true_label, features in rows:
        vector = recom_mod.predict_confidences(model, features)
        oracle_rows.append([
            true_label, recom_mod.recommend(vector),
            *[repr(vector[name]) for name in model.activities],
        ])
    header = ["activity", "prediction"] + [
        f"confidence({name})" for name in model.activities
    ]
    store = cli.Store(RunConfig(), argparse.Namespace())
    store["model"] = model
    store["features"] = rows
    _, (write,) = cli._recommend(store)
    buf = io.StringIO(newline="")
    write(buf)
    assert buf.getvalue() == oracle_table(header, oracle_rows)
    assert store["predictions"] == [(predicted, label) for label, predicted, *_ in oracle_rows]
