"""The strict stage-table format: `write_table`, `read_table`, and the flag
fields `format_flag` writes and `parse_flag` reads."""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl_engine.affect import ANNOTATED_FIELDS, read_annotated
from adl_engine.ingestion import (
    OCCURRENCE_FIELDS,
    format_flag,
    parse_flag,
    read_occurrences,
    read_table,
    write_table,
)
from adl_engine.recognition import VERDICT_FIELDS, read_verdicts

_HEADER = ["name", "count"]


def _pair(row: list[str]) -> tuple[str, int]:
    return row[0], int(row[1])


def test_write_table_then_read_table_round_trips():
    buf = io.StringIO()
    write_table(buf, _HEADER, [["a,b", 1], ['say "hi"', 2]])
    assert buf.getvalue() == 'name,count\n"a,b",1\n"say ""hi""",2\n'
    assert read_table(io.StringIO(buf.getvalue()), _HEADER, _pair) == [
        ("a,b", 1), ('say "hi"', 2),
    ]


def test_read_table_skips_blank_lines_and_reads_empty_stream():
    assert read_table(io.StringIO(""), _HEADER, _pair) == []
    text = "name,count\n\na,1\n\nb,2\n"
    assert read_table(io.StringIO(text), _HEADER, _pair) == [("a", 1), ("b", 2)]


@pytest.mark.parametrize("text, fragment", [
    ("count,name\n1,a\n", "line 1: expected header 'name,count', got 'count,name'"),
    ("name,count\na,1\nb\n", "line 3: expected 2 fields, got 1"),
    ("name,count\na,1\n\nb,two\n", "line 4: invalid literal"),
    (f"name,count\n{'x' * (csv.field_size_limit() + 1)},1\n",
     "line 2: field larger than field limit"),
], ids=["header", "field-count", "parse", "csv-error"])
def test_read_table_names_the_line(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        read_table(io.StringIO(text), _HEADER, _pair)


def test_parse_flag_accepts_only_true_and_false():
    assert parse_flag("true") is True
    assert parse_flag("false") is False
    for text in ("True", "yes", "1", "", " true"):
        with pytest.raises(ValueError, match="expected 'true' or 'false'"):
            parse_flag(text)


def test_format_flag_round_trips_through_parse_flag():
    assert [format_flag(flag) for flag in (True, False)] == ["true", "false"]
    for flag in (True, False):
        assert parse_flag(format_flag(flag)) is flag


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
    buf = io.StringIO()
    write_table(buf, header, rows)
    return buf.getvalue() + draw(st.text(max_size=20))


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
