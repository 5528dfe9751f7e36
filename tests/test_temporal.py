from __future__ import annotations

import io
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from adl_engine.ingestion import OccurrenceRecord, Source
from adl_engine.temporal import (
    cluster_report, day_index, is_weekday, minute_of_day, write_clusters,
)
from helpers import per_row_cluster_report


def _record(activity: str, start: int, end: int) -> OccurrenceRecord:
    return OccurrenceRecord(
        activity, start, end, frozenset(), frozenset(), Source.ANNOTATION)


# ---------------------------------------------------------------------------
# day clock
# ---------------------------------------------------------------------------

def test_minute_of_day_from_timestamp():
    assert minute_of_day(0) == 0
    assert minute_of_day(86399) == 1439
    assert minute_of_day(86400 + 3600) == 60


def test_day_index_and_weekday_from_timestamp():
    assert day_index(0) == 0
    assert day_index(86400 + 480 * 60) == 1
    # 1970-01-01 was a Thursday: Thu, Fri are weekdays, Sat, Sun are not
    assert [is_weekday(d * 86400) for d in range(5)] == [True, True, False, False, True]


# ---------------------------------------------------------------------------
# cluster report
# ---------------------------------------------------------------------------

def test_instants_use_start_times():
    day = 86400
    records = [
        _record("Sleeping", 23 * 3600, day + 6 * 3600),
        _record("Breakfast", day + 480 * 60, day + 500 * 60),
    ]
    # Sleeping starts on day 0 and ends on day 1; its row is day 0, minute 1380
    assert cluster_report(records) == [
        ("Breakfast", 1, 480),
        ("Sleeping", 0, 1380),
    ]


def test_cluster_report_empty():
    assert cluster_report([]) == []


def test_cluster_report_groups_and_rebases_days():
    day = 86400
    records = [
        _record("Lunch", 5 * day + 780 * 60, 5 * day + 800 * 60),
        _record("Breakfast", 7 * day + 490 * 60, 7 * day + 500 * 60),
        _record("Breakfast", 5 * day + 480 * 60, 5 * day + 500 * 60),
        _record("Lunch", 6 * day + 770 * 60, 6 * day + 790 * 60),
        _record("Breakfast", 6 * day + 485 * 60, 6 * day + 495 * 60),
        _record("Lunch", 7 * day + 785 * 60, 7 * day + 805 * 60),
    ]
    rows = cluster_report(records)
    assert rows == [
        ("Breakfast", 0, 480),
        ("Breakfast", 1, 485),
        ("Breakfast", 2, 490),
        ("Lunch", 0, 780),
        ("Lunch", 1, 770),
        ("Lunch", 2, 785),
    ]


@settings(max_examples=100, derandomize=True)
@given(
    starts=st.lists(st.integers(0, 30 * 86400), min_size=0, max_size=20),
    data=st.data(),
)
def test_cluster_report_preserves_cardinality_per_activity(starts, data):
    labels = data.draw(st.lists(
        st.sampled_from(["A", "B"]),
        min_size=len(starts), max_size=len(starts)))
    records = [
        _record(lab, s, s + 60) for s, lab in zip(starts, labels)
    ]
    rows = cluster_report(records)
    assert len(rows) == len(records)
    assert Counter(r[0] for r in rows) == Counter(labels)
    if rows:
        assert min(r[1] for r in rows) == 0


@settings(max_examples=200, derandomize=True)
@given(rows=st.lists(st.tuples(
    st.sampled_from(["A", "B", "C"]),
    st.integers(min_value=-3 * 86400, max_value=30 * 86400),  # start, in any order
), max_size=30))
def test_cluster_report_matches_the_per_row_loop(rows):
    records = [_record(activity, start, start + 60) for activity, start in rows]
    assert cluster_report(records) == per_row_cluster_report(records)


# starts in any order, on days either side of the epoch, many of them in one
# (day, minute) at different seconds
_CROWDED_START = st.builds(
    lambda day, minute, second: day * 86400 + minute * 60 + second,
    st.integers(-1, 1), st.sampled_from([0, 1, 1439]), st.integers(0, 59),
)


@settings(max_examples=200, derandomize=True)
@given(rows=st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), _CROWDED_START), max_size=40))
def test_cluster_report_matches_the_per_row_loop_when_rows_share_a_minute(rows):
    records = [_record(activity, start, start + 60) for activity, start in rows]
    assert cluster_report(records) == per_row_cluster_report(records)


def test_cluster_csv_round_trip():
    rows = [("Breakfast", 0, 480), ("Lunch", 1, 770)]
    buf = io.StringIO()
    write_clusters(rows, buf)
    assert buf.getvalue() == (
        "activity,day_index,minute_of_day\nBreakfast,0,480\nLunch,1,770\n"
    )
