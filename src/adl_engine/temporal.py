"""The UTC day clock and the cluster report.

A unix timestamp maps to a minute within its UTC day, a whole-day index and
a weekday flag; these three functions are the engine's only clock.  The
cluster report lays out each activity's start instants by day for plotting.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Sequence, TextIO

from .tables import csv_field, write_table

if TYPE_CHECKING:
    from .ingestion import OccurrenceRecord

MINUTES_PER_DAY = 1440
SECONDS_PER_DAY = 86400


def minute_of_day(timestamp: int) -> int:
    """Minute within the UTC day for a unix timestamp."""
    return (timestamp % SECONDS_PER_DAY) // 60


def day_index(timestamp: int) -> int:
    """Whole UTC days since the unix epoch for a unix timestamp."""
    return timestamp // SECONDS_PER_DAY


def is_weekday(timestamp: int) -> bool:
    """Whether the UTC day of a unix timestamp is Monday to Friday.

    The epoch fell on a Thursday, weekday 3 counting Monday as 0.
    """
    return (day_index(timestamp) + 3) % 7 < 5


def cluster_report(
    records: Sequence[OccurrenceRecord],
) -> list[tuple[str, int, int]]:
    """Rows of (activity, day_index, minute_of_day) for the cluster CSV.

    Day indices are shifted so the earliest observed day is 0; rows group by
    activity name and sort by day then minute within each group.
    """
    # (day, minute) never decreases as the start grows, so records in start
    # order give each activity's rows in order, and a stable sort by activity
    # alone finishes; timsort takes the records, which ingest merged in start
    # order, in one pass
    ordered = sorted(records, key=attrgetter("start"))
    base_day = day_index(ordered[0].start) if ordered else 0
    rows = [
        (r.activity, day_index(r.start) - base_day, minute_of_day(r.start))
        for r in ordered
    ]
    rows.sort(key=itemgetter(0))
    return rows


CLUSTER_FIELDS = ["activity", "day_index", "minute_of_day"]


def write_clusters(rows: list[tuple[str, int, int]], stream: TextIO) -> None:
    write_table(stream, CLUSTER_FIELDS, (
        f"{csv_field(activity)},{day!s},{minute!s}\n" for activity, day, minute in rows
    ))
