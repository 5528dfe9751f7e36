"""The UTC day clock and the cluster report.

A unix timestamp maps to a minute within its UTC day, a whole-day index and
a weekday flag; these three functions are the engine's only clock.  The
cluster report lays out each activity's start instants by day for plotting:
`cluster_report` orders the records and finds the first day, and
`write_clusters` reads each row's day and minute off its record's start
through this clock as it writes, so no row is held between the two.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

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
) -> tuple[list[OccurrenceRecord], int]:
    """The records in cluster-report order, with the day index of the
    earliest start, which the report counts as day 0.

    Records group by activity name and sort by start, so by day and then
    minute, within each group.
    """
    # sorting by start, then stably by activity alone, gives that order;
    # timsort takes the records, which ingest merged in start order, in one pass
    ordered = sorted(records, key=attrgetter("start"))
    base_day = day_index(ordered[0].start) if ordered else 0
    ordered.sort(key=attrgetter("activity"))
    return ordered, base_day


CLUSTER_FIELDS = ["activity", "day_index", "minute_of_day"]


def write_clusters(
    records: Iterable[OccurrenceRecord], base_day: int, stream: TextIO
) -> None:
    """Write each record's activity, the day index of its start counted from
    ``base_day``, and the minute of day of its start, as `cluster_report`
    gives them."""
    write_table(stream, CLUSTER_FIELDS, (
        f"{csv_field(record[0])},{day_index(record[1]) - base_day!s},"
        f"{minute_of_day(record[1])!s}\n"
        for record in records
    ))
