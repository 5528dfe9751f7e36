"""Temporal pattern helpers: circular time distance and a KNN labeler.

Occurrences are placed on a minute-of-day clock where distance wraps around
midnight, so 23:59 sits one minute from 00:00.  A small supervised KNN over
those instants recovers which activity typically happens at a given time,
and a cluster report lays out each activity's instants by day for plotting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence, TextIO

from .ingestion import OccurrenceRecord, read_table, write_table

MINUTES_PER_DAY = 1440
SECONDS_PER_DAY = 86400
DEFAULT_K = 3


@dataclass(frozen=True)
class TimeInstant:
    """A point on the day clock: minute within the day plus a day index."""

    minute_of_day: int
    day_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.minute_of_day < MINUTES_PER_DAY:
            raise ValueError(
                f"minute_of_day must be in [0, {MINUTES_PER_DAY}), "
                f"got {self.minute_of_day}"
            )


@dataclass(frozen=True)
class LabeledInstant:
    """A time instant tagged with the activity that occurred there."""

    instant: TimeInstant
    activity: str


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


def _minute(value: TimeInstant | int) -> int:
    minute = value.minute_of_day if isinstance(value, TimeInstant) else value
    if not 0 <= minute < MINUTES_PER_DAY:
        raise ValueError(f"minute must be in [0, {MINUTES_PER_DAY}), got {minute}")
    return minute


def circular_distance(a: TimeInstant | int, b: TimeInstant | int) -> int:
    """Minute distance on the wrap-around day clock (0..720)."""
    diff = abs(_minute(a) - _minute(b))
    return min(diff, MINUTES_PER_DAY - diff)


# ---------------------------------------------------------------------------
# KNN
# ---------------------------------------------------------------------------

def knn_label(
    train: Sequence[LabeledInstant],
    query: TimeInstant | int,
    k: int = DEFAULT_K,
) -> str:
    """Majority activity among the k nearest training instants.

    Neighbor order breaks distance ties by earlier minute of day, then by
    activity name; a tied vote goes to the lexicographically first activity.
    """
    if not train:
        raise ValueError("knn_label needs at least one training instant")
    if not 1 <= k <= len(train):
        raise ValueError(f"k must be in [1, {len(train)}], got {k}")

    query_minute = _minute(query)
    ranked = sorted(
        train,
        key=lambda li: (
            circular_distance(li.instant.minute_of_day, query_minute),
            li.instant.minute_of_day,
            li.activity,
        ),
    )
    votes = Counter(li.activity for li in ranked[:k])
    best_count = max(votes.values())
    winners = sorted(name for name, count in votes.items() if count == best_count)
    return winners[0]


# ---------------------------------------------------------------------------
# Cluster report
# ---------------------------------------------------------------------------

def instants_from_records(
    records: Sequence[OccurrenceRecord],
) -> list[LabeledInstant]:
    """Start-time instants for records; day_index counts whole UTC days."""
    return [
        LabeledInstant(
            instant=TimeInstant(
                minute_of_day=minute_of_day(r.start),
                day_index=day_index(r.start),
            ),
            activity=r.activity,
        )
        for r in records
    ]


def cluster_report(
    records: Sequence[OccurrenceRecord],
) -> list[tuple[str, int, int]]:
    """Rows of (activity, day_index, minute_of_day) for the cluster CSV.

    Day indices are shifted so the earliest observed day is 0; rows group by
    activity name and sort by day then minute within each group.
    """
    days = [day_index(r.start) for r in records]
    base_day = min(days, default=0)
    return sorted(
        (r.activity, day - base_day, minute_of_day(r.start))
        for r, day in zip(records, days)
    )


CLUSTER_FIELDS = ["activity", "day_index", "minute_of_day"]


def write_clusters(rows: list[tuple[str, int, int]], stream: TextIO) -> None:
    write_table(stream, CLUSTER_FIELDS, rows)


def read_clusters(stream: TextIO) -> list[tuple[str, int, int]]:
    """Parse a cluster CSV; a malformed row raises ValueError with its line number."""
    return read_table(
        stream, CLUSTER_FIELDS, lambda row: (row[0], int(row[1]), int(row[2]))
    )
