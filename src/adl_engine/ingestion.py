"""Ingestion of appliance power traces and activity annotation logs.

Two wire formats are supported:

* power trace: whitespace-separated text, two columns ``unix_timestamp watts``,
  one sample per line (per-appliance channel files);
* annotation log: CSV with header ``start_iso8601,end_iso8601,activity``.

Continuous power signals are binarized against an on-threshold and segmented
into timed occurrence records; annotation rows become records directly.
Parsers are pure per-stream and raise with the offending line number.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable, TextIO

from .definitions import DefinitionSet


class TraceParseError(ValueError):
    """Malformed or non-monotonic power-trace input."""


class AnnotationParseError(ValueError):
    """Malformed annotation-log input."""


class Source(str, Enum):
    POWER_TRACE = "power-trace"
    ANNOTATION = "annotation"


@dataclass(frozen=True)
class SensorSample:
    """One appliance power reading (UTC seconds, watts >= 0)."""

    timestamp: int
    channel: str
    value: float


@dataclass(frozen=True)
class BinarySeries:
    """Per-channel on/off states at strictly increasing timestamps."""

    channel: str
    points: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class OccurrenceRecord:
    """One timed instance of an activity with its observed evidence."""

    activity: str
    start: int
    end: int
    observed_atomics: frozenset[int]
    satisfied_contexts: frozenset[int]
    source: Source


# ---------------------------------------------------------------------------
# Power traces
# ---------------------------------------------------------------------------

def parse_power_trace(stream: TextIO, channel: str) -> list[SensorSample]:
    """Parse a two-column power-trace stream into samples, in input order.

    Sub-second timestamps are truncated to whole seconds.  Raises
    TraceParseError on a malformed row (with its line number), a negative
    value, or a timestamp not strictly greater than its predecessor.
    """
    samples: list[SensorSample] = []
    last_ts: int | None = None
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TraceParseError(
                f"{channel}: line {lineno}: expected 'timestamp watts', got {line!r}"
            )
        try:
            ts = int(float(parts[0]))
            value = float(parts[1])
        except ValueError:
            raise TraceParseError(
                f"{channel}: line {lineno}: non-numeric field in {line!r}"
            ) from None
        if value < 0 or not math.isfinite(value):
            raise TraceParseError(
                f"{channel}: line {lineno}: watts must be finite and >= 0, got {value}"
            )
        if last_ts is not None and ts <= last_ts:
            raise TraceParseError(
                f"{channel}: line {lineno}: timestamp {ts} not after {last_ts}"
            )
        last_ts = ts
        samples.append(SensorSample(timestamp=ts, channel=channel, value=value))
    return samples


def binarize(
    samples: list[SensorSample], on_watts: float, gap_tolerance: int
) -> BinarySeries:
    """Threshold samples into on/off states and bridge short dropouts.

    A sample is on when its value exceeds ``on_watts``.  Off-runs of at most
    ``gap_tolerance`` samples flanked by on-states on both sides are promoted
    to on, so brief sensor dropouts do not split one activity in two.
    """
    if on_watts <= 0:
        raise ValueError(f"on_watts must be > 0, got {on_watts}")
    if gap_tolerance < 0:
        raise ValueError(f"gap_tolerance must be >= 0, got {gap_tolerance}")

    channel = samples[0].channel if samples else ""
    states = [1 if s.value > on_watts else 0 for s in samples]

    if gap_tolerance > 0:
        i = 0
        n = len(states)
        while i < n:
            if states[i] == 0:
                j = i
                while j < n and states[j] == 0:
                    j += 1
                gap = j - i
                flanked = i > 0 and j < n  # 1s on both sides
                if flanked and gap <= gap_tolerance:
                    for k in range(i, j):
                        states[k] = 1
                i = j
            else:
                i += 1

    points = tuple((s.timestamp, st) for s, st in zip(samples, states))
    return BinarySeries(channel=channel, points=points)


def segment_occurrences(
    series: BinarySeries,
    activity_map: dict[str, str],
    defs: DefinitionSet,
) -> list[OccurrenceRecord]:
    """Cut a binary series into one record per maximal on-run.

    A single appliance channel carries no sub-action evidence, so each record
    is marked with the mapped definition's full atomic and context id sets.
    """
    if not series.points:
        return []
    if series.channel not in activity_map:
        raise KeyError(f"channel {series.channel!r} has no activity mapping")
    activity = activity_map[series.channel]
    defn = defs[activity]

    records: list[OccurrenceRecord] = []
    run_start: int | None = None
    run_end: int | None = None
    for ts, state in series.points:
        if state == 1:
            if run_start is None:
                run_start = ts
            run_end = ts
        elif run_start is not None:
            records.append(
                OccurrenceRecord(
                    activity=activity,
                    start=run_start,
                    end=run_end,
                    observed_atomics=defn.atomic_ids,
                    satisfied_contexts=defn.context_ids,
                    source=Source.POWER_TRACE,
                )
            )
            run_start = run_end = None
    if run_start is not None:
        records.append(
            OccurrenceRecord(
                activity=activity,
                start=run_start,
                end=run_end,
                observed_atomics=defn.atomic_ids,
                satisfied_contexts=defn.context_ids,
                source=Source.POWER_TRACE,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Annotation logs
# ---------------------------------------------------------------------------

def _parse_iso8601(text: str, lineno: int) -> int:
    # 3.10 fromisoformat has no 'Z' support; normalize it before parsing
    normalized = text.strip().replace("Z", "+00:00")
    try:
        dt = datetime.fromisoformat(normalized)
    except ValueError:
        raise AnnotationParseError(
            f"line {lineno}: unparseable timestamp {text!r}"
        ) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def parse_adl_log(stream: TextIO, defs: DefinitionSet) -> list[OccurrenceRecord]:
    """Parse an annotation CSV into records sorted by start time.

    Every activity label must name a definition in ``defs``.  Annotation rows
    carry no sub-action evidence, so records get the definition's full id
    sets (partial observations are constructed in-process, not on the wire).
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        return []
    expected = ["start_iso8601", "end_iso8601", "activity"]
    if [h.strip() for h in header] != expected:
        raise AnnotationParseError(
            f"line 1: expected header {','.join(expected)!r}, got {','.join(header)!r}"
        )

    records: list[OccurrenceRecord] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise AnnotationParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
        start = _parse_iso8601(row[0], lineno)
        end = _parse_iso8601(row[1], lineno)
        activity = row[2].strip()
        if activity not in defs:
            raise AnnotationParseError(
                f"line {lineno}: unknown activity label {activity!r}"
            )
        if end < start:
            raise AnnotationParseError(
                f"line {lineno}: end {row[1].strip()!r} before start {row[0].strip()!r}"
            )
        defn = defs[activity]
        records.append(
            OccurrenceRecord(
                activity=activity,
                start=start,
                end=end,
                observed_atomics=defn.atomic_ids,
                satisfied_contexts=defn.context_ids,
                source=Source.ANNOTATION,
            )
        )
    records.sort(key=lambda r: (r.start, r.activity))
    return records


def serialize_adl_log(records: Iterable[OccurrenceRecord]) -> str:
    """Render records back to the annotation wire format (parse round-trips)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["start_iso8601", "end_iso8601", "activity"])
    for r in records:
        writer.writerow([_iso(r.start), _iso(r.end), r.activity])
    return buf.getvalue()


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# Occurrence CSV (pipeline intermediate)
# ---------------------------------------------------------------------------

OCCURRENCE_FIELDS = [
    "activity", "start", "end", "observed_atomics", "satisfied_contexts", "source",
]


def _ids_to_field(ids: frozenset[int]) -> str:
    return ";".join(str(i) for i in sorted(ids))


def _field_to_ids(field_text: str) -> frozenset[int]:
    if not field_text:
        return frozenset()
    return frozenset(int(p) for p in field_text.split(";"))


def write_occurrences(records: Iterable[OccurrenceRecord], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(OCCURRENCE_FIELDS)
    for r in records:
        writer.writerow([
            r.activity, r.start, r.end,
            _ids_to_field(r.observed_atomics),
            _ids_to_field(r.satisfied_contexts),
            r.source.value,
        ])


def read_occurrences(stream: TextIO) -> list[OccurrenceRecord]:
    reader = csv.DictReader(stream)
    records = []
    for row in reader:
        records.append(
            OccurrenceRecord(
                activity=row["activity"],
                start=int(row["start"]),
                end=int(row["end"]),
                observed_atomics=_field_to_ids(row["observed_atomics"]),
                satisfied_contexts=_field_to_ids(row["satisfied_contexts"]),
                source=Source(row["source"]),
            )
        )
    return records


def merge_sorted(record_lists: Iterable[list[OccurrenceRecord]]) -> list[OccurrenceRecord]:
    """Merge per-file record lists into one deterministic timeline."""
    merged = [r for records in record_lists for r in records]
    merged.sort(key=lambda r: (r.start, r.activity))
    return merged
