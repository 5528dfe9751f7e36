"""Ingestion of appliance power traces and activity annotation logs.

Two input wire formats are supported:

* power trace: whitespace-separated text, two columns ``unix_timestamp watts``,
  one sample per line (per-appliance channel files);
* annotation log: CSV with header ``start_iso8601,end_iso8601,activity``.

Both are read in blocks of whole lines by `tables.line_blocks`; the
annotation log is a table that `tables.read_csv_blocks` reads.

A power trace becomes occurrence records a block at a time.
`power_trace_blocks` splits each block once, checks it whole with builtins
that run in C (its shape on its UTF-8 bytes), and thresholds it against
``on_watts``, yielding each block's stamps, as decimal texts, and the
indices of its on-samples.  Stamps that are ASCII digits of one width sort
as texts in number order, so a block of them is checked as texts and only
its first and last stamps are read with `int`.  A channel repeats few watts
texts, so the reader keeps a per-stream dict from each watts text of an
accepted block to its on flag, and the set of its texts flagged off: a
block of standby texts is settled by one set test, a block of known texts
needs no float parsing, and of other blocks only the unknown texts are parsed.
The dict takes new texts only while it holds fewer than `WATTS_MEMO_TEXTS`,
so a trace of all distinct readings cannot grow it without bound.  A block
with any line that is not plain ``<stamp> <watts>`` text, or with stamps of
mixed widths, goes through the per-line parser `iter_power_trace` instead,
which gives the same values or raises the same error.
`trace_occurrences` finds where runs end from the index steps
between on-samples, bridging dropouts of at most ``gap_tolerance`` samples;
it keeps only the open run's bounds, so memory does not grow with trace
length.  The three-step path `parse_power_trace` -> `binarize` ->
`segment_occurrences`, which materializes every sample and state, is kept
as the reference the tests check that pass against.  An `OccurrenceRecord`
is a named tuple, one per occurrence.  Parsers are pure per-stream and raise
with the offending line number.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone
from enum import Enum
from functools import partial
from itertools import compress, count, filterfalse, islice, repeat
from operator import attrgetter, itemgetter, lt, not_, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from . import InputError
from .config import check_param
from .definitions import ComplexActivityDefinition
from .tables import (
    FieldLookup, Memo, check_order, line_blocks, member_parser, named_rows, read_csv_blocks,
    write_timed_table,
)


class TraceParseError(InputError):
    """Malformed or non-monotonic power-trace input."""


class AnnotationParseError(InputError):
    """Malformed annotation-log input."""


class Source(str, Enum):
    POWER_TRACE = "power-trace"
    ANNOTATION = "annotation"


class SensorSample(NamedTuple):
    """One appliance power reading (UTC seconds, watts >= 0).

    Built only by the reference path `parse_power_trace`; ingest reads
    ``(stamps, watts)`` blocks instead.
    """

    timestamp: int
    channel: str
    value: float


class BinarySeries(NamedTuple):
    """Per-channel on/off states at strictly increasing timestamps.

    Built only by the reference path `binarize`.
    """

    channel: str
    points: tuple[tuple[int, int], ...]


class OccurrenceRecord(NamedTuple):
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

def iter_power_trace(
    lines: Iterable[str], channel: str, first_line: int = 1, last_ts: int | None = None
) -> Iterator[tuple[int, float]]:
    """Yield ``(timestamp, watts)`` per sample of a power-trace stream, in order.

    Blank lines are skipped and sub-second timestamps are truncated to whole
    seconds.  Raises TraceParseError, naming the channel and line number, on
    a malformed row, a non-finite timestamp, a negative or non-finite value,
    or a timestamp not strictly greater than its predecessor.  ``lines`` may
    be the rest of a trace: its first line is then numbered ``first_line``
    and follows a sample stamped ``last_ts``.
    """
    for lineno, line in enumerate(lines, start=first_line):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise TraceParseError(
                f"{channel}: line {lineno}: expected 'timestamp watts', "
                f"got {line.strip()!r}"
            )
        try:
            ts = int(float(parts[0]))
            value = float(parts[1])
        except ValueError:
            raise TraceParseError(
                f"{channel}: line {lineno}: non-numeric field in {line.strip()!r}"
            ) from None
        except OverflowError:
            raise TraceParseError(
                f"{channel}: line {lineno}: timestamp must be finite, got {parts[0]!r}"
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
        yield ts, value


# deleting these from a plain line ``<stamp> <watts>\n`` leaves `` \n``
_NUMBER_BYTES = b"0123456789.+-eE"
# an int below this in magnitude is exactly a float, so int(tok) == int(float(tok))
_EXACT_INT = 2 ** 53
# a stream's watts memo takes new texts only while it holds fewer than this
WATTS_MEMO_TEXTS = 4096


def power_trace_blocks(
    stream: TextIO, channel: str, on_watts: float
) -> Iterator[tuple[list[str], list[int]]]:
    """Yield the samples of a power-trace stream as ``(stamps, on)`` lists:
    the block's stamps as decimal texts, and the indices into them of the
    samples whose watts exceed ``on_watts``.

    Concatenated and each read with `int`, the stamps are those
    `iter_power_trace` yields for the same stream, and a bad line raises the
    TraceParseError it raises.  The stream is read in `line_blocks`.  No
    yielded stamps list is empty.  A bad ``on_watts`` raises ValueError as
    iteration starts, before any line is read.
    """
    check_param("on_watts", on_watts)
    # not on_watts.__lt__: for an int threshold it returns NotImplemented, which is truthy
    is_on = partial(lt, on_watts)
    # {watts text: on flag} for texts proven finite and >= 0, and `off`, its
    # texts flagged False; a channel repeats few watts texts, so most blocks
    # are thresholded by lookups alone, and all-standby ones by one set test
    known: dict[str, bool] = {}
    off: set[str] = set()
    first_line = 1  # the number of the block's first line
    last_ts: int | None = None
    for text in line_blocks(stream):
        if not text.endswith("\n"):  # a last line with no line end
            text += "\n"
        block = _plain_block(text, last_ts, is_on, known, off)
        if block is None:
            samples = list(
                iter_power_trace(text.split("\n"), channel, first_line, last_ts)
            )
            block = (
                list(map(str, map(itemgetter(0), samples))),
                list(compress(count(), map(is_on, map(itemgetter(1), samples)))),
            )
            first_line += text.count("\n")
        else:  # a plain block has one stamp a line
            first_line += len(block[0])
        if block[0]:
            last_ts = int(block[0][-1])
            yield block


def _plain_block(
    text: str, last_ts: int | None, is_on: Callable[[float], bool],
    known: dict[str, bool], off: set[str],
) -> tuple[list[str], list[int]] | None:
    """The stamp texts and on-sample indices of ``text`` if each of its
    lines is a plain, valid ``<stamp> <watts>`` line and the first follows
    ``last_ts``, else None.

    Builtins check the whole block at once: one space and only number
    characters on each line, checked on the block's UTF-8 bytes (no other
    character encodes to a number character's byte), and two tokens a line.
    The stamps must be ASCII digit texts of one width, which sort as their
    numbers do, so they are checked as texts to strictly increase; only the
    first and the last are read with `int`, to follow ``last_ts`` and to
    stay below 2**53, where a float holds them exactly.  Stamps of mixed
    widths, a sign, a fraction, an exponent or a stamp of 2**53 or more
    leave the block to `iter_power_trace`.

    A block of watts texts all in ``off``, the texts ``known`` flags False,
    has no on-sample; other texts are looked up in ``known``.  On a miss,
    only the texts ``known`` lacks are parsed and checked to be finite and
    >= 0: each distinct one once, or, when it lacks them all, each in line
    order.  If the block is accepted, they go into ``known``, and the off
    ones into ``off``, in the order first seen, while ``known`` holds fewer
    than `WATTS_MEMO_TEXTS`.  So ``known`` holds only texts proven finite
    and >= 0, its size is bounded whatever the trace, and a miss costs work
    in proportion to the block, not to ``known``.
    """
    shape = text.encode("utf-8", "surrogatepass").translate(None, _NUMBER_BYTES)
    lines = len(shape) // 2
    if shape != b" \n" * lines:
        return None
    tokens = text.split()
    if len(tokens) != 2 * lines:  # a line with an empty field
        return None
    stamps = tokens[::2]
    joined = " ".join(stamps)
    width = len(stamps[0])
    if not (
        # each stamp is `width` digits, so text order is number order
        len(joined) == lines * (width + 1) - 1
        and joined[width::width + 1] == " " * (lines - 1)
        and "." not in joined and "e" not in joined and "E" not in joined
        and "+" not in joined and "-" not in joined
        and all(map(lt, stamps, islice(stamps, 1, None)))
        and (last_ts is None or last_ts < int(stamps[0]))
        and int(stamps[-1]) < _EXACT_INT
    ):
        return None
    texts = tokens[1::2]
    if off.issuperset(texts):
        return stamps, []
    try:
        return stamps, list(compress(count(), map(known.__getitem__, texts)))
    except KeyError:
        pass
    new = list(filterfalse(known.__contains__, texts))
    if len(new) < len(texts):
        new = list(dict.fromkeys(new))
    try:
        watts = list(map(float, new))
    except ValueError:
        return None
    if not (min(watts) >= 0 and math.isfinite(sum(watts))):
        return None
    flags = list(map(is_on, watts))
    room = WATTS_MEMO_TEXTS - len(known)
    if room > 0:
        known.update(islice(zip(new, flags), room))
        off.update(compress(islice(new, room), map(not_, flags)))
    if len(new) == len(texts):  # no text was known: the flags are in line order
        return stamps, list(compress(count(), flags))
    if room >= len(new):  # every text is now known
        return stamps, list(compress(count(), map(known.__getitem__, texts)))
    fresh = dict(zip(new, flags))
    return stamps, list(compress(count(), map(fresh.get, texts, map(known.get, texts))))


def trace_occurrences(
    blocks: Iterable[tuple[list[str], list[int]]],
    defn: ComplexActivityDefinition,
    gap_tolerance: int,
) -> list[OccurrenceRecord]:
    """One record per on-run of a trace, given as `power_trace_blocks` yields it.

    Gives the records of ``segment_occurrences(binarize(...))`` at the
    blocks' ``on_watts``.  Builtins pick out the steps between the indices
    of each block's on-samples that skip more than ``gap_tolerance`` off
    samples; each such step ends one run and starts the next, and Python
    code runs only there.  Trailing off samples never extend a run.  From
    block to block only the open run's bounds are kept, and a stamp text
    is read with `int` only where it bounds a run.  Like
    ``segment_occurrences``, each record carries the full id sets of
    ``defn``, the activity the channel maps to.
    """
    check_param("gap_tolerance", gap_tolerance)
    ends_run = partial(lt, gap_tolerance + 1)  # applied to an index step
    runs: list[tuple[str, str]] = []
    start = end = ""
    last: int | None = None  # index of the open run's last on-sample in this block
    for stamps, on in blocks:
        if on:
            if last is None or ends_run(on[0] - last):
                if last is not None:
                    runs.append((start, end))
                start = stamps[on[0]]
            for k in compress(count(1), map(ends_run, map(sub, islice(on, 1, None), on))):
                runs.append((start, stamps[on[k - 1]]))
                start = stamps[on[k]]
            last = on[-1]
            end = stamps[last]
        if last is not None:
            last -= len(stamps)
    if last is not None:
        runs.append((start, end))
    return [
        OccurrenceRecord(
            activity=defn.name,
            start=int(start),
            end=int(end),
            observed_atomics=defn.atomic_ids,
            satisfied_contexts=defn.context_ids,
            source=Source.POWER_TRACE,
        )
        for start, end in runs
    ]


# The three-step path below builds every sample, a states list and a points
# tuple.  No stage runs it; tests hold `trace_occurrences` to its records.

def parse_power_trace(stream: TextIO, channel: str) -> list[SensorSample]:
    """All samples of a power-trace stream, as parsed by `iter_power_trace`."""
    return [
        SensorSample(timestamp=ts, channel=channel, value=value)
        for ts, value in iter_power_trace(stream, channel)
    ]


def binarize(
    samples: list[SensorSample], on_watts: float, gap_tolerance: int
) -> BinarySeries:
    """Threshold samples into on/off states and bridge short dropouts.

    A sample is on when its value exceeds ``on_watts``.  Off-runs of at most
    ``gap_tolerance`` samples flanked by on-states on both sides are promoted
    to on, so brief sensor dropouts do not split one activity in two.
    """
    check_param("on_watts", on_watts)
    check_param("gap_tolerance", gap_tolerance)
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
    defs: dict[str, ComplexActivityDefinition],
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

ADL_LOG_FIELDS = ["start_iso8601", "end_iso8601", "activity"]

# the sort key of an occurrence timeline: start, then activity
_START = itemgetter(1)
_START_ACTIVITY = itemgetter(1, 0)
_TZINFO = attrgetter("tzinfo")


def parse_adl_log(
    stream: TextIO, defs: dict[str, ComplexActivityDefinition]
) -> list[OccurrenceRecord]:
    """Parse an annotation CSV into records sorted by start time.

    Every activity label must name a definition in ``defs``.  Annotation rows
    carry no sub-action evidence, so records get the definition's full id
    sets (partial observations are constructed in-process, not on the wire).
    The log is written by hand, so `read_csv_blocks` strips the edge spaces
    of its header fields and skips lines of spaces, and the conversion strips
    those of each field.  A bad row raises AnnotationParseError naming its
    line.
    """
    atomics = FieldLookup(
        {name: d.atomic_ids for name, d in defs.items()},
        "unknown activity label",
    )
    contexts = {name: d.context_ids for name, d in defs.items()}

    def columns(
        starts: Sequence[str], ends: Sequence[str], labels: Sequence[str]
    ) -> list[OccurrenceRecord]:
        start_ts, end_ts = _stamps(starts), _stamps(ends)
        activities = list(map(str.strip, labels))
        atomic_ids = list(map(atomics.__getitem__, activities))
        for i in compress(count(), map(lt, end_ts, start_ts)):
            raise ValueError(
                f"end {ends[i].strip()!r} before start {starts[i].strip()!r}"
            )
        return named_rows(
            OccurrenceRecord, activities, start_ts, end_ts, atomic_ids,
            map(contexts.__getitem__, activities), repeat(Source.ANNOTATION),
        )

    try:
        records = read_csv_blocks(stream, ADL_LOG_FIELDS, columns, padded=True)
    except ValueError as exc:
        raise AnnotationParseError(str(exc)) from None
    starts = list(map(_START, records))
    if not all(map(lt, starts, islice(starts, 1, None))):
        records.sort(key=_START_ACTIVITY)
    return records


def _stamps(texts: Sequence[str]) -> list[int]:
    """Each of ``texts`` as an ISO 8601 time in whole seconds since the
    epoch; a time with no offset is UTC.

    Each text goes through the same chain of builtins.  A text that does not
    parse raises ValueError naming the first text, which is that text when
    `read_csv_blocks` passes a rejected block back a row at a time.
    """
    try:
        # 3.10's fromisoformat reads no 'Z'
        times = list(map(datetime.fromisoformat, map(
            str.replace, map(str.strip, texts), repeat("Z"), repeat("+00:00")
        )))
    except ValueError:
        raise ValueError(f"unparseable timestamp {texts[0]!r}") from None
    if not all(map(_TZINFO, times)):
        times = [t if t.tzinfo else t.replace(tzinfo=timezone.utc) for t in times]
    return list(map(int, map(datetime.timestamp, times)))


# ---------------------------------------------------------------------------
# Occurrence CSV (pipeline intermediate)
# ---------------------------------------------------------------------------

OCCURRENCE_FIELDS = list(OccurrenceRecord._fields)


def _ids_to_field(ids: frozenset[int]) -> str:
    return ";".join(str(i) for i in sorted(ids))


def _field_to_ids(field_text: str) -> frozenset[int]:
    if not field_text:
        return frozenset()
    return frozenset(int(p) for p in field_text.split(";"))


def write_occurrences(
    records: Iterable[OccurrenceRecord], stream: TextIO, heads: Iterable[str] | None = None
) -> None:
    def tail(fields: tuple[frozenset[int], frozenset[int], Source]) -> str:
        atomics, contexts, source = fields
        return f"{_ids_to_field(atomics)},{_ids_to_field(contexts)},{SOURCE_TEXT[source]}\n"

    # records share few distinct evidence sets, so each tail is formatted once
    write_timed_table(stream, OCCURRENCE_FIELDS, records, heads, tail, scored=False)


_parse_source = member_parser(Source, "source")
SOURCE_TEXT = {m: m.value for m in Source}


def read_occurrences(
    stream: TextIO, defs: dict[str, ComplexActivityDefinition] | None = None
) -> list[OccurrenceRecord]:
    """Parse an occurrence CSV as written by `write_occurrences`.

    Raises ValueError with the line number, as `read_csv_blocks` raises it,
    on a malformed start, end, id set or source, an end before its start,
    or, when ``defs`` is given, an activity it does not define or an atomic
    or context id that the activity's definition lacks.
    """
    def parse(key: tuple[str, str, str]) -> tuple[frozenset[int], frozenset[int]]:
        name, atomic_text, context_text = key
        ids = _field_to_ids(atomic_text), _field_to_ids(context_text)
        if defs is not None:
            defn = defs.get(name)
            if defn is None:
                raise ValueError(f"unknown activity {name!r}")
            for what, got, known in zip(
                ("atomic", "context"), ids, (defn.atomic_ids, defn.context_ids)
            ):
                unknown = sorted(got - known)
                if unknown:
                    raise ValueError(f"{name}: unknown {what} ids {unknown}")
        return ids

    # records repeat few distinct (activity, atomics, contexts) texts, so each
    # is parsed, and checked against defs, once
    evidence = Memo(parse)

    def columns(
        activity: Sequence[str], start: Sequence[str], end: Sequence[str],
        atomics: Sequence[str], contexts: Sequence[str], source: Sequence[str],
    ) -> list[OccurrenceRecord]:
        ids = list(map(evidence.__getitem__, zip(activity, atomics, contexts)))
        starts, ends = list(map(int, start)), list(map(int, end))
        rows = named_rows(
            OccurrenceRecord, activity, starts, ends,
            map(itemgetter(0), ids), map(itemgetter(1), ids), map(_parse_source, source),
        )
        check_order(starts, ends)
        return rows

    return read_csv_blocks(stream, OCCURRENCE_FIELDS, columns)


def merge_sorted(record_lists: Iterable[list[OccurrenceRecord]]) -> list[OccurrenceRecord]:
    """Merge per-file record lists, each ordered by (start, activity) as both
    parsers return them, into one deterministic timeline.

    A single list is already that timeline and is returned as it is.
    """
    lists = list(record_lists)
    if len(lists) == 1:
        return lists[0]
    merged = [r for records in lists for r in records]
    merged.sort(key=_START_ACTIVITY)
    return merged
