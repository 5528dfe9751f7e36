"""Ingestion of appliance power traces and activity annotation logs.

Two input wire formats are supported:

* power trace: whitespace-separated text, two columns ``unix_timestamp watts``,
  one sample per line (per-appliance channel files);
* annotation log: CSV with header ``start_iso8601,end_iso8601,activity``.

Both are read in blocks of whole lines: `line_blocks` reads
`TRACE_BLOCK_CHARS` characters at a time, cuts them after the last line end
and carries the rest to the next block.

A power trace becomes occurrence records a block at a time.
`power_trace_blocks` splits each block once and checks it whole with
builtins that run in C; a block with any line that is not plain
``<stamp> <watts>`` text goes through the per-line parser `iter_power_trace`
instead, which gives the same values or raises the same error.
`trace_occurrences` thresholds each block against ``on_watts`` and finds
where runs end from the index steps between on-samples, bridging dropouts of
at most ``gap_tolerance`` samples; it keeps only the open run's bounds, so
memory does not grow with trace length.  The three-step path
`parse_power_trace` -> `binarize` -> `segment_occurrences`, which
materializes every sample and state, is kept as the reference the tests
check that pass against.  An `OccurrenceRecord` is a named tuple, one per
occurrence.  Parsers are pure per-stream and raise with the offending line
number.

Every CSV table the engine writes goes through `write_table`, which takes
each row as one line of text that its writer has already formatted with an
f-string: ints with ``str``, scores with ``repr``, flags with `format_flag`,
enum members as their value text from a ``{member: text}`` dict built once
beside the enum's `member_parser`.  Text that users name (activities, labels,
header fields) goes through `csv_field`, which asks the csv module how it
quotes a field and remembers the answer, so the bytes are those
``csv.writer`` writes, without its per-field work on every row.  The
stage tables read back go through `read_table`, which wants the exact header,
the header's field count on every row, ``true``/``false`` flags, and enum
fields that name a member.

The stage tables and the annotation log are read by `read_csv_blocks`.  A
block is plain when csv.reader would read each line as the line split at its
commas: no quote, carriage return or NUL, the header's number of fields on
every line, and no field as long as the csv field size limit.  A plain block
is split once, and each reader converts it a column at a time with builtins
(``int``, ``float``, dict lookups for flags, enum members and id sets,
``datetime.fromisoformat`` for stamps) and builds its named tuples with
`named_rows`.  When a column rejects a value, that block's rows go through
the reader's per-row parser, which raises the error it always raised at the
same line.  From a block that is not plain on (an activity name that needs
quotes, say), the rest of the stream goes through csv.reader and the
per-row parser, with the line numbers carried on.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache, partial
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, itemgetter, lt, sub
from typing import (
    Any, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence, TextIO, TypeVar,
)

from .definitions import ComplexActivityDefinition, DefinitionSet


T = TypeVar("T")
E = TypeVar("E", bound=Enum)


class TraceParseError(ValueError):
    """Malformed or non-monotonic power-trace input."""


class AnnotationParseError(ValueError):
    """Malformed annotation-log input."""


class Source(str, Enum):
    POWER_TRACE = "power-trace"
    ANNOTATION = "annotation"


@dataclass(frozen=True)
class SensorSample:
    """One appliance power reading (UTC seconds, watts >= 0).

    Built only by the reference path `parse_power_trace`; ingest reads
    ``(stamps, watts)`` blocks instead.
    """

    timestamp: int
    channel: str
    value: float


@dataclass(frozen=True)
class BinarySeries:
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


# Characters `line_blocks` reads at a time: about 650 lines of a 6 s trace or
# 270 rows of an occurrence table, so per-block Python work is a small share
# of a block's cost, while a block's lists peak near 0.4 MB.  Larger blocks are
# no faster, and at 1 << 16 an on-sample list that fills the block already adds
# 120 KB to that peak.
TRACE_BLOCK_CHARS = 1 << 14

# deleting these from a plain line ``<stamp> <watts>\n`` leaves `` \n``
_NUMBER_CHARS = str.maketrans("", "", "0123456789.+-eE")
# an int below this in magnitude is exactly a float, so int(tok) == int(float(tok))
_EXACT_INT = 2 ** 53


def line_blocks(stream: TextIO) -> Iterator[str]:
    """The text of ``stream`` in blocks of whole lines.

    Each read of `TRACE_BLOCK_CHARS` characters is cut after its last
    ``\n`` and the rest carried to the next block, so a line longer than a
    read is carried until its end arrives.  Lines end at ``\n``, as a text
    stream with default newline handling gives them.  Only the last block
    may lack a final line end; no block is empty.
    """
    tail = ""  # text read after the last line end
    while True:
        chunk = stream.read(TRACE_BLOCK_CHARS)
        if not chunk:
            if tail:
                yield tail
            return
        cut = chunk.rfind("\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk


def power_trace_blocks(
    stream: TextIO, channel: str
) -> Iterator[tuple[list[int], list[float]]]:
    """Yield the samples of a power-trace stream as ``(stamps, watts)`` lists.

    Concatenated, the lists hold the values `iter_power_trace` yields for the
    same stream, and a bad line raises the TraceParseError it raises.  The
    stream is read in `line_blocks`.  No yielded list is empty.
    """
    first_line = 1  # the number of the block's first line
    last_ts: int | None = None
    for text in line_blocks(stream):
        if not text.endswith("\n"):  # a last line with no line end
            text += "\n"
        lines = text.count("\n")
        block = _plain_block(text, lines, last_ts)
        if block is None:
            samples = list(
                iter_power_trace(text.split("\n"), channel, first_line, last_ts)
            )
            block = [ts for ts, _ in samples], [watts for _, watts in samples]
        first_line += lines
        if block[0]:
            last_ts = block[0][-1]
            yield block


def _plain_block(
    text: str, lines: int, last_ts: int | None
) -> tuple[list[int], list[float]] | None:
    """The samples of ``text`` if each of its ``lines`` is a plain, valid
    ``<stamp> <watts>`` line and the first follows ``last_ts``, else None.

    Builtins check the whole block at once: one space and only number
    characters on each line, two tokens a line, stamps that parse, are exact
    as floats and strictly increase, and watts that are finite and >= 0.
    """
    if text.translate(_NUMBER_CHARS) != " \n" * lines:
        return None
    tokens = text.split()
    if len(tokens) != 2 * lines:  # a line with an empty field
        return None
    try:
        try:
            stamps = list(map(int, tokens[::2]))
        except ValueError:  # a fraction or an exponent: truncate its float
            stamps = list(map(int, map(float, tokens[::2])))
        watts = list(map(float, tokens[1::2]))
    except (ValueError, OverflowError):
        return None
    if (
        (last_ts is None or last_ts < stamps[0])
        and all(map(lt, stamps, islice(stamps, 1, None)))
        and -_EXACT_INT < stamps[0] and stamps[-1] < _EXACT_INT
        and min(watts) >= 0 and math.isfinite(sum(watts))
    ):
        return stamps, watts
    return None


def _check_thresholds(on_watts: float, gap_tolerance: int) -> None:
    if on_watts <= 0:
        raise ValueError(f"on_watts must be > 0, got {on_watts}")
    if gap_tolerance < 0:
        raise ValueError(f"gap_tolerance must be >= 0, got {gap_tolerance}")


def trace_occurrences(
    blocks: Iterable[tuple[list[int], list[float]]],
    defn: ComplexActivityDefinition,
    on_watts: float,
    gap_tolerance: int,
) -> list[OccurrenceRecord]:
    """One record per on-run of a trace, given as `power_trace_blocks` yields it.

    Gives the records of ``segment_occurrences(binarize(...))``.  Builtins
    pick out each block's on-samples and the steps between their indices
    that skip more than ``gap_tolerance`` off samples; each such step ends
    one run and starts the next, and Python code runs only there.  Trailing
    off samples never extend a run.  From block to block only the open run's
    bounds are kept.  Like ``segment_occurrences``, each record carries the
    full id sets of ``defn``, the activity the channel maps to.
    """
    _check_thresholds(on_watts, gap_tolerance)
    # not on_watts.__lt__: for an int threshold it returns NotImplemented, which is truthy
    is_on = partial(lt, on_watts)
    ends_run = partial(lt, gap_tolerance + 1)  # applied to an index step
    runs: list[tuple[int, int]] = []
    start = end = 0
    last: int | None = None  # index of the open run's last on-sample in this block
    for stamps, watts in blocks:
        on = list(compress(range(len(stamps)), map(is_on, watts)))
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
            start=start,
            end=end,
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
    _check_thresholds(on_watts, gap_tolerance)
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


ADL_LOG_FIELDS = ["start_iso8601", "end_iso8601", "activity"]

# the sort key of an occurrence timeline: start, then activity
_START = itemgetter(1)
_START_ACTIVITY = itemgetter(1, 0)
_TZINFO = attrgetter("tzinfo")


def parse_adl_log(stream: TextIO, defs: DefinitionSet) -> list[OccurrenceRecord]:
    """Parse an annotation CSV into records sorted by start time.

    Every activity label must name a definition in ``defs``.  Annotation rows
    carry no sub-action evidence, so records get the definition's full id
    sets (partial observations are constructed in-process, not on the wire).
    Plain blocks go column by column (`read_csv_blocks`), the rest through
    the per-row parser `_read_annotation_rows`, with the same values and
    errors.
    """
    atomics = {name: d.atomic_ids for name, d in defs.definitions.items()}
    contexts = {name: d.context_ids for name, d in defs.definitions.items()}

    def columns(
        starts: Sequence[str], ends: Sequence[str], labels: Sequence[str]
    ) -> list[OccurrenceRecord] | None:
        start_ts, end_ts = _stamps(starts), _stamps(ends)
        if start_ts is None or end_ts is None or any(map(lt, end_ts, start_ts)):
            return None
        activities = list(map(str.strip, labels))
        return named_rows(
            OccurrenceRecord, activities, start_ts, end_ts,
            map(atomics.__getitem__, activities), map(contexts.__getitem__, activities),
            repeat(Source.ANNOTATION),
        )

    records = read_csv_blocks(
        stream, len(ADL_LOG_FIELDS), _is_adl_log_header, columns,
        partial(_read_annotation_rows, defs=defs),
    )
    starts = list(map(_START, records))
    if not all(map(lt, starts, islice(starts, 1, None))):
        records.sort(key=_START_ACTIVITY)
    return records


def _is_adl_log_header(row: list[str]) -> bool:
    return [h.strip() for h in row] == ADL_LOG_FIELDS


def _stamps(texts: Iterable[str]) -> list[int] | None:
    """``texts`` as `_parse_iso8601` reads them, or None if one has no offset.

    Each text goes through the same chain of builtins; a text that does not
    parse raises its ValueError.
    """
    times = list(map(datetime.fromisoformat, map(
        str.replace, map(str.strip, texts), repeat("Z"), repeat("+00:00")
    )))
    if not all(map(_TZINFO, times)):
        return None
    return list(map(int, map(datetime.timestamp, times)))


def _read_annotation_rows(
    reader: Any, records: list[OccurrenceRecord], line: int, defs: DefinitionSet
) -> None:
    """The per-row annotation parser: append a record per row of ``reader``.

    ``reader`` is a csv.reader whose first line follows line ``line``; at
    line 0 its first row is the header.
    """
    try:
        rows_before = line
        if not line:
            header = next(reader, None)
            if header is None:
                return
            if not _is_adl_log_header(header):
                raise AnnotationParseError(
                    f"line 1: expected header {','.join(ADL_LOG_FIELDS)!r}, "
                    f"got {','.join(header)!r}"
                )
            rows_before = 1
        for lineno, row in enumerate(reader, start=rows_before + 1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise AnnotationParseError(
                    f"line {lineno}: expected 3 fields, got {len(row)}"
                )
            start = _parse_iso8601(row[0], lineno)
            end = _parse_iso8601(row[1], lineno)
            activity = row[2].strip()
            if activity not in defs:
                raise AnnotationParseError(
                    f"line {lineno}: unknown activity label {activity!r}"
                )
            if end < start:
                raise AnnotationParseError(
                    f"line {lineno}: end {row[1].strip()!r} before start "
                    f"{row[0].strip()!r}"
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
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise AnnotationParseError(f"line {line + reader.line_num}: {exc}") from None


# ---------------------------------------------------------------------------
# Stage tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def csv_field(text: str) -> str:
    """``text`` as a field of a CSV row, quoted only where the csv module quotes it.

    A field is quoted the same wherever it stands in a row of two or more
    fields, so the text between the delimiter and the line end of the row
    ``("", text)`` is the field.  Tables repeat few distinct names, so each
    is asked once; the memo is bounded for a process that writes many tables.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(("", text))
    return buffer.getvalue()[1:-1]


def write_table(stream: TextIO, header: list[str], lines: Iterable[str]) -> None:
    """Write a CSV table: the header row, then ``lines`` as they are.

    Each line is one row that its writer formatted, ending in LF, with user
    text through `csv_field`; the header's fields go through it here.  Lines
    are streamed, never joined into one text.  A row needs two fields or
    more: the csv module writes a lone empty field as ``""``.
    """
    stream.write(",".join(map(csv_field, header)) + "\n")
    stream.writelines(lines)


def read_csv_blocks(
    stream: TextIO,
    width: int,
    is_header: Callable[[list[str]], bool],
    columns: Callable[..., list[T] | None],
    read_rows: Callable[[Any, list[T], int], None],
) -> list[T]:
    """The values of a CSV stream of ``width`` fields a row, a block at a time.

    The stream is read in `line_blocks`.  A block is plain when csv.reader
    would read each of its lines as the line split at its commas
    (`_plain_fields`).  The fields of a plain block go to ``columns``, one
    sequence a field, and the values it gives are appended; the header row,
    which ``is_header`` must accept, is left out of the first block.  When
    ``columns`` returns None or raises ValueError, KeyError or OverflowError,
    that block goes through ``read_rows`` instead.  From the first block that
    is not plain, or from the start if the header is refused, the rest of the
    stream goes through ``read_rows`` as one csv.reader.
    ``read_rows(reader, values, line)`` is the per-row parser: it appends the
    values of the rows of ``reader``, a csv.reader whose first line follows
    line ``line``, and reads a header only at line 0.
    """
    values: list[T] = []
    line = 0  # lines before the block
    blocks = line_blocks(stream)
    for text in blocks:
        fields = _plain_fields(text, width)
        if fields is None or not (line or is_header(fields[:width])):
            break
        first = 0 if line else width  # the header row is left out
        try:
            got = columns(*[fields[i::width] for i in range(first, first + width)])
        except (ValueError, KeyError, OverflowError):
            got = None
        if got is None:
            read_rows(csv.reader(io.StringIO(text)), values, line)
        else:
            values += got
        line += len(fields) // width
    else:
        return values
    rest = chain.from_iterable(map(io.StringIO, chain((text,), blocks)))
    read_rows(csv.reader(rest), values, line)
    return values


# deleting these from the UTF-8 bytes of a plain row leaves its commas and
# line end; a quote, carriage return or NUL is left too, and spoils the match
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b',\n"\r\0')))


def _plain_fields(text: str, width: int) -> list[str] | None:
    """The fields of ``text``, row after row, if each of its lines is a plain
    row of ``width`` fields, else None.

    A plain row is one that csv.reader reads as the line split at its commas:
    it has ``width - 1`` commas and no quote, carriage return or NUL, and no
    field as long as the csv field size limit, which a shorter text cannot
    hold.  ``width`` is 2 or more, so a blank line is never plain.
    """
    if not text.endswith("\n"):  # a last line with no line end
        text += "\n"
    if len(text) >= csv.field_size_limit() or (
        text.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
        != (b"," * (width - 1) + b"\n") * text.count("\n")
    ):
        return None
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # the empty text after the last line end
    return fields


def named_rows(cls: type[T], *columns: Iterable[Any]) -> list[T]:
    """One ``cls`` named tuple per position of ``columns``, the fields in order.

    ``tuple.__new__`` builds each from one `zip` tuple, in C, without the
    Python-level ``__new__`` a named tuple's constructor runs.
    """
    return list(map(tuple.__new__, repeat(cls), zip(*columns)))


def read_table(
    stream: TextIO,
    header: list[str],
    parse: Callable[[list[str]], T],
    columns: Callable[..., list[T] | None] | None = None,
) -> list[T]:
    """``parse(row)`` for each row of a table written by `write_table`.

    An empty stream gives ``[]`` and blank lines are skipped.  The first row
    must equal ``header`` and every other row must have ``len(header)``
    fields.  A violation, a row the csv module cannot read, or a ValueError
    from ``parse`` raises ValueError prefixed with ``line N:``.  Plain blocks
    go through ``columns`` (`read_csv_blocks`), a column-wise ``parse`` that
    gives the same values and returns None or raises where ``parse`` raises;
    without it, ``parse`` reads each of their rows.
    """
    if columns is None:

        def columns(*fields: Sequence[str]) -> list[T]:
            return list(map(parse, map(list, zip(*fields))))

    return read_csv_blocks(
        stream, len(header), header.__eq__, columns,
        partial(_read_table_rows, header=header, parse=parse),
    )


def _read_table_rows(
    reader: Any, values: list[T], line: int,
    header: list[str], parse: Callable[[list[str]], T],
) -> None:
    """The per-row table parser: append ``parse(row)`` per row of ``reader``.

    ``reader`` is a csv.reader whose first line follows line ``line``; at
    line 0 its first row is the header.
    """
    width = len(header)
    try:
        if not line:
            first = next(reader, None)
            if first is None:
                return
            if first != header:
                raise ValueError(
                    f"expected header {','.join(header)!r}, got {','.join(first)!r}"
                )
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            values.append(parse(row))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {line + reader.line_num}: {exc}") from None


# the values `parse_flag` reads, for a column of flags
FLAGS = {"true": True, "false": False}


def parse_flag(text: str) -> bool:
    """A boolean table field: ``true`` or ``false``, nothing else."""
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {text!r}")


def check_activity(activity: str, activities: Collection[str] | None) -> None:
    """Raise ValueError when ``activities`` is given and lacks ``activity``."""
    if activities is not None and activity not in activities:
        raise ValueError(f"unknown activity {activity!r}")


def format_flag(flag: bool) -> str:
    """The table text of a boolean field, as `parse_flag` reads it back."""
    return "true" if flag else "false"


def member_parser(enum: type[E], what: str) -> Callable[[str], E]:
    """A table-field parser from a member's value text to the member.

    The members are looked up in one dict built here, so a row costs no
    ``enum(text)`` call; any other text raises ValueError naming ``what``.
    """
    members = {m.value: m for m in enum}

    def parse(text: str) -> E:
        member = members.get(text)
        if member is None:
            raise ValueError(f"unknown {what} {text!r}")
        return member

    return parse


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
    # records share few distinct id sets, so each is formatted once
    fields: dict[frozenset[int], str] = {}

    def field_of(ids: frozenset[int]) -> str:
        text = fields.get(ids)
        if text is None:
            text = fields[ids] = _ids_to_field(ids)
        return text

    write_table(stream, OCCURRENCE_FIELDS, (
        f"{csv_field(r.activity)},{r.start!s},{r.end!s},"
        f"{field_of(r.observed_atomics)},{field_of(r.satisfied_contexts)},"
        f"{SOURCE_TEXT[r.source]}\n"
        for r in records
    ))


_parse_source = member_parser(Source, "source")
SOURCE_TEXT = {m: m.value for m in Source}
_SOURCES = {m.value: m for m in Source}


def read_occurrences(
    stream: TextIO, defs: DefinitionSet | None = None
) -> list[OccurrenceRecord]:
    """Parse an occurrence CSV as written by `write_occurrences`.

    Raises ValueError with the line number as `read_table` does, and on a
    malformed start, end, id set or source, or, when ``defs`` is given, on
    an activity it does not define or an atomic or context id that the
    activity's definition lacks.
    """
    # records repeat few distinct (activity, atomics, contexts) texts, so each
    # is parsed, and checked against defs, once
    evidence: dict[tuple[str, str, str], tuple[frozenset[int], frozenset[int]]] = {}

    def ids_of(key: tuple[str, str, str]) -> tuple[frozenset[int], frozenset[int]]:
        ids = evidence.get(key)
        if ids is None:
            activity, atomics, contexts = key
            ids = _field_to_ids(atomics), _field_to_ids(contexts)
            if defs is not None:
                check_activity(activity, defs.definitions)
                defn = defs[activity]
                for what, got, known in zip(
                    ("atomic", "context"), ids, (defn.atomic_ids, defn.context_ids)
                ):
                    unknown = sorted(got - known)
                    if unknown:
                        raise ValueError(f"{activity}: unknown {what} ids {unknown}")
            evidence[key] = ids
        return ids

    def parse(row: list[str]) -> OccurrenceRecord:
        activity, start, end, atomics, contexts, source = row
        observed, satisfied = ids_of((activity, atomics, contexts))
        return OccurrenceRecord(
            activity, int(start), int(end), observed, satisfied, _parse_source(source),
        )

    def columns(
        activity: Sequence[str], start: Sequence[str], end: Sequence[str],
        atomics: Sequence[str], contexts: Sequence[str], source: Sequence[str],
    ) -> list[OccurrenceRecord]:
        keys = list(zip(activity, atomics, contexts))
        for key in set(keys).difference(evidence):
            ids_of(key)
        ids = list(map(evidence.__getitem__, keys))
        return named_rows(
            OccurrenceRecord, activity, map(int, start), map(int, end),
            map(itemgetter(0), ids), map(itemgetter(1), ids),
            map(_SOURCES.__getitem__, source),
        )

    return read_table(stream, OCCURRENCE_FIELDS, parse, columns)


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
