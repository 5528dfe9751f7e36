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
``csv.writer`` writes, without its per-field work on every row.

The stage tables and the annotation log are read by `read_csv_blocks`, which
wants the exact header and the header's field count on every row.  The
user-supplied ``--features`` and ``--predictions`` tables are read by
`read_csv_columns`, which takes the table's own header, finds the columns
its reader wants by name, in any order, and refuses a header that lacks a
required one or names a wanted one twice.  Both go through `_read_table`.
Each reader has one conversion, a function of the table's columns that
builds its values with builtins (``int``, ``float``, `FieldLookup` parsers
for flags, enum members and activities, dict lookups for id sets and
feature vectors, ``datetime.fromisoformat`` for stamps) and `named_rows`.
A block is plain when csv.reader would read each line as the line split at
its commas: no quote, carriage return or NUL, the header's number of fields
on every line, and no field as long as the csv field size limit.  A plain
block is split once and converted whole.  From a block that is not plain on
(an activity name that needs quotes, say), csv.reader reads the rest of the
stream and its rows are converted in batches.  A rejected block or batch is
converted again a row at a time, so the error names the first bad row and
the physical line where it ends.  The per-row parsers these readers replaced
are kept in the tests as the reference they are held to.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache, partial
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, itemgetter, lt, sub
from typing import (
    Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence, TextIO, TypeVar,
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
    The log is written by hand, so `read_csv_blocks` strips the edge spaces
    of its header fields and skips lines of spaces, and the conversion strips
    those of each field.  A bad row raises AnnotationParseError naming its
    line.
    """
    atomics = FieldLookup(
        {name: d.atomic_ids for name, d in defs.definitions.items()},
        "unknown activity label",
    )
    contexts = {name: d.context_ids for name, d in defs.definitions.items()}

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

    records = read_csv_blocks(
        stream, ADL_LOG_FIELDS, columns, padded=True, error=AnnotationParseError
    )
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


# Rows of a table that needs quoting that `read_csv_blocks` gathers from
# csv.reader before converting them: about as many as a plain block holds,
# so such a table is read in bounded memory too.
CSV_BATCH_ROWS = 256


def read_csv_blocks(
    stream: TextIO,
    header: list[str],
    columns: Callable[..., list[T]],
    padded: bool = False,
    error: type[ValueError] = ValueError,
) -> list[T]:
    """The values of a CSV stream under ``header``, converted by ``columns``.

    ``columns`` is a reader's one conversion: given the texts of some rows,
    one sequence a field, it returns one value a row or raises ValueError.
    The first row must equal ``header``, and every other row must have its
    number of fields (``expected N fields, got M``).  With ``padded``,
    header fields are compared with their edge spaces stripped, and a line
    of spaces is blank too.  The stream is read as `_read_table` reads it.
    """
    def accept(row: list[str]) -> Callable[..., list[T]]:
        if (list(map(str.strip, row)) if padded else row) != header:
            raise ValueError(
                f"expected header {','.join(header)!r}, got {','.join(row)!r}"
            )
        return columns

    return _read_table(
        stream, accept, "expected {width} fields, got {got}", padded, error
    )


def read_csv_columns(
    stream: TextIO,
    required: Sequence[str],
    optional: Sequence[str],
    columns: Callable[..., list[T]],
) -> list[T]:
    """The values of a CSV stream whose first row names its columns,
    converted by ``columns``.

    The columns may come in any order, and the table may hold columns it
    does not want.  ``columns`` gets the texts of the ``required`` columns,
    then those of the ``optional`` ones, as `read_csv_blocks` passes them;
    an absent optional column reads as empty texts.  A header that lacks a
    required column or names a wanted one twice, and a row with more or
    fewer fields than the header, raise ValueError prefixed with
    ``line N:``.  The stream is read as `_read_table` reads it.
    """
    wanted = [*required, *optional]

    def accept(row: list[str]) -> Callable[..., list[T]]:
        for name in wanted:
            if row.count(name) > 1:
                raise ValueError(f"column {name!r} named twice")
            if name in required and name not in row:
                raise ValueError(f"missing column {name!r}")
        where = [row.index(name) if name in row else None for name in wanted]

        def picked(*fields: Sequence[str]) -> list[T]:
            empty = [""] * len(fields[0])
            return columns(*[empty if i is None else fields[i] for i in where])

        return picked

    return _read_table(stream, accept, "{side} fields than the header")


def _read_table(
    stream: TextIO,
    accept: Callable[[list[str]], Callable[..., list[T]]],
    misfit: str,
    padded: bool = False,
    error: type[ValueError] = ValueError,
) -> list[T]:
    """The values of a CSV stream, converted by the conversion that
    ``accept`` returns for its first row.

    ``accept`` raises ValueError for a header it refuses.  The stream is
    read in `line_blocks`.  A block is plain when csv.reader would read each
    of its lines as the line split at its commas (`_plain_fields`), the
    first block's first line giving the number of fields; a plain block is
    split once and its fields go to the conversion, leaving out the header
    row of the first block.  From the first block that is not plain, or
    from the start if the header is not plain or is refused, the rest of the
    stream goes through csv.reader, and its rows go to the conversion
    `CSV_BATCH_ROWS` at a time.  When the conversion raises on a block or
    batch, its rows go to it again one at a time, and the first that raises
    ValueError gives the error.

    An empty stream gives ``[]`` and blank lines are skipped.  A refused
    header, a row without the header's number of fields (``misfit``
    formatted with its ``width``, the number it ``got``, and ``more`` or
    ``fewer`` as its ``side``), a row the csv module cannot read, or a
    rejected row raises ``error`` prefixed with ``line N:``, the physical
    line where the row ends, after the rows before it are converted.  With
    ``padded``, a line of spaces is blank too.
    """
    values: list[T] = []
    columns = None
    width = line = 0  # line: lines before the block
    blocks = line_blocks(stream)
    for text in blocks:
        first = 0  # fields of the block before its first row
        if columns is None:  # the first block: its first line is the header
            width = text.partition("\n")[0].count(",") + 1
            first = width
        fields = _plain_fields(text, width) if width > 1 else None
        if fields is None:
            break
        if columns is None:
            try:
                columns = accept(fields[:width])
            except ValueError:  # csv.reader reads the header again and raises
                break
        values += _convert(
            columns, [fields[i::width] for i in range(first, first + width)],
            count(line + 1 + first // width), error,
        )
        line += len(fields) // width
    else:
        return values
    reader = csv.reader(chain.from_iterable(map(io.StringIO, chain((text,), blocks))))
    rows: list[list[str]] = []
    ends: list[int] = []  # the line each of ``rows`` ends on
    problem = ""
    try:
        if columns is None:
            first_row = next(reader, None)
            if first_row is None:
                return values
            try:
                columns = accept(first_row)
            except ValueError as exc:
                raise error(f"line {reader.line_num}: {exc}") from None
            width = len(first_row)
        for row in reader:
            if not row or (padded and len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                problem = misfit.format(
                    width=width, got=len(row), side="more" if len(row) > width else "fewer"
                )
                break
            rows.append(row)
            ends.append(line + reader.line_num)
            if len(rows) == CSV_BATCH_ROWS:
                values += _convert(columns, list(zip(*rows)), ends, error)
                rows, ends = [], []
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        problem = str(exc)
    if rows:
        values += _convert(columns, list(zip(*rows)), ends, error)
    if problem:
        raise error(f"line {line + reader.line_num}: {problem}")
    return values


def _convert(
    columns: Callable[..., list[T]],
    fields: list[Sequence[str]],
    lines: Iterable[int],
    error: type[ValueError],
) -> list[T]:
    """``columns(*fields)``; when it raises, the first row that it rejects on
    its own raises ``error`` naming that row's line from ``lines``."""
    try:
        return columns(*fields)
    except ValueError:
        for lineno, row in zip(lines, zip(*fields)):
            try:
                columns(*zip(row))  # one column of one text a field
            except ValueError as exc:
                raise error(f"line {lineno}: {exc}") from None
        raise


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


def check_order(starts: list[int], ends: list[int]) -> None:
    """Raise ValueError at the first row whose end is before its start."""
    for i in compress(count(), map(lt, ends, starts)):
        raise ValueError(f"end {ends[i]} before start {starts[i]}")


class FieldLookup(dict):
    """A dict from field texts to values whose missing text raises
    ValueError: ``<complaint> <text>``.

    Its ``__getitem__`` is a field parser that runs in C, so a column
    converts with ``map(lookup.__getitem__, column)``.
    """

    __slots__ = ("complaint",)

    def __init__(self, values: dict[str, Any], complaint: str) -> None:
        super().__init__(values)
        self.complaint = complaint

    def __missing__(self, text: str) -> NoReturn:
        raise ValueError(f"{self.complaint} {text!r}")


# a boolean table field: ``true`` or ``false``, nothing else
parse_flag: Callable[[str], bool] = FieldLookup(
    {"true": True, "false": False}, "expected 'true' or 'false', got"
).__getitem__


def format_flag(flag: bool) -> str:
    """The table text of a boolean field, as `parse_flag` reads it back."""
    return "true" if flag else "false"


def member_parser(enum: type[E], what: str) -> Callable[[str], E]:
    """A table-field parser from a member's value text to the member; any
    other text raises ValueError naming ``what``."""
    return FieldLookup({m.value: m for m in enum}, f"unknown {what}").__getitem__


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


def read_occurrences(
    stream: TextIO, defs: DefinitionSet | None = None
) -> list[OccurrenceRecord]:
    """Parse an occurrence CSV as written by `write_occurrences`.

    Raises ValueError with the line number, as `read_csv_blocks` raises it,
    on a malformed start, end, id set or source, an end before its start,
    or, when ``defs`` is given, an activity it does not define or an atomic
    or context id that the activity's definition lacks.
    """
    # records repeat few distinct (activity, atomics, contexts) texts, so each
    # is parsed, and checked against defs, once
    evidence: dict[tuple[str, str, str], tuple[frozenset[int], frozenset[int]]] = {}

    def columns(
        activity: Sequence[str], start: Sequence[str], end: Sequence[str],
        atomics: Sequence[str], contexts: Sequence[str], source: Sequence[str],
    ) -> list[OccurrenceRecord]:
        keys = list(zip(activity, atomics, contexts))
        for key in set(keys).difference(evidence):
            name, atomic_text, context_text = key
            ids = _field_to_ids(atomic_text), _field_to_ids(context_text)
            if defs is not None:
                defn = defs.definitions.get(name)
                if defn is None:
                    raise ValueError(f"unknown activity {name!r}")
                for what, got, known in zip(
                    ("atomic", "context"), ids, (defn.atomic_ids, defn.context_ids)
                ):
                    unknown = sorted(got - known)
                    if unknown:
                        raise ValueError(f"{name}: unknown {what} ids {unknown}")
            evidence[key] = ids
        ids = list(map(evidence.__getitem__, keys))
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
