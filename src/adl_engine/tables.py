"""The CSV table format the stages pass to each other.

Tables, and the power traces `ingestion` reads, are read in blocks of whole
lines: `line_blocks` reads `TRACE_BLOCK_CHARS` characters at a time, cuts
them after the last line end and carries the rest to the next block.

Every CSV table the engine writes goes through `write_table`, which takes
each row as one line of text that its writer has already formatted with an
f-string: ints with ``str``, flags through `FLAG_TEXT`, enum members as
their value text from a ``{member: text}`` dict built once beside the
enum's `member_parser`, and scores with ``repr``.  Text that users name
(activities, labels, header fields) goes through `csv_field`, which asks the
csv module how it quotes a field and remembers the answer, so the bytes are
those ``csv.writer`` writes, without its per-field work on every row.
`write_table` joins the lines into chunks of `WRITE_LINES` and writes each
chunk at once.  The three occurrence tables (occurrences, verdicts,
annotations) are written by `write_timed_table`: each row is its
``activity,start,end,`` head, which `timed_heads` formats and `pipeline`
formats once for all three, then the text of its other fields, made once per
distinct value of those fields.

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
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import itemgetter, lt
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence, TextIO, TypeVar

T = TypeVar("T")
E = TypeVar("E", bound=Enum)


# Characters `line_blocks` reads at a time: about 650 lines of a 6 s trace or
# 270 rows of an occurrence table, so per-block Python work is a small share
# of a block's cost, while a block's lists peak near 0.4 MB.  Larger blocks are
# no faster, and at 1 << 16 an on-sample list that fills the block already adds
# 120 KB to that peak.
TRACE_BLOCK_CHARS = 1 << 14


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


class Memo(dict):
    """A dict that makes the value of a missing key as ``make(key)`` and keeps it.

    Its ``__getitem__`` runs in C for a key it holds, so
    ``map(memo.__getitem__, keys)`` looks a column up without a Python call
    per row and calls ``make`` once per distinct key.
    """

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], Any]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


def _quoted_field(text: str) -> str:
    """``text`` as a field of a CSV row, quoted only where the csv module quotes it.

    A field is quoted the same wherever it stands in a row of two or more
    fields, so the text between the delimiter and the line end of the row
    ``("", text)`` is the field.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(("", text))
    return buffer.getvalue()[1:-1]


# `_quoted_field` of a text, asked once per distinct text.  The texts are
# activity names and header fields, of which a process meets few, so the memo
# needs no bound.
csv_field: Callable[[str], str] = Memo(_quoted_field).__getitem__


# Lines `write_table` joins into one write, 40-60 KB of a stage table: on a
# 32,720-row verdict table about 3 ms less than a write a line, and no slower
# than 4,096-line chunks or one text for the whole table (CPython 3.11, 2 vCPUs).
WRITE_LINES = 1024


def write_table(stream: TextIO, header: list[str], lines: Iterable[str]) -> None:
    """Write a CSV table: the header row, then ``lines`` as they are.

    Each line is one row that its writer formatted, ending in LF, with user
    text through `csv_field`; the header's fields go through it here.  Lines
    are joined and written `WRITE_LINES` at a time, never all into one text.
    A row needs two fields or more: the csv module writes a lone empty field
    as ``""``.
    """
    stream.write(",".join(map(csv_field, header)) + "\n")
    lines = iter(lines)
    while chunk := "".join(islice(lines, WRITE_LINES)):
        stream.write(chunk)


_TAIL = itemgetter(slice(3, None))


def timed_heads(rows: Iterable[Sequence[Any]]) -> list[str]:
    """The ``activity,start,end,`` text that begins each row's line."""
    return [f"{csv_field(row[0])},{row[1]!s},{row[2]!s}," for row in rows]


def write_timed_table(
    stream: TextIO, header: list[str], rows: Iterable[Sequence[Any]],
    heads: Iterable[str] | None, tail: Callable[[tuple[Any, ...]], str], scored: bool,
) -> None:
    """Write a table whose rows begin with activity, start and end.

    Each line is the row's head, from ``heads`` (`timed_heads` of ``rows``)
    or formatted here when that is None, then ``tail`` of the tuple of the
    row's other fields, made once per distinct tuple.  With ``scored`` the
    first of those fields is a score, and a tail whose score is zero or not
    a float is made each time, because ``0.0 == -0.0`` and ``1 == 1.0``: a
    memo keyed by value would print one of each pair as the other.
    """
    tails = Memo(tail)
    if heads is not None:
        lines = (
            head + (tails[f] if not scored or f[0] and type(f[0]) is float else tail(f))
            for head, f in zip(heads, map(_TAIL, rows))
        )
    else:  # one text a row costs less than a head and a tail added
        lines = (
            f"{csv_field(row[0])},{row[1]!s},{row[2]!s},"
            f"{tails[f] if not scored or f[0] and type(f[0]) is float else tail(f)}"
            for row in rows for f in [row[3:]]
        )
    write_table(stream, header, lines)


# Rows of a table that needs quoting that `read_csv_blocks` gathers from
# csv.reader before converting them: about as many as a plain block holds,
# so such a table is read in bounded memory too.
CSV_BATCH_ROWS = 256


def read_csv_blocks(
    stream: TextIO,
    header: list[str],
    columns: Callable[..., list[T]],
    padded: bool = False,
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

    return _read_table(stream, accept, "expected {width} fields, got {got}", padded)


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
    rejected row raises ValueError prefixed with ``line N:``, the physical
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
            count(line + 1 + first // width),
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
                raise ValueError(f"line {reader.line_num}: {exc}") from None
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
                values += _convert(columns, list(zip(*rows)), ends)
                rows, ends = [], []
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        problem = str(exc)
    if rows:
        values += _convert(columns, list(zip(*rows)), ends)
    if problem:
        raise ValueError(f"line {line + reader.line_num}: {problem}")
    return values


def _convert(
    columns: Callable[..., list[T]],
    fields: list[Sequence[str]],
    lines: Iterable[int],
) -> list[T]:
    """``columns(*fields)``; when it raises, the first row that it rejects on
    its own raises ValueError naming that row's line from ``lines``."""
    try:
        return columns(*fields)
    except ValueError:
        for lineno, row in zip(lines, zip(*fields)):
            try:
                columns(*zip(row))  # one column of one text a field
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
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


def parse_scores(texts: Iterable[str]) -> list[float]:
    """The floats of a score column; a score that is not a number in [0, 1]
    raises ValueError."""
    scores = list(map(float, texts))
    # min and max can step over a nan, but a nan makes the sum nan
    if scores and not (0.0 <= min(scores) and max(scores) <= 1.0 and sum(scores) >= 0.0):
        bad = next(s for s in scores if not 0.0 <= s <= 1.0)
        raise ValueError(f"score must be in [0, 1], got {bad!r}")
    return scores


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


# the table text of a boolean field, as `parse_flag` reads it back
FLAG_TEXT = {True: "true", False: "false"}


def member_parser(enum: type[E], what: str) -> Callable[[str], E]:
    """A table-field parser from a member's value text to the member; any
    other text raises ValueError naming ``what``."""
    return FieldLookup({m.value: m for m in enum}, f"unknown {what}").__getitem__

