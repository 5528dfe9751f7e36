"""Weighted-threshold recognition of complex-activity occurrences.

An observation lists which atomic activities were seen and which context
attributes held.  Its occurrence weight blends the observed share of atomic
weight mass with the satisfied share of context weight mass; the occurrence
counts as completed when that weight reaches the definition's threshold.

A run's records repeat few distinct evidence sets, so `score_occurrences`
scores each set once and returns the verdict column: one reference per
record to the `OccurrenceVerdict` its evidence set shares, not one new row.
`write_verdicts` writes each row from its record and that column.  A
verdict-table row read back from a file is a `ScoredOccurrence`, which
carries the same ``score`` and ``completed`` fields, so it stands in the
column too.
"""

from __future__ import annotations

import math
from operator import add, itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, TextIO

from .config import DEFAULTS, check_param
from .definitions import ComplexActivityDefinition
from .tables import (
    FLAG_TEXT, Memo, csv_field, named_rows, parse_flag, parse_scores, read_csv_blocks,
    write_table,
)

if TYPE_CHECKING:
    from .ingestion import OccurrenceRecord


class Observation(NamedTuple):
    """Evidence for one candidate occurrence of a single definition."""

    activity: str
    observed_atomics: frozenset[int]
    satisfied_contexts: frozenset[int]


class OccurrenceVerdict(NamedTuple):
    """Recognition outcome: blended weight versus the definition threshold."""

    activity: str
    score: float
    threshold: float
    completed: bool


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def occurrence_weight(
    defn: ComplexActivityDefinition,
    observation: Observation | OccurrenceRecord,
    lam: float = DEFAULTS.lam,
) -> float:
    """Blend of observed atomic and satisfied context weight fractions.

    Each side is the fsum of the weights seen divided by the fsum of all the
    definition's weights on that side, so a full observation scores exactly
    1.0 even when the listed weights only sum to 1 within tolerance.  ``lam``
    is the atomic side's blend share, checked by `config.check_param`.
    """
    check_param("lam", lam)
    observed = observation.observed_atomics
    satisfied = observation.satisfied_contexts
    unknown = sorted(observed - defn.atomic_ids)
    if unknown:
        raise KeyError(f"{defn.name}: unknown atomic ids {unknown}")
    unknown = sorted(satisfied - defn.context_ids)
    if unknown:
        raise KeyError(f"{defn.name}: unknown context ids {unknown}")

    atomic_fraction = math.fsum(
        a.weight for a in defn.atomics if a.id in observed
    ) / defn.atomic_weight_total
    context_fraction = math.fsum(
        c.weight for c in defn.contexts if c.id in satisfied
    ) / defn.context_weight_total
    return lam * atomic_fraction + (1.0 - lam) * context_fraction


def detect_occurrence(
    defn: ComplexActivityDefinition,
    observation: Observation | OccurrenceRecord,
    lam: float = DEFAULTS.lam,
) -> OccurrenceVerdict:
    """Score an observation and compare against the threshold (inclusive)."""
    score = occurrence_weight(defn, observation, lam)
    return OccurrenceVerdict(
        activity=defn.name,
        score=score,
        threshold=defn.threshold,
        completed=score >= defn.threshold,
    )


# ---------------------------------------------------------------------------
# Verdict CSV
# ---------------------------------------------------------------------------

class ScoredOccurrence(NamedTuple):
    """A verdict-table row: a timed occurrence with its recognition score, as
    `read_verdicts` reads it back."""

    activity: str
    start: int
    end: int
    score: float
    completed: bool


VERDICT_FIELDS = list(ScoredOccurrence._fields)

# a record's evidence set: its activity, observed atomics and satisfied contexts
_EVIDENCE = itemgetter(0, 3, 4)


def score_occurrences(
    defs: dict[str, ComplexActivityDefinition], records: Iterable[OccurrenceRecord],
    lam: float = DEFAULTS.lam,
) -> list[OccurrenceVerdict]:
    """The verdict column: for each record, in order, the `OccurrenceVerdict`
    of its evidence set (activity, observed atomics, satisfied contexts).

    Records repeat few distinct evidence sets, so `detect_occurrence` scores
    each set once, when a record first shows it, and every record showing it
    shares that one verdict object: the first record naming an unknown
    activity or id raises its KeyError.
    """
    verdicts = Memo(
        lambda evidence: detect_occurrence(defs[evidence[0]], Observation(*evidence), lam)
    )
    return list(map(verdicts.__getitem__, map(_EVIDENCE, records)))


def write_verdicts(
    records: Sequence[OccurrenceRecord],
    verdicts: Sequence[OccurrenceVerdict | ScoredOccurrence],
    stream: TextIO, heads: Iterable[str] | None = None,
) -> None:
    """Write each record's activity, start and end with its verdict's score
    and completion; ``heads``, when given, is `tables.timed_heads` of the
    records.

    The ``score,completed`` text is made once per distinct verdict object,
    keyed by identity: ``0.0 == -0.0`` and ``1 == 1.0``, so a key by value
    would print one of each pair as the other.
    """
    tails = {
        key: f"{verdict.score!r},{FLAG_TEXT[verdict.completed]}\n"
        for key, verdict in dict(zip(map(id, verdicts), verdicts)).items()
    }
    tail_of = map(tails.__getitem__, map(id, verdicts))
    if heads is not None:
        lines: Iterable[str] = map(add, heads, tail_of)
    else:  # one text a row costs less than a head and a tail added
        lines = (
            f"{csv_field(record[0])},{record[1]!s},{record[2]!s},{tail}"
            for record, tail in zip(records, tail_of)
        )
    write_table(stream, VERDICT_FIELDS, lines)


def _verdict_columns(
    activity: Sequence[str], start: Sequence[str], end: Sequence[str],
    score: Sequence[str], completed: Sequence[str],
) -> list[ScoredOccurrence]:
    # fields convert in row order, so a row's first bad field gives its error
    return named_rows(
        ScoredOccurrence, activity, list(map(int, start)), list(map(int, end)),
        parse_scores(score), map(parse_flag, completed),
    )


def read_verdicts(stream: TextIO) -> list[ScoredOccurrence]:
    """Parse a verdict CSV; a malformed row or a score outside [0, 1] raises
    ValueError with its line number, as `read_csv_blocks` raises it."""
    return read_csv_blocks(stream, VERDICT_FIELDS, _verdict_columns)
