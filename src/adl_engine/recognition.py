"""Weighted-threshold recognition of complex-activity occurrences.

An observation lists which atomic activities were seen and which context
attributes held.  Its occurrence weight blends the observed share of atomic
weight mass with the satisfied share of context weight mass; the occurrence
counts as completed when that weight reaches the definition's threshold.

A verdict (`OccurrenceVerdict`) and a verdict-table row (`ScoredOccurrence`)
are named tuples, so building one per occurrence stays cheap.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, TextIO

from .config import DEFAULTS, check_param
from .definitions import ComplexActivityDefinition
from .tables import (
    FLAG_TEXT, Memo, named_rows, parse_flag, parse_scores, read_csv_blocks,
    write_timed_table,
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
    """A timed occurrence with its recognition score, as written to disk."""

    activity: str
    start: int
    end: int
    score: float
    completed: bool


VERDICT_FIELDS = list(ScoredOccurrence._fields)


def score_occurrences(
    defs: dict[str, ComplexActivityDefinition], records: Iterable[OccurrenceRecord],
    lam: float = DEFAULTS.lam,
) -> list[ScoredOccurrence]:
    """One `ScoredOccurrence` per record, in order, scored by `detect_occurrence`.

    Records repeat few distinct evidence sets (activity, observed atomics,
    satisfied contexts), so each set is scored once, when a record first
    shows it: the first record naming an unknown activity or id raises its
    KeyError.
    """
    verdicts = Memo(
        lambda evidence: detect_occurrence(defs[evidence[0]], Observation(*evidence), lam)
    )
    new = tuple.__new__
    rows: list[ScoredOccurrence] = []
    for activity, start, end, atomics, contexts, _ in records:
        verdict = verdicts[activity, atomics, contexts]
        rows.append(new(
            ScoredOccurrence, (activity, start, end, verdict.score, verdict.completed)
        ))
    return rows


def write_verdicts(
    rows: Iterable[ScoredOccurrence], stream: TextIO, heads: Iterable[str] | None = None
) -> None:
    def tail(fields: tuple[float, bool]) -> str:
        score, completed = fields
        return f"{score!r},{FLAG_TEXT[completed]}\n"

    write_timed_table(stream, VERDICT_FIELDS, rows, heads, tail, scored=True)


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
