"""Per-occurrence affect inference and the emotion-to-experience mapping.

Each recognized occurrence is judged positive or negative from three signals:
whether the occurrence completed, whether the activity's most important
atomic (and its paired context) was present, and how the occurrence's weight
compares with the person's recent scores for the same activity.  A separate
learned table maps those emotions, per activity and time-of-day bucket, onto
a good/bad experience label.  `annotate` applies both in one pass over a
run's occurrences, giving one `AffectAnnotation` named tuple per occurrence.
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Collection, Iterable, Mapping, NamedTuple, Sequence, TextIO,
)

from .config import DEFAULTS, check_param
from .definitions import ComplexActivityDefinition
from .recognition import OccurrenceVerdict, ScoredOccurrence
from .tables import (
    FLAG_TEXT, FieldLookup, Memo, check_order, member_parser, named_rows, parse_flag,
    parse_scores, read_csv_blocks, write_timed_table,
)
from .temporal import minute_of_day

if TYPE_CHECKING:
    from .ingestion import OccurrenceRecord


class EmotionLabel(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class UXLabel(str, Enum):
    GOOD = "good"
    BAD = "bad"


parse_emotion = member_parser(EmotionLabel, "emotion")
parse_ux = member_parser(UXLabel, "ux")
EMOTION_TEXT = {m: m.value for m in EmotionLabel}
UX_TEXT = {m: m.value for m in UXLabel}


# ---------------------------------------------------------------------------
# Experience mapping
# ---------------------------------------------------------------------------

class UXModel(NamedTuple):
    """Majority-vote table from (emotion, activity, bucket) to a UX label."""

    table: Mapping[tuple[str, str, int], UXLabel] = MappingProxyType({})
    window: int = DEFAULTS.window
    epsilon: float = DEFAULTS.epsilon
    bucket_width: int = DEFAULTS.bucket_width


def train_ux_mapper(
    examples: list[tuple[EmotionLabel, str, int, UXLabel]],
    window: int = DEFAULTS.window,
    epsilon: float = DEFAULTS.epsilon,
    bucket_width: int = DEFAULTS.bucket_width,
) -> UXModel:
    """Learn the mapping by majority vote per key; ties resolve to good."""
    votes: dict[tuple[str, str, int], list[int]] = {}
    for emotion, activity, bucket, label in examples:
        key = (emotion.value, activity, bucket)
        counts = votes.setdefault(key, [0, 0])
        if label is UXLabel.GOOD:
            counts[0] += 1
        else:
            counts[1] += 1
    table = {
        key: (UXLabel.GOOD if good >= bad else UXLabel.BAD)
        for key, (good, bad) in votes.items()
    }
    return UXModel(table=table, window=window, epsilon=epsilon, bucket_width=bucket_width)


# ---------------------------------------------------------------------------
# Annotation pass
# ---------------------------------------------------------------------------

class AffectAnnotation(NamedTuple):
    """Emotion plus UX label attached to one scored occurrence."""

    activity: str
    start: int
    end: int
    score: float
    completed: bool
    emotion: EmotionLabel
    ux: UXLabel


def annotate(
    items: Iterable[tuple[
        ComplexActivityDefinition, OccurrenceRecord, OccurrenceVerdict | ScoredOccurrence
    ]],
    model: UXModel,
) -> list[AffectAnnotation]:
    """Label each occurrence positive or negative, then good or bad.

    ``items`` gives each occurrence's definition, record (its start, end and
    evidence) and verdict (its score and completion), in chronological
    order.  An occurrence is positive when it completed, its definition's
    most important atomic was observed and its paired context held, and its
    score is at least the mean of the activity's last ``window`` scores less
    ``epsilon`` (vacuous for its first).  Histories are kept per activity, so
    one activity's run of poor scores cannot sour another's.  UX is the
    model's learned label for the emotion, activity and end time's bucket,
    else the emotion's sign.  The model's parameters are checked once per
    call, and definitions are told apart by name.
    """
    window, epsilon, bucket_width = model.window, model.epsilon, model.bucket_width
    check_param("window", window)
    check_param("epsilon", epsilon)
    check_param("bucket_width", bucket_width)
    table = model.table
    # members held in locals: reading one off its enum class is a slow lookup
    positive, negative = EmotionLabel.POSITIVE, EmotionLabel.NEGATIVE
    good, bad = UXLabel.GOOD, UXLabel.BAD
    # each activity's last ``window`` scores: only those are ever read
    histories = Memo(lambda name: deque(maxlen=window))
    new = tuple.__new__
    annotations: list[AffectAnnotation] = []
    append = annotations.append
    for defn, (_, start, end, atomics, contexts, _), verdict in items:
        name = defn.name
        score, completed = verdict.score, verdict.completed
        atomic_id, context_id = defn.most_important_pair
        history = histories[name]
        emotion = positive
        if not (completed and atomic_id in atomics and context_id in contexts):
            emotion = negative
        elif history:
            # fmean's own arithmetic, without its per-call dispatch
            if score < math.fsum(history) / len(history) - epsilon:
                emotion = negative
        ux = good if emotion is positive else bad
        if table:
            learned = table.get(
                (EMOTION_TEXT[emotion], name, minute_of_day(end) // bucket_width)
            )
            if learned is not None:
                ux = learned
        append(new(AffectAnnotation, (name, start, end, score, completed, emotion, ux)))
        history.append(score)
    return annotations


ANNOTATED_FIELDS = list(AffectAnnotation._fields)


def write_annotated(
    rows: Iterable[AffectAnnotation], stream: TextIO, heads: Iterable[str] | None = None
) -> None:
    def tail(fields: tuple[float, bool, EmotionLabel, UXLabel]) -> str:
        score, completed, emotion, ux = fields
        return (f"{score!r},{FLAG_TEXT[completed]},{EMOTION_TEXT[emotion]},"
                f"{UX_TEXT[ux]}\n")

    write_timed_table(stream, ANNOTATED_FIELDS, rows, heads, tail, scored=True)


def read_annotated(
    stream: TextIO, activities: Collection[str] | None = None
) -> list[AffectAnnotation]:
    """Parse an annotated CSV; a malformed row, an end before its start, a
    score outside [0, 1] or, when ``activities`` is given, an activity not in
    them raises ValueError with its line number, as `read_csv_blocks` does."""
    known = None if activities is None else FieldLookup(
        {name: name for name in activities}, "unknown activity"
    )

    def columns(
        activity: Sequence[str], start: Sequence[str], end: Sequence[str],
        score: Sequence[str], completed: Sequence[str], emotion: Sequence[str],
        ux: Sequence[str],
    ) -> list[AffectAnnotation]:
        if known is not None:
            activity = list(map(known.__getitem__, activity))
        starts, ends = list(map(int, start)), list(map(int, end))
        rows = named_rows(
            AffectAnnotation, activity, starts, ends, parse_scores(score),
            map(parse_flag, completed), map(parse_emotion, emotion), map(parse_ux, ux),
        )
        check_order(starts, ends)
        return rows

    return read_csv_blocks(stream, ANNOTATED_FIELDS, columns)
