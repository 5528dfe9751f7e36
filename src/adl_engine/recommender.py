"""Next-activity recommendation from routine, affect, and experience signals.

A multinomial naive-Bayes model with additive smoothing is trained on
consecutive-occurrence transitions.  Each transition's features are the
current occurrence's end-time bucket, its activity, its emotion and UX
labels, and whether the day is a weekday; the label is the next activity.
A prediction is a dict from every known activity to its confidence; the
recommendation is the argmax with lexicographic tie-break.

A `LabeledTransition` is a named tuple; transitions with equal features share
one `FeatureVector`, and training encodes each distinct (features, label)
pair once.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from enum import Enum
from itertools import islice, repeat
from operator import attrgetter, floordiv
from typing import Any, Iterable, NamedTuple, Sequence, TextIO

from .affect import AffectAnnotation, EmotionLabel, UXLabel
from .config import DEFAULTS, check_param
from .definitions import NO_PREVIOUS
from .tables import Memo, member_parser, named_rows
from .temporal import MINUTES_PER_DAY, is_weekday, minute_of_day

FEATURE_NAMES = ("time_bucket", "previous_activity", "emotion", "ux", "day_kind")


class DayKind(str, Enum):
    WEEKDAY = "weekday"
    WEEKEND = "weekend"


parse_day_kind = member_parser(DayKind, "day_kind")


# the day kind of an `is_weekday` flag
DAY_KIND = {True: DayKind.WEEKDAY, False: DayKind.WEEKEND}


class _Features(NamedTuple):
    time_bucket: int
    previous_activity: str | None
    emotion: EmotionLabel
    ux: UXLabel
    day_kind: DayKind


class FeatureVector(_Features):
    """Predictor signals for one transition; the time bucket must not be negative.

    The constructor, `_make` and `_replace` all check the bucket.
    """

    __slots__ = ()

    def __new__(
        cls, time_bucket: int, previous_activity: str | None, emotion: EmotionLabel,
        ux: UXLabel, day_kind: DayKind,
    ) -> FeatureVector:
        if time_bucket < 0:
            raise ValueError(f"time_bucket must be >= 0, got {time_bucket}")
        return tuple.__new__(cls, (time_bucket, previous_activity, emotion, ux, day_kind))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> FeatureVector:
        # the named tuple's own `_make`, which `_replace` calls, skips `__new__`
        return cls(*iterable)


class LabeledTransition(NamedTuple):
    features: FeatureVector
    next_activity: str


def _encode(features: FeatureVector) -> dict[str, str]:
    return {
        "time_bucket": str(features.time_bucket),
        "previous_activity": (
            features.previous_activity
            if features.previous_activity is not None
            else NO_PREVIOUS
        ),
        "emotion": features.emotion.value,
        "ux": features.ux.value,
        "day_kind": features.day_kind.value,
    }


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

class RecommenderModel(NamedTuple):
    """Smoothed frequency tables for the naive-Bayes posterior.

    ``feature_counts[f][c][v]`` counts transitions of class ``c`` whose
    encoded feature ``f`` had value ``v``; ``feature_domains[f]`` is the
    sorted set of values seen for ``f`` across all classes.  `prior` computes
    one class's smoothed prior.
    """

    activities: tuple[str, ...]
    alpha: float
    bucket_width: int
    n_transitions: int
    class_counts: dict[str, int]
    feature_domains: dict[str, tuple[str, ...]]
    feature_counts: dict[str, dict[str, dict[str, int]]]

    @property
    def time_buckets(self) -> int:
        """How many time buckets of ``bucket_width`` minutes a day holds."""
        return -(-MINUTES_PER_DAY // self.bucket_width)

    def prior(self, activity: str) -> float:
        count = self.class_counts[activity]
        denom = self.n_transitions + self.alpha * len(self.activities)
        return (count + self.alpha) / denom

    def to_json(self) -> str:
        payload = {
            "activities": list(self.activities),
            "alpha": self.alpha,
            "bucket_width": self.bucket_width,
            "n_transitions": self.n_transitions,
            "class_counts": self.class_counts,
            "feature_domains": {f: list(d) for f, d in self.feature_domains.items()},
            "feature_counts": self.feature_counts,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "RecommenderModel":
        """The model that `to_json` wrote as ``text``.

        Text that is not JSON, a document that is not an object, a missing
        key, a value that does not convert, an ``alpha`` or ``bucket_width``
        that `check_param` rejects, and a model that `train` could not have
        written raise ValueError.  In every model that `train` writes,
        ``activities`` are the sorted keys of ``class_counts``, whose counts
        sum to ``n_transitions`` in [1, 2**53]; ``feature_counts`` and
        ``feature_domains`` have the keys `FEATURE_NAMES`; and for each
        feature, the classes of nonzero count and no others have counts,
        each >= 1 and summing to the class count, and the domain is the
        sorted values those counts name.  No count then exceeds
        ``n_transitions``, and every prior and conditional is in (0, 1].
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        try:
            model = RecommenderModel(
                activities=tuple(payload["activities"]),
                alpha=float(payload["alpha"]),
                bucket_width=int(payload["bucket_width"]),
                n_transitions=int(payload["n_transitions"]),
                class_counts={k: int(v) for k, v in payload["class_counts"].items()},
                feature_domains={
                    f: tuple(d) for f, d in payload["feature_domains"].items()
                },
                feature_counts={
                    f: {c: {v: int(n) for v, n in values.items()}
                        for c, values in classes.items()}
                    for f, classes in payload["feature_counts"].items()
                },
            )
        except KeyError as exc:
            raise ValueError(f"model lacks key {exc}") from exc
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed model: {exc}") from exc
        check_param("alpha", model.alpha)
        check_param("bucket_width", model.bucket_width)
        n, counts = model.n_transitions, model.class_counts
        if model.activities != tuple(sorted(counts)):
            raise ValueError("model activities must be the sorted keys of class_counts")
        if not 1 <= n <= 2**53 or n != sum(counts.values()):
            raise ValueError("model n_transitions must be in [1, 2**53] "
                             "and the sum of class_counts")
        for key in ("feature_domains", "feature_counts"):
            if getattr(model, key).keys() != set(FEATURE_NAMES):
                raise ValueError(f"model {key} must name exactly {', '.join(FEATURE_NAMES)}")
        seen = {c for c, count in counts.items() if count}
        for f in FEATURE_NAMES:
            per_class = model.feature_counts[f]
            if per_class.keys() != seen:
                raise ValueError(f"model feature_counts[{f!r}] must name exactly "
                                 "the classes of nonzero count")
            for c, values in per_class.items():
                if min(values.values(), default=0) < 1 or sum(values.values()) != counts[c]:
                    raise ValueError(f"model feature_counts[{f!r}][{c!r}] must be "
                                     f"counts >= 1 that sum to class_counts[{c!r}]")
            if model.feature_domains[f] != tuple(sorted(set().union(*per_class.values()))):
                raise ValueError(f"model feature_domains[{f!r}] must be the sorted "
                                 f"values of feature_counts[{f!r}]")
        return model


# ---------------------------------------------------------------------------
# Training and prediction
# ---------------------------------------------------------------------------

_end_of, _activity_of, _emotion_of, _ux_of = map(
    attrgetter, ("end", "activity", "emotion", "ux")
)


def extract_transitions(
    annotated: Sequence[AffectAnnotation],
    bucket_width: int = DEFAULTS.bucket_width,
) -> list[LabeledTransition]:
    """Pair consecutive occurrences into labeled transitions.

    Features come from occurrence i (end-time bucket, its own activity as
    previous_activity, its emotion and UX, its end-day kind); the label is
    the activity of occurrence i+1.  n occurrences yield n-1 transitions.
    Transitions with equal features share one `FeatureVector`.
    """
    check_param("bucket_width", bucket_width)
    vectors = Memo(lambda key: FeatureVector(*key))
    # every occurrence but the last: zip stops when its first column ends
    heads = islice(annotated, max(len(annotated) - 1, 0))
    keys = zip(
        map(floordiv, map(minute_of_day, map(_end_of, heads)), repeat(bucket_width)),
        map(_activity_of, annotated), map(_emotion_of, annotated), map(_ux_of, annotated),
        map(DAY_KIND.__getitem__, map(is_weekday, map(_end_of, annotated))),
    )
    return named_rows(
        LabeledTransition, map(vectors.__getitem__, keys),
        map(_activity_of, islice(annotated, 1, None)),
    )


def train(
    transitions: Sequence[LabeledTransition],
    alpha: float = DEFAULTS.alpha,
    bucket_width: int = DEFAULTS.bucket_width,
    activities: Sequence[str] | None = None,
) -> RecommenderModel:
    """Count transition frequencies into a smoothed model.

    ``activities`` widens the class list beyond the labels present in the
    training data, so confidence vectors stay total over the whole activity
    set; omitted, the classes are exactly the labels seen.
    """
    if not transitions:
        raise ValueError("train needs at least one transition")
    check_param("alpha", alpha)
    check_param("bucket_width", bucket_width)

    # a transition is a (features, label) pair and few distinct pairs
    # repeat, so each distinct pair is encoded once
    pairs = Counter(transitions)
    class_counts: Counter[str] = Counter()
    feature_counts: dict[str, dict[str, dict[str, int]]] = {
        f: {} for f in FEATURE_NAMES
    }
    domains: dict[str, set[str]] = {f: set() for f in FEATURE_NAMES}
    for (features, label), n in pairs.items():
        class_counts[label] += n
        encoded = _encode(features)
        for f in FEATURE_NAMES:
            value = encoded[f]
            domains[f].add(value)
            per_class = feature_counts[f].setdefault(label, {})
            per_class[value] = per_class.get(value, 0) + n
    class_list = tuple(sorted(class_counts.keys() | set(activities or ())))

    return RecommenderModel(
        activities=class_list,
        alpha=alpha,
        bucket_width=bucket_width,
        n_transitions=len(transitions),
        class_counts={c: class_counts.get(c, 0) for c in class_list},
        feature_domains={f: tuple(sorted(domains[f])) for f in FEATURE_NAMES},
        feature_counts=feature_counts,
    )


def predict_confidences(
    model: RecommenderModel, features: FeatureVector
) -> dict[str, float]:
    """Posterior over activities: prior times per-feature conditionals.

    Each conditional is ``(count + alpha) / (class count + alpha * domain
    size)``, and the product runs in the order prior, then
    `FEATURE_NAMES`.  Values absent from a feature's training domain still
    contribute the smoothing mass alpha over the recorded domain size, so
    every activity keeps strictly positive confidence.  The result maps
    each activity, in sorted order, to its confidence; the values sum to 1.
    """
    encoded = _encode(features)
    alpha = model.alpha
    weights = {}
    for a in model.activities:
        weight = model.prior(a)
        class_count = model.class_counts[a]
        for f in FEATURE_NAMES:
            count = model.feature_counts[f].get(a, {}).get(encoded[f], 0)
            domain_size = len(model.feature_domains[f])
            weight *= (count + alpha) / (class_count + alpha * domain_size)
        weights[a] = weight
    total = math.fsum(weights.values())
    return {a: w / total for a, w in sorted(weights.items())}


def recommend(confidences: dict[str, float]) -> str:
    """Argmax activity; ties go to the lexicographically first name."""
    if not confidences:
        raise ValueError("cannot recommend from an empty confidence vector")
    # max keeps the first of equal values, and the names are sorted
    return max(sorted(confidences), key=confidences.__getitem__)


def write_model(model: RecommenderModel, stream: TextIO) -> None:
    stream.write(model.to_json())


def read_model(stream: TextIO) -> RecommenderModel:
    return RecommenderModel.from_json(stream.read())
