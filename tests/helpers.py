"""Shared fixtures for the test suite.

Holds the frozen reference data used by the fidelity tests (two benchmark
confusion matrices with their expected percentage tables, and two sets of
prediction rows with known argmax outcomes), a hypothesis strategy for
valid activity definitions, an independent brute-force posterior oracle
the classifier is checked against, the per-transition training loop
`train` is held to, the ``statistics.fmean`` emotion rule `annotate` is held
to, a helper that runs `annotate` on one occurrence after a score history,
the per-row loops `score_occurrences`, `annotate`,
`extract_transitions` and `cluster_report` are held to, the field-by-field
``csv.writer`` table writer the line-formatted stage writers are held to,
the per-row f-string writers the occurrence-table writers are held to, and
the per-row parsers the stage-table, annotation-log and user-table
readers are held to.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from hypothesis import strategies as st

from adl_engine.affect import (
    ANNOTATED_FIELDS,
    AffectAnnotation,
    EmotionLabel,
    UXLabel,
    UXModel,
    annotate,
    parse_emotion,
    parse_ux,
)
from adl_engine.config import DEFAULTS
from adl_engine.definitions import (
    AtomicActivity,
    ComplexActivityDefinition,
    ContextAttribute,
    load_definitions,
)
from adl_engine.ingestion import (
    ADL_LOG_FIELDS,
    OCCURRENCE_FIELDS,
    AnnotationParseError,
    OccurrenceRecord,
    Source,
)
from adl_engine.recognition import (
    VERDICT_FIELDS,
    OccurrenceVerdict,
    ScoredOccurrence,
    detect_occurrence,
)
from adl_engine.recommender import (
    FEATURE_NAMES,
    NO_PREVIOUS,
    DayKind,
    FeatureVector,
    LabeledTransition,
    RecommenderModel,
    parse_day_kind,
)
from adl_engine.tables import FLAG_TEXT, Memo, csv_field
from adl_engine.temporal import day_index, minute_of_day

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS_DIR = REPO_ROOT / "definitions"
DATA_DIR = REPO_ROOT / "data"
CONFIGS_DIR = REPO_ROOT / "configs"


def load_adl_defs() -> dict[str, ComplexActivityDefinition]:
    return load_definitions(DEFINITIONS_DIR / "adl.json")


def load_ukdale_defs() -> dict[str, ComplexActivityDefinition]:
    return load_definitions(DEFINITIONS_DIR / "ukdale.json")


def load_all_defs() -> list[ComplexActivityDefinition]:
    return [*load_ukdale_defs().values(), *load_adl_defs().values()]


# ---------------------------------------------------------------------------
# Reference confusion matrices (frozen benchmark counts and the percentage
# tables they must reproduce after 2-decimal rounding)
# ---------------------------------------------------------------------------

APPLIANCE_LABELS = (
    "Using Microwave", "Using Toaster", "Watching TV", "Using Laptop",
    "Using Washing Machine", "Cooking in Kitchen", "Listening to Subwoofer",
)

# rows = predicted, columns = true
APPLIANCE_COUNTS = (
    (15, 10, 1, 0, 0, 0, 0),
    (3, 10, 0, 0, 0, 0, 8),
    (6, 0, 21, 0, 0, 0, 0),
    (0, 0, 0, 7, 4, 2, 0),
    (0, 0, 0, 4, 8, 1, 0),
    (0, 0, 0, 4, 1, 13, 3),
    (0, 1, 0, 0, 0, 4, 13),
)

APPLIANCE_ACCURACY_PCT = 62.59
APPLIANCE_PRECISION_PCT = {
    "Using Microwave": 57.69,
    "Using Toaster": 47.62,
    "Watching TV": 77.78,
    "Using Laptop": 53.85,
    "Using Washing Machine": 61.54,
    "Cooking in Kitchen": 61.90,
    "Listening to Subwoofer": 72.22,
}
APPLIANCE_RECALL_PCT = {
    "Using Microwave": 62.50,
    "Using Toaster": 47.62,
    "Watching TV": 95.45,
    "Using Laptop": 46.67,
    "Using Washing Machine": 61.54,
    "Cooking in Kitchen": 65.00,
    "Listening to Subwoofer": 54.17,
}

ROUTINE_LABELS = (
    "Sleeping", "Watching TV in Spare Time", "Showering", "Eating Breakfast",
    "Leaving", "Eating Lunch", "Eating Snacks",
)

ROUTINE_COUNTS = (
    (12, 2, 1, 0, 0, 0, 0),
    (0, 6, 0, 0, 0, 0, 3),
    (3, 0, 16, 0, 0, 0, 0),
    (0, 0, 0, 8, 0, 0, 0),
    (0, 0, 0, 3, 6, 1, 0),
    (0, 0, 0, 0, 3, 7, 1),
    (0, 6, 0, 0, 0, 2, 13),
)

ROUTINE_ACCURACY_PCT = 73.12
ROUTINE_PRECISION_PCT = {
    "Sleeping": 80.00,
    "Watching TV in Spare Time": 66.67,
    "Showering": 84.21,
    "Eating Breakfast": 100.00,
    "Leaving": 60.00,
    "Eating Lunch": 63.64,
    "Eating Snacks": 61.90,
}
ROUTINE_RECALL_PCT = {
    "Sleeping": 80.00,
    "Watching TV in Spare Time": 42.86,
    "Showering": 94.12,
    "Eating Breakfast": 72.73,
    "Leaving": 66.67,
    "Eating Lunch": 70.00,
    "Eating Snacks": 76.47,
}


# ---------------------------------------------------------------------------
# Reference prediction rows: (true next activity, expected recommendation,
# confidence values in the order of the label tuples above)
# ---------------------------------------------------------------------------

APPLIANCE_VECTOR_LABELS = (
    "Using Microwave", "Listening to Subwoofer", "Watching TV", "Using Laptop",
    "Using Washing Machine", "Cooking in Kitchen", "Using Toaster",
)

APPLIANCE_PREDICTION_ROWS = [
    ("Using Microwave", "Using Microwave", (1, 0, 0, 0, 0, 0, 0)),
    ("Using Microwave", "Using Microwave", (0.990, 0.010, 0, 0, 0, 0, 0)),
    ("Using Microwave", "Using Microwave", (0.587, 0, 0.413, 0, 0, 0, 0)),
    ("Using Microwave", "Using Microwave", (0.696, 0, 0.294, 0.010, 0, 0, 0)),
    ("Using Microwave", "Using Microwave", (0.684, 0, 0.316, 0, 0, 0, 0)),
    ("Watching TV", "Watching TV", (0.404, 0, 0.596, 0, 0, 0, 0)),
    ("Using Laptop", "Using Laptop", (0, 0, 0.131, 0.869, 0, 0, 0)),
    ("Using Laptop", "Using Laptop", (0.080, 0, 0.018, 0.902, 0, 0, 0)),
    ("Using Laptop", "Using Laptop", (0, 0, 0, 0.890, 0, 0.110, 0)),
    ("Using Washing Machine", "Using Washing Machine", (0, 0, 0, 0.020, 0.980, 0, 0)),
    ("Using Washing Machine", "Using Washing Machine", (0, 0, 0, 0, 0.880, 0.120, 0)),
    ("Cooking in Kitchen", "Cooking in Kitchen", (0, 0, 0, 0, 0.370, 0.630, 0)),
    ("Cooking in Kitchen", "Cooking in Kitchen", (0, 0, 0, 0, 0.074, 0.926, 0)),
    ("Cooking in Kitchen", "Cooking in Kitchen", (0, 0, 0, 0, 0.004, 0.996, 0)),
]

ROUTINE_VECTOR_LABELS = ROUTINE_LABELS

# row 9 recommends Leaving although the true next activity was Breakfast,
# and row 12 recommends Lunch against a true Snack; both must reproduce.
# row 11's values sum to 1.001 as transcribed: vectors are not re-validated.
ROUTINE_PREDICTION_ROWS = [
    ("Watching TV in Spare Time", "Watching TV in Spare Time",
     (0.097, 0.903, 0, 0, 0, 0, 0)),
    ("Sleeping", "Sleeping", (0.903, 0.097, 0, 0, 0, 0, 0)),
    ("Sleeping", "Sleeping", (0.983, 0.017, 0, 0, 0, 0, 0)),
    ("Showering", "Showering", (0, 0, 1, 0, 0, 0, 0)),
    ("Showering", "Showering", (0, 0, 1, 0, 0, 0, 0)),
    ("Showering", "Showering", (0, 0, 1, 0, 0, 0, 0)),
    ("Eating Breakfast", "Eating Breakfast", (0, 0, 0.074, 0.926, 0, 0, 0)),
    ("Eating Breakfast", "Eating Breakfast", (0, 0, 0.323, 0.677, 0, 0, 0)),
    ("Eating Breakfast", "Leaving", (0, 0, 0, 0.477, 0.495, 0.028, 0)),
    ("Eating Lunch", "Eating Lunch", (0, 0, 0, 0.342, 0.094, 0.564, 0)),
    ("Eating Lunch", "Eating Lunch", (0, 0, 0, 0.004, 0.430, 0.567, 0)),
    ("Eating Snacks", "Eating Lunch", (0, 0.020, 0, 0, 0, 0.794, 0.186)),
    ("Eating Snacks", "Eating Snacks", (0, 0, 0, 0, 0, 0, 1)),
    ("Eating Snacks", "Eating Snacks", (0, 0, 0, 0, 0, 0, 1)),
]


def vector_from_row(labels: tuple[str, ...], values: tuple) -> dict[str, float]:
    return {label: float(v) for label, v in zip(labels, values)}


# ---------------------------------------------------------------------------
# Hypothesis strategy for valid definitions
# ---------------------------------------------------------------------------

@st.composite
def definition_strategy(draw) -> ComplexActivityDefinition:
    n = draw(st.integers(min_value=2, max_value=8))
    atom_units = draw(st.lists(
        st.integers(min_value=1, max_value=50), min_size=n, max_size=n))
    ctx_units = draw(st.lists(
        st.integers(min_value=1, max_value=50), min_size=n, max_size=n))
    atom_total = sum(atom_units)
    ctx_total = sum(ctx_units)
    atomics = tuple(
        AtomicActivity(id=i + 1, label=f"atomic {i + 1}", weight=u / atom_total)
        for i, u in enumerate(atom_units)
    )
    contexts = tuple(
        ContextAttribute(id=i + 1, label=f"context {i + 1}", weight=u / ctx_total)
        for i, u in enumerate(ctx_units)
    )
    ids = st.sampled_from(range(1, n + 1))
    return ComplexActivityDefinition(
        name=draw(st.text(alphabet="ABCDEFGH", min_size=1, max_size=6)),
        short_code="GEN",
        atomics=atomics,
        contexts=contexts,
        core_atomics=frozenset(draw(st.sets(ids))),
        core_contexts=frozenset(draw(st.sets(ids))),
        start_atomics=frozenset(draw(st.sets(ids, min_size=1))),
        start_contexts=frozenset(draw(st.sets(ids))),
        end_atomics=frozenset(draw(st.sets(ids, min_size=1))),
        end_contexts=frozenset(draw(st.sets(ids))),
        threshold=draw(st.floats(min_value=0.05, max_value=1.0)),
    )


# ---------------------------------------------------------------------------
# Independent classifier oracle
# ---------------------------------------------------------------------------

def _oracle_encode(features) -> dict[str, str]:
    # deliberately re-states the wire encoding instead of importing it
    return {
        "time_bucket": str(features.time_bucket),
        "previous_activity": (
            NO_PREVIOUS if features.previous_activity is None
            else features.previous_activity
        ),
        "emotion": features.emotion.value,
        "ux": features.ux.value,
        "day_kind": features.day_kind.value,
    }


def oracle_posterior(
    transitions: list[LabeledTransition],
    activities: list[str],
    alpha: float,
    features,
) -> dict[str, float]:
    """Brute-force count-and-normalize posterior, recomputed per query."""
    names = ["time_bucket", "previous_activity", "emotion", "ux", "day_kind"]
    query = _oracle_encode(features)
    weights: dict[str, float] = {}
    for activity in activities:
        of_class = [t for t in transitions if t.next_activity == activity]
        weight = (len(of_class) + alpha) / (
            len(transitions) + alpha * len(activities))
        for fname in names:
            domain = {_oracle_encode(t.features)[fname] for t in transitions}
            matches = sum(
                1 for t in of_class
                if _oracle_encode(t.features)[fname] == query[fname]
            )
            weight *= (matches + alpha) / (len(of_class) + alpha * len(domain))
        weights[activity] = weight
    total = sum(weights.values())
    return {a: w / total for a, w in weights.items()}


def conditional(
    model: RecommenderModel, feature: str, value: str, activity: str
) -> float:
    """One smoothed conditional P(``feature`` = ``value`` | ``activity``):
    ``(count + alpha) / (class count + alpha * domain size)``."""
    domain_size = len(model.feature_domains[feature])
    count = model.feature_counts[feature].get(activity, {}).get(value, 0)
    class_count = model.class_counts.get(activity, 0)
    return (count + model.alpha) / (class_count + model.alpha * domain_size)


def per_call_posterior(model: RecommenderModel, features) -> dict[str, float]:
    """The posterior computed one factor per call: per activity, `prior`
    times the `conditional` of each feature in `FEATURE_NAMES` order,
    normalized by the fsum of the products."""
    query = _oracle_encode(features)
    weights: dict[str, float] = {}
    for activity in model.activities:
        weight = model.prior(activity)
        for f in FEATURE_NAMES:
            weight *= conditional(model, f, query[f], activity)
        weights[activity] = weight
    total = math.fsum(weights.values())
    return {a: w / total for a, w in sorted(weights.items())}


def per_transition_train(
    transitions: list[LabeledTransition],
    alpha: float = 1.0,
    bucket_width: int = 30,
    activities: list[str] | None = None,
) -> RecommenderModel:
    """`train` as it was before it counted distinct (features, label) pairs:
    every transition is encoded and counted on its own."""
    labels = {t.next_activity for t in transitions}
    class_list = tuple(sorted(labels | set(activities or ())))

    class_counts = Counter(t.next_activity for t in transitions)
    feature_counts: dict[str, dict[str, dict[str, int]]] = {
        f: {} for f in FEATURE_NAMES
    }
    domains: dict[str, set[str]] = {f: set() for f in FEATURE_NAMES}
    for t in transitions:
        encoded = _oracle_encode(t.features)
        for f in FEATURE_NAMES:
            value = encoded[f]
            domains[f].add(value)
            per_class = feature_counts[f].setdefault(t.next_activity, {})
            per_class[value] = per_class.get(value, 0) + 1

    return RecommenderModel(
        activities=class_list,
        alpha=alpha,
        bucket_width=bucket_width,
        n_transitions=len(transitions),
        class_counts={c: class_counts.get(c, 0) for c in class_list},
        feature_domains={f: tuple(sorted(domains[f])) for f in FEATURE_NAMES},
        feature_counts=feature_counts,
    )


def model_counts(payload: dict) -> list[tuple[dict, str]]:
    """Each count of a parsed ``model.json`` as the dict and key that hold it:
    ``n_transitions``, then each class count, then each feature count."""
    return [
        (payload, "n_transitions"),
        *((payload["class_counts"], c) for c in payload["class_counts"]),
        *((values, v) for per_class in payload["feature_counts"].values()
          for values in per_class.values() for v in values),
    ]


def set_feature_counts(payload: dict, count: int) -> None:
    """Set every feature count of a parsed ``model.json`` to ``count``."""
    for table, key in model_counts(payload)[1 + len(payload["class_counts"]):]:
        table[key] = count


def scale_counts(payload: dict, factor: int) -> None:
    """Multiply every count of a parsed ``model.json`` by ``factor``: the
    counts stay consistent with one another."""
    for table, key in model_counts(payload):
        table[key] *= factor


def oracle_infer_emotion(
    defn, history, observation, verdict, window: int, epsilon: float
) -> EmotionLabel:
    """The emotion rule of `affect.annotate`, with the recent mean taken by
    ``statistics.fmean``: negative unless the occurrence completed, its most
    important atomic and paired context were seen, and its score is at least
    the mean of the last ``window`` scores less ``epsilon``."""
    atomic_id, context_id = defn.most_important_pair
    if not (
        verdict.completed
        and atomic_id in observation.observed_atomics
        and context_id in observation.satisfied_contexts
    ):
        return EmotionLabel.NEGATIVE
    if history and verdict.score < statistics.fmean(history[-window:]) - epsilon:
        return EmotionLabel.NEGATIVE
    return EmotionLabel.POSITIVE


def emotion_after(
    defn, history, evidence, verdict,
    window: int = DEFAULTS.window, epsilon: float = DEFAULTS.epsilon,
) -> EmotionLabel:
    """The emotion `affect.annotate` gives an occurrence of ``defn`` with the
    id sets of ``evidence`` (an observation or a record) in its record and the
    ``score`` and ``completed`` of ``verdict``, run after occurrences of the
    same activity that scored ``history``, oldest first."""
    full = OccurrenceRecord(
        defn.name, 0, 0, defn.atomic_ids, defn.context_ids, Source.ANNOTATION
    )
    items = [(defn, full, OccurrenceVerdict(defn.name, h, defn.threshold, True))
             for h in history]
    items.append((defn, full._replace(
        observed_atomics=evidence.observed_atomics,
        satisfied_contexts=evidence.satisfied_contexts,
    ), verdict))
    return annotate(items, UXModel(window=window, epsilon=epsilon))[-1].emotion


def per_row_annotate(items, model) -> list[AffectAnnotation]:
    """`affect.annotate` a row at a time, checking its parameters as it does:
    each row's emotion is `oracle_infer_emotion` on the activity's score
    history, and its UX is the model's learned label at the end time's
    bucket, else the emotion's sign."""
    if not 1 <= model.window <= 2**31 - 1:
        raise ValueError(f"window must be in [1, 2147483647], got {model.window}")
    if model.epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {model.epsilon}")
    if not 1 <= model.bucket_width <= 1440:
        raise ValueError(f"bucket_width must be in [1, 1440], got {model.bucket_width}")
    histories: dict[str, list[float]] = {}
    annotations = []
    for defn, record, verdict in items:
        history = histories.setdefault(defn.name, [])
        emotion = oracle_infer_emotion(
            defn, history, record, verdict, model.window, model.epsilon
        )
        bucket = minute_of_day(record.end) // model.bucket_width
        ux = model.table.get((emotion.value, defn.name, bucket))
        if ux is None:
            ux = UXLabel.GOOD if emotion is EmotionLabel.POSITIVE else UXLabel.BAD
        annotations.append(AffectAnnotation(
            defn.name, record.start, record.end, verdict.score, verdict.completed,
            emotion, ux,
        ))
        history.append(verdict.score)
    return annotations


def per_row_score_occurrences(defs, records, lam: float = 0.5) -> list:
    """`recognition.score_occurrences` as it was when the ``recognize`` stage
    ran it inline: a record's evidence set is scored when first seen, read
    from the record's attributes, and its verdict is appended for each row."""
    memo = {}
    verdicts = []
    for r in records:
        key = (r.activity, r.observed_atomics, r.satisfied_contexts)
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = detect_occurrence(defs[r.activity], r, lam)
        verdicts.append(verdict)
    return verdicts


def per_row_extract_transitions(annotated, bucket_width: int = 30) -> list:
    """`recommender.extract_transitions` a pair of consecutive rows at a time,
    each row's bucket read through `minute_of_day` and its day kind through
    the calendar weekday of its end."""
    if not 1 <= bucket_width <= 1440:
        raise ValueError(f"bucket_width must be in [1, 1440], got {bucket_width}")
    vectors = {}
    transitions = []
    for current, nxt in zip(annotated, annotated[1:]):
        key = (
            minute_of_day(current.end) // bucket_width,
            current.activity,
            current.emotion,
            current.ux,
            DayKind.WEEKDAY
            if datetime.fromtimestamp(current.end, timezone.utc).weekday() < 5
            else DayKind.WEEKEND,
        )
        features = vectors.get(key)
        if features is None:
            features = vectors[key] = FeatureVector(*key)
        transitions.append(LabeledTransition(features, nxt.activity))
    return transitions


def per_row_cluster_report(records) -> list:
    """The rows `temporal.write_clusters` writes for `cluster_report`, made
    a record at a time as ``cluster_report`` once made them: the day index of
    every start, then each row rebased on the earliest, sorted."""
    days = [day_index(r.start) for r in records]
    base_day = min(days, default=0)
    return sorted(
        (r.activity, day - base_day, minute_of_day(r.start))
        for r, day in zip(records, days)
    )


def oracle_write_table(stream, header: list[str], rows) -> None:
    """`tables.write_table` as it was before writers formatted their own
    lines: ``csv.writer`` writes the header row, then each row field by field,
    ending lines in LF.  A non-string field is written as its ``str``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def oracle_table(header: list[str], rows) -> str:
    """The text `oracle_write_table` writes."""
    buffer = io.StringIO()
    oracle_write_table(buffer, header, rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Per-row f-string writers: `write_occurrences`, `write_verdicts` and
# `write_annotated` as they were before the three tables shared each row's
# ``activity,start,end,`` head, each line one f-string, streamed a line at a
# time
# ---------------------------------------------------------------------------

def _oracle_score_texts():
    """``repr`` of a score, made once per distinct nonzero float."""
    texts = Memo(repr)
    return lambda score: texts[score] if score and type(score) is float else repr(score)


def _oracle_header(stream, header: list[str]) -> None:
    stream.write(",".join(map(csv_field, header)) + "\n")


def per_row_write_occurrences(records, stream) -> None:
    field_of = Memo(lambda ids: ";".join(str(i) for i in sorted(ids)))
    _oracle_header(stream, OCCURRENCE_FIELDS)
    stream.writelines(
        f"{csv_field(activity)},{start!s},{end!s},"
        f"{field_of[atomics]},{field_of[contexts]},{source.value}\n"
        for activity, start, end, atomics, contexts, source in records
    )


def per_row_write_verdicts(records, verdicts, stream) -> None:
    score_text = _oracle_score_texts()
    _oracle_header(stream, VERDICT_FIELDS)
    stream.writelines(
        f"{csv_field(record.activity)},{record.start!s},{record.end!s},"
        f"{score_text(verdict.score)},{FLAG_TEXT[verdict.completed]}\n"
        for record, verdict in zip(records, verdicts)
    )


def per_row_write_annotated(rows, stream) -> None:
    score_text = _oracle_score_texts()
    _oracle_header(stream, ANNOTATED_FIELDS)
    stream.writelines(
        f"{csv_field(activity)},{start!s},{end!s},{score_text(score)},"
        f"{FLAG_TEXT[completed]},{emotion.value},{ux.value}\n"
        for activity, start, end, score, completed, emotion, ux in rows
    )


# ---------------------------------------------------------------------------
# Per-row table parsers: each stage-table reader and `parse_adl_log` as they
# were before they converted a table a column at a time, plus the check that
# an end is not before its start
# ---------------------------------------------------------------------------

def oracle_read_table(stream, header: list[str], parse) -> list:
    """``parse(row)`` per csv.reader row of a stage table: the first row must
    equal ``header``, blank rows are skipped, every other row must have the
    header's number of fields, and a violation or a ValueError from
    ``parse`` raises ValueError naming the line where the row ends."""
    reader = csv.reader(stream)
    values = []
    try:
        first = next(reader, None)
        if first is None:
            return values
        if first != header:
            raise ValueError(
                f"expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            values.append(parse(row))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return values


def _oracle_flag(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {text!r}")


def _oracle_member(enum, what: str, text: str):
    for member in enum:
        if member.value == text:
            return member
    raise ValueError(f"unknown {what} {text!r}")


def _oracle_ids(text: str) -> frozenset[int]:
    return frozenset(int(p) for p in text.split(";")) if text else frozenset()


def _oracle_score(text: str) -> float:
    score = float(text)
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {score!r}")
    return score


def _oracle_check_order(start: int, end: int) -> None:
    if end < start:
        raise ValueError(f"end {end} before start {start}")


def oracle_read_occurrences(stream, defs: dict | None = None) -> list:
    """`ingestion.read_occurrences` a row at a time: id sets, then the
    activity and its ids against ``defs``, start, end, source, order."""
    def parse(row: list[str]) -> OccurrenceRecord:
        activity, start, end, atomics, contexts, source = row
        observed, satisfied = _oracle_ids(atomics), _oracle_ids(contexts)
        if defs is not None:
            if activity not in defs:
                raise ValueError(f"unknown activity {activity!r}")
            defn = defs[activity]
            for what, got, known in (
                ("atomic", observed, defn.atomic_ids),
                ("context", satisfied, defn.context_ids),
            ):
                if not got <= known:
                    raise ValueError(
                        f"{activity}: unknown {what} ids {sorted(got - known)}"
                    )
        record = OccurrenceRecord(
            activity, int(start), int(end), observed, satisfied,
            _oracle_member(Source, "source", source),
        )
        _oracle_check_order(record.start, record.end)
        return record

    return oracle_read_table(stream, OCCURRENCE_FIELDS, parse)


def oracle_read_verdicts(stream) -> list:
    """`recognition.read_verdicts` a row at a time."""
    def parse(row: list[str]) -> ScoredOccurrence:
        activity, start, end, score, completed = row
        return ScoredOccurrence(
            activity, int(start), int(end), _oracle_score(score),
            _oracle_flag(completed),
        )

    return oracle_read_table(stream, VERDICT_FIELDS, parse)


def oracle_read_annotated(stream, activities=None) -> list:
    """`affect.read_annotated` a row at a time: the activity against
    ``activities``, then each field in order, then the order of the times."""
    def parse(row: list[str]) -> AffectAnnotation:
        activity, start, end, score, completed, emotion, ux = row
        if activities is not None and activity not in activities:
            raise ValueError(f"unknown activity {activity!r}")
        annotation = AffectAnnotation(
            activity, int(start), int(end), _oracle_score(score),
            _oracle_flag(completed),
            _oracle_member(EmotionLabel, "emotion", emotion),
            _oracle_member(UXLabel, "ux", ux),
        )
        _oracle_check_order(annotation.start, annotation.end)
        return annotation

    return oracle_read_table(stream, ANNOTATED_FIELDS, parse)


def _oracle_stamp(text: str, lineno: int) -> int:
    # 3.10's fromisoformat reads no 'Z'
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


def oracle_parse_adl_log(stream, defs: dict) -> list:
    """The per-row annotation-log parser, numbering each row by the line where
    it ends (``reader.line_num``), records sorted by (start, activity)."""
    reader = csv.reader(stream)
    records = []
    try:
        header = next(reader, None)
        if header is None:
            return records
        if [h.strip() for h in header] != ADL_LOG_FIELDS:
            raise AnnotationParseError(
                f"line {reader.line_num}: expected header "
                f"{','.join(ADL_LOG_FIELDS)!r}, got {','.join(header)!r}"
            )
        for row in reader:
            lineno = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise AnnotationParseError(
                    f"line {lineno}: expected 3 fields, got {len(row)}"
                )
            start = _oracle_stamp(row[0], lineno)
            end = _oracle_stamp(row[1], lineno)
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
            records.append(OccurrenceRecord(
                activity, start, end, defn.atomic_ids, defn.context_ids,
                Source.ANNOTATION,
            ))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise AnnotationParseError(f"line {reader.line_num}: {exc}") from None
    records.sort(key=lambda r: (r.start, r.activity))
    return records


# ---------------------------------------------------------------------------
# Per-row user-table readers: `cli._read_features` and `cli._read_predictions`
# as they were when they read a ``csv.DictReader`` dict per row
# ---------------------------------------------------------------------------

def _oracle_csv_rows(path):
    """Line number and fields, by column name, of each row of a user-supplied CSV.

    A short, long or unreadable row raises ValueError naming the file and line.
    """
    with open(path) as stream:
        reader = csv.DictReader(stream)
        try:
            for row in reader:
                if None in row.values():
                    raise ValueError("fewer fields than the header")
                if None in row:  # DictReader files extra fields under None
                    raise ValueError("more fields than the header")
                yield reader.line_num, row
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def oracle_read_features(store, path) -> list:
    """Feature rows, each with its true next activity ("" when unknown)."""
    known = set(store["defs"])
    rows = []
    for lineno, row in _oracle_csv_rows(path):
        try:
            previous = row.get("previous_activity", "").strip()
            features = FeatureVector(
                time_bucket=int(row["time_bucket"]),
                previous_activity=None if previous in ("", NO_PREVIOUS) else previous,
                emotion=parse_emotion(row["emotion"].strip()),
                ux=parse_ux(row["ux"].strip()),
                day_kind=parse_day_kind(row["day_kind"].strip()),
            )
            bucket_width = store["model"].bucket_width
            buckets = math.ceil(1440 / bucket_width)
            if features.time_bucket >= buckets:
                raise ValueError(
                    f"time_bucket must be < {buckets} for the model's bucket_width "
                    f"{bucket_width}, got {features.time_bucket}"
                )
            previous_label = features.previous_activity
            if previous_label is not None and previous_label not in known:
                raise ValueError(f"unknown previous activity {previous_label!r}")
            true_label = row.get("activity", "").strip()
            if true_label and true_label not in known:
                raise ValueError(f"unknown true activity {true_label!r}")
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        rows.append((features, true_label))
    return rows


def oracle_read_predictions(store, path) -> list:
    """(predicted, true) activity pairs from a predictions CSV."""
    known = set(store["defs"])
    pairs = []
    for lineno, row in _oracle_csv_rows(path):
        true_label = row.get("activity", "").strip()
        predicted = row.get("prediction", "").strip()
        if not true_label:
            raise ValueError(f"{path}: line {lineno}: missing true activity label")
        for what, label in (("true", true_label), ("predicted", predicted)):
            if label not in known:
                raise ValueError(
                    f"{path}: line {lineno}: unknown {what} activity {label!r}"
                )
        pairs.append((predicted, true_label))
    return pairs
