"""Shared fixtures for the test suite.

Holds the frozen reference data used by the fidelity tests (two benchmark
confusion matrices with their expected percentage tables, and two sets of
prediction rows with known argmax outcomes), a hypothesis strategy for
valid activity definitions, an independent brute-force posterior oracle
the classifier is checked against, the per-transition training loop
`train` is held to, the per-row annotation loop `annotate` is held to, and
the field-by-field ``csv.writer`` table writer the line-formatted stage
writers are held to.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from pathlib import Path

from hypothesis import strategies as st

from adl_engine.affect import (
    AffectAnnotation,
    infer_emotion,
    map_ux,
    time_bucket,
)
from adl_engine.definitions import (
    AtomicActivity,
    ComplexActivityDefinition,
    ContextAttribute,
    DefinitionSet,
    load_definitions,
)
from adl_engine.recommender import (
    FEATURE_NAMES,
    NO_PREVIOUS,
    LabeledTransition,
    RecommenderModel,
)
from adl_engine.temporal import minute_of_day

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS_DIR = REPO_ROOT / "definitions"
DATA_DIR = REPO_ROOT / "data"
CONFIGS_DIR = REPO_ROOT / "configs"


def load_adl_defs() -> DefinitionSet:
    return load_definitions(DEFINITIONS_DIR / "adl.json")


def load_ukdale_defs() -> DefinitionSet:
    return load_definitions(DEFINITIONS_DIR / "ukdale.json")


def load_all_defs() -> list[ComplexActivityDefinition]:
    return list(load_ukdale_defs()) + list(load_adl_defs())


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


def per_call_posterior(model: RecommenderModel, features) -> dict[str, float]:
    """The posterior computed one factor per call, as `predict_confidences`
    did before `RecommenderModel.factors`: per activity, `prior` times the
    `conditional` of each feature in `FEATURE_NAMES` order, normalized."""
    query = _oracle_encode(features)
    weights: dict[str, float] = {}
    for activity in model.activities:
        weight = model.prior(activity)
        for f in FEATURE_NAMES:
            weight *= model.conditional(f, query[f], activity)
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


def per_row_annotate(items, model) -> list[AffectAnnotation]:
    """`affect.annotate` as it was before it checked its parameters once per
    call: each row runs `infer_emotion` on the activity's score history, then
    `map_ux` at the end time's `time_bucket`."""
    histories: dict[str, list[float]] = {}
    annotations = []
    for defn, observation, verdict, start, end in items:
        history = histories.setdefault(defn.name, [])
        emotion = infer_emotion(
            defn, history, observation, verdict,
            window=model.window, epsilon=model.epsilon,
        )
        bucket = time_bucket(minute_of_day(end), model.bucket_width)
        ux = map_ux(model, emotion, defn.name, bucket)
        annotations.append(AffectAnnotation(
            defn.name, start, end, verdict.score, verdict.completed, emotion, ux,
        ))
        history.append(verdict.score)
    return annotations


def oracle_write_table(stream, header: list[str], rows) -> None:
    """`ingestion.write_table` as it was before writers formatted their own
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
