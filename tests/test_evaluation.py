from __future__ import annotations

import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl_engine.evaluation import (
    ConfusionMatrix,
    MetricsReport,
    accuracy,
    build_confusion,
    build_report,
    class_precision,
    class_recall,
    split_chronological,
    split_random,
    write_confusion,
    write_report_csv,
    write_report_json,
)
from helpers import (
    APPLIANCE_ACCURACY_PCT,
    APPLIANCE_COUNTS,
    APPLIANCE_LABELS,
    ROUTINE_ACCURACY_PCT,
    ROUTINE_COUNTS,
    ROUTINE_LABELS,
    ROUTINE_PRECISION_PCT,
    ROUTINE_RECALL_PCT,
)

APPLIANCE_CM = ConfusionMatrix(APPLIANCE_LABELS, APPLIANCE_COUNTS)
ROUTINE_CM = ConfusionMatrix(ROUTINE_LABELS, ROUTINE_COUNTS)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def test_chronological_split_seventy_thirty():
    train, test = split_chronological(list(range(10)), 0.7)
    assert train == [0, 1, 2, 3, 4, 5, 6]
    assert test == [7, 8, 9]


def test_chronological_split_singleton():
    train, test = split_chronological([42], 0.7)
    assert train == [42]
    assert test == []


def test_chronological_split_ninety_three():
    # 93 * 0.7 is 65.1, so 66 records train
    train, test = split_chronological(list(range(93)), 0.7)
    assert len(train) == 66
    assert len(test) == 27
    assert train + test == list(range(93))


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
def test_split_fraction_validation(fraction):
    with pytest.raises(ValueError):
        split_chronological([1, 2, 3], fraction)
    with pytest.raises(ValueError):
        split_random([1, 2, 3], fraction, seed=0)


def test_random_split_is_deterministic_per_seed():
    records = list(range(20))
    a = split_random(records, 0.7, seed=5)
    b = split_random(records, 0.7, seed=5)
    c = split_random(records, 0.7, seed=6)
    assert a == b
    assert a != c


@settings(max_examples=100, derandomize=True)
@given(
    records=st.lists(st.integers(), min_size=1, max_size=40),
    seed=st.integers(0, 1000),
    fraction=st.floats(min_value=0.1, max_value=0.9),
)
def test_random_split_preserves_the_multiset(records, seed, fraction):
    train, test = split_random(records, fraction, seed)
    assert Counter(train) + Counter(test) == Counter(records)
    chron_train, chron_test = split_chronological(records, fraction)
    assert len(train) == len(chron_train)
    assert len(test) == len(chron_test)


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------

def test_build_confusion_empty_pairs():
    cm = build_confusion([], ["A", "B"])
    assert cm.counts == ((0, 0), (0, 0))
    assert cm.grand_total() == 0


def test_build_confusion_tallies_cells():
    pairs = [("A", "A"), ("A", "A"), ("A", "A"), ("B", "A"), ("A", "B")]
    cm = build_confusion(pairs, ["A", "B"])
    assert cm.counts == ((3, 1), (1, 0))
    assert cm.trace() == 3
    assert cm.row_sum("A") == 4
    assert cm.column_sum("A") == 4
    assert cm.column_sum("B") == 1


def test_build_confusion_rejects_unknown_labels():
    with pytest.raises(KeyError):
        build_confusion([("C", "A")], ["A", "B"])
    with pytest.raises(KeyError):
        build_confusion([("A", "C")], ["A", "B"])


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(("A", "B"), ((1, 2),))
    with pytest.raises(ValueError):
        ConfusionMatrix(("A", "B"), ((1, 2), (3, -1)))
    with pytest.raises(ValueError):
        ConfusionMatrix(("A", "A"), ((1, 2), (3, 4)))
    with pytest.raises(KeyError):
        ConfusionMatrix(("A", "B"), ((1, 2), (3, 4))).index("C")


# ---------------------------------------------------------------------------
# Metrics on the frozen benchmark matrices
# ---------------------------------------------------------------------------

def test_appliance_matrix_accuracy():
    assert accuracy(APPLIANCE_CM) * 100 == pytest.approx(
        APPLIANCE_ACCURACY_PCT, abs=5e-3)


def test_routine_matrix_accuracy():
    assert accuracy(ROUTINE_CM) * 100 == pytest.approx(
        ROUTINE_ACCURACY_PCT, abs=5e-3)


def test_routine_matrix_precision_and_recall():
    for label in ROUTINE_LABELS:
        assert class_precision(ROUTINE_CM, label) * 100 == pytest.approx(
            ROUTINE_PRECISION_PCT[label], abs=5e-3), label
        assert class_recall(ROUTINE_CM, label) * 100 == pytest.approx(
            ROUTINE_RECALL_PCT[label], abs=5e-3), label


def test_diagonal_matrix_is_perfect():
    cm = ConfusionMatrix(("A", "B"), ((3, 0), (0, 2)))
    assert accuracy(cm) == 1.0
    assert class_precision(cm, "A") == 1.0
    assert class_recall(cm, "B") == 1.0


def test_accuracy_undefined_on_empty_matrix():
    cm = build_confusion([], ["A", "B"])
    with pytest.raises(ValueError):
        accuracy(cm)


def test_metrics_undefined_on_zero_denominators():
    # B never predicted, C never true
    cm = ConfusionMatrix(("A", "B", "C"), ((2, 1, 0), (0, 0, 0), (0, 1, 0)))
    assert class_precision(cm, "B") is None
    assert class_recall(cm, "B") == 0.0
    assert class_recall(cm, "C") is None
    assert class_precision(cm, "C") == 0.0


@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_tally_conserves_pairs(data):
    labels = ["A", "B", "C"]
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
        max_size=50))
    cm = build_confusion(pairs, labels)
    assert cm.grand_total() == len(pairs)
    for label in labels:
        assert cm.row_sum(label) == sum(1 for p, _ in pairs if p == label)
        assert cm.column_sum(label) == sum(1 for _, t in pairs if t == label)
    if pairs:
        hits = sum(1 for p, t in pairs if p == t)
        assert accuracy(cm) == pytest.approx(hits / len(pairs))
        assert (accuracy(cm) == 1.0) == all(p == t for p, t in pairs)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _report_csv(report: MetricsReport, seed: int = 0) -> str:
    buf = io.StringIO()
    write_report_csv(report, seed, buf)
    return buf.getvalue()


def test_emit_report_csv_has_percent_rows():
    lines = _report_csv(build_report(ROUTINE_CM), seed=42).splitlines()
    assert lines[:2] == ["metric,label,value", "seed,,42"]
    assert "accuracy,,73.12%" in lines
    assert "precision,Eating Breakfast,100.00%" in lines
    assert "recall,Showering,94.12%" in lines
    assert lines[-1] == "grand_total,,93"


def test_emit_report_renders_undefined_metrics_as_na():
    cm = ConfusionMatrix(("A", "B"), ((1, 1), (0, 0)))
    assert "precision,B,n/a" in _report_csv(build_report(cm)).splitlines()


def test_report_json_round_trip():
    cm = ConfusionMatrix(("A", "B"), ((1, 1), (0, 0)))
    report = build_report(cm)
    buf = io.StringIO()
    write_report_json(report, buf)
    restored = json.loads(buf.getvalue())
    assert MetricsReport(
        labels=tuple(restored["labels"]),
        accuracy=restored["accuracy"],
        precision=restored["precision"],
        recall=restored["recall"],
        grand_total=restored["grand_total"],
        predicted_totals=restored["predicted_totals"],
        true_totals=restored["true_totals"],
    ) == report
    assert restored["precision"]["B"] is None


def test_confusion_csv_round_trip():
    buf = io.StringIO()
    write_confusion(APPLIANCE_CM, buf)
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("pred\\true,")
