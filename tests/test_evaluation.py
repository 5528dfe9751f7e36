from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl_engine.evaluation import (
    ConfusionMatrix,
    MetricsReport,
    build_confusion,
    build_report,
    split_chronological,
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


# ---------------------------------------------------------------------------
# Matrix construction
# ---------------------------------------------------------------------------

def test_build_confusion_empty_pairs():
    cm = build_confusion([], ["A", "B"])
    assert cm.counts == ((0, 0), (0, 0))


def test_build_confusion_tallies_cells():
    pairs = [("A", "A"), ("A", "A"), ("A", "A"), ("B", "A"), ("A", "B")]
    cm = build_confusion(pairs, ["A", "B"])
    assert cm.counts == ((3, 1), (1, 0))
    report = build_report(cm)
    assert report.accuracy == 3 / 5
    assert report.predicted_totals == {"A": 4, "B": 1}
    assert report.true_totals == {"A": 4, "B": 1}


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


# ---------------------------------------------------------------------------
# Metrics on the frozen benchmark matrices
# ---------------------------------------------------------------------------

def test_appliance_matrix_accuracy():
    assert build_report(APPLIANCE_CM).accuracy * 100 == pytest.approx(
        APPLIANCE_ACCURACY_PCT, abs=5e-3)


def test_routine_matrix_accuracy():
    assert build_report(ROUTINE_CM).accuracy * 100 == pytest.approx(
        ROUTINE_ACCURACY_PCT, abs=5e-3)


def test_routine_matrix_precision_and_recall():
    report = build_report(ROUTINE_CM)
    for label in ROUTINE_LABELS:
        assert report.precision[label] * 100 == pytest.approx(
            ROUTINE_PRECISION_PCT[label], abs=5e-3), label
        assert report.recall[label] * 100 == pytest.approx(
            ROUTINE_RECALL_PCT[label], abs=5e-3), label


def test_diagonal_matrix_is_perfect():
    report = build_report(ConfusionMatrix(("A", "B"), ((3, 0), (0, 2))))
    assert report.accuracy == 1.0
    assert report.precision["A"] == 1.0
    assert report.recall["B"] == 1.0


def test_accuracy_undefined_on_empty_matrix():
    cm = build_confusion([], ["A", "B"])
    with pytest.raises(ValueError):
        build_report(cm)


def test_metrics_undefined_on_zero_denominators():
    # B never predicted, C never true
    report = build_report(
        ConfusionMatrix(("A", "B", "C"), ((2, 1, 0), (0, 0, 0), (0, 1, 0)))
    )
    assert report.precision["B"] is None
    assert report.recall["B"] == 0.0
    assert report.recall["C"] is None
    assert report.precision["C"] == 0.0


@settings(max_examples=200, derandomize=True)
@given(
    labels=st.permutations(["A", "B", "C"]),
    pairs=st.lists(st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC")), max_size=50),
)
def test_tally_conserves_pairs(labels, pairs):
    """Every cell and every report field against a recount of the
    (predicted, true) pairs; a metric whose total is 0 is None."""
    cm = build_confusion(pairs, labels)
    assert cm.labels == tuple(labels)
    assert cm.counts == tuple(
        tuple(pairs.count((predicted, true)) for true in labels) for predicted in labels
    )
    if not pairs:
        with pytest.raises(ValueError):
            build_report(cm)
        return
    report = build_report(cm)
    assert report.labels == tuple(labels)
    assert report.grand_total == len(pairs)
    hits = sum(1 for p, t in pairs if p == t)
    assert report.accuracy == hits / len(pairs)
    assert (report.accuracy == 1.0) == all(p == t for p, t in pairs)
    for label in labels:
        # the true labels of the pairs that predicted ``label``, and the
        # predictions of the pairs whose true label it is
        trues = [t for p, t in pairs if p == label]
        predictions = [p for p, t in pairs if t == label]
        assert report.predicted_totals[label] == len(trues)
        assert report.true_totals[label] == len(predictions)
        assert report.precision[label] == (
            trues.count(label) / len(trues) if trues else None
        ), label
        assert report.recall[label] == (
            predictions.count(label) / len(predictions) if predictions else None
        ), label
    assert list(report.predicted_totals) == list(report.true_totals) == labels
    assert list(report.precision) == list(report.recall) == labels


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _report_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    write_report_csv(report, buf)
    return buf.getvalue()


def test_emit_report_csv_has_percent_rows():
    lines = _report_csv(build_report(ROUTINE_CM)).splitlines()
    assert lines[:2] == ["metric,label,value", "accuracy,,73.12%"]
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
