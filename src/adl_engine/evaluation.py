"""Chronological splitting, confusion matrices, and accuracy/precision/recall.

The confusion matrix follows the predicted-rows/true-columns orientation and
records its label order.  `build_report` derives every metric from the
counts: accuracy divides the diagonal by the grand total, per-class precision
divides the diagonal cell by its row sum, recall by its column sum.  A zero
denominator yields an undefined metric, reported as n/a rather than 0 so
averages stay honest.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Sequence, TextIO, TypeVar

from .config import check_param
from .tables import csv_field, write_table

T = TypeVar("T")


class ConfusionMatrix:
    """Square count matrix, rows = predicted label, columns = true label."""

    __slots__ = ("labels", "counts")

    def __init__(
        self, labels: tuple[str, ...], counts: tuple[tuple[int, ...], ...]
    ) -> None:
        n = len(labels)
        if len(counts) != n or any(len(row) != n for row in counts):
            raise ValueError(f"counts must be {n}x{n} to match labels")
        if any(c < 0 for row in counts for c in row):
            raise ValueError("counts must be non-negative")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        self.labels = labels
        self.counts = counts


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split_chronological(
    records: Sequence[T], train_fraction: float
) -> tuple[list[T], list[T]]:
    """First ceil(n * fraction) records train, the rest test; no shuffling."""
    check_param("train_fraction", train_fraction)
    # guard against float products like 93*0.7 landing a hair above the integer
    cut = math.ceil(len(records) * train_fraction - 1e-9)
    return list(records[:cut]), list(records[cut:])


# ---------------------------------------------------------------------------
# Matrix construction and metrics
# ---------------------------------------------------------------------------

def build_confusion(
    pairs: Sequence[tuple[str, str]], labels: Sequence[str]
) -> ConfusionMatrix:
    """Tally (predicted, true) pairs into a matrix over the given labels."""
    index = {label: i for i, label in enumerate(labels)}
    counts = [[0] * len(labels) for _ in labels]
    for predicted, true in pairs:
        if predicted not in index:
            raise KeyError(f"unknown predicted label {predicted!r}")
        if true not in index:
            raise KeyError(f"unknown true label {true!r}")
        counts[index[predicted]][index[true]] += 1
    return ConfusionMatrix(
        labels=tuple(labels), counts=tuple(tuple(row) for row in counts)
    )


class MetricsReport(NamedTuple):
    """Accuracy plus per-class precision/recall and the matrix totals."""

    labels: tuple[str, ...]
    accuracy: float
    precision: dict[str, float | None]
    recall: dict[str, float | None]
    grand_total: int
    predicted_totals: dict[str, int]
    true_totals: dict[str, int]


def build_report(cm: ConfusionMatrix) -> MetricsReport:
    """Every metric from the matrix's row totals, column totals and diagonal;
    an empty matrix has no accuracy and raises ValueError."""
    labels = cm.labels
    predicted = [sum(row) for row in cm.counts]
    true = [sum(column) for column in zip(*cm.counts)]
    hits = [row[i] for i, row in enumerate(cm.counts)]
    total = sum(predicted)
    if total == 0:
        raise ValueError("accuracy undefined for an empty matrix")
    return MetricsReport(
        labels=labels,
        accuracy=sum(hits) / total,
        precision={label: h / n if n else None
                   for label, h, n in zip(labels, hits, predicted)},
        recall={label: h / n if n else None
                for label, h, n in zip(labels, hits, true)},
        grand_total=total,
        predicted_totals=dict(zip(labels, predicted)),
        true_totals=dict(zip(labels, true)),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _percent(value: float | None) -> str:
    return "n/a" if value is None else f"{value * 100:.2f}%"


def write_report_csv(report: MetricsReport, stream: TextIO) -> None:
    """The report as a metric,label,value table: accuracy, then precision and
    recall per label, then the grand total; percentages print with two
    decimals, n/a when undefined."""
    lines = [f"accuracy,,{_percent(report.accuracy)}\n"]
    for metric, values in (("precision", report.precision), ("recall", report.recall)):
        lines.extend(
            f"{metric},{csv_field(label)},{_percent(values[label])}\n"
            for label in report.labels
        )
    lines.append(f"grand_total,,{report.grand_total!s}\n")
    write_table(stream, ["metric", "label", "value"], lines)


def write_report_json(report: MetricsReport, stream: TextIO) -> None:
    """The report as one JSON object with sorted keys; undefined metrics are null."""
    stream.write(json.dumps(report._asdict(), sort_keys=True, indent=2) + "\n")


# the header's first field, above the column of row labels
CONFUSION_CORNER = "pred\\true"


def write_confusion(cm: ConfusionMatrix, stream: TextIO) -> None:
    """CSV grid: label header row/column, predicted rows by true columns."""
    write_table(stream, [CONFUSION_CORNER, *cm.labels], (
        f"{csv_field(label)},{','.join(map(str, row))}\n"
        for label, row in zip(cm.labels, cm.counts)
    ))
