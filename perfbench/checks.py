"""Output checks made on every benchmark run.

Each check returns a list of problems; an empty list means the artifacts
passed.  A run with any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from gen import Truth


def occurrences_match(out: Path, truth: Truth) -> list[str]:
    """``occurrences.csv`` (activity, start, end) equals the generator's truth."""
    with open(out / "occurrences.csv", newline="") as stream:
        got = [(r["activity"], int(r["start"]), int(r["end"])) for r in csv.DictReader(stream)]
    if got == truth:
        return []
    if len(got) != len(truth):
        return [f"occurrences.csv has {len(got)} occurrences, generator planted {len(truth)}"]
    first = next(i for i, (g, t) in enumerate(zip(got, truth)) if g != t)
    return [f"occurrences.csv row {first + 2} is {got[first]}, generator planted {truth[first]}"]


def predictions_consistent(out: Path) -> list[str]:
    """Confidence rows sum to 1, argmax is the prediction, report recounts."""
    problems: list[str] = []
    with open(out / "predictions.csv", newline="") as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            return ["predictions.csv is empty"]
        names = [h[len("confidence("):-1] for h in header[2:]]
        total = correct = 0
        for lineno, row in enumerate(reader, start=2):
            try:
                values = [float(v) for v in row[2:]]
            except ValueError:
                problems.append(f"predictions.csv line {lineno}: non-numeric confidence")
                continue
            if len(values) != len(names) or not values:
                problems.append(f"predictions.csv line {lineno}: {len(values)} confidences")
                continue
            if abs(math.fsum(values) - 1.0) > 1e-9:
                problems.append(f"predictions.csv line {lineno}: confidences sum to {math.fsum(values)!r}")
            # columns are in sorted activity order, so the first maximum is the
            # lexicographically first of any tie
            best = names[values.index(max(values))]
            if best != row[1]:
                problems.append(f"predictions.csv line {lineno}: argmax {best!r}, prediction {row[1]!r}")
            total += 1
            correct += row[0] == row[1]
    report = json.loads((out / "report.json").read_text())
    if report["grand_total"] != total:
        problems.append(f"report.json grand_total {report['grand_total']}, predictions.csv has {total}")
    elif total and report["accuracy"] != correct / total:
        problems.append(f"report.json accuracy {report['accuracy']!r}, recount {correct / total!r}")
    return problems


def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact in the output directory, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir()) if path.is_file()
    }


def same_artifacts(got: dict[str, str], want: dict[str, str], what: str) -> list[str]:
    """Every artifact in ``want`` exists in ``got`` with the same bytes."""
    missing = sorted(set(want) - set(got))
    differ = sorted(name for name in set(want) & set(got) if got[name] != want[name])
    problems = [f"{what}: missing {name}" for name in missing]
    problems += [f"{what}: {name} differs" for name in differ]
    return problems
