"""Relations between whole `pipeline` runs on related inputs.

The golden digests pin the artifacts of one input.  These tests check how
the artifacts of two inputs must relate, which catches a clock, split or
merge fault that leaves every artifact well formed.

Week shift: the engine reads a stamp only through its minute of the day and
its weekday, so moving every stamp of the bundled log by whole weeks leaves
every artifact that holds no stamp byte-identical.  A one-day shift moves
each occurrence's weekday; it is the control that shows the relation can
fail.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timedelta
from pathlib import Path

import pytest

from adl_engine.cli import main
from helpers import DATA_DIR, DEFINITIONS_DIR

# the artifacts that hold no stamp
UNSTAMPED = (
    "model.json", "predictions.csv", "confusion.csv", "report.csv", "report.json",
    "clusters.csv",
)
STAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def _shifted_log(days: int) -> str:
    """The bundled annotation log with every stamp moved by ``days`` days."""
    rows = list(csv.reader(io.StringIO((DATA_DIR / "adl_log.csv").read_text())))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0])
    for start, end, activity in rows[1:]:
        writer.writerow([
            (datetime.strptime(stamp, STAMP_FORMAT) + timedelta(days=days))
            .strftime(STAMP_FORMAT)
            for stamp in (start, end)
        ] + [activity])
    return out.getvalue()


def _pipeline(tmp_path: Path, capsys, days: int) -> tuple[dict[str, bytes], str]:
    """The artifacts and the stdout, with the output path taken out, of
    `pipeline` on the bundled log shifted by ``days`` days."""
    work = tmp_path / f"shift{days:+d}"
    work.mkdir()
    (work / "log.csv").write_text(_shifted_log(days))
    config = work / "config.json"
    config.write_text(json.dumps({
        "definitions": [str(DEFINITIONS_DIR / "adl.json")],
        "datasets": [{"path": "log.csv", "kind": "adl-log"}],
    }))
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config)]) == 0
    out = work / "out"
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    return {p.name: p.read_bytes() for p in out.iterdir()}, stdout


def test_the_shift_moves_only_the_stamps():
    assert _shifted_log(0) == (DATA_DIR / "adl_log.csv").read_text()
    shifted = _shifted_log(7).splitlines()
    assert shifted[1].startswith("2024-03-11T00:05:00Z,2024-03-11T06:28:00Z,")


@pytest.mark.parametrize("days", [7, -14])
def test_a_whole_week_shift_keeps_every_unstamped_artifact(tmp_path, capsys, days):
    base, base_stdout = _pipeline(tmp_path, capsys, 0)
    moved, moved_stdout = _pipeline(tmp_path, capsys, days)
    assert set(moved) == set(base)
    for name in UNSTAMPED:
        assert moved[name] == base[name], name
    assert moved["occurrences.csv"] != base["occurrences.csv"]
    assert moved_stdout == base_stdout


def test_a_one_day_shift_moves_the_day_kind(tmp_path, capsys):
    base, base_stdout = _pipeline(tmp_path, capsys, 0)
    moved, moved_stdout = _pipeline(tmp_path, capsys, 1)
    assert moved["model.json"] != base["model.json"]
    assert "accuracy: 85.71% over 42 pairs" in base_stdout
    assert "accuracy: 80.95% over 42 pairs" in moved_stdout
