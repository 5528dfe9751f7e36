"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import checks
import gen
import run
import spans
import speed

sys.path.insert(0, str(run.SRC))

from adl_engine import cli  # noqa: E402


def _pipeline(work: Path, truth: gen.Truth) -> Path:
    gen.write_adl_log(work / "log.csv", truth)
    out = work / "out"
    gen.write_config(work / "config.json", run.ROOT / "definitions" / "adl.json",
                     [{"path": str(work / "log.csv"), "kind": "adl-log"}], out)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["pipeline", "--config", str(work / "config.json")]) == 0
    return out


def test_generators_are_deterministic(tmp_path: Path) -> None:
    assert gen.adl_truth(60, 3) == gen.adl_truth(60, 3)
    assert gen.adl_truth(60, 3) != gen.adl_truth(60, 4)
    first, again = tmp_path / "a", tmp_path / "b"
    for directory in (first, again):
        directory.mkdir()
        gen.write_adl_log(directory / "log.csv", gen.adl_truth(60, 3))
        gen.write_traces(directory, gen.trace_truth_and_lines(2, 3)[1])
    for name in ("log.csv", "microwave.dat", "tv.dat", "washing_machine.dat"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
    assert gen.trace_truth_and_lines(2, 3) != gen.trace_truth_and_lines(2, 4)


def test_trace_days_differ_and_plant_dropouts() -> None:
    truth, lines = gen.trace_truth_and_lines(4, 1)
    day = 86400
    by_day = [sorted((a, (s - truth[0][1]) % day) for a, s, _ in truth
                     if (s - truth[0][1]) // day == d) for d in range(4)]
    assert len({tuple(d) for d in by_day}) == 4
    watts = [float(line.split()[1]) for line in lines["microwave"]]
    # a dropout is a below-threshold sample with on-samples on both sides
    assert any(watts[i] <= gen.ON_WATTS < min(watts[i - 1], watts[i + 1])
               for i in range(1, len(watts) - 1))


def test_engine_reproduces_planted_trace_occurrences(tmp_path: Path) -> None:
    truth, lines = gen.trace_truth_and_lines(3, 5)
    gen.write_traces(tmp_path, lines)
    datasets = [{"path": str(tmp_path / f"{c}.dat"), "kind": "power-trace", "channel": c}
                for c in gen.CHANNEL_ACTIVITY]
    gen.write_config(tmp_path / "config.json", run.ROOT / "definitions" / "ukdale.json",
                     datasets, tmp_path / "out", gen.CHANNEL_ACTIVITY)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ingest", "--config", str(tmp_path / "config.json")]) == 0
    assert checks.occurrences_match(tmp_path / "out", truth) == []


def test_corrupted_prediction_row_counts_as_failure(tmp_path: Path) -> None:
    truth = gen.adl_truth(60, 2)
    out = _pipeline(tmp_path, truth)
    wl = run.Workload("adl-pipeline", tmp_path, tmp_path / "config.json", out,
                      truth, len(truth), [])
    checker, tally = run.Checker(wl), run.Tally()
    assert tally.record(checker.problems(out), "clean run")

    lines = (out / "predictions.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = "Sleeping" if cells[1] != "Sleeping" else "Leaving"
    lines[1] = ",".join(cells)
    (out / "predictions.csv").write_text("\n".join(lines) + "\n")
    assert checks.predictions_consistent(out)
    assert not tally.record(checker.problems(out), "corrupted run")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_stagewise_features_match_pipeline_predictions(tmp_path: Path) -> None:
    truth = gen.adl_truth(60, 2)
    out = _pipeline(tmp_path, truth)
    gen.write_feature_rows(tmp_path / "features.csv", truth)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["recommend", "--config", str(tmp_path / "config.json"),
                         "--features", str(tmp_path / "features.csv"),
                         "--model", str(out / "model.json"),
                         "--out", str(tmp_path / "stagewise")]) == 0
    assert ((tmp_path / "stagewise" / "predictions.csv").read_bytes()
            == (out / "predictions.csv").read_bytes())


def test_self_times_add_up_to_the_root() -> None:
    spans_list = [
        ["cli", 0.0, 10.0, -1],
        ["ingestion.parse_adl_log", 1.0, 4.0, 0],
        ["recognition.detect_occurrence", 5.0, 6.0, 0],
        ["recognition.detect_occurrence", 6.5, 7.0, 0],
        ["config.load_config", 1.5, 2.0, 1],
    ]
    own, calls = spans.self_times(spans_list)
    assert own == {"cli": 5.5, "ingestion.parse_adl_log": 2.5,
                   "recognition.detect_occurrence": 1.5, "config.load_config": 0.5}
    assert sum(own.values()) == 10.0
    assert calls["recognition.detect_occurrence"] == 2


def test_speed_reference_does_fixed_work() -> None:
    # the reference gauges the machine only if every run does the same work
    assert speed.reference() == speed.reference()
    assert speed.reference_s() > 0


def test_benchmark_json_lists_what_the_runner_prints() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
