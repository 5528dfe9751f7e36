"""Benchmark runner for the adl-engine pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload adl-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The runner generates the workload's inputs from ``--seed``, then runs the
workload as a closed loop, one job at a time, each run in a fresh child
interpreter that drives the engine only through ``adl_engine.cli.main``.
Every run's artifacts are checked; a run that exits nonzero or fails a
check counts as failed.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, their timings scaled to
the machine's usual speed by the reference in ``speed.py``; with
``--trace 1`` they are the per-layer ones, from runs with every public
stage function wrapped in a span.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_RUNS = 3
CHILD_TIMEOUT_S = 150

WORKLOADS = ("adl-pipeline", "trace-pipeline", "adl-stagewise")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
}

CALL_COUNTED = (
    "recognition.detect_occurrence",
    "recommender.extract_transitions",
    "recommender.train",
    "recommender.predict_confidences",
)

PER_LAYER = {
    **{f"{m}.{f}.self_s": "s" for m, functions in spans.TRACED.items() for f in functions},
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    "ingestion.samples": "count",
    "ingestion.peak_alloc_mb": "MB",
    "recognition.completed_ratio": "fraction",
    "affect.positive_ratio": "fraction",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    work: Path
    config: Path
    out: Path
    truth: gen.Truth
    rows: int
    steps: list[list[str]]
    reference_steps: list[list[str]] = field(default_factory=list)


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Generate the seeded inputs and the workload's config in ``work``."""
    config = work / "config.json"
    out = work / "out"
    if name == "trace-pipeline":
        truth, lines = gen.trace_truth_and_lines(gen.TRACE_DAYS, seed)
        rows = gen.write_traces(work, lines)
        datasets = [
            {"path": str(work / f"{channel}.dat"), "kind": "power-trace", "channel": channel}
            for channel in gen.CHANNEL_ACTIVITY
        ]
        gen.write_config(config, ROOT / "definitions" / "ukdale.json", datasets, out,
                         gen.CHANNEL_ACTIVITY)
    else:
        days = gen.STAGEWISE_DAYS if name == "adl-stagewise" else gen.ADL_DAYS
        truth = gen.adl_truth(days, seed)
        rows = gen.write_adl_log(work / "adl_log.csv", truth)
        datasets = [{"path": str(work / "adl_log.csv"), "kind": "adl-log"}]
        gen.write_config(config, ROOT / "definitions" / "adl.json", datasets, out)

    pipeline = [["pipeline", "--config", str(config)]]
    if name != "adl-stagewise":
        return Workload(name, work, config, out, truth, rows, pipeline)
    features = work / "features.csv"
    gen.write_feature_rows(features, truth)
    steps = [
        [stage, "--config", str(config)]
        for stage in ("ingest", "recognize", "affect", "cluster", "train")
    ]
    steps.append(["recommend", "--config", str(config), "--features", str(features)])
    steps.append(["evaluate", "--config", str(config)])
    reference = [pipeline[0] + ["--out", str(work / "reference")]]
    return Workload(name, work, config, out, truth, rows, steps, reference)


# ---------------------------------------------------------------------------
# Child runs
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"FAIL {what}: {problem}", file=sys.stderr)
        return not problems


def _child(args: list[str]) -> list[str]:
    """Run child.py with ``args``; returns problems (empty when it exited 0)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return [f"child timed out after {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return [f"child exited {proc.returncode}: {tail[0]}"]
    return []


def setup_probe(wl: Workload, tally: Tally) -> dict | None:
    """One set-up child: its ``setup_s`` and the machine's ``reference_s``."""
    result = wl.work / "setup.json"
    result.unlink(missing_ok=True)
    problems = _child(["setup", str(SRC), str(wl.config), str(result)])
    if not tally.record(problems, "setup"):
        return None
    return json.loads(result.read_text())


@dataclass
class Checker:
    """Checks each job's artifacts.

    The first job's artifacts get the content checks.  Every later job must
    be byte-identical to the first, so it passes the same content checks.
    """

    wl: Workload
    first: dict[str, str] | None = None
    reference: dict[str, str] | None = None
    accuracy: float | None = None

    def problems(self, out: Path) -> list[str]:
        got = checks.digests(out)
        if self.first is None:
            problems = checks.occurrences_match(out, self.wl.truth)
            problems += checks.predictions_consistent(out)
            if not problems:
                self.first = got
                self.accuracy = json.loads((out / "report.json").read_text())["accuracy"]
        else:
            problems = checks.same_artifacts(got, self.first, "digest vs first job on this seed")
        if self.reference is not None:
            problems += checks.same_artifacts(got, self.reference, "stagewise vs pipeline")
        return problems


def run_once(wl: Workload, mode: str, steps: list[list[str]], out: Path,
             checker: Checker, tally: Tally) -> dict | None:
    """One closed-loop job: fresh output directory, child run, checks."""
    shutil.rmtree(out, ignore_errors=True)
    result_path = wl.work / "result.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "mode": mode, "steps": steps, "result": str(result_path)}
    spec_path = wl.work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    problems = _child([str(spec_path)])
    result = None
    if not problems:
        result = json.loads(result_path.read_text())
        if any(code != 0 for code in result["codes"]):
            problems.append(f"cli exit codes {result['codes']}")
        else:
            try:
                problems += checker.problems(out)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable artifacts: {exc!r}")
    ok = tally.record(problems, f"{wl.name} {mode} run")
    return result if ok else None


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _median(values: list[float], what: str) -> float:
    if not values:
        raise BenchError(f"no successful sample for {what}")
    return statistics.median(values)


def _give_up_if_failing(tally: Tally) -> None:
    if tally.failed > MIN_RUNS and tally.failed * 2 > tally.attempted:
        raise BenchError("most jobs failed")


def _checker(wl: Workload, tally: Tally) -> Checker:
    checker = Checker(wl)
    if wl.reference_steps:
        reference_out = wl.work / "reference"
        if run_once(wl, "run", wl.reference_steps, reference_out, Checker(wl), tally) is None:
            raise BenchError("the pipeline reference run failed")
        checker.reference = checks.digests(reference_out)
    return checker


def measure_end_to_end(wl: Workload, deadline: float,
                       tally: Tally) -> tuple[dict[str, tuple], dict[str, float]]:
    """End-to-end metrics, and the unscaled medians they came from."""
    setup_probe(wl, tally)  # warm-up: the first import may compile bytecode
    checker = _checker(wl, tally)

    # a set-up probe before each job and one after the last, so every job
    # sits between two readings of the machine's speed
    probes: list[dict | None] = [setup_probe(wl, tally)]
    runs: list[tuple[dict, float]] = []
    while len(runs) < MIN_RUNS or time.monotonic() < deadline:
        result = run_once(wl, "run", wl.steps, wl.out, checker, tally)
        probes.append(setup_probe(wl, tally))
        speeds = [p["reference_s"] for p in probes[-2:] if p is not None]
        if result is not None and speeds:
            runs.append((result, speed.REFERENCE_S / statistics.mean(speeds)))
        _give_up_if_failing(tally)

    setups = [(p["setup_s"], speed.REFERENCE_S / p["reference_s"]) for p in probes if p]
    run_s = [r["run_s"] * scale for r, scale in runs]
    metrics = {
        "setup_s": (_median([s * scale for s, scale in setups], "setup_s"), len(setups)),
        "run_s": (_median(run_s, "run_s"), len(run_s)),
        "rows_per_s": (_median([wl.rows / s for s in run_s], "rows_per_s"), len(run_s)),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r, _ in runs], "peak_rss_mb"), len(runs)),
        "accuracy": (checker.accuracy, len(runs)),
    }
    unscaled = {
        "setup_s": statistics.median(s for s, _ in setups),
        "run_s": statistics.median(r["run_s"] for r, _ in runs),
        "reference_s": statistics.median(p["reference_s"] for p in probes if p),
    }
    return metrics, unscaled


def measure_per_layer(wl: Workload, deadline: float, tally: Tally) -> dict[str, tuple]:
    checker = _checker(wl, tally)
    alloc = run_once(wl, "alloc", wl.steps, wl.out, checker, tally)
    if alloc is None:
        raise BenchError("the allocation-tracing job failed")
    plain: list[dict] = []
    traced: list[dict] = []
    while len(traced) < MIN_RUNS or time.monotonic() < deadline:
        for mode in ("run", "trace"):
            result = run_once(wl, mode, wl.steps, wl.out, checker, tally)
            if result is not None:
                (plain if mode == "run" else traced).append(result)
        _give_up_if_failing(tally)

    # report one whole traced run, the median by traced run time, so its
    # self times add up to its run time
    for result in traced:
        result["run_s"] = sum(end - start for _, start, end, parent in result["spans"] if parent < 0)
    traced.sort(key=lambda r: r["run_s"])
    pick = traced[(len(traced) - 1) // 2]
    self_s, calls = spans.self_times(pick["spans"])
    counts = pick["counts"]
    n = len(traced)

    metrics: dict[str, tuple] = {}
    for module, functions in spans.TRACED.items():
        for function in functions:
            metrics[f"{module}.{function}.self_s"] = (self_s.get(f"{module}.{function}", 0.0), n)
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), n)
    metrics["ingestion.samples"] = (counts.get("ingestion.samples", 0), n)
    metrics["ingestion.peak_alloc_mb"] = (alloc["peak_alloc_mb"], 1)
    metrics["recognition.completed_ratio"] = (
        counts.get("recognition.completed", 0) / max(counts.get("recognition.verdicts", 0), 1), n)
    metrics["affect.positive_ratio"] = (
        counts.get("affect.positive", 0) / max(counts.get("affect.annotations", 0), 1), n)
    metrics["cli.self_s"] = (self_s[spans.ROOT], n)
    metrics["trace.run_s"] = (pick["run_s"], n)
    metrics["trace.overhead_s"] = (
        pick["run_s"] - _median([r["run_s"] for r in plain], "run_s"), n)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally]:
    """Measure one workload for ``seconds`` of wall time, input generation included."""
    deadline = time.monotonic() + seconds
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        wl = prepare(name, seed, work)
        if trace:
            metrics, unscaled = measure_per_layer(wl, deadline, tally), {}
        else:
            metrics, unscaled = measure_end_to_end(wl, deadline, tally)
        _print_summary(name, seed, wl.rows, metrics, tally, PER_LAYER if trace else END_TO_END)
        for metric, value in unscaled.items():
            print(f"  {'unscaled ' + metric:44s} {value:>16.6g} {'s':9s}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, tally


def _print_summary(name: str, seed: int, rows: int, metrics: dict[str, tuple],
                   tally: Tally, units: dict[str, str]) -> None:
    print(f"{name} (seed {seed}, {rows} input rows)")
    for metric, (value, samples) in metrics.items():
        print(f"  {metric:44s} {value:>16.6g} {units[metric]:9s} n={samples}")
    print(f"  {'failed_frac':44s} {tally.failed / tally.attempted:>16.6g} {'fraction':9s}"
          f" ({tally.failed} of {tally.attempted} jobs)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adl_engine" / "cli.py").is_file():
        print(f"error: engine source not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    results: dict[str, dict] = {}
    total = Tally()
    try:
        for name in names:
            metrics, tally = measure(name, args.seed, args.seconds, bool(args.trace))
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, (value, _) in metrics.items():
                results[prefix + metric] = {"value": value, "unit": units[metric]}
            total.attempted += tally.attempted
            total.failed += tally.failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
