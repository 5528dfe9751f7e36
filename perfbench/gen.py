"""Seeded input generators for the benchmark workloads.

Both generators are pure functions of their parameters and seed: the same
arguments give byte-identical files.  Each also returns the ground truth the
engine's ``occurrences.csv`` must reproduce, as ``(activity, start, end)``
tuples in the engine's ``(start, activity)`` order.

The routines mirror the bundled generators in ``scripts/`` but live here, so
a change to the bundled data never changes the benchmark's inputs.
"""

from __future__ import annotations

import csv
import json
import math
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

# first day is a Monday, as in the bundled data
START_DAY = datetime(2024, 3, 4, tzinfo=timezone.utc)

Truth = list[tuple[str, int, int]]

# engine settings every workload config spells out
TRAIN_FRACTION = 0.7
BUCKET_WIDTH = 30

# ---------------------------------------------------------------------------
# Daily-living annotation log
# ---------------------------------------------------------------------------

# adl-pipeline runs at the ROADMAP's 5,000-day scale; adl-stagewise runs half
# of it, so that twice as many of its slower jobs fit in one measurement
ADL_DAYS = 5000
STAGEWISE_DAYS = 2500

# (activity, base start minute, base end minute, probability of happening)
WEEKDAY_PLAN = [
    ("Sleeping", 5, 390, 1.0),
    ("Showering", 400, 415, 0.85),
    ("Eating Breakfast", 430, 455, 1.0),
    ("Leaving", 470, 765, 1.0),
    ("Eating Lunch", 780, 810, 1.0),
    ("Eating Snacks", 990, 1005, 0.75),
    ("Watching TV in Spare Time", 1140, 1290, 1.0),
]
WEEKEND_PLAN = [
    ("Sleeping", 5, 490, 1.0),
    ("Eating Breakfast", 510, 540, 1.0),
    ("Watching TV in Spare Time", 555, 690, 0.9),
    ("Eating Lunch", 750, 785, 1.0),
    ("Eating Snacks", 930, 950, 0.8),
    ("Showering", 1020, 1040, 0.7),
    ("Watching TV in Spare Time", 1170, 1320, 1.0),
]


def adl_truth(days: int, seed: int) -> Truth:
    """Planted occurrences of a ``days``-long log, with minute jitter and skips."""
    rng = random.Random(f"adl:{seed}")
    base = int(START_DAY.timestamp())
    truth: Truth = []
    for day in range(days):
        midnight = base + day * 86400
        weekday = (START_DAY + timedelta(days=day)).weekday()
        for activity, start_min, end_min, probability in (
            WEEKDAY_PLAN if weekday < 5 else WEEKEND_PLAN
        ):
            # draw jitter before the skip roll so skips do not shift later days
            offset = rng.randint(-5, 5)
            stretch = rng.randint(-3, 3)
            if rng.random() > probability:
                continue
            start = midnight + (start_min + offset) * 60
            end = midnight + (end_min + offset + stretch) * 60
            truth.append((activity, start, end))
    truth.sort(key=lambda t: (t[1], t[0]))
    return truth


def _stamp(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_adl_log(path: Path, truth: Truth) -> int:
    """Write the annotation log; returns its data-row count."""
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["start_iso8601", "end_iso8601", "activity"])
        for activity, start, end in truth:
            writer.writerow([_stamp(start), _stamp(end), activity])
    return len(truth)


def write_feature_rows(path: Path, truth: Truth) -> int:
    """Write the held-out tail of the log's transitions as a ``--features`` CSV.

    The log carries no sub-action evidence, so every occurrence scores 1.0
    and is completed, positive and good; the features are then the end-time
    bucket, the activity, and the weekday/weekend of the end time, and the
    label is the next activity.  The cut is the chronological split's
    ``ceil(n * TRAIN_FRACTION)``.  Returns the number of rows written.
    """
    transitions = list(zip(truth, truth[1:]))
    cut = math.ceil(len(transitions) * TRAIN_FRACTION - 1e-9)
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(
            ["time_bucket", "previous_activity", "emotion", "ux", "day_kind", "activity"]
        )
        for (activity, _, end), (next_activity, _, _) in transitions[cut:]:
            weekday = datetime.fromtimestamp(end, tz=timezone.utc).weekday()
            writer.writerow([
                (end % 86400) // 60 // BUCKET_WIDTH,
                activity,
                "positive",
                "good",
                "weekday" if weekday < 5 else "weekend",
                next_activity,
            ])
    return len(transitions) - cut


# ---------------------------------------------------------------------------
# Appliance power traces
# ---------------------------------------------------------------------------

TRACE_DAYS = 35
SAMPLE_PERIOD = 6
DAY_FIRST_MINUTE = 6 * 60   # sampling runs 06:00-22:00 each day
DAY_LAST_MINUTE = 22 * 60
GAP_TOLERANCE = 2           # dropouts up to this many samples are bridged
ON_WATTS = 10.0

CHANNEL_ACTIVITY = {
    "microwave": "Using Microwave",
    "tv": "Watching TV",
    "washing_machine": "Using Washing Machine",
}

# per channel: (base start minute, base length in minutes, watts, probability,
# probability of a pause long enough to split the session in two); only
# sessions of an hour or more may pause, so both halves keep 10+ samples
CHANNEL_PLANS = {
    "microwave": [
        (460, 6, 1250.0, 0.95, 0.0),   # breakfast
        (600, 3, 1250.0, 0.05, 0.0),   # mid-morning drink
        (765, 7, 1250.0, 0.95, 0.0),   # lunch
        (930, 3, 1250.0, 0.95, 0.0),   # afternoon snack
        (1125, 6, 1250.0, 0.95, 0.0),  # dinner
    ],
    "tv": [
        (400, 20, 85.0, 0.95, 0.0),    # morning news
        (840, 30, 85.0, 0.05, 0.0),    # after lunch
        (1020, 25, 85.0, 0.95, 0.0),   # late afternoon
        (1160, 135, 85.0, 0.95, 0.1),  # evening, sometimes paused
    ],
    "washing_machine": [
        (660, 70, 1900.0, 0.1, 1.0),   # wash, pause, rinse and spin
    ],
}


def _plan_channel_day(
    rng: random.Random, channel: str
) -> list[tuple[int, int, set[int], float]]:
    """On-runs for one channel-day as (first index, last index, dropouts, watts).

    Indices count samples from 06:00.  Every dropout is at most
    GAP_TOLERANCE samples long and strictly inside its run, so it is bridged;
    a pause is longer than GAP_TOLERANCE, so it splits the run in two.
    """
    per_minute = 60 // SAMPLE_PERIOD
    runs: list[tuple[int, int, set[int], float]] = []
    for base_start, length, watts, probability, pause_probability in CHANNEL_PLANS[channel]:
        # draw jitter before the skip roll so skips do not shift later days
        offset = rng.randint(-8, 8)
        stretch = rng.randint(-2, 2)
        pause_at = rng.random()
        pause_len = rng.randint(GAP_TOLERANCE + 3, 60)
        dropout_at = rng.random()
        dropout_len = rng.randint(1, GAP_TOLERANCE)
        wants_pause = rng.random() < pause_probability
        if rng.random() > probability:
            continue
        first = (base_start + offset - DAY_FIRST_MINUTE) * per_minute
        last = first + (length + stretch) * per_minute - 1
        pieces = [(first, last)]
        if wants_pause:
            cut = first + 10 + int(pause_at * (last - first - pause_len - 20))
            pieces = [(first, cut - 1), (cut + pause_len, last)]
        for lo, hi in pieces:
            # a dropout keeps at least one on-sample on each side
            at = lo + 1 + int(dropout_at * (hi - lo - dropout_len - 1))
            runs.append((lo, hi, set(range(at, at + dropout_len)), watts))
    return runs


def trace_truth_and_lines(days: int, seed: int) -> tuple[Truth, dict[str, list[str]]]:
    """Planted occurrences and per-channel ``timestamp watts`` lines."""
    samples_per_day = (DAY_LAST_MINUTE - DAY_FIRST_MINUTE) * 60 // SAMPLE_PERIOD
    base = int(START_DAY.timestamp())
    truth: Truth = []
    lines: dict[str, list[str]] = {}
    for channel, activity in CHANNEL_ACTIVITY.items():
        rng = random.Random(f"trace:{seed}:{channel}")
        out: list[str] = []
        for day in range(days):
            day_start = base + day * 86400 + DAY_FIRST_MINUTE * 60
            watts_by_index: dict[int, float] = {}
            for lo, hi, dropouts, nominal in _plan_channel_day(rng, channel):
                truth.append(
                    (activity, day_start + lo * SAMPLE_PERIOD, day_start + hi * SAMPLE_PERIOD)
                )
                for i in range(lo, hi + 1):
                    watts_by_index[i] = (
                        rng.uniform(0.0, 1.0) if i in dropouts
                        else nominal * rng.uniform(0.9, 1.1)
                    )
            for i in range(samples_per_day):
                watts = watts_by_index.get(i)
                if watts is None:
                    watts = rng.uniform(0.0, 2.5)  # standby floor
                out.append(f"{day_start + i * SAMPLE_PERIOD} {watts:.1f}")
        lines[channel] = out
    truth.sort(key=lambda t: (t[1], t[0]))
    return truth, lines


def write_traces(directory: Path, lines: dict[str, list[str]]) -> int:
    """Write one ``<channel>.dat`` per channel; returns the total sample count."""
    for channel, channel_lines in lines.items():
        (directory / f"{channel}.dat").write_text("\n".join(channel_lines) + "\n")
    return sum(len(v) for v in lines.values())


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

def write_config(path: Path, definitions: Path, datasets: list[dict], out_dir: Path,
                 channel_map: dict[str, str] | None = None) -> None:
    payload = {
        "definitions": [str(definitions)],
        "datasets": datasets,
        "channel_map": channel_map or {},
        "on_watts": ON_WATTS,
        "gap_tolerance": GAP_TOLERANCE,
        "train_fraction": TRAIN_FRACTION,
        "bucket_width": BUCKET_WIDTH,
        "out_dir": str(out_dir),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
