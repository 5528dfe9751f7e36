"""A fixed pure-Python reference workload that gauges the machine's speed.

The benchmark's host is a shared virtual machine whose speed drifts by a
third or more over minutes, as other tenants load the physical host.  Every
set-up probe also times this reference, and the runner scales the probe's
and the neighbouring jobs' times by ``REFERENCE_S / reference time``, so
the timings read as if the machine had run at its usual speed.

The reference uses nothing of the engine, so a change to the engine never
changes its time; only the machine does.  It has two parts.  One resembles
the engine's own work: text parsing, dict grouping over tens of thousands of
records, sorting, and a pass over the sorted runs.  The other, which takes a
little more time, is a tight integer loop.  Measured alone on a host whose
speed drifted, the first part slowed more than the engine, and the loop
about as much; together they track the engine more closely than either.
"""

from __future__ import annotations

import random
from time import perf_counter

RECORDS = 20_000
LOOP = 1_000_000
REPEATS = 3

# the reference's usual median time on the machine where the bounds in
# BENCHMARK.json were set: a 2-vCPU KVM guest on a Xeon host, Python 3.11
REFERENCE_S = 0.13


def reference() -> float:
    rng = random.Random(20210715)
    lines = [
        f"act{rng.randrange(48)},{rng.randrange(10**7)},{rng.random():.6f}"
        for _ in range(RECORDS)
    ]
    groups: dict[str, list[tuple[int, float]]] = {}
    for line in lines:
        activity, start, score = line.split(",")
        groups.setdefault(activity, []).append((int(start), float(score)))
    index = {}
    total = 0.0
    for activity, items in groups.items():
        items.sort()
        previous = items[0][0]
        for start, score in items:
            total += (start - previous) * score
            index[(activity, start)] = score
            previous = start
    for line in lines:
        activity, start, _ = line.split(",")
        total += index[(activity, int(start))]
    x = 0
    for i in range(LOOP):
        x = (x * 31 + i) & 0xFFFF
    return total + x


def reference_s() -> float:
    """The median time of ``REPEATS`` reference runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        reference()
        times.append(perf_counter() - start)
    return sorted(times)[REPEATS // 2]
