"""Tracing of the engine's public functions from outside the program.

The CLI calls every stage through its module (``ingest_mod.parse_adl_log``,
``recog_mod.detect_occurrence``, ...), so replacing those attributes on the
``adl_engine.<module>`` objects puts a wrapper around each call without any
edit to the engine.  Spans stay in memory as ``[name, start, end, parent]``
lists and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import tracemalloc
from collections import Counter
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

# the public functions wrapped, per engine module; span names are
# "<module>.<function>"
TRACED = {
    "ingestion": [
        "parse_power_trace", "binarize", "segment_occurrences", "parse_adl_log",
        "write_occurrences", "merge_sorted", "read_occurrences",
    ],
    "recognition": ["detect_occurrence", "write_verdicts"],
    "affect": ["annotate", "train_ux_mapper", "write_annotated", "read_annotated"],
    "temporal": ["cluster_report", "write_clusters"],
    "recommender": ["extract_transitions", "train", "predict_confidences", "read_model"],
    "evaluation": ["split_chronological", "build_confusion", "build_report"],
    "config": ["load_config"],
    "definitions": ["load_definitions"],
}

ROOT = "cli"


def _counts_of(name: str, result: Any) -> dict[str, int]:
    """Work counts recorded where the work happens, from a function's result."""
    if name == "ingestion.parse_power_trace":
        return {"ingestion.samples": len(result)}
    if name == "recognition.detect_occurrence":
        return {"recognition.verdicts": 1, "recognition.completed": int(result.completed)}
    if name == "affect.annotate":
        return {
            "affect.annotations": len(result),
            "affect.positive": sum(1 for a in result if a.emotion.value == "positive"),
        }
    return {}


class Tracer:
    """Records one span per wrapped call, with its caller's span as parent."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        self.counts.update(_counts_of(name, result))
        return result

    def install(self, modules: dict[str, ModuleType]) -> None:
        for module_name, functions in TRACED.items():
            for function in functions:
                _replace(modules[module_name], function,
                         functools.partial(self.call, f"{module_name}.{function}"))
        # cli imported load_config by name, so its binding is replaced too
        _replace(modules["cli"], "load_config",
                 functools.partial(self.call, "config.load_config"))


class AllocProbe:
    """Peak traced allocation while any ingestion function runs.

    Tracing starts at the first ingestion call of an ingestion phase and
    stops when a function of another layer starts, so memory an earlier
    ingestion step still holds (the parsed samples while ``binarize`` runs)
    counts toward the peak of the later one, and later stages run untraced.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._depth = 0

    def ingest(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        if self._depth == 0:
            tracemalloc.reset_peak()
        self._depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])

    def other(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if self._depth == 0 and tracemalloc.is_tracing():
            tracemalloc.stop()
        return fn(*args, **kwargs)

    def install(self, modules: dict[str, ModuleType]) -> None:
        for module_name, functions in TRACED.items():
            call = self.ingest if module_name == "ingestion" else self.other
            for function in functions:
                _replace(modules[module_name], function, call)


def _replace(module: ModuleType, attr: str, call: Callable) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return call(fn, *args, **kwargs)

    setattr(module, attr, wrapper)


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter[str]]:
    """Per-name self time (duration minus direct children) and call count."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    calls: Counter[str] = Counter()
    for (name, _, _, _), seconds in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + seconds
        calls[name] += 1
    return totals, calls

