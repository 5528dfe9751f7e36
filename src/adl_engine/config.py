"""Run configuration: one JSON document collecting every tunable knob.

Flags override config keys, config keys override defaults.  Relative paths
inside a config file resolve against the file's own directory, so a config
can travel with its data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .temporal import MINUTES_PER_DAY

DATASET_KINDS = ("power-trace", "adl-log")
SPLIT_KINDS = ("chronological", "random")


class ConfigError(ValueError):
    """A config document failed to parse or a key is out of range."""


@dataclass(frozen=True)
class DatasetSpec:
    """One input file: a power-trace channel or an annotation log."""

    path: str
    kind: str
    channel: str | None = None


@dataclass(frozen=True)
class RunConfig:
    definitions: tuple[str, ...] = ()
    datasets: tuple[DatasetSpec, ...] = ()
    channel_map: dict[str, str] = field(default_factory=dict)
    on_watts: float = 10.0
    gap_tolerance: int = 2
    lam: float = 0.5
    window: int = 5
    epsilon: float = 0.05
    bucket_width: int = 30
    alpha: float = 1.0
    train_fraction: float = 0.7
    split: str = "chronological"
    seed: int = 0
    out_dir: str = "out"


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"config key {key!r}: {message}")


def validate_config(config: RunConfig) -> None:
    _require(config.on_watts > 0, "on_watts", f"must be > 0, got {config.on_watts}")
    _require(
        config.gap_tolerance >= 0, "gap_tolerance",
        f"must be >= 0, got {config.gap_tolerance}",
    )
    _require(0.0 <= config.lam <= 1.0, "lambda", f"must be in [0, 1], got {config.lam}")
    _require(config.window >= 1, "window", f"must be >= 1, got {config.window}")
    _require(config.epsilon >= 0, "epsilon", f"must be >= 0, got {config.epsilon}")
    _require(
        1 <= config.bucket_width <= MINUTES_PER_DAY, "bucket_width",
        f"must be in [1, {MINUTES_PER_DAY}], got {config.bucket_width}",
    )
    _require(config.alpha > 0, "alpha", f"must be > 0, got {config.alpha}")
    _require(
        0.0 < config.train_fraction < 1.0, "train_fraction",
        f"must be in (0, 1), got {config.train_fraction}",
    )
    _require(
        config.split in SPLIT_KINDS, "split",
        f"must be one of {SPLIT_KINDS}, got {config.split!r}",
    )
    _require(config.seed >= 0, "seed", f"must be >= 0, got {config.seed}")
    for spec in config.datasets:
        _require(
            spec.kind in DATASET_KINDS, "datasets",
            f"kind must be one of {DATASET_KINDS}, got {spec.kind!r}",
        )
        if spec.kind == "power-trace":
            _require(
                bool(spec.channel), "datasets",
                f"power-trace entry {spec.path!r} needs a channel name",
            )


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON config into a fully defaulted, validated RunConfig."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config document must be a JSON object")

    base = path.parent

    def resolve(p: str) -> str:
        candidate = Path(p)
        return str(candidate if candidate.is_absolute() else base / candidate)

    defaults = RunConfig()
    known = {
        "definitions", "datasets", "channel_map", "on_watts", "gap_tolerance",
        "lambda", "window", "epsilon", "bucket_width", "alpha",
        "train_fraction", "split", "seed", "out_dir",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")

    raw_defs = payload.get("definitions", [])
    if isinstance(raw_defs, str):
        raw_defs = [raw_defs]
    _require(
        isinstance(raw_defs, list) and all(isinstance(p, str) for p in raw_defs),
        "definitions", f"must be a path or a list of paths, got {raw_defs!r}",
    )
    definitions = tuple(resolve(p) for p in raw_defs)

    raw_datasets = payload.get("datasets", [])
    _require(
        isinstance(raw_datasets, list), "datasets",
        f"must be a list of entries, got {raw_datasets!r}",
    )
    datasets = []
    for entry in raw_datasets:
        if not isinstance(entry, dict) or "path" not in entry or "kind" not in entry:
            raise ConfigError(
                f"{path}: each datasets entry needs 'path' and 'kind', got {entry!r}"
            )
        channel = entry.get("channel")
        _require(
            isinstance(entry["path"], str) and isinstance(channel, (str, type(None))),
            "datasets", f"'path' and 'channel' must be strings, got {entry!r}",
        )
        datasets.append(
            DatasetSpec(path=resolve(entry["path"]), kind=entry["kind"], channel=channel)
        )

    channel_map = payload.get("channel_map", {})
    _require(
        isinstance(channel_map, dict)
        and all(isinstance(a, str) for a in channel_map.values()),
        "channel_map", f"must map channel names to activity names, got {channel_map!r}",
    )

    def number(key: str, default: float) -> float:
        value = payload.get(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r}: must be a number, got {value!r}")
        return float(value)

    def integer(key: str, default: int) -> int:
        value = payload.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r}: must be an integer, got {value!r}")
        return value

    config = RunConfig(
        definitions=definitions,
        datasets=tuple(datasets),
        channel_map=channel_map,
        on_watts=number("on_watts", defaults.on_watts),
        gap_tolerance=integer("gap_tolerance", defaults.gap_tolerance),
        lam=number("lambda", defaults.lam),
        window=integer("window", defaults.window),
        epsilon=number("epsilon", defaults.epsilon),
        bucket_width=integer("bucket_width", defaults.bucket_width),
        alpha=number("alpha", defaults.alpha),
        train_fraction=number("train_fraction", defaults.train_fraction),
        split=str(payload.get("split", defaults.split)),
        seed=integer("seed", defaults.seed),
        out_dir=resolve(str(payload.get("out_dir", defaults.out_dir))),
    )
    validate_config(config)
    return config


def with_overrides(config: RunConfig, **overrides: object) -> RunConfig:
    """Apply non-None keyword overrides, re-validating the result."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    updated = replace(config, **changes) if changes else config
    validate_config(updated)
    return updated
