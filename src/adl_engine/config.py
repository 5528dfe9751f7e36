"""Run configuration: one JSON document collecting every tunable knob.

Flags override config keys, config keys override defaults.  Relative paths
inside a config file resolve against the file's own directory, so a config
can travel with its data.  Each scalar parameter is declared once, as a
`RunConfig` field, and the loader, `validate_config` and the CLI flags all
read that declaration: a wrong type, a non-finite number or an out-of-range
value is a `ConfigError` naming the config key, from JSON or from a flag.
Engine functions take their parameters' defaults from the `RunConfig`
fields and check a value with `check_param`, which applies the same rule.
"""

import json
import math
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .temporal import MINUTES_PER_DAY

DATASET_KINDS = ("power-trace", "adl-log")
SPLIT_KINDS = ("chronological", "random")


class ConfigError(ValueError):
    """A config document failed to parse or a key is out of range."""


class DatasetSpec(NamedTuple):
    """One input file: a power-trace channel or an annotation log."""

    path: str
    kind: str
    channel: str | None = None


def _param(
    default: Any, help: str, check: Callable[[Any], bool] = lambda value: True,
    rule: str = "", **names: str,
) -> Any:
    """A scalar parameter whose values must pass `check`; `rule` says how.

    `names` may give its config `key`, if not the field name, and its `flag`,
    if not the key with dashes (`bucket_width`, `--bucket-width`).
    """
    metadata = dict(names, help=help, check=check, rule=rule)
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class RunConfig:
    definitions: tuple[str, ...] = ()
    datasets: tuple[DatasetSpec, ...] = ()
    channel_map: dict[str, str] = field(default_factory=dict)
    out_dir: str = _param(
        "out", "output directory (overrides config)", lambda v: v != "", "non-empty",
        flag="--out",
    )
    seed: int = _param(0, "seed for randomized splitting", lambda v: v >= 0, ">= 0")
    on_watts: float = _param(
        10.0, "power on-threshold in watts", lambda v: v > 0, "> 0"
    )
    gap_tolerance: int = _param(
        2, "max off-samples bridged inside an occurrence", lambda v: v >= 0, ">= 0"
    )
    lam: float = _param(
        0.5, "atomic-side blend share in [0, 1]", lambda v: 0.0 <= v <= 1.0,
        "in [0, 1]", key="lambda",
    )
    window: int = _param(5, "score history window size", lambda v: v >= 1, ">= 1")
    epsilon: float = _param(
        0.05, "score slack below history mean", lambda v: v >= 0, ">= 0"
    )
    bucket_width: int = _param(
        30, "time bucket width in minutes", lambda v: 1 <= v <= MINUTES_PER_DAY,
        f"in [1, {MINUTES_PER_DAY}]",
    )
    alpha: float = _param(1.0, "additive smoothing constant", lambda v: v > 0, "> 0")
    train_fraction: float = _param(
        0.7, "training share in (0, 1)", lambda v: 0.0 < v < 1.0, "in (0, 1)"
    )
    split: str = _param(
        "chronological", f"split discipline, one of {SPLIT_KINDS}",
        lambda v: v in SPLIT_KINDS, f"one of {SPLIT_KINDS}",
    )


# the scalar parameters, in the order of their flags, and each field's JSON key
PARAMS = tuple(f for f in fields(RunConfig) if "help" in f.metadata)
KEYS = {f.name: f.metadata.get("key", f.name) for f in fields(RunConfig)}
_PARAM_OF = {f.name: f for f in PARAMS}
# what a JSON value of each parameter type may be, and its name in messages
_TYPES = {
    float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string"),
}


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"config key {key!r}: {message}")


def _fault(f: Field, value: Any) -> str | None:
    """What keeps `value` from parameter `f`, which takes only finite values
    in its range, as ``must be <rule>, got <value>``; None if nothing does."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite, got {value!r}"
    if not f.metadata["check"](value):
        return f"must be {f.metadata['rule']}, got {value!r}"
    return None


def _check(f: Field, value: Any) -> None:
    """Raise ConfigError unless `value` is finite and in parameter `f`'s range."""
    fault = _fault(f, value)
    if fault:
        raise ConfigError(f"config key {KEYS[f.name]!r}: {fault}")


def check_param(name: str, value: Any) -> None:
    """Raise ValueError ``<name> must be <rule>, got <value>`` unless `value`
    passes the rule `load_config` applies to the `RunConfig` field ``name``."""
    fault = _fault(_PARAM_OF[name], value)
    if fault:
        raise ValueError(f"{name} {fault}")


def _typed(f: Field, value: Any) -> Any:
    """`value` as parameter `f`'s type, checked as it stands in the document
    (an `out_dir` before it is resolved); a JSON integer is also a number."""
    accepted, name = _TYPES[f.type]
    _require(
        not isinstance(value, bool) and isinstance(value, accepted),
        KEYS[f.name], f"must be {name}, got {value!r}",
    )
    value = f.type(value)
    _check(f, value)
    return value


def validate_config(config: RunConfig) -> None:
    for f in PARAMS:
        _check(f, getattr(config, f.name))
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

    unknown = sorted(set(payload) - set(KEYS.values()))
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

    scalars = {
        f.name: _typed(f, payload[KEYS[f.name]])
        for f in PARAMS if KEYS[f.name] in payload
    }
    scalars["out_dir"] = resolve(scalars.get("out_dir", RunConfig.out_dir))
    config = RunConfig(
        definitions=definitions,
        datasets=tuple(datasets),
        channel_map=channel_map,
        **scalars,
    )
    validate_config(config)
    return config


def with_overrides(config: RunConfig, **overrides: object) -> RunConfig:
    """Apply non-None keyword overrides, re-validating the result."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    updated = replace(config, **changes) if changes else config
    validate_config(updated)
    return updated
