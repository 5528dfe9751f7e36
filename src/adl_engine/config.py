"""Run configuration: one JSON document collecting every tunable knob.

Flags override config keys, config keys override defaults.  A document
describes the whole run and every key in it is checked, but a subcommand
takes the flags of only the parameters it reads (`cli.Stage.params`).
Relative paths inside a config file resolve against the file's own
directory, so a config can travel with its data.  Each scalar parameter is
declared once, as one `Param` row of `PARAMS`: its `RunConfig` field name,
type and default, its flag's help, its range check and that check's text,
its config key and its flag.  The loader, `validate_config` and the CLI
flags all read that row: a wrong type, a non-finite number or an
out-of-range value is a `ConfigError` naming the config key, from JSON or
from a flag.  Engine functions take their parameters' defaults from
`DEFAULTS` and check a value with `check_param`, which applies the same rule.
"""

import json
import math
from collections import namedtuple
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, NamedTuple

from . import InputError
from .temporal import MINUTES_PER_DAY

DATASET_KINDS = ("power-trace", "adl-log")


class ConfigError(InputError):
    """A config document failed to parse or a key is out of range."""


class DatasetSpec(NamedTuple):
    """One input file: a power-trace channel or an annotation log."""

    path: str
    kind: str
    channel: str | None = None


class Param(NamedTuple):
    """A scalar parameter whose values must pass `check`; `rule` says how."""

    name: str  # of its `RunConfig` field
    type: type
    default: Any
    help: str  # of its flag
    check: Callable[[Any], bool]
    rule: str
    key: str  # in a config document
    flag: str


# the scalar parameters, in the order of their flags
PARAMS = (
    Param("out_dir", str, "out", "output directory (overrides config)",
          lambda v: v != "", "non-empty", "out_dir", "--out"),
    Param("on_watts", float, 10.0, "power on-threshold in watts",
          lambda v: v > 0, "> 0", "on_watts", "--on-watts"),
    Param("gap_tolerance", int, 2, "max off-samples bridged inside an occurrence",
          lambda v: v >= 0, ">= 0", "gap_tolerance", "--gap-tolerance"),
    Param("lam", float, 0.5, "atomic-side blend share in [0, 1]",
          lambda v: 0.0 <= v <= 1.0, "in [0, 1]", "lambda", "--lambda"),
    # the window is a deque's maxlen, a C ssize_t: at most 2**31 - 1 on a
    # 32-bit build
    Param("window", int, 5, "score history window size in [1, 2147483647]",
          lambda v: 1 <= v <= 2**31 - 1, "in [1, 2147483647]", "window", "--window"),
    Param("epsilon", float, 0.05, "score slack below history mean",
          lambda v: v >= 0, ">= 0", "epsilon", "--epsilon"),
    Param("bucket_width", int, 30, "time bucket width in minutes",
          lambda v: 1 <= v <= MINUTES_PER_DAY, f"in [1, {MINUTES_PER_DAY}]",
          "bucket_width", "--bucket-width"),
    # a posterior weight is six factors in [alpha / (2**53 + alpha * size), 1],
    # as `RecommenderModel.from_json` holds each count to at most its class
    # count and n_transitions <= 2**53: these ends keep every weight above zero
    Param("alpha", float, 1.0, "additive smoothing constant in [1e-12, 1e12]",
          lambda v: 1e-12 <= v <= 1e12, "in [1e-12, 1e12]", "alpha", "--alpha"),
    Param("train_fraction", float, 0.7, "training share in (0, 1)",
          lambda v: 0.0 < v < 1.0, "in (0, 1)", "train_fraction", "--train-fraction"),
)
_PARAM_OF = {p.name: p for p in PARAMS}

# A run's configuration: its definition files, its datasets with their
# channel map, then one field per `PARAMS` row, defaulted to its value.
RunConfig = namedtuple(
    "RunConfig", ["definitions", "datasets", "channel_map", *_PARAM_OF],
    defaults=[(), (), MappingProxyType({}), *(p.default for p in PARAMS)],
)
# every parameter at its default, for the engine functions' own defaults
DEFAULTS = RunConfig()
# what a JSON value of each parameter type may be, and its name in messages
_TYPES = {
    float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string"),
}


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"config key {key!r}: {message}")


def _fault(p: Param, value: Any) -> str | None:
    """What keeps `value` from parameter `p`, which takes only finite values
    in its range, as ``must be <rule>, got <value>``; None if nothing does."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"must be finite, got {value!r}"
    if not p.check(value):
        return f"must be {p.rule}, got {value!r}"
    return None


def _check(p: Param, value: Any) -> None:
    """Raise ConfigError unless `value` is finite and in parameter `p`'s range."""
    fault = _fault(p, value)
    if fault:
        raise ConfigError(f"config key {p.key!r}: {fault}")


def check_param(name: str, value: Any) -> None:
    """Raise ValueError ``<name> must be <rule>, got <value>`` unless `value`
    passes the rule `load_config` applies to the parameter ``name``."""
    fault = _fault(_PARAM_OF[name], value)
    if fault:
        raise ValueError(f"{name} {fault}")


def _typed(p: Param, value: Any) -> Any:
    """`value` as parameter `p`'s type, checked as it stands in the document
    (an `out_dir` before it is resolved); a JSON integer is also a number."""
    accepted, name = _TYPES[p.type]
    _require(
        not isinstance(value, bool) and isinstance(value, accepted),
        p.key, f"must be {name}, got {value!r}",
    )
    try:
        value = p.type(value)
    except OverflowError as exc:  # an integer beyond every float
        raise ConfigError(f"config key {p.key!r}: {exc}") from None
    _check(p, value)
    return value


def validate_config(config: RunConfig) -> None:
    for p in PARAMS:
        _check(p, getattr(config, p.name))
    # no file can be made under it; the input paths fail as they are read
    _require("\0" not in config.out_dir, "out_dir", "must hold no NUL character")
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
    except ValueError as exc:  # undecodable text, a NUL in the path
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config document must be a JSON object")

    base = path.parent

    def resolve(p: str) -> str:
        candidate = Path(p)
        return str(candidate if candidate.is_absolute() else base / candidate)

    unknown = sorted(
        set(payload) - {"definitions", "datasets", "channel_map", *(p.key for p in PARAMS)}
    )
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

    scalars = {p.name: _typed(p, payload[p.key]) for p in PARAMS if p.key in payload}
    scalars["out_dir"] = resolve(scalars.get("out_dir", DEFAULTS.out_dir))
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
    updated = config._replace(**changes)
    validate_config(updated)
    return updated
