"""What importing the engine's modules loads, checked by structure, not by
timing, and the behaviour its classes keep without the `dataclasses` module.

Every CLI invocation pays for ``import adl_engine.cli``, so no engine class
is a dataclass: ``import dataclasses`` loads `inspect` (and through it `ast`,
`dis` and `tokenize`), and each decorated class runs ``exec`` on its
generated methods when it is made.  Records are named tuples.  Only
`ComplexActivityDefinition`, which caches values it derives, subclasses its
named tuple without ``__slots__``, so `functools.cached_property` has a
``__dict__`` to fill; the others, `RecommenderModel` among them, have no
``__dict__``.  Besides the dict subclasses (`Memo`, `FieldLookup`
and the CLI's `Store`), `ConfusionMatrix`, whose constructor
checks its shape, counts and labels, is the one ``__slots__`` class.
The CLI writes its own diagnostics instead of importing ``logging``.  The
table format in `tables` depends on no other engine module, and loading a
config loads neither `ingestion` nor `definitions`.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import pkgutil
import subprocess
import sys

import pytest

import adl_engine
from adl_engine import (
    affect, cli, config, definitions, evaluation, ingestion, recognition, recommender,
)
from adl_engine.recommender import DayKind, FeatureVector, LabeledTransition
from helpers import REPO_ROOT

NAMED_TUPLE_RECORDS = (
    ingestion.SensorSample,
    ingestion.BinarySeries,
    recognition.Observation,
    definitions.AtomicActivity,
    definitions.ContextAttribute,
    config.DatasetSpec,
    evaluation.MetricsReport,
    recommender.FeatureVector,
    cli._Input,
    cli.Stage,
)


def _modules_loaded_by(module: str) -> set[str]:
    """The modules that ``import <module>`` loads in a fresh interpreter."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(*set(sys.modules) - before)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO_ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    return set(result.stdout.split())


def test_cli_import_loads_neither_logging_nor_statistics():
    assert not {"logging", "statistics"} & _modules_loaded_by("adl_engine.cli")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    loaded = _modules_loaded_by("adl_engine.cli")
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded


def test_no_engine_class_is_a_dataclass():
    modules = [
        importlib.import_module(f"adl_engine.{info.name}")
        for info in pkgutil.iter_modules(adl_engine.__path__)
    ]
    assert {m.__name__ for m in modules} >= {"adl_engine.cli", "adl_engine.config"}
    found = [
        f"{module.__name__}.{name}"
        for module in modules for name, value in vars(module).items()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
    ]
    assert found == []


def test_tables_import_loads_no_other_engine_module():
    loaded = _modules_loaded_by("adl_engine.tables")
    assert {m for m in loaded if m.startswith("adl_engine.")} == {"adl_engine.tables"}


def test_config_import_loads_neither_ingestion_nor_definitions():
    loaded = _modules_loaded_by("adl_engine.config")
    assert "adl_engine.config" in loaded
    assert not {"adl_engine.ingestion", "adl_engine.definitions"} & loaded


@pytest.mark.parametrize(
    "record", NAMED_TUPLE_RECORDS, ids=lambda c: f"{c.__module__}.{c.__qualname__}"
)
def test_plain_records_are_named_tuples(record):
    assert not dataclasses.is_dataclass(record)
    assert issubclass(record, tuple) and record._fields


def _model() -> recommender.RecommenderModel:
    features = FeatureVector(
        3, "Sleeping", affect.EmotionLabel.POSITIVE, affect.UXLabel.GOOD, DayKind.WEEKDAY
    )
    return recommender.train([LabeledTransition(features, "Showering")])


@pytest.mark.parametrize("make, field", [
    (lambda defs: config.RunConfig(), "train_fraction"),
    (lambda defs: defs["Sleeping"], "threshold"),
    (lambda defs: _model(), "alpha"),
    (lambda defs: affect.UXModel(), "window"),
], ids=["RunConfig", "ComplexActivityDefinition", "RecommenderModel", "UXModel"])
def test_a_record_refuses_a_field_assignment(adl_defs, make, field):
    record = make(adl_defs)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    assert getattr(record, field) is before


def test_derived_values_are_computed_once_per_record(adl_defs):
    defn = adl_defs["Sleeping"]
    assert defn.atomic_ids is defn.atomic_ids
    model = _model()
    assert not hasattr(model, "__dict__")
    # the model caches nothing, so it reads back equal from its JSON
    assert recommender.read_model(io.StringIO(model.to_json())) == model


def test_with_overrides_returns_a_new_validated_config():
    base = config.RunConfig()
    bumped = config.with_overrides(base, window=9, alpha=None)
    assert (bumped.window, bumped.alpha, base.window) == (9, base.alpha, 5)
    assert type(bumped) is config.RunConfig
    with pytest.raises(config.ConfigError, match="'lambda'"):
        config.with_overrides(bumped, lam=2.0)
