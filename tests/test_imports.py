"""What importing the engine's modules loads, checked by structure, not by
timing.

Every CLI invocation pays for ``import adl_engine.cli``, so the plain records
are named tuples (a frozen dataclass runs ``exec`` on its generated methods
when its class is made) and the CLI writes its own diagnostics instead of
importing ``logging``.  The table format in `tables` depends on no other
engine module, and loading a config loads neither `ingestion` nor
`definitions`.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import pytest

from adl_engine import (
    cli, config, definitions, evaluation, ingestion, recognition, recommender,
)
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
