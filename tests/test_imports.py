"""What ``import adl_engine.cli`` loads, checked by structure, not by timing.

Every CLI invocation pays for this import, so the plain records are named
tuples (a frozen dataclass runs ``exec`` on its generated methods when its
class is made) and the CLI writes its own diagnostics instead of importing
``logging``.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import pytest

from adl_engine import cli, config, definitions, evaluation, ingestion, recognition
from helpers import REPO_ROOT

NAMED_TUPLE_RECORDS = (
    ingestion.SensorSample,
    ingestion.BinarySeries,
    recognition.Observation,
    definitions.AtomicActivity,
    definitions.ContextAttribute,
    config.DatasetSpec,
    evaluation.MetricsReport,
    cli._Input,
    cli.Stage,
)


def test_cli_import_loads_neither_logging_nor_statistics():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import adl_engine.cli\n"
        "print(sorted({'logging', 'statistics'} & (set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO_ROOT / "src")],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "record", NAMED_TUPLE_RECORDS, ids=lambda c: f"{c.__module__}.{c.__qualname__}"
)
def test_plain_records_are_named_tuples(record):
    assert not dataclasses.is_dataclass(record)
    assert issubclass(record, tuple) and record._fields
