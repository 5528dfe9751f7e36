from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl_engine import affect as affect_mod
from adl_engine import cli
from adl_engine import evaluation as eval_mod
from adl_engine import ingestion as ingest_mod
from adl_engine import recognition as recog_mod
from adl_engine import recommender as recom_mod
from adl_engine import tables
from adl_engine import temporal as temporal_mod
from adl_engine.affect import EmotionLabel, UXLabel
from adl_engine.cli import _build_parser, _resolve_config, main
from adl_engine.config import (
    PARAMS,
    ConfigError,
    DatasetSpec,
    RunConfig,
    load_config,
    validate_config,
    with_overrides,
)
from adl_engine.ingestion import OccurrenceRecord, Source, write_occurrences
from helpers import (
    CONFIGS_DIR,
    DATA_DIR,
    DEFINITIONS_DIR,
    REPO_ROOT,
    load_adl_defs,
    scale_counts,
    set_feature_counts,
)

PIPELINE_ARTIFACTS = {
    "occurrences.csv", "verdicts.csv", "annotated.csv", "clusters.csv", "model.json", "predictions.csv", "confusion.csv",
    "report.csv", "report.json",
}

ADL_CONFIG = CONFIGS_DIR / "adl.json"
UKDALE_CONFIG = CONFIGS_DIR / "ukdale.json"


def _snapshot(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_empty_config_uses_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    config = load_config(path)
    defaults = RunConfig()
    assert config.on_watts == defaults.on_watts
    assert config.lam == defaults.lam
    assert config.train_fraction == defaults.train_fraction
    assert config.out_dir == str(tmp_path / "out")


def test_config_overrides_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"on_watts": 25, "lambda": 0.8, "window": 3}))
    config = load_config(path)
    assert config.on_watts == 25.0
    assert config.lam == 0.8
    assert config.window == 3


def test_config_relative_paths_resolve_against_config_dir(tmp_path):
    nested = tmp_path / "conf"
    nested.mkdir()
    path = nested / "run.json"
    path.write_text(json.dumps({
        "definitions": ["../defs/a.json"],
        "datasets": [{"path": "data/log.csv", "kind": "adl-log"}],
        "out_dir": "out",
    }))
    config = load_config(path)
    assert config.definitions == (str(nested / "../defs/a.json"),)
    assert config.datasets[0].path == str(nested / "data/log.csv")
    assert config.out_dir == str(nested / "out")


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"onwatts": 25}))
    with pytest.raises(ConfigError, match="onwatts"):
        load_config(path)


def test_config_rejects_removed_k_key(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"k": 3}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(path)


@pytest.mark.parametrize("key, value", [("split", "random"), ("seed", 3)])
def test_the_removed_split_and_seed_are_unknown_keys_and_flags(tmp_path, capsys, key, value):
    # one evaluation protocol: the chronological split, which needs no seed
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    assert main(["pipeline", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: unknown config keys [{key!r}]\n"
    with pytest.raises(SystemExit) as exited:
        main(["pipeline", "--config", str(ADL_CONFIG), f"--{key}", str(value)])
    assert exited.value.code == 2
    assert f"unrecognized arguments: --{key}" in capsys.readouterr().err


def test_config_rejects_out_of_range_value(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train_fraction": 1.5}))
    with pytest.raises(ConfigError, match="train_fraction"):
        load_config(path)


def test_config_rejects_boolean_numbers(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"on_watts": True}))
    with pytest.raises(ConfigError, match="on_watts"):
        load_config(path)


def test_config_rejects_malformed_dataset_entries(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"datasets": [{"path": "x.csv"}]}))
    with pytest.raises(ConfigError, match="datasets"):
        load_config(path)


@pytest.mark.parametrize("payload, key", [
    ({"definitions": 5}, "definitions"),
    ({"definitions": [5]}, "definitions"),
    ({"datasets": 5}, "datasets"),
    ({"datasets": [{"path": 5, "kind": "adl-log"}]}, "datasets"),
    ({"datasets": [{"path": "x.dat", "kind": "power-trace", "channel": 5}]}, "datasets"),
    ({"channel_map": [1]}, "channel_map"),
    ({"channel_map": {"tv": ["Watching TV"]}}, "channel_map"),
    ({"out_dir": None}, "out_dir"),
    ({"out_dir": 5}, "out_dir"),
])
def test_config_values_of_the_wrong_type_are_input_errors(tmp_path, capsys, payload, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["ingest", "--config", str(path)]) == 2
    assert f"config key {key!r}" in capsys.readouterr().err


# each declared run parameter: its config key, its flag, a valid non-default
# value and an out-of-range one
RUN_PARAMETERS = {
    "out_dir": ("out_dir", "--out", "elsewhere", ""),
    "on_watts": ("on_watts", "--on-watts", 25.0, 0.0),
    "gap_tolerance": ("gap_tolerance", "--gap-tolerance", 4, -1),
    "lam": ("lambda", "--lambda", 0.8, 1.5),
    "window": ("window", "--window", 3, 0),
    "epsilon": ("epsilon", "--epsilon", 0.1, -0.5),
    "bucket_width": ("bucket_width", "--bucket-width", 60, 1441),
    "alpha": ("alpha", "--alpha", 0.5, 0.0),
    "train_fraction": ("train_fraction", "--train-fraction", 0.6, 1.0),
}


# the run-parameter flags each subcommand takes, in `PARAMS` order: those of
# the parameters its stages read, and `--out` for every stage
SUBCOMMAND_FLAGS = {
    "validate": [],
    "ingest": ["--out", "--on-watts", "--gap-tolerance"],
    "recognize": ["--out", "--lambda"],
    "affect": ["--out", "--window", "--epsilon", "--bucket-width"],
    "cluster": ["--out"],
    "train": ["--out", "--bucket-width", "--alpha", "--train-fraction"],
    "recommend": ["--out"],
    "evaluate": ["--out"],
    "pipeline": [flag for _, flag, *_ in RUN_PARAMETERS.values()],
}
# each subcommand's file options, after its run-parameter flags
FILE_OPTIONS = {
    "recognize": ["--occurrences"],
    "affect": ["--occurrences"],
    "cluster": ["--occurrences"],
    "train": ["--annotated"],
    "recommend": ["--model", "--features"],
    "evaluate": ["--predictions"],
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_run_parameters_keep_their_keys_and_flags():
    assert [(p.name, p.key, p.flag) for p in PARAMS] == [
        (name, key, flag) for name, (key, flag, *_) in RUN_PARAMETERS.items()
    ]
    commands = _subcommands()
    assert list(commands) == list(SUBCOMMAND_FLAGS)
    for command, sub in commands.items():
        flags = [s for action in sub._actions for s in action.option_strings]
        assert flags == [
            "-h", "--help", "--config",
            *SUBCOMMAND_FLAGS[command], *FILE_OPTIONS.get(command, []),
        ], command
    # one run-parameter flag on one subcommand is a flag slot
    assert sum(map(len, SUBCOMMAND_FLAGS.values())) == 25


def test_each_subcommand_takes_the_shared_flags_in_params_order():
    stages = {stage.name: stage for stage in cli.STAGES}
    read = {"out_dir", *(name for stage in cli.STAGES for name in stage.params)}
    # every run parameter is read by some stage, so `pipeline` takes all nine
    assert read == {p.name for p in PARAMS}
    wanted = {
        "validate": set(),
        **{name: {"out_dir", *stage.params} for name, stage in stages.items()},
        "pipeline": read,
    }
    commands = _subcommands()
    assert list(commands) == ["validate", *stages, "pipeline"]
    for command, sub in commands.items():
        shared = [("config", None, "path to the JSON run configuration")] + [
            (p.name, p.type, p.help) for p in PARAMS if p.name in wanted[command]
        ]
        options = [a for a in sub._actions if a.option_strings and a.dest != "help"]
        assert [(a.dest, a.type, a.help) for a in options[:len(shared)]] == shared, command
        inputs = [cli._INPUTS[key] for key in getattr(stages.get(command), "inputs", ())]
        assert [a.option_strings for a in options[len(shared):]] == [
            [f"--{source.option}"] for source in inputs if source.option
        ], command


@pytest.mark.parametrize("argv", [
    ["recommend", "--config", str(ADL_CONFIG), "--features", "features.csv",
     "--alpha", "0.5"],
    ["evaluate", "--config", str(ADL_CONFIG), "--train-fraction", "0.2"],
    ["cluster", "--config", str(ADL_CONFIG), "--on-watts", "3"],
    ["validate", "--config", str(ADL_CONFIG), "--alpha", "-1"],
])
def test_a_flag_the_subcommand_does_not_read_is_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class _RecordingConfig:
    """A run configuration that records each field name read from it."""

    def __init__(self, config: RunConfig, read: set[str]) -> None:
        self._config = config
        self._read = read

    def __getattr__(self, name: str):
        self._read.add(name)
        return getattr(self._config, name)


def test_each_stage_reads_exactly_the_run_parameters_it_declares(
    tmp_path, capsys, monkeypatch
):
    # the annotation-log config reads no trace parameter, so the reads of
    # both bundled configs together must make up each stage's `params`
    read = {stage.name: set() for stage in cli.STAGES}

    def recording(stage: cli.Stage) -> cli.Stage:
        def run(store: cli.Store) -> cli.StageResult:
            store.config = _RecordingConfig(store.config, read[stage.name])
            return stage.run(store)

        return stage._replace(run=run)

    monkeypatch.setattr(cli, "STAGES", tuple(map(recording, cli.STAGES)))
    for config in (ADL_CONFIG, UKDALE_CONFIG):
        argv = ["--config", str(config), "--out", str(tmp_path / config.stem)]
        for stage in ("ingest", "recognize", "affect", "cluster", "train"):
            assert main([stage, *argv]) == 0
        # feature rows labelled with a model activity, so evaluate has pairs
        model = json.loads((tmp_path / config.stem / "model.json").read_text())
        features = tmp_path / f"{config.stem}.csv"
        features.write_text("time_bucket,emotion,ux,day_kind,activity\n" + "".join(
            f"{bucket},positive,good,weekday,{model['activities'][0]}\n"
            for bucket in (0, 17)
        ))
        assert main(["recommend", *argv, "--features", str(features)]) == 0
        assert main(["evaluate", *argv]) == 0
    capsys.readouterr()
    params = {p.name for p in PARAMS} - {"out_dir"}
    assert {name: names & params for name, names in read.items()} == {
        stage.name: set(stage.params) for stage in cli.STAGES
    }


@pytest.mark.parametrize("name", list(RUN_PARAMETERS))
def test_run_parameter_reads_alike_by_config_key_and_by_flag(tmp_path, name):
    key, flag, value, _ = RUN_PARAMETERS[name]
    if name == "out_dir":
        value = str(tmp_path / value)  # a flag's path is not resolved against the config
    base = tmp_path / "base.json"
    base.write_text("{}")
    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps({key: value}))
    by_key = load_config(keyed)
    by_flag = _resolve_config(
        _build_parser().parse_args(["pipeline", "--config", str(base), flag, str(value)])
    )
    assert by_key == by_flag
    assert getattr(by_key, name) != getattr(load_config(base), name)


@pytest.mark.parametrize("route", ["key", "flag"])
@pytest.mark.parametrize("name", list(RUN_PARAMETERS))
def test_out_of_range_run_parameter_is_an_input_error(tmp_path, capsys, name, route):
    key, flag, _, bad = RUN_PARAMETERS[name]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: bad} if route == "key" else {}))
    argv = ["pipeline", "--config", str(config)]
    if route == "flag":
        argv += [flag, str(bad)]
    assert main(argv) == 2
    assert f"config key {key!r}: must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha", ["1e308", "1e-308"])
def test_pipeline_rejects_an_alpha_that_zeroes_the_posterior(tmp_path, capsys, alpha):
    # at 1e308 every prior overflows to 0, and at 1e-308 every product of
    # conditionals underflows to 0, so prediction would divide by zero
    out = tmp_path / "out"
    assert main([
        "pipeline", "--config", str(ADL_CONFIG), "--out", str(out),
        "--alpha", alpha,
    ]) == 2
    assert capsys.readouterr().err == (
        f"error: config key 'alpha': must be in [1e-12, 1e12], got {float(alpha)!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("member, flags, key", [
    ('"alpha": Infinity', [], "alpha"),
    ('"on_watts": 1e400', [], "on_watts"),
    ('"epsilon": 1e400', [], "epsilon"),
    ('"lambda": NaN', [], "lambda"),
    (None, ["--alpha", "inf"], "alpha"),
    (None, ["--train-fraction", "nan"], "train_fraction"),
])
def test_non_finite_numbers_are_input_errors(tmp_path, capsys, member, flags, key):
    out = tmp_path / "out"
    document = json.dumps({
        "definitions": [str(DEFINITIONS_DIR / "adl.json")],
        "datasets": [{"path": str(DATA_DIR / "adl_log.csv"), "kind": "adl-log"}],
        "out_dir": str(out),
    })
    if member:
        document = document[:-1] + f", {member}}}"
    config = tmp_path / "run.json"
    config.write_text(document)
    assert main(["pipeline", "--config", str(config), *flags]) == 2
    assert f"config key {key!r}: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", [p.key for p in PARAMS if p.type is float])
def test_a_float_parameter_beyond_every_float_is_an_input_error(tmp_path, capsys, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: 10**400}))
    assert main(["pipeline", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: config key {key!r}: int too large to convert to float\n"
    )


@pytest.mark.parametrize("route", ["key", "flag"])
@pytest.mark.parametrize("window", [2**31 - 1, 2**31, 10**30])
def test_window_is_at_most_what_a_deque_maxlen_takes_on_every_platform(
    tmp_path, capsys, route, window
):
    out = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "definitions": [str(DEFINITIONS_DIR / "adl.json")],
        "datasets": [{"path": str(DATA_DIR / "adl_log.csv"), "kind": "adl-log"}],
        "out_dir": str(out),
        **({"window": window} if route == "key" else {}),
    }))
    flags = ["--window", str(window)] if route == "flag" else []
    code = main(["pipeline", "--config", str(config), *flags])
    err = capsys.readouterr().err
    if window < 2**31:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err == f"error: config key 'window': must be in [1, 2147483647], got {window}\n"
        assert not out.exists()


@pytest.mark.parametrize("route", ["key", "flag"])
def test_empty_out_dir_is_an_input_error_that_writes_nothing(
    tmp_path, capsys, monkeypatch, route
):
    # a run that would succeed but for its out_dir, started in the config's
    # directory, where either route's empty path would otherwise resolve
    config = tmp_path / "run.json"
    document = {
        "definitions": [str(DEFINITIONS_DIR / "adl.json")],
        "datasets": [{"path": str(DATA_DIR / "adl_log.csv"), "kind": "adl-log"}],
    }
    if route == "key":
        document["out_dir"] = ""
    config.write_text(json.dumps(document))
    monkeypatch.chdir(tmp_path)
    flags = ["--out", ""] if route == "flag" else []
    assert main(["pipeline", "--config", str(config), *flags]) == 2
    assert "config key 'out_dir': must be non-empty, got ''" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_power_trace_dataset_requires_channel():
    config = RunConfig(datasets=(DatasetSpec("x.dat", "power-trace"),))
    with pytest.raises(ConfigError, match="channel"):
        validate_config(config)


def test_with_overrides_ignores_none_and_revalidates():
    config = RunConfig()
    same = with_overrides(config, window=None, lam=None)
    assert same == config
    bumped = with_overrides(config, window=9)
    assert bumped.window == 9
    with pytest.raises(ConfigError, match="lambda"):
        with_overrides(config, lam=2.0)


def test_shipped_configs_load():
    adl = load_config(ADL_CONFIG)
    assert len(adl.definitions) == 1
    assert [d.kind for d in adl.datasets] == ["adl-log"]

    ukdale = load_config(UKDALE_CONFIG)
    assert [d.kind for d in ukdale.datasets] == ["power-trace"] * 3
    assert all(d.channel for d in ukdale.datasets)
    assert set(ukdale.channel_map.values()) == {
        "Using Microwave", "Watching TV", "Using Washing Machine",
    }


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------

def test_validate_shipped_definition_files(capsys):
    code = main([
        "validate",
        str(DEFINITIONS_DIR / "adl.json"),
        str(DEFINITIONS_DIR / "ukdale.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "14 of 14 definitions passed" in out


def test_validate_reports_individual_failures(tmp_path, capsys):
    bad = {
        "definitions": [
            {
                "name": "Broken", "short_code": "BR", "threshold": 1.5,
                "atomics": [{"id": 1, "label": "a", "weight": 1.0}],
                "contexts": [{"id": 1, "label": "c", "weight": 1.0}],
                "core_atomics": [1], "core_contexts": [1],
                "start_atomics": [1], "start_contexts": [1],
                "end_atomics": [1], "end_contexts": [1],
            },
            {
                "name": "Fine", "short_code": "FI", "threshold": 0.5,
                "atomics": [{"id": 1, "label": "a", "weight": 1.0}],
                "contexts": [{"id": 1, "label": "c", "weight": 1.0}],
                "core_atomics": [1], "core_contexts": [1],
                "start_atomics": [1], "start_contexts": [1],
                "end_atomics": [1], "end_contexts": [1],
            },
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["validate", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL" in out
    assert "threshold 1.5" in out
    assert "1 of 2 definitions passed" in out


def test_validate_fails_a_name_an_earlier_file_defined(tmp_path, capsys):
    # `pipeline` refuses the same file listed twice, so `validate` does too,
    # with the stages' text
    adl = DEFINITIONS_DIR / "adl.json"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"definitions": [str(adl), str(adl)]}))
    for argv in (["validate", str(adl), str(adl)], ["validate", "--config", str(config)]):
        assert main(argv) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"FAIL {adl}: duplicate definition 'Sleeping'"
        assert len(out) == 8
        assert out[-1] == "7 of 14 definitions passed"


def test_validate_fails_a_file_with_no_definitions(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"definitions": []}')
    assert main(["validate", str(empty)]) == 2
    assert capsys.readouterr().out == (
        f"FAIL {empty}: definition set is empty\n0 of 0 definitions passed\n"
    )


def _catalogue(tmp_path: Path, name: str, source: str, edit=lambda entries: None) -> Path:
    """The bundled catalogue ``source`` after ``edit`` changed its entries,
    written to ``name``."""
    document = json.loads((DEFINITIONS_DIR / source).read_text())
    edit(document["definitions"])
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def _repeat_first(entries: list) -> None:
    entries.append(entries[0])


def _name_repeated_within_a_file(tmp_path):
    path = _catalogue(tmp_path, "dup.json", "adl.json", _repeat_first)
    return [path], [f"{path}: duplicate definition 'Sleeping'"]


def _same_file_twice(tmp_path):
    path = DEFINITIONS_DIR / "adl.json"
    names = [entry["name"] for entry in json.loads(path.read_text())["definitions"]]
    return [path, path], [f"{path}: duplicate definition {name!r}" for name in names]


def _empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"definitions": []}')
    return [path], [f"{path}: definition set is empty"]


def _violation_then_repeat(tmp_path):
    bad = _catalogue(tmp_path, "bad.json", "adl.json",
                     lambda entries: entries[0].update(threshold=2.0))
    dup = _catalogue(tmp_path, "dup.json", "ukdale.json", _repeat_first)
    return [bad, dup], [
        f"{bad}: Sleeping: threshold 2.0 outside (0, 1]",
        f"{dup}: duplicate definition 'Watching TV'",
    ]


@pytest.mark.parametrize("catalogue", [
    _name_repeated_within_a_file, _same_file_twice, _empty_file, _violation_then_repeat,
], ids=["repeated-within-a-file", "same-file-twice", "empty-file", "violation-then-repeat"])
def test_validate_and_the_stages_refuse_a_catalogue_with_the_same_faults(
    tmp_path, capsys, catalogue
):
    paths, faults = catalogue(tmp_path)
    assert main(["validate", *map(str, paths)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[:-1] == [f"FAIL {fault}" for fault in faults]
    assert out[-1].endswith(" definitions passed")

    out_dir = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "definitions": list(map(str, paths)),
        "datasets": [{"path": str(DATA_DIR / "adl_log.csv"), "kind": "adl-log"}],
        "out_dir": str(out_dir),
    }))
    assert main(["ingest", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {len(faults)} definition fault(s):\n" + "".join(
        f"  {fault}\n" for fault in faults
    )
    assert not out_dir.exists()


def _validate_and_ingest_refuse(tmp_path, capsys, edit, fault: str) -> None:
    """`validate` and `ingest` each print one ``malformed definition entry``
    line ending in ``fault`` and exit 2 on the bundled catalogue after ``edit``."""
    path = _catalogue(tmp_path, "adl.json", "adl.json", edit)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "definitions": [str(path)],
        "datasets": [{"path": str(DATA_DIR / "adl_log.csv"), "kind": "adl-log"}],
        "out_dir": str(tmp_path / "out"),
    }))
    for argv in (["validate", str(path)], ["ingest", "--config", str(config)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: malformed definition entry: {fault}\n"


def test_validate_and_ingest_refuse_an_atomic_id_that_is_not_a_json_integer(
    tmp_path, capsys
):
    # JSON reads 1e400 as inf, which int() could not convert
    _validate_and_ingest_refuse(
        tmp_path, capsys, lambda entries: entries[0]["atomics"][0].update(id=1e400),
        "expected an integer, got inf",
    )


def test_validate_and_ingest_refuse_a_name_that_is_not_a_json_string(tmp_path, capsys):
    # str() would read a null name as an activity named 'None'
    _validate_and_ingest_refuse(
        tmp_path, capsys, lambda entries: entries[0].update(name=None),
        "expected a string, got None",
    )


def test_validate_without_files_or_config(capsys):
    code = main(["validate"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no definition files" in err


def test_validate_unreadable_file(tmp_path, capsys):
    code = main(["validate", str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# Pipeline and stage subcommands
# ---------------------------------------------------------------------------

def test_pipeline_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert {p.name for p in out.iterdir()} == PIPELINE_ARTIFACTS
    assert "pipeline: 144 occurrences, 143 transitions" in stdout
    assert "(101 train / 42 test)" in stdout

    report_lines = (out / "report.csv").read_text().splitlines()
    assert report_lines[0] == "metric,label,value"
    assert report_lines[1] == "accuracy,,85.71%"


# sha256 of each artifact `pipeline` writes for the bundled configs; a change to
# any writer that alters one byte of an artifact fails here
GOLDEN_DIGESTS = {
    "adl": {
        "annotated.csv": "04417d9058c018c71f08ec6eb53a358009e038f4674db8e283b92a9e781bac88",
        "clusters.csv": "0a55bac3710748970cdff0a6a86b106de43dff9a21557c0a7263ad5f77d5fb92",
        "confusion.csv": "ff1fa2fd097b893cda3ac61d7bb0c0bbc203741562db3feb62c6064135cc6099",
        "model.json": "71fa7a9b4b6a87a93b40a2f77c2b49e609493de53877496d062a84288e72c930",
        "occurrences.csv": "e4de5c2b36c1c3165c3d6f2fa7cf3d8f7c3b7dd50e6baa5fa04ea3b208aed418",
        "predictions.csv": "055fc8cc87cff778ef1b0d4de4505cdbfc5f791cb5beb8ad57a75efff128f51f",
        "report.csv": "fa88968c828b958b574a3710e8a892cc45b30ee97d182da7c4a959d5eaf0ce4c",
        "report.json": "87a37b8c12d565c33672c5f7705fcc265382a5b6627c7c642758a499f50290e2",
        "verdicts.csv": "ba74ecead181c1c73496f2a4a4585e4d3e4e62c2b463da03c46836b175ac5fd8",
    },
    "ukdale": {
        "annotated.csv": "71da56617bd25c0583933ca72eb917102c12cdd456570ec80691d8b69403a13f",
        "clusters.csv": "9b55b95d897cdae26169dc2b8056cd9868f4ac32a529c6238fdf7cc202d39ad9",
        "confusion.csv": "0fd54fc0cc3b601575b7ac2e1fecba0eb50f058a018f1c5fa479cc82d804bf31",
        "model.json": "0fc83001af667b9847205a6149ef594cafe5999ffd2cda08697a529358cdb54e",
        "occurrences.csv": "0842517b319a7daa1df91cab779899843a6952726975fef142bd3253fee3a523",
        "predictions.csv": "a11efd94294307c1c8b0f9ca924eb1bbe093c598e6f2562d36dfc8a677ce48be",
        "report.csv": "d6d06f4ca48966ac5511b5a1428602f35a008caa0d2032b4e3bf6b301cc48116",
        "report.json": "9484ade9d9118d2fd7e957d52137b49c43bea21f2226268847f4e414b1ba381d",
        "verdicts.csv": "55e03422e776328cb86820378905e022ee8f3fd18df4e813c34fd1cd551c110e",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_pipeline_artifacts_match_golden_digests(tmp_path, capsys, name):
    out = tmp_path / "run"
    config = CONFIGS_DIR / f"{name}.json"
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {
        file: hashlib.sha256(data).hexdigest() for file, data in _snapshot(out).items()
    }
    assert digests == GOLDEN_DIGESTS[name]


def test_pipeline_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out_a)]) == 0
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert _snapshot(out_a) == _snapshot(out_b)


def test_stage_subcommands_match_pipeline(tmp_path, capsys):
    staged = tmp_path / "staged"
    piped = tmp_path / "piped"
    config = ["--config", str(ADL_CONFIG)]
    assert main(["pipeline", *config, "--out", str(piped)]) == 0
    for stage in ("ingest", "recognize", "affect", "cluster", "train"):
        assert main([stage, *config, "--out", str(staged)]) == 0
    capsys.readouterr()

    stage_files = _snapshot(staged)
    pipe_files = _snapshot(piped)
    for name in (
        "occurrences.csv", "verdicts.csv", "annotated.csv",
        "clusters.csv", "model.json",
    ):
        assert stage_files[name] == pipe_files[name], name


def test_affect_reuses_saved_verdicts(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["ingest", *config]) == 0
    calls = []
    original = recog_mod.detect_occurrence

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(recog_mod, "detect_occurrence", counting)
    assert main(["recognize", *config]) == 0
    recognized = len(calls)
    assert main(["affect", *config]) == 0
    capsys.readouterr()
    occurrences = len((out / "occurrences.csv").read_text().splitlines()) - 1
    # the 144 rows hold 7 distinct evidence sets, each scored once
    assert (occurrences, recognized, len(calls) - recognized) == (144, 7, 0)


_ADL_DEFS = load_adl_defs()


@st.composite
def _evidence(draw) -> tuple[str, frozenset[int], frozenset[int]]:
    """An activity with its full atomic and context id sets, or with partial
    ones drawn from low ids, so different activities often get equal sets."""
    defn = _ADL_DEFS[draw(st.sampled_from(list(_ADL_DEFS)))]
    if draw(st.booleans()):
        return defn.name, defn.atomic_ids, defn.context_ids
    ids = st.frozensets(st.integers(1, 4))
    return defn.name, draw(ids) & defn.atomic_ids, draw(ids) & defn.context_ids


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_recognize_writes_one_verdict_per_row(data):
    # a few evidence sets repeat across the rows, as in a real log
    pool = data.draw(st.lists(_evidence(), min_size=1, max_size=4))
    records = [
        OccurrenceRecord(activity, start, start + 60, atomics, contexts,
                         Source.ANNOTATION)
        for start, (activity, atomics, contexts) in enumerate(data.draw(st.lists(
            st.one_of(st.sampled_from(pool), _evidence()), min_size=1, max_size=20,
        )))
    ]
    lam = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    verdicts = [
        recog_mod.detect_occurrence(_ADL_DEFS[r.activity], r, lam) for r in records
    ]
    want = io.StringIO()
    recog_mod.write_verdicts(records, verdicts, want)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with open(out / "occurrences.csv", "w", newline="") as stream:
            write_occurrences(records, stream)
        assert main([
            "recognize", "--config", str(ADL_CONFIG), "--out", str(out),
            "--lambda", str(lam),
        ]) == 0
        assert (out / "verdicts.csv").read_text() == want.getvalue()


@pytest.mark.parametrize("earlier, stage, table, artifact", [
    (["ingest"], "recognize", "occurrences.csv", "verdicts.csv"),
    (["ingest", "recognize", "affect"], "train", "annotated.csv", "model.json"),
], ids=["recognize", "train"])
def test_stage_rejects_unknown_activity(
    tmp_path, capsys, earlier, stage, table, artifact
):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    for name in earlier:
        assert main([name, *config]) == 0
    path = out / table
    lines = path.read_text().splitlines()
    lines[1] = "Jogging," + lines[1].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main([stage, *config])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {path}: line 2: unknown activity 'Jogging'" in err
    assert not (out / artifact).exists()


@pytest.mark.parametrize("column", [3, 4], ids=["atomic", "context"])
def test_stages_reject_unknown_evidence_ids(tmp_path, capsys, column):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["ingest", *config]) == 0
    assert main(["recognize", *config]) == 0
    occurrences = out / "occurrences.csv"
    lines = occurrences.read_text().splitlines()
    fields = lines[1].split(",")
    fields[column] += ";99"
    lines[1] = ",".join(fields)
    occurrences.write_text("\n".join(lines) + "\n")
    what = "atomic" if column == 3 else "context"
    before = _snapshot(out)
    for stage in ("recognize", "affect", "cluster"):
        capsys.readouterr()
        code = main([stage, *config])
        err = capsys.readouterr().err
        assert code == 2, stage
        assert (
            f"error: {occurrences}: line 2: {fields[0]}: unknown {what} ids [99]" in err
        ), stage
        assert _snapshot(out) == before, stage


@pytest.mark.parametrize("stage, table", [
    ("recognize", "occurrences.csv"),
    ("affect", "occurrences.csv"),
    ("cluster", "occurrences.csv"),
    ("train", "annotated.csv"),
])
def test_stages_reject_an_end_before_its_start(tmp_path, capsys, stage, table):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    for earlier in ("ingest", "recognize", "affect"):
        assert main([earlier, *config]) == 0
    path = out / table
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[1], fields[2] = fields[2], fields[1]
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    before = _snapshot(out)
    capsys.readouterr()
    code = main([stage, *config])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {path}: line 2: end {fields[2]} before start {fields[1]}" in err
    assert _snapshot(out) == before


@pytest.mark.parametrize("edit", ["delete", "swap"])
def test_affect_rejects_verdicts_out_of_step(tmp_path, capsys, edit):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["ingest", *config]) == 0
    assert main(["recognize", *config]) == 0
    lines = (out / "verdicts.csv").read_text().splitlines()
    if edit == "delete":
        del lines[5]
    else:
        lines[5], lines[6] = lines[6], lines[5]
    (out / "verdicts.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["affect", *config])
    err = capsys.readouterr().err
    assert code == 2
    assert "verdicts.csv: rows do not match the occurrences" in err
    assert not (out / "annotated.csv").exists()


def test_evaluate_reproduces_pipeline_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    before = _snapshot(out)
    assert main([
        "evaluate", "--config", str(ADL_CONFIG), "--out", str(out),
        "--predictions", str(out / "predictions.csv"),
    ]) == 0
    capsys.readouterr()
    after = _snapshot(out)
    for name in ("confusion.csv", "report.csv", "report.json"):
        assert after[name] == before[name], name


def test_ingest_ukdale_power_traces(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["ingest", "--config", str(UKDALE_CONFIG), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "wrote 7 occurrences" in stdout
    lines = (out / "occurrences.csv").read_text().splitlines()
    assert len(lines) == 8  # header plus one row per occurrence


UKDALE_OCCURRENCES = """\
activity,start,end,observed_atomics,satisfied_contexts,source
Using Microwave,1709537400,1709537754,1;2;3;4;5;6;7,1;2;3;4;5;6;7,power-trace
Using Washing Machine,1709546400,1709548194,1;2;3;4;5;6;7,1;2;3;4;5;6;7,power-trace
Using Washing Machine,1709548560,1709550594,1;2;3;4;5;6;7,1;2;3;4;5;6;7,power-trace
Using Microwave,1709554500,1709554914,1;2;3;4;5;6;7,1;2;3;4;5;6;7,power-trace
Watching TV,1709571600,1709573094,1;2;3;4;5;6;7,1;2;3;4;5;6;7,power-trace
Using Microwave,1709579100,1709579454,1;2;3;4;5;6;7,1;2;3;4;5;6;7,power-trace
Watching TV,1709580600,1709588694,1;2;3;4;5;6;7,1;2;3;4;5;6;7,power-trace
"""


def test_ingest_ukdale_writes_pinned_occurrences(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["ingest", "--config", str(UKDALE_CONFIG), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "occurrences.csv").read_bytes() == UKDALE_OCCURRENCES.encode()


def test_ingest_rejects_unmapped_channel_before_reading(tmp_path, capsys):
    trace = tmp_path / "sauna.dat"
    trace.write_text("")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "definitions": [str(DEFINITIONS_DIR / "ukdale.json")],
        "datasets": [{"path": str(trace), "kind": "power-trace", "channel": "sauna"}],
        "channel_map": {"tv": "Watching TV"},
        "out_dir": str(tmp_path / "out"),
    }))
    code = main(["ingest", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "channel 'sauna' has no activity mapping" in err


def test_ingest_rejects_channel_mapped_to_undefined_activity(tmp_path, capsys):
    trace = tmp_path / "tv.dat"
    trace.write_text("")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "definitions": [str(DEFINITIONS_DIR / "ukdale.json")],
        "datasets": [{"path": str(trace), "kind": "power-trace", "channel": "tv"}],
        "channel_map": {"tv": "Watching Telly"},
        "out_dir": str(tmp_path / "out"),
    }))
    code = main(["ingest", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert (
        "config key 'channel_map': channel 'tv' maps to undefined activity "
        "'Watching Telly'"
    ) in err


def test_ingest_names_the_trace_file_of_a_bad_line(tmp_path, capsys):
    # the bad line lies past the first block, so the error comes from the
    # per-line parser started part-way through the trace
    lines = [f"{1_700_000_000 + 6 * i} {1200.0 if i % 50 < 20 else 1.5}" for i in range(3000)]
    lines[2500] = lines[2500].replace(" ", " -", 1)
    trace = tmp_path / "tv.dat"
    trace.write_text("\n".join(lines) + "\n")
    assert trace.stat().st_size > tables.TRACE_BLOCK_CHARS
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "definitions": [str(DEFINITIONS_DIR / "ukdale.json")],
        "datasets": [{"path": str(trace), "kind": "power-trace", "channel": "tv"}],
        "channel_map": {"tv": "Watching TV"},
        "out_dir": str(tmp_path / "out"),
    }))
    code = main(["ingest", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {trace}: tv: line 2501: watts must be finite and >= 0" in err


@pytest.mark.parametrize("stage, module, writer", [
    ("recognize", recog_mod, "write_verdicts"),
    ("evaluate", eval_mod, "write_confusion"),
], ids=["verdicts", "confusion"])
def test_failed_write_keeps_the_previous_artifact(
    tmp_path, capsys, monkeypatch, stage, module, writer
):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["pipeline", *config]) == 0
    before = _snapshot(out)

    def failing(*rows_then_stream, heads=None):
        stream = rows_then_stream[-1]
        stream.write("activity,start\npartial,")
        raise OSError("disk full")

    monkeypatch.setattr(module, writer, failing)
    assert main([stage, *config]) == 2
    assert "disk full" in capsys.readouterr().err
    assert _snapshot(out) == before
    assert {p.name for p in out.iterdir()} == PIPELINE_ARTIFACTS  # no temporary file


def test_evaluate_replaces_each_report_file_whole(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["pipeline", *config]) == 0
    replaced = []
    replace = os.replace

    def recording(source, target):
        replaced.append(Path(target).name)
        replace(source, target)

    monkeypatch.setattr(os, "replace", recording)
    assert main(["evaluate", *config]) == 0
    capsys.readouterr()
    assert replaced == ["confusion.csv", "report.csv", "report.json"]


def test_pipeline_prints_each_stage_line_then_its_summary(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote 144 occurrences to {out / 'occurrences.csv'}\n"
        f"wrote 144 verdicts (144 completed) to {out / 'verdicts.csv'}\n"
        f"wrote 144 annotations (144 positive) to {out / 'annotated.csv'}\n"
        f"wrote 144 cluster rows to {out / 'clusters.csv'}\n"
        f"trained on 101 of 143 transitions, wrote {out / 'model.json'}\n"
        f"wrote 42 predictions to {out / 'predictions.csv'}\n"
        "accuracy: 85.71% over 42 pairs\n"
        "pipeline: 144 occurrences, 143 transitions (101 train / 42 test)\n"
    )


def test_each_stage_subcommand_writes_exactly_its_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind,activity\n"
        "15,Eating Breakfast,positive,good,weekday,Leaving\n"
    )
    written: set[str] = set()
    for stage in cli.STAGES:
        argv = [stage.name, "--config", str(ADL_CONFIG), "--out", str(out)]
        if stage.name == "recommend":
            argv += ["--features", str(features)]
        assert main(argv) == 0, stage.name
        new = {p.name for p in out.iterdir()} - written
        assert new == set(stage.outputs), stage.name
        written |= new
    capsys.readouterr()
    assert written == PIPELINE_ARTIFACTS

    # the README's `subcommand | reads | writes` table names the same files
    rows = [
        line.strip("|").split("|")
        for line in (REPO_ROOT / "README.md").read_text().splitlines()
        if line.startswith("| `")
    ]
    readme = {re.findall(r"`([^`]+)`", row[0])[0]: re.findall(r"`([^`]+)`", row[2])
              for row in rows}
    assert {stage.name: readme[stage.name] for stage in cli.STAGES} == {
        stage.name: list(stage.outputs) for stage in cli.STAGES
    }


def test_cluster_calls_the_writer_its_module_holds_when_it_runs(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["ingest", *config]) == 0
    calls = []
    write = temporal_mod.write_clusters

    def spy(ordered, base_day, stream):
        calls.append((ordered, base_day))
        write(ordered, base_day, stream)

    monkeypatch.setattr(temporal_mod, "write_clusters", spy)
    assert main(["cluster", *config]) == 0
    capsys.readouterr()
    with open(out / "occurrences.csv", newline="") as stream:
        records = ingest_mod.read_occurrences(stream, load_adl_defs())
    assert calls == [temporal_mod.cluster_report(records)]


@pytest.mark.parametrize("module, writer", [
    (ingest_mod, "write_occurrences"),
    (recog_mod, "write_verdicts"),
    (affect_mod, "write_annotated"),
    (temporal_mod, "write_clusters"),
], ids=["occurrences", "verdicts", "annotated", "clusters"])
def test_pipeline_calls_each_writer_replaced_after_import_once(
    tmp_path, capsys, monkeypatch, module, writer
):
    calls = []
    write = getattr(module, writer)

    def spy(rows, *rest, **heads):
        calls.append(len(rows))
        write(rows, *rest, **heads)

    monkeypatch.setattr(module, writer, spy)
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == [144]


def test_pipeline_drops_verdicts_and_heads_before_cluster_runs(
    tmp_path, capsys, monkeypatch
):
    held = []

    def cluster(store):
        held.append(set(store))
        return cli._cluster(store)

    monkeypatch.setattr(cli, "STAGES", tuple(
        stage._replace(run=cluster) if stage.name == "cluster" else stage
        for stage in cli.STAGES
    ))
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert held == [{"defs", "records", "annotations"}]


def test_pipeline_formats_the_heads_once_and_a_subcommand_not_at_all(
    tmp_path, capsys, monkeypatch
):
    calls = []
    heads = cli.timed_heads

    def spy(rows):
        calls.append(len(rows))
        return heads(rows)

    monkeypatch.setattr(cli, "timed_heads", spy)
    config = ["--config", str(ADL_CONFIG), "--out", str(tmp_path)]
    assert main(["pipeline", *config]) == 0
    assert calls == [144]
    for stage in ("ingest", "recognize", "affect"):
        assert main([stage, *config]) == 0
    capsys.readouterr()
    assert calls == [144]


# ---------------------------------------------------------------------------
# Per-row values a stage does not copy
# ---------------------------------------------------------------------------

def _stage_store(tmp_path, rows: int) -> cli.Store:
    """A store holding the ADL definitions and ``rows`` records that cycle
    through their activities, each with its definition's full or empty
    atomics, over about one start every 43 minutes."""
    defs = load_adl_defs()
    records = [
        OccurrenceRecord(
            defn.name, 1_700_000_000 + 2_593 * i, 1_700_000_600 + 2_593 * i,
            defn.atomic_ids if i % 3 else frozenset(), defn.context_ids,
            Source.ANNOTATION,
        )
        for i, defn in zip(range(rows), itertools.cycle(defs.values()))
    ]
    store = cli.Store(RunConfig(out_dir=str(tmp_path)), argparse.Namespace())
    store["defs"] = defs
    store["records"] = records
    return store


def _stage_named(name: str) -> cli.Stage:
    return next(stage for stage in cli.STAGES if stage.name == name)


def test_recognize_keeps_one_verdict_object_per_evidence_set(tmp_path):
    store = _stage_store(tmp_path, 500)
    _stage_named("recognize").run(store)
    records, verdicts = store["records"], store["verdicts"]
    evidence = {(r.activity, r.observed_atomics, r.satisfied_contexts) for r in records}
    assert len(verdicts) == len(records)
    assert len(set(map(id, verdicts))) == len(evidence) == 14
    assert verdicts == [
        recog_mod.detect_occurrence(store["defs"][r.activity], r) for r in records
    ]


def _cluster_held_bytes(tmp_path, rows: int) -> int:
    """Traced memory that the cluster stage's summary line and writer hold
    when its run returns, before the loop in `main` writes the table."""
    store = _stage_store(tmp_path, rows)
    tracemalloc.start()
    try:
        result = _stage_named("cluster").run(store)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result[0] == f"wrote {rows} cluster rows to {{path}}"
    return held


def test_cluster_state_before_its_write_holds_no_row(tmp_path):
    # the stage keeps the records in report order, one list slot (8 bytes)
    # a record; a row tuple with its day and minute would add over 100
    added = _cluster_held_bytes(tmp_path, 40_000) - _cluster_held_bytes(tmp_path, 20_000)
    assert added < 12 * 20_000


def test_recommend_subcommand(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind,activity\n"
        "15,Eating Breakfast,positive,good,weekday,Leaving\n"
        "1,none,positive,good,weekday,\n"
    )
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "wrote 2 predictions" in stdout
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0].startswith("activity,prediction,confidence(")
    first = lines[1].split(",")
    assert first[0] == "Leaving"
    assert first[1] == "Leaving"


def test_recommend_memo_matches_one_prediction_per_row(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    # repeated vectors, a first occurrence and values unseen in training
    rows = [
        "15,Eating Breakfast,positive,good,weekday,Leaving",
        "1,none,positive,good,weekday,",
        "15,Eating Breakfast,positive,good,weekday,Eating Lunch",
        "47,Showering,negative,bad,weekend,Sleeping",
        "1,none,positive,good,weekday,Sleeping",
        "15,Eating Breakfast,positive,good,weekday,Leaving",
        "47,Showering,negative,bad,weekend,",
    ]
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind,activity\n"
        + "\n".join(rows) + "\n"
    )
    predict = recom_mod.predict_confidences
    calls = []

    def counting(*args):
        calls.append(1)
        return predict(*args)

    monkeypatch.setattr(recom_mod, "predict_confidences", counting)
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 3  # one per distinct feature vector

    with open(out / "model.json") as stream:
        model = recom_mod.read_model(stream)
    want = [
        "activity,prediction,"
        + ",".join(f"confidence({name})" for name in model.activities)
    ]
    for row in rows:
        bucket, previous, emotion, ux, day, true_label = row.split(",")
        vector = predict(model, recom_mod.FeatureVector(
            int(bucket), None if previous == "none" else previous,
            EmotionLabel(emotion), UXLabel(ux), recom_mod.DayKind(day),
        ))
        want.append(",".join(
            [true_label, recom_mod.recommend(vector)]
            + [repr(vector[name]) for name in model.activities]
        ))
    assert (out / "predictions.csv").read_text().splitlines() == want


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------

def test_stage_without_config_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["pipeline"])


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_config_file(tmp_path, capsys):
    code = main(["pipeline", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_invalid_flag_override(capsys):
    code = main([
        "pipeline", "--config", str(ADL_CONFIG), "--train-fraction", "1.5",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "train_fraction" in err


def test_a_log_of_one_occurrence_is_an_input_error(tmp_path, capsys):
    log = tmp_path / "one.csv"
    log.write_text("".join((DATA_DIR / "adl_log.csv").read_text().splitlines(True)[:2]))
    config = tmp_path / "one.json"
    config.write_text(json.dumps({
        "definitions": [str(DEFINITIONS_DIR / "adl.json")],
        "datasets": [{"path": str(log), "kind": "adl-log"}],
    }))
    assert main(["pipeline", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: train needs at least one transition\n"


@pytest.mark.parametrize("command", [["validate"], ["pipeline", "--config"]])
def test_an_undecodable_definition_or_config_file_is_an_input_error(
    tmp_path, capsys, command
):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("key, message", [
    ("definitions", "embedded null byte"),
    ("datasets", "embedded null byte"),
    ("out_dir", "config key 'out_dir': must hold no NUL character"),
])
def test_a_nul_in_a_path_is_an_input_error(tmp_path, capsys, key, message):
    document = {
        "definitions": [str(DEFINITIONS_DIR / "adl.json")],
        "datasets": [{"path": str(DATA_DIR / "adl_log.csv"), "kind": "adl-log"}],
        "out_dir": str(tmp_path / "out"),
    }
    if key == "definitions":
        document["definitions"] = [str(DEFINITIONS_DIR / "a\0dl.json")]
    elif key == "datasets":
        document["datasets"][0]["path"] = str(DATA_DIR / "adl\0log.csv")
    else:
        document["out_dir"] += "\0"
    config = tmp_path / "run.json"
    config.write_text(json.dumps(document))
    assert main(["ingest", "--config", str(config)]) == 2
    assert capsys.readouterr().err.endswith(message + "\n")


def test_a_program_bug_exits_1_with_its_traceback(tmp_path):
    # the stage's own code raises a plain ValueError, as a bug would
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from adl_engine import cli, temporal\n"
        "def cluster_report(records):\n"
        "    raise ValueError('a bug, not an input error')\n"
        "temporal.cluster_report = cluster_report\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(REPO_ROOT / "src"),
         "pipeline", "--config", str(ADL_CONFIG), "--out", str(tmp_path / "run")],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("Traceback (most recent call last):\n")
    assert result.stderr.endswith("ValueError: a bug, not an input error\n")
    assert "error:" not in result.stderr


def test_recommend_rejects_malformed_feature_rows(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind\n"
        "nonsense,none,positive,good,weekday\n"
    )
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("text, message", [
    ("[]", "expected a JSON object, got list"),
    ("{}", "model lacks key 'activities'"),
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
], ids=["array", "empty-object", "not-json"])
def test_recommend_names_a_malformed_model_file(tmp_path, capsys, text, message):
    model = tmp_path / "model.json"
    model.write_text(text)
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind\n"
        "1,none,positive,good,weekday\n"
    )
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(tmp_path / "run"),
        "--model", str(model), "--features", str(features),
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: {model}: {message}\n"


# what `RecommenderModel.from_json` says when a model breaks part of the
# invariant that every model `train` writes holds
_ACTIVITIES_RULE = "model activities must be the sorted keys of class_counts"
_N_TRANSITIONS_RULE = (
    "model n_transitions must be in [1, 2**53] and the sum of class_counts"
)
_SLEEPING_UX_RULE = (
    "model feature_counts['ux']['Sleeping'] must be counts >= 1 "
    "that sum to class_counts['Sleeping']"
)


def _recommend_with_edited_model(tmp_path, capsys, edit) -> tuple[Path, int, str]:
    """The model path, exit code and stderr of ``recommend --features`` on
    the bundled run's model.json after ``edit`` changed its JSON object."""
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    model = out / "model.json"
    payload = json.loads(model.read_text())
    edit(payload)
    model.write_text(json.dumps(payload))
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind\n"
        "1,none,positive,good,weekday\n"
    )
    capsys.readouterr()
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    return model, code, capsys.readouterr().err


def test_recommend_rejects_a_model_with_no_activities(tmp_path, capsys):
    model, code, err = _recommend_with_edited_model(
        tmp_path, capsys, lambda payload: payload.update(activities=[], class_counts={})
    )
    assert code == 2
    assert err == f"error: {model}: {_N_TRANSITIONS_RULE}\n"


def test_recommend_rejects_a_model_that_repeats_an_activity(tmp_path, capsys):
    model, code, err = _recommend_with_edited_model(
        tmp_path, capsys, lambda payload: payload["activities"].append("Eating Breakfast")
    )
    assert code == 2
    assert err == f"error: {model}: {_ACTIVITIES_RULE}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload["activities"].__setitem__(0, 7), _ACTIVITIES_RULE),
    (lambda payload: payload["activities"].append("Jogging"), _ACTIVITIES_RULE),
    # a class that training never saw has count 0, as `train` writes it
    (lambda payload: (payload.update(activities=sorted([*payload["activities"], "Jogging"])),
                      payload["class_counts"].update(Jogging=0)),
     "model activity 'Jogging' is not defined"),
], ids=["not-a-string", "undefined", "undefined-class"])
def test_recommend_rejects_a_model_activity(tmp_path, capsys, edit, message):
    model, code, err = _recommend_with_edited_model(tmp_path, capsys, edit)
    assert code == 2
    assert err == f"error: {model}: {message}\n"


def test_recommend_builds_one_feature_vector_per_distinct_row_text(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    features = tmp_path / "features.csv"
    distinct = [
        "1,none,positive,good,weekday\n",
        "2,Sleeping,negative,bad,weekend\n",
        "3,,positive,bad,weekday\n",
    ]
    features.write_text("time_bucket,previous_activity,emotion,ux,day_kind\n"
                        + "".join(distinct * 4))
    built = []
    vector = recom_mod.FeatureVector
    monkeypatch.setattr(
        recom_mod, "FeatureVector", lambda *fields: built.append(fields) or vector(*fields)
    )
    capsys.readouterr()
    assert main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ]) == 0
    assert capsys.readouterr().out.startswith("wrote 12 predictions to ")
    assert len(built) == len(distinct)


@pytest.mark.parametrize("table", ["feature_domains", "feature_counts"])
def test_recommend_names_a_model_feature_that_is_missing(tmp_path, capsys, table):
    model, code, err = _recommend_with_edited_model(
        tmp_path, capsys, lambda payload: payload[table].pop("ux")
    )
    assert code == 2
    assert err == (
        f"error: {model}: model {table} must name exactly "
        "time_bucket, previous_activity, emotion, ux, day_kind\n"
    )


@pytest.mark.parametrize("alpha", [-0.5, 0.0, float("nan"), float("inf"), 1e308, 1e-308])
def test_recommend_rejects_a_model_alpha_that_is_not_finite_and_positive(
    tmp_path, capsys, alpha
):
    # json writes nan and inf as NaN and Infinity, and reads them back; 1e308
    # and 1e-308 are finite and positive, but a posterior weight at either
    # overflows or underflows to zero
    model, code, err = _recommend_with_edited_model(
        tmp_path, capsys, lambda payload: payload.update(alpha=alpha)
    )
    rule = "in [1e-12, 1e12]" if math.isfinite(alpha) else "finite"
    assert code == 2
    assert err == f"error: {model}: alpha must be {rule}, got {alpha}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload.update(n_transitions=-1), _N_TRANSITIONS_RULE),
    (lambda payload: payload["class_counts"].update(Sleeping=-1), _N_TRANSITIONS_RULE),
    (lambda payload: payload["feature_counts"]["ux"]["Sleeping"].update(good=-1),
     _SLEEPING_UX_RULE),
], ids=["n_transitions", "class_counts", "feature_counts"])
def test_recommend_rejects_a_negative_model_count(tmp_path, capsys, edit, message):
    model, code, err = _recommend_with_edited_model(tmp_path, capsys, edit)
    assert code == 2
    assert err == f"error: {model}: {message}\n"


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload.update(n_transitions=10**400), _N_TRANSITIONS_RULE),
    (lambda payload: payload["class_counts"].update(Sleeping=10**400), _N_TRANSITIONS_RULE),
    (lambda payload: payload["feature_counts"]["ux"]["Sleeping"].update(good=10**400),
     _SLEEPING_UX_RULE),
], ids=["n_transitions", "class_counts", "feature_counts"])
def test_recommend_rejects_a_model_count_too_large_for_a_float(
    tmp_path, capsys, edit, message
):
    model, code, err = _recommend_with_edited_model(tmp_path, capsys, edit)
    assert code == 2
    assert err == f"error: {model}: {message}\n"


@pytest.mark.parametrize("edit, message", [
    # each conditional is about 1e300, so a weight overflows to inf
    (lambda payload: set_feature_counts(payload, 10**300),
     "model feature_counts['time_bucket']['Eating Breakfast'] must be counts >= 1 "
     "that sum to class_counts['Eating Breakfast']"),
    # consistent counts, but at this alpha every weight underflows to 0
    (lambda payload: (scale_counts(payload, 10**298), payload.update(alpha=1e-12)),
     _N_TRANSITIONS_RULE),
    # `train` writes each count and the bucket width as a JSON integer and
    # alpha as a JSON number; none is truncated or parsed from a string
    (lambda payload: payload["class_counts"].update(Sleeping=15.9),
     "malformed model: expected an integer, got 15.9"),
    (lambda payload: payload.update(n_transitions="101"),
     "malformed model: expected an integer, got '101'"),
    (lambda payload: payload.update(n_transitions=True),
     "malformed model: expected an integer, got True"),
    (lambda payload: payload["feature_counts"]["ux"]["Sleeping"].update(good=15.2),
     "malformed model: expected an integer, got 15.2"),
    (lambda payload: payload.update(bucket_width=30.7),
     "malformed model: expected an integer, got 30.7"),
    (lambda payload: payload.update(alpha="1.0"),
     "malformed model: expected a number, got '1.0'"),
    (lambda payload: payload.update(alpha=True),
     "malformed model: expected a number, got True"),
], ids=[
    "feature-counts-above-class-count", "counts-scaled-past-2**53", "fractional-class-count",
    "string-n_transitions", "bool-n_transitions", "fractional-feature-count",
    "fractional-bucket_width", "string-alpha", "bool-alpha",
])
def test_recommend_rejects_a_model_that_train_could_not_write(
    tmp_path, capsys, edit, message
):
    model, code, err = _recommend_with_edited_model(tmp_path, capsys, edit)
    assert code == 2
    assert err == f"error: {model}: {message}\n"


@pytest.mark.parametrize("edit", [
    lambda payload: payload.update(alpha=10**400),
    lambda payload: payload.update(n_transitions=1e400),
], ids=["int-alpha", "float-count"])
def test_recommend_rejects_a_model_number_that_overflows_its_conversion(
    tmp_path, capsys, edit
):
    # json reads 1e400 as inf, which is no integer; float() of a 401-digit int overflows
    model, code, err = _recommend_with_edited_model(tmp_path, capsys, edit)
    assert code == 2
    assert err.startswith(f"error: {model}: malformed model: ")


def test_recommend_rejects_a_model_with_an_empty_feature_domain(tmp_path, capsys):
    def edit(payload):
        payload["feature_domains"]["ux"] = []
        payload["feature_counts"]["ux"] = {}
        payload["class_counts"] = {}

    model, code, err = _recommend_with_edited_model(tmp_path, capsys, edit)
    assert code == 2
    assert err == f"error: {model}: {_ACTIVITIES_RULE}\n"


@pytest.mark.parametrize("bucket_width", [0, 1441])
def test_recommend_rejects_a_model_bucket_width_outside_a_day(
    tmp_path, capsys, bucket_width
):
    model, code, err = _recommend_with_edited_model(
        tmp_path, capsys, lambda payload: payload.update(bucket_width=bucket_width)
    )
    assert code == 2
    assert err == f"error: {model}: bucket_width must be in [1, 1440], got {bucket_width}\n"


@pytest.mark.parametrize("bucket_width, last_bucket", [(30, 47), (60, 23), (7, 205)])
def test_recommend_rejects_a_time_bucket_the_model_cannot_hold(
    tmp_path, capsys, bucket_width, last_bucket
):
    # a day holds ceil(1440 / bucket_width) buckets of the model's width
    out = tmp_path / "run"
    assert main([
        "pipeline", "--config", str(ADL_CONFIG), "--out", str(out),
        "--bucket-width", str(bucket_width),
    ]) == 0
    features = tmp_path / "features.csv"
    row = ",Eating Breakfast,positive,good,weekday,Leaving\n"
    header = "time_bucket,previous_activity,emotion,ux,day_kind,activity\n"
    features.write_text(header + f"{last_bucket}{row}")
    argv = [
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ]
    capsys.readouterr()
    assert main(argv) == 0
    features.write_text(header + f"{last_bucket}{row}" * 2 + f"{last_bucket + 1}{row}")
    before = _snapshot(out)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {features}: line 4: time_bucket must be < {last_bucket + 1} "
        f"for the model's bucket_width {bucket_width}, got {last_bucket + 1}\n"
    )
    assert _snapshot(out) == before


def test_recommend_rejects_unknown_day_kind(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind,activity\n"
        "15,Eating Breakfast,positive,good,weekday,Leaving\n"
        "15,Eating Breakfast,positive,good,holiday,Leaving\n"
    )
    capsys.readouterr()
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {features}: line 3: unknown day_kind 'holiday'" in err


@pytest.mark.parametrize("column, what", [(5, "true"), (1, "previous")],
                         ids=["true", "previous"])
def test_recommend_rejects_unknown_feature_labels(tmp_path, capsys, column, what):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    before = _snapshot(out)
    fields = "15,Eating Breakfast,positive,good,weekday,Leaving".split(",")
    fields[column] = "Swimming"
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind,activity\n"
        "1,none,positive,good,weekday,\n" + ",".join(fields) + "\n"
    )
    capsys.readouterr()
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {features}: line 3: unknown {what} activity 'Swimming'" in err
    assert _snapshot(out) == before


def test_recommend_rejects_short_feature_rows(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind,activity\n"
        "15,Eating Breakfast\n"
    )
    capsys.readouterr()
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {features}: line 2:" in err


def test_recommend_rejects_long_feature_rows(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,emotion,ux,day_kind,activity\n"
        "15,Eating Breakfast,positive,good,weekday,Leaving\n"
        "15,Eating Breakfast,positive,good,weekday,Leaving,EXTRA,MORE\n"
    )
    capsys.readouterr()
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {features}: line 3: more fields than the header" in err


def test_evaluate_rejects_a_predictions_file_with_no_rows(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    predictions = out / "predictions.csv"
    predictions.write_text(predictions.read_text().splitlines(keepends=True)[0])
    capsys.readouterr()
    assert main(["evaluate", "--config", str(ADL_CONFIG), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no predictions to evaluate\n"


def test_evaluate_rejects_long_prediction_rows(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    predictions = out / "predictions.csv"
    lines = predictions.read_text().splitlines()
    lines[1] += ",EXTRA"
    predictions.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main([
        "evaluate", "--config", str(ADL_CONFIG), "--out", str(out),
        "--predictions", str(predictions),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {predictions}: line 2: more fields than the header" in err


def test_evaluate_rejects_short_prediction_rows(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    predictions = out / "predictions.csv"
    header = predictions.read_text().splitlines()[0]
    predictions.write_text(f"{header}\nLeaving\n")
    capsys.readouterr()
    code = main([
        "evaluate", "--config", str(ADL_CONFIG), "--out", str(out),
        "--predictions", str(predictions),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {predictions}: line 2:" in err


@pytest.mark.parametrize("column, what", [(0, "true"), (1, "predicted")],
                         ids=["true", "predicted"])
def test_evaluate_rejects_unknown_labels(tmp_path, capsys, column, what):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    predictions = out / "predictions.csv"
    lines = predictions.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = "Jogging"
    lines[2] = ",".join(fields)
    predictions.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main([
        "evaluate", "--config", str(ADL_CONFIG), "--out", str(out),
        "--predictions", str(predictions),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {predictions}: line 3: unknown {what} activity 'Jogging'" in err


_FEATURE_ROW = "15,Eating Breakfast,positive,good,weekday,Leaving\n"


@pytest.mark.parametrize("rows", [_FEATURE_ROW, ""], ids=["rows", "no-rows"])
def test_recommend_rejects_a_feature_header_without_a_required_column(
    tmp_path, capsys, rows
):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    before = _snapshot(out)
    features = tmp_path / "features.csv"
    features.write_text(
        "time_bucket,previous_activity,ux,day_kind,activity\n"
        + rows.replace("positive,", "")
    )
    capsys.readouterr()
    code = main([
        "recommend", "--config", str(ADL_CONFIG), "--out", str(out),
        "--features", str(features),
    ])
    assert code == 2
    assert f"error: {features}: line 1: missing column 'emotion'" in capsys.readouterr().err
    assert _snapshot(out) == before


def test_evaluate_rejects_a_prediction_header_without_prediction(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    predictions = tmp_path / "predictions.csv"
    predictions.write_text("activity,guess\nLeaving,Leaving\n")
    before = _snapshot(out)
    capsys.readouterr()
    code = main([
        "evaluate", "--config", str(ADL_CONFIG), "--out", str(out),
        "--predictions", str(predictions),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {predictions}: line 1: missing column 'prediction'" in err
    assert _snapshot(out) == before


@pytest.mark.parametrize("command, option, text", [
    ("recommend", "--features",
     "time_bucket,previous_activity,emotion,ux,day_kind,activity,activity\n"
     + _FEATURE_ROW.replace("\n", ",Sleeping\n")),
    ("evaluate", "--predictions",
     "activity,prediction,activity\nLeaving,Leaving,Sleeping\n"),
], ids=["features", "predictions"])
def test_user_table_header_naming_activity_twice_is_rejected(
    tmp_path, capsys, command, option, text
):
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    before = _snapshot(out)
    table = tmp_path / "table.csv"
    table.write_text(text)
    capsys.readouterr()
    code = main([
        command, "--config", str(ADL_CONFIG), "--out", str(out), option, str(table),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {table}: line 1: column 'activity' named twice" in err
    assert _snapshot(out) == before


def test_cluster_rejects_short_occurrence_rows(tmp_path, capsys):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["ingest", *config]) == 0
    occurrences = out / "occurrences.csv"
    lines = occurrences.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:2])
    occurrences.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["cluster", *config])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {occurrences}: line 4: expected 6 fields, got 2" in err


def test_cluster_rejects_oversized_occurrence_field(tmp_path, capsys):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["ingest", *config]) == 0
    occurrences = out / "occurrences.csv"
    lines = occurrences.read_text().splitlines()
    lines[3] = "x" * (csv.field_size_limit() + 1) + lines[3]
    occurrences.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["cluster", *config])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {occurrences}: line 4: field larger than field limit" in err


def test_ingest_rejects_oversized_annotation_field(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text(
        "start_iso8601,end_iso8601,activity\n"
        "2024-03-04T07:00:00+00:00,2024-03-04T07:20:00+00:00,Sleeping\n"
        f"2024-03-04T08:00:00+00:00,2024-03-04T08:20:00+00:00,"
        f"{'x' * (csv.field_size_limit() + 1)}\n"
    )
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "definitions": [str(DEFINITIONS_DIR / "adl.json")],
        "datasets": [{"path": str(log), "kind": "adl-log"}],
        "out_dir": str(tmp_path / "out"),
    }))
    code = main(["ingest", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {log}: line 3: field larger than field limit" in err


def test_affect_rejects_unknown_completed_flag(tmp_path, capsys):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    assert main(["ingest", *config]) == 0
    assert main(["recognize", *config]) == 0
    verdicts = out / "verdicts.csv"
    lines = verdicts.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",yes"
    verdicts.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["affect", *config])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {verdicts}: line 3: expected 'true' or 'false', got 'yes'" in err


@pytest.mark.parametrize("stage, table", [
    ("affect", "verdicts.csv"), ("train", "annotated.csv"),
])
@pytest.mark.parametrize("score", ["nan", "-7.5"])
def test_stages_reject_a_score_outside_the_unit_interval(
    tmp_path, capsys, stage, table, score
):
    out = tmp_path / "run"
    config = ["--config", str(ADL_CONFIG), "--out", str(out)]
    for earlier in ("ingest", "recognize", "affect"):
        assert main([earlier, *config]) == 0
    path = out / table
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[3] = score
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    before = _snapshot(out)
    capsys.readouterr()
    code = main([stage, *config])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {path}: line 3: score must be in [0, 1], got {score}" in err
    assert _snapshot(out) == before


# ---------------------------------------------------------------------------
# The cyclic collector around the stage loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fails", [False, True], ids=["succeeds", "fails"])
@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_main_runs_stages_without_the_collector_and_restores_it(
    tmp_path, capsys, monkeypatch, collecting, fails
):
    seen = []

    def stage(store):
        seen.append(gc.isenabled())
        if fails:
            raise ConfigError("stage failed")
        return "stage done", []

    monkeypatch.setattr(
        cli, "STAGES", tuple(s._replace(run=stage) for s in cli.STAGES)
    )
    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        code = main(["cluster", "--config", str(ADL_CONFIG), "--out", str(tmp_path)])
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert (code, seen, after) == (2 if fails else 0, [False], collecting)
    assert ("error: stage failed" in capsys.readouterr().err) is fails


def test_main_restores_the_collector_after_a_usage_error(capsys):
    assert gc.isenabled()
    with pytest.raises(SystemExit):
        main(["cluster"])
    assert gc.isenabled()
    assert "cluster requires --config" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ADL_ENGINE_LOG diagnostics on stderr
# ---------------------------------------------------------------------------

def test_default_log_level_keeps_stderr_empty(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ADL_ENGINE_LOG", raising=False)
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("level", ["info", "INFO", "debug"])
def test_info_level_names_each_ingested_file(tmp_path, capsys, monkeypatch, level):
    monkeypatch.setenv("ADL_ENGINE_LOG", level)
    assert main(["ingest", "--config", str(ADL_CONFIG), "--out", str(tmp_path)]) == 0
    (log,) = load_config(ADL_CONFIG).datasets
    ingested, timing = capsys.readouterr().err.split("\n", 1)
    assert ingested == f"INFO adl_engine: ingested 144 occurrences from {log.path}"
    assert re.fullmatch(_TIMING_LINE.format(stage="ingest") + "\n", timing)


# the line each stage logs at ``info``: its compute and write seconds
_TIMING_LINE = r"INFO adl_engine: {stage}: compute \d+\.\d{{4}} s, write \d+\.\d{{4}} s"


@pytest.mark.parametrize("config", [ADL_CONFIG, UKDALE_CONFIG], ids=["adl", "ukdale"])
def test_info_level_times_each_stage_on_stderr_only(tmp_path, capsys, monkeypatch, config):
    monkeypatch.delenv("ADL_ENGINE_LOG", raising=False)
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr().out.replace(str(tmp_path / "plain"), "<out>")
    monkeypatch.setenv("ADL_ENGINE_LOG", "info")
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "info")]) == 0
    captured = capsys.readouterr()
    assert captured.out.replace(str(tmp_path / "info"), "<out>") == plain
    assert _snapshot(tmp_path / "info") == _snapshot(tmp_path / "plain")
    timings = [line for line in captured.err.splitlines() if " compute " in line]
    assert len(timings) == len(cli.STAGES)
    for stage, line in zip(cli.STAGES, timings):
        assert re.fullmatch(_TIMING_LINE.format(stage=stage.name), line)


def test_debug_level_prints_a_failed_run_traceback(tmp_path, capsys, monkeypatch):
    def stage(store):
        raise ConfigError("stage failed")

    monkeypatch.setattr(cli, "STAGES", tuple(s._replace(run=stage) for s in cli.STAGES))
    monkeypatch.setenv("ADL_ENGINE_LOG", "debug")
    code = main(["cluster", "--config", str(ADL_CONFIG), "--out", str(tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert lines[:2] == [
        "DEBUG adl_engine: command failed", "Traceback (most recent call last):",
    ]
    assert '    raise ConfigError("stage failed")' in lines
    assert lines[-2:] == [
        "adl_engine.config.ConfigError: stage failed", "error: stage failed",
    ]


def test_main_leaves_the_host_logging_configuration_alone(tmp_path, capsys, monkeypatch):
    # a host that has not configured logging: the root logger has no handler
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    level = root.level
    monkeypatch.setenv("ADL_ENGINE_LOG", "info")
    assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", str(tmp_path)]) == 0
    assert (root.handlers, root.level) == ([], level)
    capsys.readouterr()
    logging.getLogger("host").warning("host message")
    assert capsys.readouterr().err == "host message\n"


# ---------------------------------------------------------------------------
# Input errors found before a stage writes
# ---------------------------------------------------------------------------

def test_control_character_in_a_definition_name_is_rejected(tmp_path, capsys):
    catalogue = json.loads((DEFINITIONS_DIR / "ukdale.json").read_text())
    for entry in catalogue["definitions"]:
        if entry["name"] == "Using Microwave":
            entry["name"] = "Using\rMicrowave"
    definitions = tmp_path / "ukdale.json"
    definitions.write_text(json.dumps(catalogue))
    document = json.loads(UKDALE_CONFIG.read_text())
    document["definitions"] = [str(definitions)]
    document["datasets"] = [
        {**spec, "path": str((CONFIGS_DIR / spec["path"]).resolve())}
        for spec in document["datasets"]
    ]
    document["channel_map"]["microwave"] = "Using\rMicrowave"
    out = tmp_path / "out"
    document["out_dir"] = str(out)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(document))
    violation = "'Using\\rMicrowave': definition name holds a control character"

    assert main(["validate", str(definitions)]) == 2
    assert f"FAIL {definitions}: {violation}" in capsys.readouterr().out

    assert main(["ingest", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: 1 definition fault(s):\n  {definitions}: {violation}\n"
    assert not out.exists()


def test_a_definition_named_none_is_rejected(tmp_path, capsys):
    catalogue = json.loads((DEFINITIONS_DIR / "adl.json").read_text())
    for entry in catalogue["definitions"]:
        if entry["name"] == "Sleeping":
            entry["name"] = "none"
    definitions = tmp_path / "adl.json"
    definitions.write_text(json.dumps(catalogue))
    document = json.loads(ADL_CONFIG.read_text())
    document["definitions"] = [str(definitions)]
    document["datasets"] = [
        {**spec, "path": str((CONFIGS_DIR / spec["path"]).resolve())}
        for spec in document["datasets"]
    ]
    out = tmp_path / "out"
    document["out_dir"] = str(out)
    config = tmp_path / "run.json"
    config.write_text(json.dumps(document))
    violation = "none: the name is reserved for no previous activity"

    assert main(["validate", str(definitions)]) == 2
    stdout = capsys.readouterr().out
    assert f"FAIL {definitions}: {violation}" in stdout
    assert f"{len(catalogue['definitions']) - 1} of {len(catalogue['definitions'])}" in stdout

    assert main(["ingest", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: 1 definition fault(s):\n  {definitions}: {violation}\n"
    assert not out.exists()


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "definitions": [str(tmp_path / "missing.json")],
        "datasets": [{"path": str(DATA_DIR / "adl_log.csv"), "kind": "adl-log"}],
        "out_dir": str(out),
    }))
    assert main(["ingest", "--config", str(config)]) == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


def test_nested_output_directory_is_made_by_the_first_write(tmp_path):
    out = tmp_path / "a" / "b" / "out"
    assert main(["ingest", "--config", str(ADL_CONFIG), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["occurrences.csv"]


@pytest.mark.parametrize("flags, train, held_out", [
    (["--config", str(UKDALE_CONFIG), "--train-fraction", "0.99", "--on-watts", "50"],
     6, 0),
    (["--config", str(ADL_CONFIG), "--train-fraction", "1e-12"], 0, 143),
], ids=["nothing-held-out", "nothing-to-train"])
def test_split_with_an_empty_part_is_an_input_error(
    tmp_path, capsys, flags, train, held_out
):
    out = tmp_path / "out"
    assert main(["pipeline", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (
        f"error: config key 'train_fraction': {flags[3]!s} splits {train + held_out} "
        f"transitions into {train} for training and {held_out} held out; "
        "each part needs at least one"
    ) in err
    assert not (out / "model.json").exists()
    assert not (out / "predictions.csv").exists()


# ---------------------------------------------------------------------------
# Names the benchmark traces
# ---------------------------------------------------------------------------

def test_traced_names_resolve_to_engine_functions():
    """`perfbench/spans.py` wraps `adl_engine.<module>.<name>` for every
    `TRACED` entry, so a deleted or renamed one fails every traced run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"adl_engine.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
