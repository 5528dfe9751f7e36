"""Mutated inputs never crash the engine.

A run on a mutated input must exit 0, or exit 2 with exactly one ``error:``
line; a traceback or exit 1 would be a program bug.  The mutations come from
one fixed menu: a token becomes a number text the parsers must reject or
accept, a character the plain-block checks must catch, or a CSV or time
zone fragment; a line is deleted, duplicated or swapped; the file is
truncated anywhere.  The fast readers fall back to a slower per-line reader
on anything unusual, and these runs check that each fallback still yields
an input error, not a crash.  The menu applied to the bundled annotation
log, with more time-stamp tokens, checks that `pipeline` runs it or
refuses it.  The same menu applied to a bundled run's ``model.json``, and
edits of its parsed object (a count moved by one, a
value added to a domain, a class added or removed, every count scaled),
check that `recommend` rejects a model as an input error or predicts, for
every row, a model activity with finite confidences that sum to 1.  The
menu applied to the bundled ADL catalogue, and edits of its leaves, check
that `validate` and `ingest` refuse a catalogue for the same faults.  The
same leaf values set as keys of the bundled ADL config check that
`pipeline` runs or refuses the config as an input error.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adl_engine.cli import main
from adl_engine.config import PARAMS
from adl_engine.recommender import FEATURE_NAMES
from helpers import (
    CONFIGS_DIR,
    DATA_DIR,
    DEFINITIONS_DIR,
    model_counts,
    scale_counts,
    set_feature_counts,
)

_UKDALE = json.loads((CONFIGS_DIR / "ukdale.json").read_text())
# each bundled power trace, by channel, as its lines with their line ends
_TRACE_LINES = {
    spec["channel"]: (CONFIGS_DIR / spec["path"]).read_text().splitlines(keepends=True)
    for spec in _UKDALE["datasets"]
}
_TOKENS = ["nan", "inf", "-1", "1e308", "\0", "\ufeff", '"', ",", "+01:00"]
ADL_CONFIG = CONFIGS_DIR / "adl.json"


def _mutate(draw, lines: list[str], sep: str = " ", tokens: list[str] = _TOKENS) -> str:
    """``lines`` joined after 1-3 mutations from the menu, a token being a
    part of a line split at ``sep`` and its replacement one of ``tokens``."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "delete", "duplicate", "swap", "truncate"]))
        if kind == "token":
            parts = lines[i].rstrip("\n").split(sep)
            j = draw(st.integers(0, len(parts) - 1))
            # a JSON line's last token keeps its comma, so the line still parses
            comma = "," if parts[j].endswith(",") else ""
            parts[j] = draw(st.sampled_from(tokens)) + comma
            lines[i] = sep.join(parts) + "\n"
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i:] = [lines[i][:draw(st.integers(0, len(lines[i])))]]
    return "".join(lines)


@st.composite
def _mutated_trace(draw):
    """A bundled trace's channel and its text after 1-3 mutations."""
    channel = draw(st.sampled_from(sorted(_TRACE_LINES)))
    return channel, _mutate(draw, _TRACE_LINES[channel])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated=_mutated_trace())
def test_mutated_trace_is_ingested_or_rejected_as_an_input_error(mutated):
    channel, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / f"{channel}.dat"
        trace.write_text(text, encoding="utf-8")
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps({
            "definitions": [str(DEFINITIONS_DIR / "ukdale.json")],
            "datasets": [{"path": str(trace), "kind": "power-trace", "channel": channel}],
            "channel_map": {channel: _UKDALE["channel_map"][channel]},
            "out_dir": str(Path(tmp) / "out"),
        }))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["ingest", "--config", str(config)])
    _assert_ran_or_rejected(code, err.getvalue())


_LOG_LINES = (DATA_DIR / "adl_log.csv").read_text().splitlines(keepends=True)
# activity names hold spaces, so a log line's tokens are its comma-separated
# fields; besides the menu, a field may become empty, a bare zone, a day no
# month has, or the last second of the calendar at the easternmost offset
_LOG_TOKENS = [*_TOKENS, "", "Z", "2024-02-30T00:00:00", "9999-12-31T23:59:59+14:00"]


@st.composite
def _mutated_log(draw):
    """The bundled annotation log's text after 1-3 mutations."""
    return _mutate(draw, _LOG_LINES, ",", _LOG_TOKENS)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=_mutated_log())
def test_mutated_log_is_run_or_rejected_as_an_input_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "adl_log.csv"
        log.write_text(text, encoding="utf-8")
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps({
            "definitions": [str(DEFINITIONS_DIR / "adl.json")],
            "datasets": [{"path": str(log), "kind": "adl-log"}],
            "out_dir": str(Path(tmp) / "out"),
        }))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pipeline", "--config", str(config)])
    _assert_ran_or_rejected(code, err.getvalue())


def _assert_ran_or_rejected(code: int, err: str) -> None:
    assert code in (0, 2)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 2)


@functools.cache
def _model_lines() -> list[str]:
    """The lines of the ``model.json`` that `pipeline` writes for the bundled
    ADL config."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["pipeline", "--config", str(ADL_CONFIG), "--out", tmp]) == 0
        return (Path(tmp) / "model.json").read_text().splitlines(keepends=True)


# rows across the day clock, with and without a previous activity
_FEATURES = (
    "time_bucket,previous_activity,emotion,ux,day_kind\n"
    "0,none,positive,good,weekday\n"
    "17,Sleeping,negative,bad,weekend\n"
    "47,Showering,positive,bad,weekday\n"
)


@st.composite
def _mutated_model(draw):
    """The bundled run's model text after 1-3 mutations."""
    return _mutate(draw, _model_lines())


def _edited_model(edit) -> str:
    """The bundled run's model text after ``edit`` changed its JSON object."""
    payload = json.loads("".join(_model_lines()))
    edit(payload)
    return json.dumps(payload)


def _model_with_alpha(alpha: float) -> str:
    """The bundled run's model text with its ``alpha`` set to ``alpha``."""
    return _edited_model(lambda payload: payload.update(alpha=alpha))


@st.composite
def _edited_model_object(draw):
    """The bundled run's model text after 1-2 edits of its parsed object."""
    payload = json.loads("".join(_model_lines()))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["count", "domain", "add", "remove", "scale"]))
        if kind == "count":
            table, key = draw(st.sampled_from(model_counts(payload)))
            table[key] += draw(st.sampled_from([-1, 1]))
        elif kind == "domain":
            domain = payload["feature_domains"][draw(st.sampled_from(FEATURE_NAMES))]
            value = draw(st.sampled_from(["0", "47", "none", "Jogging", *domain[:1]]))
            domain.insert(draw(st.integers(0, len(domain))), value)
        elif kind == "add":
            # a name no definition defines, or one the model already holds
            name = draw(st.sampled_from(["Jogging", *payload["activities"]]))
            activities = payload["activities"]
            activities.insert(draw(st.integers(0, len(activities))), name)
            count = draw(st.integers(0, 2))
            payload["class_counts"][name] = count
            if count and draw(st.booleans()):  # seen by training too
                payload["n_transitions"] += count
                for f in FEATURE_NAMES:
                    value = payload["feature_domains"][f][0]
                    payload["feature_counts"][f][name] = {value: count}
        elif kind == "remove":
            name = draw(st.sampled_from(payload["activities"]))
            payload["activities"].remove(name)
            count = payload["class_counts"].pop(name, 0)
            if draw(st.booleans()):  # as if training had never seen it
                payload["n_transitions"] -= count
                for f, per_class in payload["feature_counts"].items():
                    per_class.pop(name, None)
                    payload["feature_domains"][f] = sorted(set().union(*per_class.values()))
        else:
            # up to 10**13 the counts stay within 2**53, a model `train` could write
            scale_counts(payload, 10 ** draw(st.one_of(st.integers(1, 13), st.integers(14, 300))))
            payload["alpha"] = draw(st.sampled_from([payload["alpha"], 1e-12, 1e12]))
    return json.dumps(payload)


def _recommend(text: str) -> None:
    """Run `recommend` on model ``text`` and the fixed feature rows: it exits
    2 with one ``error:`` line, or 0 with a prediction for every row that is
    a model activity, whose confidences are finite and sum to 1."""
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(text, encoding="utf-8")
        features = Path(tmp) / "features.csv"
        features.write_text(_FEATURES)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([
                "recommend", "--config", str(ADL_CONFIG), "--out", str(Path(tmp) / "out"),
                "--model", str(model), "--features", str(features),
            ])
        _assert_ran_or_rejected(code, err.getvalue())
        if code:
            return
        activities = json.loads(text)["activities"]
        with open(Path(tmp) / "out" / "predictions.csv", newline="") as stream:
            header, *rows = csv.reader(stream)
    assert header[2:] == [f"confidence({name})" for name in activities]
    assert len(rows) == _FEATURES.count("\n") - 1
    for _, predicted, *confidences in rows:
        assert predicted in activities
        values = list(map(float, confidences))
        assert all(map(math.isfinite, values))
        assert abs(math.fsum(values) - 1) <= 1e-12


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=_mutated_model())
# finite and positive, yet the prior overflows, or the product of
# conditionals underflows, to zero
@example(text=_model_with_alpha(1e308))
@example(text=_model_with_alpha(1e-308))
# a count too large for a float, and a feature domain with no value
@example(text=_edited_model(lambda payload: payload["class_counts"].update(Sleeping=10**400)))
@example(text=_edited_model(lambda payload: payload.update(
    feature_domains={**payload["feature_domains"], "ux": []}, class_counts={},
)))
def test_mutated_model_is_used_or_rejected_as_an_input_error(text):
    _recommend(text)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=_edited_model_object())
# feature counts far above their class count: each weight overflows to inf
@example(text=_edited_model(lambda payload: set_feature_counts(payload, 10**300)))
# consistent counts scaled past 2**53: at this alpha each weight underflows to 0
@example(text=_edited_model(
    lambda payload: (scale_counts(payload, 10**298), payload.update(alpha=1e-12))
))
def test_edited_model_object_is_used_or_rejected_as_an_input_error(text):
    _recommend(text)


_CATALOGUE = DEFINITIONS_DIR / "adl.json"
_LEAF_VALUES = [None, True, "x", -1, 2.7, [], 1e400, 10**400]


def _leaves(node) -> list[tuple[dict | list, str | int]]:
    """Each (container, key) below ``node`` that holds neither an object nor
    a list."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    found = []
    for key, value in items:
        if isinstance(value, (dict, list)):
            found.extend(_leaves(value))
        else:
            found.append((node, key))
    return found


def _edited_catalogue(edit) -> str:
    """The bundled ADL catalogue's text after ``edit`` changed its entries."""
    document = json.loads(_CATALOGUE.read_text())
    edit(document["definitions"])
    return json.dumps(document)


@st.composite
def _mutated_catalogue(draw):
    """The bundled ADL catalogue's text after 1-3 mutations from the menu,
    or after 1-3 of its leaves took a value of another type or range."""
    if draw(st.booleans()):
        return _mutate(draw, _CATALOGUE.read_text().splitlines(keepends=True))
    document = json.loads(_CATALOGUE.read_text())
    leaves = _leaves(document)
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(leaves))
        container[key] = draw(st.sampled_from(_LEAF_VALUES))
    return json.dumps(document)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=_mutated_catalogue())
# JSON reads 1e400 as inf, which int() could not convert
@example(text=_edited_catalogue(lambda entries: entries[0]["atomics"][0].update(id=1e400)))
@example(text=_edited_catalogue(lambda entries: entries.append(entries[0])))
# summed, two weights of 1e308 overflow fsum
@example(text=_edited_catalogue(lambda entries: [
    atomic.update(weight=1e308) for atomic in entries[0]["atomics"][:2]
]))
def test_mutated_catalogue_is_refused_by_validate_and_ingest_alike(text):
    with tempfile.TemporaryDirectory() as tmp:
        catalogue = Path(tmp) / "adl.json"
        catalogue.write_text(text, encoding="utf-8")
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps({
            "definitions": [str(catalogue)],
            "datasets": [{"path": str(DATA_DIR / "adl_log.csv"), "kind": "adl-log"}],
            "out_dir": str(Path(tmp) / "out"),
        }))
        runs = []
        for argv in (["validate", str(catalogue)], ["ingest", "--config", str(config)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                runs.append((main(argv), out.getvalue(), err.getvalue()))
    (code, out, err), (ingest_code, _, ingest_err) = runs
    # a fault text holds no line break: a name with a control character is quoted
    faults = [line[5:] for line in out.split("\n") if line.startswith("FAIL ")]
    if faults:
        assert code == 2 and ingest_code == 2
        assert "error:" not in err
        for fault in faults:
            assert f"  {fault}\n" in ingest_err
    else:
        _assert_ran_or_rejected(code, err)
    _assert_ran_or_rejected(ingest_code, ingest_err)


def _adl_config() -> dict:
    """The bundled ADL config, its input paths made absolute and its output
    directory beside the file that holds it."""
    document = json.loads(ADL_CONFIG.read_text())
    document["definitions"] = [str(CONFIGS_DIR / path) for path in document["definitions"]]
    for spec in document["datasets"]:
        spec["path"] = str(CONFIGS_DIR / spec["path"])
    document["out_dir"] = "out"
    return document


_CONFIG_KEYS = sorted({*_adl_config(), *(p.key for p in PARAMS)})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edits=st.dictionaries(
    st.sampled_from(_CONFIG_KEYS), st.sampled_from([*_LEAF_VALUES, 10**30]),
    min_size=1, max_size=2,
))
# an integer beyond every float, as a float parameter
@example(edits={"alpha": 10**400})
# a window beyond what a deque's maxlen takes
@example(edits={"window": 10**30})
def test_edited_config_is_run_or_refused_as_an_input_error(edits):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps({**_adl_config(), **edits}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["pipeline", "--config", str(config)])
    _assert_ran_or_rejected(code, err.getvalue())
