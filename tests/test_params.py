"""The run parameters' one rule, as `config.load_config` and the engine
functions that take a parameter apply it.

Each parameter's default and allowed range are declared once, as a
`config.PARAMS` row.  An engine function called directly accepts a value
exactly when a config document may hold it, and rejects the rest with
``<name> must be <rule>, got <value>``, the text after the config key in the
`ConfigError` of `load_config`.
"""

from __future__ import annotations

import argparse
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adl_engine import cli
from adl_engine.affect import EmotionLabel, UXLabel, UXModel, annotate
from adl_engine.config import PARAMS, ConfigError, load_config
from adl_engine.evaluation import split_chronological
from adl_engine.ingestion import (
    SensorSample, binarize, power_trace_blocks, trace_occurrences,
)
from adl_engine.recognition import Observation, occurrence_weight
from adl_engine.recommender import (
    DayKind, FeatureVector, LabeledTransition, RecommenderModel, extract_transitions,
    read_model, train,
)
from helpers import REPO_ROOT

NAN, INF = float("nan"), float("inf")


def _transition(bucket: int = 0, label: str = "A") -> LabeledTransition:
    return LabeledTransition(
        FeatureVector(bucket, None, EmotionLabel.POSITIVE, UXLabel.GOOD, DayKind.WEEKDAY),
        label,
    )


def _model_text(**changes: object) -> str:
    """A trained model's JSON with ``changes`` made to its keys."""
    payload = json.loads(train([_transition()]).to_json())
    payload.update(changes)
    return json.dumps(payload)


# each engine function that takes a run parameter, called with a value for it
# and valid other arguments; ``defn`` is any definition
CALLS = {
    ("on_watts", "power_trace_blocks"): lambda defn, value: list(
        power_trace_blocks(io.StringIO("1 5\n2 20\n"), "tv", value)
    ),
    ("on_watts", "binarize"): lambda defn, value: binarize(
        [SensorSample(1, "tv", 5.0)], value, 2
    ),
    ("gap_tolerance", "trace_occurrences"): lambda defn, value: trace_occurrences(
        [(["1", "2"], [0])], defn, value
    ),
    ("gap_tolerance", "binarize"): lambda defn, value: binarize([], 10.0, value),
    ("lam", "occurrence_weight"): lambda defn, value: occurrence_weight(
        defn, Observation(defn.name, defn.atomic_ids, defn.context_ids), value
    ),
    ("window", "annotate"): lambda defn, value: annotate([], UXModel(window=value)),
    ("epsilon", "annotate"): lambda defn, value: annotate([], UXModel(epsilon=value)),
    ("bucket_width", "annotate"): lambda defn, value: annotate(
        [], UXModel(bucket_width=value)
    ),
    ("bucket_width", "extract_transitions"): lambda defn, value: extract_transitions(
        [], value
    ),
    ("alpha", "train"): lambda defn, value: train([_transition()], alpha=value),
    ("bucket_width", "train"): lambda defn, value: train(
        [_transition()], bucket_width=value
    ),
    ("alpha", "from_json"): lambda defn, value: RecommenderModel.from_json(
        _model_text(alpha=value)
    ),
    ("bucket_width", "from_json"): lambda defn, value: RecommenderModel.from_json(
        _model_text(bucket_width=value)
    ),
    ("train_fraction", "split_chronological"): lambda defn, value: split_chronological(
        [1, 2, 3], value
    ),
}
# values of each parameter type: in and out of every range, and not finite
VALUES = {
    float: [-INF, -1.0, -0.0, 0.0, 0.05, 0.5, 1.0, 1.5, 10.0, 1441.0, INF, NAN],
    int: [-1, 0, 1, 2, 5, 30, 1440, 1441],
}


@pytest.mark.parametrize("name, function", CALLS, ids=[f"{n}-{f}" for n, f in CALLS])
def test_an_engine_function_takes_exactly_the_values_a_config_may_hold(
    tmp_path, adl_defs, name, function
):
    [param] = [p for p in PARAMS if p.name == name]
    prefix = f"config key {param.key!r}: "
    path = tmp_path / "config.json"
    for value in VALUES[param.type]:
        path.write_text(json.dumps({param.key: value}))
        try:
            load_config(path)
        except ConfigError as exc:
            assert str(exc).startswith(prefix)
            with pytest.raises(ValueError) as raised:
                CALLS[name, function](adl_defs["Sleeping"], value)
            assert str(raised.value) == name + " " + str(exc).removeprefix(prefix)
        else:
            CALLS[name, function](adl_defs["Sleeping"], value)


@pytest.mark.parametrize("call, message", [
    (lambda defn: annotate([], UXModel(epsilon=NAN)), "epsilon must be finite, got nan"),
    (lambda defn: train([_transition()], alpha=NAN), "alpha must be finite, got nan"),
    (lambda defn: train([_transition()], alpha=INF), "alpha must be finite, got inf"),
    (lambda defn: train([_transition()], bucket_width=0),
     "bucket_width must be in [1, 1440], got 0"),
    (lambda defn: train([_transition()], bucket_width=1441),
     "bucket_width must be in [1, 1440], got 1441"),
    (lambda defn: trace_occurrences([(["1"], [0])], defn, NAN),
     "gap_tolerance must be finite, got nan"),
], ids=[
    "annotate-epsilon-nan", "train-alpha-nan", "train-alpha-inf",
    "train-bucket_width-0", "train-bucket_width-1441",
    "trace_occurrences-gap_tolerance-nan",
])
def test_an_engine_function_rejects_a_value_no_config_may_hold(adl_defs, call, message):
    with pytest.raises(ValueError) as raised:
        call(adl_defs["Sleeping"])
    assert str(raised.value) == message


class _Unread:
    """A stream that fails on any use."""

    def __getattr__(self, name: str):
        raise AssertionError(f"the stream was used: {name}")


def test_power_trace_blocks_rejects_a_nan_on_watts_before_reading_a_line():
    with pytest.raises(ValueError) as raised:
        next(power_trace_blocks(_Unread(), "tv", NAN))
    assert str(raised.value) == "on_watts must be finite, got nan"


@settings(max_examples=200, derandomize=True)
@given(
    alpha=st.one_of(st.floats(), st.integers(-2, 3)),
    bucket_width=st.integers(-5, 1500),
    transitions=st.lists(
        st.builds(_transition, st.integers(0, 3), st.sampled_from("ABC")),
        min_size=1, max_size=6,
    ),
)
@example(alpha=NAN, bucket_width=30, transitions=[_transition()])
@example(alpha=INF, bucket_width=30, transitions=[_transition()])
@example(alpha=1.0, bucket_width=0, transitions=[_transition()])
@example(alpha=1.0, bucket_width=1441, transitions=[_transition()])
def test_a_trained_model_reads_back_equal_or_train_raises(
    alpha, bucket_width, transitions
):
    try:
        model = train(transitions, alpha=alpha, bucket_width=bucket_width)
    except ValueError:
        return
    assert read_model(io.StringIO(model.to_json())) == model


def test_readme_configuration_table_matches_the_parameters():
    text = (REPO_ROOT / "README.md").read_text()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines() if line.startswith("| `")
    ]
    # a scalar row names its flag and the subcommands that take it; the
    # others hold the config's lists and maps
    readme = {
        key.strip("`"): (flag, readers, default)
        for key, flag, readers, default, _ in rows if flag
    }
    assert set(readme) == {p.key for p in PARAMS}
    parser = cli._build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for f in PARAMS:
        flag, readers, default = readme[f.key]
        assert default == f"`{json.dumps(f.default)}`", f.name
        [flag] = re.fullmatch(r"`(--[a-z-]+)`", flag).groups()
        args = parser.parse_args(["pipeline", flag, str(f.default)])
        assert getattr(args, f.name) == f.default, f.name
        named = set(re.findall(r"`([a-z]+)`", readers))
        if readers.startswith("every subcommand but "):
            named = set(commands) - named
        assert named == {
            command for command, sub in commands.items()
            if flag in sub._option_string_actions
        }, f.name
