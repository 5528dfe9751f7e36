from __future__ import annotations

import json
import math
import re

import pytest
from hypothesis import given, settings

from adl_engine.definitions import (
    AtomicActivity,
    ComplexActivityDefinition,
    ContextAttribute,
    DefinitionError,
    WEIGHT_SUM_TOLERANCE,
    check_definitions,
    load_definitions,
    validate_definition,
)
from helpers import DEFINITIONS_DIR, definition_strategy, load_all_defs


def _simple(n: int = 3, **overrides) -> ComplexActivityDefinition:
    weights = [1.0 / n] * n
    fields = dict(
        name="Test Activity",
        short_code="TA",
        atomics=tuple(
            AtomicActivity(id=i + 1, label=f"a{i + 1}", weight=w)
            for i, w in enumerate(weights)
        ),
        contexts=tuple(
            ContextAttribute(id=i + 1, label=f"c{i + 1}", weight=w)
            for i, w in enumerate(weights)
        ),
        core_atomics=frozenset({2}),
        core_contexts=frozenset({2}),
        start_atomics=frozenset({1}),
        start_contexts=frozenset({1}),
        end_atomics=frozenset({n}),
        end_contexts=frozenset({n}),
        threshold=0.7,
    )
    fields.update(overrides)
    return ComplexActivityDefinition(**fields)


# ---------------------------------------------------------------------------
# Shipped definition files
# ---------------------------------------------------------------------------

def test_shipped_files_load_with_seven_definitions_each(adl_defs, ukdale_defs):
    assert len(adl_defs) == 7
    assert len(ukdale_defs) == 7
    assert "Sleeping" in adl_defs
    assert "Using Microwave" in ukdale_defs


def test_all_shipped_definitions_validate_clean():
    for defn in load_all_defs():
        assert validate_definition(defn) == [], defn.name


def test_all_shipped_weight_sums_within_tolerance():
    for defn in load_all_defs():
        assert math.isclose(defn.atomic_weight_total, 1.0,
                            abs_tol=WEIGHT_SUM_TOLERANCE), defn.name
        assert math.isclose(defn.context_weight_total, 1.0,
                            abs_tol=WEIGHT_SUM_TOLERANCE), defn.name


def test_expected_activity_names(adl_defs, ukdale_defs):
    assert sorted(adl_defs) == [
        "Eating Breakfast", "Eating Lunch", "Eating Snacks", "Leaving",
        "Showering", "Sleeping", "Watching TV in Spare Time",
    ]
    assert sorted(ukdale_defs) == [
        "Cooking in Kitchen", "Listening to Subwoofer", "Using Laptop",
        "Using Microwave", "Using Toaster", "Using Washing Machine",
        "Watching TV",
    ]


# ---------------------------------------------------------------------------
# most_important_pair
# ---------------------------------------------------------------------------

def test_most_important_pair_microwave(ukdale_defs):
    # At5 (0.25) dominates the microwave definition
    assert ukdale_defs["Using Microwave"].most_important_pair == (5, 5)


def test_most_important_pair_laptop(ukdale_defs):
    assert ukdale_defs["Using Laptop"].most_important_pair == (3, 3)


def test_most_important_pair_tie_takes_lowest_id():
    defn = _simple(4)  # all weights equal
    assert defn.most_important_pair == (1, 1)


def test_derived_values_are_computed_once(adl_defs):
    for defn in adl_defs.values():
        assert defn.atomic_ids is defn.atomic_ids
        assert defn.context_ids is defn.context_ids
        assert defn.atomic_ids == frozenset(a.id for a in defn.atomics)
        assert defn.context_ids == frozenset(c.id for c in defn.contexts)
        assert defn.most_important_pair is defn.most_important_pair


# ---------------------------------------------------------------------------
# validate_definition violations
# ---------------------------------------------------------------------------

def test_validate_accepts_simple_definition():
    assert validate_definition(_simple()) == []


def test_validate_rejects_non_contiguous_atomic_ids():
    defn = _simple(atomics=(
        AtomicActivity(id=1, label="a", weight=0.5),
        AtomicActivity(id=3, label="b", weight=0.5),
    ), contexts=(
        ContextAttribute(id=1, label="c", weight=0.5),
        ContextAttribute(id=3, label="d", weight=0.5),
    ), end_atomics=frozenset({1}), end_contexts=frozenset({1}),
        core_atomics=frozenset({1}), core_contexts=frozenset({1}))
    problems = validate_definition(defn)
    assert any("contiguous" in p for p in problems)


def test_validate_rejects_context_count_mismatch():
    defn = _simple(contexts=(ContextAttribute(id=1, label="c", weight=1.0),),
                   core_contexts=frozenset({1}), start_contexts=frozenset({1}),
                   end_contexts=frozenset({1}))
    problems = validate_definition(defn)
    assert any("one context attribute per atomic" in p for p in problems)


def test_validate_rejects_out_of_range_weight():
    defn = _simple(atomics=(
        AtomicActivity(id=1, label="a", weight=1.2),
        AtomicActivity(id=2, label="b", weight=-0.2),
        AtomicActivity(id=3, label="c", weight=0.0),
    ))
    problems = validate_definition(defn)
    assert sum("outside [0, 1]" in p for p in problems) == 2


def test_validate_rejects_weight_sum_off_by_more_than_tolerance():
    defn = _simple(atomics=tuple(
        AtomicActivity(id=i + 1, label="x", weight=0.35) for i in range(3)
    ))
    problems = validate_definition(defn)
    assert any("atomic weights sum" in p for p in problems)


def test_validate_rejects_dangling_set_ids():
    defn = _simple(core_atomics=frozenset({9}))
    problems = validate_definition(defn)
    assert any("core_atomics references missing ids [9]" in p for p in problems)


def test_validate_rejects_empty_start_and_end_sets():
    defn = _simple(start_atomics=frozenset(), end_atomics=frozenset())
    problems = validate_definition(defn)
    assert any("start_atomics is empty" in p for p in problems)
    assert any("end_atomics is empty" in p for p in problems)


@pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5])
def test_validate_rejects_threshold_outside_unit_interval(threshold):
    problems = validate_definition(_simple(threshold=threshold))
    assert any("threshold" in p for p in problems)


@pytest.mark.parametrize("name", [
    "Using\rMicrowave", "Using\nMicrowave", "Using\tMicrowave", "Using\x00",
    "\x7fUsing", "Using\x85Microwave",
])
def test_validate_rejects_control_characters_in_names(name):
    problems = validate_definition(_simple(name=name))
    assert problems == [f"{name!r}: definition name holds a control character"]


@pytest.mark.parametrize("name", ["Using Microwave", "Café au lait", "早餐", "A, \"B\""])
def test_validate_accepts_printable_names(name):
    assert validate_definition(_simple(name=name)) == []


# ---------------------------------------------------------------------------
# Weights by id
# ---------------------------------------------------------------------------

def test_weight_lookup_by_id(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    atomic_weights = {a.id: a.weight for a in defn.atomics}
    context_weights = {c.id: c.weight for c in defn.contexts}
    assert atomic_weights[5] == pytest.approx(0.25)
    assert context_weights[5] == pytest.approx(0.25)
    assert 99 not in atomic_weights


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def _adl_document() -> dict:
    return json.loads((DEFINITIONS_DIR / "adl.json").read_text(encoding="utf-8"))


def test_save_load_round_trip(tmp_path, adl_defs):
    # the shipped document, saved again with sorted keys and no indentation,
    # loads to the same definitions
    path = tmp_path / "round.json"
    path.write_text(json.dumps(_adl_document(), sort_keys=True), encoding="utf-8")
    reloaded = load_definitions(path)
    assert list(reloaded) == list(adl_defs)
    assert reloaded == adl_defs


def test_load_rejects_duplicate_names(tmp_path):
    doc = _adl_document()
    doc["definitions"].append(doc["definitions"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DefinitionError, match="duplicate"):
        load_definitions(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(DefinitionError, match="cannot read"):
        load_definitions(tmp_path / "absent.json")


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DefinitionError, match="not valid JSON"):
        load_definitions(path)


def test_load_rejects_empty_set(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"definitions": []}')
    with pytest.raises(DefinitionError, match="empty"):
        load_definitions(path)


def test_load_aggregates_all_violations(tmp_path):
    doc = _adl_document()
    entry = doc["definitions"][0]  # Sleeping: five atomics, so id 7 dangles
    entry["threshold"] = 2.0
    entry["core_atomics"] = [7]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DefinitionError) as excinfo:
        load_definitions(path)
    assert len(excinfo.value.violations) == 2


def _set_field(field: str, value):
    """An edit of a definition entry that sets ``field`` (of its first atomic,
    for ``id``, ``label`` and ``weight``) to ``value``."""
    def edit(entry: dict) -> None:
        (entry["atomics"][0] if field in ("id", "label", "weight") else entry)[field] = value
    return edit


@pytest.mark.parametrize("field, value", [
    ("id", 1e400), ("id", 2.7), ("id", True), ("id", "1"), ("id", None),
    ("end_contexts", [4, 1e400]), ("core_atomics", [2.0]), ("start_atomics", [True]),
    ("end_atomics", ["4"]), ("weight", 10**400), ("weight", True), ("weight", "0.12"),
    ("weight", None), ("threshold", False), ("threshold", "0.72"), ("threshold", 10**400),
    ("name", None), ("name", 7), ("short_code", None), ("label", 7), ("label", None),
    ("comment", ["x"]),
], ids=[
    "id-inf", "id-fraction", "id-bool", "id-string", "id-null",
    "id-set-member-inf", "id-set-member-float", "id-set-member-bool", "id-set-member-string",
    "weight-beyond-floats", "weight-bool", "weight-string", "weight-null",
    "threshold-bool", "threshold-string", "threshold-beyond-floats",
    "name-null", "name-number", "short-code-null", "label-number", "label-null",
    "comment-list",
])
def test_load_rejects_a_field_of_the_wrong_json_type(tmp_path, field, value):
    # an id is a JSON integer, a weight or threshold a JSON number and a name,
    # code, label or comment a JSON string; a bool is neither number nor
    # integer, and no value is truncated, overflows or turns into text as it
    # converts
    doc = _adl_document()
    _set_field(field, value)(doc["definitions"][0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DefinitionError, match=f"^{re.escape(str(path))}: malformed definition entry: "):
        load_definitions(path)


def test_an_integer_weight_and_threshold_are_numbers(tmp_path):
    doc = _adl_document()
    entry = doc["definitions"][0]
    for key in ("atomics", "contexts"):
        entry[key] = [{"id": 1, "label": "all", "weight": 1}]
    entry.update(threshold=1, core_atomics=[1], core_contexts=[1], start_atomics=[1],
                 start_contexts=[1], end_atomics=[1], end_contexts=[1])
    path = tmp_path / "whole.json"
    path.write_text(json.dumps(doc))
    sleeping = load_definitions(path)["Sleeping"]
    assert sleeping.threshold == 1.0
    assert sleeping.atomics == (AtomicActivity(1, "all", 1.0),)


@pytest.mark.parametrize("weights", [(1e308, 1e308), (math.inf, -math.inf)])
def test_weights_out_of_range_are_reported_not_summed(weights):
    defn = _simple(n=2, atomics=tuple(
        AtomicActivity(id=i + 1, label="x", weight=w) for i, w in enumerate(weights)
    ))
    problems = validate_definition(defn)
    assert sum("outside [0, 1]" in p for p in problems) == 2
    assert not any("sum to" in p for p in problems)


def test_check_definitions_returns_passed_definitions_faults_and_count(tmp_path):
    # the first Sleeping breaks a rule, so the second is still a repeat
    doc = _adl_document()
    first = dict(doc["definitions"][0], threshold=2.0)
    doc["definitions"] = [first, *doc["definitions"]]
    path = tmp_path / "adl.json"
    path.write_text(json.dumps(doc))
    passed, faults, total = check_definitions([path])
    assert list(passed) == [entry["name"] for entry in doc["definitions"][2:]]
    assert faults == [
        f"{path}: Sleeping: threshold 2.0 outside (0, 1]",
        f"{path}: duplicate definition 'Sleeping'",
    ]
    assert total == 8
    with pytest.raises(DefinitionError) as excinfo:
        load_definitions(path)
    assert excinfo.value.violations == faults


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, derandomize=True)
@given(definition_strategy())
def test_generated_definitions_validate_and_round_trip(defn):
    assert validate_definition(defn) == []


@settings(max_examples=60, derandomize=True)
@given(definition_strategy())
def test_most_important_pair_is_maximal(defn):
    atomic_id, context_id = defn.most_important_pair
    assert atomic_id == context_id
    (best_weight,) = (a.weight for a in defn.atomics if a.id == atomic_id)
    for a in defn.atomics:
        assert best_weight >= a.weight
        if a.weight == best_weight:
            assert atomic_id <= a.id
