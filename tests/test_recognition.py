from __future__ import annotations

import io
import random
import tracemalloc
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl_engine.definitions import (
    AtomicActivity,
    ComplexActivityDefinition,
    ContextAttribute,
)
from adl_engine.ingestion import OccurrenceRecord, Source
from adl_engine.recognition import (
    Observation,
    OccurrenceVerdict,
    ScoredOccurrence,
    detect_occurrence,
    occurrence_weight,
    read_verdicts,
    score_occurrences,
    write_verdicts,
)
from helpers import (
    definition_strategy, emotion_after, load_all_defs, per_row_score_occurrences,
)


def _full(defn) -> Observation:
    return Observation(defn.name, defn.atomic_ids, defn.context_ids)


def _obs(defn, atomics, contexts) -> Observation:
    return Observation(defn.name, frozenset(atomics), frozenset(contexts))


# ---------------------------------------------------------------------------
# occurrence_weight
# ---------------------------------------------------------------------------

def test_full_observation_scores_exactly_one(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    assert occurrence_weight(defn, _full(defn)) == 1.0


def test_empty_observation_scores_zero(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    assert occurrence_weight(defn, _obs(defn, (), ())) == 0.0


def test_partial_microwave_observation():
    # At1/At2 and Ct1/Ct2 carry 0.10 + 0.12 on each side
    from helpers import load_ukdale_defs
    defn = load_ukdale_defs()["Using Microwave"]
    score = occurrence_weight(defn, _obs(defn, {1, 2}, {1, 2}))
    assert score == pytest.approx(0.22, abs=1e-9)


def test_lambda_weights_the_two_sides(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    obs = _obs(defn, defn.atomic_ids, ())
    assert occurrence_weight(defn, obs, lam=1.0) == pytest.approx(1.0)
    assert occurrence_weight(defn, obs, lam=0.0) == pytest.approx(0.0)
    assert occurrence_weight(defn, obs, lam=0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("lam", [-0.1, 1.1])
def test_lambda_out_of_range(ukdale_defs, lam):
    defn = ukdale_defs["Using Microwave"]
    with pytest.raises(ValueError, match="lam"):
        occurrence_weight(defn, _full(defn), lam=lam)


def test_unknown_ids_rejected(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    with pytest.raises(KeyError, match="atomic"):
        occurrence_weight(defn, _obs(defn, {99}, ()))
    with pytest.raises(KeyError, match="context"):
        occurrence_weight(defn, _obs(defn, (), {99}))


# ---------------------------------------------------------------------------
# detect_occurrence
# ---------------------------------------------------------------------------

def test_full_microwave_occurrence_completes(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    verdict = detect_occurrence(defn, _full(defn))
    assert verdict.completed
    assert verdict.score == 1.0
    assert verdict.threshold == 0.73


def test_partial_microwave_occurrence_incomplete(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    verdict = detect_occurrence(defn, _obs(defn, {1, 2}, {1, 2}))
    assert not verdict.completed
    assert verdict.score < 0.73


def test_score_equal_to_threshold_completes():
    # engineered exact boundary: score 0.5 against threshold 0.5
    halves = tuple(
        AtomicActivity(id=i, label=f"a{i}", weight=0.5) for i in (1, 2)
    )
    ctx_halves = tuple(
        ContextAttribute(id=i, label=f"c{i}", weight=0.5) for i in (1, 2)
    )
    defn = ComplexActivityDefinition(
        name="Boundary", short_code="BD", atomics=halves, contexts=ctx_halves,
        core_atomics=frozenset({1}), core_contexts=frozenset({1}),
        start_atomics=frozenset({1}), start_contexts=frozenset({1}),
        end_atomics=frozenset({2}), end_contexts=frozenset({2}),
        threshold=0.5,
    )
    verdict = detect_occurrence(defn, _obs(defn, {1}, {1}))
    assert verdict.score == 0.5
    assert verdict.completed


def test_core_removal_drops_below_threshold_for_all_shipped_definitions():
    for defn in load_all_defs():
        stripped = Observation(
            defn.name,
            defn.atomic_ids - defn.core_atomics,
            defn.context_ids - defn.core_contexts,
        )
        verdict = detect_occurrence(defn, stripped)
        assert not verdict.completed, defn.name
        assert verdict.score < defn.threshold, defn.name


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=100, derandomize=True)
@given(defn=definition_strategy(), data=st.data())
def test_monotonicity_under_augmentation(defn, data):
    atomic_ids = sorted(defn.atomic_ids)
    context_ids = sorted(defn.context_ids)
    observed = frozenset(data.draw(st.sets(st.sampled_from(atomic_ids))))
    satisfied = frozenset(data.draw(st.sets(st.sampled_from(context_ids))))
    base = occurrence_weight(defn, Observation(defn.name, observed, satisfied))
    missing_at = sorted(defn.atomic_ids - observed)
    if missing_at:
        extra = data.draw(st.sampled_from(missing_at))
        grown = occurrence_weight(
            defn, Observation(defn.name, observed | {extra}, satisfied))
        assert grown >= base
    missing_ct = sorted(defn.context_ids - satisfied)
    if missing_ct:
        extra = data.draw(st.sampled_from(missing_ct))
        grown = occurrence_weight(
            defn, Observation(defn.name, observed, satisfied | {extra}))
        assert grown >= base


@settings(max_examples=100, derandomize=True)
@given(defn=definition_strategy(), data=st.data())
def test_score_bounds_and_completeness(defn, data):
    observed = frozenset(data.draw(st.sets(st.sampled_from(sorted(defn.atomic_ids)))))
    satisfied = frozenset(data.draw(st.sets(st.sampled_from(sorted(defn.context_ids)))))
    score = occurrence_weight(defn, Observation(defn.name, observed, satisfied))
    assert 0.0 <= score <= 1.0
    # strictly positive weights make the score 1 only on the full observation
    complete = observed == defn.atomic_ids and satisfied == defn.context_ids
    assert (score == 1.0) == complete


def test_completed_independent_of_id_enumeration_order(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    rng = random.Random(13)
    ids_a = list(defn.atomic_ids)
    ids_c = list(defn.context_ids)
    baseline = detect_occurrence(defn, _full(defn)).completed
    for _ in range(10):
        rng.shuffle(ids_a)
        rng.shuffle(ids_c)
        verdict = detect_occurrence(
            defn, Observation(defn.name, frozenset(ids_a), frozenset(ids_c)))
        assert verdict.completed == baseline


# ---------------------------------------------------------------------------
# Verdict CSV
# ---------------------------------------------------------------------------

def test_verdict_csv_round_trip():
    rows = [
        ScoredOccurrence("Watching TV", 100, 200, 1.0, True),
        ScoredOccurrence("Sleeping", 300, 400, 0.8599999999999999, False),
    ]
    records = [
        OccurrenceRecord(r.activity, r.start, r.end, frozenset(), frozenset(),
                         Source.ANNOTATION)
        for r in rows
    ]
    verdicts = [
        OccurrenceVerdict(r.activity, r.score, 0.9, r.completed) for r in rows
    ]
    buf = io.StringIO()
    write_verdicts(records, verdicts, buf)
    assert read_verdicts(io.StringIO(buf.getvalue())) == rows


def test_read_verdicts_rejects_short_rows():
    text = (
        "activity,start,end,score,completed\n"
        "Watching TV,100,200,1.0,true\n"
        "Sleeping,300,400\n"
    )
    with pytest.raises(ValueError, match="line 3: expected 5 fields, got 3"):
        read_verdicts(io.StringIO(text))


@pytest.mark.parametrize("text, fragment", [
    ("activity,start,end,score,completed\nSleeping,300,400,1.0,yes\n",
     "line 2: expected 'true' or 'false', got 'yes'"),
    ("activity,start,end,score,completed\nSleeping,300,400,1.0,true,extra\n",
     "line 2: expected 5 fields, got 6"),
    ("activity,end,start,score,completed\nSleeping,400,300,1.0,true\n",
     "line 1: expected header"),
    ("activity,start,end,score,completed\nSleeping,300,400,nan,true\n",
     r"line 2: score must be in \[0, 1\], got nan"),
    ("activity,start,end,score,completed\nSleeping,300,400,1.0,true\n"
     "Sleeping,500,600,-7.5,true\n",
     r"line 3: score must be in \[0, 1\], got -7.5"),
    ("activity,start,end,score,completed\nSleeping,300,400,1.0000001,true\n",
     r"line 2: score must be in \[0, 1\], got 1.0000001"),
    ("activity,start,end,score,completed\nSleeping,300,400,inf,true\n",
     r"line 2: score must be in \[0, 1\], got inf"),
], ids=[
    "flag", "extra-field", "reordered-header", "nan-score", "negative-score",
    "score-above-one", "infinite-score",
])
def test_read_verdicts_rejects_malformed_rows(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        read_verdicts(io.StringIO(text))


@settings(max_examples=60, derandomize=True)
@given(defn=definition_strategy(), data=st.data())
def test_record_scores_like_its_observation(defn, data):
    ids = sorted(defn.atomic_ids)
    atomics = frozenset(data.draw(st.sets(st.sampled_from(ids))))
    contexts = frozenset(data.draw(st.sets(st.sampled_from(ids))))
    record = OccurrenceRecord(defn.name, 5, 9, atomics, contexts, Source.ANNOTATION)
    observation = Observation(defn.name, atomics, contexts)
    lam = data.draw(st.floats(min_value=0.0, max_value=1.0))
    verdict = detect_occurrence(defn, observation, lam)
    assert detect_occurrence(defn, record, lam) == verdict
    assert emotion_after(defn, [], record, verdict) is emotion_after(
        defn, [], observation, verdict)


# ---------------------------------------------------------------------------
# score_occurrences
# ---------------------------------------------------------------------------

@settings(max_examples=100, derandomize=True)
@given(defn=definition_strategy(), data=st.data())
def test_scores_the_engine_writes_pass_the_score_check(defn, data):
    # read_verdicts and read_annotated refuse a score outside [0, 1]; no
    # evidence and no lam in [0, 1] makes one
    ids = sorted(defn.atomic_ids)
    evidence = st.frozensets(st.sampled_from(ids))
    records = [
        OccurrenceRecord(defn.name, i, i + 1, atomics, contexts, Source.ANNOTATION)
        for i, (atomics, contexts) in enumerate(data.draw(
            st.lists(st.tuples(evidence, evidence), min_size=1, max_size=8)))
    ]
    lam = data.draw(st.floats(min_value=0.0, max_value=1.0))
    verdicts = score_occurrences({defn.name: defn}, records, lam)
    assert all(0.0 <= verdict.score <= 1.0 for verdict in verdicts)
    buf = io.StringIO()
    write_verdicts(records, verdicts, buf)
    assert read_verdicts(io.StringIO(buf.getvalue())) == [
        ScoredOccurrence(r.activity, r.start, r.end, v.score, v.completed)
        for r, v in zip(records, verdicts)
    ]


def _subset(ids: frozenset[int], mask: int) -> frozenset[int]:
    """``ids`` themselves when ``mask`` is 0, else the ids whose bits it sets."""
    if not mask:
        return ids
    return frozenset(i for i in ids if mask >> (i - 1) & 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    rows=st.lists(st.tuples(
        st.integers(min_value=0, max_value=2),  # which definition
        st.integers(min_value=0, max_value=2**9 - 1),  # atomics kept
        st.integers(min_value=0, max_value=2**9 - 1),  # contexts kept
        st.integers(min_value=0, max_value=3 * 86400),  # start
    ), max_size=30),
    # rows, counted modulo their number, given an unknown activity, atomic id
    # or context id
    faults=st.lists(st.tuples(
        st.integers(min_value=0, max_value=29),
        st.sampled_from(["activity", "atomic", "context"]),
    ), max_size=2),
    lam=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_score_occurrences_matches_the_per_row_loop(ukdale_defs, rows, faults, lam):
    # evidence may be partial, and repeats across rows
    defs = list(ukdale_defs.values())[:3]
    records = []
    for which, atomics, contexts, start in rows:
        defn = defs[which]
        records.append(OccurrenceRecord(
            defn.name, start, start + 60, _subset(defn.atomic_ids, atomics),
            _subset(defn.context_ids, contexts), Source.POWER_TRACE,
        ))
    for i, fault in faults if records else ():
        i %= len(records)
        r = records[i]
        records[i] = r._replace(**{
            "activity": {"activity": "Unknown Activity"},
            "atomic": {"observed_atomics": r.observed_atomics | {99}},
            "context": {"satisfied_contexts": r.satisfied_contexts | {99}},
        }[fault])
    try:
        expected = per_row_score_occurrences(ukdale_defs, records, lam)
    except KeyError as exc:
        with pytest.raises(KeyError) as raised:
            score_occurrences(ukdale_defs, records, lam)
        assert str(raised.value) == str(exc)
    else:
        assert score_occurrences(ukdale_defs, records, lam) == expected


def test_score_occurrences_allocates_under_16_bytes_a_record(ukdale_defs):
    # 50,000 records over six evidence sets: the verdict column is one list
    # slot a record, each referring to its set's one verdict, not a new row
    evidence = [
        (d.name, atomics, d.context_ids)
        for d in list(ukdale_defs.values())[:3]
        for atomics in (d.atomic_ids, frozenset())
    ]
    rows = 50_000
    records = [
        OccurrenceRecord(name, 1_700_000_000 + 60 * i, 1_700_000_030 + 60 * i,
                         atomics, contexts, Source.POWER_TRACE)
        for i, (name, atomics, contexts) in zip(range(rows), cycle(evidence))
    ]
    tracemalloc.start()
    try:
        verdicts = score_occurrences(ukdale_defs, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(verdicts) == rows
    assert peak < 16 * rows
    assert len(set(map(id, verdicts))) == len(evidence)
