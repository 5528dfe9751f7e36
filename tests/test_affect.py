from __future__ import annotations

import io
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adl_engine.affect import (
    AffectAnnotation,
    EmotionLabel,
    UXLabel,
    UXModel,
    annotate,
    read_annotated,
    train_ux_mapper,
    write_annotated,
)
from adl_engine.config import DEFAULTS
from adl_engine.ingestion import OccurrenceRecord, Source
from adl_engine.recognition import (
    Observation,
    OccurrenceVerdict,
    ScoredOccurrence,
    detect_occurrence,
)
from adl_engine.temporal import MINUTES_PER_DAY
from helpers import emotion_after, oracle_infer_emotion, per_row_annotate


def _full(defn) -> Observation:
    return Observation(defn.name, defn.atomic_ids, defn.context_ids)


def _verdict(defn, score, completed) -> OccurrenceVerdict:
    return OccurrenceVerdict(defn.name, score, defn.threshold, completed)


def _record(defn, observation, start, end) -> OccurrenceRecord:
    return OccurrenceRecord(
        defn.name, start, end, observation.observed_atomics,
        observation.satisfied_contexts, Source.ANNOTATION,
    )


def _item(defn, observation, start, end):
    """An `annotate` item: the occurrence as recognition scores it."""
    return (defn, _record(defn, observation, start, end),
            detect_occurrence(defn, observation))


# ---------------------------------------------------------------------------
# The emotion rule, one occurrence after a score history
# ---------------------------------------------------------------------------

def test_first_occurrence_without_history_is_positive(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    emotion = emotion_after(defn, [], _full(defn), _verdict(defn, 1.0, True))
    assert emotion is EmotionLabel.POSITIVE


def test_incomplete_occurrence_is_negative(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    obs = Observation(defn.name, frozenset({1}), frozenset({1}))
    emotion = emotion_after(defn, [], obs, _verdict(defn, 0.1, False))
    assert emotion is EmotionLabel.NEGATIVE


def test_score_slump_below_recent_mean_is_negative(ukdale_defs):
    # 0.80 < mean([1.0]*5) - 0.05 = 0.95
    defn = ukdale_defs["Using Microwave"]
    emotion = emotion_after(
        defn, [1.0] * 5, _full(defn), _verdict(defn, 0.80, True))
    assert emotion is EmotionLabel.NEGATIVE


def test_score_within_epsilon_of_recent_mean_is_positive(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    emotion = emotion_after(
        defn, [1.0] * 5, _full(defn), _verdict(defn, 0.96, True))
    assert emotion is EmotionLabel.POSITIVE


def test_missing_most_important_atomic_is_negative(ukdale_defs):
    # At5 (0.25) anchors Using Microwave; dropping it vetoes positivity even
    # when the verdict is forced complete
    defn = ukdale_defs["Using Microwave"]
    obs = Observation(defn.name, defn.atomic_ids - {5}, defn.context_ids)
    emotion = emotion_after(defn, [], obs, _verdict(defn, 1.0, True))
    assert emotion is EmotionLabel.NEGATIVE


def test_missing_paired_context_is_negative(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    obs = Observation(defn.name, defn.atomic_ids, defn.context_ids - {5})
    emotion = emotion_after(defn, [], obs, _verdict(defn, 1.0, True))
    assert emotion is EmotionLabel.NEGATIVE


def test_window_trims_older_history(ukdale_defs):
    # old 1.0 scores fall outside the window; recent mean is 0.5
    defn = ukdale_defs["Using Microwave"]
    history = [1.0, 1.0, 1.0] + [0.5] * 5
    emotion = emotion_after(
        defn, history, _full(defn), _verdict(defn, 0.5, True))
    assert emotion is EmotionLabel.POSITIVE


def test_window_and_epsilon_validation(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    with pytest.raises(ValueError, match="window"):
        emotion_after(defn, [], _full(defn), _verdict(defn, 1.0, True), window=0)
    with pytest.raises(ValueError, match="epsilon"):
        emotion_after(
            defn, [], _full(defn), _verdict(defn, 1.0, True), epsilon=-0.01)


@settings(max_examples=100, derandomize=True)
@given(
    prefix=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20),
    recent=st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=DEFAULTS.window, max_size=DEFAULTS.window),
    score=st.floats(min_value=0.0, max_value=1.0),
)
def test_emotion_depends_only_on_window_suffix(ukdale_defs, prefix, recent, score):
    defn = ukdale_defs["Using Microwave"]
    verdict = _verdict(defn, score, True)
    with_prefix = emotion_after(defn, prefix + recent, _full(defn), verdict)
    without = emotion_after(defn, recent, _full(defn), verdict)
    assert with_prefix == without


@settings(max_examples=100, derandomize=True)
@given(
    history=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
    low=st.floats(min_value=0.0, max_value=1.0),
    bump=st.floats(min_value=0.0, max_value=0.5),
)
def test_positive_emotion_is_monotone_in_score(ukdale_defs, history, low, bump):
    # raising the score can never flip positive to negative
    defn = ukdale_defs["Using Microwave"]
    obs = _full(defn)
    lo = emotion_after(defn, history, obs, _verdict(defn, low, True))
    hi = emotion_after(defn, history, obs, _verdict(defn, low + bump, True))
    if lo is EmotionLabel.POSITIVE:
        assert hi is EmotionLabel.POSITIVE


@settings(max_examples=300, derandomize=True)
@given(
    history=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=15),
    window=st.integers(min_value=1, max_value=10),
    epsilon=st.floats(min_value=0.0, max_value=0.2),
    pick=st.floats(min_value=0.0, max_value=1.0),
    on_the_edge=st.booleans(),
    completed=st.booleans(),
    paired=st.booleans(),
)
def test_infer_emotion_matches_the_fmean_oracle(
    ukdale_defs, history, window, epsilon, pick, on_the_edge, completed, paired
):
    defn = ukdale_defs["Using Microwave"]
    recent = history[-window:]
    # a score exactly at the recent mean less epsilon sits on the rule's edge
    score = statistics.fmean(recent) - epsilon if recent and on_the_edge else pick
    observation = _full(defn) if paired else Observation(
        defn.name, defn.atomic_ids - {5}, defn.context_ids
    )
    verdict = _verdict(defn, score, completed)
    assert emotion_after(
        defn, history, observation, verdict, window=window, epsilon=epsilon
    ) is oracle_infer_emotion(defn, history, observation, verdict, window, epsilon)


# ---------------------------------------------------------------------------
# The time bucket of an occurrence's end
# ---------------------------------------------------------------------------

def _annotated_bucket(defn, end: int, bucket_width: int = 30) -> int:
    """The bucket whose learned UX label `annotate` gives an occurrence of
    ``defn`` that ends at ``end``: each candidate bucket is trained bad in
    turn, and exactly one of them turns the positive occurrence bad."""
    item = _item(defn, _full(defn), end - 60, end)
    hits = [
        bucket for bucket in range(MINUTES_PER_DAY // bucket_width + 1)
        if annotate([item], train_ux_mapper(
            [(EmotionLabel.POSITIVE, defn.name, bucket, UXLabel.BAD)],
            bucket_width=bucket_width,
        ))[0].ux is UXLabel.BAD
    ]
    assert len(hits) == 1, hits
    return hits[0]


def test_time_bucket_examples(ukdale_defs):
    defn = ukdale_defs["Using Microwave"]
    day = 86400
    assert _annotated_bucket(defn, day) == 0
    assert _annotated_bucket(defn, day + 29 * 60 + 59) == 0
    assert _annotated_bucket(defn, day + 30 * 60) == 1
    assert _annotated_bucket(defn, 2 * day - 1) == 47
    assert _annotated_bucket(defn, day + 90 * 60, bucket_width=60) == 1


def test_time_bucket_validation(ukdale_defs):
    # an end's minute always lies in its day, before or after the epoch; a
    # bucket width outside [1, 1440] is refused
    defn = ukdale_defs["Using Microwave"]
    assert _annotated_bucket(defn, -1) == 47
    assert _annotated_bucket(defn, -86400) == 0
    assert _annotated_bucket(defn, 86400 - 1, bucket_width=1440) == 0
    item = _item(defn, _full(defn), 0, 60)
    for bucket_width in (0, 1441):
        with pytest.raises(ValueError, match="bucket_width"):
            annotate([item], UXModel(bucket_width=bucket_width))


# ---------------------------------------------------------------------------
# UX mapping
# ---------------------------------------------------------------------------

def test_train_on_empty_examples_gives_empty_table():
    model = train_ux_mapper([])
    assert model.table == {}


def test_majority_vote_picks_winner():
    examples = [
        (EmotionLabel.POSITIVE, "Breakfast", 15, UXLabel.GOOD),
        (EmotionLabel.POSITIVE, "Breakfast", 15, UXLabel.GOOD),
        (EmotionLabel.POSITIVE, "Breakfast", 15, UXLabel.GOOD),
        (EmotionLabel.POSITIVE, "Breakfast", 15, UXLabel.BAD),
    ]
    model = train_ux_mapper(examples)
    assert model.table[("positive", "Breakfast", 15)] is UXLabel.GOOD


def test_tied_vote_resolves_to_good():
    examples = [
        (EmotionLabel.NEGATIVE, "Lunch", 24, UXLabel.GOOD),
        (EmotionLabel.NEGATIVE, "Lunch", 24, UXLabel.BAD),
        (EmotionLabel.NEGATIVE, "Lunch", 24, UXLabel.GOOD),
        (EmotionLabel.NEGATIVE, "Lunch", 24, UXLabel.BAD),
    ]
    model = train_ux_mapper(examples)
    assert model.table[("negative", "Lunch", 24)] is UXLabel.GOOD


# an end in bucket 24 of width 30, the half hour from noon
_NOON = 86400 + 24 * 30 * 60


def _ux_after(defn, model, end, completed=True):
    """The UX `annotate` gives one full occurrence of ``defn`` ending at
    ``end``: positive when ``completed``, else negative."""
    item = _item(defn, _full(defn), end - 60, end)
    if not completed:
        item = (defn, item[1], item[2]._replace(completed=False))
    return annotate([item], model)[0].ux


def test_ux_falls_back_to_emotion_sign(adl_defs):
    # an empty table gives the sign of the emotion
    defn = adl_defs["Eating Lunch"]
    assert _ux_after(defn, UXModel(), _NOON) is UXLabel.GOOD
    assert _ux_after(defn, UXModel(), _NOON, completed=False) is UXLabel.BAD


def test_trained_entry_overrides_fallback(adl_defs):
    defn = adl_defs["Eating Lunch"]
    model = train_ux_mapper([
        (EmotionLabel.POSITIVE, defn.name, 24, UXLabel.BAD),
    ])
    assert _ux_after(defn, model, _NOON) is UXLabel.BAD
    # untrained keys still use the fallback
    assert _ux_after(defn, model, _NOON + 30 * 60) is UXLabel.GOOD
    assert _ux_after(defn, model, _NOON, completed=False) is UXLabel.BAD


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def test_annotate_keeps_histories_per_activity(ukdale_defs):
    # a weak TV run must not drag down the microwave's history
    tv = ukdale_defs["Watching TV"]
    mw = ukdale_defs["Using Microwave"]
    items = [_item(tv, _full(tv), i * 100, i * 100 + 50) for i in range(5)]
    items.append(_item(mw, _full(mw), 600, 650))
    annotations = annotate(items, UXModel())
    assert [a.activity for a in annotations[:5]] == [tv.name] * 5
    assert annotations[-1].activity == mw.name
    assert annotations[-1].emotion is EmotionLabel.POSITIVE


def test_annotate_uses_scores_seen_so_far(ukdale_defs):
    mw = ukdale_defs["Using Microwave"]
    strong = _full(mw)
    weak = Observation(mw.name, mw.atomic_ids - {1}, mw.context_ids - {1})
    items = [_item(mw, strong, i * 100, i * 100 + 50) for i in range(5)]
    items.append(_item(mw, weak, 600, 650))
    annotations = annotate(items, UXModel())
    assert all(a.emotion is EmotionLabel.POSITIVE for a in annotations[:5])
    # 0.90 < 1.0 - 0.05, so the sixth run sours
    assert annotations[-1].score == pytest.approx(0.90, abs=1e-9)
    assert annotations[-1].emotion is EmotionLabel.NEGATIVE


# scores that tie or straddle a recent mean, besides arbitrary ones
_SCORES = st.one_of(
    st.sampled_from([0.0, 0.5, 0.9, 0.95, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


def _subset(ids: frozenset[int], mask: int) -> frozenset[int]:
    """``ids`` when ``mask`` is 0, else the ids whose bits ``mask`` sets."""
    if not mask:
        return ids
    return frozenset(i for i in ids if mask >> (i - 1) & 1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    rows=st.lists(st.tuples(
        st.integers(min_value=0, max_value=2),  # which definition
        st.integers(min_value=0, max_value=2**9 - 1),  # atomics kept
        st.integers(min_value=0, max_value=2**9 - 1),  # contexts kept
        _SCORES,
        st.booleans(),  # completed
        st.integers(min_value=0, max_value=3 * 86400),  # start
        st.integers(min_value=0, max_value=7200),  # duration
    ), max_size=30),
    window=st.integers(min_value=1, max_value=8),
    epsilon=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),
    bucket_width=st.sampled_from([1, 15, 30, 60, 1440]),
    examples=st.lists(st.tuples(
        st.sampled_from(list(EmotionLabel)),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=MINUTES_PER_DAY - 1),
        st.sampled_from(list(UXLabel)),
    ), max_size=30),
)
def test_annotate_matches_the_per_row_loop(
    ukdale_defs, rows, window, epsilon, bucket_width, examples
):
    # evidence may lack the most important atomic or its context, and verdicts
    # may be incomplete
    defs = list(ukdale_defs.values())[:3]
    items = []
    for i, (which, atomics, contexts, score, completed, start, duration) in enumerate(rows):
        defn = defs[which]
        observation = Observation(
            defn.name, _subset(defn.atomic_ids, atomics),
            _subset(defn.context_ids, contexts),
        )
        # a verdict as recognition scores it, or as a verdict file gives it
        verdict = (
            OccurrenceVerdict(defn.name, score, defn.threshold, completed) if i % 2
            else ScoredOccurrence(defn.name, start, start + duration, score, completed)
        )
        items.append((defn, _record(defn, observation, start, start + duration), verdict))
    # an empty table, or one trained on the drawn examples
    model = train_ux_mapper([
        (emotion, defs[which].name, minute // bucket_width, label)
        for emotion, which, minute, label in examples
    ], window, epsilon, bucket_width)

    assert annotate(items, model) == per_row_annotate(items, model)


@pytest.mark.parametrize("parameters, message", [
    ({"window": 0}, "window must be in [1, 2147483647], got 0"),
    ({"window": 2**31}, "window must be in [1, 2147483647], got 2147483648"),
    ({"epsilon": -0.01}, "epsilon must be >= 0, got -0.01"),
    ({"bucket_width": 0}, "bucket_width must be in [1, 1440], got 0"),
    ({"bucket_width": 1441}, "bucket_width must be in [1, 1440], got 1441"),
], ids=["window", "window-high", "epsilon", "bucket-width-low", "bucket-width-high"])
def test_annotate_rejects_bad_parameters_as_the_per_row_loop_did(
    ukdale_defs, parameters, message
):
    defn = ukdale_defs["Using Microwave"]
    items = [_item(defn, _full(defn), 0, 60)]
    model = UXModel(**parameters)
    with pytest.raises(ValueError) as reference:
        per_row_annotate(items, model)
    assert str(reference.value) == message
    with pytest.raises(ValueError) as raised:
        annotate(items, model)
    assert str(raised.value) == message


def test_annotated_csv_round_trip():
    rows = [
        AffectAnnotation("Breakfast", 100, 200, 1.0, True,
                         EmotionLabel.POSITIVE, UXLabel.GOOD),
        AffectAnnotation("Lunch", 300, 400, 0.6100000000000001, False,
                         EmotionLabel.NEGATIVE, UXLabel.BAD),
    ]
    buf = io.StringIO()
    write_annotated(rows, buf)
    assert read_annotated(io.StringIO(buf.getvalue())) == rows


def test_read_annotated_rejects_short_rows():
    text = (
        "activity,start,end,score,completed,emotion,ux\n"
        "Breakfast,100,200,1.0,true,positive,good\n"
        "Lunch,300,400\n"
    )
    with pytest.raises(ValueError, match="line 3: expected 7 fields, got 3"):
        read_annotated(io.StringIO(text))


_ANNOTATED_HEADER = "activity,start,end,score,completed,emotion,ux"


@pytest.mark.parametrize("text, fragment", [
    (f"{_ANNOTATED_HEADER}\nLunch,300,400,1.0,yes,positive,good\n",
     "line 2: expected 'true' or 'false', got 'yes'"),
    (f"{_ANNOTATED_HEADER}\nLunch,300,400,1.0,true,positive,good,extra\n",
     "line 2: expected 7 fields, got 8"),
    ("activity,end,start,score,completed,emotion,ux\n"
     "Lunch,400,300,1.0,true,positive,good\n",
     "line 1: expected header"),
    (f"{_ANNOTATED_HEADER}\nLunch,300,400,1.0,true,happy,good\n",
     "line 2: unknown emotion 'happy'"),
    (f"{_ANNOTATED_HEADER}\nLunch,300,400,1.0,true,positive,meh\n",
     "line 2: unknown ux 'meh'"),
    (f"{_ANNOTATED_HEADER}\nLunch,300,400,nan,true,positive,good\n",
     r"line 2: score must be in \[0, 1\], got nan"),
    (f"{_ANNOTATED_HEADER}\nLunch,300,400,1.0,true,positive,good\n"
     "Lunch,500,600,-7.5,true,positive,good\n",
     r"line 3: score must be in \[0, 1\], got -7.5"),
    (f"{_ANNOTATED_HEADER}\nLunch,300,400,-inf,true,positive,good\n",
     r"line 2: score must be in \[0, 1\], got -inf"),
], ids=[
    "flag", "extra-field", "reordered-header", "emotion", "ux", "nan-score",
    "negative-score", "infinite-score",
])
def test_read_annotated_rejects_malformed_rows(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        read_annotated(io.StringIO(text))
