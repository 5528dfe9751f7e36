from __future__ import annotations

import io
import json
import math
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adl_engine.affect import AffectAnnotation, EmotionLabel, UXLabel
from adl_engine.recommender import (
    DayKind,
    FeatureVector,
    LabeledTransition,
    extract_transitions,
    predict_confidences,
    read_model,
    recommend,
    train,
    write_model,
)
from helpers import (
    ROUTINE_PREDICTION_ROWS,
    ROUTINE_VECTOR_LABELS,
    oracle_posterior,
    per_call_posterior,
    per_row_extract_transitions,
    per_transition_train,
    vector_from_row,
)


def _t(bucket, prev, label, emotion=EmotionLabel.POSITIVE,
       ux=UXLabel.GOOD, day=DayKind.WEEKDAY) -> LabeledTransition:
    return LabeledTransition(
        FeatureVector(bucket, prev, emotion, ux, day), label)


def _q(bucket, prev, emotion=EmotionLabel.POSITIVE,
       ux=UXLabel.GOOD, day=DayKind.WEEKDAY) -> FeatureVector:
    return FeatureVector(bucket, prev, emotion, ux, day)


def _ann(activity, start, end, emotion=EmotionLabel.POSITIVE,
         ux=UXLabel.GOOD) -> AffectAnnotation:
    return AffectAnnotation(activity, start, end, 1.0, True, emotion, ux)


def _utc(y, mo, d, h, mi) -> int:
    return int(datetime(y, mo, d, h, mi, tzinfo=timezone.utc).timestamp())


# ---------------------------------------------------------------------------
# The day kind of a transition's end
# ---------------------------------------------------------------------------

def _day_kind_at(end: int) -> DayKind:
    """The day kind `extract_transitions` gives an occurrence ending at ``end``."""
    [transition] = extract_transitions([_ann("A", end, end), _ann("B", end, end)])
    return transition.features.day_kind


def test_day_kind_of_epoch_week():
    # 1970-01-01 was a Thursday
    assert _day_kind_at(0) is DayKind.WEEKDAY
    assert _day_kind_at(2 * 86400) is DayKind.WEEKEND  # Saturday
    assert _day_kind_at(3 * 86400) is DayKind.WEEKEND  # Sunday
    assert _day_kind_at(4 * 86400) is DayKind.WEEKDAY  # Monday


@settings(max_examples=200, derandomize=True)
@given(st.integers(  # 0001-01-01T00:00:00Z to 9999-12-31T23:59:59Z
    min_value=_utc(1, 1, 1, 0, 0), max_value=_utc(9999, 12, 31, 23, 59) + 59,
))
@example(-1)  # the Wednesday before the epoch
@example(-3 * 86400 - 1)  # the Sunday before that
def test_day_kind_of_matches_calendar_weekday(timestamp):
    weekday = datetime.fromtimestamp(timestamp, timezone.utc).weekday()
    assert (_day_kind_at(timestamp) is DayKind.WEEKDAY) == (weekday < 5)


def test_feature_vector_rejects_negative_bucket():
    with pytest.raises(ValueError):
        FeatureVector(-1, None, EmotionLabel.POSITIVE, UXLabel.GOOD,
                      DayKind.WEEKDAY)


def test_feature_vector_copies_check_the_bucket_too():
    fv = FeatureVector(3, None, EmotionLabel.POSITIVE, UXLabel.GOOD, DayKind.WEEKDAY)
    assert fv._replace(time_bucket=0) == (0, *fv[1:])
    assert type(FeatureVector._make(fv)) is FeatureVector
    with pytest.raises(ValueError, match="time_bucket must be >= 0, got -1"):
        fv._replace(time_bucket=-1)
    with pytest.raises(ValueError, match="time_bucket must be >= 0, got -1"):
        FeatureVector._make((-1, *fv[1:]))


# ---------------------------------------------------------------------------
# extract_transitions
# ---------------------------------------------------------------------------

def test_no_transitions_from_short_sequences():
    assert extract_transitions([]) == []
    assert extract_transitions([_ann("Breakfast", 0, 60)]) == []


def test_transitions_pair_consecutive_occurrences():
    annotated = [
        _ann("Eating Breakfast", _utc(2024, 3, 4, 7, 0), _utc(2024, 3, 4, 7, 30)),
        _ann("Leaving", _utc(2024, 3, 4, 8, 0), _utc(2024, 3, 4, 8, 10),
             emotion=EmotionLabel.NEGATIVE, ux=UXLabel.BAD),
        _ann("Eating Lunch", _utc(2024, 3, 4, 12, 30), _utc(2024, 3, 4, 13, 0)),
    ]
    transitions = extract_transitions(annotated)
    assert [t.next_activity for t in transitions] == ["Leaving", "Eating Lunch"]

    first = transitions[0].features
    assert first.time_bucket == 15  # 07:30 end, 30-minute buckets
    assert first.previous_activity == "Eating Breakfast"
    assert first.emotion is EmotionLabel.POSITIVE
    assert first.ux is UXLabel.GOOD
    assert first.day_kind is DayKind.WEEKDAY  # 2024-03-04 was a Monday

    second = transitions[1].features
    assert second.time_bucket == 16  # 08:10 end
    assert second.previous_activity == "Leaving"
    assert second.emotion is EmotionLabel.NEGATIVE
    assert second.ux is UXLabel.BAD


def test_transitions_with_equal_features_share_one_vector():
    # the same activity ending at 07:30 on two Mondays, then on a Saturday
    annotated = [
        _ann("Eating Breakfast", _utc(2024, 3, 4, 7, 0), _utc(2024, 3, 4, 7, 30)),
        _ann("Leaving", _utc(2024, 3, 4, 8, 0), _utc(2024, 3, 4, 8, 10)),
        _ann("Eating Breakfast", _utc(2024, 3, 11, 7, 0), _utc(2024, 3, 11, 7, 30)),
        _ann("Leaving", _utc(2024, 3, 11, 8, 0), _utc(2024, 3, 11, 8, 10)),
        _ann("Eating Breakfast", _utc(2024, 3, 16, 7, 0), _utc(2024, 3, 16, 7, 30)),
        _ann("Leaving", _utc(2024, 3, 16, 8, 0), _utc(2024, 3, 16, 8, 10)),
    ]
    features = [t.features for t in extract_transitions(annotated)]
    assert features[0] is features[2]
    assert features[1] is features[3]
    assert features[4] == _q(15, "Eating Breakfast", day=DayKind.WEEKEND)
    assert features[0] == _q(15, "Eating Breakfast")


def test_transition_day_kind_tracks_weekends():
    annotated = [
        _ann("Sleeping", _utc(2024, 3, 9, 6, 0), _utc(2024, 3, 9, 8, 0)),
        _ann("Eating Breakfast", _utc(2024, 3, 9, 8, 30), _utc(2024, 3, 9, 9, 0)),
    ]
    (t,) = extract_transitions(annotated)
    assert t.features.day_kind is DayKind.WEEKEND  # 2024-03-09 was a Saturday


def test_extract_transitions_bucket_width_validation():
    with pytest.raises(ValueError):
        extract_transitions([], bucket_width=0)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    rows=st.lists(st.tuples(
        st.sampled_from(["A", "B", "C"]),
        st.integers(min_value=-2 * 86400, max_value=30 * 86400),  # end
        st.sampled_from(EmotionLabel),
        st.sampled_from(UXLabel),
    ), max_size=30),
    bucket_width=st.sampled_from([1, 30, 1440]),
)
def test_extract_transitions_matches_the_per_row_loop(rows, bucket_width):
    annotated = [
        AffectAnnotation(activity, end - 60, end, 1.0, True, emotion, ux)
        for activity, end, emotion, ux in rows
    ]
    transitions = extract_transitions(annotated, bucket_width)
    assert transitions == per_row_extract_transitions(annotated, bucket_width)
    # equal features share one vector
    vectors = {t.features: t.features for t in transitions}
    assert all(t.features is vectors[t.features] for t in transitions)


def test_custom_bucket_width():
    annotated = [
        _ann("A", _utc(2024, 3, 4, 7, 0), _utc(2024, 3, 4, 7, 30)),
        _ann("B", _utc(2024, 3, 4, 8, 0), _utc(2024, 3, 4, 8, 10)),
    ]
    (t,) = extract_transitions(annotated, bucket_width=60)
    assert t.features.time_bucket == 7


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_argument_validation():
    with pytest.raises(ValueError):
        train([])
    with pytest.raises(ValueError):
        train([_t(0, "X", "A")], alpha=0.0)
    with pytest.raises(ValueError):
        train([_t(0, "X", "A")], alpha=-1.0)


def test_train_records_sorted_classes_and_domains():
    model = train([_t(1, "Y", "B"), _t(0, "X", "A")])
    assert model.activities == ("A", "B")
    assert model.feature_domains["time_bucket"] == ("0", "1")
    assert model.feature_domains["previous_activity"] == ("X", "Y")
    assert model.class_counts == {"A": 1, "B": 1}
    assert model.n_transitions == 2


def test_train_activities_widen_the_class_list():
    model = train([_t(0, "X", "A")], activities=["B", "A"])
    assert model.activities == ("A", "B")
    vector = predict_confidences(model, _q(0, "X"))
    assert list(vector) == ["A", "B"]
    assert math.fsum(vector.values()) == pytest.approx(1.0, abs=1e-12)
    assert vector["A"] > vector["B"] > 0.0


def test_none_previous_activity_is_encoded():
    model = train([_t(0, None, "A"), _t(0, "A", "B")])
    assert model.feature_domains["previous_activity"] == ("A", "none")


# ---------------------------------------------------------------------------
# predict_confidences
# ---------------------------------------------------------------------------

def test_single_class_model_is_certain():
    model = train([_t(0, "X", "A")])
    vector = predict_confidences(model, _q(0, "X"))
    assert vector == {"A": 1.0}


def test_symmetric_classes_split_evenly():
    model = train([_t(0, "X", "A"), _t(0, "X", "B")])
    vector = predict_confidences(model, _q(0, "X"))
    assert vector["A"] == pytest.approx(0.5, abs=1e-12)
    assert vector["B"] == pytest.approx(0.5, abs=1e-12)


def test_three_class_posterior_matches_hand_computation():
    # priors 3/7, 2/7, 2/7; bucket and previous-activity domains of size 2;
    # query (bucket 0, prev X) gives 9/56 : 4/63 : 2/63 before normalizing
    transitions = [
        _t(0, "X", "A"), _t(0, "Y", "A"), _t(1, "X", "B"), _t(1, "Y", "C"),
    ]
    model = train(transitions)
    vector = predict_confidences(model, _q(0, "X"))
    assert vector["A"] == pytest.approx(27 / 43, abs=1e-9)
    assert vector["B"] == pytest.approx(32 / 129, abs=1e-9)
    assert vector["C"] == pytest.approx(16 / 129, abs=1e-9)
    assert recommend(vector) == "A"


def test_unseen_feature_values_keep_all_classes_positive():
    model = train([_t(0, "X", "A"), _t(1, "Y", "B")])
    vector = predict_confidences(model, _q(7, "Z"))
    assert math.fsum(vector.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(value > 0.0 for _, value in vector.items())


def test_tiny_alpha_recovers_training_labels():
    transitions = [_t(0, "X", "A"), _t(1, "Y", "B")]
    model = train(transitions, alpha=1e-9)
    for t in transitions:
        vector = predict_confidences(model, t.features)
        assert recommend(vector) == t.next_activity
        assert vector[t.next_activity] > 0.999


def test_training_order_does_not_matter():
    transitions = [
        _t(0, "X", "A"), _t(0, "Y", "A"), _t(1, "X", "B"), _t(1, "Y", "C"),
    ]
    forward = train(transitions)
    backward = train(list(reversed(transitions)))
    assert forward == backward
    assert forward.to_json() == backward.to_json()


def test_duplicating_data_and_alpha_preserves_posterior():
    # k copies of the data with k*alpha smoothing leave every ratio intact
    transitions = [_t(0, "X", "A"), _t(0, "Y", "A"), _t(1, "X", "B")]
    base = predict_confidences(train(transitions, alpha=1.0), _q(0, "X"))
    tripled = predict_confidences(train(transitions * 3, alpha=3.0), _q(0, "X"))
    for name, value in base.items():
        assert tripled[name] == pytest.approx(value, abs=1e-12)


@settings(max_examples=60, derandomize=True)
@given(data=st.data())
def test_posterior_matches_brute_force_oracle(data):
    n = data.draw(st.integers(1, 12))
    transitions = [
        _t(
            data.draw(st.integers(0, 2)),
            data.draw(st.sampled_from(["X", "Y", None])),
            data.draw(st.sampled_from(["A", "B", "C"])),
            emotion=data.draw(st.sampled_from(list(EmotionLabel))),
            ux=data.draw(st.sampled_from(list(UXLabel))),
            day=data.draw(st.sampled_from(list(DayKind))),
        )
        for _ in range(n)
    ]
    alpha = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    model = train(transitions, alpha=alpha)
    query = _q(
        data.draw(st.integers(0, 3)),
        data.draw(st.sampled_from(["X", "Y", "Z", None])),
        emotion=data.draw(st.sampled_from(list(EmotionLabel))),
        ux=data.draw(st.sampled_from(list(UXLabel))),
        day=data.draw(st.sampled_from(list(DayKind))),
    )
    got = predict_confidences(model, query)
    want = oracle_posterior(transitions, list(model.activities), alpha, query)
    assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-12)
    for name in model.activities:
        assert got[name] == pytest.approx(want[name], abs=1e-12)


@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_factor_table_posterior_equals_per_call_product(data):
    features = st.builds(
        _q,
        st.integers(0, 3),
        st.sampled_from(["X", "Y", None]),
        emotion=st.sampled_from(list(EmotionLabel)),
        ux=st.sampled_from(list(UXLabel)),
        day=st.sampled_from(list(DayKind)),
    )
    transitions = [
        LabeledTransition(data.draw(features), data.draw(st.sampled_from("ABC")))
        for _ in range(data.draw(st.integers(1, 12)))
    ]
    alpha = data.draw(st.floats(min_value=0.01, max_value=5.0))
    # D and E never occur in training, so their class count is 0
    model = train(transitions, alpha=alpha, activities=["A", "B", "C", "D", "E"])
    reloaded = read_model(io.StringIO(model.to_json()))
    # a bucket above 3 or previous activity Z was never seen in training
    query = data.draw(st.builds(
        _q,
        st.integers(0, 6),
        st.sampled_from(["X", "Y", "Z", None]),
        emotion=st.sampled_from(list(EmotionLabel)),
        ux=st.sampled_from(list(UXLabel)),
        day=st.sampled_from(list(DayKind)),
    ))
    for m in (model, reloaded):
        # equal entries, in the same (sorted) key order
        assert list(predict_confidences(m, query).items()) == list(
            per_call_posterior(m, query).items()
        )


@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_train_matches_per_transition_counting(data):
    # a small pool of shared vectors repeats; fresh equal vectors and
    # distinct ones are drawn too
    features = st.builds(
        _q,
        st.integers(0, 3),
        st.sampled_from(["X", "Y", None]),
        emotion=st.sampled_from(list(EmotionLabel)),
        ux=st.sampled_from(list(UXLabel)),
        day=st.sampled_from(list(DayKind)),
    )
    pool = data.draw(st.lists(features, min_size=1, max_size=3))
    transitions = [
        LabeledTransition(
            data.draw(st.one_of(st.sampled_from(pool), features)),
            data.draw(st.sampled_from("ABC")),
        )
        for _ in range(data.draw(st.integers(1, 30)))
    ]
    alpha = data.draw(st.floats(min_value=0.01, max_value=5.0))
    # D and E never occur in training
    activities = data.draw(st.sampled_from([None, ["A", "B", "C", "D", "E"]]))
    got = train(transitions, alpha=alpha, bucket_width=15, activities=activities)
    want = per_transition_train(
        transitions, alpha=alpha, bucket_width=15, activities=activities)
    assert got == want
    assert got.to_json() == want.to_json()


# ---------------------------------------------------------------------------
# recommend
# ---------------------------------------------------------------------------

def test_recommend_picks_largest_confidence():
    row = next(r for r in ROUTINE_PREDICTION_ROWS if r[1] == "Leaving")
    vector = vector_from_row(ROUTINE_VECTOR_LABELS, row[2])
    assert recommend(vector) == "Leaving"


def test_recommend_singleton():
    assert recommend({"Showering": 1.0}) == "Showering"


def test_recommend_uniform_tie_is_lexicographic():
    vector = {"Eating Lunch": 1 / 3, "Eating Breakfast": 1 / 3, "Leaving": 1 / 3}
    assert recommend(vector) == "Eating Breakfast"


def test_recommend_rejects_empty_vector():
    with pytest.raises(ValueError):
        recommend({})


def test_confidence_vector_tolerates_rounded_totals():
    # transcribed vectors may sum to 1.001; recommend must not reject them
    vector = {"B": 0.5, "A": 0.501}
    assert math.fsum(vector.values()) == pytest.approx(1.001, abs=1e-12)
    assert recommend(vector) == "A"


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_NAMES = st.one_of(st.sampled_from(["A", "B", "C", "none"]), st.text(max_size=6))


@settings(max_examples=100, derandomize=True)
@given(
    transitions=st.lists(st.builds(
        _t, st.integers(0, 47), st.one_of(st.none(), _NAMES), _NAMES,
        emotion=st.sampled_from(list(EmotionLabel)), ux=st.sampled_from(list(UXLabel)),
        day=st.sampled_from(list(DayKind)),
    ), min_size=1, max_size=12),
    # names no transition leads to are classes of count 0
    unseen=st.lists(_NAMES, max_size=3),
    alpha=st.floats(min_value=1e-12, max_value=1e12),
    bucket_width=st.integers(1, 1440),
)
@example(
    transitions=[_t(0, "X", "A"), _t(0, "Y", "A"), _t(1, "X", "B"), _t(1, "Y", "C")],
    unseen=["D"], alpha=0.5, bucket_width=60,
)
def test_model_json_round_trip(transitions, unseen, alpha, bucket_width):
    # `from_json` must accept every model that `train` writes
    activities = [t.next_activity for t in transitions] + unseen
    model = train(transitions, alpha=alpha, bucket_width=bucket_width, activities=activities)
    buf = io.StringIO()
    write_model(model, buf)
    restored = read_model(io.StringIO(buf.getvalue()))
    assert restored == model
    query = transitions[0].features
    assert predict_confidences(restored, query) == predict_confidences(model, query)


@pytest.mark.parametrize("bucket_width", [0, 1441])
def test_read_model_rejects_a_bucket_width_outside_a_day(bucket_width):
    model = train([_t(0, "X", "A"), _t(1, "Y", "B")], bucket_width=60)
    payload = json.loads(model.to_json())
    payload["bucket_width"] = bucket_width
    with pytest.raises(
        ValueError, match=rf"bucket_width must be in \[1, 1440\], got {bucket_width}"
    ):
        read_model(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize("bucket_width, buckets", [(1, 1440), (30, 48), (7, 206), (1440, 1)])
def test_model_time_buckets_cover_a_day(bucket_width, buckets):
    model = train([_t(0, "X", "A"), _t(0, "Y", "B")], bucket_width=bucket_width)
    assert model.time_buckets == buckets
