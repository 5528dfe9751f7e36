"""Acceptance checks for the whole engine.

Each test covers one release criterion and prints a single PASS/FAIL line
on the real stdout (bypassing capture) so a run leaves a compact scorecard.
Failures still surface as ordinary assertion errors.
"""

from __future__ import annotations

import csv
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from adl_engine.affect import EmotionLabel, UXLabel
from adl_engine.cli import main
from adl_engine.evaluation import ConfusionMatrix, build_report
from adl_engine.recognition import Observation, OccurrenceVerdict, occurrence_weight
from adl_engine.recommender import (
    DayKind,
    FeatureVector,
    LabeledTransition,
    predict_confidences,
    recommend,
    train,
)
from helpers import (
    APPLIANCE_ACCURACY_PCT,
    APPLIANCE_COUNTS,
    APPLIANCE_LABELS,
    APPLIANCE_PRECISION_PCT,
    APPLIANCE_PREDICTION_ROWS,
    APPLIANCE_RECALL_PCT,
    APPLIANCE_VECTOR_LABELS,
    CONFIGS_DIR,
    ROUTINE_ACCURACY_PCT,
    ROUTINE_COUNTS,
    ROUTINE_LABELS,
    ROUTINE_PRECISION_PCT,
    ROUTINE_PREDICTION_ROWS,
    ROUTINE_RECALL_PCT,
    ROUTINE_VECTOR_LABELS,
    emotion_after,
    load_all_defs,
    oracle_posterior,
    vector_from_row,
)

ADL_CONFIG = CONFIGS_DIR / "adl.json"


@pytest.fixture
def criterion(capsys):
    """One-line PASS/FAIL scorecard entry printed past the capture layer."""

    @contextmanager
    def tracker(number: int, title: str, budget_seconds: float):
        start = time.perf_counter()
        ok = False
        detail = {"note": ""}
        try:
            yield detail
            elapsed = time.perf_counter() - start
            assert elapsed < budget_seconds, (
                f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
            )
            ok = True
        finally:
            elapsed = time.perf_counter() - start
            status = "PASS" if ok else "FAIL"
            note = f" - {detail['note']}" if detail["note"] else ""
            with capsys.disabled():
                print(
                    f"[{status}] criterion {number}: {title}{note} ({elapsed:.2f}s)",
                    flush=True,
                )

    return tracker


def _rounded_pct(value: float) -> float:
    return round(value * 100, 2)


# ---------------------------------------------------------------------------
# 1. Metric fidelity on the two frozen benchmark matrices
# ---------------------------------------------------------------------------

def test_criterion_1_metric_fidelity(criterion):
    with criterion(1, "metric fidelity", 1.0) as detail:
        cases = [
            (APPLIANCE_LABELS, APPLIANCE_COUNTS, APPLIANCE_ACCURACY_PCT,
             APPLIANCE_PRECISION_PCT, APPLIANCE_RECALL_PCT),
            (ROUTINE_LABELS, ROUTINE_COUNTS, ROUTINE_ACCURACY_PCT,
             ROUTINE_PRECISION_PCT, ROUTINE_RECALL_PCT),
        ]
        for labels, counts, acc_pct, prec_pct, rec_pct in cases:
            report = build_report(ConfusionMatrix(labels, counts))
            assert abs(_rounded_pct(report.accuracy) - acc_pct) <= 0.005
            for label in labels:
                precision = report.precision[label]
                recall = report.recall[label]
                assert precision is not None and recall is not None, label
                assert abs(_rounded_pct(precision) - prec_pct[label]) <= 0.005, label
                assert abs(_rounded_pct(recall) - rec_pct[label]) <= 0.005, label
        detail["note"] = "62.59% and 73.12% matrices, all cells within 0.005"


# ---------------------------------------------------------------------------
# 2. Recommendation fidelity on the transcribed confidence rows
# ---------------------------------------------------------------------------

def test_criterion_2_recommendation_fidelity(criterion):
    with criterion(2, "recommendation fidelity", 1.0) as detail:
        mismatch_rows = 0
        for labels, rows in [
            (ROUTINE_VECTOR_LABELS, ROUTINE_PREDICTION_ROWS),
            (APPLIANCE_VECTOR_LABELS, APPLIANCE_PREDICTION_ROWS),
        ]:
            for true_label, expected, values in rows:
                vector = vector_from_row(labels, values)
                assert recommend(vector) == expected, (true_label, values)
                if expected != true_label:
                    mismatch_rows += 1
        # the reference rows include argmax picks that contradict the true
        # label (Leaving over Breakfast at 0.495 vs 0.477); those must
        # reproduce as-is rather than being "corrected"
        assert mismatch_rows >= 2
        detail["note"] = (
            f"28 rows reproduced, {mismatch_rows} known argmax/label mismatches"
        )


# ---------------------------------------------------------------------------
# 3. Recognition scoring properties over every shipped definition
# ---------------------------------------------------------------------------

def test_criterion_3_recognition_properties(criterion):
    with criterion(3, "recognition scoring properties", 5.0) as detail:
        defs = load_all_defs()
        assert len(defs) == 14
        rng = random.Random(33)
        trials_per_defn = 1000
        for defn in defs:
            assert abs(defn.atomic_weight_total - 1.0) <= 1e-6, defn.name
            assert abs(defn.context_weight_total - 1.0) <= 1e-6, defn.name

            full = Observation(defn.name, defn.atomic_ids, defn.context_ids)
            assert occurrence_weight(defn, full) == 1.0, defn.name

            gutted = Observation(
                defn.name,
                defn.atomic_ids - defn.core_atomics,
                defn.context_ids - defn.core_contexts,
            )
            assert occurrence_weight(defn, gutted) < defn.threshold, defn.name

            ids_at = sorted(defn.atomic_ids)
            ids_ct = sorted(defn.context_ids)
            for _ in range(trials_per_defn):
                observed = frozenset(i for i in ids_at if rng.random() < 0.5)
                satisfied = frozenset(i for i in ids_ct if rng.random() < 0.5)
                base = occurrence_weight(
                    defn, Observation(defn.name, observed, satisfied))
                missing = (
                    [("at", i) for i in ids_at if i not in observed]
                    + [("ct", i) for i in ids_ct if i not in satisfied]
                )
                if not missing:
                    continue
                kind, extra = missing[rng.randrange(len(missing))]
                if kind == "at":
                    grown = Observation(defn.name, observed | {extra}, satisfied)
                else:
                    grown = Observation(defn.name, observed, satisfied | {extra})
                assert occurrence_weight(defn, grown) >= base, defn.name
        detail["note"] = f"14 definitions, {trials_per_defn} augmentation trials each"


# ---------------------------------------------------------------------------
# 4. Classifier equivalence against a brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_4_classifier_oracle_equivalence(criterion):
    with criterion(4, "classifier oracle equivalence", 10.0) as detail:
        rng = random.Random(20240823)
        instances = 200
        for _ in range(instances):
            classes = ["A", "B", "C", "D"][: rng.randint(1, 4)]
            buckets = rng.sample([0, 1, 2], rng.randint(1, 3))
            prevs = rng.sample(["X", "Y", None], rng.randint(1, 3))
            emotions = rng.sample(list(EmotionLabel), rng.randint(1, 2))
            uxs = rng.sample(list(UXLabel), rng.randint(1, 2))
            days = rng.sample(list(DayKind), rng.randint(1, 2))
            transitions = [
                LabeledTransition(
                    FeatureVector(
                        rng.choice(buckets), rng.choice(prevs),
                        rng.choice(emotions), rng.choice(uxs), rng.choice(days),
                    ),
                    rng.choice(classes),
                )
                for _ in range(rng.randint(1, 50))
            ]
            alpha = rng.choice([0.5, 1.0, 2.0])
            model = train(transitions, alpha=alpha)
            query = FeatureVector(
                rng.choice(buckets + [7]),
                rng.choice(prevs + ["unseen"]),
                rng.choice(list(EmotionLabel)),
                rng.choice(list(UXLabel)),
                rng.choice(list(DayKind)),
            )
            got = predict_confidences(model, query)
            want = oracle_posterior(
                transitions, list(model.activities), alpha, query)
            assert abs(math.fsum(got.values()) - 1.0) <= 1e-9
            for name in model.activities:
                assert abs(got[name] - want[name]) <= 1e-9, name
        detail["note"] = f"{instances} seeded instances within 1e-9 per entry"


# ---------------------------------------------------------------------------
# 5. Affect determinism and incomplete-verdict dominance
# ---------------------------------------------------------------------------

def test_criterion_5_affect_determinism_and_dominance(criterion):
    with criterion(5, "affect determinism and dominance", 5.0) as detail:
        defs = load_all_defs()
        rng = random.Random(55)
        cases = 10_000
        negatives = 0
        for i in range(cases):
            defn = defs[i % len(defs)]
            history = [rng.random() for _ in range(rng.randint(0, 10))]
            score = rng.random()
            completed = rng.random() < 0.5
            observed = frozenset(
                a for a in defn.atomic_ids if rng.random() < 0.7)
            satisfied = frozenset(
                c for c in defn.context_ids if rng.random() < 0.7)
            observation = Observation(defn.name, observed, satisfied)
            verdict = OccurrenceVerdict(defn.name, score, defn.threshold, completed)

            first = emotion_after(defn, history, observation, verdict)
            second = emotion_after(defn, list(history), observation, verdict)
            assert first == second
            if not completed:
                assert first is EmotionLabel.NEGATIVE
                negatives += 1
        assert negatives > 0
        detail["note"] = (
            f"{cases} cases repeatable, {negatives} incomplete all negative"
        )


# ---------------------------------------------------------------------------
# 6. End-to-end soft target on the bundled daily-living dataset
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_soft_target(criterion, tmp_path, capsys):
    with criterion(6, "end-to-end soft target", 10.0) as detail:
        out = tmp_path / "run"
        assert main([
            "pipeline", "--config", str(ADL_CONFIG), "--out", str(out),
        ]) == 0
        capsys.readouterr()

        with open(out / "predictions.csv") as stream:
            rows = list(csv.DictReader(stream))
        assert rows
        pairs = [(r["prediction"], r["activity"]) for r in rows]
        hits = sum(1 for predicted, true in pairs if predicted == true)
        achieved = hits / len(pairs)
        majority = max(Counter(true for _, true in pairs).values()) / len(pairs)
        assert achieved > majority
        detail["note"] = (
            f"accuracy {achieved * 100:.2f}% > majority baseline "
            f"{majority * 100:.2f}% over {len(pairs)} test pairs "
            f"(reference benchmark {ROUTINE_ACCURACY_PCT}%)"
        )


# ---------------------------------------------------------------------------
# 7. Byte-identical artifacts across repeated runs
# ---------------------------------------------------------------------------

def test_criterion_7_pipeline_determinism(criterion, tmp_path, capsys):
    with criterion(7, "pipeline determinism", 20.0) as detail:
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config = ["--config", str(ADL_CONFIG)]
        assert main(["pipeline", *config, "--out", str(out_a)]) == 0
        assert main(["pipeline", *config, "--out", str(out_b)]) == 0
        capsys.readouterr()

        files_a = {p.name: p.read_bytes() for p in sorted(out_a.iterdir())}
        files_b = {p.name: p.read_bytes() for p in sorted(out_b.iterdir())}
        assert files_a.keys() == files_b.keys()
        for name in files_a:
            assert files_a[name] == files_b[name], name
        detail["note"] = f"{len(files_a)} artifacts byte-identical across two runs"
