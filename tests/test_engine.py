"""Engine behavior: algorithm selection, sufficiency threshold, overlay
delegation, and log mutation rules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustlens.core import Outcome, Prediction, Transaction, TransactionLog
from trustlens.dtree import entropy
from trustlens.engine import SOURCE_LOCAL, SOURCE_OVERLAY, assess, record_outcome
from trustlens.errors import (
    DimensionMismatch,
    DuplicateId,
    EmptyTupleSet,
    InsufficientKnowledge,
)

from conftest import make_log

S = Outcome.SUCCESSFUL
U = Outcome.UNSUCCESSFUL


def separable_log(context="c"):
    rng = np.random.default_rng(1)
    return make_log(
        rng.normal([0.0, 0.0], 0.05, size=(3, 2)),
        rng.normal([1.0, 1.0], 0.05, size=(3, 2)),
        context=context,
    )


def candidate(features, context="c"):
    return Transaction("cand", "x", context, tuple(features), None)


class FakeOverlay:
    """Overlay stub returning a canned prediction, or raising."""

    def __init__(self, prediction=None, raises=None):
        self.prediction = prediction
        self.raises = raises
        self.calls = []

    def combined_assessment(self, requester, context, features):
        self.calls.append((requester, context, tuple(features)))
        if self.raises is not None:
            raise self.raises
        return self.prediction, ("tuple-1", "tuple-2")


def test_local_assessment_runs_both_algorithms():
    log = separable_log()
    assessment = assess(log, candidate([0.0, 0.05]))
    assert assessment.knowledge_source == SOURCE_LOCAL
    assert {p.algorithm for p in assessment.predictions} == {"LDA", "DT"}
    assert assessment.chosen.label is S
    assert assessment.chosen.confidence == max(p.confidence for p in assessment.predictions)
    assert assessment.class_counts == (3, 3)


def test_confidence_tie_prefers_lda():
    log = separable_log()
    assessment = assess(log, candidate([0.0, 0.0]))
    confidences = {p.algorithm: p.confidence for p in assessment.predictions}
    if confidences["LDA"] == confidences["DT"]:
        assert assessment.chosen.algorithm == "LDA"


def test_empty_log_delegates_to_overlay():
    log = TransactionLog("me", 2)
    overlay = FakeOverlay(prediction=Prediction(S, 0.8, "Combined"))
    assessment = assess(log, candidate([0.5, 0.5]), overlay=overlay)
    assert assessment.knowledge_source == SOURCE_OVERLAY
    assert assessment.chosen.label is S
    assert assessment.providers_used == ("tuple-1", "tuple-2")
    assert overlay.calls == [("me", "c", (0.5, 0.5))]


def test_insufficient_without_overlay():
    log = make_log([[0.0, 0.0]] * 2, [[1.0, 1.0]] * 10)
    with pytest.raises(InsufficientKnowledge):
        assess(log, candidate([0.5, 0.5]))


def test_overlay_with_no_knowledge_maps_to_insufficient():
    log = TransactionLog("me", 2)
    overlay = FakeOverlay(raises=EmptyTupleSet("nobody answered"))
    with pytest.raises(InsufficientKnowledge):
        assess(log, candidate([0.5, 0.5]), overlay=overlay)


def test_context_filtering_gates_sufficiency():
    log = separable_log(context="book")
    # plenty of book history, nothing about cameras, no overlay
    with pytest.raises(InsufficientKnowledge):
        assess(log, candidate([0.5, 0.5], context="camera"))
    assessment = assess(log, candidate([0.0, 0.0], context="book"))
    assert assessment.knowledge_source == SOURCE_LOCAL


def test_degenerate_classes_yield_risk_averse_lda_prediction():
    log = make_log([[1.0, 1.0]] * 3, [[1.0, 1.0]] * 3)
    assessment = assess(log, candidate([1.0, 1.0]))
    by_algorithm = {p.algorithm: p for p in assessment.predictions}
    assert by_algorithm["LDA"].label is U
    assert by_algorithm["LDA"].confidence == 0.0


def test_single_leaf_tree_is_as_confident_as_its_leaf_is_pure():
    # identical features give no cut, so the tree is one mixed leaf of 5 and 4
    log = make_log([[1.0, 2.0]] * 5, [[1.0, 2.0]] * 4)
    by_algorithm = {p.algorithm: p for p in assess(log, candidate([1.0, 2.0])).predictions}
    assert by_algorithm["DT"].label is S
    assert by_algorithm["DT"].confidence == 1.0 - entropy((5, 4))
    assert 0.0 < by_algorithm["DT"].confidence < 0.01
    assert by_algorithm["LDA"].confidence == 0.0


def test_candidate_validation():
    log = separable_log()
    with pytest.raises(DimensionMismatch):
        assess(log, candidate([0.5]))
    completed = Transaction("done", "x", "c", (0.5, 0.5), S)
    with pytest.raises(ValueError):
        assess(log, completed)


@pytest.mark.parametrize("min_class_count", [0, -2])
def test_min_class_count_below_one_is_rejected(min_class_count):
    with pytest.raises(ValueError, match="min_class_count must be >= 1"):
        assess(separable_log(), candidate([0.0, 0.0]), min_class_count=min_class_count)


@pytest.mark.parametrize("log", [separable_log(), TransactionLog("me", 2)], ids=["deep", "thin"])
def test_empty_algorithm_list_is_rejected(log):
    overlay = FakeOverlay(prediction=Prediction(S, 0.8, "Combined"))
    with pytest.raises(ValueError, match=r"no algorithms given; choose from \('lda', 'dt'\)"):
        assess(log, candidate([0.0, 0.0]), overlay=overlay, algorithms=())
    assert overlay.calls == []


def test_assess_does_not_mutate_log():
    log = separable_log()
    before = [t.id for t in log.entries]
    assess(log, candidate([0.2, 0.2]))
    assert [t.id for t in log.entries] == before


def test_record_outcome_appends_and_validates():
    log = TransactionLog("me", 1)
    record_outcome(log, Transaction("t1", "p", "c", (1.0,), S))
    assert len(log) == 1
    with pytest.raises(DuplicateId):
        record_outcome(log, Transaction("t1", "p", "c", (2.0,), U))
    with pytest.raises(DimensionMismatch):
        record_outcome(log, Transaction("t2", "p", "c", (1.0, 2.0), U))
    with pytest.raises(ValueError):
        record_outcome(log, Transaction("t3", "p", "c", (1.0,), None))


def test_threshold_crossing_at_three_per_class():
    log = TransactionLog("me", 1)
    outcomes = [S, U, S, U, S, U]
    for i, outcome in enumerate(outcomes):
        with pytest.raises(InsufficientKnowledge):
            assess(log, candidate([0.5]))
        value = 0.0 if outcome is S else 1.0
        record_outcome(log, Transaction(f"t{i}", "p", "c", (value + 0.01 * i,), outcome))
    assessment = assess(log, candidate([0.0]))
    assert assessment.knowledge_source == SOURCE_LOCAL


def test_monotone_sufficiency():
    rng = np.random.default_rng(4)
    log = separable_log()
    for i in range(20):
        outcome = S if rng.random() < 0.5 else U
        features = tuple(rng.normal(0.5, 1.0, size=2))
        record_outcome(log, Transaction(f"extra{i}", "p", "c", features, outcome))
        assessment = assess(log, candidate([0.5, 0.5]))
        assert assessment.knowledge_source == SOURCE_LOCAL


def _assessed(log, probe, min_class_count):
    """Every prediction with its confidence bits, or the error raised."""
    try:
        result = assess(log, probe, min_class_count=min_class_count)
    except InsufficientKnowledge:
        return "insufficient"
    predictions = [(p.label, p.algorithm, p.confidence.hex()) for p in result.predictions]
    return predictions, result.chosen.algorithm, result.class_counts


_STEP = st.tuples(
    st.booleans(),  # True: record a completed transaction; False: assess a candidate
    st.sampled_from(("a", "b")),
    st.lists(st.sampled_from((0.0, 0.5, 1.0, 1.5, 3.0)), min_size=2, max_size=2),
    st.sampled_from((S, U)),
)


@settings(max_examples=80, deadline=None)
@given(steps=st.lists(_STEP, max_size=40), min_class_count=st.integers(1, 2))
def test_growing_log_assesses_like_a_fresh_copy(steps, min_class_count):
    # what a log keeps between appends must never answer for an older state
    log = TransactionLog(owner="me", dimensionality=2)
    for i, (is_record, context, features, outcome) in enumerate(steps):
        if is_record:
            record_outcome(log, Transaction(f"t{i}", "p", context, tuple(features), outcome))
            continue
        probe = Transaction(f"q{i}", "x", context, tuple(features), None)
        fresh = TransactionLog(log.owner, log.dimensionality, list(log.entries))
        want = _assessed(fresh, probe, min_class_count)
        assert _assessed(log, probe, min_class_count) == want
        assert _assessed(log, probe, min_class_count) == want  # and again from what it kept
