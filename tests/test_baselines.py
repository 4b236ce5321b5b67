"""Baseline predictors: coin flip, filtered feedback aggregation, and
group-trust stereotypes."""

from __future__ import annotations

import numpy as np
import pytest

from trustlens.baselines import (
    FeedbackRecord,
    FeedbackStore,
    aggregate_feedback,
    majority_outcomes,
    random_select,
    stereotrust_predict,
)
from trustlens.core import Outcome, Transaction, TransactionLog
from trustlens.errors import EmptySet

from conftest import make_log

S = Outcome.SUCCESSFUL
U = Outcome.UNSUCCESSFUL


def test_random_select_concentration_and_determinism():
    rng = np.random.default_rng(5)
    draws = [random_select(rng) for _ in range(10_000)]
    accepted = sum(1 for p in draws if p.label is S) / len(draws)
    assert abs(accepted - 0.5) < 0.02
    assert all(p.confidence == 0.0 for p in draws)

    again = [random_select(np.random.default_rng(5)).label for _ in range(1)]
    assert again[0] is draws[0].label


def store_with(records):
    store = FeedbackStore()
    for record in records:
        store.add(record)
    return store


def test_aggregate_simple_beta_mean():
    records = [FeedbackRecord(f"r{i}", "target", S) for i in range(8)]
    records += [FeedbackRecord(f"r{8+i}", "target", U) for i in range(2)]
    prediction = aggregate_feedback("target", store_with(records), {})
    assert prediction.label is S
    assert prediction.confidence == pytest.approx(abs(2 * 0.75 - 1), abs=1e-12)


def test_aggregate_everyone_filtered():
    # each rater disagrees with the requester's own outcomes on two co-known targets
    records = []
    for i in range(4):
        records.append(FeedbackRecord(f"r{i}", "known1", S))
        records.append(FeedbackRecord(f"r{i}", "known2", S))
        records.append(FeedbackRecord(f"r{i}", "target", S))
    own = {"known1": U, "known2": U}
    prediction = aggregate_feedback("target", store_with(records), own)
    assert prediction.label is U
    assert prediction.confidence == 0.0


def test_aggregate_no_feedback():
    prediction = aggregate_feedback("target", FeedbackStore(), {})
    assert prediction.label is U and prediction.confidence == 0.0


def test_single_disagreement_is_not_enough_to_filter():
    records = [
        FeedbackRecord("r0", "known1", S),  # one overlap only: below the judgement floor
        FeedbackRecord("r0", "target", S),
    ]
    prediction = aggregate_feedback("target", store_with(records), {"known1": U})
    assert prediction.label is S  # rater survived, mean (1+1)/(1+2) > 0.5


def test_filtering_never_adds_evidence():
    records = []
    for i in range(6):
        records.append(FeedbackRecord(f"r{i}", "known1", S))
        records.append(FeedbackRecord(f"r{i}", "known2", S))
        records.append(FeedbackRecord(f"r{i}", "target", S))
    store = store_with(records)
    unfiltered = aggregate_feedback("target", store, {})
    filtered = aggregate_feedback("target", store, {"known1": U, "known2": U})
    # dropping raters can only pull the mean back toward the 0.5 prior
    assert filtered.confidence <= unfiltered.confidence


def test_requesters_own_records_are_excluded():
    records = [
        FeedbackRecord("me", "target", S),
        FeedbackRecord("other", "target", U),
    ]
    prediction = aggregate_feedback("target", store_with(records), {}, requester="me")
    assert prediction.label is U  # only the other rater counts: mean 1/3


def test_aggregate_matches_behavior_direction_on_large_honest_sample():
    rng = np.random.default_rng(8)
    records = [
        FeedbackRecord(f"r{i}", "good", S if rng.random() < 0.85 else U) for i in range(300)
    ]
    records += [
        FeedbackRecord(f"r{i}", "bad", U if rng.random() < 0.85 else S) for i in range(300)
    ]
    store = store_with(records)
    assert aggregate_feedback("good", store, {}).label is S
    assert aggregate_feedback("bad", store, {}).label is U


def test_majority_outcomes_drops_ties():
    log = TransactionLog("me", 1)
    log.append(Transaction("t1", "p1", "c", (1.0,), S))
    log.append(Transaction("t2", "p1", "c", (1.0,), U))
    log.append(Transaction("t3", "p2", "c", (1.0,), S))
    assert majority_outcomes(log) == {"p2": S}


def test_stereotrust_single_group_all_successful():
    # varying values but no class boundary: one interval per feature
    log = make_log([[1.0], [2.0], [3.0], [4.0]], [])
    prediction = stereotrust_predict(log, [2.5])
    assert prediction.label is S
    expected = (4 + 1) / (4 + 2)
    assert prediction.confidence == pytest.approx(abs(2 * expected - 1), abs=1e-12)


def test_stereotrust_no_populated_group_falls_back_to_prior():
    # all features constant: no groups can be formed at all
    log = make_log([[1.0, 1.0]] * 3, [[1.0, 1.0]] * 2)
    prediction = stereotrust_predict(log, [1.0, 1.0])
    assert prediction.label is U and prediction.confidence == 0.0


def test_stereotrust_opposing_groups_tie_break():
    successful = [[0.0, 0.0]] * 8
    unsuccessful = [[1.0, 1.0]] * 8
    log = make_log(successful, unsuccessful)
    # feature 0 bucket of the target holds the successes (trust 0.9),
    # feature 1 bucket holds the failures (trust 0.1)
    prediction = stereotrust_predict(log, [0.0, 1.0])
    assert prediction.label is U
    assert prediction.confidence == pytest.approx(0.0, abs=1e-12)


def test_stereotrust_empty_log():
    with pytest.raises(EmptySet):
        stereotrust_predict(TransactionLog("me", 1), [1.0])


def test_all_baseline_confidences_in_unit_interval():
    rng = np.random.default_rng(3)
    predictions = [random_select(rng) for _ in range(10)]
    store = store_with([FeedbackRecord("r", "t", S)])
    predictions.append(aggregate_feedback("t", store, {}))
    log = make_log([[0.0], [0.5]], [[1.0], [1.5]])
    predictions.append(stereotrust_predict(log, [0.2]))
    assert all(0.0 <= p.confidence <= 1.0 for p in predictions)
