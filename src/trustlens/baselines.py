"""Comparison predictors: coin-flip selection, feedback aggregation with a
disagreement filter, and a group-trust stereotype model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import dtree
from .core import Outcome, Prediction, TransactionLog

MIN_OVERLAP_TO_JUDGE = 2


@dataclass(frozen=True)
class FeedbackRecord:
    """One shared rating of a target agent."""

    rater: str
    target: str
    rating: Outcome


class FeedbackStore:
    """Feedback records indexed by target and by rater."""

    def __init__(self) -> None:
        self._by_target: dict[str, list[FeedbackRecord]] = {}
        self._by_rater: dict[str, list[FeedbackRecord]] = {}

    def add(self, record: FeedbackRecord) -> None:
        self._by_target.setdefault(record.target, []).append(record)
        self._by_rater.setdefault(record.rater, []).append(record)

    def about(self, target: str) -> list[FeedbackRecord]:
        return self._by_target.get(target, [])

    def by(self, rater: str) -> list[FeedbackRecord]:
        return self._by_rater.get(rater, [])


def random_select(rng: np.random.Generator) -> Prediction:
    """Accept a candidate with probability one half; zero confidence."""
    label = Outcome.SUCCESSFUL if rng.random() < 0.5 else Outcome.UNSUCCESSFUL
    return Prediction(label, 0.0, "Baseline-Random")


def majority_outcomes(log: TransactionLog) -> dict[str, Outcome]:
    """The log owner's majority outcome per counterparty (ties dropped)."""
    counts: dict[str, list[int]] = {}
    for t in log.entries:
        pair = counts.setdefault(t.counterparty, [0, 0])
        pair[0 if t.outcome is Outcome.SUCCESSFUL else 1] += 1
    view = {}
    for partner, (n_s, n_u) in counts.items():
        if n_s != n_u:
            view[partner] = Outcome.SUCCESSFUL if n_s > n_u else Outcome.UNSUCCESSFUL
    return view


def _rater_credible(
    rater_records: Sequence[FeedbackRecord], own_outcomes: Mapping[str, Outcome]
) -> bool:
    """Judge a rater against the requester's own experience.

    A rater is discarded when, over co-known targets (at least two overlaps),
    its ratings disagree with the requester's own outcomes more than half the
    time. Too few overlaps means no judgement, so the rater survives.
    """
    agree = disagree = 0
    for record in rater_records:
        own = own_outcomes.get(record.target)
        if own is None:
            continue
        if record.rating is own:
            agree += 1
        else:
            disagree += 1
    overlaps = agree + disagree
    if overlaps < MIN_OVERLAP_TO_JUDGE:
        return True
    return disagree * 2 <= overlaps


def aggregate_feedback(
    target: str,
    store: FeedbackStore,
    requester_outcomes: Mapping[str, Outcome],
    requester: str | None = None,
) -> Prediction:
    """Beta-mean aggregation of surviving feedback about a target.

    Raters failing the disagreement filter are discarded (a simplified
    substitute for full accuracy estimation). No surviving evidence leaves
    the uninformative mean 0.5, which classifies unsuccessful with zero
    confidence (risk-averse tie-break).
    """
    positive = negative = 0
    for record in store.about(target):
        if requester is not None and record.rater == requester:
            continue
        if not _rater_credible(store.by(record.rater), requester_outcomes):
            continue
        if record.rating is Outcome.SUCCESSFUL:
            positive += 1
        else:
            negative += 1
    mean = (positive + 1) / (positive + negative + 2)
    label = Outcome.SUCCESSFUL if mean > 0.5 else Outcome.UNSUCCESSFUL
    return Prediction(label, abs(2.0 * mean - 1.0), "Baseline-Feedback")


def stereotrust_predict(log: TransactionLog, target_features: Sequence[float]) -> Prediction:
    """Group-trust prediction from discretized feature bins.

    Past transactions are bucketed per feature by supervised intervals; each
    populated bucket's trust is the beta mean of its outcomes. The target's
    score is the equal-weight average of the trusts of the buckets its values
    fall in, with the prior 0.5 when it lands in no populated bucket. The
    intervals are ``dtree.build_domains``'s, so an empty log raises ``EmptySet``.
    """
    group_trusts: list[float] = []
    for feature, domain in dtree.build_domains(log).items():
        bucket = domain.bucket_of(float(target_features[feature]))
        outcomes = [
            t.outcome for t in log.entries if domain.bucket_of(t.features[feature]) == bucket
        ]
        if not outcomes:
            continue  # unpopulated group contributes nothing
        n_s = outcomes.count(Outcome.SUCCESSFUL)
        group_trusts.append((n_s + 1) / (len(outcomes) + 2))
    score = sum(group_trusts) / len(group_trusts) if group_trusts else 0.5
    label = Outcome.SUCCESSFUL if score > 0.5 else Outcome.UNSUCCESSFUL
    return Prediction(label, abs(2.0 * score - 1.0), "Baseline-StereoTrust")
