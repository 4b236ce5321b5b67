"""Knowledge-sharing overlay: a weighted directed trust graph over which
agents exchange knowledge tuples, each carrying a provider's trained
discriminant (direction plus group centroids), instead of raw histories or
feedbacks.

Requesters combine collected tuples weighted by provider trust, classify with
the combined model, and afterwards adjust each provider's trust with a
beta-mean update driven by how the provider's knowledge alone would have
predicted the realized outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import lda
from .core import Outcome, Prediction
from .errors import CancelledDirection, DimensionMismatch, EmptyTupleSet

MIN_DIRECTION_NORM = 1e-9


@dataclass(frozen=True)
class KnowledgeTuple:
    """The shareable summary of a provider's trained model.

    Carries no raw transactions: only the provider's trained discriminant
    (unit projection direction and the two group centroids), plus the
    context the model was trained in.
    """

    provider: str
    context: str
    model: lda.LdaModel


@dataclass
class TrustEdge:
    """Per-edge counters of correct/incorrect predictions by a provider."""

    successes: int = 0
    failures: int = 0

    @property
    def trust(self) -> float:
        # beta-mean of the counters; 0.5 for a fresh edge
        return (self.successes + 1) / (self.successes + self.failures + 2)


def update_trust(edge: TrustEdge, correct: bool) -> float:
    """Record one prediction result on an edge and return the new trust.

    A correct prediction moves trust to (s+2)/(s+u+3), an incorrect one to
    (s+1)/(s+u+3); the counters persist so trust always equals the beta mean
    of the accumulated evidence.
    """
    if correct:
        edge.successes += 1
    else:
        edge.failures += 1
    return edge.trust


def share_knowledge(provider: str, model: lda.LdaModel, context: str) -> KnowledgeTuple:
    """Wrap a trained model into its shareable tuple."""
    return KnowledgeTuple(provider=provider, context=context, model=model)


def combine(
    tuples: Sequence[KnowledgeTuple], scores: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trust-weighted combination of collected tuples.

    Weights are the trust scores normalized to sum to 1; the combined
    direction is re-normalized to unit length so confidences stay comparable
    with locally trained models.
    """
    if not tuples:
        raise EmptyTupleSet("no knowledge tuples to combine")
    if len(scores) != len(tuples):
        raise ValueError("one trust score per tuple is required")
    if any(s <= 0.0 for s in scores):
        raise ValueError("trust scores must be positive")
    d = len(tuples[0].model.direction)
    context = tuples[0].context
    for t in tuples:
        if len(t.model.direction) != d:
            raise DimensionMismatch("tuples disagree on dimensionality")
        if t.context != context:
            raise ValueError(f"tuples mix contexts {context!r} and {t.context!r}")

    weights = np.asarray(scores, dtype=float)
    weights = weights / weights.sum()
    directions = np.asarray([t.model.direction for t in tuples], dtype=float)
    combined = weights @ directions
    norm = np.linalg.norm(combined)
    if norm < MIN_DIRECTION_NORM:
        raise CancelledDirection("weighted directions annihilate each other")
    direction = combined / norm
    centroid_s = weights @ np.asarray([t.model.centroid_successful for t in tuples], dtype=float)
    centroid_u = weights @ np.asarray([t.model.centroid_unsuccessful for t in tuples], dtype=float)
    return direction, centroid_s, centroid_u


def classify_with_combined(
    combined: tuple[np.ndarray, np.ndarray, np.ndarray], p: Sequence[float]
) -> Prediction:
    """Classify a candidate with combined knowledge.

    Same decision rule and confidence as a locally trained discriminant,
    applied to the combined direction and centroids.
    """
    direction, centroid_s, centroid_u = combined
    proj = float(direction @ lda.candidate_point(p, direction))
    dist_s, dist_u, label = lda.decide(proj, float(direction @ centroid_s), float(direction @ centroid_u))
    return Prediction(label, lda.confidence_lda(dist_s, dist_u), "Combined")


EVALUATED_FRACTION_DENOM = 5  # evaluate 1/5 of providers after a success


class OverlayGraph:
    """The overlay network: trust edges, provider lists, and tuple exchange.

    ``supplier`` is the requester-side hook for fetching providers' current
    tuples, called once per request:
    ``supplier(provider_ids, context) -> Sequence[KnowledgeTuple]`` returns
    the tuples of those providers that can answer, in the order given (a
    provider that cannot train a model right now is left out). Edge mutation
    is single-writer per requester; tuple requests are read-only.
    """

    def __init__(
        self,
        supplier: Callable[[Sequence[str], str], Sequence[KnowledgeTuple]] | None = None,
        fanout: int | None = None,
    ):
        self.supplier = supplier
        self.fanout = fanout
        self._edges: dict[tuple[str, str], TrustEdge] = {}
        self._provider_lists: dict[str, tuple[str, ...]] = {}

    def edge(self, requester: str, provider: str) -> TrustEdge:
        if requester == provider:
            raise ValueError("the overlay has no self-edges")
        key = (requester, provider)
        found = self._edges.get(key)
        if found is None:
            found = self._edges[key] = TrustEdge()
        return found

    def trust(self, requester: str, provider: str) -> float:
        return self.edge(requester, provider).trust

    def record_result(self, requester: str, provider: str, correct: bool) -> float:
        return update_trust(self.edge(requester, provider), correct)

    def register_providers(self, owner: str, providers: Sequence[str]) -> None:
        """Set an agent's provider ids, in the order requests walk them.

        Edges are created on first use, each starting at trust 0.5.
        """
        if owner in providers:
            raise ValueError("the overlay has no self-edges")
        if len(set(providers)) != len(providers):
            raise ValueError("provider ids must be unique")
        self._provider_lists[owner] = tuple(providers)

    def provider_list(self, agent: str) -> tuple[str, ...] | None:
        return self._provider_lists.get(agent)

    def combined_assessment(
        self, requester: str, context: str, p: Sequence[float]
    ) -> tuple[Prediction, tuple[KnowledgeTuple, ...]]:
        """Gather tuples from the requester's providers and classify.

        Raises EmptyTupleSet when the requester has no provider list, no
        supplier is configured, or no provider can answer.
        """
        if self.supplier is None:
            raise EmptyTupleSet("overlay has no tuple supplier configured")
        provider_ids = self._provider_lists.get(requester)
        if not provider_ids:
            raise EmptyTupleSet(f"agent {requester!r} has no knowledge providers")
        if self.fanout is not None:
            provider_ids = provider_ids[: self.fanout]

        tuples = tuple(self.supplier(provider_ids, context))
        if not tuples:
            raise EmptyTupleSet(f"no provider of {requester!r} could answer in context {context!r}")
        combined = combine(tuples, [self.trust(requester, t.provider) for t in tuples])
        return classify_with_combined(combined, p), tuples


def post_transaction_update(
    graph: OverlayGraph,
    requester: str,
    providers: Sequence[KnowledgeTuple],
    outcome: Outcome,
    p: Sequence[float],
    rng: np.random.Generator,
) -> None:
    """Adjust provider trust after an overlay-assisted transaction completes.

    An unsuccessful outcome re-evaluates every provider's solo prediction; a
    successful one samples a fifth of them (at least one) to keep overheads
    low while still adapting the weights.
    """
    if not providers:
        return
    if outcome is Outcome.UNSUCCESSFUL:
        evaluated: Sequence[KnowledgeTuple] = providers
    else:
        k = max(1, len(providers) // EVALUATED_FRACTION_DENOM)
        indices = sorted(rng.choice(len(providers), size=k, replace=False).tolist())
        evaluated = [providers[i] for i in indices]
    point = lda.candidate_point(p, evaluated[0].model.direction)  # the tuples share one shape
    for knowledge in evaluated:
        _, _, predicted = lda.classify_point(knowledge.model, point)
        graph.record_result(requester, knowledge.provider, correct=(predicted is outcome))


def bootstrap_providers(
    agent: int, population: Sequence[str], k: int, rng: np.random.Generator
) -> tuple[str, ...]:
    """Up to ``k`` agents of ``population`` other than the one at position
    ``agent``, drawn uniformly (every simulated agent holds the one simulated
    context), in population order."""
    others = population[:agent] + population[agent + 1 :]
    size = min(k, len(others))
    if size <= 0:
        return ()
    idx = rng.choice(len(others), size=size, replace=False)
    return tuple(others[i] for i in sorted(idx.tolist()))
