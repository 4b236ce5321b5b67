"""Overlay mechanics: tuple sharing, trust-weighted combination, beta-mean
trust updates, and provider bootstrap."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trustlens import lkson
from trustlens.core import Outcome
from trustlens.errors import CancelledDirection, DimensionMismatch, EmptyTupleSet
from trustlens.lda import LdaModel, classify, confidence_lda, train
from trustlens.lkson import (
    KnowledgeTuple,
    OverlayGraph,
    TrustEdge,
    bootstrap_providers,
    classify_with_combined,
    combine,
    post_transaction_update,
    share_knowledge,
    update_trust,
)

from conftest import make_log

S = Outcome.SUCCESSFUL
U = Outcome.UNSUCCESSFUL


def trained_model(seed=0, center_u=(1.0, 1.0)):
    rng = np.random.default_rng(seed)
    log = make_log(
        rng.normal([0.0, 0.0], 0.05, size=(4, 2)),
        rng.normal(center_u, 0.05, size=(4, 2)),
    )
    return train(log)


def simple_tuple(provider="p1", direction=(1.0, 0.0), cs=(0.0, 0.0), cu=(2.0, 0.0), context="c"):
    model = LdaModel(np.array(direction), np.array(cs), np.array(cu), regularization_used=0.0)
    return KnowledgeTuple(provider, context, model)


def test_share_knowledge_wraps_model():
    model = trained_model()
    knowledge = share_knowledge("alice", model, "book")
    assert knowledge.provider == "alice" and knowledge.context == "book"
    assert knowledge.model is model


def test_combine_single_tuple_is_identity():
    knowledge = simple_tuple()
    direction, cs, cu = combine([knowledge], [0.37])
    assert np.allclose(direction, knowledge.model.direction, rtol=1e-12)
    assert np.allclose(cs, knowledge.model.centroid_successful, rtol=1e-12)
    assert np.allclose(cu, knowledge.model.centroid_unsuccessful, rtol=1e-12)


def test_combine_weights_follow_trust_scores():
    a = simple_tuple("p1", (1.0, 0.0), (0.0, 0.0), (2.0, 0.0))
    b = simple_tuple("p2", (0.0, 1.0), (1.0, 1.0), (3.0, 3.0))
    direction, cs, cu = combine([a, b], [0.9, 0.1])
    raw = 0.9 * a.model.direction + 0.1 * b.model.direction
    assert np.allclose(direction, raw / np.linalg.norm(raw), rtol=1e-12)
    assert np.allclose(cs, [0.1, 0.1], rtol=1e-12)
    assert np.allclose(cu, [2.1, 0.3], rtol=1e-12)


def test_combine_identical_tuples_any_scores():
    knowledge = simple_tuple()
    direction, cs, cu = combine([knowledge] * 3, [0.2, 0.5, 0.9])
    assert np.allclose(direction, knowledge.model.direction, rtol=1e-12)
    assert np.allclose(cs, knowledge.model.centroid_successful, rtol=1e-12)


def test_combine_errors():
    with pytest.raises(EmptyTupleSet):
        combine([], [])
    a = simple_tuple("p1", (1.0, 0.0))
    b = simple_tuple("p2", (1.0,), (0.0,), (2.0,))
    with pytest.raises(DimensionMismatch):
        combine([a, b], [0.5, 0.5])
    opposite = simple_tuple("p3", (-1.0, 0.0))
    with pytest.raises(CancelledDirection):
        combine([a, opposite], [0.5, 0.5])


def test_combine_centroids_stay_in_convex_hull():
    rng = np.random.default_rng(6)
    tuples = []
    for i in range(5):
        direction = rng.normal(size=3)
        direction = np.abs(direction) / np.linalg.norm(direction)
        tuples.append(simple_tuple(f"p{i}", direction, rng.normal(size=3), rng.normal(size=3)))
    scores = rng.uniform(0.1, 0.9, size=5).tolist()
    _, cs, cu = combine(tuples, scores)
    all_cs = np.array([t.model.centroid_successful for t in tuples])
    all_cu = np.array([t.model.centroid_unsuccessful for t in tuples])
    assert np.all(cs >= all_cs.min(axis=0) - 1e-12) and np.all(cs <= all_cs.max(axis=0) + 1e-12)
    assert np.all(cu >= all_cu.min(axis=0) - 1e-12) and np.all(cu <= all_cu.max(axis=0) + 1e-12)


def test_combine_weights_sum_to_one():
    rng = np.random.default_rng(15)
    for _ in range(50):
        scores = rng.uniform(1e-6, 1.0, size=rng.integers(1, 8))
        weights = scores / scores.sum()
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights > 0.0) and np.all(weights <= 1.0)


def test_classify_with_combined_boundary_cases():
    combined = (np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    on_centroid = classify_with_combined(combined, [0.0, 0.0])
    assert on_centroid.label is S and on_centroid.confidence == 1.0
    midpoint = classify_with_combined(combined, [1.0, 0.0])
    assert midpoint.label is U and midpoint.confidence == 0.0


def test_classify_with_combined_single_provider_matches_local():
    model = trained_model(seed=9)
    knowledge = share_knowledge("p", model, "c")
    combined = combine([knowledge], [0.5])
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = rng.normal(0.5, 0.7, size=2)
        dist_s, dist_u, label = classify(model, p)
        via_overlay = classify_with_combined(combined, p)
        assert via_overlay.label is label
        assert via_overlay.confidence == pytest.approx(confidence_lda(dist_s, dist_u), abs=1e-9)


def test_update_trust_examples():
    edge = TrustEdge()
    assert edge.trust == 0.5
    assert update_trust(edge, True) == pytest.approx(2 / 3)
    edge2 = TrustEdge()
    assert update_trust(edge2, False) == pytest.approx(1 / 3)
    edge3 = TrustEdge(successes=4, failures=4)
    assert update_trust(edge3, True) == pytest.approx(6 / 11)


@given(st.lists(st.booleans(), min_size=1, max_size=60))
def test_trust_matches_closed_form_and_moves_monotonically(results):
    edge = TrustEdge()
    s = u = 0
    for correct in results:
        before = edge.trust
        t = update_trust(edge, correct)
        if correct:
            s += 1
            assert t > before
        else:
            u += 1
            assert t < before
        assert t == (s + 1) / (s + u + 2)
        assert 0.0 < t < 1.0


def test_post_transaction_update_failure_evaluates_everyone():
    graph = OverlayGraph()
    rng = np.random.default_rng(0)
    tuples = [simple_tuple(f"p{i}") for i in range(5)]
    post_transaction_update(graph, "me", tuples, U, [0.1, 0.0], rng)
    for i in range(5):
        edge = graph.edge("me", f"p{i}")
        assert edge.successes + edge.failures == 1


def test_post_transaction_update_success_samples_fifth():
    graph = OverlayGraph()
    rng = np.random.default_rng(0)
    tuples = [simple_tuple(f"p{i}") for i in range(10)]
    post_transaction_update(graph, "me", tuples, S, [0.1, 0.0], rng)
    touched = sum(
        graph.edge("me", f"p{i}").successes + graph.edge("me", f"p{i}").failures
        for i in range(10)
    )
    assert touched == 2


def test_wrong_provider_prediction_lowers_trust():
    graph = OverlayGraph()
    rng = np.random.default_rng(0)
    # this knowledge calls p=[0.1, 0] successful, but the outcome failed
    knowledge = simple_tuple("liar", (1.0, 0.0), (0.0, 0.0), (2.0, 0.0))
    before = graph.trust("me", "liar")
    post_transaction_update(graph, "me", [knowledge], U, [0.1, 0.0], rng)
    assert graph.trust("me", "liar") < before


def test_bootstrap_prefers_familiar_and_sizes():
    rng = np.random.default_rng(12)
    population = {f"a{i}": ("book",) for i in range(80)}
    population.update({f"b{i}": ("camera",) for i in range(40)})
    listing = bootstrap_providers("a0", population, 60, rng, context="book")
    assert len(listing) == 60
    graph = OverlayGraph()
    graph.register_providers("a0", listing)
    assert graph.provider_list("a0") == listing
    assert all(graph.trust("a0", p) == 0.5 for p in listing)

    # all candidates share the context: everyone drawn from the familiar pool
    small = {f"a{i}": ("book",) for i in range(10)}
    listing2 = bootstrap_providers("a0", small, 5, rng, context="book")
    assert len(listing2) == 5
    assert all(p.startswith("a") for p in listing2)

    # fewer familiar agents than requested: the rest fills from the others
    mixed = {f"a{i}": ("book",) for i in range(3)}
    mixed.update({f"b{i}": ("camera",) for i in range(20)})
    listing3 = bootstrap_providers("a0", mixed, 10, rng, context="book")
    assert set(p for p in listing3 if p.startswith("a")) == {"a1", "a2"}
    assert len(listing3) == 10


def _bootstrap_three_scans(agent, population, k, rng, context=None):
    """Reference: candidates, familiar and unfamiliar agents in three scans."""
    candidates = [a for a in population if a != agent]
    size = min(k, len(candidates))
    if size <= 0:
        return ()
    if context is not None:
        familiar = [a for a in candidates if context in population[a]]
        unfamiliar = [a for a in candidates if context not in population[a]]
    else:
        familiar, unfamiliar = [], candidates
    if len(familiar) >= size:
        idx = rng.choice(len(familiar), size=size, replace=False)
        return tuple(familiar[i] for i in sorted(idx.tolist()))
    chosen = list(familiar)
    fill = size - len(familiar)
    if fill and unfamiliar:
        idx = rng.choice(len(unfamiliar), size=fill, replace=False)
        chosen.extend(unfamiliar[i] for i in sorted(idx.tolist()))
    return tuple(chosen)


@given(
    holdings=st.lists(st.sets(st.sampled_from("xyz"), max_size=3), min_size=1, max_size=25),
    agent=st.integers(0, 30),
    k=st.integers(-1, 40),
    context=st.sampled_from([None, "x", "y", "w"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bootstrap_matches_three_scan_reference(holdings, agent, k, context, seed):
    population = {f"a{i}": tuple(sorted(held)) for i, held in enumerate(holdings)}
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    got = bootstrap_providers(f"a{agent}", population, k, rng_new, context=context)
    want = _bootstrap_three_scans(f"a{agent}", population, k, rng_old, context=context)
    assert got == want
    # the same draws were made, so both streams continue alike
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_bootstrap_population_of_one():
    rng = np.random.default_rng(0)
    listing = bootstrap_providers("solo", {"solo": ("c",)}, 60, rng, context="c")
    assert listing == ()


def test_overlay_graph_end_to_end():
    providers = {f"p{i}": trained_model(seed=i) for i in range(4)}

    def supplier(provider_ids, context):
        # p3 cannot train right now, so it is left out
        return [share_knowledge(p, providers[p], context) for p in provider_ids if p != "p3"]

    graph = OverlayGraph(supplier=supplier)
    rng = np.random.default_rng(2)
    listing = bootstrap_providers("me", {p: ("c",) for p in list(providers) + ["me"]}, 4, rng, context="c")
    graph.register_providers("me", listing)

    prediction, tuples_used = graph.combined_assessment("me", "c", [0.0, 0.0])
    assert prediction.label is S
    assert {t.provider for t in tuples_used} == {"p0", "p1", "p2"}

    graph_no_supplier = OverlayGraph()
    with pytest.raises(EmptyTupleSet):
        graph_no_supplier.combined_assessment("me", "c", [0.0, 0.0])

    nobody_answers = OverlayGraph(supplier=lambda provider_ids, context: [])
    nobody_answers.register_providers("me", listing)
    with pytest.raises(EmptyTupleSet):
        nobody_answers.combined_assessment("me", "c", [0.0, 0.0])


@pytest.mark.parametrize("fanout", (None, 1, 3, 10))
def test_combined_assessment_calls_supplier_once_with_fanout_cut(fanout):
    calls = []

    def supplier(provider_ids, context):
        calls.append((tuple(provider_ids), context))
        return [simple_tuple(provider=p) for p in provider_ids]

    graph = OverlayGraph(supplier=supplier, fanout=fanout)
    listing = ("p4", "p0", "p3", "p1", "p2")
    graph.register_providers("me", listing)
    graph.combined_assessment("me", "c", [0.5, 0.0])
    graph.combined_assessment("me", "c", [1.5, 0.0])
    cut = listing if fanout is None else listing[:fanout]
    assert calls == [(cut, "c"), (cut, "c")]


def test_combined_assessment_keeps_supplier_order_and_weights_by_trust(monkeypatch):
    answers = [
        simple_tuple(provider="p2", direction=(1.0, 0.0)),
        simple_tuple(provider="p0", direction=(0.6, 0.8)),
        simple_tuple(provider="p3", direction=(0.0, 1.0)),
    ]
    graph = OverlayGraph(supplier=lambda provider_ids, context: list(answers))
    graph.register_providers("me", ("p0", "p1", "p2", "p3"))
    for provider, results in (("p0", (True, True)), ("p2", (False,)), ("p3", (True, False, False))):
        for correct in results:
            graph.record_result("me", provider, correct)

    seen = []
    real_combine = lkson.combine

    def recording_combine(tuples, scores):
        seen.append((tuple(tuples), list(scores)))
        return real_combine(tuples, scores)

    monkeypatch.setattr(lkson, "combine", recording_combine)
    prediction, tuples_used = graph.combined_assessment("me", "c", [0.5, 0.0])
    assert tuples_used == tuple(answers)
    assert seen == [(tuple(answers), [graph.trust("me", t.provider) for t in answers])]
    assert seen[0][1] == [1 / 3, 3 / 4, 2 / 5]
    expected = classify_with_combined(combine(answers, seen[0][1]), [0.5, 0.0])
    assert prediction == expected


def test_overlay_graph_rejects_self_edges():
    graph = OverlayGraph()
    with pytest.raises(ValueError):
        graph.edge("me", "me")


def test_register_providers_rejects_self_listing_and_repeats():
    graph = OverlayGraph()
    with pytest.raises(ValueError, match="self-edges"):
        graph.register_providers("me", ("p0", "me"))
    with pytest.raises(ValueError, match="unique"):
        graph.register_providers("me", ("p0", "p1", "p0"))
    assert graph.provider_list("me") is None
    graph.register_providers("me", ["p1", "p0"])
    assert graph.provider_list("me") == ("p1", "p0")
