"""Entropy, information gain, discretization, tree construction, and the
path-product confidence, with brute-force re-scoring of chosen splits."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustlens import dtree
from trustlens.core import Outcome, Transaction, TransactionLog
from trustlens.dtree import (
    IntervalDomain,
    InternalNode,
    LeafNode,
    build_domains,
    build_tree,
    classify_dt,
    confidence_dt,
    discretize,
    entropy,
    information_gain,
)
from trustlens.errors import ConstantFeature, EmptySet

S = Outcome.SUCCESSFUL
U = Outcome.UNSUCCESSFUL


def entries_from(values_and_labels, d=None):
    """Build transactions from (feature tuple, label) pairs."""
    rows = [(tuple(v) if isinstance(v, (tuple, list)) else (v,), label) for v, label in values_and_labels]
    log = TransactionLog("me", len(rows[0][0]) if d is None else d)
    for i, (features, label) in enumerate(rows):
        log.append(Transaction(f"t{i}", "p", "c", features, label))
    return log


def test_entropy_boundaries():
    assert entropy((4, 0)) == 0.0
    assert entropy((5, 5)) == 1.0
    assert entropy((1, 3)) == pytest.approx(0.8112781244591328, abs=1e-12)
    with pytest.raises(EmptySet):
        entropy((0, 0))


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
def test_entropy_in_unit_interval(n_s, n_u):
    if n_s + n_u == 0:
        return
    assert 0.0 <= entropy((n_s, n_u)) <= 1.0


def test_gain_perfectly_separating_feature():
    log = entries_from([(0.0, S), (0.0, S), (1.0, U), (1.0, U)])
    domain = IntervalDomain((0.5,))
    assert information_gain(log, 0, domain) == pytest.approx(entropy((2, 2)), abs=1e-12)


def test_gain_constant_feature_is_zero():
    log = entries_from([(5.0, S), (5.0, U), (5.0, S)])
    domain = IntervalDomain(())
    assert information_gain(log, 0, domain) == 0.0


def test_gain_uninformative_split_is_zero():
    log = entries_from([(0.0, S), (0.0, U), (1.0, S), (1.0, U)])
    domain = IntervalDomain((0.5,))
    # each child is 50/50, so expected child entropy equals the parent's
    assert information_gain(log, 0, domain) == pytest.approx(0.0, abs=1e-12)


def test_discretize_single_class_boundary():
    log = entries_from([(1.0, S), (2.0, S), (10.0, U), (11.0, U)])
    domain = discretize(log, 0, max_bins=2)
    assert domain.thresholds == (6.0,)
    assert domain.bucket_of(6.0) == 0  # intervals are (-inf, t] then (t, inf)
    assert domain.bucket_of(6.0001) == 1


def test_discretize_constant_feature():
    log = entries_from([(3.0, S), (3.0, U)])
    with pytest.raises(ConstantFeature):
        discretize(log, 0)


def test_discretize_binary_feature():
    log = entries_from([(0.0, S), (1.0, U), (0.0, S), (1.0, U)])
    domain = discretize(log, 0)
    assert domain.thresholds == (0.5,)


def test_discretize_respects_max_bins():
    # three class changes but only one threshold allowed
    log = entries_from([(0.0, S), (1.0, U), (2.0, S), (3.0, U)])
    domain = discretize(log, 0, max_bins=2)
    assert len(domain.thresholds) == 1


def test_discretize_keeps_only_strict_gains():
    # a zero-gain boundary is not kept
    log = entries_from([(0.0, S), (0.0, U), (1.0, S), (1.0, U)])
    assert discretize(log, 0).thresholds == ()
    # 0.5 and 1.5 score the same gain; the lower candidate comes first and wins
    log = entries_from([(0.0, S), (1.0, U), (2.0, S)])
    assert discretize(log, 0, max_bins=2).thresholds == (0.5,)


def test_discretize_drops_repeated_midpoint():
    # three adjacent doubles labelled S, U, S: both midpoints round to the middle value
    values = [1.0000000000000002, 1.0000000000000004, 1.0000000000000007]
    log = entries_from([(v, label) for v, label in zip(values, (S, U, S)) for _ in range(3)])
    domain = discretize(log, 0)
    assert domain.thresholds == (1.0000000000000004,)
    assert [domain.bucket_of(v) for v in values] == [0, 0, 1]


def test_discretize_midpoint_near_float_max():
    # lo + hi overflows for every neighbouring pair; the threshold is lo / 2 + hi / 2
    values = [1.5e308, 1.55e308, 1.6e308, 1.65e308, 1.7e308, 1.75e308]
    log = entries_from([(v, S if v < 1.62e308 else U) for v in values])
    domain = discretize(log, 0)
    assert domain.thresholds == (1.6e308 / 2 + 1.65e308 / 2,)
    assert [domain.bucket_of(v) for v in values] == [0, 0, 0, 1, 1, 1]


def test_discretize_does_not_rescan_the_log(monkeypatch):
    calls = []
    real_gain = dtree.information_gain

    def counting_gain(*args, **kwargs):
        calls.append(args)
        return real_gain(*args, **kwargs)

    monkeypatch.setattr(dtree, "information_gain", counting_gain)
    rng = random.Random(800)
    log = entries_from([(rng.gauss(0.0, 1.0), S if rng.random() < 0.6 else U) for _ in range(800)])
    domain = discretize(log, 0)
    assert len(domain.thresholds) == 3  # every greedy round ran
    assert calls == []


def test_build_tree_buckets_each_entry_once_per_feature(monkeypatch):
    calls = {"bucket_of": 0, "information_gain": 0}
    real_bucket_of = IntervalDomain.bucket_of
    real_gain = dtree.information_gain

    def counting_bucket_of(self, x):
        calls["bucket_of"] += 1
        return real_bucket_of(self, x)

    def counting_gain(*args, **kwargs):
        calls["information_gain"] += 1
        return real_gain(*args, **kwargs)

    rng = random.Random(900)
    rows = [
        (tuple(rng.gauss(0.0, 1.0) for _ in range(3)), S if rng.random() < 0.5 else U)
        for _ in range(300)
    ]
    log = entries_from(rows, d=3)
    domains = build_domains(log)
    assert len(domains) == 3
    monkeypatch.setattr(IntervalDomain, "bucket_of", counting_bucket_of)
    monkeypatch.setattr(dtree, "information_gain", counting_gain)
    tree = build_tree(log, domains.keys(), domains)
    assert _depth(tree.root) == 3  # growth went below the root
    assert calls == {"bucket_of": len(log.entries) * len(domains), "information_gain": 0}


def test_build_tree_pure_log_single_leaf():
    log = entries_from([(0.0, S), (1.0, S), (2.0, S)])
    tree = build_tree(log)
    assert isinstance(tree.root, LeafNode)
    assert tree.root.label is S


def test_build_tree_exhausted_features_majority_leaf():
    log = entries_from([(1.0, S), (1.0, U), (1.0, U)])
    tree = build_tree(log, features=set(), domains={})
    assert isinstance(tree.root, LeafNode)
    assert tree.root.label is U


def test_build_tree_majority_tie_breaks_unsuccessful():
    log = entries_from([(1.0, S), (1.0, U)])
    tree = build_tree(log, features=set(), domains={})
    assert tree.root.label is U


def test_xor_tree_classifies_all_training_points():
    data = [((0.0, 0.0), S), ((0.0, 1.0), U), ((1.0, 0.0), U), ((1.0, 1.0), S)]
    log = entries_from(data)
    domains = {0: IntervalDomain((0.5,)), 1: IntervalDomain((0.5,))}
    tree = build_tree(log, features={0, 1}, domains=domains)
    assert isinstance(tree.root, InternalNode)
    assert tree.root.feature == 0  # both gains are 0 at the root, tie to lowest index
    for features, label in data:
        predicted, path = classify_dt(tree, features)
        assert predicted is label
        assert len(path) == 2


def test_classify_single_leaf_tree():
    log = entries_from([(0.0, S)])
    tree = build_tree(log, features=set(), domains={})
    label, path = classify_dt(tree, (123.0,))
    assert label is S and path == []
    assert confidence_dt(path) == 1.0


def test_classify_depth_one_tree():
    log = entries_from([(0.0, S), (0.0, S), (1.0, U), (1.0, U)])
    tree = build_tree(log)
    label, path = classify_dt(tree, (0.2,))
    assert label is S and len(path) == 1
    assert confidence_dt(path) == 1.0  # perfectly separating split


def test_classify_path_is_the_nodes_passed():
    data = [((0.0, 0.0), S), ((0.0, 1.0), U), ((1.0, 0.0), U), ((1.0, 1.0), S)]
    domains = {0: IntervalDomain((0.5,)), 1: IntervalDomain((0.5,))}
    tree = build_tree(entries_from(data), features={0, 1}, domains=domains)
    _, path = classify_dt(tree, (1.0, 0.0))
    assert path[0] is tree.root
    assert path[1] is tree.root.branches[1]
    assert isinstance(path[1].branches[0], LeafNode)


def test_confidence_path_product():
    path = [InternalNode(0, 1.0, 0.5, 0.5, 0, ()), InternalNode(1, 1.0, 0.8, 0.8, 0, ())]
    assert confidence_dt(path) == pytest.approx(0.4, abs=1e-12)
    zero = [InternalNode(0, 1.0, 0.0, 0.0, 0, ())]
    assert confidence_dt(zero) == 0.0


def test_empty_log_raises():
    with pytest.raises(EmptySet):
        build_tree(TransactionLog("me", 1))
    with pytest.raises(EmptySet):
        information_gain([], 0, IntervalDomain(()))


def _oracle_entropy(labels):
    n = len(labels)
    h = 0.0
    for target in (S, U):
        k = sum(1 for x in labels if x is target)
        if k:
            h -= (k / n) * math.log2(k / n)
    return h


def _oracle_gain(entries, feature, domain):
    parent = _oracle_entropy([t.outcome for t in entries])
    total = len(entries)
    expected = 0.0
    for key in domain.buckets():
        subset = [t for t in entries if domain.bucket_of(t.features[feature]) == key]
        if subset:
            expected += len(subset) / total * _oracle_entropy([t.outcome for t in subset])
    return parent - expected


def _check_gain_maximality(node, entries, available, domains):
    if isinstance(node, LeafNode):
        return
    oracle = {f: _oracle_gain(entries, f, domains[f]) for f in available}
    assert node.gain >= max(oracle.values()) - 1e-12
    assert node.gain == pytest.approx(oracle[node.feature], abs=1e-12)
    assert 0.0 <= node.gain <= node.entropy + 1e-12
    assert 0.0 <= node.reduction <= 1.0
    domain = domains[node.feature]
    for key, child in enumerate(node.branches):
        subset = [t for t in entries if domain.bucket_of(t.features[node.feature]) == key]
        if subset:
            _check_gain_maximality(child, subset, available - {node.feature}, domains)


def test_random_trees_pick_maximal_gain_and_stay_consistent():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(4, 18)
        d = rng.randint(1, 3)
        rows = []
        for _ in range(n):
            features = tuple(float(rng.randint(0, 2)) for _ in range(d))
            rows.append((features, S if rng.random() < 0.5 else U))
        log = entries_from(rows, d=d)
        domains = {f: IntervalDomain((0.5, 1.5)) for f in range(d)}
        tree = build_tree(log, features=set(range(d)), domains=domains)
        _check_gain_maximality(tree.root, log.entries, frozenset(range(d)), domains)
        # depth never exceeds the feature count
        assert _depth(tree.root) <= d
        # when all leaves are pure, training points classify to their own label
        if _all_leaves_pure(tree.root, log.entries, domains):
            for t in log.entries:
                assert classify_dt(tree, t.features)[0] is t.outcome


def _depth(node):
    if isinstance(node, LeafNode):
        return 0
    return 1 + max(_depth(child) for child in node.branches)


def _all_leaves_pure(root, entries, domains):
    def walk(node, subset):
        if isinstance(node, LeafNode):
            return len({t.outcome for t in subset}) <= 1
        domain = domains[node.feature]
        ok = True
        for key, child in enumerate(node.branches):
            sub = [t for t in subset if domain.bucket_of(t.features[node.feature]) == key]
            ok = ok and walk(child, sub)
        return ok

    return walk(root, entries)


def test_tree_determinism_under_entry_order():
    rng = random.Random(8)
    rows = [
        (tuple(float(rng.randint(0, 2)) for _ in range(3)), S if rng.random() < 0.5 else U)
        for _ in range(12)
    ]
    domains = {f: IntervalDomain((0.5, 1.5)) for f in range(3)}
    tree_a = build_tree(entries_from(rows, d=3), features={0, 1, 2}, domains=domains)
    tree_b = build_tree(entries_from(list(reversed(rows)), d=3), features={0, 1, 2}, domains=domains)
    assert _structure(tree_a.root) == _structure(tree_b.root)


def _structure(node):
    if isinstance(node, LeafNode):
        return ("leaf", node.label.name, node.count)
    return (
        "node",
        node.feature,
        round(node.gain, 15),
        tuple((key, _structure(child)) for key, child in enumerate(node.branches)),
    )


def test_build_domains_skips_constant_features():
    log = entries_from([((1.0, 5.0), S), ((2.0, 5.0), U), ((3.0, 5.0), S)])
    domains = build_domains(log)
    assert 0 in domains and 1 not in domains


def _reference_grow(entries, features, domains):
    """ID3 growth without precomputed buckets: partition the entries at every
    node and score each feature with information_gain."""
    n_s = sum(1 for t in entries if t.outcome is S)
    n_u = len(entries) - n_s
    if n_u == 0:
        return LeafNode(S, len(entries))
    if n_s == 0:
        return LeafNode(U, len(entries))
    majority = S if n_s > n_u else U
    if not features:
        return LeafNode(majority, len(entries))
    gains = {f: information_gain(entries, f, domains[f]) for f in features}
    best = min(features, key=lambda f: (-gains[f], f))
    parent_entropy = entropy((n_s, n_u))
    reduction = gains[best] / parent_entropy if parent_entropy > 0.0 else 1.0
    domain = domains[best]
    grouped = {key: [] for key in domain.buckets()}
    for t in entries:
        grouped[domain.bucket_of(t.features[best])].append(t)
    branches = tuple(
        _reference_grow(grouped[key], features - {best}, domains) if grouped[key] else LeafNode(majority, 0)
        for key in domain.buckets()
    )
    return InternalNode(best, parent_entropy, gains[best], reduction, len(entries), branches)


def _fields(node):
    if isinstance(node, LeafNode):
        return ("leaf", node.label, node.count)
    return (
        "node",
        node.feature,
        node.entropy.hex(),
        node.gain.hex(),
        node.reduction.hex(),
        node.count,
        tuple(_fields(child) for child in node.branches),
    )


# (5.0,) leaves its upper bucket empty on values 0-2; () has one bucket and gain 0
_TREE_THRESHOLDS = [(), (0.5,), (1.5,), (0.5, 1.5), (0.5, 1.5, 2.5), (5.0,)]


@st.composite
def _tree_cases(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    value = st.integers(min_value=0, max_value=2).map(float)
    rows = draw(
        st.lists(st.tuples(st.tuples(*[value] * d), st.booleans()), min_size=1, max_size=40)
    )
    domains = {f: IntervalDomain(draw(st.sampled_from(_TREE_THRESHOLDS))) for f in range(d)}
    if d > 1 and draw(st.booleans()):  # the last feature copies feature 0: their gains tie
        rows = [(v[:-1] + v[:1], label) for v, label in rows]
        domains[d - 1] = domains[0]
    log = entries_from([(v, S if successful else U) for v, successful in rows], d=d)
    features = draw(st.sets(st.sampled_from(range(d))))
    return log, features, domains


@settings(max_examples=200, deadline=None)
@given(_tree_cases())
def test_build_tree_matches_reference_grower(case):
    log, features, domains = case
    tree = build_tree(log, features, domains)
    expected = _reference_grow(list(log.entries), frozenset(features), domains)
    assert _fields(tree.root) == _fields(expected)
    assert tree.domains == domains
