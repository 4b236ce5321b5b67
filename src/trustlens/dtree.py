"""ID3 decision tree over discretized features, with path-product confidence.

Nodes split on the feature with the highest information gain; each internal
node remembers its entropy, gain, and entropy-reduction ratio so a
classification path yields a confidence score (the product of the ratios
along the path).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .core import Outcome, Transaction, TransactionLog
from .errors import ConstantFeature, DimensionMismatch, EmptySet

DEFAULT_MAX_BINS = 4


@dataclass(frozen=True)
class IntervalDomain:
    """Contiguous intervals (-inf, t1], (t1, t2], ..., (tk, inf) over the reals."""

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        if list(self.thresholds) != sorted(set(self.thresholds)):
            raise ValueError("thresholds must be strictly increasing")

    def buckets(self) -> tuple[int, ...]:
        return tuple(range(len(self.thresholds) + 1))

    def bucket_of(self, x: float) -> int:
        return bisect_left(self.thresholds, x)


FeatureDomains = Mapping[int, IntervalDomain]


@dataclass(frozen=True)
class LeafNode:
    label: Outcome
    count: int


@dataclass(frozen=True)
class InternalNode:
    feature: int
    entropy: float
    gain: float
    reduction: float
    count: int
    majority: Outcome
    branches: tuple[tuple[int, "TreeNode"], ...]


TreeNode = Union[LeafNode, InternalNode]


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode
    domains: dict[int, IntervalDomain]


@dataclass(frozen=True)
class PathStep:
    """One internal node visited during classification."""

    feature: int
    entropy: float
    gain: float
    reduction: float


def _entries(log: TransactionLog | Sequence[Transaction]) -> Sequence[Transaction]:
    return log.entries if isinstance(log, TransactionLog) else log


def entropy(counts: tuple[int, int]) -> float:
    """Binary entropy of a (successful, unsuccessful) count pair, in bits.

    0 when one class is absent, 1 when the classes are balanced.
    """
    n_s, n_u = counts
    total = n_s + n_u
    if total == 0:
        raise EmptySet("entropy of an empty transaction set is undefined")
    h = 0.0
    for k in (n_s, n_u):
        if k:
            p = k / total
            h -= p * math.log2(p)
    return h


def bucket_counts(
    entries: Iterable[Transaction], feature: int, domain: IntervalDomain
) -> dict[int, list[int]]:
    """[successful, unsuccessful] counts per populated bucket of one feature."""
    counts: dict[int, list[int]] = {}
    for t in entries:
        pair = counts.setdefault(domain.bucket_of(t.features[feature]), [0, 0])
        pair[0 if t.outcome is Outcome.SUCCESSFUL else 1] += 1
    return counts


def information_gain(
    log: TransactionLog | Sequence[Transaction], feature: int, domain: IntervalDomain
) -> float:
    """Expected entropy reduction from splitting on one feature.

    Empty buckets contribute nothing; the result is clamped to
    [0, parent entropy] so downstream ratios stay in [0, 1].
    """
    entries = _entries(log)
    if not entries:
        raise EmptySet("information gain of an empty transaction set is undefined")
    parent_counts = _class_counts(entries)
    parent = entropy(parent_counts)
    total = len(entries)

    counts = bucket_counts(entries, feature, domain)
    expected = 0.0
    for key in domain.buckets():  # bucket order, not dict order: the float sum must not vary
        if key in counts:
            n_s, n_u = counts[key]
            expected += ((n_s + n_u) / total) * entropy((n_s, n_u))
    return min(max(parent - expected, 0.0), parent)


def _class_counts(entries: Iterable[Transaction]) -> tuple[int, int]:
    n_s = n_u = 0
    for t in entries:
        if t.outcome is Outcome.SUCCESSFUL:
            n_s += 1
        else:
            n_u += 1
    return n_s, n_u


def discretize(
    log: TransactionLog | Sequence[Transaction], feature: int, max_bins: int = DEFAULT_MAX_BINS
) -> IntervalDomain:
    """Supervised interval construction for a continuous feature.

    Candidate thresholds sit at midpoints between consecutive distinct values
    where the class label changes; up to ``max_bins - 1`` of them are kept by
    greedy gain maximization. The resulting intervals cover the real line.
    """
    entries = _entries(log)
    by_value: dict[float, set[Outcome]] = {}
    for t in entries:
        by_value.setdefault(t.features[feature], set()).add(t.outcome)
    if len(by_value) < 2:
        raise ConstantFeature(f"feature {feature} takes a single value")

    values = sorted(by_value)
    candidates = []
    for lo, hi in zip(values, values[1:]):
        labels_lo, labels_hi = by_value[lo], by_value[hi]
        if len(labels_lo) == 1 and labels_lo == labels_hi:
            continue  # pure and identical on both sides: no boundary here
        candidates.append((lo + hi) / 2.0)

    chosen: list[float] = []
    current = 0.0  # gain of the single-interval split
    while len(chosen) < max_bins - 1 and candidates:
        best_candidate = None
        best_gain = current
        for c in candidates:
            trial = IntervalDomain(tuple(sorted(chosen + [c])))
            g = information_gain(entries, feature, trial)
            if g > best_gain:
                best_candidate, best_gain = c, g
        if best_candidate is None:
            break
        chosen.append(best_candidate)
        candidates.remove(best_candidate)
        current = best_gain
    return IntervalDomain(tuple(sorted(chosen)))


def build_domains(
    log: TransactionLog | Sequence[Transaction],
    max_bins: int = DEFAULT_MAX_BINS,
    dimensionality: int | None = None,
) -> dict[int, IntervalDomain]:
    """Interval domains for every non-constant feature of a log."""
    entries = _entries(log)
    if not entries:
        raise EmptySet("cannot build domains from an empty log")
    d = dimensionality if dimensionality is not None else len(entries[0].features)
    domains: dict[int, IntervalDomain] = {}
    for feature in range(d):
        try:
            domains[feature] = discretize(entries, feature, max_bins)
        except ConstantFeature:
            continue  # gain would be 0; feature carries no signal
    return domains


def build_tree(
    log: TransactionLog | Sequence[Transaction],
    features: Iterable[int] | None = None,
    domains: FeatureDomains | None = None,
    max_bins: int = DEFAULT_MAX_BINS,
) -> DecisionTree:
    """Greedy ID3 construction.

    Pure sets become single leaves; an exhausted feature set yields the
    majority label (ties go unsuccessful); otherwise split on the highest
    gain feature (ties to the lowest index) and recurse with it removed.
    Empty branches become majority-label leaves of the parent set.
    """
    entries = _entries(log)
    if not entries:
        raise EmptySet("cannot build a tree from an empty log")
    if domains is None:
        domains = build_domains(entries, max_bins)
    if features is None:
        features = domains.keys()
    feature_set = frozenset(features)
    missing = [f for f in feature_set if f not in domains]
    if missing:
        raise ValueError(f"no domain supplied for features {sorted(missing)}")
    root = _grow(list(entries), feature_set, domains)
    return DecisionTree(root=root, domains=dict(domains))


def _majority(n_s: int, n_u: int) -> Outcome:
    return Outcome.SUCCESSFUL if n_s > n_u else Outcome.UNSUCCESSFUL


def _grow(
    entries: list[Transaction], features: frozenset[int], domains: FeatureDomains
) -> TreeNode:
    n_s, n_u = _class_counts(entries)
    if n_u == 0:
        return LeafNode(Outcome.SUCCESSFUL, len(entries))
    if n_s == 0:
        return LeafNode(Outcome.UNSUCCESSFUL, len(entries))
    if not features:
        return LeafNode(_majority(n_s, n_u), len(entries))

    gains = {f: information_gain(entries, f, domains[f]) for f in features}
    best = min(features, key=lambda f: (-gains[f], f))
    parent_entropy = entropy((n_s, n_u))
    reduction = gains[best] / parent_entropy if parent_entropy > 0.0 else 1.0
    majority = _majority(n_s, n_u)

    remaining = features - {best}
    domain = domains[best]
    grouped: dict[int, list[Transaction]] = {key: [] for key in domain.buckets()}
    for t in entries:
        grouped[domain.bucket_of(t.features[best])].append(t)

    branches = []
    for key in domain.buckets():
        subset = grouped[key]
        child = LeafNode(majority, 0) if not subset else _grow(subset, remaining, domains)
        branches.append((key, child))

    return InternalNode(
        feature=best,
        entropy=parent_entropy,
        gain=gains[best],
        reduction=reduction,
        count=len(entries),
        majority=majority,
        branches=tuple(branches),
    )


def classify_dt(
    tree: DecisionTree, p: Sequence[float]
) -> tuple[Outcome, list[PathStep]]:
    """Descend from the root by feature value, returning label and path."""
    point = tuple(p)
    if not all(math.isfinite(float(x)) for x in point):
        raise ValueError("candidate features must be finite")
    node = tree.root
    path: list[PathStep] = []
    while isinstance(node, InternalNode):
        if node.feature >= len(point):
            raise DimensionMismatch(
                f"candidate has {len(point)} features, tree tests feature {node.feature}"
            )
        path.append(PathStep(node.feature, node.entropy, node.gain, node.reduction))
        # branches are stored in bucket order, and intervals cover the reals
        _, node = node.branches[tree.domains[node.feature].bucket_of(point[node.feature])]
    return node.label, path


def confidence_dt(path: Sequence[PathStep]) -> float:
    """Product of entropy-reduction ratios along a classification path.

    An empty path (single-leaf tree) is fully confident; any uninformative
    node (zero gain) zeroes the product.
    """
    sigma = 1.0
    for step in path:
        sigma *= step.reduction
    return sigma
