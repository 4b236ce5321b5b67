"""ID3 decision tree over discretized features, with path-product confidence.

Nodes split on the feature with the highest information gain; each internal
node remembers its entropy, gain, and entropy-reduction ratio so a
classification path yields a confidence score (the product of the ratios
along the path).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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
    branches: tuple["TreeNode", ...]  # one child per bucket, in bucket order


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
    counts = bucket_counts(entries, feature, domain)
    # bucket order, not dict order: the float sum must not vary
    pairs = [counts[key] for key in domain.buckets() if key in counts]
    return _split_gain(pairs, (sum(p[0] for p in pairs), sum(p[1] for p in pairs)))


def _split_gain(pairs: Iterable[Sequence[int]], parent: tuple[int, int]) -> float:
    """Gain of splitting a set with class counts ``parent`` into buckets.

    ``pairs`` are the buckets' (successful, unsuccessful) counts in bucket
    order; empty ones are skipped. Both gain computations go through here so
    they agree to the last bit.
    """
    h = entropy(parent)
    total = parent[0] + parent[1]
    expected = 0.0
    for n_s, n_u in pairs:
        if n_s or n_u:
            expected += ((n_s + n_u) / total) * entropy((n_s, n_u))
    return min(max(h - expected, 0.0), h)


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
    where the class label changes (Fayyad & Irani, 1993); a midpoint that
    rounds to the same float as the one before it is dropped. Where
    ``lo + hi`` overflows, the midpoint is ``lo / 2 + hi / 2``. Up to
    ``max_bins - 1`` candidates are kept by greedy gain maximization: each
    round adds the candidate, in ascending order, whose trial threshold set
    has the highest ``information_gain``, only if it beats the current gain
    strictly. The resulting intervals cover the real line.

    The log is sorted once and each trial set is scored from prefix class
    counts: a threshold ``t`` cuts the sorted distinct values at
    ``bisect_right(values, t)``, which is the ``IntervalDomain.bucket_of``
    rule (values <= t fall left). The bucket counts, their order and the
    float sum are those of ``information_gain``, so the domain is exactly the
    one a rescan of the log per trial would choose.
    """
    entries = _entries(log)
    by_value: dict[float, list[int]] = {}
    for t in entries:
        pair = by_value.setdefault(t.features[feature], [0, 0])
        pair[0 if t.outcome is Outcome.SUCCESSFUL else 1] += 1
    if len(by_value) < 2:
        raise ConstantFeature(f"feature {feature} takes a single value")

    values = sorted(by_value)
    prefix = [(0, 0)]  # prefix[i]: class counts of the i smallest distinct values
    for v in values:
        n_s, n_u = prefix[-1]
        prefix.append((n_s + by_value[v][0], n_u + by_value[v][1]))
    parent = prefix[-1]

    candidates: list[tuple[float, int]] = []  # (threshold, cut), ascending
    for lo, hi in zip(values, values[1:]):
        (s_lo, u_lo), (s_hi, u_hi) = by_value[lo], by_value[hi]
        if (u_lo == u_hi == 0) or (s_lo == s_hi == 0):
            continue  # pure and identical on both sides: no boundary here
        midpoint = (lo + hi) / 2.0
        if math.isinf(midpoint):  # lo + hi overflowed; halve first
            midpoint = lo / 2.0 + hi / 2.0
        if candidates and candidates[-1][0] == midpoint:
            continue  # adjacent floats: the same threshold twice
        candidates.append((midpoint, bisect_right(values, midpoint)))

    def gain(thresholds: list[tuple[float, int]]) -> float:
        cuts = [0] + [cut for _, cut in thresholds] + [len(values)]
        return _split_gain(
            (
                (prefix[b][0] - prefix[a][0], prefix[b][1] - prefix[a][1])
                for a, b in zip(cuts, cuts[1:])
            ),
            parent,
        )

    chosen: list[tuple[float, int]] = []
    current = 0.0  # gain of the single-interval split
    while len(chosen) < max_bins - 1 and candidates:
        best_candidate = None
        best_gain = current
        for c in candidates:
            g = gain(sorted(chosen + [c]))
            if g > best_gain:
                best_candidate, best_gain = c, g
        if best_candidate is None:
            break
        chosen.append(best_candidate)
        candidates.remove(best_candidate)
        current = best_gain
    return IntervalDomain(tuple(sorted(t for t, _ in chosen)))


def build_domains(log: TransactionLog | Sequence[Transaction]) -> dict[int, IntervalDomain]:
    """Interval domains for every non-constant feature of a log."""
    entries = _entries(log)
    if not entries:
        raise EmptySet("cannot build domains from an empty log")
    domains: dict[int, IntervalDomain] = {}
    for feature in range(len(entries[0].features)):
        try:
            domains[feature] = discretize(entries, feature)
        except ConstantFeature:
            continue  # gain would be 0; feature carries no signal
    return domains


def build_tree(
    log: TransactionLog | Sequence[Transaction],
    features: Iterable[int] | None = None,
    domains: FeatureDomains | None = None,
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
        domains = build_domains(entries)
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

    branches = tuple(
        _grow(grouped[key], remaining, domains) if grouped[key] else LeafNode(majority, 0)
        for key in domain.buckets()
    )

    return InternalNode(
        feature=best,
        entropy=parent_entropy,
        gain=gains[best],
        reduction=reduction,
        count=len(entries),
        branches=branches,
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
        # intervals cover the reals, so every value has a branch
        node = node.branches[tree.domains[node.feature].bucket_of(point[node.feature])]
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
