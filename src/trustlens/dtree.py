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
    if n_s:
        p = n_s / total
        h -= p * math.log2(p)
    if n_u:
        p = n_u / total
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
    order; empty ones are skipped. The expected entropy is summed from 0.0
    by adding each bucket's term ``((n_s + n_u) / total) * entropy((n_s,
    n_u))`` in bucket order, and the gain is ``min(max(h - expected, 0.0),
    h)``. ``information_gain`` and tree growth call this, and ``discretize``
    adds its terms in the same order, so all three agree to the last bit.
    """
    h = entropy(parent)
    total = parent[0] + parent[1]
    expected = 0.0
    for n_s, n_u in pairs:
        if n_s or n_u:
            expected += ((n_s + n_u) / total) * entropy((n_s, n_u))
    return min(max(h - expected, 0.0), h)


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

    The log is sorted once; a threshold ``t`` cuts the sorted distinct values
    at ``bisect_right(values, t)``, which is the ``IntervalDomain.bucket_of``
    rule (values <= t fall left). Each interval between chosen cuts keeps
    its ``_split_gain`` term, built from prefix class counts, and each
    remaining candidate keeps the two terms it would create inside its
    interval; those are recomputed only when a chosen cut splits that
    interval. A candidate in interval ``j`` is scored by adding, from 0.0,
    the terms of intervals ``0..j-1``, its left term, its right term, then
    the terms after ``j``: the additions ``_split_gain`` makes, in its
    order, so the domain is exactly the one a rescan of the log per trial
    would choose. A candidate whose cut leaves an interval empty scores
    exactly the current gain, so it can never win and is dropped.
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
    n = len(values)

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

    h = entropy(parent)
    total = parent[0] + parent[1]

    def term(a: int, b: int) -> float:  # the _split_gain term of values[a:b], a < b
        n_s, n_u = prefix[b][0] - prefix[a][0], prefix[b][1] - prefix[a][1]
        return ((n_s + n_u) / total) * entropy((n_s, n_u))

    terms = [term(0, n)]  # one per interval between chosen cuts, ascending
    # per interval, its candidates in ascending order: (threshold, cut, left term, right term)
    pending = [[(t, cut, term(0, cut), term(cut, n)) for t, cut in candidates if 0 < cut < n]]
    chosen: list[float] = []
    current = 0.0  # gain of the single-interval split
    for _ in range(max_bins - 1):
        best, best_j, best_gain = None, 0, current
        before = 0.0
        for j, group in enumerate(pending):
            later = terms[j + 1 :]
            for candidate in group:
                expected = before + candidate[2] + candidate[3]
                for later_term in later:
                    expected += later_term
                # terms are >= 0, so g <= h; where g > best_gain >= 0 the
                # _split_gain clamp min(max(g, 0.0), h) leaves g as it is
                g = h - expected
                if g > best_gain:
                    best, best_j, best_gain = candidate, j, g
            before += terms[j]
        if best is None:
            break
        threshold, split, left, right = best
        terms[best_j : best_j + 1] = [left, right]
        group = pending[best_j]
        pending[best_j : best_j + 1] = [
            [(t, cut, lt, term(cut, split)) for t, cut, lt, _ in group if cut < split],
            [(t, cut, term(split, cut), rt) for t, cut, _, rt in group if cut > split],
        ]
        chosen.append(threshold)
        current = best_gain
    return IntervalDomain(tuple(sorted(chosen)))


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

    Each entry is bucketed once per tree feature; a node scores each split
    from those buckets through ``_split_gain``, as ``information_gain`` would.
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
    order = sorted(feature_set)
    # feature -> (column of its bucket in a row, bucket count)
    columns = {f: (i, len(domains[f].buckets())) for i, f in enumerate(order)}
    rows = [
        (
            tuple(domains[f].bucket_of(t.features[f]) for f in order),
            0 if t.outcome is Outcome.SUCCESSFUL else 1,
        )
        for t in entries
    ]
    root = _grow(rows, feature_set, columns)
    return DecisionTree(root=root, domains=dict(domains))


def _majority(n_s: int, n_u: int) -> Outcome:
    return Outcome.SUCCESSFUL if n_s > n_u else Outcome.UNSUCCESSFUL


_Row = tuple[tuple[int, ...], int]  # (bucket per tree feature, 0 successful / 1 unsuccessful)


def _grow(
    rows: list[_Row], features: frozenset[int], columns: Mapping[int, tuple[int, int]]
) -> TreeNode:
    n_u = sum(u for _, u in rows)
    n_s = len(rows) - n_u
    if n_u == 0:
        return LeafNode(Outcome.SUCCESSFUL, len(rows))
    if n_s == 0:
        return LeafNode(Outcome.UNSUCCESSFUL, len(rows))
    if not features:
        return LeafNode(_majority(n_s, n_u), len(rows))

    gains = {}
    for f in features:
        column, width = columns[f]
        counts = [[0, 0] for _ in range(width)]
        for buckets, u in rows:
            counts[buckets[column]][u] += 1
        gains[f] = _split_gain(counts, (n_s, n_u))
    best = min(features, key=lambda f: (-gains[f], f))
    parent_entropy = entropy((n_s, n_u))
    reduction = gains[best] / parent_entropy if parent_entropy > 0.0 else 1.0
    majority = _majority(n_s, n_u)

    remaining = features - {best}
    column, width = columns[best]
    grouped: list[list[_Row]] = [[] for _ in range(width)]
    for row in rows:
        grouped[row[0][column]].append(row)

    branches = tuple(
        _grow(group, remaining, columns) if group else LeafNode(majority, 0) for group in grouped
    )

    return InternalNode(
        feature=best,
        entropy=parent_entropy,
        gain=gains[best],
        reduction=reduction,
        count=len(rows),
        branches=branches,
    )


def classify_dt(tree: DecisionTree, p: Sequence[float]) -> tuple[Outcome, list[InternalNode]]:
    """Descend from the root by feature value, returning label and the nodes passed."""
    point = tuple(p)
    if not all(math.isfinite(float(x)) for x in point):
        raise ValueError("candidate features must be finite")
    node = tree.root
    path: list[InternalNode] = []
    while isinstance(node, InternalNode):
        if node.feature >= len(point):
            raise DimensionMismatch(
                f"candidate has {len(point)} features, tree tests feature {node.feature}"
            )
        path.append(node)
        # intervals cover the reals, so every value has a branch
        node = node.branches[tree.domains[node.feature].bucket_of(point[node.feature])]
    return node.label, path


def confidence_dt(path: Sequence[InternalNode]) -> float:
    """Product of entropy-reduction ratios along a classification path.

    An empty path (single-leaf tree) is fully confident; any uninformative
    node (zero gain) zeroes the product.
    """
    sigma = 1.0
    for step in path:
        sigma *= step.reduction
    return sigma
