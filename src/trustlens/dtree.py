"""ID3 decision tree over discretized features, with path-product confidence.

Nodes split on the feature with the highest information gain; each internal
node remembers its entropy, gain, and entropy-reduction ratio so a
classification path yields a confidence score (the product of the ratios
along the path).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import repeat
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


class _EntropyMemo(dict):
    """``H[n_s, n_u]`` is ``entropy((n_s, n_u))``, computed on first use and kept."""

    def __missing__(self, counts: tuple[int, int]) -> float:
        return self.setdefault(counts, entropy(counts))


H = _EntropyMemo()  # shared by every split score in the process


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
    by adding each bucket's term ``((n_s + n_u) / total) * H[n_s, n_u]`` in
    bucket order, and the gain is ``min(max(h - expected, 0.0), h)`` with
    ``h = H[parent]``; ``H``, the memo of ``entropy``, computes each count
    pair's entropy once per process. ``information_gain`` and tree growth
    call this, and ``discretize`` adds its terms, from ``H`` too, in the
    same order, so all three agree to the last bit.
    """
    h = H[parent]
    total = parent[0] + parent[1]
    expected = 0.0
    for n_s, n_u in pairs:
        if n_s or n_u:
            expected += ((n_s + n_u) / total) * H[n_s, n_u]
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

    The ``(value, unsuccessful)`` pairs are sorted once; one pass over them
    gives the distinct values and their prefix class counts, whose
    differences show where both neighbours are pure in one class. The
    threshold between distinct values ``i`` and ``i + 1`` cuts at ``i + 2``
    when it rounds up to the higher value, else at ``i + 1``: the
    ``IntervalDomain.bucket_of`` rule (values <= t fall left). Each interval
    between chosen cuts keeps its ``_split_gain`` term, read from prefix
    counts and the entropy memo ``H``, and each remaining candidate keeps
    the two terms it would create inside its interval; those are recomputed
    only when a chosen cut splits that interval. A candidate in interval
    ``j`` is scored by adding, from 0.0, the terms of intervals ``0..j-1``,
    its left term, its right term, then the terms after ``j``: the additions
    ``_split_gain`` makes, in its order, so the domain is exactly the one a
    rescan of the log per trial would choose. A candidate whose cut leaves
    an interval empty scores exactly the current gain, so it never wins and
    is dropped.
    """
    unsuccessful = Outcome.UNSUCCESSFUL  # a local: an enum member lookup per entry is slow
    pairs = sorted([(t.features[feature], t.outcome is unsuccessful) for t in _entries(log)])
    values, ps, pu = [], [], []  # ps[i], pu[i]: class counts of the i smallest distinct values
    n_u, last = 0, None
    for k, (value, is_unsuccessful) in enumerate(pairs):
        if value != last:
            values.append(value)
            ps.append(k - n_u)
            pu.append(n_u)
            last = value
        n_u += is_unsuccessful
    ps.append(len(pairs) - n_u)
    pu.append(n_u)
    if len(values) < 2:
        raise ConstantFeature(f"feature {feature} takes a single value")

    candidates: list[tuple[float, int]] = []  # (threshold, cut), ascending
    for i, (lo, hi) in enumerate(zip(values, values[1:])):
        if pu[i + 2] == pu[i] or ps[i + 2] == ps[i]:
            continue  # pure and identical on both sides: no boundary here
        midpoint = (lo + hi) / 2.0
        if math.isinf(midpoint):  # lo + hi overflowed; halve first
            midpoint = lo / 2.0 + hi / 2.0
        if candidates and candidates[-1][0] == midpoint:
            continue  # adjacent floats: the same threshold twice
        candidates.append((midpoint, i + 2 if midpoint == hi else i + 1))

    n, total = len(values), len(pairs)
    s_all, u_all = ps[n], pu[n]
    h = H[s_all, u_all]
    # values[a:b]'s _split_gain term, written out below, is ((n_s + n_u) / total) * H[n_s, n_u]
    # with n_s = ps[b] - ps[a] and n_u = pu[b] - pu[a]; for the whole log it is h.
    terms = [h]  # one per interval between chosen cuts, ascending
    # per interval, its candidates in ascending order: (threshold, cut, left term, right term)
    pending = [[
        (t, cut, ((ps[cut] + pu[cut]) / total) * H[ps[cut], pu[cut]],
         ((total - ps[cut] - pu[cut]) / total) * H[s_all - ps[cut], u_all - pu[cut]])
        for t, cut in candidates if 0 < cut < n
    ]]
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
        s_cut, u_cut = ps[split], pu[split]
        pending[best_j : best_j + 1] = [
            [(t, cut, lt, ((s_cut - ps[cut] + u_cut - pu[cut]) / total) * H[s_cut - ps[cut], u_cut - pu[cut]])
             for t, cut, lt, _ in group if cut < split],
            [(t, cut, ((ps[cut] - s_cut + pu[cut] - u_cut) / total) * H[ps[cut] - s_cut, pu[cut] - u_cut], rt)
             for t, cut, _, rt in group if cut > split],
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


def log_domains(log: TransactionLog) -> FeatureDomains:
    """``build_domains(log)``, built once per log state; readers must not change it."""
    return log.derived("domains", build_domains)


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
    rows, features, columns, domains = _tree_rows(log, features, domains)
    return DecisionTree(root=_grow(rows, features, columns), domains=dict(domains))


def classify_path(
    log: TransactionLog | Sequence[Transaction], domains: FeatureDomains, p: Sequence[float]
) -> tuple[Outcome, list[InternalNode]]:
    """``classify_dt(build_tree(log, domains.keys(), domains), p)``, growing only p's branch:
    each node splits just the rows in p's bucket of its parent, by ``_grow``'s rule, so
    the label and the path's nodes are the whole tree's, but with empty ``branches``."""
    rows, features, columns, _ = _tree_rows(log, domains.keys(), domains)
    point = _candidate(p)
    path: list[InternalNode] = []
    node, empty = _split(rows, features, columns)
    while empty is not None:
        bucket = _candidate_bucket(domains, node.feature, point)
        path.append(node)
        rows = [row for row in rows if row[0][columns[node.feature][0]] == bucket]
        features = features - {node.feature}
        node, empty = _split(rows, features, columns) if rows else (empty, None)
    return node.label, path


_Row = tuple[tuple[int, ...], int]  # (bucket per tree feature, 0 successful / 1 unsuccessful)
_Columns = Mapping[int, tuple[int, int]]  # feature -> (its column in a row, its bucket count)


def _tree_rows(
    log: TransactionLog | Sequence[Transaction], features: Iterable[int] | None, domains: FeatureDomains | None
) -> tuple[list[_Row], frozenset[int], _Columns, FeatureDomains]:
    """``build_tree``'s checks and defaults; then each entry as a ``_Row``, the tree's
    features, their ``_Columns`` in ascending order, and the domains."""
    entries = _entries(log)
    if not entries:
        raise EmptySet("cannot build a tree from an empty log")
    if domains is None:
        domains = build_domains(entries)
    features = frozenset(domains.keys() if features is None else features)
    missing = [f for f in features if f not in domains]
    if missing:
        raise ValueError(f"no domain supplied for features {sorted(missing)}")
    order = sorted(features)
    by_feature = list(zip(*[t.features for t in entries]))  # feature -> its value per entry
    buckets = [list(map(domains[f].bucket_of, by_feature[f])) for f in order]
    successful = Outcome.SUCCESSFUL
    labels = [0 if t.outcome is successful else 1 for t in entries]
    rows: list[_Row] = list(zip(zip(*buckets) if buckets else repeat(()), labels))
    columns: _Columns = {f: (i, len(domains[f].buckets())) for i, f in enumerate(order)}
    return rows, features, columns, domains


def _split(rows: list[_Row], features: frozenset[int], columns: _Columns) -> tuple[TreeNode, LeafNode | None]:
    """The ID3 rule at one node, shared by ``build_tree`` and ``classify_path``.

    Returns the leaf that ``rows`` end in and None, or the node that splits
    them, with no branches yet, and the majority leaf an empty branch gets.
    """
    n_u = sum(u for _, u in rows)
    n_s = len(rows) - n_u
    majority = Outcome.SUCCESSFUL if n_s > n_u else Outcome.UNSUCCESSFUL  # ties go unsuccessful
    if n_u == 0 or n_s == 0 or not features:
        return LeafNode(majority, len(rows)), None

    gains = {}
    for f in features:
        column, width = columns[f]
        counts = [[0, 0] for _ in range(width)]
        for buckets, u in rows:
            counts[buckets[column]][u] += 1
        gains[f] = _split_gain(counts, (n_s, n_u))
    best = min(features, key=lambda f: (-gains[f], f))
    parent_entropy = H[n_s, n_u]
    reduction = gains[best] / parent_entropy if parent_entropy > 0.0 else 1.0
    return InternalNode(best, parent_entropy, gains[best], reduction, len(rows), ()), LeafNode(majority, 0)


def _grow(rows: list[_Row], features: frozenset[int], columns: _Columns) -> TreeNode:
    node, empty = _split(rows, features, columns)
    if empty is None:
        return node
    column, width = columns[node.feature]
    grouped: list[list[_Row]] = [[] for _ in range(width)]
    for row in rows:
        grouped[row[0][column]].append(row)
    remaining = features - {node.feature}
    return replace(node, branches=tuple(_grow(g, remaining, columns) if g else empty for g in grouped))


def classify_dt(tree: DecisionTree, p: Sequence[float]) -> tuple[Outcome, list[InternalNode]]:
    """Descend from the root by feature value, returning label and the nodes passed."""
    point = _candidate(p)
    node = tree.root
    path: list[InternalNode] = []
    while isinstance(node, InternalNode):
        bucket = _candidate_bucket(tree.domains, node.feature, point)
        path.append(node)
        node = node.branches[bucket]
    return node.label, path


def _candidate(p: Sequence[float]) -> tuple[float, ...]:
    point = tuple(p)
    if not all(math.isfinite(float(x)) for x in point):
        raise ValueError("candidate features must be finite")
    return point


def _candidate_bucket(domains: FeatureDomains, feature: int, point: tuple[float, ...]) -> int:
    if feature >= len(point):
        raise DimensionMismatch(f"candidate has {len(point)} features, tree tests feature {feature}")
    return domains[feature].bucket_of(point[feature])  # intervals cover the reals: every value has a branch


def confidence_dt(path: Sequence[InternalNode]) -> float:
    """Product of entropy-reduction ratios along a classification path.

    An empty path gives 1.0 (``engine`` scores a single-leaf tree by its
    leaf's purity instead); any uninformative node (zero gain) zeroes the
    product.
    """
    sigma = 1.0
    for step in path:
        sigma *= step.reduction
    return sigma
