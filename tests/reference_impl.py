"""Verbatim copies of ``dtree.discretize`` and ``lda.train`` before their
inputs were built with fewer interpreter and numpy calls.

The exactness tests in ``test_reference_exactness.py`` check the current code
against these bit for bit, with the same exception types and messages. Only
the imports differ from the copied code; ``partition`` and ``entropy`` are
copied too, so a later change to either does not move the reference.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from trustlens.core import Outcome, Transaction, TransactionLog
from trustlens.dtree import IntervalDomain
from trustlens.errors import ConstantFeature, DegenerateClasses, DimensionMismatch, EmptySet, InsufficientKnowledge
from trustlens.lda import (
    DEFAULT_MIN_CLASS_COUNT,
    ILL_CONDITIONED,
    RIDGE_FLOOR,
    RIDGE_SCALE,
    LdaModel,
    ScatterSet,
)

DEFAULT_MAX_BINS = 4


def partition(log: TransactionLog) -> tuple[list[Transaction], list[Transaction]]:
    """Split a log into its successful and unsuccessful groups.

    Entry order is preserved within each group; every entry lands in exactly
    one group.
    """
    if not log.entries:
        raise EmptySet(f"log of {log.owner!r} has no entries to partition")
    successful = [t for t in log.entries if t.outcome is Outcome.SUCCESSFUL]
    unsuccessful = [t for t in log.entries if t.outcome is Outcome.UNSUCCESSFUL]
    return successful, unsuccessful


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


def _group_matrix(group: Iterable) -> np.ndarray:
    """Stack a group of transactions (or raw vectors) into an n x d matrix.

    Rows are sorted lexicographically so every downstream reduction is
    independent of log entry order (bit-identical models under permutation).
    """
    rows = [getattr(item, "features", item) for item in group]
    if not rows:
        raise EmptySet("group has no members")
    m = np.asarray(rows, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.shape[0] > 1:
        m = m[np.lexsort(m.T[::-1])]
    return m


def scatter(group_s: Iterable, group_u: Iterable) -> ScatterSet:
    """Within- and between-class scatter matrices of the two groups.

    Each group's internal scatter is its centered Gram matrix divided by the
    group size; the overall within-class scatter is their size-weighted mean.
    The between-class scatter is built from centroid offsets about the global
    centroid. Their sum is the scatter of the pooled data.
    """
    ms = _group_matrix(group_s)
    mu = _group_matrix(group_u)
    if ms.shape[1] != mu.shape[1]:
        raise DimensionMismatch(
            f"groups disagree on dimensionality: {ms.shape[1]} vs {mu.shape[1]}"
        )
    n_s, n_u = ms.shape[0], mu.shape[0]
    n = n_s + n_u
    c_s = ms.mean(axis=0)
    c_u = mu.mean(axis=0)
    c = (n_s * c_s + n_u * c_u) / n

    centered_s = ms - c_s
    centered_u = mu - c_u
    within_s = centered_s.T @ centered_s / n_s
    within_u = centered_u.T @ centered_u / n_u
    within = (n_s * within_s + n_u * within_u) / n

    off_s = c_s - c
    off_u = c_u - c
    between = (n_s * np.outer(off_s, off_s) + n_u * np.outer(off_u, off_u)) / n

    return ScatterSet(
        within=within,
        between=between,
        centroid_successful=c_s,
        centroid_unsuccessful=c_u,
    )


def projection_direction(scatter_set: ScatterSet, regularization: float | None = None) -> LdaModel:
    """Direction maximizing between-class over within-class variance.

    For two classes the maximizer has the closed form
    ``within^-1 @ (centroid_s - centroid_u)``; no general eigensolve is
    needed. A ridge is added when the within-class scatter is singular or
    ill conditioned (pass ``regularization=0.0`` to force it off). The
    returned direction has unit norm with its first nonzero component
    positive, so repeated training is deterministic and shared directions
    combine without sign cancellation.
    """
    c_s = scatter_set.centroid_successful
    c_u = scatter_set.centroid_unsuccessful
    diff = c_s - c_u
    if not np.any(diff != 0.0):
        raise DegenerateClasses("group centroids coincide; no direction separates them")

    within = scatter_set.within
    if not np.isfinite(within).all():
        raise DegenerateClasses("within-class scatter overflowed; no finite direction exists")
    d = within.shape[0]
    if regularization is None:
        cond = np.linalg.cond(within)
        if not cond <= ILL_CONDITIONED:  # catches inf and nan
            eps = max(RIDGE_SCALE * float(np.trace(within)) / d, RIDGE_FLOOR)
        else:
            eps = 0.0
    else:
        eps = float(regularization)

    solved = within + eps * np.eye(d) if eps else within
    raw = np.linalg.solve(solved, diff)
    norm = np.linalg.norm(raw)
    # a finite positive norm also makes every component of the direction finite
    if not 0.0 < norm < np.inf:
        raise DegenerateClasses(f"projection direction has norm {norm}; it cannot be normalized")
    direction = _canonical_sign(raw / norm)

    c_s, c_u = c_s.copy(), c_u.copy()
    for arr in (direction, c_s, c_u):
        arr.setflags(write=False)
    return LdaModel(
        direction=direction,
        centroid_successful=c_s,
        centroid_unsuccessful=c_u,
        regularization_used=eps,
    )


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for x in v:
        if x != 0.0:
            return -v if x < 0.0 else v
    return v


def train(
    log: TransactionLog,
    min_class_count: int = DEFAULT_MIN_CLASS_COUNT,
    regularization: float | None = None,
) -> LdaModel:
    """Full pipeline: partition, scatter, projection direction.

    Requires at least ``min_class_count`` entries per class; raises
    DegenerateClasses when the class centroids coincide exactly.
    """
    n_s, n_u = log.class_counts()
    if n_s < min_class_count or n_u < min_class_count:
        raise InsufficientKnowledge(
            f"need >= {min_class_count} entries per class, have {n_s} successful / {n_u} unsuccessful"
        )
    group_s, group_u = partition(log)
    # overflow in the scatter or the solve surfaces as DegenerateClasses
    with np.errstate(all="ignore"):
        return projection_direction(scatter(group_s, group_u), regularization=regularization)

