"""Two-class linear discriminant classifier over a partitioned history.

Pipeline: partition the log by outcome, compute group centroids and scatter
matrices, derive the projection direction that best separates the groups,
then label a candidate by which projected centroid it lands closer to.
Distances are taken as absolute values so the decision and its confidence
are well defined on either side of the centroids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Outcome, TransactionLog, partition
from .errors import DegenerateClasses, DimensionMismatch, EmptySet, InsufficientKnowledge

# Condition-number gate above which the within-class scatter is ridged.
ILL_CONDITIONED = 1e12
RIDGE_SCALE = 1e-6
RIDGE_FLOOR = 1e-12

DEFAULT_MIN_CLASS_COUNT = 3


@dataclass(frozen=True, eq=False)
class ScatterSet:
    """Within/between scatter matrices and the centroids behind them."""

    within: np.ndarray
    between: np.ndarray
    centroid_successful: np.ndarray
    centroid_unsuccessful: np.ndarray


@dataclass(frozen=True, eq=False)
class LdaModel:
    """Trained discriminant: unit projection direction plus group centroids.

    ``regularization_used`` is the ridge actually added to the within-class
    scatter (0 when it was well conditioned).
    """

    direction: np.ndarray
    centroid_successful: np.ndarray
    centroid_unsuccessful: np.ndarray
    regularization_used: float


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


def decide(
    direction: np.ndarray,
    centroid_s: np.ndarray,
    centroid_u: np.ndarray,
    p: Sequence[float] | np.ndarray,
) -> tuple[float, float, Outcome]:
    """Distance of a projected point to each projected centroid, plus label.

    Successful only when the point is strictly closer to the successful
    centroid; exact ties classify unsuccessful (risk-averse screening).
    """
    point = np.asarray(p, dtype=float)
    if point.shape != direction.shape:
        raise DimensionMismatch(
            f"candidate has {point.shape} features, model expects {direction.shape}"
        )
    if not np.all(np.isfinite(point)):
        raise ValueError("candidate features must be finite")
    proj = float(direction @ point)
    dist_s = abs(proj - float(direction @ centroid_s))
    dist_u = abs(proj - float(direction @ centroid_u))
    label = Outcome.SUCCESSFUL if dist_u > dist_s else Outcome.UNSUCCESSFUL
    return dist_s, dist_u, label


def classify(model: LdaModel, p: Sequence[float] | np.ndarray) -> tuple[float, float, Outcome]:
    return decide(model.direction, model.centroid_successful, model.centroid_unsuccessful, p)


def confidence_lda(dist_s: float, dist_u: float) -> float:
    """Decisiveness of a distance pair: |ds - du| / (ds + du), in [0, 1].

    Equidistant points score 0 (coin flip); a point on either centroid
    scores 1. A point on both projected centroids at once is equidistant
    and scores 0 too. Distances that overflowed follow the same rule: one
    infinite distance scores 1, two score 0.
    """
    if dist_s < 0.0 or dist_u < 0.0:
        raise ValueError("distances must be nonnegative")
    if dist_s == dist_u:
        return 0.0
    if math.inf in (dist_s, dist_u):
        return 1.0
    return abs(dist_s - dist_u) / (dist_s + dist_u)


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
