"""Discriminant pipeline: centroids, scatter matrices, direction, decision,
and confidence, each checked against brute-force oracles where derivable."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trustlens import lda
from trustlens.core import Outcome, Transaction
from trustlens.errors import DegenerateClasses, DimensionMismatch, EmptySet, InsufficientKnowledge
from trustlens.lda import (
    classify,
    confidence_lda,
    log_model,
    projection_direction,
    scatter,
    train,
)

from conftest import make_log


def _centroids(group_s, group_u):
    s = scatter(group_s, group_u)
    return s.centroid_successful, s.centroid_unsuccessful


def test_centroids_simple_means():
    c_s, c_u = _centroids([[0.0, 0.0], [2.0, 2.0]], [[4.0, 4.0]])
    assert np.array_equal(c_s, [1.0, 1.0])
    assert np.array_equal(c_u, [4.0, 4.0])
    # offsets about the global centroid [2, 2]: (2 * [1, 1] + 1 * [4, 4]) / 3 per row
    between = scatter([[0.0, 0.0], [2.0, 2.0]], [[4.0, 4.0]]).between
    assert np.allclose(between, [[2.0, 2.0], [2.0, 2.0]], rtol=1e-12)


def test_centroids_single_entry_groups():
    c_s, c_u = _centroids([[3.0, -1.0]], [[0.5, 0.5]])
    assert np.array_equal(c_s, [3.0, -1.0])
    assert np.array_equal(c_u, [0.5, 0.5])


def test_centroids_match_brute_force_column_means():
    rng = np.random.default_rng(3)
    group_s = rng.normal(size=(10, 3))
    group_u = rng.normal(size=(10, 3))
    c_s, c_u = _centroids(group_s, group_u)
    # independent summation oracle
    expect_s = [sum(group_s[i][j] for i in range(10)) / 10 for j in range(3)]
    expect_u = [sum(group_u[i][j] for i in range(10)) / 10 for j in range(3)]
    assert np.allclose(c_s, expect_s, rtol=1e-12, atol=1e-12)
    assert np.allclose(c_u, expect_u, rtol=1e-12, atol=1e-12)


def test_centroids_empty_group_raises():
    with pytest.raises(EmptySet):
        _centroids([], [[1.0]])


def test_scatter_single_points_give_zero_within():
    s = scatter([[1.0, 2.0]], [[3.0, 4.0]])
    assert np.array_equal(s.within, np.zeros((2, 2)))


def test_scatter_coincident_centroids_give_zero_between():
    s = scatter([[0.0, 1.0], [2.0, 1.0]], [[1.0, 0.0], [1.0, 2.0]])
    assert np.allclose(s.between, 0.0, atol=1e-15)


def test_scatter_mixture_equals_pooled_scatter():
    rng = np.random.default_rng(11)
    group_s = rng.normal(size=(8, 2))
    group_u = rng.normal(size=(8, 2))
    s = scatter(group_s, group_u)
    pooled = np.vstack([group_s, group_u])
    global_centroid = pooled.mean(axis=0)
    centered = pooled - global_centroid
    pooled_scatter = centered.T @ centered / pooled.shape[0]
    assert np.allclose(s.within + s.between, pooled_scatter, rtol=1e-9)


def test_projection_direction_one_dimension():
    s = scatter([[2.0], [2.0]], [[0.0], [0.0]])
    # within is the zero matrix here, so the ridge floor kicks in
    model = projection_direction(s)
    assert np.array_equal(model.direction, [1.0])


def test_projection_direction_identity_within():
    rng = np.random.default_rng(0)
    base_s = np.array([[3.0, 4.0]]) + rng.normal(size=(50, 2))
    base_u = np.array([[0.0, 0.0]]) + rng.normal(size=(50, 2))
    s = scatter(base_s, base_u)
    # overwrite with the exact closed-form inputs
    from trustlens.lda import ScatterSet

    exact = ScatterSet(
        within=np.eye(2),
        between=s.between,
        centroid_successful=np.array([3.0, 4.0]),
        centroid_unsuccessful=np.array([0.0, 0.0]),
    )
    model = projection_direction(exact)
    assert np.allclose(model.direction, [0.6, 0.8], rtol=1e-12)


def test_projection_direction_degenerate():
    s = scatter([[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0]])
    with pytest.raises(DegenerateClasses):
        projection_direction(s)


def test_projection_direction_overflowing_scatter_is_degenerate():
    # features near 1e300: the within-class scatter overflows to inf
    log = make_log([[1.0e300, 2.0e300], [1.1e300, 2.0e300], [1.2e300, 2.1e300]],
                   [[2.0e300, 3.0e300], [2.1e300, 3.1e300], [2.2e300, 3.0e300]])
    with pytest.raises(DegenerateClasses):
        train(log)


def test_projection_direction_subnormal_difference_is_degenerate():
    # the centroids differ by the smallest subnormal: the solved direction's
    # norm underflows to 0, so it has no unit-length version
    log = make_log([[1.0, 0.0]] * 3, [[1.0, 5e-324]] * 3)
    with pytest.raises(DegenerateClasses):
        train(log)


def test_classify_on_centroid_and_midpoint():
    log = make_log([[2.0]] * 3, [[0.0]] * 3)
    model = train(log)
    dist_s, dist_u, label = classify(model, [2.0])
    assert dist_s == 0.0 and label is Outcome.SUCCESSFUL
    dist_s, dist_u, label = classify(model, [1.0])
    assert dist_s == dist_u
    assert label is Outcome.UNSUCCESSFUL  # tie breaks risk-averse


def test_classify_scalar_arithmetic():
    from trustlens.lda import LdaModel

    model = LdaModel(
        direction=np.array([1.0]),
        centroid_successful=np.array([2.0]),
        centroid_unsuccessful=np.array([0.0]),
        regularization_used=0.0,
    )
    dist_s, dist_u, label = classify(model, [1.5])
    assert dist_s == 0.5 and dist_u == 1.5 and label is Outcome.SUCCESSFUL


@given(
    st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
)
def test_classify_equals_projecting_centroids_per_call(values, p):
    log = make_log([values[0:2], values[2:4], values[4:6]], [values[6:8], [9.0, 9.0], [8.0, 9.5]])
    try:
        model = train(log)
    except DegenerateClasses:
        return
    assert model.projected_successful == float(model.direction @ model.centroid_successful)
    assert model.projected_unsuccessful == float(model.direction @ model.centroid_unsuccessful)
    proj = float(model.direction @ np.asarray(p))
    dist_s = abs(proj - float(model.direction @ model.centroid_successful))
    dist_u = abs(proj - float(model.direction @ model.centroid_unsuccessful))
    label = Outcome.SUCCESSFUL if dist_u > dist_s else Outcome.UNSUCCESSFUL
    assert classify(model, p) == (dist_s, dist_u, label)
    assert lda.classify_point(model, lda.candidate_point(p, model.direction)) == (dist_s, dist_u, label)


def test_classify_dimension_mismatch():
    log = make_log([[0.0, 0.0]] * 3, [[1.0, 1.0]] * 3)
    model = train(log)
    with pytest.raises(DimensionMismatch):
        classify(model, [1.0])


def test_confidence_boundary_values():
    assert confidence_lda(1.0, 1.0) == 0.0
    assert confidence_lda(0.0, 2.0) == 1.0
    assert confidence_lda(1.0, 3.0) == 0.5
    assert confidence_lda(0.0, 0.0) == 0.0  # on both projected centroids at once


def test_confidence_with_infinite_distances():
    assert confidence_lda(math.inf, 2.0) == 1.0
    assert confidence_lda(0.0, math.inf) == 1.0
    assert confidence_lda(math.inf, math.inf) == 0.0


@given(
    st.floats(min_value=0.0, max_value=1e12),
    st.floats(min_value=0.0, max_value=1e12),
)
def test_confidence_always_in_unit_interval(dist_s, dist_u):
    sigma = confidence_lda(dist_s, dist_u)
    assert 0.0 <= sigma <= 1.0


def test_train_separable_fits_training_points():
    rng = np.random.default_rng(2)
    points_s = [tuple(v) for v in rng.normal([0.0, 0.0], 0.05, size=(3, 2))]
    points_u = [tuple(v) for v in rng.normal([1.0, 1.0], 0.05, size=(3, 2))]
    log = make_log(points_s, points_u)
    model = train(log)
    for p in points_s:
        assert classify(model, p)[2] is Outcome.SUCCESSFUL
    for p in points_u:
        assert classify(model, p)[2] is Outcome.UNSUCCESSFUL


def test_train_insufficient_and_degenerate():
    with pytest.raises(InsufficientKnowledge):
        train(make_log([[0.0]] * 2, [[1.0]] * 5))
    with pytest.raises(DegenerateClasses):
        train(make_log([[1.0, 1.0]] * 3, [[1.0, 1.0]] * 3))


@pytest.mark.parametrize(
    ("error", "log"),
    [
        (InsufficientKnowledge, make_log([[0.0]] * 2, [[1.0]] * 5)),
        (DegenerateClasses, make_log([[1.0, 1.0]] * 3, [[1.0, 1.0]] * 3)),
    ],
    ids=["insufficient", "degenerate"],
)
def test_log_model_raises_a_kept_error_again_without_training(monkeypatch, error, log):
    real_train, trained = lda.train, []

    def counting_train(*args, **kwargs):
        trained.append(len(args[0]))
        return real_train(*args, **kwargs)

    monkeypatch.setattr(lda, "train", counting_train)
    depths = []
    for _ in range(3):
        with pytest.raises(error) as info:
            log_model(log)
        depths.append(len(info.traceback))
    assert len(trained) == 1
    assert depths[1] == depths[2]  # a hit's traceback does not grow from hit to hit
    # one more successful entry makes either log trainable: the kept error is gone
    log.append(Transaction("late", "p", "c", (9.0,) * log.dimensionality, Outcome.SUCCESSFUL))
    assert log_model(log).direction.shape == (log.dimensionality,)
    assert len(trained) == 2


def test_log_model_is_trained_once_per_log_state(monkeypatch):
    log = make_log([[0.0, 0.1], [0.2, 0.0], [0.1, 0.3]], [[1.0, 1.1], [0.9, 1.0], [1.2, 0.8]])
    real_train, trained = lda.train, []
    monkeypatch.setattr(lda, "train", lambda *a, **k: trained.append(1) or real_train(*a, **k))
    model = log_model(log)
    assert log_model(log) is model and len(trained) == 1
    assert model.direction.tobytes() == real_train(log).direction.tobytes()
    assert log_model(log, min_class_count=1) is not model  # kept per threshold
    assert len(trained) == 2


def test_translation_invariance():
    rng = np.random.default_rng(7)
    points_s = rng.normal(0.0, 1.0, size=(6, 3))
    points_u = rng.normal(1.5, 1.0, size=(6, 3))
    shift = np.array([512.0, -256.0, 1024.0])
    log = make_log(points_s, points_u)
    log_shifted = make_log(points_s + shift, points_u + shift)
    model = train(log, regularization=0.0)
    model_shifted = train(log_shifted, regularization=0.0)
    p = rng.normal(0.75, 1.0, size=3)
    base = classify(model, p)
    moved = classify(model_shifted, p + shift)
    assert base[2] is moved[2]
    assert np.allclose(base[:2], moved[:2], rtol=1e-6, atol=1e-9)


def test_scale_covariance_preserves_labels():
    rng = np.random.default_rng(13)
    points_s = rng.normal(0.0, 1.0, size=(8, 3))
    points_u = rng.normal(1.0, 1.0, size=(8, 3))
    scale = np.array([2.0, 0.25, 8.0])
    model = train(make_log(points_s, points_u), regularization=0.0)
    scaled = train(make_log(points_s * scale, points_u * scale), regularization=0.0)
    for _ in range(25):
        p = rng.normal(0.5, 1.5, size=3)
        assert classify(model, p)[2] is classify(scaled, p * scale)[2]


def test_criterion_beats_random_directions():
    rng = np.random.default_rng(21)
    points_s = rng.normal(0.0, 1.0, size=(10, 3))
    points_u = rng.normal(1.0, 1.0, size=(10, 3))
    s = scatter(points_s, points_u)
    model = projection_direction(s, regularization=0.0)
    w = model.direction
    criterion = (w @ s.between @ w) / (w @ s.within @ w)
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        ratio = (u @ s.between @ u) / (u @ s.within @ u)
        assert criterion + 1e-9 >= ratio


def test_permutation_invariance_bit_identical():
    rng = np.random.default_rng(17)
    points_s = [tuple(v) for v in rng.normal(0.0, 1.0, size=(5, 2))]
    points_u = [tuple(v) for v in rng.normal(1.0, 1.0, size=(5, 2))]
    log = make_log(points_s, points_u)
    shuffled = make_log(list(reversed(points_s)), list(reversed(points_u)))
    # interleave outcomes differently too
    model_a = train(log)
    model_b = train(shuffled)
    assert np.array_equal(model_a.direction, model_b.direction)
    assert np.array_equal(model_a.centroid_successful, model_b.centroid_successful)
    assert np.array_equal(model_a.centroid_unsuccessful, model_b.centroid_unsuccessful)
    assert model_a.regularization_used == model_b.regularization_used


def test_ridge_recorded_when_singular():
    # two collinear points per class in 2-d leave a singular within scatter
    log = make_log([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[3.0, 5.0], [4.0, 6.0], [5.0, 7.0]])
    model = train(log)
    assert model.regularization_used > 0.0
    assert np.isclose(np.linalg.norm(model.direction), 1.0, rtol=1e-12)
