"""``dtree.discretize`` and ``lda.train`` against verbatim copies of their
earlier code (``reference_impl``): the same result bit for bit, or the same
exception type and message."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_impl
from trustlens import dtree, lda
from trustlens.core import Outcome, Transaction, TransactionLog
from trustlens.errors import EmptySet

from conftest import make_log

S = Outcome.SUCCESSFUL
U = Outcome.UNSUCCESSFUL

# small grids make ties and repeated values common; the extremes overflow
# ``lo + hi`` in discretize and the scatter in train
_EDGE_VALUES = [0.0, -0.0, 1.0, 1.0 + 2.0**-52, 2.0, -3.5, 1e300, 1.6e308, sys.float_info.max, 5e-324]


def _values(grid: int):
    return st.one_of(
        st.integers(min_value=0, max_value=grid).map(float),
        st.sampled_from(_EDGE_VALUES),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    )


def _outcome(f, *args, **kwargs):
    """The result of ``f``, or the type and message of what it raised."""
    try:
        return "ok", f(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001  (the comparison is the point)
        return "raised", (type(exc), str(exc))


def _entries(rows, d):
    log = TransactionLog("me", d)
    for i, (features, successful) in enumerate(rows):
        log.append(Transaction(f"t{i}", f"p{i % 5}", "c", features, S if successful else U))
    return log


@st.composite
def _discretize_cases(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    value = _values(draw(st.integers(min_value=1, max_value=6)))
    rows = draw(st.lists(st.tuples(st.tuples(*[value] * d), st.booleans()), min_size=1, max_size=80))
    return _entries(rows, d), draw(st.integers(min_value=0, max_value=d - 1)), draw(st.integers(1, 6))


@settings(max_examples=400, deadline=None)
@given(_discretize_cases())
@example((make_log([[0.0]], [[0.0]]), 0, 4))  # constant feature
@example((make_log([[1.6e308], [1.7e308]], [[1.65e308]]), 0, 4))  # lo + hi overflows
@example((make_log([[1.0], [1.0 + 2.0**-52]], [[1.0 + 2.0**-51]]), 0, 4))  # repeated midpoint
def test_discretize_matches_reference_bit_for_bit(case):
    log, feature, max_bins = case
    for source in (log, list(log.entries)):
        got = _outcome(dtree.discretize, source, feature, max_bins)
        want = _outcome(reference_impl.discretize, source, feature, max_bins)
        if got[0] == "ok" and want[0] == "ok":
            assert [t.hex() for t in got[1].thresholds] == [t.hex() for t in want[1].thresholds]
        else:
            assert got == want


def test_discretize_matches_reference_on_mirrored_grids():
    # Half the logs are mirrored with their labels swapped: a cut and its
    # mirror image split the classes with swapped counts, so their gains tie
    # in exact arithmetic and the last bit of each interval's term decides.
    rng = random.Random(23)
    for _ in range(2000):
        k = rng.randint(2, 12)
        rows = [((float(rng.randint(0, k)),), rng.random() < 0.5) for _ in range(rng.randint(2, 40))]
        if rng.random() < 0.5:
            rows += [((2.0 * k + 1.0 - v[0],), not successful) for v, successful in rows]
        log, max_bins = _entries(rows, 1), rng.randint(1, 5)
        got = _outcome(dtree.discretize, log, 0, max_bins)
        want = _outcome(reference_impl.discretize, log, 0, max_bins)
        assert (got[0], repr(got[1])) == (want[0], repr(want[1]))


def test_entropy_memo_equals_entropy_bit_for_bit():
    dtree.H.clear()  # every pair below is computed by the memo, then read back
    for _ in range(2):
        for n_s in range(301):
            for n_u in range(301):
                if n_s or n_u:
                    assert dtree.H[n_s, n_u].hex() == dtree.entropy((n_s, n_u)).hex()
    with pytest.raises(EmptySet):
        dtree.H[0, 0]
    assert (0, 0) not in dtree.H and len(dtree.H) == 301 * 301 - 1


def test_entropy_memo_starts_empty():
    code = "import trustlens, trustlens.dtree as d, trustlens.cli, trustlens.sim; print(len(d.H))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert run.stdout.strip() == "0"


def test_discretize_matches_reference_on_deep_logs_largest_first():
    # Logs shaped like a deep local history: four continuous features whose
    # class means differ by 0.2 against noise 0.1, a fifth of the labels
    # flipped, 60-100 entries and more than 50 of one class. Running them
    # from the largest down fills the entropy memo out of order.
    rng = random.Random(31)
    logs = []
    for _ in range(40):
        n = rng.randint(60, 100)
        labels = [True] * rng.randint(51, n - 9)
        labels += [False] * (n - len(labels))
        rng.shuffle(labels)
        rows = []
        for successful in labels:
            shift = 0.0 if successful != (rng.random() < 0.2) else 0.2
            rows.append((tuple(1.0 + shift + rng.gauss(0.0, 0.1) for _ in range(4)), successful))
        logs.append(_entries(rows, 4))
    dtree.H.clear()
    for log in sorted(logs, key=len, reverse=True):
        for feature in range(4):
            got = dtree.discretize(log, feature)
            want = reference_impl.discretize(log, feature)
            assert [t.hex() for t in got.thresholds] == [t.hex() for t in want.thresholds]


def _model_bits(model: lda.LdaModel):
    return (
        model.direction.tobytes(),
        model.centroid_successful.tobytes(),
        model.centroid_unsuccessful.tobytes(),
        float(model.regularization_used).hex(),
        model.projected_successful.hex(),
        model.projected_unsuccessful.hex(),
        model.direction.flags.writeable,
        model.centroid_successful.flags.writeable,
    )


@st.composite
def _train_cases(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    value = _values(draw(st.integers(min_value=1, max_value=3)))
    rows = draw(st.lists(st.tuples(st.tuples(*[value] * d), st.booleans()), max_size=30))
    min_class_count = draw(st.integers(min_value=0, max_value=4))
    regularization = draw(st.sampled_from([None, None, 0.0, 1e-3]))
    return _entries(rows, d), min_class_count, regularization


@settings(max_examples=400, deadline=None)
@given(_train_cases())
@example((make_log([], []), 0, None))  # empty log, min_class_count=0
@example((make_log([[1.0]], []), 0, None))  # one empty class
@example((make_log([[1.0, 1.0]] * 3, [[1.0, 1.0]] * 3), 3, None))  # coincident centroids
@example((make_log([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [[3.0, 5.0], [4.0, 6.0], [5.0, 7.0]]), 3, None))  # ridged
@example((make_log([[1e300, 2e300], [1.1e300, 2e300], [1.2e300, 2.1e300]],
                   [[2e300, 3e300], [2.1e300, 3.1e300], [2.2e300, 3e300]]), 3, None))  # overflow
@example((make_log([[1.0, 0.0]] * 3, [[1.0, 5e-324]] * 3), 3, None))  # norm underflows
@example((make_log([[0.0]] * 2, [[1.0]] * 5), 3, None))  # insufficient
def test_train_matches_reference_bit_for_bit(case):
    _check_train(*case)


def _check_train(log, min_class_count, regularization):
    got = _outcome(lda.train, log, min_class_count, regularization)
    want = _outcome(reference_impl.train, log, min_class_count, regularization)
    if got[0] == "ok" and want[0] == "ok":
        assert _model_bits(got[1]) == _model_bits(want[1])
    else:
        assert got == want


def test_train_matches_reference_on_random_logs():
    rng = np.random.default_rng(17)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(6, 70))
        shift = rng.normal(0.0, 1.0, size=d)
        good = rng.random(n) < 0.5
        points = rng.normal(0.0, 1.0, size=(n, d)) + np.where(good[:, None], 0.0, shift)
        if rng.random() < 0.3:
            points = np.round(points)  # ties and repeated rows
        log = _entries([(tuple(p), bool(g)) for p, g in zip(points.tolist(), good)], d)
        _check_train(log, lda.DEFAULT_MIN_CLASS_COUNT, None)
