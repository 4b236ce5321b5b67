"""Core types, partitioning, context filtering, and the CSV log format."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustlens.core import (
    Outcome,
    Prediction,
    Transaction,
    TransactionLog,
    filter_by_context,
    partition,
    read_log_csv,
    write_log_csv,
)
from trustlens.errors import DimensionMismatch, DuplicateId, EmptySet, LogFormatError

from conftest import make_log


def test_outcome_is_binary():
    assert {o.name for o in Outcome} == {"SUCCESSFUL", "UNSUCCESSFUL"}


def test_transaction_rejects_non_finite_features():
    with pytest.raises(ValueError):
        Transaction("t", "p", "c", (1.0, float("nan")), Outcome.SUCCESSFUL)


def test_pending_transaction_allowed_outside_logs():
    candidate = Transaction("t", "p", "c", (1.0,), None)
    assert candidate.outcome is None
    log = TransactionLog("me", 1)
    with pytest.raises(ValueError):
        log.append(candidate)


def test_log_rejects_duplicate_ids_and_bad_dimensions():
    log = TransactionLog("me", 2)
    log.append(Transaction("t1", "p", "c", (1.0, 2.0), Outcome.SUCCESSFUL))
    with pytest.raises(DuplicateId):
        log.append(Transaction("t1", "q", "c", (0.0, 0.0), Outcome.UNSUCCESSFUL))
    with pytest.raises(DimensionMismatch):
        log.append(Transaction("t2", "q", "c", (0.0,), Outcome.UNSUCCESSFUL))


def test_partition_direct_split():
    log = make_log([[1.0]], [[2.0]])
    group_s, group_u = partition(log)
    assert [t.features for t in group_s] == [(1.0,)]
    assert [t.features for t in group_u] == [(2.0,)]


def test_partition_degenerate_single_class():
    log = make_log([[1.0], [2.0], [3.0]], [])
    group_s, group_u = partition(log)
    assert len(group_s) == 3 and len(group_u) == 0


def test_partition_counts_match_enumeration():
    log = make_log([[float(i)] for i in range(4)], [[float(i)] for i in range(2)])
    group_s, group_u = partition(log)
    n_s = sum(1 for t in log.entries if t.outcome is Outcome.SUCCESSFUL)
    n_u = sum(1 for t in log.entries if t.outcome is Outcome.UNSUCCESSFUL)
    assert (len(group_s), len(group_u)) == (n_s, n_u) == (4, 2)
    assert len(group_s) + len(group_u) == len(log)


def test_partition_empty_log():
    with pytest.raises(EmptySet):
        partition(TransactionLog("me", 1))


def test_partition_is_bijection_and_order_preserving():
    rng = random.Random(5)
    log = TransactionLog("me", 1)
    for i in range(60):
        outcome = Outcome.SUCCESSFUL if rng.random() < 0.5 else Outcome.UNSUCCESSFUL
        log.append(Transaction(f"t{i}", "p", "c", (rng.random(),), outcome))
    group_s, group_u = partition(log)
    assert sorted(t.id for t in group_s + group_u) == sorted(t.id for t in log.entries)
    ids_s = [t.id for t in group_s]
    assert ids_s == [t.id for t in log.entries if t.outcome is Outcome.SUCCESSFUL]


def test_filter_by_context_matches():
    log = TransactionLog("me", 1)
    for i, ctx in enumerate(["book", "book", "camera"]):
        log.append(Transaction(f"t{i}", "p", ctx, (1.0,), Outcome.SUCCESSFUL))
    filtered = filter_by_context(log, "book")
    assert len(filtered) == 2
    assert filtered.owner == "me" and filtered.dimensionality == 1


def test_filter_absent_context_gives_empty_log():
    log = make_log([[1.0]], [[2.0]], context="book")
    assert len(filter_by_context(log, "dvd")) == 0


def test_filter_matches_linear_scan_and_is_idempotent():
    rng = random.Random(9)
    contexts = ["a", "b", "c"]
    log = TransactionLog("me", 1)
    for i in range(100):
        log.append(
            Transaction(f"t{i}", "p", rng.choice(contexts), (rng.random(),), Outcome.SUCCESSFUL)
        )
    for ctx in contexts:
        expected = sum(1 for t in log.entries if t.context == ctx)
        once = filter_by_context(log, ctx)
        assert len(once) == expected
        twice = filter_by_context(once, ctx)
        assert [t.id for t in twice.entries] == [t.id for t in once.entries]


def test_class_counts_sum_to_length():
    log = make_log([[1.0], [2.0]], [[3.0]])
    n_s, n_u = log.class_counts()
    assert n_s + n_u == len(log) == 3


def test_prediction_confidence_bounds():
    with pytest.raises(ValueError):
        Prediction(Outcome.SUCCESSFUL, 1.5, "LDA")
    with pytest.raises(ValueError):
        Prediction(Outcome.SUCCESSFUL, -0.1, "LDA")


def test_csv_round_trip(tmp_path):
    log = TransactionLog("me", 2)
    log.append(Transaction("t1", "alice", "book", (1.25, -3.5), Outcome.SUCCESSFUL))
    log.append(Transaction("t2", "bob", "cd, used", (0.1, 2.0), Outcome.UNSUCCESSFUL))
    path = tmp_path / "log.csv"
    write_log_csv(log, path)
    loaded = read_log_csv(path, owner="me")
    assert loaded.dimensionality == 2
    assert [(t.id, t.counterparty, t.context, t.features, t.outcome) for t in loaded.entries] == [
        (t.id, t.counterparty, t.context, t.features, t.outcome) for t in log.entries
    ]


def test_csv_read_accepts_byte_order_mark(tmp_path):
    log = TransactionLog("me", 2)
    log.append(Transaction("t1", "alice", "book", (1.25, -3.5), Outcome.SUCCESSFUL))
    log.append(Transaction("t2", "bob", "cd, used", (0.1, 2.0), Outcome.UNSUCCESSFUL))
    plain = tmp_path / "log.csv"
    write_log_csv(log, plain)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for context in (None, "book"):
        expected = read_log_csv(plain, owner="me", context=context)
        got = read_log_csv(marked, owner="me", context=context)
        assert got.dimensionality == expected.dimensionality
        assert got.entries == expected.entries


def test_csv_rejects_bad_outcome(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("id,counterparty,context,outcome,f1\nt1,p,c,2,1.0\n")
    with pytest.raises(LogFormatError) as exc_info:
        read_log_csv(path)
    assert exc_info.value.row == 2
    assert exc_info.value.column == "outcome"


def test_csv_rejects_bad_feature_and_header(tmp_path):
    path = tmp_path / "bad_feature.csv"
    path.write_text("id,counterparty,context,outcome,f1\nt1,p,c,1,abc\n")
    with pytest.raises(LogFormatError) as exc_info:
        read_log_csv(path)
    assert exc_info.value.row == 2 and exc_info.value.column == "f1"

    path2 = tmp_path / "bad_header.csv"
    path2.write_text("id,partner,context,outcome,f1\n")
    with pytest.raises(LogFormatError) as exc_info:
        read_log_csv(path2)
    assert exc_info.value.row == 1


def _fields(log):
    return [(t.id, t.counterparty, t.context, t.features, t.outcome) for t in log.entries]


_CONTEXTS = ["book", "cd, used", 'say "hi"', "camera"]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.lists(
            st.tuples(
                st.sampled_from(_CONTEXTS),
                st.booleans(),
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False), min_size=d, max_size=d
                ),
            ),
            max_size=30,
        ).map(lambda rows: (d, rows))
    ),
    st.sampled_from(_CONTEXTS + ["absent"]),
)
def test_context_read_equals_filtered_full_read(log_spec, context):
    d, rows = log_spec
    log = TransactionLog("me", d)
    for i, (ctx, ok, features) in enumerate(rows):
        outcome = Outcome.SUCCESSFUL if ok else Outcome.UNSUCCESSFUL
        log.append(Transaction(f"t{i}", f"p,{i}", ctx, tuple(features), outcome))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        write_log_csv(log, path)
        restricted = read_log_csv(path, owner="me", context=context)
        expected = filter_by_context(read_log_csv(path, owner="me"), context)
    assert (restricted.owner, restricted.dimensionality) == ("me", d)
    assert _fields(restricted) == _fields(expected)


@pytest.mark.parametrize(
    "bad_row, column",
    [
        ("t3,p,camera,2,1.0,2.0", "outcome"),
        ("t3,p,camera,1,abc,2.0", "f1"),
        ("t3,p,camera,1,1.0,inf", "f2"),
        ("t3,p,camera,1,1.0", None),
        ("t1,p,camera,1,1.0,2.0", "id"),  # first copy of t1 is in book
        ("t2,p,camera,1,1.0,2.0", "id"),  # first copy of t2 is in camera
        ("t2,p,book,1,1.0,2.0", "id"),  # kept row, first copy skipped
    ],
)
def test_context_read_checks_rows_of_other_contexts(tmp_path, bad_row, column):
    path = tmp_path / "log.csv"
    path.write_text(
        "id,counterparty,context,outcome,f1,f2\n"
        "t1,p,book,1,0.5,0.5\n"
        "t2,p,camera,0,0.5,0.5\n"
        f"{bad_row}\n"
        "t4,p,book,0,0.5,0.5\n"
    )
    with pytest.raises(LogFormatError) as full:
        read_log_csv(path)
    with pytest.raises(LogFormatError) as restricted:
        read_log_csv(path, context="book")
    assert (full.value.row, full.value.column) == (4, column)
    assert (restricted.value.row, restricted.value.column, str(restricted.value)) == (
        full.value.row,
        full.value.column,
        str(full.value),
    )
