"""Core types, context filtering and views, and the CSV log format."""

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
    derived_each,
    filter_by_context,
    read_log_csv,
    write_log_csv,
)
from trustlens import dtree, lda
from trustlens.errors import (
    DegenerateClasses,
    DimensionMismatch,
    DuplicateId,
    LogFormatError,
    TrustlensError,
)

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


def test_derived_value_lasts_until_append():
    log = make_log([(0.0,)], [(1.0,)])
    calls = []

    def compute(entries_of):
        calls.append(len(entries_of))
        return object()

    first = log.derived("k", compute)
    assert log.derived("k", compute) is first and calls == [2]
    log.append(Transaction("n", "p", "c", (2.0,), Outcome.SUCCESSFUL))
    assert log.derived("k", compute) is not first and calls == [2, 3]


def test_derived_keeps_trustlens_errors_only():
    log = make_log([(0.0,)], [(1.0,)])
    calls = []

    def degenerate(_):
        calls.append("degenerate")
        raise DegenerateClasses("no direction")

    def broken(_):
        calls.append("broken")
        raise ValueError("not a property of the entries")

    for _ in range(2):
        with pytest.raises(DegenerateClasses, match="no direction"):
            log.derived("d", degenerate)
        with pytest.raises(ValueError):
            log.derived("v", broken)
    assert calls == ["degenerate", "broken", "broken"]


def test_derived_each_reads_kept_values_and_computes_the_rest():
    logs = [make_log([(float(i),)], [(9.0,)], owner=f"o{i}") for i in range(3)]
    computed = []

    def compute(log):
        computed.append(log.owner)
        return (log.owner, len(log))

    kept = logs[1].derived("k", compute)
    assert derived_each(logs, "k", compute) == [("o0", 2), ("o1", 2), ("o2", 2)]
    assert derived_each(logs, "k", compute)[1] is kept
    assert computed == ["o1", "o0", "o2"]

    def degenerate(log):
        raise DegenerateClasses("kept")

    with pytest.raises(DegenerateClasses):
        logs[0].derived("bad", degenerate)
    with pytest.raises(DegenerateClasses, match="kept"):
        derived_each(logs, "bad", compute)  # the kept error, not a new computation
    assert computed == ["o1", "o0", "o2"]


def test_context_view_is_kept_and_grown_by_append():
    log = make_log([(0.0,), (1.0,)], [(2.0,)], context="book")
    log.append(Transaction("d1", "p", "dvd", (3.0,), Outcome.SUCCESSFUL))
    view = log.context_view("book")
    assert log.context_view("book") is view and len(view) == 3
    assert view.entries == filter_by_context(log, "book").entries
    assert filter_by_context(log, "book") is not filter_by_context(log, "book")
    log.append(Transaction("b9", "p", "book", (4.0,), Outcome.UNSUCCESSFUL))
    assert log.context_view("book") is view and len(view) == 4
    assert view.entries[-1].id == "b9" and view.class_counts() == (2, 2)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abc"), st.booleans()), max_size=10),
    st.lists(st.tuples(st.sampled_from(["append", "read"]), st.sampled_from("abc"), st.booleans()), max_size=30),
)
def test_views_follow_appends_across_contexts(initial, steps):
    def entry(i, context, ok):
        features = (float(i % 5), float(i % 3))
        return Transaction(f"t{i}", "p", context, features, Outcome.SUCCESSFUL if ok else Outcome.UNSUCCESSFUL)

    log = TransactionLog("me", 2, entries=[entry(i, c, ok) for i, (c, ok) in enumerate(initial)])
    seen = {}  # context -> (its view, the view's LDA model, its domains) at the last step
    for i, (action, context, ok) in enumerate(steps, start=len(initial)):
        if action == "append":
            log.append(entry(i, context, ok))
        else:
            seen.setdefault(context, (None, None, None))
        for c, (old_view, old_model, old_domains) in seen.items():
            view = log.context_view(c)
            if old_view is not None and old_view is not log:
                assert view is old_view  # kept, not rebuilt
            assert view.entries == filter_by_context(log, c).entries
            assert view.class_counts() == _recount(view)
            model = _derived_or_error(lda.log_model, view)
            domains = _derived_or_error(dtree.log_domains, view)
            if action == "append" and view is old_view and view is not log:
                if context == c:
                    assert model is not old_model and domains is not old_domains
                else:
                    assert model is old_model and domains is old_domains
            seen[c] = (view, model, domains)


def _derived_or_error(read, view):
    try:
        return read(view)
    except TrustlensError as exc:
        return exc


def _recount(log):
    n_s = sum(1 for t in log.entries if t.outcome is Outcome.SUCCESSFUL)
    return n_s, len(log.entries) - n_s


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.booleans(), st.sampled_from(["a", "b"])), max_size=8),
    st.lists(st.tuples(st.booleans(), st.sampled_from(["a", "b"]), st.booleans()), max_size=20),
)
def test_running_class_counts_equal_a_recount(initial, steps):
    def entry(i, ok, context):
        outcome = Outcome.SUCCESSFUL if ok else Outcome.UNSUCCESSFUL
        return Transaction(f"t{i}", "p", context, (float(i),), outcome)

    log = TransactionLog("me", 1, entries=[entry(i, ok, c) for i, (ok, c) in enumerate(initial)])
    assert log.class_counts() == _recount(log)
    for i, (ok, context, read) in enumerate(steps, start=len(initial)):
        log.append(entry(i, ok, context))
        if read:
            assert log.class_counts() == _recount(log)
    assert log.class_counts() == _recount(log)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b"]), max_size=6),
    st.lists(st.sampled_from(["a", "b"]), max_size=6),
    st.sampled_from(["a", "b", "absent"]),
)
def test_context_view_is_the_log_exactly_when_every_entry_is_in_context(initial, appended, context):
    def entry(i, ctx):
        return Transaction(f"t{i}", "p", ctx, (float(i),), Outcome.SUCCESSFUL)

    log = TransactionLog("me", 1, entries=[entry(i, c) for i, c in enumerate(initial)])
    for i, ctx in enumerate(appended, start=len(initial)):
        log.append(entry(i, ctx))
    view = log.context_view(context)
    assert (view is log) == all(t.context == context for t in log.entries)
    assert view.entries == filter_by_context(log, context).entries
    assert (view.owner, view.dimensionality) == (log.owner, log.dimensionality)


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
