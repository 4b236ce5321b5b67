"""CLI flows: simulate, assess, ingest, exit codes, and seeding."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trustlens
from trustlens import cli, core, sim
from trustlens.cli import main
from trustlens.core import Outcome, Transaction, TransactionLog, read_log_csv, write_log_csv

S = Outcome.SUCCESSFUL
U = Outcome.UNSUCCESSFUL

SMALL_SIM = [
    "simulate",
    "--theta", "0.3",
    "--pm", "0.2,0.5",
    "--models", "lda,random",
    "--agents", "30",
    "--transactions", "40",
    "--repeats", "2",
    "--warmup", "6",
    "--providers", "5",
    "--quiet",
]


def write_separable_log(path, n_per_class=3):
    rng = np.random.default_rng(0)
    log = TransactionLog("me", 2)
    for i in range(n_per_class):
        log.append(Transaction(f"s{i}", "p", "book", tuple(rng.normal([0, 0], 0.05)), S))
    for i in range(n_per_class):
        log.append(Transaction(f"u{i}", "p", "book", tuple(rng.normal([1, 1], 0.05)), U))
    write_log_csv(log, path)


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(SMALL_SIM + ["--seed", "42", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 1 * 2  # header + 2 models x 1 theta x 2 pm


def test_simulate_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SMALL_SIM + ["--seed", "42", "--out", str(out_a)]) == 0
    assert main(SMALL_SIM + ["--seed", "42", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_rejects_bad_theta(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--theta", "1.5", "--pm", "0.5", "--out", str(out)])
    assert code == 2
    assert "theta out of [0,1]" in capsys.readouterr().err


def test_simulate_rejects_nonpositive_fanout(tmp_path, capsys):
    code = main(SMALL_SIM + ["--fanout", "-1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "request_fanout must be >= 1" in capsys.readouterr().err


def test_simulate_missing_out_dir_fails_before_sweep(tmp_path, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before the output path was checked")

    monkeypatch.setattr(sim, "sweep", no_sweep)
    code = main(SMALL_SIM + ["--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    assert "does not exist" in capsys.readouterr().err


def test_simulate_out_is_a_directory_fails_before_sweep(tmp_path, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before the output path was checked")

    monkeypatch.setattr(sim, "sweep", no_sweep)
    code = main(SMALL_SIM + ["--out", str(tmp_path)])
    assert code == 2
    _assert_one_line_error(capsys)


def test_simulate_rejects_empty_model_list(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("an experiment ran with no model selected")

    monkeypatch.setattr(sim, "run_experiments", no_run)
    out = tmp_path / "r.csv"
    code = main(["simulate", "--models", ",", "--theta", "0.5", "--pm", "0.5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: model list must be non-empty\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, values, message",
    [
        ("--models", "lda,random,lda", "model value 'lda' is repeated"),
        ("--theta", "0.5,0.50", "theta value 0.5 is repeated"),
        ("--pm", "0.2,0.5,0.2", "p_m value 0.2 is repeated"),
    ],
)
def test_simulate_rejects_repeated_values(tmp_path, monkeypatch, capsys, flag, values, message):
    def no_run(*args, **kwargs):
        raise AssertionError("an experiment ran on a grid with a repeated value")

    monkeypatch.setattr(sim, "run_experiments", no_run)
    out = tmp_path / "r.csv"
    code = main(SMALL_SIM + [flag, values, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "pm, message",
    [
        ("0:inf:0.1", "pm range start, stop and step must be finite, got '0:inf:0.1'"),
        ("nan:1:0.1", "pm range start, stop and step must be finite, got 'nan:1:0.1'"),
        ("0.1:0.9:1e-12", "pm range spans 10000 steps or more: '0.1:0.9:1e-12'"),
    ],
)
def test_simulate_rejects_unusable_range_before_sweep(tmp_path, monkeypatch, capsys, pm, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran before the range was checked")

    monkeypatch.setattr(sim, "sweep", no_sweep)
    code = main(["simulate", "--theta", "0.5", "--pm", pm, "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_rejects_unknown_flag(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--nope", "1", "--out", str(tmp_path / "x.csv")])
    assert exc_info.value.code == 2


def test_seed_env_fallback(tmp_path, monkeypatch):
    out_env, out_flag = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("TRUSTLENS_SEED", "99")
    assert main(SMALL_SIM + ["--out", str(out_env)]) == 0
    monkeypatch.delenv("TRUSTLENS_SEED")
    assert main(SMALL_SIM + ["--seed", "99", "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


# --- argument parsing: one command's parser answers as the whole tree does ---

_ASSESS = ["assess", "--log", "log.csv", "--candidate", "0.5,1", "--context", "book"]


def _parsed(parse, argv):
    """``parse(argv)``'s namespace, or its ``SystemExit`` code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        SMALL_SIM + ["--out", "r.csv", "--seed", "3"],
        _ASSESS,
        ["ingest", "--in", "export.csv", "--out", "log.csv", "--map", "id=tid,features=price"],
        _ASSESS + ["--min-class=2"],
        ["assess", "--log", "log.csv", "--cand", "0.5", "--context", "book"],
        ["simulate", "-h"],
        ["assess", "-h"],
        ["ingest", "-h"],
        ["-h"],
        [],
        ["bogus"],
        ["assess", "--log", "log.csv"],
        ["assess"],
        _ASSESS + ["--min-class", "x"],
        _ASSESS + ["--bogus"],
        _ASSESS + ["extra"],
        ["--"] + _ASSESS,
        ["assess", "--"] + _ASSESS[1:],
    ],
)
def test_command_parser_answers_as_the_whole_parser(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    want = _parsed(lambda a: cli._build_parser().parse_args(a), argv)
    assert _parsed(cli._parse_args, argv) == want
    if isinstance(want, tuple):
        assert want[0] in (0, 2) and (want[1] or want[2])


def test_valid_call_builds_one_parser(tmp_path, monkeypatch, capsys):
    log_path = tmp_path / "log.csv"
    write_separable_log(log_path)
    built = []
    real_init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser()
    assert len(built) == 4  # the whole tree: the top parser and one per command
    built.clear()
    assert main(["assess", "--log", str(log_path), "--candidate", "0.02,0.01", "--context", "book"]) == 0
    assert built == ["trustlens assess"]


def test_main_calls_the_command_functions_bound_at_call_time(tmp_path, monkeypatch, capsys):
    log_path = tmp_path / "log.csv"
    write_separable_log(log_path)
    export = tmp_path / "export.csv"
    export.write_text("tid,seller,cat,fb,price,sold\nt1,s1,book,positive,1.0,2\n")
    argvs = {
        "assess": ["assess", "--log", str(log_path), "--candidate", "0.02,0.01", "--context", "book"],
        "ingest": ["ingest", "--in", str(export), "--out", str(tmp_path / "out.csv"), "--map", _INDEX_MAP],
        "simulate": ["simulate", "--theta", "2", "--out", str(tmp_path / "r.csv")],  # fails inside cmd_simulate
    }
    assert main(argvs["assess"]) == 0  # a parser kept from this call would hold the unwrapped functions
    called = []

    def recording(name, real):
        def wrapper(args):
            called.append((name, args.command))
            return real(args)
        return wrapper

    for name in argvs:
        monkeypatch.setattr(cli, f"cmd_{name}", recording(name, getattr(cli, f"cmd_{name}")))
    codes = [main(argv) for argv in argvs.values()]
    assert codes == [0, 0, 2]
    assert called == [(name, name) for name in argvs]


def test_assess_separable_log(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    write_separable_log(log_path)
    code = main([
        "assess",
        "--log", str(log_path),
        "--candidate", "0.02,0.01",
        "--context", "book",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "LDA: successful" in out
    assert "chosen:" in out and "confidence=" in out


def test_assess_insufficient_knowledge(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    log = TransactionLog("me", 1)
    log.append(Transaction("t0", "p", "book", (1.0,), U))
    write_log_csv(log, log_path)
    code = main(["assess", "--log", str(log_path), "--candidate", "1.0", "--context", "book"])
    assert code == 3


def test_assess_dimension_mismatch(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    write_separable_log(log_path)
    code = main(["assess", "--log", str(log_path), "--candidate", "0.5", "--context", "book"])
    assert code == 2
    assert capsys.readouterr().err == "error: candidate has 1 features, log expects 2\n"


def test_assess_malformed_csv_reports_position(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    log_path.write_text("id,counterparty,context,outcome,f1\nt1,p,book,maybe,1.0\n")
    code = main(["assess", "--log", str(log_path), "--candidate", "1.0", "--context", "book"])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "outcome" in err


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_assess_log_is_a_directory(tmp_path, capsys):
    code = main(["assess", "--log", str(tmp_path), "--candidate", "1.0", "--context", "book"])
    assert code == 2
    _assert_one_line_error(capsys)


def test_assess_log_not_utf8(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    log_path.write_bytes(b"id,counterparty,context,outcome,f1\nt1,p,b\xff\xfeok,1,1.0\n")
    code = main(["assess", "--log", str(log_path), "--candidate", "1.0", "--context", "book"])
    assert code == 2
    _assert_one_line_error(capsys)


OVERSIZED = "x" * 200_000  # longer than csv.field_size_limit(), which stays as it is


@pytest.mark.parametrize(
    ("text", "where"),
    [
        (f"id,counterparty,context,outcome,f1{OVERSIZED}\n", "row 1"),
        (f"id,counterparty,context,outcome,f1\nt1,p,book,1,1.0\nt2,{OVERSIZED},book,1,2.0\n", "row 3"),
    ],
    ids=["header", "row"],
)
def test_assess_oversized_field_is_one_line_error(tmp_path, capsys, text, where):
    log_path = tmp_path / "log.csv"
    log_path.write_text(text)
    code = main(["assess", "--log", str(log_path), "--candidate", "1.0", "--context", "book"])
    assert code == 2
    err = _assert_one_line_error(capsys)
    assert "Traceback" not in err
    assert "field larger than field limit" in err and where in err


@pytest.mark.parametrize(
    ("bad_row", "message"),
    [
        ("t2,p,book,2,1.0", "outcome must be 1 or 0"),
        (f"t2,{OVERSIZED},book,1,2.0", "field larger than field limit"),
    ],
    ids=["bad-outcome", "oversized"],
)
def test_assess_error_names_physical_line_after_multiline_field(tmp_path, capsys, bad_row, message):
    # row 2's quoted counterparty spans physical lines 2-3, so the defect is on line 4
    log_path = tmp_path / "log.csv"
    log_path.write_text(f'id,counterparty,context,outcome,f1\nt1,"two\nlines",book,1,1.0\n{bad_row}\n')
    code = main(["assess", "--log", str(log_path), "--candidate", "1.0", "--context", "book"])
    assert code == 2
    err = _assert_one_line_error(capsys)
    assert message in err and "(row 4" in err


def test_assess_log_with_byte_order_mark(tmp_path, capsys):
    plain = tmp_path / "log.csv"
    write_separable_log(plain)
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, marked):
        code = main(["assess", "--log", str(path), "--candidate", "0.02,0.01", "--context", "book"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--candidate", "1.0,abc"], "candidate features must be numeric: '1.0,abc'"),
        (["--candidate", "1.0,inf"], "candidate features must be finite"),
        (["--candidate", "1.0,2.0", "--min-class", "0"], "--min-class must be >= 1"),
        (["--candidate", "1.0,2.0", "--min-class", "-2"], "--min-class must be >= 1"),
    ],
)
def test_assess_checks_flags_before_reading_log(tmp_path, monkeypatch, capsys, flags, message):
    def no_read(*args, **kwargs):
        raise AssertionError("log was read before the flags were checked")

    monkeypatch.setattr(cli, "read_log_csv", no_read)
    code = main(["assess", "--log", str(tmp_path / "log.csv"), "--context", "book"] + flags)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_assess_loads_only_the_candidate_context(tmp_path, monkeypatch, capsys):
    log_path = tmp_path / "log.csv"
    log_path.write_text(
        "id,counterparty,context,outcome,f1\n"
        + "".join(f"b{i},p,book,{i % 2},{i}.0\n" for i in range(6))
        + "".join(f"c{i},p,camera,{i % 2},{i}.0\n" for i in range(6))
    )
    loaded = []

    def recording_read(*args, **kwargs):
        log = read_log_csv(*args, **kwargs)
        loaded.append(log)
        return log

    monkeypatch.setattr(cli, "read_log_csv", recording_read)
    code = main(["assess", "--log", str(log_path), "--candidate", "1.0", "--context", "camera"])
    assert code == 0
    assert [t.id for t in loaded[0].entries] == [f"c{i}" for i in range(6)]


def test_assess_rejects_bad_row_in_other_context(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    write_separable_log(log_path)
    with log_path.open("a") as fh:
        fh.write("x1,p,camera,1,0.5,inf\n")
    code = main(["assess", "--log", str(log_path), "--candidate", "0.0,0.0", "--context", "book"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: feature value 'inf' is not finite (row 8, column 'f2')\n"
    )


def test_assess_adjacent_float_midpoints(tmp_path, capsys):
    # S, U, S on three adjacent doubles: both class-boundary midpoints are one float
    values = ["1.0000000000000002", "1.0000000000000004", "1.0000000000000007"]
    rows = ["id,counterparty,context,outcome,f1"]
    for i in range(9):
        rows.append(f"t{i},p,c,{0 if i // 3 == 1 else 1},{values[i // 3]}")
    log_path = tmp_path / "adj.csv"
    log_path.write_text("\n".join(rows) + "\n")
    code = main(["assess", "--log", str(log_path), "--candidate", "1.0", "--context", "c"])
    assert code == 0
    assert "chosen:" in capsys.readouterr().out


def test_assess_log_near_float_max(tmp_path, capsys):
    # the scatter overflows: LDA abstains with confidence 0 and the tree answers
    rows = ["id,counterparty,context,outcome,f1,f2"]
    for i in range(8):
        rows.append(f"t{i},p,c,{i % 2},{1 + i % 2 + i / 100}e300,{2 + i % 2}e300")
    log_path = tmp_path / "huge.csv"
    log_path.write_text("\n".join(rows) + "\n")
    code = main(["assess", "--log", str(log_path), "--candidate", "1e300,2e300", "--context", "c"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "LDA: unsuccessful (confidence=0.0000)" in captured.out


def test_ingest_maps_and_reports(tmp_path, capsys):
    src = tmp_path / "auction.csv"
    rows = ["tid,seller,category,feedback,price,sold"]
    for i in range(991):
        fb = "negative" if i < 9 else "positive"
        rows.append(f"t{i},seller{i},cameras,{fb},{10 + i % 7}.5,{i % 30}")
    rows.append("tbad,sellerx,cameras,positive,,12")  # blank price: dropped
    src.write_text("\n".join(rows) + "\n")

    out = tmp_path / "log.csv"
    code = main([
        "ingest",
        "--in", str(src),
        "--out", str(out),
        "--map", "id=tid,counterparty=seller,context=category,outcome=feedback,features=price,features=sold",
    ])
    assert code == 0
    report = capsys.readouterr().out
    assert "rows dropped: 1" in report
    assert "unsuccessful 9 (0.9%)" in report

    log = read_log_csv(out)
    assert len(log) == 991 and log.dimensionality == 2


def test_ingest_is_idempotent_on_normalized_files(tmp_path, capsys):
    first = tmp_path / "first.csv"
    write_separable_log(first)
    second = tmp_path / "second.csv"
    code = main([
        "ingest",
        "--in", str(first),
        "--out", str(second),
        "--map", "id=id,counterparty=counterparty,context=context,outcome=outcome,features=f1,features=f2",
    ])
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_ingest_unmappable_schema(tmp_path, capsys):
    src = tmp_path / "auction.csv"
    src.write_text("tid,seller,feedback\nt1,s1,positive\n")
    code = main([
        "ingest",
        "--in", str(src),
        "--out", str(tmp_path / "o.csv"),
        "--map", "id=tid,counterparty=seller,context=category,outcome=feedback,features=price",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "unmappable schema" in err and "category" in err


def test_ingest_missing_out_dir_fails_before_reading_input(tmp_path, capsys):
    code = main([
        "ingest",
        "--in", str(tmp_path / "absent.csv"),  # never opened: the --out check comes first
        "--out", str(tmp_path / "missing" / "log.csv"),
        "--map", "id=tid,counterparty=seller,context=category,outcome=feedback,features=price",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "output directory" in err and err.count("\n") == 1


def test_ingest_input_with_byte_order_mark(tmp_path, capsys):
    rows = "tid,seller,category,feedback,price\nt1,s1,cameras,positive,10.5\nt2,s2,cameras,negative,3\n"
    mapping = "id=tid,counterparty=seller,context=category,outcome=feedback,features=price"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(rows)
    marked.write_bytes(b"\xef\xbb\xbf" + rows.encode())
    for src in (plain, marked):
        code = main(["ingest", "--in", str(src), "--out", str(tmp_path / f"{src.stem}.out"), "--map", mapping])
        assert code == 0
    assert capsys.readouterr().out.count("rows kept:    2") == 2
    assert (tmp_path / "bom.out").read_bytes() == (tmp_path / "plain.out").read_bytes()


@pytest.mark.parametrize(
    ("text", "where"),
    [
        (f"tid,seller,category,feedback,price{OVERSIZED}\n", "line 1"),
        (f"tid,seller,category,feedback,price\nt1,s1,cameras,positive,1\nt2,{OVERSIZED},cameras,positive,2\n", "line 3"),
    ],
    ids=["header", "row"],
)
def test_ingest_oversized_field_is_one_line_error(tmp_path, capsys, text, where):
    src = tmp_path / "auction.csv"
    src.write_text(text)
    code = main([
        "ingest",
        "--in", str(src),
        "--out", str(tmp_path / "o.csv"),
        "--map", "id=tid,counterparty=seller,context=category,outcome=feedback,features=price",
    ])
    assert code == 2
    err = _assert_one_line_error(capsys)
    assert "Traceback" not in err
    assert f"{src} {where}:" in err and "field larger than field limit" in err
    assert not (tmp_path / "o.csv").exists()


_INGEST_NAMES = ["tid", "seller", "cat", "fb", "price", "sold"]
_INGEST_MAP = "id=tid,counterparty=seller,context=cat,outcome=fb,features=price,features=sold"
_INGEST_CELLS = ["t1", "t2", " t3 ", "", "s,1", 'q"x', "1", "0", "positive", "No", "maybe",
                 "2.5", " -3 ", "nan", "inf", "1e400", "abc"]


def _dictreader_ingest(text):
    """The ingest loop as written over ``csv.DictReader``: kept rows and
    (rows read, rows dropped)."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    kept, seen, total, dropped = [], set(), 0, 0
    for row in reader:
        total += 1
        outcome_text = (row["fb"] or "").strip().lower()
        if outcome_text in cli._POSITIVE_OUTCOMES:
            outcome = "1"
        elif outcome_text in cli._NEGATIVE_OUTCOMES:
            outcome = "0"
        else:
            dropped += 1
            continue
        features = []
        for column in ("price", "sold"):
            try:
                value = float((row[column] or "").strip())
            except ValueError:
                break
            if not math.isfinite(value):
                break
            features.append(repr(value))
        tid = (row["tid"] or "").strip()
        if len(features) < 2 or not tid or tid in seen:
            dropped += 1
            continue
        seen.add(tid)
        kept.append([tid, (row["seller"] or "").strip(), (row["cat"] or "").strip(), outcome] + features)
    return kept, total, dropped


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(_INGEST_NAMES + ["other"]), max_size=4).flatmap(
        lambda extra: st.permutations(_INGEST_NAMES + extra)
    ),
    st.lists(st.lists(st.sampled_from(_INGEST_CELLS), max_size=10), max_size=25),
)
def test_ingest_equals_dictreader_reference(tmp_path_factory, header, rows):
    # rows may be blank, short or long, and header names may repeat
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buffer.getvalue()
    kept, total, dropped = _dictreader_ingest(text)

    tmp = tmp_path_factory.mktemp("ingest")
    src, out = tmp / "in.csv", tmp / "out.csv"
    src.write_text(text, newline="")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["ingest", "--in", str(src), "--out", str(out), "--map", _INGEST_MAP]) == 0
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\r\n").writerows(
        [["id", "counterparty", "context", "outcome", "f1", "f2"]] + kept
    )
    assert out.read_bytes() == expected.getvalue().encode("utf-8")
    lines = stdout.getvalue().splitlines()
    assert lines[:3] == [
        f"rows read:    {total}",
        f"rows kept:    {len(kept)}",
        f"rows dropped: {dropped} (unparseable outcome, non-finite/missing features, or bad id)",
    ]


# --- the row index that ingest writes beside the log -------------------------

_INDEX_MAP = "id=tid,counterparty=seller,context=cat,outcome=fb,features=price,features=sold"


def _ingest(tmp_path, rows):
    """Ingest export ``rows`` of (tid, seller, cat, fb, price, sold); the log's path."""
    src, out = tmp_path / "export.csv", tmp_path / "log.csv"
    with src.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows([_INGEST_NAMES] + rows)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--in", str(src), "--out", str(out), "--map", _INDEX_MAP]) == 0
    return out


def _export_rows(contexts):
    return [
        [f"t{i}", f"s{i % 3}", contexts[i % len(contexts)], "positive" if i % 2 else "negative",
         f"{i}.5", str(i % 5)]
        for i in range(12)
    ]


@pytest.fixture
def full_reads(monkeypatch):
    """The paths ``core._read_full`` was called with."""
    paths, real = [], core._read_full

    def spy(path, owner, context):
        paths.append(path)
        return real(path, owner, context)

    monkeypatch.setattr(core, "_read_full", spy)
    return paths


_AWKWARD = st.text(st.sampled_from(["a", "b", ",", '"', "\n", "\r", " ", "é", "日", "\U0001f600"]), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_AWKWARD, _AWKWARD, st.booleans(), st.integers(0, 9)), min_size=1, max_size=30))
@example([("s", 'x\n",y', True, 1), ("s", "", False, 2)])  # "" is written inside the first context's line
def test_indexed_read_equals_full_read(tmp_path_factory, records):
    rows = [[f"t{i}", seller, cat, "1" if good else "0", str(x), str(-x)]
            for i, (seller, cat, good, x) in enumerate(records)]
    log_path = _ingest(tmp_path_factory.mktemp("index"), rows)
    contexts = {cat.strip() for _, cat, _, _ in records} | {"absent"}
    with mock.patch.object(core, "_read_full", wraps=core._read_full) as full_read:
        indexed = {c: read_log_csv(log_path, context=c) for c in contexts}
    assert full_read.call_count == 0  # every context was found through the index
    copy = log_path.with_name("copy.csv")  # the library writer encodes the same log the same way
    write_log_csv(read_log_csv(log_path), copy)
    assert copy.read_bytes() == log_path.read_bytes()
    assert core.index_path(copy).read_bytes() == core.index_path(log_path).read_bytes()
    core.index_path(log_path).unlink()
    for c in contexts:
        assert indexed[c] == read_log_csv(log_path, context=c)


def test_fresh_ingest_takes_the_indexed_path(tmp_path, full_reads):
    log_path = _ingest(tmp_path, _export_rows(["book", "camera"]))
    log = read_log_csv(log_path, context="camera")
    assert full_reads == []
    assert [t.id for t in log.entries] == [f"t{i}" for i in range(1, 12, 2)]
    assert read_log_csv(log_path, context="absent").entries == []
    assert full_reads == []
    read_log_csv(log_path)  # the whole log is always read in full
    assert full_reads == [log_path]


@pytest.mark.parametrize("target", ["log", "index"])
def test_one_changed_byte_forces_the_full_read(tmp_path, full_reads, target):
    log_path = _ingest(tmp_path, _export_rows(["book", "camera"]))
    path = log_path if target == "log" else core.index_path(log_path)
    data = bytearray(path.read_bytes())
    end = b"\r\n" if target == "log" else b"\n"  # log records end in CRLF, index lines in LF
    at = -1 - len(end)  # the log's last feature digit, or the index's last offset digit
    assert data.endswith(end) and data[at : at + 1].isdigit()
    data[at] = ord("7") if data[at] != ord("7") else ord("8")
    path.write_bytes(bytes(data))
    log = read_log_csv(log_path, context="book")
    assert full_reads == [log_path]
    core.index_path(log_path).unlink()
    assert log == read_log_csv(log_path, context="book")


def test_indexed_rows_are_the_bytes_hashed(tmp_path, monkeypatch):
    log_path = _ingest(tmp_path, _export_rows(["book", "camera"]))
    want = core._read_full(log_path, "local", "camera")
    assert [t.features[0] for t in want.entries if t.id == "t3"] == [3.5]

    class RewritingSha256:
        """sha256 whose ``hexdigest`` first rewrites the log on disk: a same-length edit."""

        def __init__(self, data=b""):
            self._digest = hashlib.sha256(data)

        def update(self, data):
            self._digest.update(data)

        def hexdigest(self):
            log_path.write_bytes(log_path.read_bytes().replace(b",3.5,", b",3.7,"))
            return self._digest.hexdigest()

    monkeypatch.setattr(core, "hashlib", SimpleNamespace(sha256=RewritingSha256))
    assert read_log_csv(log_path, context="camera") == want


def test_appended_bad_row_gives_the_full_read_error(tmp_path, capsys):
    log_path = _ingest(tmp_path, _export_rows(["book", "camera"]))
    with log_path.open("a") as fh:
        fh.write("x1,p,camera,1,0.5,inf\n")
    code = main(["assess", "--log", str(log_path), "--candidate", "0.0,0.0", "--context", "book"])
    assert code == 2
    assert capsys.readouterr().err == "error: feature value 'inf' is not finite (row 14, column 'f2')\n"


@pytest.mark.parametrize("damage", ["truncated", "garbage", "directory", "empty"])
def test_damaged_index_falls_back_to_the_full_read(tmp_path, full_reads, damage):
    log_path = _ingest(tmp_path, _export_rows(["book", "camera"]))
    index = core.index_path(log_path)
    text = index.read_bytes()
    index.unlink()
    want = read_log_csv(log_path, context="book")
    if damage == "truncated":
        index.write_bytes(text[: len(text) // 2])
    elif damage == "garbage":
        index.write_bytes(b"\xff\xfe not an index \x00\n" + text)
    elif damage == "directory":
        index.mkdir()
    else:
        index.write_bytes(b"")
    full_reads.clear()
    assert read_log_csv(log_path, context="book") == want
    assert full_reads == [log_path]


def test_ingest_index_path_is_a_directory(tmp_path, capsys):
    src, out = tmp_path / "export.csv", tmp_path / "log.csv"
    src.write_text("tid,seller,cat,fb,price,sold\nt1,s1,book,positive,1.0,2\n")
    core.index_path(out).mkdir()
    code = main(["ingest", "--in", str(src), "--out", str(out), "--map", _INDEX_MAP])
    assert code == 2
    err = _assert_one_line_error(capsys)
    assert "log.csv.index" in err and "is a directory" in err
    assert not out.exists()


def _ascii_locale_env():
    """The environment of a process whose locale is ASCII, so it decodes
    argv with surrogate escapes."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO"))}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(trustlens.__file__).parents[1]))
    return env


def _trustlens(args, env, cwd=None):
    return subprocess.run([sys.executable, "-m", "trustlens", *args], env=env, cwd=cwd, capture_output=True, timeout=120)


def test_ingest_writes_utf8_under_an_ascii_locale(tmp_path):
    src, out = tmp_path / "export.csv", tmp_path / "log.csv"
    src.write_text(
        "tid,seller,cat,fb,price,sold\nt1,s1,café,positive,1.0,2\nt2,s2,café,negative,3.0,4\n",
        encoding="utf-8",
    )
    env = _ascii_locale_env()
    done = _trustlens(["ingest", "--in", str(src), "--out", str(out), "--map", _INDEX_MAP], env)
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    assert "café" in out.read_text(encoding="utf-8")
    assert [t.id for t in read_log_csv(out, context="café").entries] == ["t1", "t2"]
    copy = tmp_path / "copy.csv"
    script = f"from trustlens import core; core.write_log_csv(core.read_log_csv({str(out)!r}), {str(copy)!r})"
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=120).returncode == 0
    assert copy.read_bytes() == out.read_bytes()
    assert core.index_path(copy).read_bytes() == core.index_path(out).read_bytes()
    code = main(["assess", "--log", str(out), "--candidate", "1.0,2.0", "--context", "café"])
    assert code == 3  # one entry per class: too little history, but the context was read


def test_assess_text_flags_under_an_ascii_locale(tmp_path):
    log_path = _ingest(tmp_path, _export_rows(["café", "café", "book"]))
    args = ["assess", "--log", str(log_path), "--candidate", "3.5,1",
            "--context", "café".encode(), "--counterparty", "ß".encode()]
    utf8 = _trustlens(args, dict(_ascii_locale_env(), PYTHONUTF8="1"))
    ascii = _trustlens(args, _ascii_locale_env())
    assert utf8.returncode == 0, utf8.stderr
    assert (ascii.returncode, ascii.stdout, ascii.stderr) == (0, utf8.stdout, b"")


def test_ingest_map_under_an_ascii_locale(tmp_path):
    src, out = tmp_path / "export.csv", tmp_path / "log.csv"
    src.write_text("tid,seller,catégorie,fb,price,sold\nt1,s1,book,positive,1.0,2\n", encoding="utf-8")
    mapping = _INDEX_MAP.replace("context=cat", "context=catégorie")
    done = _trustlens(["ingest", "--in", str(src), "--out", str(out), "--map", mapping.encode()],
                      _ascii_locale_env())
    assert done.returncode == 0, done.stderr
    assert [t.context for t in read_log_csv(out).entries] == ["book"]


@pytest.mark.parametrize(
    "args",
    [
        ["assess", "--log", "log.csv", "--candidate", "1", "--context", b"caf\xe9"],
        ["assess", "--log", "log.csv", "--candidate", "1", "--context", "c", "--counterparty", b"caf\xe9"],
        ["ingest", "--in", "in.csv", "--out", "out.csv", "--map", b"id=t\xe9"],
    ],
    ids=["context", "counterparty", "map"],
)
def test_text_flag_that_is_not_utf8_is_one_line_error(tmp_path, args):
    flag = args[-2]
    done = _trustlens(args, _ascii_locale_env(), cwd=tmp_path)
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr.startswith(f"error: {flag} is not UTF-8 text".encode()) and done.stderr.count(b"\n") == 1
