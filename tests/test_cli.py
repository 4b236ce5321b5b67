"""CLI flows: simulate, assess, ingest, exit codes, and seeding."""

from __future__ import annotations

import numpy as np
import pytest

from trustlens import cli, sim
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
