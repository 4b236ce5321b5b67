"""Tests of the benchmark itself: input generation, tracing and reporting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CliWide, LocalDeep, OverlayThin, Sweep  # noqa: E402

SMALL = [
    LocalDeep(contexts=2, history_per_context=12, candidates_per_context=4),
    OverlayThin(experiments=2, agents=30, rounds=40),
    CliWide(rows=300, contexts=5, malformed=12, candidates=5, sellers=20),
    Sweep(sweeps=2, thetas="0.5", pms="0.5", agents=12, transactions=20, warmup=6),
]
IDS = [w.name for w in SMALL]


def _comparable(inputs: dict) -> dict:
    """Inputs with generated files replaced by their contents."""
    out = {}
    for key, value in inputs.items():
        if isinstance(value, Path):
            out[key] = value.read_bytes() if value.exists() else value.name
        elif key == "requests":
            out[key] = [[a for a in r if not str(a).startswith("/")] if isinstance(r, list) else r for r in value]
        else:
            out[key] = value
    return out


@pytest.mark.parametrize("workload", SMALL, ids=IDS)
def test_generator_is_reproducible(workload, tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = _comparable(workload.generate(7, a))
    assert first == _comparable(workload.generate(7, b))
    assert first != _comparable(workload.generate(8, c))


def _one_pass(workload, program, inputs):
    state = workload.build(program, inputs)
    errors: list[str] = []
    result = run.run_pass(workload, program, state, inputs["requests"], None, errors)
    assert result.failed == 0, errors
    return result


@pytest.mark.parametrize("workload", SMALL, ids=IDS)
def test_tracing_restores_originals_and_keeps_predictions(workload, tmp_path):
    program = run.load_program()
    inputs = workload.generate(3, tmp_path)
    plain = _one_pass(workload, program, inputs)

    tracer = Tracer()
    tracer.install(program)
    sites = tracer.patched_sites()
    try:
        traced = _one_pass(workload, program, inputs)
    finally:
        tracer.uninstall()

    assert traced.digest == plain.digest
    assert tracer.spans
    for owner, attr, original in sites:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original
    patched = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in sites}
    for module in ("trustlens.core", "trustlens.engine", "trustlens.sim"):
        assert (module, "filter_by_context") in patched


def test_self_times_sum_to_at_most_wall_time(tmp_path):
    workload = SMALL[0]
    program = run.load_program()
    inputs = workload.generate(5, tmp_path)
    tracer = Tracer()
    tracer.install(program)
    try:
        _one_pass(workload, program, inputs)
    finally:
        tracer.uninstall()

    selfs = tracer.self_times_ns()
    children: dict[int, list[int]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.id)

    def subtree_self(span_id: int) -> int:
        return selfs[span_id] + sum(subtree_self(c) for c in children.get(span_id, ()))

    assert all(s >= 0 for s in selfs)
    for span in tracer.spans:
        assert subtree_self(span.id) <= span.end_ns - span.start_ns
    assert any(children.values())  # the check above did cover nested spans


def test_per_layer_report_names_every_metric(tmp_path):
    workload = SMALL[1]
    program = run.load_program()
    inputs = workload.generate(2, tmp_path)
    tracer = Tracer()
    tracer.install(program)
    try:
        traced = _one_pass(workload, program, inputs)
    finally:
        tracer.uninstall()
    metrics = run.per_layer(tracer, traced.wall_s, traced.wall_s)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["sim.run_experiment.calls"] == workload.experiments
    assert metrics["engine.assess.calls"] == workload.experiments * workload.rounds
    assert metrics["trace.overhead_pct"] == 0.0


def test_missing_program_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_report_line_is_json_with_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setitem(run.WORKLOADS, "sweep", SMALL[3])
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "0.5", "--trace", "0"]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    assert set(report["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in report["metrics"].values())
