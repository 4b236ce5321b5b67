"""trustlens benchmark: one workload per invocation, one closed-loop client.

    python3 perfbench/run.py --workload local-deep --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``). The
workload's inputs are made from ``--seed``; the client then sends requests
one after another for ``--seconds`` and checks every answer. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs untraced
passes for half the time, then one traced set-up and one traced pass, and
reports per-layer metrics plus the tracing overhead. Exits 2 without a result
when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

PROGRAM_MODULES = ("core", "lda", "dtree", "engine", "lkson", "baselines", "sim", "cli")
SETUP_REPEATS = 11
MAX_REPORTED_ERRORS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "predictions_per_s": "1/s",
    "falseness": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "dtree.build_domains.busy_s": "s",
    "dtree.build_tree.busy_s": "s",
    "dtree.classify_dt.busy_s": "s",
    "dtree.discretize.calls": "count",
    "dtree.information_gain.calls": "count",
    "lda.train.calls": "count",
    "lda.train.busy_s": "s",
    "lkson.combined_assessment.calls": "count",
    "lkson.combined_assessment.busy_s": "s",
    "lkson.combine.busy_s": "s",
    "lkson.share_knowledge.calls": "count",
    "lkson.tuples_per_request": "count",
    "lkson.post_transaction_update.busy_s": "s",
    "lkson.bootstrap_providers.busy_s": "s",
    "core.read_log_csv.busy_s": "s",
    "core.read_log_csv.rows": "count",
    "core.filter_by_context.busy_s": "s",
    "core.filter_by_context.rows_scanned": "count",
    "core.filter_by_context.rows_kept": "count",
    "core.filter_by_context.kept_ratio": "ratio",
    "core.append.busy_s": "s",
    "engine.assess.calls": "count",
    "engine.assess.self_s": "s",
    "engine.assess.local_frac": "ratio",
    "engine.record_outcome.busy_s": "s",
    "baselines.aggregate_feedback.busy_s": "s",
    "baselines.stereotrust_predict.busy_s": "s",
    "sim.run_experiment.calls": "count",
    "sim.run_experiment.self_s": "s",
    "sim.write_results_csv.busy_s": "s",
    "cli.cmd_ingest.busy_s": "s",
    "cli.cmd_assess.self_s": "s",
    "cli.cmd_simulate.self_s": "s",
    "trace.overhead_pct": "%",
}


class ProgramMissing(Exception):
    """The trustlens sources are not where the benchmark expects them."""


def load_program() -> SimpleNamespace:
    """Import trustlens afresh from ``src/`` (dropping any earlier import)."""
    if not (SRC / "trustlens" / "__init__.py").is_file():
        raise ProgramMissing(f"no trustlens package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "trustlens" or m.startswith("trustlens.")]:
        del sys.modules[name]
    package = importlib.import_module("trustlens")
    if Path(package.__file__).resolve().parent != SRC / "trustlens":
        raise ProgramMissing(f"trustlens was imported from {package.__file__}, not {SRC}")
    modules = {name: importlib.import_module(f"trustlens.{name}") for name in PROGRAM_MODULES}
    return SimpleNamespace(package=package, module_names=PROGRAM_MODULES, **modules)


@dataclass
class PassResult:
    complete: bool = True
    latencies: list[float] = field(default_factory=list)
    wall_s: float = 0.0  # from the pass start to the end of its last request
    attempted: int = 0
    failed: int = 0
    evaluated: int = 0
    errors: int = 0
    digests: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def run_pass(workload, program, state, requests, deadline: float | None, errors_seen: list) -> PassResult:
    """Serve the request list once, stopping early only at ``deadline``."""
    result = PassResult()
    ctx = workload.start_pass(program, state)
    start = time.perf_counter()
    for request in requests:
        if deadline is not None and time.perf_counter() >= deadline:
            result.complete = False
            break
        result.attempted += 1
        try:
            served = workload.serve(program, state, ctx, request)
        except Exception as exc:  # a failing request is counted, and the run goes on
            result.failed += 1
            if len(errors_seen) < MAX_REPORTED_ERRORS:
                errors_seen.append(
                    str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc(limit=3)
                )
            result.digests.append("failed")
            continue
        result.latencies.append(served.latency_s)
        result.evaluated += served.evaluated
        result.errors += served.errors
        result.digests.append(served.digest)
        result.wall_s = time.perf_counter() - start
    return result


def measure(workload, program, state, requests, seconds: float, errors_seen: list) -> list[PassResult]:
    """Closed loop for ``seconds``; the first pass always completes.

    Independent requests are cut at the deadline. A pass whose requests
    depend on each other is only started when it can finish in time, since a
    cut pass would over-sample its early part.
    """
    deadline = time.perf_counter() + seconds
    passes = [run_pass(workload, program, state, requests, None, errors_seen)]
    while passes[-1].complete:
        now = time.perf_counter()
        if workload.independent_requests and now < deadline:
            passes.append(run_pass(workload, program, state, requests, deadline, errors_seen))
        elif now + passes[0].wall_s <= deadline:
            passes.append(run_pass(workload, program, state, requests, None, errors_seen))
        else:
            break
    return passes


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_setups(workload, inputs):
    """Import the program and build its state several times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # start each set-up from the same heap state
        t0 = time.perf_counter()
        program = load_program()
        state = workload.build(program, inputs)
        times.append(time.perf_counter() - t0)
    return program, state, times


def end_to_end(passes, setup_times) -> tuple[dict, list[str]]:
    latencies_ms = [1000.0 * x for p in passes for x in p.latencies]
    wall = sum(p.wall_s for p in passes)
    first = passes[0]
    values = {
        "setup_s": statistics.median(setup_times),
        "request_p50_ms": statistics.median(latencies_ms),
        "request_p90_ms": percentile(latencies_ms, 90),
        "predictions_per_s": sum(p.evaluated for p in passes) / wall,
        "falseness": first.errors / first.evaluated,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setup_times)} set-ups (import + state build)",
        f"request latency: {len(latencies_ms)} requests in {len(passes)} passes",
        f"falseness: {first.errors} wrong of {first.evaluated} evaluated in pass 1",
    ]
    return values, notes


def per_layer(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    values = defaultdict(float, tracer.counters)  # a layer the workload never reached reads 0
    for name, entry in tracer.layer_totals().items():
        for key, value in entry.items():
            values[f"{name}.{key}"] = value

    def ratio(numerator: str, denominator: str) -> float:
        return values[numerator] / values[denominator] if values[denominator] else 0.0

    values["lkson.tuples_per_request"] = ratio("lkson.tuples_returned", "lkson.combined_assessment.calls")
    values["core.filter_by_context.kept_ratio"] = ratio(
        "core.filter_by_context.rows_kept", "core.filter_by_context.rows_scanned"
    )
    values["engine.assess.local_frac"] = ratio("engine.assess.local", "engine.assess.calls")
    values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    return {name: float(values[name]) for name in PER_LAYER_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    work = WORK / f"{workload.name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            load_program()
        except (ProgramMissing, ImportError) as exc:
            print(f"error: cannot import the program: {exc}", file=sys.stderr)
            return 2
        inputs = workload.generate(args.seed, work)
        requests = inputs["requests"]
        program, state, setup_times = time_setups(workload, inputs)

        errors_seen: list[str] = []
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = measure(workload, program, state, requests, budget, errors_seen)
        complete = [p for p in passes if p.complete]
        deterministic = all(p.digest == passes[0].digest for p in complete)
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)

        print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        print(f"passes: {len(passes)} ({len(complete)} complete), pass-1 digest {passes[0].digest[:16]}")
        if args.trace:
            tracer = Tracer()
            tracer.install(program)
            try:
                traced_state = workload.build(program, inputs)
                traced = run_pass(workload, program, traced_state, requests, None, errors_seen)
            finally:
                tracer.uninstall()
            attempted += traced.attempted
            failed += traced.failed
            untraced_wall = statistics.median(p.wall_s for p in complete)
            metrics = per_layer(tracer, traced.wall_s, untraced_wall)
            units = PER_LAYER_UNITS
            same = traced.digest == passes[0].digest
            deterministic = deterministic and same
            print(f"traced pass {traced.wall_s:.3f} s vs untraced median {untraced_wall:.3f} s; "
                  f"{len(tracer.spans)} spans; predictions {'match' if same else 'DIFFER'}")
        else:
            metrics, notes = end_to_end(passes, setup_times)
            units = END_TO_END_UNITS
            for note in notes:
                print(note)
            for note in workload.notes(state):
                print(note)
        print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} requests)")
        if not deterministic:
            print("repeated passes gave different predictions")
        for message in errors_seen:
            print(f"failure: {message}")
        for name, value in metrics.items():
            print(f"{name:40s} {value:.6g} {units[name]}")
        report = {
            "correct": failed == 0 and deterministic,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
