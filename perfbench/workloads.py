"""The four benchmark workloads.

Each workload makes its inputs from a seed (plain rows, files or command
flags; no program objects), builds the program-side state from them, and
serves a fixed list of requests per pass. Serving a request calls into the
program, times the call, checks the output and scores the prediction
against the realized outcome.

Workloads:

- ``local-deep``: one agent, deep overlapping history; ``dtree`` dominates.
- ``overlay-thin``: simulator with thin histories; ``lkson`` dominates.
- ``cli-wide``: CLI ingest and assess over a wide export; CSV parsing and
  the full-log context scan dominate.
- ``sweep``: the paper-reproduction ``simulate`` command on a reduced grid;
  the only workload running ``baselines`` and ``write_results_csv``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

SUCCESS, FAILURE = 1, 0


class CheckFailed(Exception):
    """The program answered, but its output broke a benchmark check."""


@dataclass(frozen=True)
class Served:
    """What one request produced."""

    latency_s: float
    evaluated: int  # predictions scored against a realized outcome
    errors: int  # false positives plus false negatives
    digest: str  # canonical text of the predictions, for determinism checks


class Workload:
    """Defaults: requests do not depend on each other and need no per-pass state."""

    independent_requests = True

    def start_pass(self, program, state):
        return None

    def notes(self, state) -> list[str]:
        return []


def _exact_share(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """A mask with exactly round(share * n) True entries at random places."""
    mask = np.zeros(n, dtype=bool)
    mask[rng.permutation(n)[: int(round(share * n))]] = True
    return mask


def _run_cli(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        latency = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), latency


def _label(outcome) -> int:
    return SUCCESS if outcome.value == 1 else FAILURE


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalDeep(Workload):
    """One agent assessing candidates against its own deep, overlapping history.

    Features of successful and unsuccessful transactions differ by ``theta``
    per feature against noise ``sigma``, so the classes overlap and the
    discretizer sees many label changes. A fixed share of realized outcomes
    disagrees with the feature signal (exactly ``flip_share`` of each set),
    which keeps the error rate away from zero and steady across seeds.
    Every assessment is followed by ``record_outcome``, so the log grows and
    no trained model stays valid; a pass restarts from the initial history.
    """

    name = "local-deep"
    independent_requests = False  # each assessment sees the log its predecessors grew

    contexts: int = 12
    history_per_context: int = 70
    candidates_per_context: int = 20
    d: int = 4
    theta: float = 0.2
    sigma: float = 0.1
    p_success: float = 0.6
    flip_share: float = 0.2

    def _rows(self, rng, per_context: int, prefix: str) -> list[tuple]:
        """``per_context`` rows in each context, class and flip shares exact
        per context, in random order."""
        rows = []
        for c in range(self.contexts):
            signal = _exact_share(rng, per_context, self.p_success)
            realized = signal ^ _exact_share(rng, per_context, self.flip_share)
            shift = np.where(signal, 0.0, self.theta)[:, None]
            features = 1.0 + shift + self.sigma * rng.standard_normal((per_context, self.d))
            partners = rng.integers(0, 50, size=per_context)
            for i in range(per_context):
                rows.append((
                    f"p{partners[i]}",
                    f"ctx{c}",
                    tuple(float(x) for x in features[i]),
                    SUCCESS if realized[i] else FAILURE,
                ))
        order = rng.permutation(len(rows))
        return [(f"{prefix}{k}",) + rows[i] for k, i in enumerate(order)]

    def generate(self, seed: int, work: Path) -> dict[str, Any]:
        rng = np.random.default_rng([seed, 1])
        return {
            "history": self._rows(rng, self.history_per_context, "h"),
            "requests": self._rows(rng, self.candidates_per_context, "q"),
        }

    def build(self, program, inputs):
        core, engine = program.core, program.engine
        log = core.TransactionLog(owner="agent", dimensionality=self.d)
        for tid, partner, context, features, label in inputs["history"]:
            engine.record_outcome(log, core.Transaction(tid, partner, context, features, _outcome(core, label)))
        return log

    def start_pass(self, program, state):
        return program.core.TransactionLog(state.owner, state.dimensionality, list(state.entries))

    def serve(self, program, state, log, request) -> Served:
        core, engine = program.core, program.engine
        tid, partner, context, features, label = request
        candidate = core.Transaction(tid, partner, context, features, None)
        t0 = time.perf_counter()
        assessment = engine.assess(log, candidate)
        latency = time.perf_counter() - t0
        engine.record_outcome(log, core.Transaction(tid, partner, context, features, _outcome(core, label)))

        predictions = assessment.predictions
        if assessment.knowledge_source != "local" or len(predictions) != 2:
            raise CheckFailed(f"{tid}: expected two local predictions, got {assessment}")
        if not all(0.0 <= p.confidence <= 1.0 for p in predictions):
            raise CheckFailed(f"{tid}: confidence outside [0, 1]: {predictions}")
        best = max(p.confidence for p in predictions)
        first_best = next(p for p in predictions if p.confidence == best)
        if assessment.chosen is not first_best:
            raise CheckFailed(f"{tid}: chosen {assessment.chosen} is not the first most confident")
        chosen = assessment.chosen
        return Served(
            latency,
            1,
            int(_label(chosen.label) != label),
            f"{chosen.algorithm}:{_label(chosen.label)}:{chosen.confidence!r}",
        )


def _outcome(core, label: int):
    return core.Outcome.SUCCESSFUL if label == SUCCESS else core.Outcome.UNSUCCESSFUL


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlayThin(Workload):
    """Simulated population with a thin history: two warmup entries per agent.

    Most agents cannot train a model of their own, so most rounds are
    answered through the overlay by trust-combining providers' knowledge
    tuples. Each request is one ``sim.run_experiment`` with its own seed.
    """

    name = "overlay-thin"
    experiments: int = 8
    agents: int = 400
    rounds: int = 1200
    warmup: int = 2

    def generate(self, seed: int, work: Path) -> dict[str, Any]:
        rng = np.random.default_rng([seed, 2])
        seeds = [int(s) for s in rng.integers(0, 2**31, size=self.experiments)]
        return {"requests": seeds}

    def build(self, program, inputs):
        configs = {}
        for seed in inputs["requests"]:
            config = program.sim.SimConfig(
                n_agents=self.agents,
                n_transactions=self.rounds,
                model="lda",
                warmup=self.warmup,
                seed=seed,
            )
            config.validate()
            configs[seed] = config
        return configs

    def serve(self, program, state, _, seed) -> Served:
        t0 = time.perf_counter()
        result = program.sim.run_experiment(state[seed])
        latency = time.perf_counter() - t0
        metrics = result.metrics
        if metrics.n_evaluated != self.rounds or len(result.trace) != self.rounds:
            raise CheckFailed(f"seed {seed}: {metrics.n_evaluated} evaluated, expected {self.rounds}")
        if not 0.0 <= result.confidence_min <= result.confidence_max <= 1.0:
            raise CheckFailed(f"seed {seed}: confidence outside [0, 1]")
        digest = ";".join(
            f"{_label(r.predicted)}:{r.confidence!r}:{r.knowledge_source}" for r in result.trace
        )
        return Served(
            latency, metrics.n_evaluated, metrics.false_positives + metrics.false_negatives, digest
        )


# ---------------------------------------------------------------------------

_CHOSEN = re.compile(r"^chosen: (\S+) -> (successful|unsuccessful) \(confidence=([0-9.]+);")
_PREDICTION = re.compile(r"^(\S+): (successful|unsuccessful) \(confidence=([0-9.]+)\)$")
_DROPPED = re.compile(r"^rows dropped: (\d+) ", re.M)
_KEPT = re.compile(r"^rows kept: +(\d+)$", re.M)

_EXPORT_HEADER = ["tid", "seller", "category", "feedback", "price", "sold", "neg_fraction"]
_INGEST_MAP = (
    "id=tid,counterparty=seller,context=category,outcome=feedback,"
    "features=price,features=sold,features=neg_fraction"
)
# One defect per malformed row, cycled: each makes ingest drop the row.
_DEFECTS = ("outcome", "nan", "missing", "inf", "duplicate", "no-id")


@dataclass(frozen=True)
class CliWide(Workload):
    """An auction-style export over many categories, ingested then assessed.

    Sub-logs per category are small and well separated, so the classifiers
    are cheap and each ``trustlens assess`` call is dominated by reading the
    whole log and scanning it for the category. Exactly ``malformed`` rows
    carry a defect that ingest must drop. Candidates' realized outcomes
    disagree with their feature signal for exactly ``flip_share`` of them.
    """

    name = "cli-wide"
    rows: int = 16000
    contexts: int = 300
    malformed: int = 160
    candidates: int = 60
    sellers: int = 2000
    p_success: float = 0.7
    flip_share: float = 0.2

    @staticmethod
    def _features(rng, base: float, good: bool) -> tuple[str, str, str]:
        if good:
            price = base * (1.0 + 0.05 * rng.standard_normal())
            sold = max(0, int(round(60 + 6 * rng.standard_normal())))
            neg = abs(0.02 + 0.01 * rng.standard_normal())
        else:
            price = 0.6 * base * (1.0 + 0.05 * rng.standard_normal())
            sold = max(0, int(round(12 + 4 * rng.standard_normal())))
            neg = abs(0.2 + 0.03 * rng.standard_normal())
        return f"{price:.2f}", str(sold), f"{neg:.4f}"

    def generate(self, seed: int, work: Path) -> dict[str, Any]:
        rng = np.random.default_rng([seed, 3])
        base = rng.uniform(10.0, 500.0, size=self.contexts)
        contexts = rng.integers(0, self.contexts, size=self.rows)
        good = rng.random(self.rows) < self.p_success
        bad_rows = set(int(i) for i in rng.choice(np.arange(1, self.rows), self.malformed, replace=False))
        class_counts = np.zeros((self.contexts, 2), dtype=int)
        export = work / "export.csv"
        with export.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_EXPORT_HEADER)
            defects = 0
            for i in range(self.rows):
                c = int(contexts[i])
                price, sold, neg = self._features(rng, base[c], bool(good[i]))
                row = [
                    f"T{i:06d}",
                    f"s{int(rng.integers(self.sellers))}",
                    f"cat{c:03d}",
                    "positive" if good[i] else "negative",
                    price,
                    sold,
                    neg,
                ]
                if i in bad_rows:
                    defect = _DEFECTS[defects % len(_DEFECTS)]
                    defects += 1
                    if defect == "outcome":
                        row[3] = "n/a"
                    elif defect == "nan":
                        row[4] = "nan"
                    elif defect == "missing":
                        row[5] = ""
                    elif defect == "inf":
                        row[6] = "inf"
                    elif defect == "duplicate":
                        row[0] = "T000000"
                    else:
                        row[0] = ""
                else:
                    class_counts[c, 0 if good[i] else 1] += 1
                writer.writerow(row)
        eligible = np.flatnonzero(class_counts.min(axis=1) >= 3)
        cand_ctx = rng.choice(eligible, size=self.candidates)
        cand_good = rng.random(self.candidates) < self.p_success
        realized = cand_good ^ _exact_share(rng, self.candidates, self.flip_share)
        requests = []
        for k in range(self.candidates):
            c = int(cand_ctx[k])
            features = ",".join(self._features(rng, base[c], bool(cand_good[k])))
            requests.append((f"cat{c:03d}", features, SUCCESS if realized[k] else FAILURE))
        return {"export": export, "log": work / "history.csv", "requests": requests}

    def build(self, program, inputs):
        argv = ["ingest", "--in", str(inputs["export"]), "--out", str(inputs["log"]), "--map", _INGEST_MAP]
        code, out, err, latency = _run_cli(program.cli, argv)
        if code != 0:
            raise CheckFailed(f"ingest exited {code}: {err.strip()}")
        dropped = _DROPPED.search(out)
        kept = _KEPT.search(out)
        if dropped is None or int(dropped.group(1)) != self.malformed:
            raise CheckFailed(f"ingest dropped {dropped and dropped.group(1)} rows, injected {self.malformed}")
        if kept is None or int(kept.group(1)) != self.rows - self.malformed:
            raise CheckFailed(f"ingest kept {kept and kept.group(1)} rows, expected {self.rows - self.malformed}")
        return {"log": inputs["log"], "ingest_s": latency}

    def notes(self, state) -> list[str]:
        rate = self.rows / state["ingest_s"]
        return [f"ingest: {self.rows} rows in {state['ingest_s']:.3f} s ({rate:.0f} rows/s)"]

    def serve(self, program, state, _, request) -> Served:
        context, features, label = request
        argv = ["assess", "--log", str(state["log"]), "--candidate", features, "--context", context]
        code, out, err, latency = _run_cli(program.cli, argv)
        if code != 0:
            raise CheckFailed(f"assess in {context} exited {code}: {err.strip()}")
        lines = out.splitlines()
        predictions = [m.groups() for m in map(_PREDICTION.match, lines[:-1]) if m]
        chosen = _CHOSEN.match(lines[-1]) if lines else None
        if chosen is None or len(predictions) != 2:
            raise CheckFailed(f"assess in {context}: unexpected output {out!r}")
        algorithm, chosen_label, confidence = chosen.groups()
        if (algorithm, chosen_label, confidence) not in predictions:
            raise CheckFailed(f"assess in {context}: chosen call is not one of the predictions")
        if not 0.0 <= float(confidence) <= 1.0 or any(
            float(c) > float(confidence) for _, _, c in predictions
        ):
            raise CheckFailed(f"assess in {context}: chosen call is not the most confident")
        predicted = SUCCESS if chosen_label == "successful" else FAILURE
        return Served(latency, 1, int(predicted != label), lines[-1])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sweep(Workload):
    """``trustlens simulate`` on a reduced grid with the paper's five models.

    A pass runs the sweep for ``sweeps`` base seeds, so one seed's
    population does not set the whole run's figures.
    """

    name = "sweep"
    sweeps: int = 4
    thetas: str = "0.3,0.6"
    pms: str = "0.3,0.7"
    models: str = "lda,dt,random,feedback,stereo"
    agents: int = 50
    transactions: int = 150
    repeats: int = 1
    warmup: int = 10

    @property
    def grid_rows(self) -> int:
        return len(self.models.split(",")) * len(self.thetas.split(",")) * len(self.pms.split(","))

    def generate(self, seed: int, work: Path) -> dict[str, Any]:
        rng = np.random.default_rng([seed, 4])
        results = work / "results.csv"
        requests = [
            [
                "simulate",
                "--theta", self.thetas,
                "--pm", self.pms,
                "--models", self.models,
                "--agents", str(self.agents),
                "--transactions", str(self.transactions),
                "--repeats", str(self.repeats),
                "--warmup", str(self.warmup),
                "--seed", str(int(sim_seed)),
                "--out", str(results),
            ]  # fmt: skip
            for sim_seed in rng.integers(0, 2**31, size=self.sweeps)
        ]
        return {"requests": requests, "results": results}

    def build(self, program, inputs):
        return inputs["results"]

    def serve(self, program, results: Path, _, argv) -> Served:
        code, out, err, latency = _run_cli(program.cli, argv)
        if code != 0:
            raise CheckFailed(f"simulate exited {code}: {err.strip()}")
        text = results.read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != self.grid_rows:
            raise CheckFailed(f"results have {len(rows)} rows, grid has {self.grid_rows}")
        expected = self.repeats * self.transactions
        evaluated = errors = 0
        for row in rows:
            n_eval = int(row["n_eval"])
            if n_eval != expected:
                raise CheckFailed(f"{row['model']} cell evaluated {n_eval}, expected {expected}")
            overall = float(row["overall"])
            if not 0.0 <= overall <= 1.0:
                raise CheckFailed(f"{row['model']} falseness {overall} outside [0, 1]")
            evaluated += n_eval
            errors += int(round(overall * n_eval))
        return Served(latency, evaluated, errors, text)


WORKLOADS = {w.name: w for w in (LocalDeep(), OverlayThin(), CliWide(), Sweep())}
