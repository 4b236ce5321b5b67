"""Synthetic-population experiments: generate agents and transactions, score
a predictor's calls before each outcome is revealed, and sweep the
separability / malicious-fraction grid.

Environment randomness (pairing, outcomes, feature noise, feedback lies) is
drawn from a dedicated stream seeded independently of the model under test,
so different models at the same seed face the identical transaction history
and per-seed comparisons are paired.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import baselines, engine, lda, lkson
from .core import Outcome, Prediction, Transaction, TransactionLog
from .core import filter_by_context  # noqa: F401  (not called; perfbench's tracer test patches it)
from .errors import ConfigError, DegenerateClasses, EmptySet, InsufficientKnowledge

MODELS = ("lda", "dt", "combined", "random", "feedback", "stereo")
DEFAULT_MODELS = ("lda", "dt", "random", "feedback", "stereo")
SIM_CONTEXT = "synthetic"


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one synthetic experiment.

    ``theta`` separates the feature distributions of successful and
    unsuccessful transactions (larger is more learnable); ``p_malicious``
    is the fraction of agents behaving badly most of the time.
    """

    n_agents: int
    n_transactions: int
    model: str = "lda"
    p_malicious: float = 0.5
    p_misbehave_good: float = 0.15
    p_misbehave_malicious: float = 0.85
    theta: float = 0.5
    mu: float = 1.0
    sigma: float = 0.1
    d: int = 4
    seed: int = 0
    warmup: int = 10
    provider_list_size: int = 60
    request_fanout: int | None = None
    min_class_count: int = lda.DEFAULT_MIN_CLASS_COUNT

    def validate(self) -> None:
        if self.n_agents < 2:
            raise ConfigError(f"n_agents must be >= 2, got {self.n_agents}")
        if self.n_transactions < 1:
            raise ConfigError(f"n_transactions must be >= 1, got {self.n_transactions}")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODELS}")
        for name in ("p_malicious", "p_misbehave_good", "p_misbehave_malicious"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} out of [0,1]: {value}")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta out of [0,1]: {self.theta}")
        if self.sigma <= 0.0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {self.warmup}")
        if self.provider_list_size < 0:
            raise ConfigError(f"provider_list_size must be >= 0, got {self.provider_list_size}")
        if self.request_fanout is not None and self.request_fanout < 1:
            raise ConfigError(f"request_fanout must be >= 1, got {self.request_fanout}")
        if self.min_class_count < 1:
            raise ConfigError(f"min_class_count must be >= 1, got {self.min_class_count}")


@dataclass(frozen=True)
class Metrics:
    """Prediction-error tallies over the evaluated transactions.

    A false positive predicted safe on a transaction that failed; a false
    negative predicted risky on one that succeeded. Both rates share the
    same denominator (all evaluated transactions) so the overall falseness
    is exactly their sum.
    """

    false_positives: int
    false_negatives: int
    n_evaluated: int

    @property
    def false_positive_rate(self) -> float:
        return self.false_positives / self.n_evaluated

    @property
    def false_negative_rate(self) -> float:
        return self.false_negatives / self.n_evaluated

    @property
    def overall_falseness(self) -> float:
        return self.false_positive_rate + self.false_negative_rate


@dataclass(frozen=True)
class TrialRecord:
    round: int
    trustor: int
    provider: int
    predicted: Outcome
    confidence: float
    algorithm: str
    knowledge_source: str
    actual: Outcome


@dataclass
class ExperimentResult:
    metrics: Metrics
    trace: list[TrialRecord]
    confidence_min: float
    confidence_max: float


def generate_population(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-agent misbehavior probabilities: floor(p_malicious * n) agents
    malicious, placement shuffled."""
    config.validate()
    n = config.n_agents
    flags = np.zeros(n, dtype=bool)
    flags[: int(config.p_malicious * n)] = True
    flags = rng.permutation(flags)
    return np.where(flags, config.p_misbehave_malicious, config.p_misbehave_good)


def _features(config: SimConfig, shift: float | np.ndarray, noise: np.ndarray) -> np.ndarray:
    return config.mu + shift + config.sigma * noise


def _draw_transactions(
    config: SimConfig, misbehave_prob: np.ndarray, trustors: np.ndarray, env: np.random.Generator
) -> tuple[list[int], list[Outcome], np.ndarray, list[float]]:
    """Provider, true outcome, features and lie draw of one transaction per trustor.

    The draw order (providers, outcome uniforms, lie uniforms, noise) fixes
    the environment stream; a bulk draw equals the same draws made one by one.
    """
    m = len(trustors)
    providers = env.integers(0, config.n_agents - 1, size=m)
    providers += providers >= trustors  # never the trustor itself
    failed = env.random(m) < misbehave_prob[providers]
    lie_u = env.random(m)
    noise = env.standard_normal((m, config.d))
    features = _features(config, np.where(failed, config.theta, 0.0)[:, None], noise)
    actual = [Outcome.UNSUCCESSFUL if f else Outcome.SUCCESSFUL for f in failed]
    return providers.tolist(), actual, features, lie_u.tolist()


def _agent_name(index: int) -> str:
    return f"a{index}"


class _SimState:
    """One environment, shared by every model run over it: logs, feedback,
    the agents' names in population order and the ready set, the agents whose
    log holds ``min_class_count`` entries of each class (counts only grow, so
    an agent never leaves it)."""

    def __init__(self, config: SimConfig, misbehave_prob: np.ndarray):
        self.config = config
        self.misbehave_prob = misbehave_prob
        self.logs = [
            TransactionLog(owner=_agent_name(i), dimensionality=config.d)
            for i in range(config.n_agents)
        ]
        self._log_of = {log.owner: log for log in self.logs}
        self.ready: set[str] = set()
        self.feedback = baselines.FeedbackStore()
        self.agents = tuple(log.owner for log in self.logs)

    def _supply_tuples(self, providers: Sequence[str], context: str) -> list[lkson.KnowledgeTuple]:
        # a provider outside the ready set cannot train (its whole log's class
        # counts bound its in-context ones); a ready one's tuple (None: it
        # cannot train) is made once per log state and shares its LDA model
        # with the owner's local assessment
        mcc, ready, log_of = self.config.min_class_count, self.ready, self._log_of
        key, compute = ("tuple", context, mcc), lambda log: _knowledge(log, context, mcc)
        found = [log_of[p].derived(key, compute) for p in providers if p in ready]
        return [k for k in found if k is not None]

    def record(self, trustor: int, provider: int, tid: str, features: np.ndarray,
               actual: Outcome, lie_draw: float) -> None:
        provider_name = _agent_name(provider)
        entry = Transaction(tid, provider_name, SIM_CONTEXT, tuple(features), actual)
        log = self.logs[trustor]
        log.append(entry)
        if min(log.class_counts()) >= self.config.min_class_count:
            self.ready.add(log.owner)
        # the trustor shares a rating, inverted when it lies this time
        rating = actual
        if lie_draw < self.misbehave_prob[trustor]:
            rating = (
                Outcome.UNSUCCESSFUL if actual is Outcome.SUCCESSFUL else Outcome.SUCCESSFUL
            )
        self.feedback.add(
            baselines.FeedbackRecord(rater=_agent_name(trustor), target=provider_name, rating=rating)
        )


def _knowledge(log: TransactionLog, context: str, min_class_count: int) -> lkson.KnowledgeTuple | None:
    """A provider's tuple for its current log, or None while it cannot train."""
    try:
        model = lda.log_model(log.context_view(context), min_class_count)
        return lkson.share_knowledge(log.owner, model, context)
    except (InsufficientKnowledge, DegenerateClasses):
        return None


class _Predictor:
    """One model's side of an environment: its policy stream, overlay and tallies.

    It reads the shared world but changes only its own policy stream and
    overlay (provider lists and trust edges), so its calls are those of a
    run on its own.
    """

    def __init__(self, config: SimConfig, world: _SimState, policy_seq: np.random.SeedSequence):
        self.config = config
        self.world = world
        self.policy = np.random.Generator(np.random.PCG64(policy_seq))
        self.overlay = lkson.OverlayGraph(
            supplier=world._supply_tuples, fanout=config.request_fanout
        )
        self.false_positives = self.false_negatives = 0
        self.trace: list[TrialRecord] = []
        self.conf_min, self.conf_max = 1.0, 0.0

    def ensure_providers(self, trustor: int) -> None:
        name = _agent_name(trustor)
        if self.overlay.provider_list(name) is None:
            providers = lkson.bootstrap_providers(
                trustor, self.world.agents, self.config.provider_list_size, self.policy
            )
            self.overlay.register_providers(name, providers)

    def predict(
        self, trustor: int, provider: int, features: np.ndarray, round_no: int
    ) -> tuple[Prediction, str, tuple[lkson.KnowledgeTuple, ...]]:
        world, model = self.world, self.config.model
        if model == "random":
            return baselines.random_select(self.policy), engine.SOURCE_LOCAL, ()
        if model == "feedback":
            prediction = baselines.aggregate_feedback(
                _agent_name(provider),
                world.feedback,
                baselines.majority_outcomes(world.logs[trustor]),
                requester=_agent_name(trustor),
            )
            return prediction, engine.SOURCE_LOCAL, ()
        if model == "stereo":
            # the whole log (all in SIM_CONTEXT), sharing intervals with DT's view
            view = world.logs[trustor].context_view(SIM_CONTEXT)
            try:
                prediction = baselines.stereotrust_predict(view, features)
            except EmptySet:
                prediction = Prediction(Outcome.UNSUCCESSFUL, 0.0, "Baseline-StereoTrust")
            return prediction, engine.SOURCE_LOCAL, ()

        algorithms = {"lda": ("lda",), "dt": ("dt",), "combined": ("lda", "dt")}[model]
        self.ensure_providers(trustor)
        candidate = Transaction(
            f"c{round_no}", _agent_name(provider), SIM_CONTEXT, tuple(features), None
        )
        try:
            assessment = engine.assess(
                world.logs[trustor],
                candidate,
                overlay=self.overlay,
                min_class_count=self.config.min_class_count,
                algorithms=algorithms,
            )
        except InsufficientKnowledge:
            # no local knowledge and no provider could answer: risk-averse call
            tag = {"lda": "LDA", "dt": "DT", "combined": "Combined"}[model]
            return Prediction(Outcome.UNSUCCESSFUL, 0.0, tag), engine.SOURCE_LOCAL, ()
        return assessment.chosen, assessment.knowledge_source, assessment.providers_used

    def step(self, round_no: int, trustor: int, provider: int, actual: Outcome,
             features: np.ndarray, collect_trace: bool) -> None:
        """Predict one round, score the call, then update overlay trust."""
        prediction, source, providers_used = self.predict(trustor, provider, features, round_no)

        if prediction.label is Outcome.SUCCESSFUL and actual is Outcome.UNSUCCESSFUL:
            self.false_positives += 1
        elif prediction.label is Outcome.UNSUCCESSFUL and actual is Outcome.SUCCESSFUL:
            self.false_negatives += 1
        self.conf_min = min(self.conf_min, prediction.confidence)
        self.conf_max = max(self.conf_max, prediction.confidence)
        if collect_trace:
            self.trace.append(
                TrialRecord(
                    round=round_no,
                    trustor=trustor,
                    provider=provider,
                    predicted=prediction.label,
                    confidence=prediction.confidence,
                    algorithm=prediction.algorithm,
                    knowledge_source=source,
                    actual=actual,
                )
            )

        if providers_used:
            lkson.post_transaction_update(
                self.overlay, _agent_name(trustor), providers_used, actual, features, self.policy
            )

    def result(self) -> ExperimentResult:
        metrics = Metrics(self.false_positives, self.false_negatives, self.config.n_transactions)
        return ExperimentResult(metrics, self.trace, self.conf_min, self.conf_max)


def run_experiment(config: SimConfig, collect_trace: bool = True) -> ExperimentResult:
    """Run one seeded experiment and tally prediction errors.

    The one-model case of ``run_experiments``: ``config``'s result there is
    the same whatever other models share its environment.
    """
    return run_experiments([config], collect_trace)[0]


def run_experiments(
    configs: Sequence[SimConfig], collect_trace: bool = True
) -> list[ExperimentResult]:
    """Run models over one seeded environment; one result per config.

    The configs must be equal except for ``model``. Every round pairs a
    random trustor with a random distinct provider and draws the true
    outcome from the provider's behavior. Each model predicts before the
    outcome is revealed, then updates its own overlay trust whenever
    third-party knowledge answered it. The trustor then logs the completed
    transaction and shares (possibly false) feedback, once for all models.

    Each model's result equals a run on its own, because recording never
    reads a prediction, the environment stream does not depend on the
    model, and what the models derive from a log (its LDA model, intervals
    and tuple) depends only on the log state, the context and
    ``min_class_count``.
    """
    if not configs:
        raise ConfigError("run_experiments needs at least one config")
    base = configs[0]
    for config in configs:
        config.validate()
        if replace(config, model=base.model) != base:
            raise ConfigError("configs of one environment may differ only in model")
    env_seq, policy_seq = np.random.SeedSequence(base.seed).spawn(2)
    env = np.random.Generator(np.random.PCG64(env_seq))

    misbehave_prob = generate_population(base, env)
    world = _SimState(base, misbehave_prob)
    if base.warmup:
        trustors = np.repeat(np.arange(base.n_agents), base.warmup)
        draws = _draw_transactions(base, misbehave_prob, trustors, env)
        for k, (trustor, provider, actual, features, lie) in enumerate(zip(trustors.tolist(), *draws)):
            world.record(trustor, provider, f"w{k % base.warmup}", features, actual, lie)

    trustors = env.integers(0, base.n_agents, size=base.n_transactions)
    draws = _draw_transactions(base, misbehave_prob, trustors, env)
    predictors = [_Predictor(config, world, policy_seq) for config in configs]

    for i, (trustor, provider, actual, features, lie) in enumerate(zip(trustors.tolist(), *draws)):
        for predictor in predictors:
            predictor.step(i, trustor, provider, actual, features, collect_trace)
        world.record(trustor, provider, f"r{i}", features, actual, lie)

    return [predictor.result() for predictor in predictors]


@dataclass(frozen=True)
class SweepRow:
    """One (model, theta, p_m) cell aggregated over its repeat runs."""

    model: str
    theta: float
    p_m: float
    seed_group: int
    fp_rate: float
    fp_std: float
    fn_rate: float
    fn_std: float
    overall: float
    overall_std: float
    n_eval: int


def cell_seed(base_seed: int, p_m: float, repeat: int) -> int:
    """Derived per-run seed, shared across models and theta values.

    Excluding theta and the model keeps the environment stream identical
    across those axes: feature shifts change, but pairings and outcomes do
    not, so the random baseline is exactly theta-invariant and per-seed
    model comparisons are paired. ``sweep`` therefore runs a cell's models
    over one shared environment.
    """
    seq = np.random.SeedSequence([base_seed, int(round(p_m * 1_000_000)), repeat])
    return int(seq.generate_state(1, np.uint64)[0])


def sweep(
    base: SimConfig,
    theta_values: Sequence[float],
    pm_values: Sequence[float],
    models: Sequence[str] | None = None,
    repeats: int = 10,
) -> list[SweepRow]:
    """One result row per (model, theta, p_m), each over ``repeats`` derived seeds.

    Each (theta, p_m, repeat) cell runs all models over one environment
    with ``run_experiments``; rows come model by model, then theta, then
    p_m. A repeated model, theta or p_m value raises ``ConfigError``.
    """
    if not theta_values or not pm_values:
        raise ConfigError("theta and p_m value lists must be non-empty")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    models = tuple(models) if models is not None else (base.model,)
    if not models:
        raise ConfigError("model list must be non-empty")
    for model in models:
        replace(base, model=model).validate()
    for name, values in (("model", models), ("theta", theta_values), ("p_m", pm_values)):
        repeated = [value for value, n in Counter(values).items() if n > 1]
        if repeated:
            raise ConfigError(f"{name} value {repeated[0]!r} is repeated")

    def run_cell(theta: float, p_m: float, rep: int) -> list[ExperimentResult]:
        cell = replace(base, theta=theta, p_malicious=p_m, seed=cell_seed(base.seed, p_m, rep))
        return run_experiments([replace(cell, model=model) for model in models], collect_trace=False)

    grid = [(theta, p_m) for theta in theta_values for p_m in pm_values]
    cells = [[run_cell(theta, p_m, rep) for rep in range(repeats)] for theta, p_m in grid]

    rows = []
    for k, model in enumerate(models):
        for (theta, p_m), runs in zip(grid, cells):
            metrics = [results[k].metrics for results in runs]
            fp = [m.false_positive_rate for m in metrics]
            fn = [m.false_negative_rate for m in metrics]
            overall = [m.overall_falseness for m in metrics]
            rows.append(
                SweepRow(
                    model=model,
                    theta=float(theta),
                    p_m=float(p_m),
                    seed_group=base.seed,
                    fp_rate=float(np.mean(fp)),
                    fp_std=float(np.std(fp)),
                    fn_rate=float(np.mean(fn)),
                    fn_std=float(np.std(fn)),
                    overall=float(np.mean(overall)),
                    overall_std=float(np.std(overall)),
                    n_eval=sum(m.n_evaluated for m in metrics),
                )
            )
    return rows


def write_results_csv(rows: Iterable[SweepRow], path: str | Path) -> None:
    """Stable-order results table: one column per ``SweepRow`` field, in
    field order, floats fixed at six decimals."""
    names = [f.name for f in fields(SweepRow)]
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            values = (getattr(row, name) for name in names)
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else v for v in values])
