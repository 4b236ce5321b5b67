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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import baselines, engine, lda, lkson
from .core import Outcome, Prediction, Transaction, TransactionLog, filter_by_context
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


@dataclass(frozen=True)
class Population:
    """Behavior assignment: per-agent malicious flag and misbehavior rate."""

    malicious: np.ndarray
    misbehave_prob: np.ndarray

    @property
    def n_malicious(self) -> int:
        return int(self.malicious.sum())


@dataclass
class ExperimentResult:
    metrics: Metrics
    trace: list[TrialRecord]
    confidence_min: float
    confidence_max: float


def generate_population(config: SimConfig, rng: np.random.Generator) -> Population:
    """Tag floor(p_malicious * n) agents malicious, placement shuffled."""
    config.validate()
    n = config.n_agents
    flags = np.zeros(n, dtype=bool)
    flags[: int(config.p_malicious * n)] = True
    flags = rng.permutation(flags)
    probs = np.where(flags, config.p_misbehave_malicious, config.p_misbehave_good)
    return Population(malicious=flags, misbehave_prob=probs)


def sample_features(outcome: Outcome, config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Independent per-feature draws; unsuccessful outcomes shift by theta."""
    shift = 0.0 if outcome is Outcome.SUCCESSFUL else config.theta
    return _features(config, shift, rng.standard_normal(config.d))


def _features(config: SimConfig, shift: float | np.ndarray, noise: np.ndarray) -> np.ndarray:
    return config.mu + shift + config.sigma * noise


def _draw_transactions(
    config: SimConfig, population: Population, trustors: np.ndarray, env: np.random.Generator
) -> tuple[list[int], list[Outcome], np.ndarray, list[float]]:
    """Provider, true outcome, features and lie draw of one transaction per trustor.

    The draw order (providers, outcome uniforms, lie uniforms, noise) fixes
    the environment stream; a bulk draw equals the same draws made one by one.
    """
    m = len(trustors)
    providers = env.integers(0, config.n_agents - 1, size=m)
    providers += providers >= trustors  # never the trustor itself
    failed = env.random(m) < population.misbehave_prob[providers]
    lie_u = env.random(m)
    noise = env.standard_normal((m, config.d))
    features = _features(config, np.where(failed, config.theta, 0.0)[:, None], noise)
    actual = [Outcome.UNSUCCESSFUL if f else Outcome.SUCCESSFUL for f in failed]
    return providers.tolist(), actual, features, lie_u.tolist()


def _agent_name(index: int) -> str:
    return f"a{index}"


class _SimState:
    """Mutable per-run state: logs, feedback, overlay, and model caches."""

    def __init__(self, config: SimConfig, population: Population, policy: np.random.Generator):
        self.config = config
        self.population = population
        self.policy = policy
        self.logs = [
            TransactionLog(owner=_agent_name(i), dimensionality=config.d)
            for i in range(config.n_agents)
        ]
        self.feedback = baselines.FeedbackStore()
        self.overlay = lkson.OverlayGraph(
            supplier=self._supply_tuples, fanout=config.request_fanout
        )
        self._population_contexts = {
            _agent_name(i): (SIM_CONTEXT,) for i in range(config.n_agents)
        }
        # each provider's tuple for its current log (None: it cannot train);
        # record() drops an entry when that log grows. Every simulated
        # transaction and request is in SIM_CONTEXT, so one entry per provider.
        self._tuples: dict[str, lkson.KnowledgeTuple | None] = {}

    def _supply_tuples(self, providers: Sequence[str], context: str) -> list[lkson.KnowledgeTuple]:
        for provider in providers:
            if provider not in self._tuples:
                self._tuples[provider] = self._train_tuple(provider, context)
        return [k for k in map(self._tuples.get, providers) if k is not None]

    def _train_tuple(self, provider: str, context: str) -> lkson.KnowledgeTuple | None:
        log = self.logs[int(provider[1:])]
        # the whole log's class counts bound its in-context ones: below the
        # threshold lda.train would only raise InsufficientKnowledge
        if min(log.class_counts()) < self.config.min_class_count:
            return None
        try:
            model = lda.train(
                filter_by_context(log, context), min_class_count=self.config.min_class_count
            )
            return lkson.share_knowledge(provider, model, context)
        except (InsufficientKnowledge, DegenerateClasses):
            return None

    def ensure_providers(self, trustor: int) -> None:
        name = _agent_name(trustor)
        if self.overlay.provider_list(name) is None:
            providers = lkson.bootstrap_providers(
                name,
                self._population_contexts,
                self.config.provider_list_size,
                self.policy,
                context=SIM_CONTEXT,
            )
            self.overlay.register_providers(name, providers)

    def record(self, trustor: int, provider: int, tid: str, features: np.ndarray,
               actual: Outcome, lie_draw: float) -> None:
        provider_name = _agent_name(provider)
        entry = Transaction(tid, provider_name, SIM_CONTEXT, tuple(features), actual)
        self.logs[trustor].append(entry)
        self._tuples.pop(_agent_name(trustor), None)
        # the trustor shares a rating, inverted when it lies this time
        rating = actual
        if lie_draw < self.population.misbehave_prob[trustor]:
            rating = (
                Outcome.UNSUCCESSFUL if actual is Outcome.SUCCESSFUL else Outcome.SUCCESSFUL
            )
        self.feedback.add(
            baselines.FeedbackRecord(rater=_agent_name(trustor), target=provider_name, rating=rating)
        )


def _predict(
    state: _SimState, trustor: int, provider: int, features: np.ndarray, round_no: int
) -> tuple[Prediction, str, tuple[lkson.KnowledgeTuple, ...]]:
    config = state.config
    model = config.model
    if model == "random":
        return baselines.random_select(state.policy), engine.SOURCE_LOCAL, ()
    if model == "feedback":
        prediction = baselines.aggregate_feedback(
            _agent_name(provider),
            state.feedback,
            baselines.majority_outcomes(state.logs[trustor]),
            requester=_agent_name(trustor),
        )
        return prediction, engine.SOURCE_LOCAL, ()
    if model == "stereo":
        log = state.logs[trustor]
        try:
            prediction = baselines.stereotrust_predict(log, features)
        except EmptySet:
            prediction = Prediction(Outcome.UNSUCCESSFUL, 0.0, "Baseline-StereoTrust")
        return prediction, engine.SOURCE_LOCAL, ()

    algorithms = {"lda": ("lda",), "dt": ("dt",), "combined": ("lda", "dt")}[model]
    state.ensure_providers(trustor)
    candidate = Transaction(
        f"c{round_no}", _agent_name(provider), SIM_CONTEXT, tuple(features), None
    )
    try:
        assessment = engine.assess(
            state.logs[trustor],
            candidate,
            overlay=state.overlay,
            min_class_count=config.min_class_count,
            algorithms=algorithms,
        )
    except InsufficientKnowledge:
        # no local knowledge and no provider could answer: risk-averse call
        tag = {"lda": "LDA", "dt": "DT", "combined": "Combined"}[model]
        return Prediction(Outcome.UNSUCCESSFUL, 0.0, tag), engine.SOURCE_LOCAL, ()
    return assessment.chosen, assessment.knowledge_source, assessment.providers_used


def run_experiment(config: SimConfig, collect_trace: bool = True) -> ExperimentResult:
    """Run one seeded experiment and tally prediction errors.

    Every round pairs a random trustor with a random distinct provider,
    draws the true outcome from the provider's behavior, asks the model for
    a prediction before revealing it, then lets the trustor log the
    completed transaction and share (possibly false) feedback. Overlay trust
    updates run whenever third-party knowledge answered the assessment.
    """
    config.validate()
    env_seq, policy_seq = np.random.SeedSequence(config.seed).spawn(2)
    env = np.random.Generator(np.random.PCG64(env_seq))
    policy = np.random.Generator(np.random.PCG64(policy_seq))

    population = generate_population(config, env)
    state = _SimState(config, population, policy)
    if config.warmup:
        trustors = np.repeat(np.arange(config.n_agents), config.warmup)
        draws = _draw_transactions(config, population, trustors, env)
        for k, (trustor, provider, actual, features, lie) in enumerate(zip(trustors.tolist(), *draws)):
            state.record(trustor, provider, f"w{k % config.warmup}", features, actual, lie)

    rounds = config.n_transactions
    trustors = env.integers(0, config.n_agents, size=rounds)
    draws = _draw_transactions(config, population, trustors, env)

    false_positives = false_negatives = 0
    trace: list[TrialRecord] = []
    conf_min, conf_max = 1.0, 0.0

    for i, (trustor, provider, actual, features, lie) in enumerate(zip(trustors.tolist(), *draws)):
        prediction, source, providers_used = _predict(state, trustor, provider, features, i)

        if prediction.label is Outcome.SUCCESSFUL and actual is Outcome.UNSUCCESSFUL:
            false_positives += 1
        elif prediction.label is Outcome.UNSUCCESSFUL and actual is Outcome.SUCCESSFUL:
            false_negatives += 1
        conf_min = min(conf_min, prediction.confidence)
        conf_max = max(conf_max, prediction.confidence)
        if collect_trace:
            trace.append(
                TrialRecord(
                    round=i,
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
                state.overlay, _agent_name(trustor), providers_used, actual, features, policy
            )
        state.record(trustor, provider, f"r{i}", features, actual, lie)

    metrics = Metrics(false_positives, false_negatives, rounds)
    return ExperimentResult(metrics, trace, conf_min, conf_max)


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
    model comparisons are paired.
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
    """One experiment cell per (model, theta, p_m), repeated with derived seeds."""
    if not theta_values or not pm_values:
        raise ConfigError("theta and p_m value lists must be non-empty")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    models = tuple(models) if models is not None else (base.model,)
    if not models:
        raise ConfigError("model list must be non-empty")
    for model in models:
        if model not in MODELS:
            raise ConfigError(f"unknown model {model!r}; choose from {MODELS}")

    rows = []
    for model in models:
        for theta in theta_values:
            for p_m in pm_values:
                fp, fn, overall, n_eval = [], [], [], 0
                for rep in range(repeats):
                    config = replace(
                        base,
                        model=model,
                        theta=theta,
                        p_malicious=p_m,
                        seed=cell_seed(base.seed, p_m, rep),
                    )
                    result = run_experiment(config, collect_trace=False)
                    fp.append(result.metrics.false_positive_rate)
                    fn.append(result.metrics.false_negative_rate)
                    overall.append(result.metrics.overall_falseness)
                    n_eval += result.metrics.n_evaluated
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
                        n_eval=n_eval,
                    )
                )
    return rows


RESULTS_HEADER = (
    "model,theta,p_m,seed_group,fp_rate,fp_std,fn_rate,fn_std,overall,overall_std,n_eval"
)


def write_results_csv(rows: Iterable[SweepRow], path: str | Path) -> None:
    """Stable-order results table, floats fixed at six decimals."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER.split(","))
        for row in rows:
            writer.writerow(
                [
                    row.model,
                    f"{row.theta:.6f}",
                    f"{row.p_m:.6f}",
                    row.seed_group,
                    f"{row.fp_rate:.6f}",
                    f"{row.fp_std:.6f}",
                    f"{row.fn_rate:.6f}",
                    f"{row.fn_std:.6f}",
                    f"{row.overall:.6f}",
                    f"{row.overall_std:.6f}",
                    row.n_eval,
                ]
            )
