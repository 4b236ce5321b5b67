"""Synthetic experiment harness: population protocol, feature generation,
metric identities, determinism, and the sweep table."""

from __future__ import annotations

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from trustlens import lda, lkson, sim
from trustlens.core import Outcome, filter_by_context
from trustlens.errors import ConfigError, DegenerateClasses, InsufficientKnowledge
from trustlens.sim import (
    MODELS,
    Metrics,
    SimConfig,
    SweepRow,
    cell_seed,
    generate_population,
    run_experiment,
    run_experiments,
    sample_features,
    sweep,
    write_results_csv,
)

S = Outcome.SUCCESSFUL
U = Outcome.UNSUCCESSFUL


def test_generate_population_counts():
    rng = np.random.default_rng(0)
    config = SimConfig(n_agents=10_000, n_transactions=1, p_malicious=0.5)
    probs = generate_population(config, rng)
    assert (probs == config.p_misbehave_malicious).sum() == 5_000

    config = SimConfig(n_agents=100, n_transactions=1, p_malicious=0.0)
    assert (generate_population(config, rng) == config.p_misbehave_malicious).sum() == 0
    config = SimConfig(n_agents=100, n_transactions=1, p_malicious=1.0)
    assert (generate_population(config, rng) == config.p_misbehave_malicious).sum() == 100


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(n_agents=1, n_transactions=10).validate()
    with pytest.raises(ConfigError):
        SimConfig(n_agents=10, n_transactions=10, theta=1.5).validate()
    with pytest.raises(ConfigError):
        SimConfig(n_agents=10, n_transactions=10, model="nope").validate()
    with pytest.raises(ConfigError):
        SimConfig(n_agents=10, n_transactions=10, sigma=0.0).validate()
    for fanout in (0, -1):
        with pytest.raises(ConfigError):
            SimConfig(n_agents=10, n_transactions=10, request_fanout=fanout).validate()
    SimConfig(n_agents=10, n_transactions=10, request_fanout=1).validate()


def test_sample_features_distribution():
    config0 = SimConfig(n_agents=10, n_transactions=1, theta=0.0)
    rng = np.random.default_rng(1)
    means_s = np.mean([sample_features(S, config0, rng) for _ in range(10_000)], axis=0)
    means_u = np.mean([sample_features(U, config0, rng) for _ in range(10_000)], axis=0)
    assert np.all(np.abs(means_s - means_u) < 0.01)

    config8 = SimConfig(n_agents=10, n_transactions=1, theta=0.8)
    rng = np.random.default_rng(2)
    means_s = np.mean([sample_features(S, config8, rng) for _ in range(10_000)], axis=0)
    means_u = np.mean([sample_features(U, config8, rng) for _ in range(10_000)], axis=0)
    assert np.all(np.abs((means_u - means_s) - 0.8) < 0.01)


def test_sample_features_reproducible():
    config = SimConfig(n_agents=10, n_transactions=1, theta=0.4)
    a = sample_features(S, config, np.random.default_rng(7))
    b = sample_features(S, config, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_random_model_falseness_near_half():
    config = SimConfig(n_agents=50, n_transactions=4000, model="random", seed=3, warmup=0)
    result = run_experiment(config, collect_trace=False)
    assert abs(result.metrics.overall_falseness - 0.5) < 0.03


def test_lda_with_no_signal_is_a_coin_flip():
    config = SimConfig(n_agents=200, n_transactions=2000, model="lda", theta=0.0, seed=5)
    result = run_experiment(config, collect_trace=False)
    assert abs(result.metrics.overall_falseness - 0.5) < 0.05


def _independent_lda_label(group_s, group_u, p):
    """Re-derivation of the discriminant via a generic eigensolve."""
    gs, gu = np.asarray(group_s, float), np.asarray(group_u, float)
    n_s, n_u = len(gs), len(gu)
    n = n_s + n_u
    cs, cu = gs.mean(axis=0), gu.mean(axis=0)
    c = (n_s * cs + n_u * cu) / n
    sw = (
        n_s * ((gs - cs).T @ (gs - cs) / n_s) + n_u * ((gu - cu).T @ (gu - cu) / n_u)
    ) / n
    sb = (n_s * np.outer(cs - c, cs - c) + n_u * np.outer(cu - c, cu - c)) / n
    eigenvalues, eigenvectors = np.linalg.eig(np.linalg.solve(sw, sb))
    v = np.real(eigenvectors[:, np.argmax(np.real(eigenvalues))])
    dist_s, dist_u = abs(v @ p - v @ cs), abs(v @ p - v @ cu)
    label = S if dist_u > dist_s else U
    margin = abs(dist_s - dist_u) / (dist_s + dist_u) if dist_s + dist_u else 0.0
    return label, margin


def test_lda_scaled_down_replication_with_independent_check():
    config = SimConfig(n_agents=1000, n_transactions=2500, model="lda", theta=0.8, seed=9)
    result = run_experiment(config, collect_trace=False)
    assert result.metrics.overall_falseness < 0.15

    # same generator, independent pipeline: labels must agree off the margin
    from trustlens import lda

    rng = np.random.default_rng(config.seed)
    for _ in range(100):
        group_s = [sample_features(S, config, rng) for _ in range(4)]
        group_u = [sample_features(U, config, rng) for _ in range(4)]
        from conftest import make_log

        model = lda.train(make_log(group_s, group_u))
        p = sample_features(S if rng.random() < 0.5 else U, config, rng)
        mine = lda.classify(model, p)[2]
        oracle_label, margin = _independent_lda_label(group_s, group_u, p)
        if margin > 1e-9:
            assert mine is oracle_label


def test_metrics_identity_and_determinism():
    config = SimConfig(n_agents=60, n_transactions=400, model="lda", theta=0.4, seed=21)
    a = run_experiment(config)
    b = run_experiment(config)
    m = a.metrics
    assert m.overall_falseness == m.false_positive_rate + m.false_negative_rate
    assert (m.false_positives, m.false_negatives, m.n_evaluated) == (
        b.metrics.false_positives,
        b.metrics.false_negatives,
        b.metrics.n_evaluated,
    )
    assert [(t.predicted, t.actual) for t in a.trace] == [
        (t.predicted, t.actual) for t in b.trace
    ]


def test_environment_stream_is_model_independent():
    base = SimConfig(n_agents=60, n_transactions=300, theta=0.6, seed=33)
    traces = {}
    for model in ("lda", "dt", "random", "feedback", "stereo"):
        result = run_experiment(SimConfig(**{**base.__dict__, "model": model}))
        traces[model] = [(t.trustor, t.provider, t.actual) for t in result.trace]
    reference = traces["lda"]
    assert all(traces[m] == reference for m in traces)


# (false positives, false negatives) and a sha256 over the per-round
# (trustor, provider, actual, predicted, knowledge source) sequence, recorded
# before the warmup and round loops were merged into one transaction draw.
PINNED_TRACES = {
    ("lda", 0): ((18, 48), "39b568559061092173e80686f285845a6a326655126a5d1a8602749f87192432"),
    ("dt", 0): ((39, 75), "0041ccd1499cb3d0bae08bd568176b450039d960c54ebf8f62dd836f39b21e5a"),
    ("combined", 0): ((34, 73), "c83a734262bc38f554efcdc68597e22ee5a7d2d0a8f1af1974256e960faa619d"),
    ("random", 0): ((90, 115), "ce0be68e81a37c1675eb8e30dbee51bd84d748ca5709a9fbb0339d420c031dab"),
    ("feedback", 0): ((42, 101), "2cfcd18b6f7d4495af0fab4751e9adefc6d973e1edb861006943b71e3cd10847"),
    ("stereo", 0): ((31, 63), "9c0eb1253af1def42c3af49f0a34cba37b34bbf5c20523188b8ee55f4fbe1913"),
    ("lda", 5): ((23, 31), "af537d0da6e2b3d4f160e01352c1c511ae26f188c031c386b8407b29a9ebedd0"),
    ("dt", 5): ((46, 64), "be7a5fabb9e832b76f28952cfd9411453c55f6b159033b90f1581a59242cec23"),
    ("combined", 5): ((42, 59), "f09146cbf5431623e0ee197a53ba5ab09e65631f776a639b19a5f8f77b538ad2"),
    ("random", 5): ((101, 102), "3eac2e5fcac1f1d114eb7af56aa67cda6d874098db198f38525df45907e99b78"),
    ("feedback", 5): ((42, 76), "be22fda901e2cd0cc181e0bd3a5db21adbf2040512622519cf94b895e6340bf4"),
    ("stereo", 5): ((41, 46), "a1dbd0fec7d827a88951ac816aa2e1595d21a6df83c7295666af9b44910caf0d"),
}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("warmup", (0, 5))
def test_trace_is_pinned(model, warmup):
    config = SimConfig(
        n_agents=16, n_transactions=400, model=model, theta=0.15, seed=11,
        warmup=warmup, provider_list_size=10,
    )
    result = run_experiment(config)
    digest = hashlib.sha256()
    for t in result.trace:
        digest.update(
            f"{t.trustor},{t.provider},{t.actual.name},{t.predicted.name},{t.knowledge_source}\n".encode()
        )
    counts = (result.metrics.false_positives, result.metrics.false_negatives)
    assert (counts, digest.hexdigest()) == PINNED_TRACES[(model, warmup)]


def _retrained_tuple(log, context, min_class_count):
    """A provider's tuple trained from scratch on its whole current log."""
    try:
        model = lda.train(filter_by_context(log, context), min_class_count=min_class_count)
        return lkson.share_knowledge(log.owner, model, context)
    except (InsufficientKnowledge, DegenerateClasses):
        return None


def _tuple_bits(knowledge):
    """A tuple's provider, context and model arrays, compared bit for bit."""
    model = knowledge.model
    arrays = (model.direction, model.centroid_successful, model.centroid_unsuccessful)
    return (knowledge.provider, knowledge.context) + tuple(a.tobytes() for a in arrays)


def _check_supplier_cache(monkeypatch, configs, min_class_count):
    """Every supplier answer equals retraining, and each log state trains once."""
    real_supply, real_train = sim._SimState._supply_tuples, lda.train
    requests, trained = [], []
    in_supplier = []

    def checked_supply(state, providers, context):
        in_supplier.append(True)
        try:
            got = real_supply(state, providers, context)
        finally:
            in_supplier.pop()
        logs = [state.logs[int(p[1:])] for p in providers]
        expected = [
            knowledge
            for knowledge in (_retrained_tuple(log, context, min_class_count) for log in logs)
            if knowledge is not None
        ]
        assert [_tuple_bits(k) for k in got] == [_tuple_bits(k) for k in expected]
        requests.append(len(got))
        return got

    def counting_train(log, *args, **kwargs):
        if in_supplier:
            assert min(log.class_counts()) >= min_class_count
            trained.append((log.owner, len(log)))
        return real_train(log, *args, **kwargs)

    monkeypatch.setattr(sim._SimState, "_supply_tuples", checked_supply)
    monkeypatch.setattr(lda, "train", counting_train)
    run_experiments(configs, collect_trace=False)
    assert requests and any(requests)  # overlay requests ran and some were answered
    assert trained and len(trained) == len(set(trained))  # one training per log state


def _cache_config(model, warmup, fanout, min_class_count):
    return SimConfig(
        n_agents=30, n_transactions=300, model=model, theta=0.6, p_malicious=0.0, seed=17,
        warmup=warmup, provider_list_size=12, request_fanout=fanout,
        min_class_count=min_class_count,
    )


@pytest.mark.parametrize("min_class_count", (1, 3))
@pytest.mark.parametrize("fanout", (None, 5))
@pytest.mark.parametrize("warmup", (0, 2, 10))
def test_supplier_cache_equals_retraining(monkeypatch, warmup, fanout, min_class_count):
    config = _cache_config("lda", warmup, fanout, min_class_count)
    _check_supplier_cache(monkeypatch, [config], min_class_count)


@pytest.mark.parametrize("min_class_count", (1, 3))
@pytest.mark.parametrize("warmup", (0, 10))
def test_joint_run_trains_once_per_log_state(monkeypatch, warmup, min_class_count):
    # three overlay models read one cache: a log state trained for one is
    # never trained again for another
    configs = [
        _cache_config(model, warmup, 5, min_class_count) for model in ("lda", "dt", "combined")
    ]
    _check_supplier_cache(monkeypatch, configs, min_class_count)


def _run_digest(result):
    return (result.metrics, result.trace, result.confidence_min, result.confidence_max)


@pytest.mark.parametrize("min_class_count", (1, 3))
@pytest.mark.parametrize("fanout", (None, 3))
@pytest.mark.parametrize("warmup", (0, 2, 5))
def test_run_experiments_equals_separate_runs(warmup, fanout, min_class_count):
    configs = [
        SimConfig(
            n_agents=16, n_transactions=150, model=model, theta=0.4, seed=23, warmup=warmup,
            provider_list_size=8, request_fanout=fanout, min_class_count=min_class_count,
        )
        for model in MODELS
    ]
    joint = run_experiments(configs)
    assert len(joint) == len(configs)
    for config, result in zip(configs, joint):
        alone = run_experiment(config)
        assert _run_digest(result) == _run_digest(alone), config.model
        assert len(result.trace) == config.n_transactions


def test_joint_run_shares_each_tuple_once(monkeypatch):
    real_share = lkson.share_knowledge
    shared = []

    def counting_share(*args, **kwargs):
        shared.append(args[0])
        return real_share(*args, **kwargs)

    monkeypatch.setattr(lkson, "share_knowledge", counting_share)
    base = SimConfig(n_agents=40, n_transactions=300, theta=0.6, seed=29, warmup=3)
    run_experiment(base, collect_trace=False)
    alone = len(shared)
    shared.clear()
    run_experiments([base, replace(base, model="dt")], collect_trace=False)
    assert alone > 0 and len(shared) == alone


# a valid value other than the default for every field but model
_OTHER_FIELD_VALUES = {
    "n_agents": 11, "n_transactions": 6, "p_malicious": 0.3, "p_misbehave_good": 0.2,
    "p_misbehave_malicious": 0.8, "theta": 0.3, "mu": 2.0, "sigma": 0.2, "d": 3, "seed": 1,
    "warmup": 2, "provider_list_size": 5, "request_fanout": 2, "min_class_count": 2,
}


def test_run_experiments_rejects_empty_and_mixed_configs():
    with pytest.raises(ConfigError):
        run_experiments([])
    base = SimConfig(n_agents=10, n_transactions=5)
    assert set(_OTHER_FIELD_VALUES) == {f.name for f in fields(SimConfig)} - {"model"}
    for name, value in _OTHER_FIELD_VALUES.items():
        other = replace(base, model="dt", **{name: value})
        other.validate()
        with pytest.raises(ConfigError, match="differ only in model"):
            run_experiments([base, other])
    with pytest.raises(ConfigError):
        run_experiments([base, replace(base, model="nope")])


def test_overlay_path_is_exercised_when_history_is_thin():
    config = SimConfig(n_agents=80, n_transactions=400, model="lda", theta=0.8, seed=2, warmup=4)
    result = run_experiment(config)
    sources = {t.knowledge_source for t in result.trace}
    assert "overlay" in sources and "local" in sources


def test_sweep_grid_size_and_random_theta_invariance(tmp_path):
    base = SimConfig(n_agents=12, n_transactions=15, seed=4, warmup=3, provider_list_size=5)
    thetas = [0.2, 0.4, 0.6, 0.8]
    pms = [round(0.1 * k, 1) for k in range(1, 10)]
    models = ["lda", "dt", "random", "feedback", "stereo"]
    rows = sweep(base, thetas, pms, models=models, repeats=1)
    assert len(rows) == 180

    random_rows = [r for r in rows if r.model == "random"]
    by_pm = {}
    for row in random_rows:
        by_pm.setdefault(row.p_m, set()).add((row.fp_rate, row.fn_rate, row.overall))
    for pm, cells in by_pm.items():
        assert len(cells) == 1  # exactly constant across theta

    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(rows, path_a)
    write_results_csv(sweep(base, thetas, pms, models=models, repeats=1), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header == "model,theta,p_m,seed_group,fp_rate,fp_std,fn_rate,fn_std,overall,overall_std,n_eval"


def test_write_results_csv_follows_sweep_row_fields(tmp_path):
    row = SweepRow(
        model="dt", theta=0.25, p_m=0.5, seed_group=7, fp_rate=1 / 3, fp_std=0.0,
        fn_rate=0.125, fn_std=2.5e-7, overall=0.4583333333, overall_std=1.0, n_eval=300,
    )
    path = tmp_path / "results.csv"
    write_results_csv([row], path)
    header, line = path.read_text().splitlines()
    assert header.split(",") == [f.name for f in fields(SweepRow)]
    assert line == "dt,0.250000,0.500000,7,0.333333,0.000000,0.125000,0.000000,0.458333,1.000000,300"


def test_cell_seed_is_stable():
    assert cell_seed(42, 0.3, 0) == cell_seed(42, 0.3, 0)
    assert cell_seed(42, 0.3, 0) != cell_seed(42, 0.3, 1)
    assert cell_seed(42, 0.3, 0) != cell_seed(43, 0.3, 0)


def test_sweep_rejects_empty_grids():
    base = SimConfig(n_agents=10, n_transactions=5)
    with pytest.raises(ConfigError):
        sweep(base, [], [0.5])
    with pytest.raises(ConfigError):
        sweep(base, [0.5], [0.5], repeats=0)
