"""Shared helpers for building small transaction logs and simulated features in tests."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from trustlens import sim
from trustlens.core import Outcome, Transaction, TransactionLog


def make_log(
    successful: Iterable[Sequence[float]],
    unsuccessful: Iterable[Sequence[float]],
    context: str = "c",
    owner: str = "me",
) -> TransactionLog:
    successful = [tuple(p) for p in successful]
    unsuccessful = [tuple(p) for p in unsuccessful]
    d = len((successful + unsuccessful)[0]) if (successful or unsuccessful) else 1
    log = TransactionLog(owner=owner, dimensionality=d)
    i = 0
    for features in successful:
        log.append(Transaction(f"s{i}", f"p{i}", context, features, Outcome.SUCCESSFUL))
        i += 1
    for features in unsuccessful:
        log.append(Transaction(f"u{i}", f"p{i}", context, features, Outcome.UNSUCCESSFUL))
        i += 1
    return log


def sample_features(outcome: Outcome, config: sim.SimConfig, rng: np.random.Generator) -> np.ndarray:
    """One transaction's features as the simulator draws them: independent
    per-feature noise, shifted by theta for unsuccessful outcomes."""
    shift = 0.0 if outcome is Outcome.SUCCESSFUL else config.theta
    return sim._features(config, shift, rng.standard_normal(config.d))
