"""Pin the predictions of the four benchmark workloads.

Each case runs ``perfbench/run.py`` for one short pass and compares the
pass-1 prediction digest with the value recorded when the workloads were
defined (seed 1, untraced and traced) or later (seed 2, untraced). A change that alters predictions on purpose updates the pin here and
says why in CHANGES.md. The traced cases (``--trace 1``) also need every
function the tracer patches to exist, and the traced pass to predict what the
untraced passes did.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED_DIGESTS = {
    "local-deep": "1bef472a7f0fdbbc",
    "overlay-thin": "0980808405f64ba8",
    "cli-wide": "c803da9642346847",
    "sweep": "d5a195ffe7fc4e06",
}

SEED_2_DIGESTS = {
    "local-deep": "52fe032cd42e2a19",
    "overlay-thin": "0cf606762a9a4de4",
    "cli-wide": "92639048ee0ee1a7",
    "sweep": "b98f96efb8217606",
}


@pytest.mark.parametrize(
    ("workload", "trace"),
    [pytest.param(w, 0, id=w) for w in sorted(PINNED_DIGESTS)]
    + [pytest.param(w, 1, id=f"{w}-traced") for w in sorted(PINNED_DIGESTS)],
)
def test_pass_one_digest_is_pinned(workload, trace):
    _check_digest(workload, 1, trace, PINNED_DIGESTS[workload])


@pytest.mark.parametrize("workload", sorted(SEED_2_DIGESTS))
def test_seed_two_digest_is_pinned(workload):
    _check_digest(workload, 2, 0, SEED_2_DIGESTS[workload])


def _check_digest(workload, seed, trace, pinned):
    run = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    digest = re.search(r"pass-1 digest ([0-9a-f]{16})", run.stdout)
    assert digest is not None, run.stdout
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0, run.stdout
    assert digest.group(1) == pinned
    if trace:
        assert "predictions match" in run.stdout, run.stdout
        assert report["correct"], run.stdout
