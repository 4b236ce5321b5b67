"""Pin the predictions of the four benchmark workloads.

Each case runs ``perfbench/run.py`` for one short pass and compares the
pass-1 prediction digest with the value recorded when the workloads were
defined. A change that alters predictions on purpose updates the pin here and
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


@pytest.mark.parametrize(
    ("workload", "trace"),
    [pytest.param(w, 0, id=w) for w in sorted(PINNED_DIGESTS)]
    + [pytest.param(w, 1, id=f"{w}-traced") for w in sorted(PINNED_DIGESTS)],
)
def test_pass_one_digest_is_pinned(workload, trace):
    run = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
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
    assert digest.group(1) == PINNED_DIGESTS[workload]
    if trace:
        assert "predictions match" in run.stdout, run.stdout
        assert report["correct"], run.stdout
