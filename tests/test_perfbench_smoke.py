"""Smoke test of the benchmark contract: every workload of perfbench/inproc.py
sets up under the span tracer and runs one checked operation against the
current source tree. A rename that the benchmark's tracer or set-up depends
on fails here instead of in a benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("select-m100", "trials-m100")


def run_inproc(workload, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "inproc.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", *flags],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_setup_resolves_every_name(workload):
    # installing the tracer looks up every traced function by name
    assert run_inproc(workload, "--trace", "1", "--setup-only") == ["READY"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_checked_operation(workload):
    lines = run_inproc(workload, "--trace", "0")
    assert lines[0] == "READY"
    out = json.loads(lines[-1])
    assert (out["attempted"], out["failed"]) == (1, 0), out["errors"]
