"""Smoke test of the benchmark contract: every workload of perfbench/inproc.py
sets up under the span tracer and runs one checked operation against the
current source tree, and select-m100's checks run in this process on every
estimator path they recompute. A rename that the benchmark's tracer, set-up
or checks depend on fails here instead of in a benchmark run."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symcov.matrixcore import Dataset

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


@pytest.fixture(scope="module")
def select_m100():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import inproc
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    workload = inproc.SelectM100(seed=1)
    workload.setup()
    return workload


@pytest.mark.parametrize("case", ["lwnl-50", "lwnl-400", "fallback-2"])
def test_select_m100_checks_every_estimator_path(select_m100, case):
    # the subprocess test above runs only the first call (N = 50, LWNL off);
    # these reach the checks that recompute ad_lwnl_blend and lw2004_auto
    inputs = {(data.n_obs, use_lwnl): (use_lwnl, data, test)
              for use_lwnl, data, test in select_m100.inputs(0)}
    if case == "fallback-2":   # too few rows for any fold scheme
        use_lwnl, data, test = inputs[(50, True)]
        inp = (use_lwnl, Dataset(data.rows[:2]).center(), test)
    else:
        inp = inputs[(int(case.split("-")[1]), True)]
    result = select_m100.run(inp)
    assert result[1].fallback_used == (case == "fallback-2")
    nll = select_m100.check(inp, result)   # raises when a check fails
    # the 2-row fallback pins LW2004's alpha to 1, so every path is finite
    assert math.isfinite(nll)
