"""symcov benchmark: one command for every workload.

    python3 perfbench/run.py --workload select-m100 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root; symcov is imported from ./src. With --trace 0
the end-to-end metrics are measured; with --trace 1 a separate traced run
gives the per-layer metrics and the tracing overhead. Every metric is
printed by name with its unit; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. A full record of each run
(environment, raw samples, sweep CSV digests) is written to .perfbench_out/.

Workloads, metrics and the layer map are described in perfbench/README.md.
"""

from __future__ import annotations

import os

# In-process workloads run with BLAS pinned to one thread; set before numpy
# loads here and inherited by the worker processes.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 170.0       # every child is killed past this point of the run
WORKLOADS = ("select-m100", "trials-m100")
# Set-up samples per run. select-m100's set-up builds the decoy library
# (about 8 s); trials-m100's takes about a second and scatters more.
SETUP_SAMPLES = {"select-m100": 3, "trials-m100": 5}

# The shipped CLI, run once per traced trials-m100 run for the cli layer:
# trials-m100's configuration with one trial per cell.
SWEEP_N_LIST = (50, 100, 400, 2000)
SWEEP_CONFIG = """m = 100
population = block_circulant
block_size = 20
library = preset:pathway100
n_list = {n_list}
n_test = 200
trials = 1
base_seed = {base_seed}
"""
IMPORT_PROBES = 5


class RunError(Exception):
    """The benchmark itself could not run; no result is printed."""


class CheckFailed(Exception):
    """An operation returned a result that failed its correctness check."""


class Children:
    """Every process the run starts, killed and reaped on the way out."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.live: list[subprocess.Popen] = []

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise RunError("time limit reached")
        return left

    def popen(self, argv, **kwargs) -> subprocess.Popen:
        self.remaining()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, **kwargs)
        self.live.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.live:
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def _steal_s() -> float | None:
    """CPU time a hypervisor took from the (virtual) CPUs since boot, summed
    over CPUs (the steal column of /proc/stat)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "symcov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(cli_env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "harness_blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "cli_child_blas_env": {v: cli_env.get(v) for v in BLAS_VARS},
        "loadavg_start": _loadavg(),
        "steal_s_start": _steal_s(),
    }


def _child_env(pin_blas: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if not pin_blas:
        for var in BLAS_VARS:
            env.pop(var, None)
    return env


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def kind_mean(samples, value) -> float:
    """Mean over the kinds of operation of each kind's median of
    value(sample). Kinds differ in cost, so a median over all samples would
    jump between kinds from run to run."""
    by_kind: dict = {}
    for sample in samples:
        by_kind.setdefault(sample["kind"], []).append(value(sample))
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 100 else None


# ---------------------------------------------------------------------------
# Workers: one process per set-up sample, the last one also measures.
# ---------------------------------------------------------------------------

def _worker(children: Children, workload: str, seed: int, seconds: float,
            trace: int, setup_only: bool):
    """Start a worker and time process start to its READY line."""
    argv = [sys.executable, HERE / "inproc.py", "--workload", workload, "--seed", seed,
            "--seconds", seconds, "--trace", trace]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = children.popen(argv, env=_child_env(pin_blas=True), stdout=subprocess.PIPE,
                          text=True)
    readable, _, _ = select.select([proc.stdout], [], [], children.remaining())
    line = proc.stdout.readline() if readable else ""
    ready_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RunError(f"{workload} worker did not finish set-up")
    return proc, ready_s


def run_worker(children: Children, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES[workload] - 1):
        proc, ready_s = _worker(children, workload, seed, seconds, 0, True)
        if proc.wait(timeout=children.remaining()) != 0:
            raise RunError(f"{workload} set-up worker failed")
        setups.append(ready_s)
    proc, ready_s = _worker(children, workload, seed, seconds, trace, False)
    stdout, _ = proc.communicate(timeout=children.remaining())
    if proc.returncode != 0 or not stdout.strip():
        raise RunError(f"{workload} worker exited with {proc.returncode}")
    raw = json.loads(stdout.strip().splitlines()[-1])
    if trace:
        raw["layers"]["trace.setup_overhead_s"] = ready_s - _median(setups)
    else:
        setups.append(ready_s)
    raw["setup_samples_s"] = setups
    raw.setdefault("counts_repeat", True)
    raw.setdefault("counts", None)
    return raw


# ---------------------------------------------------------------------------
# The cli layer: fresh `symcov` processes, BLAS variables unset as in a
# user's shell. Measured in traced trials-m100 runs only.
# ---------------------------------------------------------------------------

def _threads_of(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _run_child(children: Children, argv, env, log_path: Path, sample_threads: bool) -> dict:
    """Run one child to completion; wall time, its own CPU time and peak RSS
    come from wait4 on that pid."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = children.popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(children.remaining(), proc.kill)
        killer.start()
        threads_max = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG if sample_threads else 0)
                if pid:
                    break
                threads_max = max(threads_max, _threads_of(proc.pid))
                time.sleep(0.01)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0, "returncode": proc.returncode,
            "threads_max": threads_max}


def _check_sweep_csv(path: Path, columns: list[str]) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != columns:
        raise CheckFailed("sweep CSV header differs from TRIAL_CSV_COLUMNS")
    if len(rows) - 1 != len(SWEEP_N_LIST):
        raise CheckFailed(f"sweep CSV has {len(rows) - 1} rows, want {len(SWEEP_N_LIST)}")
    err = columns.index("error")
    for row in rows[1:]:
        if len(row) != len(columns) or row[err]:
            raise CheckFailed(f"sweep CSV row with an error cell: {row[:3]} {row[err:]}")


def cli_layer(children: Children, seed: int) -> dict:
    """`import symcov.cli` timed in fresh processes, and one
    `python -m symcov.cli sweep --threads 2` whose thread count is sampled
    from /proc and whose CSV is checked and hashed."""
    from symcov.synth import TRIAL_CSV_COLUMNS

    work = OUT / f"cli-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    env = _child_env(pin_blas=False)
    probes = [_run_child(children, [sys.executable, "-c", "import symcov.cli"], env,
                         work / f"import{i}.log", False) for i in range(IMPORT_PROBES)]
    if any(p["returncode"] != 0 for p in probes):
        raise RunError("import symcov.cli failed")
    cfg, out = work / "sweep.cfg", work / "sweep.csv"
    cfg.write_text(SWEEP_CONFIG.format(n_list=",".join(map(str, SWEEP_N_LIST)),
                                       base_seed=seed * 1000))
    argv = [sys.executable, "-m", "symcov.cli", "sweep", "--config", cfg, "--out", out,
            "--threads", "2"]
    sweep = _run_child(children, argv, env, work / "sweep.log", True)
    sweep["csv_sha256"] = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    try:
        if sweep["returncode"] != 0:
            raise CheckFailed(f"symcov sweep exited with {sweep['returncode']}")
        _check_sweep_csv(out, list(TRIAL_CSV_COLUMNS))
        sweep["error"] = None
    except (CheckFailed, OSError) as exc:
        sweep["error"] = f"{type(exc).__name__}: {exc}"
    return {"import_s": [p["wall_s"] for p in probes], "sweep": sweep}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    cli_env = _child_env(pin_blas=False)
    env = environment(cli_env)
    children = Children(time.perf_counter() + TIME_LIMIT_S)
    try:
        raw = run_worker(children, workload, seed, seconds, trace)
        if trace:
            layers = raw["layers"]
            layers["cli.import_s"] = layers["cli.child_threads.max"] = 0
            if workload == "trials-m100":
                raw["cli"] = cli_layer(children, seed)
                layers["cli.import_s"] = _median(raw["cli"]["import_s"])
                layers["cli.child_threads.max"] = raw["cli"]["sweep"]["threads_max"]
                raw["attempted"] += 1
                if raw["cli"]["sweep"]["error"]:
                    raw["failed"] += 1
                    raw["errors"].append(raw["cli"]["sweep"]["error"])
    finally:
        children.close()
    env["loadavg_end"] = _loadavg()
    if env["steal_s_start"] is not None:
        env["steal_s_during_run"] = _steal_s() - env.pop("steal_s_start")
    if trace:
        metrics = {m["name"]: {"value": raw["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        if not raw["ops"]:
            raise RunError(f"{workload}: no operation succeeded")
        values = {
            "setup_s": _median(raw["setup_samples_s"]),
            "op_cpu_ref.p50": kind_mean(raw["ops"], lambda op: op["cpu_s"] / op["ref_cpu_s"]),
            "heldout_nll.p50": kind_mean(raw["ops"], lambda op: op["nll"]),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    result = {
        "correct": raw["failed"] == 0 and raw["counts_repeat"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "result": result, "raw": raw}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    report(workload, record)
    return result


def report(workload: str, record: dict) -> None:
    raw, result, env = record["raw"], record["result"], record["environment"]
    say = lambda text: print(f"[{workload}] {text}")
    say("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        say(f"{name:<46} {m['value']:.6g} {m['unit']}")
    ops = raw["ops"]
    say(f"samples: setup={len(raw['setup_samples_s'])} op={len(ops)} "
        f"kinds={len({op['kind'] for op in ops})} (p90 reported from 100 samples up)")
    if ops and not record["trace"]:
        # Raw times, not divided by the reference kernel's: they move with
        # the host's speed.
        op_s = kind_mean(ops, lambda op: op["wall_s"])
        say(f"op_s.p50 {op_s:.6g} s")
        say(f"op_cpu_s.p50 {kind_mean(ops, lambda op: op['cpu_s']):.6g} s")
        say(f"ops_per_s {1 / op_s:.6g} 1/s")
        say(f"ref_cpu_s.p50 {_median([op['ref_cpu_s'] for op in ops]):.6g} s")
        p90 = _p90([op["wall_s"] for op in ops])
        if p90 is not None:
            say(f"op_s.p90 {p90:.6g} s")
    say(f"peak_rss_mb {raw['peak_rss_mb']:.6g} MB")
    say(f"fail_frac {raw['failed'] / raw['attempted']:.6g} "
        f"({raw['failed']}/{raw['attempted']})")
    for err in raw["errors"][:5]:
        say(f"failure: {err}")
    if raw.get("csv_sha256"):
        say("sweep csv sha256 per cycle: " + " ".join(raw["csv_sha256"]))
    if raw.get("cli"):
        sweep = raw["cli"]["sweep"]
        say(f"cli sweep (--threads 2, BLAS unset): {sweep['wall_s']:.6g} s wall, "
            f"{sweep['cpu_s']:.6g} s CPU, {sweep['maxrss_mb']:.6g} MB, "
            f"csv sha256 {sweep['csv_sha256']}")
    if raw["counts"] is not None:
        say(f"traced counts repeat exactly across {len(raw['counts'])} traced passes: "
            f"{raw['counts_repeat']} (orbit_partition.misses per pass: "
            f"{[c['groups.orbit_partition.misses'] for c in raw['counts']]})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="symcov benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # Metric names and units are those BENCHMARK.json declares.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "symcov" / "__init__.py").is_file():
        print(f"error: no symcov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import symcov

    if Path(symcov.__file__).resolve().parent != SRC / "symcov":
        print(f"error: symcov imported from {symcov.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, spec)
                   for name in names}
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
