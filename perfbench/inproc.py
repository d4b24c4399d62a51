"""Workloads of the symcov benchmark, run in this worker process.

run.py starts this file once per set-up sample:

    python3 perfbench/inproc.py --workload select-m100 --seed 1 --seconds 25 \
        --trace 0 [--setup-only]

The process prints ``READY`` when its set-up is done; run.py times process
start to that line as one set-up sample. Unless ``--setup-only`` is given the
process then runs the timed operations and prints one JSON line of raw
samples. select-m100's inputs are drawn here from the seed with numpy, and
symcov only sees the generated data; trials-m100 hands symcov a sweep
configuration and base seed, as `symcov sweep` does.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import time

import numpy as np

from symcov import bmg, groups, matrixcore, shrinkage, synth
from symcov.matrixcore import Dataset

from reference import reference_cpu_s
from tracer import Tracer, counts_repeat, layer_counts, layer_metrics

PARTITIONED = (groups.KIND_GENERATOR, groups.KIND_TRIVIAL)


class CheckFailed(Exception):
    """An operation returned a result that failed its correctness check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _block_circulant(m: int, k: int, rho: float, cross: float) -> np.ndarray:
    """Unit-diagonal blocks with circulant profile rho^min(d, k-d) and a
    constant cross-block level, as symcov.synth.block_circulant_population
    builds it. Built here so that a change to symcov cannot change the
    benchmark's inputs."""
    d = np.abs(np.arange(k)[:, None] - np.arange(k)[None, :])
    out = np.full((m, m), cross)
    for b in range(m // k):
        out[b * k:(b + 1) * k, b * k:(b + 1) * k] = rho ** np.minimum(d, k - d)
    return out


class SelectM100:
    """bmg_with_fallback on preset:pathway100+decoys (20 candidates).

    One cycle is 8 calls: N runs over N_CYCLE with use_lwnl off, then again
    with it on. Each call gets freshly drawn training rows. A call's place
    in the cycle is its kind: the harness takes medians per kind, because a
    median over all calls would fall in the gap between the cheap and the
    expensive (N, use_lwnl) combinations and jump across it from run to
    run."""

    M = 100
    N_CYCLE = (50, 100, 400, 2000)
    N_TEST = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.library = synth.parse_library_spec("preset:pathway100+decoys")
        for g in self.library.candidates:
            if g.kind in PARTITIONED:
                groups.orbit_partition(g)
        w, u = np.linalg.eigh(_block_circulant(self.M, 20, 0.5, 0.1))
        self.root = (u * np.sqrt(w)) @ u.T

    def _draw(self, n: int, *key: int) -> Dataset:
        z = _rng(self.seed, *key).standard_normal((n, self.M))
        return Dataset(z @ self.root).center()

    def inputs(self, cycle: int):
        for i in range(2 * len(self.N_CYCLE)):
            n = self.N_CYCLE[i % len(self.N_CYCLE)]
            use_lwnl = i >= len(self.N_CYCLE)
            yield (use_lwnl, self._draw(n, cycle, i, 0), self._draw(self.N_TEST, cycle, i, 1))

    def run(self, inp):
        use_lwnl, data, _test = inp
        return bmg.bmg_with_fallback(data, self.library, use_lwnl=use_lwnl)

    def check(self, inp, result) -> float:
        """Recompute the estimator at the reported group and alpha; return
        the held-out NLL of the returned matrix on the test rows."""
        use_lwnl, data, test = inp
        est, report = result
        values = est.matrix.values
        if report.fallback_used:
            ref = shrinkage.lw2004_auto(data)
        elif use_lwnl:
            ref = shrinkage.ad_lwnl_blend(data, self.library.by_name(report.selected),
                                          report.alpha)
        else:
            ref = shrinkage.ad_blend(matrixcore.sample_covariance(data),
                                     self.library.by_name(report.selected), report.alpha)
        _require(bool(np.all(np.isfinite(values))), "non-finite estimate")
        scale = np.linalg.norm(ref.matrix.values)
        _require(np.linalg.norm(values - ref.matrix.values) <= 1e-12 * scale,
                 f"estimate differs from the recomputed blend at {report.selected}")
        _require(np.max(np.abs(values - values.T)) <= 1e-12 * np.max(np.abs(values)),
                 "estimate not symmetric")
        eig = np.linalg.eigvalsh(values)
        _require(eig[0] >= -1e-10 * eig[-1], f"estimate not PSD (min eig {eig[0]:.3e})")
        return matrixcore.gaussian_nll_per_sample(est.matrix,
                                                  matrixcore.sample_covariance(test))

    def record(self) -> dict:
        return {}


class TrialsM100:
    """synth.run_trial_sweep in this process with one thread: the pipeline
    `symcov sweep` runs for every record (sampling, LW2004, LWNL and both
    BMG selections) on m=100, a block-circulant population with blocks of
    20, preset:pathway100, N in N_LIST and 200 test rows.

    One cycle is a sweep with one trial per cell and base seed
    (seed * 1000 + cycle); one operation is the production of one record,
    and a record's cell is its kind. The sweep is started inside the first
    operation of a cycle, so building the population is timed there."""

    N_LIST = (50, 100, 400, 2000)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.records = iter(())
        self.csv: dict = {}

    def setup(self) -> None:
        self.config = synth.SweepConfig(
            population=synth.PopulationSpec(m=100, kind=synth.POP_BLOCK_CIRCULANT,
                                            block_size=20),
            library=synth.parse_library_spec("preset:pathway100"),
            n_list=self.N_LIST, n_test=200, trials=1, base_seed=0)
        for g in self.config.library.candidates:
            if g.kind in PARTITIONED:
                groups.orbit_partition(g)

    def inputs(self, cycle: int):
        for kind in range(len(self.N_LIST)):
            yield cycle, kind

    def run(self, inp):
        cycle, kind = inp
        if kind == 0:
            config = dataclasses.replace(self.config, base_seed=self.seed * 1000 + cycle)
            self.records = synth.run_trial_sweep(config, threads=1)
        return next(self.records)

    def check(self, inp, record) -> float:
        """The record is error-free, of the expected cell, with a finite
        held-out NLL for the BMG estimator, which is returned. Its CSV row
        goes into the cycle's digest of the file `symcov sweep` writes."""
        cycle, kind = inp
        row = synth.trial_record_row(record) + "\n"
        if kind == 0:
            self.csv[cycle] = [hashlib.sha256(
                (",".join(synth.TRIAL_CSV_COLUMNS) + "\n").encode()), 0]
        self.csv[cycle][0].update(row.encode())
        self.csv[cycle][1] += 1
        _require(not record.error, f"trial error: {record.error}")
        _require(record.cell_n == self.N_LIST[kind], f"record of cell {record.cell_n}")
        nll = record.nll.get("ad_bmg")
        _require(nll is not None and math.isfinite(nll), f"held-out NLL {nll}")
        return nll

    def record(self) -> dict:
        """sha256 of each whole cycle's CSV as `symcov sweep` would write it."""
        return {"csv_sha256": [digest.hexdigest() for digest, rows in self.csv.values()
                               if rows == len(self.N_LIST)]}


WORKLOADS = {"select-m100": SelectM100, "trials-m100": TrialsM100}


def _run_pass(wl, inputs, tracer: Tracer | None, out: dict) -> float | None:
    """Run one cycle of inputs, stopping early once ``deadline`` (a
    perf_counter value in ``out``) has passed. Each operation is timed, then
    the reference kernel is timed, then the result is checked outside the
    timed region and outside any tracing. Every passed operation becomes one
    sample. Returns the cycle's total wall time when it ran whole and every
    operation passed."""
    total = 0.0
    whole = True
    for kind, inp in enumerate(inputs):
        if time.perf_counter() >= out["deadline"]:
            return None
        out["attempted"] += 1
        try:
            if tracer is not None:
                tracer.install()
            try:
                c0, t0 = time.process_time(), time.perf_counter()
                result = wl.run(inp)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            ref_cpu = reference_cpu_s()
            nll = wl.check(inp, result)
        except Exception as exc:  # a failed operation is counted, not fatal
            out["failed"] += 1
            out["errors"].append(f"{type(exc).__name__}: {exc}")
            whole = False
            continue
        out["ops"].append({"kind": kind, "wall_s": wall, "cpu_s": cpu,
                           "ref_cpu_s": ref_cpu, "nll": nll})
        total += wall
    return total if whole else None


def _samples() -> dict:
    return {"ops": [], "attempted": 0, "failed": 0, "errors": [], "deadline": math.inf}


def _warm_up(wl, out: dict) -> None:
    """Run and check the first input once, untimed: the first operation in a
    fresh process pays for heap growth that later ones reuse, and the first
    pass of the reference kernel for numpy's lazy set-up."""
    scratch = _samples()
    _run_pass(wl, itertools.islice(wl.inputs(0), 1), None, scratch)
    out["attempted"] += scratch["attempted"]
    out["failed"] += scratch["failed"]
    out["errors"] += scratch["errors"]


def measure(wl, seconds: float) -> dict:
    """Operations one after another until ``seconds`` have passed; the run
    stops between any two operations."""
    out = _samples()
    _warm_up(wl, out)
    out["deadline"] = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < out["deadline"]:
        _run_pass(wl, wl.inputs(cycle), None, out)
        cycle += 1
    return out


def measure_traced(wl, seconds: float, tracer: Tracer, setup_dump: dict) -> dict:
    """Untraced and traced passes over cycle 0's inputs in turn until the
    time is up, with at least two traced passes. Layer metrics come from
    set-up plus the first traced pass; every traced pass must give the same
    counts."""
    out = _samples()
    _warm_up(wl, out)
    start = time.perf_counter()
    untraced, traced, dumps = [], [], []
    while len(dumps) < 2 or time.perf_counter() - start < seconds:
        untraced.append(_run_pass(wl, wl.inputs(0), None, out))
        traced.append(_run_pass(wl, wl.inputs(0), tracer, out))
        dumps.append(tracer.take())
    untraced = [t for t in untraced if t is not None]
    traced = [t for t in traced if t is not None]
    counts = [layer_counts([d]) for d in dumps]
    out["counts"] = counts
    out["counts_repeat"] = counts_repeat(counts)
    out["layers"] = layer_metrics([setup_dump, dumps[0]])
    out["layers"]["trace.op_overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced)
        if traced and untraced else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        out = measure_traced(wl, args.seconds, tracer, tracer.take())
    else:
        out = measure(wl, args.seconds)
    out.pop("deadline")
    out.update(wl.record())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
