"""In-memory span tracer for the symcov benchmark.

The tracer lives outside the package. ``install`` replaces each traced public
function with a timing wrapper and rebinds the wrapper under every name that
held the original in any loaded ``symcov`` module, so calls through module
attributes (``matrixcore.gaussian_nll_per_sample``) and through
``from .groups import reynolds_project`` bindings are both recorded.
``uninstall`` puts the originals back. Spans stay in memory until ``dump``.

A span is (name, parent name, thread id, start, end, self time, attrs). Self
time is the span's duration minus the durations of the spans it directly
encloses on the same thread.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import statistics
import sys
import threading
import time

# Layer functions wrapped by the tracer, as (module, function).
TRACED = (
    ("matrixcore", "gaussian_nll_per_sample"),
    ("matrixcore", "second_moment"),
    ("groups", "orbit_partition"),
    ("groups", "reynolds_project"),
    ("groups", "decoy_random_subgroup_closure"),
    ("calibration", "cv_nll_alpha"),
    ("calibration", "mse_plugin_alpha"),
    ("shrinkage", "lwnl_from_covariance"),
    ("bmg", "tier2_select"),
    ("bmg", "bmg_with_fallback"),
    ("synth", "sample_gaussian"),
)

def _symcov_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "symcov" or name.startswith("symcov."))]


def _matrix_key(args, kwargs) -> str:
    r_hat = args[0] if args else kwargs["r_hat"]
    return hashlib.sha1(r_hat.values.tobytes()).hexdigest()


def _bmg_attrs(args, kwargs, result) -> dict:
    lib = args[1] if len(args) > 1 else kwargs["lib"]
    report = result[1]
    return {"admitted": len(report.tier1_admitted), "candidates": len(lib.candidates),
            "fallback": bool(report.fallback_used)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.trial_gaps: list[float] = []
        self._local = threading.local()
        self._rebound: list[tuple] = []   # (module, attribute, original)
        # Last partition returned per group. A call that returns another
        # object computed it afresh: a cache miss, also when the cache was
        # cleared between calls or two threads missed concurrently. On a
        # group's first traced call the cache's own miss counter decides
        # instead.
        self._partitions: dict = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import symcov.synth  # noqa: F401  (loads every layer module)

        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = _symcov_modules()
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"symcov.{mod_name}"], fn_name)
            self._rebind(modules, original, self._wrap(f"{mod_name}.{fn_name}", original))
        sweep = sys.modules["symcov.synth"].run_trial_sweep
        self._rebind(modules, sweep, self._wrap_sweep(sweep))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebound.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack_of = self._stack
        wants_key = name == "shrinkage.lwnl_from_covariance"
        is_nll = name == "matrixcore.gaussian_nll_per_sample"
        is_bmg = name == "bmg.bmg_with_fallback"
        partitions = self._partitions if name == "groups.orbit_partition" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {"key": _matrix_key(args, kwargs)} if wants_key else {}
            if partitions is not None:
                misses_before = fn.cache_info().misses
            stack = stack_of()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs["error"] = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((name, parent, threading.get_ident(), start, end,
                              end - start - frame[1], attrs))
            if is_nll:
                attrs["inf"] = not math.isfinite(result)
            elif is_bmg:
                attrs.update(_bmg_attrs(args, kwargs, result))
            elif partitions is not None:
                group = args[0] if args else kwargs["g"]
                last = partitions.get(group)
                if (last is not result if last is not None
                        else fn.cache_info().misses > misses_before):
                    attrs["miss"] = group.name
                partitions[group] = result
            return result

        return wrapper

    def _wrap_sweep(self, fn):
        """run_trial_sweep is a generator: record the time from resuming it
        to its next record, which is the latency per yielded record."""
        gaps = self.trial_gaps

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            resumed = time.perf_counter()
            for record in fn(*args, **kwargs):
                gaps.append(time.perf_counter() - resumed)
                yield record
                resumed = time.perf_counter()

        return wrapper

    # -- output -------------------------------------------------------------

    def take(self) -> dict:
        """The spans and record gaps so far, which are then cleared."""
        out = {"spans": [list(s) for s in self.spans], "trial_gaps": list(self.trial_gaps)}
        self.spans.clear()
        self.trial_gaps.clear()
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.take(), fh)


def _sum_self(spans, name) -> float:
    return sum(s[5] for s in spans if s[0] == name)


def layer_counts(dumps: list[dict]) -> dict:
    """Exact counts from one or more dumps: calls per traced function,
    non-finite NLL scores, distinct LWNL inputs and orbit-cache misses."""
    spans = [s for d in dumps for s in d["spans"]]
    counts = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        counts[f"{name}.calls"] = sum(1 for s in spans if s[0] == name)
    counts["matrixcore.gaussian_nll_per_sample.inf"] = sum(
        1 for s in spans if s[0] == "matrixcore.gaussian_nll_per_sample" and s[6].get("inf"))
    counts["shrinkage.lwnl_from_covariance.unique"] = len(
        {s[6]["key"] for s in spans if s[0] == "shrinkage.lwnl_from_covariance"})
    missed = [s[6]["miss"] for s in spans if s[0] == "groups.orbit_partition" and "miss" in s[6]]
    counts["groups.orbit_partition.misses"] = len(missed)
    return counts


def counts_repeat(counts: list[dict]) -> bool:
    """Whether every traced pass over the same inputs gave the same counts."""
    return all(c == counts[0] for c in counts[1:])


def layer_metrics(dumps: list[dict]) -> dict:
    """Per-layer metrics from spans: calls and self time of every traced
    function, plus the ratios. The cli.* and trace.* metrics are measured by
    the harness itself."""
    spans = [s for d in dumps for s in d["spans"]]
    counts = layer_counts(dumps)

    def frac(num, den):
        return num / den if den else 0.0

    nll_calls = counts["matrixcore.gaussian_nll_per_sample.calls"]
    lwnl_calls = counts["shrinkage.lwnl_from_covariance.calls"]
    bmg = [s[6] for s in spans if s[0] == "bmg.bmg_with_fallback" and "fallback" in s[6]]
    gaps = [g for d in dumps for g in d["trial_gaps"]]
    out = {
        "matrixcore.gaussian_nll_per_sample.inf_frac":
            frac(counts["matrixcore.gaussian_nll_per_sample.inf"], nll_calls),
        "shrinkage.lwnl_from_covariance.unique_frac":
            frac(counts["shrinkage.lwnl_from_covariance.unique"], lwnl_calls),
        "groups.orbit_partition.misses": counts["groups.orbit_partition.misses"],
        "bmg.admitted_frac": frac(sum(a["admitted"] for a in bmg),
                                  sum(a["candidates"] for a in bmg)),
        "bmg.fallback_frac": frac(sum(a["fallback"] for a in bmg), len(bmg)),
        "synth.trial_s.p50": statistics.median(gaps) if gaps else 0.0,
    }
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        out[f"{name}.calls"] = counts[f"{name}.calls"]
        out[f"{name}.self_s"] = _sum_self(spans, name)
    return out
