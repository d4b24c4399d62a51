"""Command-line interface: project / estimate / calibrate / bmg / sweep /
verify-lwnl / decoy, all file-in file-out with CSV only.

Every subcommand is deterministic under a fixed --seed. BLAS pools are
pinned to one thread before numpy loads so that sweep output is
byte-identical at any --threads setting; parallelism comes from the
sweep's own worker pool.

Exit codes: 0 success (including the flagged fallback path), 2 config
error, 3 numerical failure (a dense linear-algebra kernel raised
LinAlgError), 4 I/O error.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import bmg as bmg_mod
from . import calibration, groups, matrixcore, shrinkage, synth
from .calibration import DEFAULT_FOLDS, DEFAULT_GRID_POINTS, DataStats

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_group(spec: str) -> groups.GroupAction:
    """A path to a group file, or a builtin constructor string."""
    if os.path.isfile(spec):
        return groups.read_group_file(spec)
    return groups.parse_group_spec(spec)


def cmd_project(args) -> int:
    matrix = matrixcore.read_matrix_csv(args.matrix)
    group = _load_group(args.group)
    matrixcore.write_matrix_csv(args.out, groups.reynolds_project(group, matrix))
    return EXIT_OK


class _Estimator(NamedTuple):
    name: str                 # its EstimatorResult.estimator_name
    fit: Callable             # fit(data, group, alpha) -> EstimatorResult
    lwnl_term: bool = False   # --auto-alpha cv blends the LWNL sample term
    own_plugin: bool = False  # fit(data, group, None) is its own MSE plug-in


# --estimator -> its estimator. shrinkage's ALPHA_REQUIRED and GROUP_REQUIRED
# say whether it takes --alpha/--auto-alpha and --group; without --group the
# target is the Haar-orthogonal group. An estimator with its own plug-in uses
# it for --auto-alpha mse and when no alpha is given.
_ESTIMATORS = {
    "sample": _Estimator(shrinkage.EST_SAMPLE, lambda d, g, a: shrinkage.sample_estimator(d)),
    "lw2004": _Estimator(shrinkage.EST_LW2004, lambda d, g, a: shrinkage.lw2004_auto(d)
                         if a is None else shrinkage.lw2004(d.r_hat, a), own_plugin=True),
    "lwnl": _Estimator(shrinkage.EST_LWNL, lambda d, g, a: shrinkage.lwnl(d)),
    "shah": _Estimator(shrinkage.EST_SHAH, lambda d, g, a: shrinkage.shah_projection(d.r_hat, g)),
    "ad": _Estimator(shrinkage.EST_AD, lambda d, g, a: shrinkage.ad_blend(d.r_hat, g, a)),
    "ad-lwnl": _Estimator(shrinkage.EST_ADLWNL, shrinkage.ad_lwnl_blend, lwnl_term=True),
}


def _held_out_settings(args) -> tuple[int, int]:
    """--grid-points and --folds, with DEFAULT_GRID_POINTS and DEFAULT_FOLDS
    for the one not given."""
    return (DEFAULT_GRID_POINTS if args.grid_points is None else args.grid_points,
            DEFAULT_FOLDS if args.folds is None else args.folds)


def _calibrate(args, data, group, method: str, use_lwnl: bool) -> calibration.CalibrationResult:
    """The intensity toward ``group`` by the MSE plug-in (method ``mse``) or
    held-out calibration (``cv``), for ``estimate`` and ``calibrate``."""
    if method == "mse":
        return calibration.mse_plugin_alpha(data, group)
    return calibration.cv_nll_alpha(data, group, *_held_out_settings(args),
                                    use_lwnl_sample_term=use_lwnl)


def cmd_estimate(args) -> int:
    est, alpha, method = _ESTIMATORS[args.estimator], args.alpha, args.auto_alpha
    takes_alpha = est.name in shrinkage.ALPHA_REQUIRED
    takes_group = est.name in shrinkage.GROUP_REQUIRED
    for flag, ignored in (("--alpha", alpha is not None and not takes_alpha),
                          ("--auto-alpha", method and (alpha is not None or not takes_alpha)),
                          ("--group", args.group and not takes_group),
                          ("--grid-points", args.grid_points is not None and method != "cv"),
                          ("--folds", args.folds is not None and method != "cv")):
        if ignored:
            raise ValueError(f"estimator {args.estimator} would ignore {flag}")
    data = DataStats.of(matrixcore.read_dataset_csv(args.data))
    if takes_group and not args.group:
        raise ValueError(f"estimator {args.estimator} requires --group")
    group = _load_group(args.group) if args.group else groups.haar_orthogonal(data.dim)
    if method == "cv" or (method and not est.own_plugin):
        alpha = _calibrate(args, data, group, method, est.lwnl_term).alpha
    if takes_alpha and alpha is None and not est.own_plugin:
        raise ValueError(f"estimator {args.estimator} requires --alpha or --auto-alpha")
    shrinkage.write_estimator_csv(args.out, est.fit(data, group, alpha))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    for flag, given in (("--use-lwnl", args.use_lwnl), ("--trace", args.trace),
                        ("--grid-points", args.grid_points is not None),
                        ("--folds", args.folds is not None)):
        if given and args.method == "mse":
            raise ValueError(f"--method mse would ignore {flag}")
    data = matrixcore.read_dataset_csv(args.data)
    result = _calibrate(args, data, _load_group(args.group), args.method, args.use_lwnl)
    if args.trace:
        calibration.write_cv_trace_csv(args.trace, result)
    print(f"alpha={result.alpha!r} method={result.method}"
          + (f" note={result.note}" if result.note else ""))
    return EXIT_OK


def cmd_bmg(args) -> int:
    data = matrixcore.read_dataset_csv(args.data)
    library = synth.parse_library_spec(f"dir:{args.library}" if os.path.isdir(args.library)
                                       else args.library)
    est, report = bmg_mod.bmg_with_fallback(data, library, args.kappa,
                                            *_held_out_settings(args),
                                            use_lwnl=args.use_lwnl)
    bmg_mod.write_report_csv(args.report, library, report)
    if args.estimator_out:
        shrinkage.write_estimator_csv(args.estimator_out, est)
    status = "fallback" if report.fallback_used else f"selected={report.selected}"
    print(f"{status} alpha={report.alpha!r} margin={report.bmg_margin!r} "
          f"delta={report.delta!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    # checked here: run_trial_sweep, a generator, runs only once the output
    # file has its header, and runs any count below 2 serially
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    config = synth.parse_sweep_config(args.config)
    records = synth.run_trial_sweep(config, threads=args.threads)
    synth.write_trial_records_csv(args.out, records)
    return EXIT_OK


def cmd_verify_lwnl(args) -> int:
    # each shape flag defaults to None, so PopulationSpec states its default,
    # and synth.POPULATIONS says which kinds read it
    shape = {field: value for fields, _ in synth.POPULATIONS.values() for field in fields
             if (value := getattr(args, field, None)) is not None}
    reads, _ = synth.POPULATIONS[args.population]
    for field in shape:
        if field not in reads:
            raise ValueError(f"population {args.population} would ignore "
                             f"--{field.replace('_', '-')}")
    try:
        spec = synth.PopulationSpec(m=args.m, kind=args.population, base_seed=args.seed, **shape)
        rows = synth.run_mp_verification(args.c, spec, args.trials, base_seed=args.seed)
    except synth._FieldError as exc:   # named by the first of its fields that has a flag here
        dests = [{"base_seed": "seed", "kind": "population"}.get(f, f) for f in exc.fields]
        flag = next((dest for dest in dests if hasattr(args, dest)), "population")
        raise ValueError(f"--{flag.replace('_', '-')}: {exc}") from None
    columns = ("estimator", "prial", "se", "mean_err", "mean_err_sample", "trials")
    matrixcore.write_csv(args.out, [columns] + [[row[c] for c in columns] for row in rows])
    for row in rows:
        print(f"{row['estimator']}: PRIAL {row['prial']:.2f}% +- {row['se']:.2f}")
    return EXIT_OK


def cmd_decoy(args) -> int:
    config = synth.parse_sweep_config(args.config)
    if len(config.n_list) != 1:
        raise ValueError(f"{args.config}: config key 'n_list': decoy runs take one cell")
    if config.estimators != synth.ESTIMATOR_ORDER:
        raise ValueError(f"{args.config}: config key 'estimators': decoy runs score ad_bmg only")
    if config.n_test != synth.SweepConfig.n_test:
        raise ValueError(f"{args.config}: config key 'n_test': decoy runs write no held-out score")
    selected_counts: dict[str, int] = {g.name: 0 for g in config.library.candidates}
    finite_scores: dict[str, list] = {g.name: [] for g in config.library.candidates}
    rows = [("trial", *bmg_mod.REPORT_COLUMNS)]
    for trial in range(config.trials):
        train = synth._trial_rows(config, 0, trial, 0)   # the sweep's training rows
        _, report = bmg_mod.bmg_with_fallback(train, config.library, config.kappa,
                                              config.grid_points, config.folds)
        rows += bmg_mod.report_fields(config.library, report, trial)
        if not report.fallback_used:
            selected_counts[report.selected] += 1
        for name, score in report.tier2_scores.items():
            if np.isfinite(score):
                finite_scores[name].append(score)
    matrixcore.write_csv(args.out, rows)
    if args.summary_out:
        summary = [("candidate", "mean_cv_nll", "selected_count", "trials")]
        for g in config.library.candidates:
            scores = finite_scores[g.name]
            mean = sum(scores) / len(scores) if scores else float("inf")
            summary.append((g.name, mean, selected_counts[g.name], config.trials))
        matrixcore.write_csv(args.summary_out, summary)
    total = sum(selected_counts.values())
    for name, count in sorted(selected_counts.items(), key=lambda kv: -kv[1]):
        if count:
            print(f"{name}: selected {count}/{total}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcov",
        description="Symmetry-aware covariance shrinkage: Reynolds projection, "
                    "calibrated structural blends, data-driven group selection, "
                    "and seeded Monte Carlo benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="Reynolds-project a matrix file under a group")
    p.add_argument("--matrix", required=True, help="input matrix CSV")
    p.add_argument("--group", required=True, help="group file or constructor string")
    p.add_argument("--out", required=True, help="output matrix CSV")
    p.set_defaults(func=cmd_project)

    # the dataset and the held-out calibration's settings
    calibrated = argparse.ArgumentParser(add_help=False)
    calibrated.add_argument("--data", required=True, help="dataset CSV")
    calibrated.add_argument("--grid-points", type=int,
                            help=f"held-out calibration's alpha grid size (default "
                                 f"{DEFAULT_GRID_POINTS})")
    calibrated.add_argument("--folds", type=int,
                            help=f"held-out calibration's fold count (default {DEFAULT_FOLDS})")

    p = sub.add_parser("estimate", parents=[calibrated],
                       help="fit one estimator on a dataset CSV")
    p.add_argument("--estimator", required=True, choices=list(_ESTIMATORS))
    p.add_argument("--group", help="group file or constructor string")
    p.add_argument("--alpha", type=float)
    p.add_argument("--auto-alpha", choices=["mse", "cv"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("calibrate", parents=[calibrated], help="select the shrinkage intensity")
    p.add_argument("--group", required=True)
    p.add_argument("--method", required=True, choices=["mse", "cv"])
    p.add_argument("--use-lwnl", action="store_true",
                   help="nonlinearly shrink the sample term inside the CV blend")
    p.add_argument("--trace", help="write the per-fold CV trace CSV here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bmg", parents=[calibrated], help="two-tier best-matched-group selection")
    p.add_argument("--library", required=True,
                   help="directory of group files, preset:<name>, or ;-list of constructors")
    p.add_argument("--kappa", type=float, default=bmg_mod.DEFAULT_KAPPA)
    p.add_argument("--use-lwnl", action="store_true")
    p.add_argument("--report", required=True, help="per-candidate report CSV")
    p.add_argument("--estimator-out", help="write the winning estimator CSV here")
    p.set_defaults(func=cmd_bmg)

    p = sub.add_parser("sweep", help="run a Monte Carlo trial sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify-lwnl", help="Marchenko-Pastur PRIAL verification")
    p.add_argument("--c", type=float, required=True, help="concentration ratio M/N")
    p.add_argument("--m", type=int, default=64)
    p.add_argument("--population", default=synth.POP_IDENTITY, choices=[  # no group flag
        kind for kind, (reads, _) in synth.POPULATIONS.items() if "group" not in reads])
    p.add_argument("--two-block-ratio", type=float)
    p.add_argument("--two-block-split", type=float)
    p.add_argument("--geometric-decay", type=float)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify_lwnl)

    p = sub.add_parser("decoy", help="decoy stress test of the selection pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="per-trial per-candidate score CSV")
    p.add_argument("--summary-out", help="aggregate per-candidate table CSV")
    p.set_defaults(func=cmd_decoy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except np.linalg.LinAlgError as exc:   # a ValueError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
