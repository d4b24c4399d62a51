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
import dataclasses
import sys

import numpy as np

from . import bmg as bmg_mod
from . import calibration, groups, matrixcore, shrinkage, synth
from .calibration import DEFAULT_FOLDS, DEFAULT_GRID_POINTS, AlphaGrid, DataStats, FoldScheme

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _load_group(spec: str) -> groups.GroupAction:
    """A path to a group file, or a builtin constructor string."""
    if os.path.isfile(spec):
        return groups.read_group_file(spec)
    return groups.parse_group_spec(spec)


def _load_library(spec: str) -> bmg_mod.CandidateLibrary:
    if os.path.isdir(spec):
        return synth.parse_library_spec(f"dir:{spec}")
    return synth.parse_library_spec(spec)


def cmd_project(args) -> int:
    matrix = matrixcore.read_matrix_csv(args.matrix)
    group = _load_group(args.group)
    matrixcore.write_matrix_csv(args.out, groups.reynolds_project(group, matrix))
    return EXIT_OK


def cmd_estimate(args) -> int:
    name = args.estimator
    alpha_given, takes_alpha = args.alpha is not None, name in ("lw2004", "ad", "ad-lwnl")
    for flag, ignored in (("--alpha", alpha_given and not takes_alpha),
                          ("--auto-alpha", args.auto_alpha and (alpha_given or not takes_alpha)),
                          ("--group", args.group and name in ("sample", "lwnl", "lw2004"))):
        if ignored:
            raise ValueError(f"estimator {name} would ignore {flag}")
    data = DataStats.of(matrixcore.read_dataset_csv(args.data))
    group = _load_group(args.group) if args.group else None
    if name in ("shah", "ad", "ad-lwnl") and group is None:
        raise ValueError(f"estimator {name} requires --group")
    alpha = args.alpha
    if args.auto_alpha:
        target = group if name != "lw2004" else groups.haar_orthogonal(data.dim)
        if args.auto_alpha == "mse":
            alpha = calibration.mse_plugin_alpha(data, target).alpha
        else:
            alpha = calibration.cv_nll_alpha(
                data, target, AlphaGrid.uniform(args.grid_points),
                FoldScheme.contiguous(data.n_obs, args.folds),
                use_lwnl_sample_term=(name == "ad-lwnl")).alpha
    if name == "sample":
        result = shrinkage.sample_estimator(data)
    elif name == "lw2004":
        result = shrinkage.lw2004(data.r_hat, alpha) if alpha is not None \
            else shrinkage.lw2004_auto(data)
    elif name == "lwnl":
        result = shrinkage.lwnl(data)
    elif name == "shah":
        result = shrinkage.shah_projection(data.r_hat, group)
    elif name == "ad":
        if alpha is None:
            raise ValueError("estimator ad requires --alpha or --auto-alpha")
        result = shrinkage.ad_blend(data.r_hat, group, alpha)
    elif name == "ad-lwnl":
        if alpha is None:
            raise ValueError("estimator ad-lwnl requires --alpha or --auto-alpha")
        result = shrinkage.ad_lwnl_blend(data, group, alpha)
    else:
        raise ValueError(f"unknown estimator {name}")
    shrinkage.write_estimator_csv(args.out, result)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    for flag, given in (("--use-lwnl", args.use_lwnl), ("--trace", args.trace)):
        if given and args.method == "mse":
            raise ValueError(f"--method mse would ignore {flag}")
    data = matrixcore.read_dataset_csv(args.data)
    group = _load_group(args.group)
    if args.method == "mse":
        result = calibration.mse_plugin_alpha(data, group)
    else:
        grid = AlphaGrid.uniform(args.grid_points)
        folds = FoldScheme.contiguous(data.n_obs, args.folds)
        result = calibration.cv_nll_alpha(data, group, grid, folds,
                                          use_lwnl_sample_term=args.use_lwnl)
        if args.trace:
            calibration.write_cv_trace_csv(args.trace, result, grid)
    print(f"alpha={result.alpha!r} method={result.method}"
          + (f" note={result.note}" if result.note else ""))
    return EXIT_OK


def cmd_bmg(args) -> int:
    data = matrixcore.read_dataset_csv(args.data)
    library = _load_library(args.library)
    grid = AlphaGrid.uniform(args.grid_points)
    folds = FoldScheme.feasible_contiguous(data.n_obs, args.folds)
    est, report = bmg_mod.bmg_with_fallback(data, library, args.kappa, grid,
                                            folds, use_lwnl=args.use_lwnl)
    bmg_mod.write_report_csv(args.report, library, report)
    if args.estimator_out:
        shrinkage.write_estimator_csv(args.estimator_out, est)
    status = "fallback" if report.fallback_used else f"selected={report.selected}"
    print(f"{status} alpha={report.alpha!r} margin={report.bmg_margin!r} "
          f"delta={report.delta!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = synth.parse_sweep_config(args.config)
    records = synth.run_trial_sweep(config, threads=args.threads)
    synth.write_trial_records_csv(args.out, records)
    return EXIT_OK


def cmd_verify_lwnl(args) -> int:
    # each shape flag defaults to None, so PopulationSpec states its default,
    # and is read by one population only
    reader = {"two_block_ratio": synth.POP_TWO_BLOCK, "two_block_split": synth.POP_TWO_BLOCK,
              "geometric_decay": synth.POP_GEOMETRIC}
    shape = {field: getattr(args, field) for field in reader if getattr(args, field) is not None}
    for field in shape:
        if reader[field] != args.population:
            raise ValueError(f"population {args.population} would ignore "
                             f"--{field.replace('_', '-')}")
    spec = synth.PopulationSpec(m=args.m, kind=args.population, base_seed=args.seed, **shape)
    rows = synth.run_mp_verification(args.c, spec, args.trials, base_seed=args.seed)
    with open(args.out, "w") as fh:
        fh.write("estimator,prial,se,mean_err,mean_err_sample,trials\n")
        for row in rows:
            fh.write(f"{row['estimator']},{row['prial']!r},{row['se']!r},"
                     f"{row['mean_err']!r},{row['mean_err_sample']!r},{row['trials']}\n")
    for row in rows:
        print(f"{row['estimator']}: PRIAL {row['prial']:.2f}% +- {row['se']:.2f}")
    return EXIT_OK


def cmd_decoy(args) -> int:
    config = synth.parse_sweep_config(args.config)
    if len(config.n_list) != 1:
        raise ValueError("decoy runs use a single training-size cell")
    selected_counts: dict[str, int] = {g.name: 0 for g in config.library.candidates}
    score_sums: dict[str, float] = {g.name: 0.0 for g in config.library.candidates}
    score_counts: dict[str, int] = {g.name: 0 for g in config.library.candidates}
    records = synth.run_trial_sweep(dataclasses.replace(config, estimators=("ad_bmg",)))
    with open(args.out, "w") as fh:
        fh.write("trial,candidate,admitted,mean_cv_nll,best_alpha,selected,margin,delta\n")
        for record in records:
            if record.error:
                raise ValueError(record.error)
            report = record.ad
            for line in bmg_mod.report_rows(config.library, report, record.trial):
                fh.write(line + "\n")
            if not report.fallback_used:
                selected_counts[report.selected] += 1
            for name, score in report.tier2_scores.items():
                if np.isfinite(score):
                    score_sums[name] += score
                    score_counts[name] += 1
    if args.summary_out:
        with open(args.summary_out, "w") as fh:
            fh.write("candidate,mean_cv_nll,selected_count,trials\n")
            for g in config.library.candidates:
                mean = (score_sums[g.name] / score_counts[g.name]
                        if score_counts[g.name] else float("inf"))
                fh.write(f"{g.name},{mean!r},{selected_counts[g.name]},{config.trials}\n")
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

    p = sub.add_parser("estimate", help="fit one estimator on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--estimator", required=True,
                   choices=["sample", "lw2004", "lwnl", "shah", "ad", "ad-lwnl"])
    p.add_argument("--group", help="group file or constructor string")
    p.add_argument("--alpha", type=float)
    p.add_argument("--auto-alpha", choices=["mse", "cv"])
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("calibrate", help="select the shrinkage intensity")
    p.add_argument("--data", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--method", required=True, choices=["mse", "cv"])
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--use-lwnl", action="store_true",
                   help="nonlinearly shrink the sample term inside the CV blend")
    p.add_argument("--trace", help="write the per-fold CV trace CSV here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("bmg", help="two-tier best-matched-group selection")
    p.add_argument("--data", required=True)
    p.add_argument("--library", required=True,
                   help="directory of group files, preset:<name>, or ;-list of constructors")
    p.add_argument("--kappa", type=float, default=bmg_mod.DEFAULT_KAPPA)
    p.add_argument("--grid-points", type=int, default=DEFAULT_GRID_POINTS)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
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
    p.add_argument("--population", default=synth.POP_IDENTITY,
                   choices=[synth.POP_IDENTITY, synth.POP_TWO_BLOCK,
                            synth.POP_GEOMETRIC, synth.POP_RANDOM_SPD])
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
