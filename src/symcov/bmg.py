"""Best-matched-group selection: the effective-rank prefilter (Tier 1),
per-candidate cross-validated held-out NLL (Tier 2), structural-fit
diagnostics, and the linear-shrinkage fallback when nothing is admitted.

Per-candidate Tier 2 evaluations are independent; the final arg-min
reduction is ordered by library position, so ties break deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import calibration, matrixcore, shrinkage
from .calibration import AlphaGrid, DataStats, FoldScheme, DEFAULT_GRID
from .groups import GroupAction, capped_order, reynolds_project, trivial
from .matrixcore import Dataset, SymmetricMatrix

DEFAULT_KAPPA = 2.0


@dataclass(frozen=True)
class CandidateLibrary:
    """Ordered candidate list with unique names; iteration order is the
    deterministic tie-break order everywhere downstream."""

    candidates: tuple[GroupAction, ...]

    def __post_init__(self) -> None:
        cands = tuple(self.candidates)
        names = [g.name for g in cands]
        if len(set(names)) != len(names):
            raise ValueError("candidate names must be unique")
        if not cands:
            raise ValueError("candidate library is empty")
        object.__setattr__(self, "candidates", cands)

    def by_name(self, name: str) -> GroupAction:
        for g in self.candidates:
            if g.name == name:
                return g
        raise KeyError(name)


@dataclass(frozen=True)
class BMGReport:
    selected: str
    alpha: float
    tier1_admitted: tuple[str, ...]
    tier2_scores: dict
    tier2_alphas: dict
    bmg_margin: float
    delta: float
    fallback_used: bool
    tied: bool = False


def tier1_admit(lib: CandidateLibrary, n: int, m: int,
                kappa: float = DEFAULT_KAPPA) -> list[str]:
    """Admit candidates with N * |G| >= kappa * M. Every order at or above
    cap = ceil(kappa * M / N) + 1 admits, so each group is counted exactly up
    to that cap (``groups.capped_order``) and the test runs on
    min(|G|, cap). Raising kappa never grows the admitted set."""
    if not 1.0 <= kappa < math.inf:
        raise ValueError("conservatism constant kappa must be finite and >= 1")
    # n < 1 admits nothing, whatever the cap
    cap = math.ceil(kappa * m / max(n, 1)) + 1
    return [g.name for g in lib.candidates if n * capped_order(g, cap) >= kappa * m]


def delta_residual(g: GroupAction, r_hat: SymmetricMatrix) -> float:
    """Dimensionless commutativity residual ||R - P_G(R)||_F / ||R||_F."""
    norm = matrixcore.frobenius_norm(r_hat)
    if norm == 0.0:
        raise ValueError("delta residual undefined for the zero matrix")
    proj = reynolds_project(g, r_hat)
    return float(np.linalg.norm(r_hat.values - proj.values, "fro") / norm)


def tier2_select(data: Dataset, admitted: list[GroupAction],
                 grid: AlphaGrid = DEFAULT_GRID,
                 folds: FoldScheme | None = None,
                 use_lwnl_sample_term: bool = False) -> BMGReport:
    """Cross-validated held-out NLL per candidate, every candidate scored
    from one shared fold pass (``calibration.cv_nll_alphas``); the arg-min
    candidate is selected (ties break to library order) with its
    one-standard-error alpha, which the caller applies to the
    full-training-data covariance. A candidate's tier-2 score is its mean CV
    NLL at that alpha."""
    if not admitted:
        raise ValueError("tier2_select needs a non-empty admitted list; use the fallback path")
    stats = DataStats.of(data)
    results = calibration.cv_nll_alphas(stats, admitted, grid, folds, use_lwnl_sample_term)
    scores = {g.name: res.per_alpha_scores[res.alpha] for g, res in zip(admitted, results)}
    alphas = {g.name: res.alpha for g, res in zip(admitted, results)}
    ordered = [scores[g.name] for g in admitted]
    best_idx = int(np.argmin(ordered))   # first minimum = library order tie-break
    best = admitted[best_idx]
    tied = ordered.count(ordered[best_idx]) > 1
    # a lone candidate, or a second +inf behind a +inf best, has margin 0
    second = min((s for i, s in enumerate(ordered) if i != best_idx), default=ordered[best_idx])
    margin = 0.0 if second == ordered[best_idx] else float(second - ordered[best_idx])
    return BMGReport(
        selected=best.name,
        alpha=alphas[best.name],
        tier1_admitted=tuple(g.name for g in admitted),
        tier2_scores=scores,
        tier2_alphas=alphas,
        bmg_margin=margin,
        delta=delta_residual(best, stats.r_hat),
        fallback_used=False,
        tied=tied,
    )


def bmg_with_fallback(data: Dataset, lib: CandidateLibrary,
                      kappa: float = DEFAULT_KAPPA,
                      grid: AlphaGrid = DEFAULT_GRID,
                      folds: FoldScheme | None = None,
                      use_lwnl: bool = False):
    """Full selection pipeline; total on valid centered data.

    An empty Tier 1 shortlist falls back to auto-calibrated linear
    shrinkage of the unstructured sample covariance, flagged but reported
    as success; so does a dataset too small to carry any valid fold scheme
    (fewer than 3 rows). Otherwise returns the blend estimator (structural,
    or with the nonlinearly shrunken sample term when ``use_lwnl``) at the
    selected group and refit intensity.
    """
    stats = DataStats.of(data)
    if folds is None:
        folds = FoldScheme.feasible_contiguous(data.n_obs)
    admitted_names = [] if folds is None else tier1_admit(lib, data.n_obs, data.dim, kappa)
    if not admitted_names:
        est = shrinkage.lw2004_auto(stats)
        report = BMGReport(
            selected="", alpha=est.alpha, tier1_admitted=(),
            tier2_scores={}, tier2_alphas={}, bmg_margin=0.0,
            delta=float("nan"), fallback_used=True,
        )
        return est, report
    admitted = [lib.by_name(name) for name in admitted_names]
    report = tier2_select(stats, admitted, grid, folds, use_lwnl)
    selected = lib.by_name(report.selected)
    if use_lwnl:
        est = shrinkage.ad_lwnl_blend(stats, selected, report.alpha)
    else:
        est = shrinkage.ad_blend(stats.r_hat, selected, report.alpha)
    return est, report


def shah_at_selected(data: Dataset, lib: CandidateLibrary,
                     report: BMGReport) -> shrinkage.EstimatorResult:
    """Projection-only comparator composed at the BMG-selected group; under
    fallback there is no selected group and the sample covariance projects
    through the trivial action (i.e. is returned unchanged)."""
    g = trivial(data.dim) if report.fallback_used else lib.by_name(report.selected)
    return shrinkage.shah_projection(DataStats.of(data).r_hat, g)


REPORT_COLUMNS = ("candidate", "admitted", "mean_cv_nll", "best_alpha", "selected",
                  "margin", "delta")


def write_report_csv(path, lib: CandidateLibrary, report: BMGReport) -> None:
    """One row per candidate under ``REPORT_COLUMNS``."""
    matrixcore.write_csv(path, [REPORT_COLUMNS, *report_fields(lib, report)])


def report_fields(lib: CandidateLibrary, report: BMGReport,
                  trial: int | None = None) -> list[tuple]:
    """Per candidate, the ``REPORT_COLUMNS`` fields, led by ``trial`` if given."""
    lead = () if trial is None else (trial,)
    return [(*lead, g.name, g.name in report.tier1_admitted,
             report.tier2_scores.get(g.name, float("nan")),
             report.tier2_alphas.get(g.name, float("nan")),
             g.name == report.selected, report.bmg_margin, report.delta)
            for g in lib.candidates]


def report_rows(lib: CandidateLibrary, report: BMGReport,
                trial: int | None = None) -> list[str]:
    """``report_fields`` as CSV lines."""
    return [matrixcore.format_row(row) for row in report_fields(lib, report, trial)]
