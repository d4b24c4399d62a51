"""The estimator family: sample covariance, linear shrinkage toward the
scaled identity, analytical nonlinear eigenvalue shrinkage (rank-aware),
projection-only estimation, and the convex structural blends.

All estimators are pure functions from immutable inputs to EstimatorResult;
Monte Carlo trials may call them concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import calibration, matrixcore
from .calibration import DataStats
from .matrixcore import Dataset, SymmetricMatrix
from .groups import GroupAction, haar_orthogonal, reynolds_project

EST_SAMPLE = "sample"
EST_LW2004 = "lw2004"
EST_LWNL = "lwnl"
EST_SHAH = "shah_projection"
EST_AD = "ad"
EST_ADLWNL = "ad_lwnl"

FLAG_SINGULAR_INPUT = "singular_input"
FLAG_RANK_AWARE_KDE = "rank_aware_kde_applied"
FLAG_ALPHA_PINNED_0 = "alpha_pinned_0"
FLAG_ALPHA_PINNED_1 = "alpha_pinned_1"
FLAG_DEGENERATE_SPECTRUM = "degenerate_spectrum"

# The estimators that take a blend intensity, and those that take a group.
ALPHA_REQUIRED = frozenset({EST_LW2004, EST_AD, EST_ADLWNL})
GROUP_REQUIRED = frozenset({EST_SHAH, EST_AD, EST_ADLWNL})

# Sample eigenvalues below this fraction of the largest are treated as
# numerically zero and excluded from the nonlinear-shrinkage KDE.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class EstimatorResult:
    """A fitted covariance estimate plus the knobs that produced it.

    alpha is required for the blend estimators, absent for sample and the
    nonlinear shrinkage, and recorded as 1 for the projection-only
    estimator (its defining operating point).
    """

    estimator_name: str
    matrix: SymmetricMatrix
    alpha: float | None = None
    group_name: str | None = None
    flags: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags", frozenset(self.flags))
        if self.estimator_name in ALPHA_REQUIRED and self.alpha is None:
            raise ValueError(f"{self.estimator_name} requires alpha")
        if self.estimator_name in (EST_SAMPLE, EST_LWNL) and self.alpha is not None:
            raise ValueError(f"{self.estimator_name} carries no alpha")
        if self.estimator_name in GROUP_REQUIRED and self.group_name is None:
            raise ValueError(f"{self.estimator_name} requires a group name")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")


def _pin_flags(alpha: float) -> set[str]:
    if alpha == 0.0:
        return {FLAG_ALPHA_PINNED_0}
    if alpha == 1.0:
        return {FLAG_ALPHA_PINNED_1}
    return set()


def sample_estimator(data: Dataset) -> EstimatorResult:
    return EstimatorResult(EST_SAMPLE, DataStats.of(data).r_hat)


def _blend(estimator_name: str, sample_term: SymmetricMatrix, target: SymmetricMatrix,
           alpha: float, group_name: str | None = None,
           flags: frozenset[str] = frozenset()) -> EstimatorResult:
    """(1 - alpha) sample_term + alpha target, carrying the pin flags and
    ``flags``; EstimatorResult rejects an alpha outside [0, 1]."""
    alpha = float(alpha)
    return EstimatorResult(estimator_name, matrixcore.blend(sample_term, target, alpha),
                           alpha=alpha, group_name=group_name,
                           flags=_pin_flags(alpha) | flags)


def lw2004(r_hat: SymmetricMatrix, alpha: float) -> EstimatorResult:
    """The blend's Haar member: (1 - alpha) R_hat + alpha P_G(R_hat) with G the
    Haar-orthogonal group, whose projection is the scaled identity
    (tr R_hat / M) I. Bitwise equal to ``ad_blend`` at that group."""
    target = reynolds_project(haar_orthogonal(r_hat.dim), r_hat)
    return _blend(EST_LW2004, r_hat, target, alpha)


def lw2004_auto(data: Dataset) -> EstimatorResult:
    """Linear shrinkage with intensity from the Frobenius-MSE plug-in taken
    at the Haar-orthogonal group, whose projection is the scaled identity.

    Up to two centered rows hold at most one effective observation: one row
    centers to zero, and two center to x and -x, for which the plug-in
    returns alpha = 0 and the singular rank-1 sample covariance. Such input
    carries no anisotropy information, so alpha is pinned to 1 and the
    result is flagged ``singular_input``.
    """
    stats = DataStats.of(data)
    if data.n_obs <= 2:
        res = lw2004(stats.r_hat, 1.0)
        return replace(res, flags=res.flags | {FLAG_SINGULAR_INPUT})
    return lw2004(stats.r_hat,
                  calibration.mse_plugin_alpha(stats, haar_orthogonal(data.dim)).alpha)


# ---------------------------------------------------------------------------
# Analytical nonlinear shrinkage.
# ---------------------------------------------------------------------------

_SQRT5 = np.sqrt(5.0)
# epanechnikov_kde sums the kernel's Hilbert transform from _FAR_TERMS terms
# of its series beyond |u| = _FAR_W sqrt(5), where they reach rounding
_FAR_W, _FAR_TERMS = 4.0, 16


def epanechnikov_kde(eigs: np.ndarray, n_obs: int,
                     query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Variable-bandwidth Epanechnikov density estimate of the eigenvalue
    distribution and its closed-form Hilbert transform at the query points.

    Bandwidths are h_j = lambda_j * N^(-1/3). The Hilbert transform is
    returned in the pi-absorbed normalization H f(x) = PV int f(t)/(x-t) dt,
    so the shrinkage denominator reads (1 - c - c lam Hf)^2 + (pi c lam f)^2
    with no stray pi on the Hf term. The kernel is supported on
    |u| <= sqrt(5); at the support edge the logarithmic factor vanishes
    against its zero prefactor and only the linear term survives.

    With w = u / sqrt(5), the kernel's transform is
    -0.3 u - (3 / (2 sqrt(5))) (1 - w^2) artanh(min(|w|, 1/|w|) sign w). Far
    outside the support its two terms are of size |u| and cancel to about
    1/u, so beyond |w| = _FAR_W it is summed from its series
    -(3 / sqrt(5)) sum_k w^-(2k-1) / (4k^2 - 1) instead: the closed form
    lost all digits at |u| = 1e6, the width ratio of the smallest kept
    eigenvalue's kernel to a distant one when a sample spectrum reaches
    down near zero (N near M).
    """
    eigs = np.asarray(eigs, dtype=float)
    query = np.asarray(query, dtype=float)
    bw = eigs * n_obs ** (-1.0 / 3.0)
    u = (query[:, None] - eigs[None, :]) / bw[None, :]
    inside = np.maximum(1.0 - u**2 / 5.0, 0.0)
    f = (3.0 / (4.0 * _SQRT5)) * np.mean(inside / bw[None, :], axis=1)
    w = u / _SQRT5
    with np.errstate(divide="ignore", invalid="ignore"):
        core = (-3.0 / 10.0) * u - (3.0 / (2.0 * _SQRT5)) * (1.0 - w**2) \
            * np.arctanh(np.where(np.abs(w) < 1.0, w, 1.0 / w))
    core = np.where(np.isclose(np.abs(u), _SQRT5), (-3.0 / 10.0) * u, core)
    far = np.abs(w) > _FAR_W
    inv_sq, series = 1.0 / w[far] ** 2, 0.0
    for k in range(_FAR_TERMS, 0, -1):
        series = series * inv_sq + 1.0 / (4 * k * k - 1)
    core[far] = (-3.0 / _SQRT5) * series / w[far]
    hf = np.mean(core / bw[None, :], axis=1)
    return f, hf


def _shrink_eigenvalues(lam: np.ndarray, f: np.ndarray, hf: np.ndarray,
                        c: float) -> np.ndarray:
    denom = (1.0 - c - c * lam * hf) ** 2 + (np.pi * c * lam * f) ** 2
    return lam / denom


def lwnl_from_covariance(r_hat: SymmetricMatrix, n_obs: int) -> EstimatorResult:
    """Nonlinear eigenvalue shrinkage (Ledoit & Wolf 2020, Ann. Statist.
    48(5):3043-3065) of a precomputed covariance whose centered rows have
    rank ``n_obs``, the formulas' sample size n: N - 1 for R_hat, whose rows
    are centered on their own mean, and n_train for a fold's training rows,
    centered on the mean of all N rows.

    With M <= n, the p <= n map at c = M/n. Sample eigenvalues below
    RANK_RTOL * lambda_max are excluded from the KDE support and all map to
    one shared shrunken value, obtained by applying the map at the
    exclusion threshold itself, which keeps it continuous at the cut. An
    exactly degenerate retained spectrum (k * I input) is returned
    unchanged, since the closed-form transform is not the identity there.

    With M > n, the p > n branch: the top n eigenvalues (those above the
    threshold) form the KDE support and map by the p <= n map at c = 1,
    lambda / (pi^2 lambda^2 (f^2 + Hf^2)) in the paper's convention, and the
    M - n others share 1 / (pi (M - n)/n Hf(0)); with the pi of
    ``epanechnikov_kde`` absorbed in Hf, that is n / ((M - n) Hf(0)), about
    n / (M - n) times the kept eigenvalues' harmonic mean.
    """
    if n_obs < 1:
        raise ValueError("nonlinear shrinkage requires at least 2 observations "
                         f"(centered rows of rank >= 1), got rank {n_obs}")
    m = r_hat.dim
    lam, u = np.linalg.eigh(r_hat.values)
    lam_max = lam[-1]
    if lam_max <= 0.0:
        return EstimatorResult(EST_LWNL, r_hat,
                               flags={FLAG_DEGENERATE_SPECTRUM, FLAG_SINGULAR_INPUT})
    threshold = RANK_RTOL * lam_max
    keep = lam >= threshold
    keep[:max(m - n_obs, 0)] = False   # at M > n, the M - n smallest are the null ones
    lam_kept = lam[keep]
    flags: set[str] = set()
    if not keep.all():
        flags.add(FLAG_RANK_AWARE_KDE)
        flags.add(FLAG_SINGULAR_INPUT)

    if m > n_obs:
        c = 1.0
        f, hf = epanechnikov_kde(lam_kept, n_obs, np.append(lam_kept, 0.0))
        null = n_obs / ((m - n_obs) * hf[-1])
    else:
        c = m / n_obs
        if lam_kept.max() - lam_kept.min() <= 1e-12 * lam_max:
            # Degenerate retained spectrum: check the k*I fixed point and
            # fall back to the input when the transform moves it.
            f0, hf0 = epanechnikov_kde(lam_kept[:1], n_obs, lam_kept[:1])
            moved = _shrink_eigenvalues(lam_kept[:1], f0, hf0, c)[0]
            if abs(moved - lam_kept[0]) > 1e-8 * lam_kept[0]:
                return EstimatorResult(EST_LWNL, r_hat,
                                       flags=flags | {FLAG_DEGENERATE_SPECTRUM})
        f, hf = epanechnikov_kde(lam_kept, n_obs, np.append(lam_kept, threshold))
        null = _shrink_eigenvalues(threshold, f[-1], hf[-1], c)
    out_eigs = np.full(m, null)
    out_eigs[keep] = _shrink_eigenvalues(lam_kept, f[:-1], hf[:-1], c)
    matrix = SymmetricMatrix((u * out_eigs) @ u.T)
    return EstimatorResult(EST_LWNL, matrix, flags=flags)


def lwnl(data: Dataset) -> EstimatorResult:
    """Nonlinear eigenvalue shrinkage of the sample covariance."""
    return DataStats.of(data).lwnl


# ---------------------------------------------------------------------------
# Structural estimators.
# ---------------------------------------------------------------------------

def shah_projection(r_hat: SymmetricMatrix, g: GroupAction) -> EstimatorResult:
    """Projection-only estimator: the blend's alpha = 1 end, P_G(R_hat)."""
    return _blend(EST_SHAH, r_hat, reynolds_project(g, r_hat), 1.0, g.name)


def ad_blend(r_hat: SymmetricMatrix, g: GroupAction, alpha: float) -> EstimatorResult:
    """Convex blend (1 - alpha) R_hat + alpha P_G(R_hat); PSD whenever the
    input is PSD, being a non-negative combination of two PSD matrices."""
    return _blend(EST_AD, r_hat, reynolds_project(g, r_hat), alpha, g.name)


def ad_lwnl_blend(data: Dataset, g: GroupAction, alpha: float) -> EstimatorResult:
    """Blend with the sample term upgraded to its nonlinear shrinkage:
    (1 - alpha) LWNL + alpha P_G(R_hat), the projection taken of the raw
    sample covariance."""
    stats = DataStats.of(data)
    return _blend(EST_ADLWNL, stats.lwnl.matrix, reynolds_project(g, stats.r_hat), alpha,
                  g.name, stats.lwnl.flags)


# ---------------------------------------------------------------------------
# Estimator CSV: one metadata line (estimator,alpha,group,flags), then the
# matrix CSV body.
# ---------------------------------------------------------------------------

def write_estimator_csv(path, result: EstimatorResult) -> None:
    meta = (result.estimator_name, result.alpha, result.group_name, ";".join(sorted(result.flags)))
    matrixcore.write_csv(path, [meta, (result.matrix.dim,), *result.matrix.values.tolist()])


def read_estimator_csv(path) -> EstimatorResult:
    lines = matrixcore.read_csv_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty estimator file")
    no, meta = lines[0]
    fields = meta.split(",", 3)
    if len(fields) != 4:
        raise ValueError(f"{path}:{no}: expected 4 metadata fields "
                         f"(estimator,alpha,group,flags), found {len(fields)}")
    name, alpha, group, flags = fields
    try:
        alpha_value = float(alpha) if alpha else None
    except ValueError as exc:
        raise ValueError(f"{path}:{no}: {exc}") from None
    return EstimatorResult(
        estimator_name=name,
        matrix=matrixcore.parse_matrix(path, lines[1:]),
        alpha=alpha_value,
        group_name=group or None,
        flags=frozenset(flags.split(";")) if flags else frozenset(),
    )
