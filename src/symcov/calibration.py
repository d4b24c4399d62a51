"""Shrinkage-intensity selection: the closed-form Frobenius-MSE plug-in,
the K-fold held-out-NLL grid calibration (one-standard-error rule), and the
leading-order asymptotic predictions for the NLL optimum and its
transition sample size.

Per-fold and per-alpha evaluations are independent; reductions are ordered,
so a parallel caller gets identical results to a serial one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import matrixcore
from .matrixcore import Dataset, DimensionMismatchError, SymmetricMatrix, second_moment
from .groups import (
    GroupAction,
    KIND_HAAR,
    orbit_partition,
    projected_outer_sq_norms,
    reynolds_project,
)

METHOD_MSE_PLUGIN = "mse_plugin"
METHOD_CV_NLL = "cv_nll"

NOTE_DENOMINATOR_DEGENERATE = "denominator_degenerate"
NOTE_MATCHED_LIMIT = "matched_limit"

# Ridge scale for the documented R_hat plug-in mode of the asymptotic
# predictions; see predict_alpha_nll_asymptotic.
PLUGIN_RIDGE_SCALE = 1e-8

# Held-out calibration defaults, shared by the CLI and the sweep config.
DEFAULT_GRID_POINTS = 13
DEFAULT_FOLDS = 5

# _alpha_curve certifies an alpha when its lower bound on lambda_min(blend) is
# this fraction of the largest diagonal entry: far above PIVOT_RTOL**2, so the
# rounding of either factorization (about M^2 eps) cannot flip the verdict.
CURVE_GUARD = 1e-8
# _gram_spectrum declines a Gram matrix whose smallest eigenvalue is at most
# this fraction of its largest: far above eigh's rounding of about n eps
# lambda_max, so a zero eigenvalue (dependent training rows) never passes.
GRAM_RTOL = 1e-10


@dataclass(frozen=True)
class AlphaGrid:
    """Sorted grid over [0, 1] with both endpoints always present."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2 or pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("alpha grid must start at 0 and end at 1")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("alpha grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, n_points: int = DEFAULT_GRID_POINTS) -> "AlphaGrid":
        if n_points < 2:
            raise ValueError(f"a uniform alpha grid needs at least 2 points, got {n_points}")
        return cls(tuple(i / (n_points - 1) for i in range(n_points)))


DEFAULT_GRID = AlphaGrid.uniform()


@dataclass(frozen=True)
class FoldScheme:
    """Partition of n_obs row indices into k contiguous blocks, in row
    order, with sizes differing by at most one (the larger blocks first)."""

    n_obs: int
    k: int

    def __post_init__(self) -> None:
        if not 2 <= self.k <= self.n_obs:
            raise ValueError(f"cannot split {self.n_obs} rows into {self.k} folds")

    @classmethod
    def contiguous(cls, n_obs: int, k: int = DEFAULT_FOLDS) -> "FoldScheme":
        return cls(n_obs, k)

    @classmethod
    def feasible_contiguous(cls, n_obs: int, k: int = DEFAULT_FOLDS) -> "FoldScheme | None":
        """Contiguous folds with k clamped to the row count, or None when no
        scheme leaves every training complement at least 2 rows (n_obs < 3)."""
        if n_obs < 3:
            return None
        return cls.contiguous(n_obs, min(k, n_obs))

    def fold_mask(self, fold: int) -> np.ndarray:
        size, extra = divmod(self.n_obs, self.k)
        start = fold * size + min(fold, extra)
        mask = np.zeros(self.n_obs, dtype=bool)
        mask[start:start + size + (fold < extra)] = True
        return mask


@dataclass(frozen=True)
class CalibrationResult:
    alpha: float
    method: str
    per_alpha_scores: dict | None = None
    fold_scores: np.ndarray | None = None   # (k, n_alpha) when method is cv_nll
    v_perp_hat: float | None = None
    v_plus_d_hat: float | None = None
    note: str | None = None


def mse_plugin_alpha(data: Dataset, g: GroupAction) -> CalibrationResult:
    """Closed-form plug-in for the Frobenius-MSE-optimal intensity.

    Numerator: (1/N^2) sum_k || Pperp(x_k x_k^T) - Pperp(R_hat) ||_F^2.
    Denominator: || R_hat - P_G(R_hat) ||_F^2, the observable form of
    V_perp + D. The ratio is clipped into [0, 1]. When the group fixes the
    sample covariance exactly the denominator vanishes and alpha = 1 is
    returned with a degenerate note (every alpha gives the same blend).
    """
    if not data.centered:
        raise matrixcore.CenteringError("mse_plugin_alpha requires centered data")
    if data.n_obs < 2:
        raise ValueError("mse_plugin_alpha requires at least 2 observations")
    if g.dim != data.dim:
        raise DimensionMismatchError(f"group dim {g.dim} != data dim {data.dim}")
    n = data.n_obs
    r_hat = DataStats.of(data).r_hat
    r_proj = reynolds_project(g, r_hat)
    perp_rhat = r_hat.values - r_proj.values
    denom = float(np.sum(perp_rhat**2))
    scale = float(np.sum(r_hat.values**2))
    if denom <= 1e-14 * scale:
        return CalibrationResult(alpha=1.0, method=METHOD_MSE_PLUGIN,
                                 v_perp_hat=0.0, v_plus_d_hat=denom,
                                 note=NOTE_DENOMINATOR_DEGENERATE)
    # sum_k ||Pperp(x_k x_k^T) - Pperp(R_hat)||^2
    #   = sum_k (||x_k||^4 - ||P(x_k x_k^T)||^2) - N ||Pperp(R_hat)||^2
    sq = np.einsum("ij,ij->i", data.rows, data.rows)
    total = float(np.sum(sq**2 - projected_outer_sq_norms(g, data.rows))) - n * denom
    v_perp = total / (n * n)
    alpha = min(1.0, max(0.0, v_perp / denom))
    return CalibrationResult(alpha=alpha, method=METHOD_MSE_PLUGIN,
                             v_perp_hat=v_perp, v_plus_d_hat=denom)


def _one_se_index(scores: np.ndarray) -> int:
    """Grid index chosen from a (k, n_alpha) fold-score matrix by the paired
    one-standard-error rule toward the largest alpha.

    The standard error is taken over the per-fold differences to the best
    column: every alpha is scored on the same folds, so a fold-to-fold
    offset common to all alphas cancels instead of widening the band.
    """
    k = scores.shape[0]
    best = int(np.argmin(scores.mean(axis=0)))   # first minimum = smallest alpha
    # a +inf fold score makes a column's mean difference +inf or NaN, and
    # neither compares below its SE, so such a column is never promoted
    with np.errstate(invalid="ignore"):
        diffs = scores - scores[:, best:best + 1]
        se = diffs.std(axis=0, ddof=1) / np.sqrt(k)
        within = diffs.mean(axis=0) < se
    promoted = np.flatnonzero(within[best + 1:])
    return best + 1 + int(promoted[-1]) if promoted.size else best


def _factor(t: SymmetricMatrix) -> tuple[np.ndarray, float, float] | None:
    """(L^-1, logdet T, ||L^-1||_F^2) with T = L L^T, or None when T is not
    positive definite."""
    ell, info = lapack.dpotrf(t.values, lower=1, clean=1)
    if info == 0:
        inv_ell, info = lapack.dtrtri(ell, lower=1)
    if info != 0:
        return None
    return inv_ell, 2.0 * float(np.sum(np.log(np.diag(ell)))), float(np.sum(inv_ell**2))


class DataStats(Dataset):
    """A dataset that computes on first use, and keeps, R_hat (``r_hat``),
    its ``lwnl_from_covariance`` result (``lwnl``), and per fold scheme the
    fold ``moments``, the ``fold_rows`` and each distinct target's fold
    projections with their ``_factor``, keyed by merged orbit partition,
    which fixes the projection bitwise (Haar groups of one dimension share
    one). Estimators read statistics through ``of``, which wraps a plain
    Dataset for one call only: only a caller holding a DataStats keeps them."""

    @classmethod
    def of(cls, data: Dataset) -> "DataStats":
        return data if isinstance(data, cls) else cls(data.rows, data.centered)

    def _cached(self, key, compute):
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    @property
    def r_hat(self) -> SymmetricMatrix:
        return self._cached("r_hat", lambda: matrixcore.sample_covariance(self))

    @property
    def lwnl(self):
        from . import shrinkage
        return self._cached("lwnl", lambda: shrinkage.lwnl_from_covariance(self.r_hat,
                                                                           self.n_obs))

    def moments(self, folds: FoldScheme) -> list[tuple[SymmetricMatrix, int, SymmetricMatrix]]:
        """(R_train, training row count, R_test) per fold."""
        if folds.n_obs != self.n_obs:
            raise ValueError("fold scheme built for a different number of rows")
        return self._cached(folds, lambda: [
            (second_moment(self.rows[~mask]), int((~mask).sum()), second_moment(self.rows[mask]))
            for mask in map(folds.fold_mask, range(folds.k))])

    def fold_rows(self, folds: FoldScheme) -> list[tuple[np.ndarray, np.ndarray]]:
        """(training rows, test rows) per fold."""
        if folds.n_obs != self.n_obs:
            raise ValueError("fold scheme built for a different number of rows")
        return self._cached((folds, "rows"), lambda: [
            (self.rows[~mask], self.rows[mask]) for mask in map(folds.fold_mask, range(folds.k))])

    def targets(self, folds: FoldScheme,
                g: GroupAction) -> tuple[tuple[SymmetricMatrix, tuple | None], ...]:
        """(T, _factor(T)) per fold, shared by every group of g's partition."""
        key = g.dim if g.kind == KIND_HAAR else orbit_partition(g).sym_class_of.tobytes()
        return self._cached((folds, key), lambda: tuple(
            (t, _factor(t)) for t in (reynolds_project(g, r) for r, _, _ in self.moments(folds))))


def _eigen_spectrum(residual: np.ndarray, inv_ell: np.ndarray, r_test: SymmetricMatrix,
                    alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e, d) from the M x M eigendecomposition L^-1 (S - T) L^-T = Q diag(mu) Q^T:
    e = 1 + (1 - alpha) mu and d = diag(Q^T L^-1 R_test L^-T Q)."""
    mu, q = np.linalg.eigh(inv_ell @ -residual @ inv_ell.T)
    rot = q.T @ inv_ell
    return 1.0 + np.outer(1.0 - alphas, mu), np.einsum("ij,ij->i", rot @ r_test.values, rot)


def _gram_spectrum(x_train: np.ndarray, x_test: np.ndarray, inv_ell: np.ndarray,
                   alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(e, d) of the raw training moment S = X_tr^T X_tr / n_tr with n_tr < M,
    from the n_tr x n_tr Gram matrix, or None when it is numerically singular.

    With Y = X_tr L^-T / sqrt(n_tr), Z = X_te L^-T and Y Y^T = P diag(lambda)
    P^T, the directions Y^T p_i have e = alpha + (1 - alpha) lambda_i and
    d = ||Z Y^T p_i||^2 / (n_te lambda_i); the other M - n_tr directions have
    e = alpha and share d = ||Z||^2 / n_te - sum d_i, carried on one of them.
    """
    n_train, m = x_train.shape
    y = x_train @ inv_ell.T / np.sqrt(n_train)
    z = x_test @ inv_ell.T
    lam, p = np.linalg.eigh(y @ y.T)
    if lam[0] <= GRAM_RTOL * lam[-1]:
        return None
    w = (z @ y.T) @ p
    d = np.zeros(m)
    d[:n_train] = np.einsum("ij,ij->j", w, w) / (len(z) * lam)
    d[n_train] = np.einsum("ij,ij->", z, z) / len(z) - d[:n_train].sum()
    e = np.repeat(alphas[:, None], m, axis=1)
    e[:, :n_train] += np.outer(1.0 - alphas, lam)
    return e, d


def _alpha_curve(sample_term: SymmetricMatrix, target: SymmetricMatrix, factors: tuple | None,
                 r_test: SymmetricMatrix, alphas: np.ndarray, at_zero: float,
                 fold_rows: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Held-out NLL of blend(alpha) = S + alpha (T - S) at every grid alpha
    from one factorization. With T = L L^T, L^-1 blend(alpha) L^-T =
    V diag(e(alpha)) V^T for one orthogonal V at every alpha, so the logdet
    is logdet T + sum log e and the trace term sum d / e with
    d = diag(V^T L^-1 R_test L^-T V). ``_gram_spectrum`` gives (e, d) when
    ``fold_rows`` (the fold's training and test rows, passed only when S is
    their raw training moment and has fewer rows than M) has a nonsingular
    Gram matrix, ``_eigen_spectrum`` otherwise. Alphas not certified to pass
    the pivot test of ``gaussian_nll_per_sample`` (lambda_min(blend) >=
    min e / ||L^-1||_F^2, and no squared pivot exceeds the largest diagonal
    entry), and all alphas when T is not positive definite, are scored on
    their explicit blends, so the +inf sentinel stays in one place.
    ``at_zero`` is the group-free alpha = 0 score.
    """
    s, t = sample_term.values, target.values
    # difference form: a zero residual (e.g. the trivial group) gives every
    # alpha the sample term's score bitwise, so structural ties stay exact
    residual = t - s
    scores = np.full(len(alphas), at_zero)
    if not residual.any():
        return scores
    certified = np.zeros(len(alphas), dtype=bool)
    if factors is not None:
        inv_ell, logdet_t, inv_norm_sq = factors
        spectrum = None if fold_rows is None else _gram_spectrum(*fold_rows, inv_ell, alphas)
        e, d = spectrum or _eigen_spectrum(residual, inv_ell, r_test, alphas)
        max_diag = max(np.diag(s).max(), np.diag(t).max())
        certified = e.min(axis=1) >= CURVE_GUARD * max_diag * inv_norm_sq
        certified[0] = False   # the shared at_zero score stands
        good = e[certified]
        scores[certified] = 0.5 * (logdet_t + np.log(good).sum(axis=1) + (d / good).sum(axis=1))
    for j in np.flatnonzero(~certified[1:]) + 1:
        # S + alpha (T - S), not matrixcore.blend: sharing the curve's residual
        # keeps both paths equal to rounding, while the convex form moved LWNL
        # fold scores at N = 50, M = 100 by up to 5.3e-7 relative
        blend = SymmetricMatrix(s + alphas[j] * residual)
        scores[j] = matrixcore.gaussian_nll_per_sample(blend, r_test)
    return scores


def cv_nll_alphas(data: Dataset, candidates: Sequence[GroupAction],
                  grid: AlphaGrid = DEFAULT_GRID, folds: FoldScheme | None = None,
                  use_lwnl_sample_term: bool = False) -> list[CalibrationResult]:
    """K-fold held-out-NLL calibration of the blend intensity on the grid,
    one result per group of ``candidates``.

    Per fold: the training-complement covariance is blended with its own
    projection at each grid alpha and scored against the fold's sample
    covariance. Only the projection depends on the group, so the per-fold
    moments, sample term and alpha = 0 score are shared by every candidate,
    and candidates with one target share one curve; a ``DataStats`` passed
    as ``data`` shares the moments, fold rows and targets across calls.
    Scores average across folds per alpha. The returned alpha follows the
    paired one-standard-error rule toward the structured end (Hastie,
    Tibshirani & Friedman, ESL section 7.10): with ``best`` the first
    (smallest-alpha) minimizer of the mean score, it is the largest alpha
    whose per-fold score differences from ``best`` have a mean below their
    own standard error, or alpha_best when no larger alpha qualifies.
    The inequality is strict, so exact ties (the trivial group) keep the
    smallest alpha. Non-finite scores participate and simply lose, and a
    grid point with any non-finite fold score is never promoted, so
    rank-deficient blends at small alpha degrade gracefully.
    """
    from . import shrinkage

    stats = DataStats.of(data)
    if folds is None:
        folds = FoldScheme.contiguous(data.n_obs)
    alphas = np.asarray(grid.points)
    fold_terms = []
    for fold, (r_train, n_train, r_test) in enumerate(stats.moments(folds)):
        if n_train < 2:
            raise ValueError(f"training complement of fold {fold} has fewer than 2 rows")
        sample_term = (shrinkage.lwnl_from_covariance(r_train, n_train).matrix
                       if use_lwnl_sample_term else r_train)
        # the alpha = 0 blend is the sample term alone, whatever the group
        at_zero = matrixcore.gaussian_nll_per_sample(sample_term, r_test)
        # a raw moment of fewer rows than M is scored from its Gram matrix
        rows = (stats.fold_rows(folds)[fold]
                if not use_lwnl_sample_term and n_train < data.dim else None)
        fold_terms.append((sample_term, r_test, at_zero, rows))
    results = []
    curves: dict = {}   # fold scores per distinct target, keyed by its identity
    for g in candidates:
        targets = stats.targets(folds, g)
        if id(targets) not in curves:
            curves[id(targets)] = np.array([
                _alpha_curve(sample_term, *target, r_test, alphas, at_zero, rows)
                for (sample_term, r_test, at_zero, rows), target in zip(fold_terms, targets)])
        scores = curves[id(targets)]
        mean_scores = scores.mean(axis=0)
        chosen = _one_se_index(scores)
        results.append(CalibrationResult(
            alpha=float(alphas[chosen]), method=METHOD_CV_NLL,
            per_alpha_scores={float(a): float(s) for a, s in zip(alphas, mean_scores)},
            fold_scores=scores,
        ))
    return results


def cv_nll_alpha(data: Dataset, g: GroupAction, grid: AlphaGrid = DEFAULT_GRID,
                 folds: FoldScheme | None = None,
                 use_lwnl_sample_term: bool = False) -> CalibrationResult:
    """``cv_nll_alphas`` for a single group."""
    return cv_nll_alphas(data, (g,), grid, folds, use_lwnl_sample_term)[0]


def write_cv_trace_csv(path, result: CalibrationResult, grid: AlphaGrid) -> None:
    """Per-fold, per-alpha held-out NLL trace: columns fold,alpha,nll."""
    if result.fold_scores is None:
        raise ValueError("calibration result carries no fold trace")
    matrixcore.write_csv(path, [("fold", "alpha", "nll")] + [
        (fold, alpha, score)
        for fold, scores in enumerate(result.fold_scores.tolist())
        for alpha, score in zip(grid.points, scores)])


# ---------------------------------------------------------------------------
# Leading-order asymptotics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NllAsymptote:
    alpha: float
    matched_limit: bool = False

    @property
    def note(self) -> str | None:
        return NOTE_MATCHED_LIMIT if self.matched_limit else None


def _inverse_spd(sigma: SymmetricMatrix, ridge_scale: float | None) -> np.ndarray:
    if ridge_scale is not None:
        sigma = SymmetricMatrix(
            sigma.values + np.eye(sigma.dim) * (ridge_scale * sigma.trace() / sigma.dim))
    factors = _factor(sigma)
    if factors is None:
        raise ValueError("asymptotic predictions require a positive-definite matrix")
    return factors[0].T @ factors[0]


def curvature_constant(sigma: SymmetricMatrix, g: GroupAction,
                       ridge_scale: float | None = None) -> float:
    """c(Sigma, G) = M(M+1) - 2 d_G - 2(M+1) tr(Sigma^-1 B_G), the leading-
    order numerator of the expected-NLL optimum; strictly positive for any
    non-trivially acting group."""
    return _q_b_and_curvature(sigma, g, ridge_scale)[1]


def _q_b_and_curvature(sigma: SymmetricMatrix, g: GroupAction,
                       ridge_scale: float | None) -> tuple[float, float]:
    """Q_B = tr((Sigma^-1 B_G)^2) and c(Sigma, G) from one inversion of Sigma."""
    m = sigma.dim
    sigma_inv = _inverse_spd(sigma, ridge_scale)
    sb = sigma_inv @ (sigma.values - reynolds_project(g, sigma).values)
    d_g = 1 if g.kind == KIND_HAAR else orbit_partition(g).d_g
    return (float(np.trace(sb @ sb)),
            float(m * (m + 1) - 2 * d_g - 2 * (m + 1) * np.trace(sb)))


def predict_alpha_nll_asymptotic(sigma: SymmetricMatrix, g: GroupAction, n: int,
                                 ridge_scale: float | None = None) -> NllAsymptote:
    """Leading-order expected-NLL-optimal intensity, clipped into [0, 1];
    the matched limit (Q_B ~ 0) reports alpha = 1.

    The saturating form c / (N Q_B + c) is used: it agrees with the
    leading-order ratio c / (N Q_B) as N grows, stays inside (0, 1) at
    every N, and crosses 1/2 exactly at the transition size N* = c / Q_B.

    Theory-side: ``sigma`` is the population covariance. Substituting the
    sample covariance is supported via ``ridge_scale`` (the documented value
    is PLUGIN_RIDGE_SCALE), but the finite-sample bias of the inverted
    sample covariance makes that plug-in unreliable when M/N is near one or
    the spectrum is very spread; the held-out calibration avoids inverting
    anything and is the robust choice there.
    """
    q_b, c_const = _q_b_and_curvature(sigma, g, ridge_scale)
    if q_b <= 1e-14 * sigma.dim:
        return NllAsymptote(alpha=1.0, matched_limit=True)
    return NllAsymptote(alpha=min(1.0, max(0.0, c_const / (n * q_b + c_const))))


def predict_n_star(sigma: SymmetricMatrix, g: GroupAction,
                   ridge_scale: float | None = None) -> float:
    """Transition sample size c(Sigma, G) / Q_B at which the asymptotic
    NLL-optimal intensity crosses 1/2; undefined at the matched limit."""
    q_b, c_const = _q_b_and_curvature(sigma, g, ridge_scale)
    if q_b <= 1e-14 * sigma.dim:
        raise ValueError("transition scale undefined at the matched limit (Q_B = 0)")
    return c_const / q_b
