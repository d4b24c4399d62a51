"""Shrinkage-intensity selection: the closed-form Frobenius-MSE plug-in and
the K-fold held-out-NLL grid calibration (one-standard-error rule).

Per-fold and per-alpha evaluations are independent; reductions are ordered,
so a parallel caller gets identical results to a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

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

# Held-out calibration defaults, shared by the CLI and the sweep config.
DEFAULT_GRID_POINTS = 13
DEFAULT_FOLDS = 5

# _alpha_curve certifies an alpha when its lower bound on lambda_min(blend) is
# this fraction of the largest diagonal entry: far above PIVOT_RTOL**2, so the
# rounding of either factorization (about M^2 eps) cannot flip the verdict.
CURVE_GUARD = 1e-8
# _alpha_curve scores an M x M curve from a tridiagonal reduction and the
# fold's test rows when there are fewer than this fraction of M of them, and
# from an eigendecomposition otherwise: dptsv's cost grows with test rows times
# alphas. With BLAS on one thread and 12 alphas, a tridiagonal curve passes an
# _eigen_curve's time at 40-48 test rows at M = 100 and at 64-128 at M = 400.
TRIDIAGONAL_ROW_FRACTION = 0.25


def alpha_grid(n_points: int = DEFAULT_GRID_POINTS) -> tuple[float, ...]:
    """The uniform grid of ``n_points`` alphas from 0 to 1."""
    if n_points < 2:
        raise ValueError(f"a uniform alpha grid needs at least 2 points, got {n_points}")
    return tuple(i / (n_points - 1) for i in range(n_points))


def fold_slices(n_obs: int, k: int) -> list[slice]:
    """The k contiguous blocks of n_obs rows, in row order, with sizes
    differing by at most one (the larger blocks first)."""
    if not 2 <= k <= n_obs:
        raise ValueError(f"cannot split {n_obs} rows into {k} folds")
    size, extra = divmod(n_obs, k)
    starts = [fold * size + min(fold, extra) for fold in range(k + 1)]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:])]


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

    Both sums are of fourth powers of the rows. They are taken of the rows
    scaled by a power of two to a largest entry in [1/2, 1), and of R_hat
    scaled to match, and the two variances are scaled back: the scaling is
    exact, so alpha is the same at any scale of the rows (the variances
    themselves can still underflow or overflow) and unchanged bitwise at
    ordinary scales.
    """
    data = DataStats.of(data)
    if data.n_obs < 2:
        raise ValueError("mse_plugin_alpha requires at least 2 observations")
    if g.dim != data.dim:
        raise DimensionMismatchError(f"group dim {g.dim} != data dim {data.dim}")
    n = data.n_obs
    shift = int(np.frexp(np.abs(data.rows).max())[1])
    rows = np.ldexp(data.rows, -shift)
    r_hat = np.ldexp(data.r_hat.values, -2 * shift)

    def unscaled(v: float) -> float:
        with np.errstate(over="ignore"):   # a variance alone may overflow
            return float(np.ldexp(v, 4 * shift))

    r_proj = reynolds_project(g, SymmetricMatrix.of_symmetric(r_hat))
    perp_rhat = r_hat - r_proj.values
    denom = float(np.sum(perp_rhat**2))
    scale = float(np.sum(r_hat**2))
    if denom <= 1e-14 * scale:
        return CalibrationResult(alpha=1.0, method=METHOD_MSE_PLUGIN,
                                 v_perp_hat=0.0, v_plus_d_hat=unscaled(denom),
                                 note=NOTE_DENOMINATOR_DEGENERATE)
    # sum_k ||Pperp(x_k x_k^T) - Pperp(R_hat)||^2
    #   = sum_k (||x_k||^4 - ||P(x_k x_k^T)||^2) - N ||Pperp(R_hat)||^2
    sq = np.einsum("ij,ij->i", rows, rows)
    total = float(np.sum(sq**2 - projected_outer_sq_norms(g, rows))) - n * denom
    v_perp = total / (n * n)
    alpha = min(1.0, max(0.0, v_perp / denom))
    return CalibrationResult(alpha=alpha, method=METHOD_MSE_PLUGIN,
                             v_perp_hat=unscaled(v_perp), v_plus_d_hat=unscaled(denom))


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
    """A centered dataset that computes on first use, and keeps, R_hat
    (``r_hat``), its ``lwnl_from_covariance`` result (``lwnl``), and per fold
    count the fold ``splits``, each fold's term per sample-term kind (the one
    place its alpha-curve route is decided, in ``fold_scores``), each
    distinct target's fold projections (``targets``) and its
    ``fold_scores``: the one cache of held-out statistics, shared by every
    group and call on it. Estimators read statistics through ``of``, which
    wraps a plain Dataset for one call only: only a caller holding a
    DataStats keeps them."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.centered:
            raise matrixcore.CenteringError("statistics require centered data")

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
        # LWNL's n is N - 1: R_hat's rows are centered on their own mean
        return self._cached("lwnl", lambda: shrinkage.lwnl_from_covariance(self.r_hat,
                                                                           self.n_obs - 1))

    def splits(self, folds: int) -> list[tuple[np.ndarray | None, np.ndarray,
                                                SymmetricMatrix, SymmetricMatrix]]:
        """(X_train, X_test, R_train, R_test) per fold of ``fold_slices``: the
        one place the rows are split. X_test is a view of the rows; X_train,
        which only the Gram route reads, is None unless it has fewer rows than M."""

        def split(test):
            x_train, x_test = np.delete(self.rows, test, axis=0), self.rows[test]
            return (x_train if len(x_train) < self.dim else None, x_test,
                    second_moment(x_train), second_moment(x_test))

        return self._cached(("splits", folds),
                            lambda: [split(test) for test in fold_slices(self.n_obs, folds)])

    def targets(self, folds: int, g: GroupAction) -> tuple[SymmetricMatrix, ...]:
        """T = P_G(R_train) per fold, shared by every group of g's partition."""
        return self._cached(("targets", folds, _partition_key(g)), lambda: tuple(
            reynolds_project(g, r_train) for _, _, r_train, _ in self.splits(folds)))

    def fold_scores(self, folds: int, g: GroupAction, grid_points: int,
                    use_lwnl: bool) -> np.ndarray:
        """Read-only (k, n_alpha) held-out NLL of g's blend at every grid alpha
        on every fold, shared by every group of g's partition. Each fold's
        term, kept once per fold count and kind since no group changes it, is
        the one place its curve's route is decided: the sample term S
        (R_train, or its LWNL when ``use_lwnl``), its alpha = 0 score, and
        either S's ``_sample_whitening`` or, for an R_train of fewer than M
        rows, those training rows for the Gram route."""
        from . import shrinkage

        def term(fold, split):
            x_train, x_test, r_train, r_test = split
            n_train = self.n_obs - len(x_test)
            if n_train < 2:
                raise ValueError(f"training complement of fold {fold} has fewer than 2 rows")
            # LWNL's n is n_train: the training rows are centered on the mean of all N
            s = shrinkage.lwnl_from_covariance(r_train, n_train).matrix if use_lwnl else r_train
            # the split keeps the rows of an R_train singular by rank (fewer than M):
            # no factor to try, the Gram route scores from them
            gram_rows = None if use_lwnl else x_train
            whitening = None if gram_rows is not None else _sample_whitening(s, x_test, r_test)
            return s, matrixcore.gaussian_nll_per_sample(s, r_test), whitening, gram_rows

        def score():
            splits, alphas = self.splits(folds), np.asarray(alpha_grid(grid_points))
            terms = self._cached(("terms", folds, use_lwnl),
                                 lambda: [term(f, split) for f, split in enumerate(splits)])
            scores = np.array([_alpha_curve(*fold_term, t, split, alphas) for fold_term, t, split
                               in zip(terms, self.targets(folds, g), splits)])
            scores.flags.writeable = False
            return scores

        return self._cached(("fold_scores", folds, _partition_key(g), grid_points, use_lwnl),
                            score)


def _partition_key(g: GroupAction):
    """Equal for groups whose projections agree bitwise (Haar: one per dimension)."""
    return g.dim if g.kind == KIND_HAAR else orbit_partition(g).sym_class_of.tobytes()


def _whiten(inv_ell: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X L^-T for the lower-triangular L^-1, by one dtrmm: half a GEMM's work."""
    return blas.dtrmm(1.0, inv_ell, x, side=1, lower=1, trans_a=1)


def _congruent(inv_ell: np.ndarray, a: np.ndarray) -> np.ndarray:
    """L^-1 A L^-T for a symmetric A."""
    return _whiten(inv_ell, _whiten(inv_ell, a).T)


def _sample_whitening(s: SymmetricMatrix, x_test: np.ndarray,
                      r_test: SymmetricMatrix) -> tuple | None:
    """(``_factor(S)``, ``_whitened_test`` by it) when the sample term S can
    whiten every target's curve on its fold, else None: S is positive
    definite with kappa = max diag S ||L^-1||_F^2 and kappa^2 CURVE_GUARD <= 1.
    Whitened by S, the alpha = 1 end L^-1 T L^-T can have eigenvalues down to
    about 1/kappa, which eigh resolves to about eps kappa^2 relative; the
    bound keeps that within the eps / CURVE_GUARD the guard allows. Near
    n_train = M the raw moment fails it: whitening by it moved fold scores up
    to 6e-11 from their explicit blends, against 3e-15 whitened by T. The
    LWNL term passes it below M training rows too, its M - n_train null
    eigenvalues being of the order of the kept ones, and fails it at
    n_train = M, where the sample spectrum reaches down near zero."""
    factors = _factor(s)
    if factors is None or CURVE_GUARD * (np.diag(s.values).max() * factors[2]) ** 2 > 1.0:
        return None
    return factors, _whitened_test(factors[0], x_test, r_test)


def _whitened_test(inv_ell: np.ndarray, x_test: np.ndarray,
                   r_test: SymmetricMatrix) -> tuple:
    """The curve kernel for one fold and its test statistic whitened by a
    factor with inverse L^-1: ``_tridiagonal_curve`` with W = L^-1 X_test^T /
    sqrt(n_test) when the fold has fewer than TRIDIAGONAL_ROW_FRACTION M test
    rows, ``_eigen_curve`` with C = L^-1 R_test L^-T otherwise."""
    n_test, m = x_test.shape
    if n_test < TRIDIAGONAL_ROW_FRACTION * m:
        return _tridiagonal_curve, _whiten(inv_ell, x_test).T / np.sqrt(n_test)
    return _eigen_curve, _congruent(inv_ell, r_test.values)


def _eigen_curve(k: np.ndarray, c: np.ndarray, a: np.ndarray, b: np.ndarray,
                 floor: float) -> tuple:
    """``_tridiagonal_curve``'s (mask, logdet, trace term) for a whitened test
    moment C (W W^T), from K = Q diag(mu) Q^T: each blend a_j I + b_j K has
    eigenvalues e = a_j + b_j mu, is certified when min e >= ``floor``, and
    has trace term sum d / e with d = diag(Q^T C Q)."""
    mu, q = np.linalg.eigh(k)
    e = a[:, None] + np.outer(b, mu)
    keep = e.min(axis=1) >= floor
    d = np.einsum("ij,ij->j", q, c @ q)
    good = e[keep]
    return keep, np.log(good).sum(axis=1), (d / good).sum(axis=1)


def _tridiagonal_curve(k: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray,
                       floor: float, k_min: float | None = None) -> tuple:
    """For a symmetric K, columns W and blends a_j I + b_j K with b_j >= 0: the
    mask of blends certified by a_j + b_j lambda_min(K) >= ``floor`` (with
    lambda_min(K) from dstebz unless ``k_min`` gives a lower bound), and their
    logdet(a_j I + b_j K) and tr(W^T (a_j I + b_j K)^-1 W). K = H Theta H^T
    (dsytrd) turns every blend into the tridiagonal a_j I + b_j Theta; one
    dptsv solves them all as the diagonal blocks of one system, its LDL^T
    pivots giving the logdets. No blend is certified when a pivot is not positive."""
    c, diag, off, tau, _ = lapack.dsytrd(k, lower=1)
    if k_min is None:
        k_min = lapack.dstebz(diag, off, 2, 0.0, 0.0, 1, 1, 0.0, "E")[1][0]
    keep = a + b * k_min >= floor
    if not keep.any():
        return keep, np.empty(0), np.empty(0)
    a, b, n = a[keep], b[keep], len(k)
    # H^T W: H fixes e_1 and reflects rows 2..n, as dormtr applies it
    hw = np.vstack([w[:1], lapack.dormqr("L", "T", c[1:, :-1], tau, w[1:], w.shape[1])[0]])
    sub = np.zeros((len(a), n))   # the last column, zero, separates the blocks
    sub[:, :-1] = np.outer(b, off)
    pivots, _, x, info = lapack.dptsv((a[:, None] + np.outer(b, diag)).ravel(),
                                      sub.ravel()[:-1], np.tile(hw, (len(a), 1)))
    if info != 0:
        return np.zeros_like(keep), np.empty(0), np.empty(0)
    return (keep, np.log(pivots).reshape(-1, n).sum(axis=1),
            np.einsum("jir,ir->j", x.reshape(len(a), n, -1), hw))


def _alpha_curve(sample_term: SymmetricMatrix, at_zero: float, s_whitening: tuple | None,
                 gram_rows: np.ndarray | None, target: SymmetricMatrix, split: tuple,
                 alphas: np.ndarray) -> np.ndarray:
    """Held-out NLL of blend(alpha) = S + alpha (T - S) at every grid alpha
    on one fold ``split`` (X_train, X_test, R_train, R_test), from one
    factorization L L^T of S or of T: L^-1 blend(alpha) L^-T = a I + b K for
    one symmetric K, so the logdet is logdet(L L^T) + logdet(a I + b K) and
    the trace term is tr((a I + b K)^-1 L^-1 R_test L^-T). The fold's term
    (``DataStats.fold_scores``) has decided the route:
    - By S, when its ``s_whitening`` (``_sample_whitening``) holds S's
      ``_factor`` and the test statistic whitened by it:
      K = L^-1 (T - S) L^-T, a = 1, b = alpha.
    - Otherwise by T, factored here (``_factor``) once its residual is nonzero:
      - Gram, when the term passes ``gram_rows``, the n_train < M training
        rows of S = R_train: K = Y Y^T with Y = X_train L^-T / sqrt(n_train),
        a = alpha, b = 1 - alpha; K is PSD, so lambda_min(K) >= 0. The other
        M - n_train directions add (M - n_train) log alpha, and with
        Z = X_test L^-T and W = Y Z^T the trace term is
        (||Z||^2 - b tr(W^T (a I + b K)^-1 W)) / (alpha n_test).
      - Otherwise K = L^-1 (S - T) L^-T, a = 1, b = 1 - alpha, with the test
        statistic whitened by T (``_whitened_test``).
    The whitened test statistic picks the kernel: ``_tridiagonal_curve`` for
    fewer than TRIDIAGONAL_ROW_FRACTION M test rows, ``_eigen_curve``
    otherwise. Alphas not certified to pass the pivot test of
    ``gaussian_nll_per_sample`` (lambda_min(blend) >= lambda_min(a I + b K) /
    ||L^-1||_F^2, and no squared pivot exceeds the largest diagonal entry),
    and all alphas when neither S nor T is factored or a tridiagonal pivot
    fails, are scored on their explicit blends, so the +inf sentinel stays
    in one place. ``at_zero`` is the group-free alpha = 0 score.
    """
    s, t = sample_term.values, target.values
    _, x_test, _, r_test = split
    # difference form: a zero residual (e.g. the trivial group) gives every
    # alpha the sample term's score bitwise, so structural ties stay exact
    residual = t - s
    scores = np.full(len(alphas), at_zero)
    if not residual.any():
        return scores
    certified = np.zeros(len(alphas), dtype=bool)
    a, b = alphas[1:], 1.0 - alphas[1:]
    factors = s_whitening[0] if s_whitening is not None else _factor(target)
    if factors is not None:
        inv_ell, logdet_l, inv_norm_sq = factors
        floor = CURVE_GUARD * max(np.diag(s).max(), np.diag(t).max()) * inv_norm_sq
        ones = np.ones_like(a)
        if s_whitening is not None:
            kernel, test = s_whitening[1]
            curve = kernel(_congruent(inv_ell, residual), test, ones, a, floor)
        elif gram_rows is not None:
            (n_test, m), n_train = x_test.shape, len(gram_rows)
            y = _whiten(inv_ell, gram_rows) / np.sqrt(n_train)
            z = _whiten(inv_ell, x_test)
            keep, logdet, trace = _tridiagonal_curve(y @ y.T, y @ z.T, a, b, floor, k_min=0.0)
            a = a[keep]
            curve = (keep, logdet + (m - n_train) * np.log(a),
                     (np.einsum("ij,ij->", z, z) - (1.0 - a) * trace) / (a * n_test))
        else:
            kernel, test = _whitened_test(inv_ell, x_test, r_test)
            curve = kernel(_congruent(inv_ell, -residual), test, ones, b, floor)
        certified[1:], logdet, trace = curve
        scores[certified] = 0.5 * (logdet_l + logdet + trace)
    for j in np.flatnonzero(~certified[1:]) + 1:
        # S + alpha (T - S), not matrixcore.blend: sharing the curve's residual
        # keeps both paths equal to rounding, while the convex form moved LWNL
        # fold scores at N = 50, M = 100 by up to 5.3e-7 relative
        blend = SymmetricMatrix(s + alphas[j] * residual)
        scores[j] = matrixcore.gaussian_nll_per_sample(blend, r_test)
    return scores


def cv_nll_alpha(data: Dataset, g: GroupAction, grid_points: int = DEFAULT_GRID_POINTS,
                 folds: int = DEFAULT_FOLDS,
                 use_lwnl_sample_term: bool = False) -> CalibrationResult:
    """K-fold held-out-NLL calibration of the blend intensity toward ``g`` on
    the uniform ``alpha_grid(grid_points)``, over the ``folds`` contiguous
    blocks of ``fold_slices``. Per fold, the training-complement sample term
    is blended with its own projection at each grid alpha and scored against
    the fold's sample covariance, by ``DataStats.fold_scores``: a
    ``DataStats`` passed as ``data`` shares the scores with every group and
    call on it. Scores average across folds per alpha. The returned alpha
    follows the paired one-standard-error rule toward the structured end
    (Hastie, Tibshirani & Friedman, ESL section 7.10): with ``best`` the
    first (smallest-alpha) minimizer of the mean score, it is the largest
    alpha whose per-fold score differences from ``best`` have a mean below
    their own standard error, or alpha_best when no larger alpha qualifies.
    The inequality is strict, so exact ties (the trivial group) keep the
    smallest alpha. Non-finite scores participate and simply lose, and a
    grid point with any non-finite fold score is never promoted, so
    rank-deficient blends at small alpha degrade gracefully. Unlike
    ``bmg.bmg_with_fallback``, it never clamps ``folds``: a fold count
    above N, or a fold leaving fewer than 2 training rows, is an error.
    """
    stats, alphas = DataStats.of(data), alpha_grid(grid_points)
    scores = stats.fold_scores(folds, g, grid_points, use_lwnl_sample_term)
    return CalibrationResult(
        alpha=alphas[_one_se_index(scores)], method=METHOD_CV_NLL,
        per_alpha_scores={a: float(s) for a, s in zip(alphas, scores.mean(axis=0))},
        fold_scores=scores,
    )


def write_cv_trace_csv(path, result: CalibrationResult) -> None:
    """Per-fold, per-alpha held-out NLL trace: columns fold,alpha,nll, with
    the alphas of the uniform grid the result was scored on."""
    if result.fold_scores is None:
        raise ValueError("calibration result carries no fold trace")
    alphas = alpha_grid(result.fold_scores.shape[1])
    matrixcore.write_csv(path, [("fold", "alpha", "nll")] + [
        (fold, alpha, score)
        for fold, scores in enumerate(result.fold_scores.tolist())
        for alpha, score in zip(alphas, scores)])
