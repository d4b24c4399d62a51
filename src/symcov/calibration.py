"""Shrinkage-intensity selection: the closed-form Frobenius-MSE plug-in and
the K-fold held-out-NLL grid calibration (one-standard-error rule).

Per-fold and per-alpha evaluations are independent; reductions are ordered,
so a parallel caller gets identical results to a serial one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lapack

from . import matrixcore
from .matrixcore import Dataset, DimensionMismatchError, SymmetricMatrix, cholesky, second_moment
from .groups import (
    GroupAction,
    KIND_HAAR,
    orbit_partition,
    projected_outer_sq_norms,
    reynolds_project,
)

if TYPE_CHECKING:
    from . import shrinkage

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
# _whitening takes the tridiagonal kernel below this fraction of M test rows,
# the eigen kernel otherwise: dptsv's cost grows with test rows times alphas.
# With BLAS on one thread and 12 alphas, a tridiagonal curve passes an
# _eigen_curve's time at 40-48 test rows at M = 100 and at 64-128 at M = 400.
TRIDIAGONAL_ROW_FRACTION = 0.25
# _tridiagonal_curve reduces a K of this order or more by LAPACK's blocked dsytrd,
# with 64 (its largest block) of workspace per column; the unblocked code is
# faster below it. With BLAS on one thread, blocked dsytrd took 1.43x the time at
# order 40, 1.04x at 100, 0.94x at 128, 0.86x at 200 and 0.70x at 400.
BLOCKED_ORDER = 128
# DataStats takes rows whose largest |entry| is 0 or within 2^(+-_ROW_EXPONENT).
# On block-circulant rows a selection keeps its choice and alpha up to a largest
# entry of 2^505 at M = 1000 (2^507 at M = 100), from where the raw moments and
# class sums overflow, and down to the smallest measured: 2^-504 at M = 1000,
# 2^-531 at M = 100.
_ROW_EXPONENT = 500


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


def _resolves(kappa: float) -> bool:
    """The one test of a blend's condition number kappa before an alpha-curve
    leans on it, kappa^2 CURVE_GUARD <= 1: the eigenvalues of a curve's other
    end down to about 1/kappa then resolve to about eps kappa^2 relative."""
    return CURVE_GUARD * kappa ** 2 <= 1.0


def _whitens(end: SymmetricMatrix, factor: matrixcore.Factor) -> bool:
    """Whether the blend end E of ``factor`` can whiten an alpha-curve: E
    ``_resolves`` kappa = max diag E ||L^-1||_F^2. Near n_train = M the raw
    moment fails it (whitened by it, fold scores moved up to 6e-11 from
    explicit blends, 3e-15 by T), as does the LWNL term at n_train = M, which
    passes below M rows."""
    return _resolves(np.diag(end.values).max() * factor.inv_norm_sq)


@dataclass(frozen=True)
class _Whitening:
    """A blend end E's ``factor``, its curves' ``kernel`` and ``test`` statistic."""
    factor: matrixcore.Factor
    kernel: Callable
    test: np.ndarray
    trace: float   # tr(E^-1 R_test)


@dataclass(frozen=True)
class Fold:
    """One fold of ``DataStats.splits``: X_test (a view of the rows), R_train,
    R_test, n_train and ``dof`` = n_train, R_train's degrees of freedom (its rows
    are centered on the mean of all N), which every rank rule reads. X_train,
    for the Gram route and the LWNL term's Gram spectrum, is kept iff dof < M."""
    x_train: np.ndarray | None
    x_test: np.ndarray
    r_train: SymmetricMatrix
    r_test: SymmetricMatrix
    n_train: int
    dof: int


@dataclass(frozen=True)
class FoldTerm:
    """A fold's sample term S (R_train, or its LWNL), its group-free alpha = 0
    score, and the route of every target's ``_alpha_curve`` on the fold: Gram,
    on ``Fold.x_train``, for S = R_train of dof below M, singular by rank, so
    alpha = 0 is +inf with no Cholesky; else alpha = 0 is read off S's one
    ``cholesky`` factor (+inf without one), and the curves are whitened by S
    if it passes ``_whitens``, by T if T does, or scored on explicit blends.
    An S that whitens keeps its LWNL ``spectrum``, off which the curve of a
    target equal to R_train, which commutes with S, is read."""
    sample: SymmetricMatrix
    at_zero: float
    whitening: _Whitening | None
    spectrum: shrinkage.Spectrum | None = None


class DataStats(Dataset):
    """A centered dataset that computes on first use, and keeps, R_hat
    (``r_hat``), its ``lwnl_from_covariance`` result (``lwnl``), and per fold
    count the ``splits``, their ``FoldTerm`` per sample-term kind, each
    distinct target's fold projections (``targets``) and ``fold_scores``: the
    one cache of held-out statistics, shared by every group and call on it.
    Estimators read it through ``of``: only a caller holding a DataStats keeps it.
    Rows whose largest |entry| is neither 0 nor within [2^-500, 2^500] raise
    ValueError: outside that range the moments can leave the float range."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.centered:
            raise matrixcore.CenteringError("statistics require centered data")
        top, bound = float(np.abs(self.rows).max()), 2.0 ** _ROW_EXPONENT
        if top and not 1.0 / bound <= top <= bound:
            raise ValueError(f"the rows' largest |entry| {top!r} is outside the supported "
                             f"range [2^-{_ROW_EXPONENT}, 2^{_ROW_EXPONENT}]: rescale them")

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
    def dof(self) -> int:
        """R_hat's degrees of freedom, N - 1, as its rows are centered on their own mean."""
        return self.n_obs - 1

    @property
    def lwnl(self):
        from . import shrinkage
        return self._cached("lwnl", lambda: shrinkage.lwnl_from_covariance(
            self.r_hat, self.dof, self.rows))

    def splits(self, folds: int) -> list[Fold]:
        """The ``Fold`` of each block of ``fold_slices``: the one place the rows
        are split and each fold's dof and route facts are decided."""

        def split(fold, test):
            x_test = self.rows[test]
            r_test, n_test = second_moment(x_test), len(x_test)
            n_train = self.n_obs - n_test
            if n_train < 2:
                raise ValueError(f"training complement of fold {fold} has fewer than 2 rows")
            dof = n_train
            # From 2M rows R_train is downdated from R_hat, copying no rows; on
            # pathway100+decoys downdating moved fold scores by up to 2.4e-9
            # at n_train = M, 4.1e-12 at 1.04 M, 4.8e-14 at 1.2 M, 1.8e-15 at 2M
            if n_train >= 2 * self.dim:
                r_train = (self.n_obs * self.r_hat.values - n_test * r_test.values) / n_train
                return Fold(None, x_test, SymmetricMatrix(r_train), r_test, n_train, dof)
            x_train = np.delete(self.rows, test, axis=0)
            return Fold(x_train if dof < self.dim else None, x_test, second_moment(x_train),
                        r_test, n_train, dof)

        return self._cached(("splits", folds), lambda: [
            split(fold, test) for fold, test in enumerate(fold_slices(self.n_obs, folds))])

    def targets(self, folds: int, g: GroupAction) -> tuple[SymmetricMatrix, ...]:
        """T = P_G(R_train) per fold, shared by every group of g's partition."""
        return self._cached(("targets", folds, _partition_key(g)), lambda: tuple(
            reynolds_project(g, fold.r_train) for fold in self.splits(folds)))

    def fold_scores(self, folds: int, g: GroupAction, grid_points: int,
                    use_lwnl: bool) -> np.ndarray:
        """Read-only (k, n_alpha) held-out NLL of g's blend at every grid alpha
        on every fold, on the route each fold's ``FoldTerm`` decides once."""
        from . import shrinkage

        def term(fold: Fold) -> FoldTerm:
            if not use_lwnl and fold.dof < self.dim:
                return FoldTerm(fold.r_train, np.inf, None)
            lwnl = (shrinkage.lwnl_from_covariance(fold.r_train, fold.dof, fold.x_train)
                    if use_lwnl else None)
            s = fold.r_train if lwnl is None else lwnl.matrix
            factor = cholesky(s)
            whitening = _whitening(s, factor, fold)
            if whitening is not None:
                return FoldTerm(s, 0.5 * (factor.logdet + whitening.trace), whitening,
                                None if lwnl is None else lwnl.spectrum)
            return FoldTerm(s, np.inf if factor is None else factor.nll(fold.r_test), None)

        def score():
            splits, alphas = self.splits(folds), np.asarray(alpha_grid(grid_points))
            terms = self._cached(("terms", folds, use_lwnl), lambda: [term(f) for f in splits])
            scores = np.array([_alpha_curve(fold_term, t, fold, alphas) for fold_term, t, fold
                               in zip(terms, self.targets(folds, g), splits)])
            scores.flags.writeable = False
            return scores

        return self._cached(("fold_scores", folds, _partition_key(g), grid_points, use_lwnl),
                            score)


def _partition_key(g: GroupAction):
    """Equal for groups whose projections agree bitwise: the buffer of
    labels the projection reads, ``orbit_partition(g).key``, so no group's
    labels are held twice (Haar: one per dimension)."""
    return g.dim if g.kind == KIND_HAAR else orbit_partition(g).key


def _congruent(inv_ell: np.ndarray, a: np.ndarray) -> np.ndarray:
    """L^-1 A L^-T for a symmetric A."""
    return matrixcore.whiten(inv_ell, matrixcore.whiten(inv_ell, a).T)


def _whitening(end: SymmetricMatrix, factor: matrixcore.Factor | None,
               fold: Fold) -> _Whitening | None:
    """The ``_Whitening`` of a blend end E = L L^T on ``fold``, None when
    ``cholesky`` could not factor E or E fails ``_whitens``:
    ``_tridiagonal_curve`` of W = L^-1 X_test^T / sqrt(n_test), trace
    ||W||_F^2, below TRIDIAGONAL_ROW_FRACTION M test rows, else
    ``_eigen_curve`` of C = L^-1 R_test L^-T, trace tr C."""
    if factor is None or not _whitens(end, factor):
        return None
    n_test, m = fold.x_test.shape
    if n_test < TRIDIAGONAL_ROW_FRACTION * m:
        w = matrixcore.whiten(factor.inv_ell, fold.x_test).T / np.sqrt(n_test)
        return _Whitening(factor, _tridiagonal_curve, w, float(np.einsum("ij,ij->", w, w)))
    c = _congruent(factor.inv_ell, fold.r_test.values)
    return _Whitening(factor, _eigen_curve, c, float(np.trace(c)))


def _certified_tail(e: np.ndarray, d: np.ndarray, floor: float, weight=1.0) -> tuple:
    """The (mask, logdet, trace term) of blends whose eigenvalues relative to
    the whitening end are the rows of ``e``, the one certification of an
    eigenvalue alpha-curve: a blend is certified when min e >= ``floor``, and
    then has logdet sum ``weight`` log e, each eigenvalue counted with its
    multiplicity, and trace term sum d / e for the test weights ``d``."""
    keep = e.min(axis=1) >= floor
    return keep, (weight * np.log(e[keep])).sum(axis=1), (d / e[keep]).sum(axis=1)


def _eigen_curve(k: np.ndarray, c: np.ndarray, a: np.ndarray, b: np.ndarray,
                 floor: float) -> tuple:
    """``_tridiagonal_curve``'s (mask, logdet, trace term) for a whitened test
    moment C (W W^T), from K = Q diag(mu) Q^T: each blend a_j I + b_j K has
    eigenvalues a_j + b_j mu and test weights diag(Q^T C Q), certified by
    ``_certified_tail``."""
    mu, q = np.linalg.eigh(k)
    return _certified_tail(a[:, None] + np.outer(b, mu), np.einsum("ij,ij->j", q, c @ q), floor)


def _spectral_curve(spectrum: shrinkage.Spectrum, r_test: np.ndarray, alphas: np.ndarray,
                    floor: float, singular: np.ndarray) -> tuple | None:
    """``_eigen_curve``'s (mask, logdet, trace term), relative to S, of the
    blends S + alpha (T - S) for S = nu I + U diag(phi - nu) U^T and a T =
    U diag(lambda) U^T that commutes with it: on U the blend has eigenvalues
    e = (1 - alpha) phi + alpha lambda and test weights d = diag(U^T R_test
    U); on U's complement, where T is zero, (1 - alpha) nu, of multiplicity
    M - r, and tr R_test - sum d, each read by ``_certified_tail`` relative
    to S's eigenvalue there, phi or nu. None when a blend not ``singular`` by
    structure fails ``_resolves`` for its own condition number: at kappa 4e5
    to 3e7 (trivial-100 on pathway100+decoys, n_train = M) the eigenvalues of
    T lost enough digits to move fold scores 8e-13 to 1.4e-10 from a 40-digit
    reference, against 4e-13 to 4e-12 for the curve whitened by S."""
    u, lam, phi, nu = spectrum.vectors, spectrum.sample, spectrum.shrunk, spectrum.null
    d = np.einsum("ij,ij->j", u, r_test @ u)
    e, scale, weight = phi + np.outer(alphas, lam - phi), phi, 1.0
    if nu is not None:   # the complement as one column, weighted by its dimension
        e, d = np.column_stack([e, (1.0 - alphas) * nu]), np.append(d, np.trace(r_test) - d.sum())
        scale, weight = np.append(phi, nu), np.append(np.ones(len(lam)), len(u) - len(lam))
    blends = e[~singular]
    if not (blends > 0).all() or not _resolves(np.max(blends.max(1) / blends.min(1), initial=1.0)):
        return None
    return _certified_tail(e / scale, d / scale, floor, weight)


def _tridiagonal_curve(k: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray,
                       floor: float, k_min: float | None = None) -> tuple:
    """For a symmetric K, columns W and blends a_j I + b_j K with b_j >= 0: the
    mask of blends certified by a_j + b_j lambda_min(K) >= ``floor`` (with
    lambda_min(K) from dstebz unless ``k_min`` gives a lower bound), and their
    logdet(a_j I + b_j K) and tr(W^T (a_j I + b_j K)^-1 W). K = H Theta H^T
    (dsytrd) turns every blend into the tridiagonal a_j I + b_j Theta; one
    dptsv solves them all as the diagonal blocks of one system, its LDL^T
    pivots giving the logdets. No blend is certified when a pivot is not positive."""
    block = 64 if len(k) >= BLOCKED_ORDER else 1
    c, diag, off, tau, _ = lapack.dsytrd(k, lower=1, lwork=block * len(k))
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


def _alpha_curve(term: FoldTerm, target: SymmetricMatrix, fold: Fold,
                 alphas: np.ndarray) -> np.ndarray:
    """Held-out NLL of blend(alpha) = S + alpha (T - S) at every grid alpha on
    one ``fold``, on the route ``term`` decided, from one factor L L^T: with
    L^-1 blend(alpha) L^-T = a I + b K, the logdet is logdet(L L^T) +
    logdet(a I + b K) and the trace term tr((a I + b K)^-1 L^-1 R_test L^-T).
    M x M: blend = E + beta (O - E) for the whitening end E (S, beta = alpha;
    T, beta = 1 - alpha), K = L^-1 (O - E) L^-T, a = 1, b = beta. Gram (T's
    L): K = Y Y^T, Y = X_train L^-T / sqrt(n_train), a = alpha, b = 1 - alpha;
    the M - n_train other directions add (M - n_train) log alpha, and with
    Z = X_test L^-T, W = Y Z^T the trace term is (||Z||^2 - b tr(W^T (a I +
    b K)^-1 W)) / (alpha n_test). Blends singular by structure are +inf
    before any curve: every alpha > 0 on the Gram route when ``cholesky``
    cannot factor T, and alpha = 1, T itself, of a target equal to an R_train
    of dof below M. Other alphas not certified to pass T's pivot test are
    scored on explicit blends by ``gaussian_nll_per_sample``. A target equal
    to R_train on a fold whitened by an LWNL S commutes with S: its curve is
    read off S's ``Spectrum`` by ``_spectral_curve`` where that resolves
    every blend, with no M x M reduction."""
    s, t = term.sample.values, target.values
    # difference form: a zero residual (e.g. the trivial group) gives every
    # alpha the sample term's score bitwise, so structural ties stay exact
    residual = t - s
    scores = np.full(len(alphas), term.at_zero)
    if not residual.any():
        return scores
    a, b = alphas[1:], 1.0 - alphas[1:]
    below_rank, commuting = fold.dof < len(s), np.array_equal(t, fold.r_train.values)
    gram = below_rank and term.sample is fold.r_train
    t_factor = cholesky(target) if term.whitening is None else None
    # singular by structure: every blend shares ker T within ker S for an
    # unfactorable Gram T = P_G(S), and T = R_train below the rank is singular
    certified = (alphas > 0 if gram and t_factor is None
                 else (alphas == 1.0) & (commuting and below_rank))
    scores[certified] = np.inf
    if gram:
        factor = t_factor if t_factor is not None and _whitens(target, t_factor) else None
    else:   # blend = E + beta (O - E), with step = O - E
        whitening, beta, step = ((term.whitening, a, residual) if term.whitening is not None
                                 else (_whitening(target, t_factor, fold), b, -residual))
        factor = None if whitening is None else whitening.factor
    if factor is not None:
        floor = CURVE_GUARD * max(np.diag(s).max(), np.diag(t).max()) * factor.inv_norm_sq
        curve = (_spectral_curve(term.spectrum, fold.r_test.values, a, floor, certified[1:])
                 if commuting and term.spectrum is not None else None)
        if gram:
            (n_test, m), n_train = fold.x_test.shape, fold.n_train
            y = matrixcore.whiten(factor.inv_ell, fold.x_train) / np.sqrt(n_train)
            z = matrixcore.whiten(factor.inv_ell, fold.x_test)
            keep, logdet, trace = _tridiagonal_curve(y @ y.T, y @ z.T, a, b, floor, k_min=0.0)
            a = a[keep]
            curve = (keep, logdet + (m - n_train) * np.log(a),
                     (np.einsum("ij,ij->", z, z) - (1.0 - a) * trace) / (a * n_test))
        elif curve is None:
            curve = whitening.kernel(_congruent(factor.inv_ell, step), whitening.test,
                                     np.ones_like(beta), beta, floor)
        keep, logdet, trace = curve   # no curve certifies a blend singular by structure
        certified[1:] |= keep
        scores[1:][keep] = 0.5 * (factor.logdet + logdet + trace)
    for j in np.flatnonzero(~certified[1:]) + 1:
        # S + alpha (T - S), not matrixcore.blend: sharing the curve's residual
        # keeps both paths equal to rounding, while the convex form moved LWNL
        # fold scores at N = 50, M = 100 by up to 5.3e-7 relative
        blend = SymmetricMatrix(s + alphas[j] * residual)
        scores[j] = matrixcore.gaussian_nll_per_sample(blend, fold.r_test)
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
