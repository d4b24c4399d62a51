import math

import numpy as np
import pytest

from symcov import calibration, groups, synth
from symcov.matrixcore import Dataset, SymmetricMatrix, sample_covariance, second_moment
from symcov.shrinkage import (
    EST_ADLWNL,
    EST_LWNL,
    EST_SHAH,
    EstimatorResult,
    FLAG_ALPHA_PINNED_0,
    FLAG_ALPHA_PINNED_1,
    FLAG_DEGENERATE_SPECTRUM,
    FLAG_RANK_AWARE_KDE,
    FLAG_SINGULAR_INPUT,
    ad_blend,
    epanechnikov_kde,
    ad_lwnl_blend,
    lw2004,
    lw2004_auto,
    lwnl,
    lwnl_from_covariance,
    read_estimator_csv,
    sample_estimator,
    shah_projection,
    write_estimator_csv,
)


def gaussian_dataset(rng, n, m, sigma=None):
    z = rng.standard_normal((n, m))
    if sigma is not None:
        w, u = np.linalg.eigh(sigma)
        z = z @ ((u * np.sqrt(w)) @ u.T)
    return Dataset(z).center()


class TestLw2004:
    def test_alpha_zero_is_identity_map(self):
        r = SymmetricMatrix(np.array([[2.0, 1.0], [1.0, 5.0]]))
        np.testing.assert_array_equal(lw2004(r, 0.0).matrix.values, r.values)

    def test_alpha_one_scaled_identity(self):
        r = SymmetricMatrix(np.diag([1.0, 2.0, 3.0]))  # trace 6
        np.testing.assert_array_equal(lw2004(r, 1.0).matrix.values, 2.0 * np.eye(3))

    def test_half_blend_entrywise(self):
        r = SymmetricMatrix(np.diag([4.0, 0.0]))
        np.testing.assert_allclose(lw2004(r, 0.5).matrix.values, np.diag([3.0, 1.0]))

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            lw2004(SymmetricMatrix(np.eye(2)), 1.5)

    def test_pin_flags(self):
        r = SymmetricMatrix(np.eye(2))
        assert FLAG_ALPHA_PINNED_0 in lw2004(r, 0.0).flags
        assert FLAG_ALPHA_PINNED_1 in lw2004(r, 1.0).flags

    def test_bitwise_haar_member_of_blend(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            m = int(rng.integers(2, 13))
            a = rng.standard_normal((m, m))
            r = SymmetricMatrix(a @ a.T / m)
            alpha = float(rng.uniform())
            got = lw2004(r, alpha).matrix.values
            want = ad_blend(r, groups.haar_orthogonal(m), alpha).matrix.values
            assert got.tobytes() == want.tobytes()


class TestLw2004Auto:
    def test_single_observation_pins_alpha(self):
        res = lw2004_auto(Dataset(np.array([[1.0, 2.0]])).center())
        assert res.alpha == 1.0

    def test_two_observations_pin_alpha(self):
        # two centered rows are x and -x: one effective observation, for
        # which the plug-in alone would return the singular rank-1 R_hat
        res = lw2004_auto(Dataset(np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 2.0]])).center())
        assert res.alpha == 1.0
        assert FLAG_SINGULAR_INPUT in res.flags
        assert np.all(np.linalg.eigvalsh(res.matrix.values) > 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_alpha_pinned_exactly_at_dof_one(self, n, monkeypatch):
        # dof = N - 1: the plug-in runs from 2 degrees of freedom on
        calls, original = [], calibration.mse_plugin_alpha
        monkeypatch.setattr(calibration, "mse_plugin_alpha",
                            lambda data, g: calls.append(data.dof) or original(data, g))
        res = lw2004_auto(gaussian_dataset(np.random.default_rng(23), n, 4))
        assert (res.alpha == 1.0) == (FLAG_SINGULAR_INPUT in res.flags) == (n == 2)
        assert calls == ([] if n == 2 else [2])

    @pytest.mark.parametrize("c", [2.0**-300, 1e-100, 1e100])
    def test_alpha_scale_free(self, c):
        # the plug-in's fourth powers of the rows leave the float range here
        rng = np.random.default_rng(22)
        data = gaussian_dataset(rng, 30, 8, sigma=np.diag(np.linspace(1.0, 4.0, 8)))
        want = lw2004_auto(data)
        got = lw2004_auto(Dataset(data.rows * c, centered=True))
        assert 0.0 < want.alpha < 1.0
        assert got.alpha == pytest.approx(want.alpha, rel=1e-12)
        np.testing.assert_allclose(got.matrix.values / c**2, want.matrix.values, rtol=1e-12,
                                   atol=1e-12 * np.abs(want.matrix.values).max())

    def test_near_identity_population_beats_sample(self):
        # isotropic Wishart M=20, N=10: shrinkage dominates in Frobenius MSE
        rng = np.random.default_rng(20)
        sigma = np.eye(20)
        err_lw, err_s = 0.0, 0.0
        for _ in range(200):
            data = gaussian_dataset(rng, 10, 20)
            r_hat = sample_covariance(data)
            err_s += np.sum((r_hat.values - sigma) ** 2)
            err_lw += np.sum((lw2004_auto(data).matrix.values - sigma) ** 2)
        assert err_lw < err_s

    def test_large_n_identity_population_alpha_sensible(self):
        rng = np.random.default_rng(21)
        data = gaussian_dataset(rng, 4000, 8)
        res = lw2004_auto(data)
        # variance-dominated optimum: near-identity output
        assert np.linalg.norm(res.matrix.values - np.eye(8), "fro") < 0.2
        assert 0.0 <= res.alpha <= 1.0


class TestLwnl:
    @pytest.mark.parametrize("diagonal, flags", [
        ([3.0] * 16, {FLAG_DEGENERATE_SPECTRUM}),
        ([2.0] * 8 + [0.0] * 8,
         {FLAG_DEGENERATE_SPECTRUM, FLAG_RANK_AWARE_KDE, FLAG_SINGULAR_INPUT}),
    ], ids=["scaled-identity", "rank-deficient"])
    def test_flat_spectrum_is_returned_as_it_is(self, diagonal, flags):
        r = SymmetricMatrix(np.diag(diagonal))
        res = lwnl_from_covariance(r, 32)
        assert res.matrix is r
        assert res.flags == flags

    def test_one_kept_eigenvalue_above_the_sample_rank_is_mapped(self):
        # 16 columns, n = 1: a one-point retained spectrum is flat, but the
        # flat exit is the p <= n regime's only
        x = np.random.default_rng(26).standard_normal((2, 16))
        r = second_moment(x - x.mean(axis=0))
        res = lwnl_from_covariance(r, 1)
        assert res.matrix is not r
        assert FLAG_DEGENERATE_SPECTRUM not in res.flags
        assert np.linalg.eigvalsh(res.matrix.values).min() > 0.0

    def test_requires_two_observations(self):
        with pytest.raises(ValueError):
            lwnl(Dataset(np.array([[1.0, 2.0]])).center())

    def test_rank_aware_flag_on_deficient_input(self):
        rng = np.random.default_rng(22)
        data = gaussian_dataset(rng, 8, 16)  # N < M: zero eigenvalues
        res = lwnl(data)
        assert FLAG_RANK_AWARE_KDE in res.flags
        # the M - n null eigenvalues map to one shared positive value
        w = np.linalg.eigvalsh(res.matrix.values)
        assert w.min() >= -1e-12

    def test_full_rank_has_no_rank_flag(self):
        rng = np.random.default_rng(23)
        res = lwnl(gaussian_dataset(rng, 128, 16))
        assert FLAG_RANK_AWARE_KDE not in res.flags

    def test_trace_approximately_preserved_in_bulk(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            data = gaussian_dataset(rng, 64, 32)  # c = 0.5
            r_hat = sample_covariance(data)
            res = lwnl(data)
            rel = abs(np.trace(res.matrix.values) - r_hat.trace()) / r_hat.trace()
            assert rel <= 0.1

    def test_commutes_with_sample_covariance(self):
        rng = np.random.default_rng(25)
        data = gaussian_dataset(rng, 96, 12)
        r_hat = sample_covariance(data)
        out = lwnl(data).matrix.values
        comm = out @ r_hat.values - r_hat.values @ out
        assert np.linalg.norm(comm, "fro") <= 1e-6 * np.linalg.norm(r_hat.values, "fro") ** 2

    def test_relabelling_commutes_on_wide_spectra(self):
        # column scales from e^-6 to e^3: kernels of the smallest eigenvalues
        # are up to about 1e6 times narrower than their distance to the rest
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(m + 2, 8 * m))
            data = Dataset(rng.standard_normal((n, m)) * np.exp(rng.uniform(-6, 3, m))).center()
            p = rng.permutation(m)
            want = lwnl(data).matrix.values[np.ix_(p, p)]
            got = lwnl(Dataset(data.rows[:, p], centered=True)).matrix.values
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [4, 40])   # above and below the sample rank
    @pytest.mark.parametrize("top", [-500, 500])
    def test_scales_with_the_rows_to_the_ends_of_their_range(self, n, top):
        # a kept eigenvalue near 1e-9 of the largest: at a largest entry of
        # 2^-500 the kernel's 1 / bandwidth of the unscaled spectrum would
        # leave the float range. eigh rescales a matrix far from 1, so the
        # map scales to rounding, not bitwise
        rows = np.random.default_rng(27).standard_normal((n, 4)) * [1.0, 1.0, 1.0, 3e-5]
        data = Dataset(rows).center()
        # a largest entry in [2^499, 2^500) or [2^-500, 2^-499)
        exponent = top + (top < 0) - int(np.frexp(np.abs(data.rows).max())[1])
        scaled = Dataset(np.ldexp(data.rows, exponent), centered=True)
        want = np.ldexp(lwnl(data).matrix.values, 2 * exponent)
        got = lwnl(scaled).matrix.values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_psd_outputs(self):
        rng = np.random.default_rng(26)
        for n, m in ((40, 8), (8, 12), (100, 20)):
            res = lwnl(gaussian_dataset(rng, n, m))
            w = np.linalg.eigvalsh(res.matrix.values)
            assert w.min() >= -1e-10 * max(w.max(), 1e-30)


def _lw2020_reference(r, n):
    """Ledoit & Wolf (2020)'s published analytical-shrinkage recipe for a
    covariance of rank-n rows, transcribed with its own 1/pi Hilbert
    convention, its p <= n / p > n split and its closed-form H f(0)."""
    p = r.shape[0]
    lam, u = np.linalg.eigh(r)
    lam = lam[max(0, p - n):]
    h = n ** (-1.0 / 3.0)
    big_l = np.tile(lam[:, None], (1, len(lam)))
    big_h = h * big_l.T
    x = (big_l - big_l.T) / big_h
    ftilde = 3 / 4 / np.sqrt(5) * np.mean(np.maximum(1 - x**2 / 5, 0) / big_h, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        hftemp = (-3 / 10 / np.pi) * x + (3 / 4 / np.sqrt(5) / np.pi) * (1 - x**2 / 5) \
            * np.log(np.abs((np.sqrt(5) - x) / (np.sqrt(5) + x)))
    hftilde = np.mean(hftemp / big_h, axis=1)
    if p <= n:
        c = p / n
        d = lam / ((np.pi * c * lam * ftilde) ** 2 + (1 - c - np.pi * c * lam * hftilde) ** 2)
    else:
        hf0 = (1 / np.pi) * (3 / 10 / h**2 + 3 / 4 / np.sqrt(5) / h * (1 - 1 / 5 / h**2)
                             * np.log((1 + np.sqrt(5) * h) / (1 - np.sqrt(5) * h))) \
            * np.mean(1 / lam)
        d0 = 1 / (np.pi * (p - n) / n * hf0)
        d = np.concatenate([np.full(p - n, d0),
                            lam / (np.pi**2 * lam**2 * (ftilde**2 + hftilde**2))])
    return (u * d) @ u.T


def _block_circulant_draws(n, trials):
    sigma = synth.make_population(synth.PopulationSpec(
        m=100, kind=synth.POP_BLOCK_CIRCULANT, block_size=20))
    return sigma, [synth.sample_gaussian(sigma, n, (900, n, t)) for t in range(trials)]


class TestLwnlAboveTheSampleRank:
    """M >= n, the rank of the centered rows (N <= M + 1): the p > n branch."""

    @pytest.mark.parametrize("m,n_rows", [(40, 25), (40, 13), (20, 61), (30, 121)])
    def test_matches_the_published_recipe(self, m, n_rows):
        # eigenvalues in [1, 4] and M / n away from 1, so that the sample
        # spectrum stays away from 0: the recipe's closed-form transform keeps
        # its digits there; it needs n >= 12 for its logarithm at 0
        rng = np.random.default_rng(m + n_rows)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        data = gaussian_dataset(rng, n_rows, m, (q * rng.uniform(1.0, 4.0, m)) @ q.T)
        r = sample_covariance(data)
        got = lwnl(data).matrix.values
        np.testing.assert_allclose(got, _lw2020_reference(r.values, n_rows - 1),
                                   rtol=0, atol=1e-12 * np.abs(got).max())

    def test_null_eigenvalues_share_one_value_near_the_kept_ones(self):
        rng = np.random.default_rng(31)
        data = gaussian_dataset(rng, 11, 30)
        w = np.linalg.eigvalsh(lwnl(data).matrix.values)
        null = w[:20]   # the 30 - 10 null eigenvalues are below every kept one here
        np.testing.assert_allclose(null, null[0], rtol=1e-12)
        assert 0.1 * w[20:].min() < null[0] < w[20:].min()

    def test_hilbert_transform_far_outside_a_kernel(self):
        # one kernel of width h = 0.1 at 1: far away its transform is that of
        # a point mass, -1/d - h^2/d^3 up to terms in 1/d^5
        for d in (1e3, -1e3, 1e6, -1e6):
            _, hf = epanechnikov_kde(np.array([1.0]), 1000, np.array([1.0 + d]))
            np.testing.assert_allclose(hf[0], -1.0 / d - 0.01 / d**3, rtol=1e-14)

    @pytest.mark.parametrize("n", [50, 100, 101])
    def test_frobenius_error_no_worse_than_lw2004(self, n):
        sigma, draws = _block_circulant_draws(n, 5)
        err = {name: np.median([np.linalg.norm(fit(d).matrix.values - sigma.values)
                                for d in draws])
               for name, fit in (("lwnl", lwnl), ("lw2004", lw2004_auto))}
        assert err["lwnl"] <= err["lw2004"]

    @pytest.mark.parametrize("n", [50] + [pytest.param(n, marks=pytest.mark.xfail(
        strict=True, reason="at c = M / n near 1 the sample spectrum reaches down to "
                            "about 1e-6, where the kernel estimate maps each eigenvalue "
                            "to about 400 times itself: the smallest LWNL eigenvalue is "
                            "2.1e-3 at N = 100 and 2.1e-4 at N = 101")) for n in (100, 101)])
    def test_spectrum_within_ten_times_the_truth(self, n):
        # the truth spans 0.333 .. 11.0
        sigma, draws = _block_circulant_draws(n, 5)
        truth = np.linalg.eigvalsh(sigma.values)
        for data in draws:
            w = np.linalg.eigvalsh(lwnl(data).matrix.values)
            assert truth[0] / 10 <= w[0] and w[-1] <= 10 * truth[-1]


class TestLwnlFromRows:
    """Fewer than M rows give the spectrum from their Gram matrix, and the
    result equals the M x M path's; from M rows, whatever the dof, the M x M
    moment is decomposed."""

    M = 40

    @staticmethod
    def _moment(kind, dof, m, duplicated):
        """The rows, their second moment and its dof: a fold's rows (dof of
        them) or R_hat's centered rows (dof + 1); duplicated rows repeat the
        first half, so the rank is below dof."""
        n_rows = dof if kind == "fold" else dof + 1
        rows = np.random.default_rng(100 + dof).standard_normal((n_rows, m))
        if duplicated:
            rows[n_rows - n_rows // 2:] = rows[:n_rows // 2]
        if kind == "r_hat":
            rows = Dataset(rows).center().rows
        return rows, second_moment(rows), dof

    # one row cannot repeat another, and two equal rows center to zero
    DOFS = ((1, False), (2, False), (2, True), (M // 2, False), (M // 2, True),
            (M - 1, False), (M - 1, True))

    # R_hat of dof M - 1 has M rows, the M x M path's case below
    @pytest.mark.parametrize("kind,dof,duplicated", [
        (kind, dof, duplicated) for kind, dofs in (("fold", DOFS), ("r_hat", DOFS[:-2]))
        for dof, duplicated in dofs])
    def test_rows_path_equals_the_m_by_m_path(self, dof, duplicated, kind, monkeypatch):
        rows, r, n_obs = self._moment(kind, dof, self.M, duplicated)
        want = lwnl_from_covariance(r, n_obs)
        decomposed, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: decomposed.append(a) or eigh(a))
        got = lwnl_from_covariance(r, n_obs, rows)
        # one decomposition, of the rows' Gram matrix, never of the moment
        (a,) = decomposed
        assert a.shape == (len(rows), len(rows))
        np.testing.assert_allclose(a, rows @ rows.T / len(rows), rtol=1e-15, atol=0)
        assert got.flags == want.flags
        assert {FLAG_RANK_AWARE_KDE, FLAG_SINGULAR_INPUT} <= got.flags
        np.testing.assert_allclose(got.matrix.values, want.matrix.values,
                                   rtol=0, atol=1e-12 * np.abs(want.matrix.values).max())
        # U spans the rows, and nu is the estimate on their complement
        assert got.spectrum.vectors.shape == (self.M, np.linalg.matrix_rank(rows))
        null_direction = np.linalg.svd(rows)[2][-1]
        np.testing.assert_allclose(want.matrix.values @ null_direction,
                                   got.spectrum.null * null_direction, rtol=0, atol=1e-12)

    def test_spectrum_assembles_the_matrix(self):
        # at and above the rank the M x M path keeps all M eigenpairs
        for n_rows, rows in ((40, None), (10, "gram")):
            x = np.random.default_rng(n_rows).standard_normal((n_rows, 16 if rows else 8))
            res = lwnl_from_covariance(second_moment(x), n_rows, x if rows else None)
            spec = res.spectrum
            nu = 0.0 if spec.null is None else spec.null
            assembled = (spec.vectors * (spec.shrunk - nu)) @ spec.vectors.T \
                + nu * np.eye(len(spec.vectors))
            np.testing.assert_allclose(assembled, res.matrix.values, rtol=0, atol=1e-14)
            np.testing.assert_allclose(spec.vectors.T @ second_moment(x).values @ spec.vectors,
                                       np.diag(spec.sample), rtol=0, atol=1e-13)
            assert (spec.null is None) == (rows is None)

    def test_rows_at_or_above_the_rank_keep_the_m_by_m_path(self):
        x = Dataset(np.random.default_rng(41).standard_normal((30, 12))).center().rows
        r = second_moment(x)
        np.testing.assert_array_equal(lwnl_from_covariance(r, 29, x).matrix.values,
                                      lwnl_from_covariance(r, 29).matrix.values)

    @pytest.mark.parametrize("duplicated", [False, True])
    def test_r_hat_of_m_rows_takes_the_m_by_m_path_below_the_rank(self, duplicated,
                                                                   monkeypatch):
        # dof M - 1 < M puts LWNL in its p > n regime, but M rows make the Gram
        # matrix as large as the moment, so the moment itself is decomposed
        rows, r, n_obs = self._moment("r_hat", self.M - 1, self.M, duplicated)
        assert len(rows) == self.M
        want = lwnl_from_covariance(r, n_obs)
        decomposed, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: decomposed.append(a) or eigh(a))
        got = lwnl_from_covariance(r, n_obs, rows)
        (a,) = decomposed
        np.testing.assert_array_equal(a, r.values)
        np.testing.assert_array_equal(got.matrix.values, want.matrix.values)
        assert got.flags == want.flags and {FLAG_RANK_AWARE_KDE, FLAG_SINGULAR_INPUT} <= got.flags
        assert got.spectrum.vectors.shape == (self.M, self.M) and got.spectrum.null is None


class TestStructuralEstimators:
    def test_shah_trivial_group(self):
        rng = np.random.default_rng(27)
        data = gaussian_dataset(rng, 10, 4)
        r_hat = sample_covariance(data)
        res = shah_projection(r_hat, groups.trivial(4))
        np.testing.assert_array_equal(res.matrix.values, r_hat.values)
        assert res.alpha == 1.0

    def test_shah_full_symmetric_compound(self):
        r = SymmetricMatrix(np.diag([1.0, 2.0, 3.0]))
        out = shah_projection(r, groups.full_symmetric(3)).matrix.values
        assert np.allclose(np.diag(out), 2.0)

    def test_ad_endpoints(self):
        g = groups.transposition(2, 0, 1)
        r = SymmetricMatrix(np.array([[1.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_array_equal(ad_blend(r, g, 0.0).matrix.values, r.values)
        np.testing.assert_allclose(ad_blend(r, g, 1.0).matrix.values,
                                   [[2.0, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_ad_half_blend_hand_value(self):
        g = groups.transposition(2, 0, 1)
        r = SymmetricMatrix(np.array([[1.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_allclose(ad_blend(r, g, 0.5).matrix.values,
                                   [[1.5, 0.0], [0.0, 2.5]], atol=1e-15)

    def test_blend_linearity(self):
        rng = np.random.default_rng(28)
        g = groups.grid_d4(2)
        a = rng.standard_normal((4, 4))
        r = SymmetricMatrix(a @ a.T)
        lo = ad_blend(r, g, 0.0).matrix.values
        hi = ad_blend(r, g, 1.0).matrix.values
        for alpha in (0.2, 0.5, 0.9):
            np.testing.assert_allclose(ad_blend(r, g, alpha).matrix.values,
                                       (1 - alpha) * lo + alpha * hi, atol=1e-12)

    def test_shah_equals_ad_at_one(self):
        rng = np.random.default_rng(29)
        for g in (groups.trivial(4), groups.cyclic(4), groups.full_symmetric(4),
                  groups.haar_orthogonal(4)):
            a = rng.standard_normal((4, 4))
            r = SymmetricMatrix(a @ a.T)
            np.testing.assert_array_equal(ad_blend(r, g, 1.0).matrix.values,
                                          shah_projection(r, g).matrix.values)

    def test_ad_psd_closure(self):
        rng = np.random.default_rng(30)
        g = groups.wreath_shifts(2, 3)
        for _ in range(100):
            a = rng.standard_normal((6, 6))
            r = SymmetricMatrix(a @ a.T / 6)
            w_in = np.linalg.eigvalsh(r.values)
            for alpha in (0.0, 0.3, 1.0):
                w = np.linalg.eigvalsh(ad_blend(r, g, alpha).matrix.values)
                assert w.min() >= -1e-10 * w_in.max()


class TestAdLwnl:
    def test_alpha_one_reduces_to_projection(self):
        rng = np.random.default_rng(31)
        data = gaussian_dataset(rng, 20, 6)
        g = groups.block_symmetric(3, 2)
        blend = ad_lwnl_blend(data, g, 1.0)
        shah = shah_projection(sample_covariance(data), g)
        np.testing.assert_allclose(blend.matrix.values, shah.matrix.values, atol=1e-14)

    def test_alpha_zero_reduces_to_lwnl(self):
        rng = np.random.default_rng(32)
        data = gaussian_dataset(rng, 20, 6)
        g = groups.block_symmetric(3, 2)
        np.testing.assert_allclose(ad_lwnl_blend(data, g, 0.0).matrix.values,
                                   lwnl(data).matrix.values, atol=1e-14)

    def test_midpoint_is_entrywise_mean_of_endpoints(self):
        rng = np.random.default_rng(33)
        data = gaussian_dataset(rng, 24, 6)
        g = groups.cyclic(6)
        lo = ad_lwnl_blend(data, g, 0.0).matrix.values
        hi = ad_lwnl_blend(data, g, 1.0).matrix.values
        mid = ad_lwnl_blend(data, g, 0.5).matrix.values
        np.testing.assert_allclose(mid, (lo + hi) / 2, atol=1e-12)

    def test_target_is_projection_of_raw_covariance(self):
        # the structured side must come from the raw sample covariance, not
        # from the nonlinearly shrunken one
        rng = np.random.default_rng(34)
        data = gaussian_dataset(rng, 24, 6)
        g = groups.full_symmetric(6)
        hi = ad_lwnl_blend(data, g, 1.0).matrix.values
        raw_proj = groups.reynolds_project(g, sample_covariance(data)).values
        np.testing.assert_allclose(hi, raw_proj, atol=1e-14)


class TestEstimatorResult:
    def test_alpha_required_for_blends(self):
        with pytest.raises(ValueError):
            EstimatorResult("ad", SymmetricMatrix(np.eye(2)), group_name="g")

    def test_group_required_for_structural(self):
        with pytest.raises(ValueError):
            EstimatorResult(EST_SHAH, SymmetricMatrix(np.eye(2)), alpha=1.0)

    def test_sample_carries_no_alpha(self):
        with pytest.raises(ValueError):
            EstimatorResult("sample", SymmetricMatrix(np.eye(2)), alpha=0.5)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(36)
        data = gaussian_dataset(rng, 10, 3)
        res = ad_blend(sample_covariance(data), groups.cyclic(3), 0.25)
        path = tmp_path / "est.csv"
        write_estimator_csv(path, res)
        back = read_estimator_csv(path)
        assert back.estimator_name == res.estimator_name
        assert back.alpha == res.alpha
        assert back.group_name == res.group_name
        assert back.flags == res.flags
        np.testing.assert_array_equal(back.matrix.values, res.matrix.values)

    def test_csv_round_trip_no_alpha(self, tmp_path):
        rng = np.random.default_rng(37)
        res = sample_estimator(gaussian_dataset(rng, 10, 3))
        path = tmp_path / "s.csv"
        write_estimator_csv(path, res)
        back = read_estimator_csv(path)
        assert back.alpha is None and back.group_name is None

    def test_malformed_alpha_names_line(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("ad,abc,g,\n1\n1.0\n")
        with pytest.raises(ValueError, match=f"{path}:1: could not convert"):
            read_estimator_csv(path)
