import math

import numpy as np
import pytest

from symcov.matrixcore import (
    PIVOT_RTOL,
    CenteringError,
    Dataset,
    DimensionMismatchError,
    SymmetricMatrix,
    cholesky,
    frobenius_norm,
    gaussian_nll_per_sample,
    read_dataset_csv,
    read_matrix_csv,
    sample_covariance,
    second_moment,
    write_dataset_csv,
    write_matrix_csv,
)


def rand_sym(rng, m):
    a = rng.standard_normal((m, m))
    return SymmetricMatrix(a + a.T)


def rand_spd(rng, m):
    a = rng.standard_normal((m, m))
    return SymmetricMatrix(a @ a.T / m + 0.1 * np.eye(m))


class TestSymmetricMatrix:
    def test_symmetrizes_at_construction(self):
        a = SymmetricMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.array_equal(a.values, a.values.T)
        assert a.values[0, 1] == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_read_only(self):
        a = SymmetricMatrix(np.eye(2))
        with pytest.raises(ValueError):
            a.values[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            SymmetricMatrix(np.array([[1.0, bad], [bad, 1.0]]))


class TestDataset:
    def test_centered_flag_is_checked(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(CenteringError):
            Dataset(rows, centered=True)
        d = Dataset(rows).center()
        assert d.centered
        assert np.allclose(d.rows.mean(axis=0), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_zero_spread_column_must_be_zero(self):
        Dataset(np.array([[0.0, 1.0], [0.0, -1.0]]), centered=True)
        with pytest.raises(CenteringError):
            Dataset(np.array([[1.0, 2.0], [1.0, -2.0]]), centered=True)
        # 0.1 thrice has a rounded mean, yet centers to exactly zero
        d = Dataset(np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 4.0]])).center()
        assert np.array_equal(d.rows[:, 0], np.zeros(3))

    @pytest.mark.parametrize("n, offset", [(50, 1e6), (2000, 1e5), (50, -1e12)])
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_far_from_zero_center(self, n, offset, seed):
        # one pass leaves the rounding of a large mean, about 1e-10 of a unit
        # spread at 1e6, in every column; the second moves it by that rounding
        rows = offset + np.random.default_rng(seed).standard_normal((n, 10))
        d = Dataset(rows).center()   # passes its own centering check
        np.testing.assert_allclose(d.rows, rows - rows.mean(axis=0), rtol=0,
                                   atol=64 * np.spacing(abs(offset)))

    @pytest.mark.parametrize("n", [2, 50, 2000])
    def test_gaussian_rows_center_in_one_pass(self, n):
        # rows the first pass centers are kept as it leaves them, bitwise
        rows = np.random.default_rng(n).standard_normal((n, 10)) @ np.diag(np.arange(1.0, 11.0))
        np.testing.assert_array_equal(Dataset(rows).center().rows, rows - rows.mean(axis=0))

    def test_single_row_centers_to_zero(self):
        d = Dataset(np.array([[3.0, -1.0, 2.0]])).center()
        assert np.array_equal(d.rows, np.zeros((1, 3)))
        assert np.array_equal(sample_covariance(d).values, np.zeros((3, 3)))


class TestSampleCovariance:
    def test_single_observation_outer_product(self):
        d = Dataset(np.array([[1.0, 2.0]]), centered=True)
        np.testing.assert_array_equal(sample_covariance(d).values,
                                      [[1.0, 2.0], [2.0, 4.0]])

    def test_repeated_observation_matches_single(self):
        # repeated rows have zero-spread nonzero columns, which are not
        # centered; their raw second moment is still the single outer product
        x = np.array([1.0, 2.0])
        one = sample_covariance(Dataset(x[None, :], centered=True))
        with pytest.raises(CenteringError):
            Dataset(np.tile(x, (7, 1)), centered=True)
        many = second_moment(np.tile(x, (7, 1)))
        np.testing.assert_allclose(many.values, one.values, atol=1e-14)

    def test_matches_entrywise_double_loop(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, 3))
        got = second_moment(rows).values
        # brute-force oracle over all (n, i, j)
        want = np.zeros((3, 3))
        for n in range(5):
            for i in range(3):
                for j in range(3):
                    want[i, j] += rows[n, i] * rows[n, j]
        want /= 5
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_requires_centered(self):
        with pytest.raises(CenteringError):
            sample_covariance(Dataset(np.ones((3, 2))))

    def test_output_is_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows = rng.standard_normal((6, 4))
            w = np.linalg.eigvalsh(second_moment(rows).values)
            assert w.min() >= -1e-10 * max(w.max(), 1.0)


class TestGaussianNll:
    def test_identity_pair(self):
        for m in (1, 4, 9):
            i_m = SymmetricMatrix(np.eye(m))
            assert gaussian_nll_per_sample(i_m, i_m) == pytest.approx(m / 2)

    def test_scaled_identity_closed_form(self):
        sigma = SymmetricMatrix(2.0 * np.eye(2))
        r = SymmetricMatrix(np.eye(2))
        assert gaussian_nll_per_sample(sigma, r) == pytest.approx(math.log(2.0) + 0.5)

    def test_rank_deficient_returns_inf(self):
        sigma = SymmetricMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert math.isinf(gaussian_nll_per_sample(sigma, SymmetricMatrix(np.eye(2))))

    def test_near_singular_pivot_returns_inf(self):
        sigma = SymmetricMatrix(np.diag([1.0, 1e-30]))
        assert math.isinf(gaussian_nll_per_sample(sigma, SymmetricMatrix(np.eye(2))))

    @pytest.mark.parametrize("m", [1, 2, 12, 100])
    def test_matches_slogdet_and_solve(self, m):
        rng = np.random.default_rng(6 + m)
        for _ in range(5):
            sigma, r_test = rand_spd(rng, m), rand_spd(rng, m)
            sign, logdet = np.linalg.slogdet(sigma.values)
            want = 0.5 * logdet + 0.5 * np.trace(np.linalg.solve(sigma.values, r_test.values))
            assert sign == 1.0
            assert gaussian_nll_per_sample(sigma, r_test) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("sigma", [
        # indefinite: a rotation of diag(1, -1e-3, 4)
        (lambda q: q @ np.diag([1.0, -1e-3, 4.0]) @ q.T)(
            np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]),
        # positive definite, its last pivot PIVOT_RTOL / 2 of a largest sqrt(2)
        np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, PIVOT_RTOL**2 / 4]]),
    ], ids=["indefinite", "small-pivot"])
    def test_unfactorable_model_returns_inf(self, sigma):
        assert math.isinf(gaussian_nll_per_sample(SymmetricMatrix(sigma),
                                                  SymmetricMatrix(np.eye(3))))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gaussian_nll_per_sample(SymmetricMatrix(np.eye(2)), SymmetricMatrix(np.eye(3)))

    def test_model_equal_to_test_minimizes(self):
        # NLL(S, Sigma) over models S is minimized at S = Sigma.
        rng = np.random.default_rng(4)
        sigma = rand_spd(rng, 5)
        base = gaussian_nll_per_sample(sigma, sigma)
        for _ in range(20):
            other = rand_spd(rng, 5)
            assert base <= gaussian_nll_per_sample(other, sigma) + 1e-12


class TestCholesky:
    def test_inverse_norm_past_the_float_range_is_inf(self):
        # A = L L^T with L = [[2^-510, 0], [2^-500, 2^-510]], all normal
        # numbers: L^-1 holds -2^520, whose square overflows
        a = SymmetricMatrix(np.array([[2.0**-1020, 2.0**-1010],
                                      [2.0**-1010, 2.0**-1000 + 2.0**-1020]]))
        factor = cholesky(a)
        assert factor.inv_ell[1, 0] == -(2.0**520)
        assert factor.inv_norm_sq == math.inf
        assert factor.nll(a) == 0.5 * factor.logdet + 1.0


class TestFrobenius:
    def test_identity_norm(self):
        assert frobenius_norm(SymmetricMatrix(np.eye(3))) == pytest.approx(math.sqrt(3))

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        a = rand_sym(rng, 4)
        want = sum(a.values[i, j] ** 2 for i in range(4) for j in range(4))
        assert frobenius_norm(a) == pytest.approx(math.sqrt(want))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**-1070])
    def test_squares_neither_overflow_nor_underflow(self, scale):
        # the plain sum of squares gives inf (with an overflow warning) or 0
        assert frobenius_norm(SymmetricMatrix(scale * np.eye(4))) == 2.0 * scale

    def test_zero_matrix(self):
        assert frobenius_norm(SymmetricMatrix(np.zeros((3, 3)))) == 0.0

    def test_bitwise_unchanged_at_ordinary_scales(self):
        rng = np.random.default_rng(7)
        for scale in (1e-8, 1.0, 3.0, 1e8):
            a = SymmetricMatrix(scale * rand_sym(rng, 6).values)
            assert frobenius_norm(a) == np.linalg.norm(a.values, "fro")


class TestCsv:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        a = rand_sym(rng, 5)
        path = tmp_path / "a.csv"
        write_matrix_csv(path, a)
        np.testing.assert_array_equal(read_matrix_csv(path).values, a.values)

    def test_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        d = Dataset(rng.standard_normal((4, 3))).center()
        path = tmp_path / "d.csv"
        write_dataset_csv(path, d)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.rows, d.rows)
        assert back.centered

    def test_one_row_dataset_must_be_zero(self, tmp_path):
        # Dataset takes one row as centered; a file's single row must be zero
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3.0,4.0\n")
        with pytest.raises(ValueError, match=f"{path}:1: column means are not zero"):
            read_dataset_csv(path)
        path.write_text("1,2\n0.0,0.0\n")
        assert read_dataset_csv(path).centered

    def test_malformed_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("3\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError):
            read_matrix_csv(path)
