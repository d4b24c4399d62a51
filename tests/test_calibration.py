import math

import numpy as np
import pytest

from symcov import bmg, calibration, groups, matrixcore, shrinkage, synth
from symcov.calibration import (
    DEFAULT_FOLDS,
    DEFAULT_GRID_POINTS,
    DataStats,
    METHOD_CV_NLL,
    METHOD_MSE_PLUGIN,
    NOTE_DENOMINATOR_DEGENERATE,
    _one_se_index,
    alpha_grid,
    cv_nll_alpha,
    fold_slices,
    mse_plugin_alpha,
    write_cv_trace_csv,
)
from symcov.groups import brute_force_project, reynolds_project
from symcov.matrixcore import (
    Dataset,
    SymmetricMatrix,
    gaussian_nll_per_sample,
    sample_covariance,
    second_moment,
)


class TestUniformGrid:
    def test_default_thirteen_points(self):
        grid = alpha_grid(13)
        assert len(grid) == 13
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert grid[1] == pytest.approx(1 / 12)

    def test_uniform_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            alpha_grid(1)


class TestFoldSlices:
    def test_contiguous_sizes_differ_by_at_most_one(self):
        slices = fold_slices(23, 5)
        assert [s.stop - s.start for s in slices] == [5, 5, 5, 4, 4]
        # the folds tile the rows in order
        assert [s.start for s in slices] == [0] + [s.stop for s in slices[:-1]]
        assert slices[-1].stop == 23

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError, match="cannot split 3 rows into 5 folds"):
            fold_slices(3, 5)


class TestMsePlugin:
    def test_brute_force_oracle_small_case(self):
        # M=3, N=4 fixed dataset; both plug-in quantities recomputed with
        # independent loops and enumeration-based projection.
        rng = np.random.default_rng(40)
        data = Dataset(rng.standard_normal((4, 3))).center()
        g = groups.cyclic(3)
        res = mse_plugin_alpha(data, g)

        r_hat = sample_covariance(data)
        proj = brute_force_project(g, r_hat)
        denom = 0.0
        for i in range(3):
            for j in range(3):
                denom += (r_hat.values[i, j] - proj.values[i, j]) ** 2
        total = 0.0
        for k in range(4):
            outer = SymmetricMatrix(np.outer(data.rows[k], data.rows[k]))
            po = brute_force_project(g, outer)
            for i in range(3):
                for j in range(3):
                    perp_outer = outer.values[i, j] - po.values[i, j]
                    perp_rhat = r_hat.values[i, j] - proj.values[i, j]
                    total += (perp_outer - perp_rhat) ** 2
        v_perp = total / 16
        assert res.v_plus_d_hat == pytest.approx(denom, rel=1e-10)
        assert res.v_perp_hat == pytest.approx(v_perp, rel=1e-10)
        assert res.alpha == pytest.approx(min(1.0, max(0.0, v_perp / denom)), rel=1e-10)

    def test_trivial_group_degenerate_denominator(self):
        rng = np.random.default_rng(41)
        data = Dataset(rng.standard_normal((6, 3))).center()
        res = mse_plugin_alpha(data, groups.trivial(3))
        assert res.alpha == 1.0
        assert res.note == NOTE_DENOMINATOR_DEGENERATE

    @pytest.mark.parametrize("c", [2.0**-300, 1e-100, 1e100])
    def test_alpha_scale_free_where_fourth_powers_leave_the_float_range(self, c):
        rng = np.random.default_rng(45)
        data = Dataset(rng.standard_normal((12, 6))).center()
        scaled = Dataset(data.rows * c, centered=True)
        for g in (groups.haar_orthogonal(6), groups.cyclic(6), groups.block_symmetric(3, 2)):
            want, got = mse_plugin_alpha(data, g), mse_plugin_alpha(scaled, g)
            assert got.note is None and want.note is None
            # a power of two scales exactly, so alpha is bitwise the same
            assert got.alpha == want.alpha if c == 2.0**-300 else \
                got.alpha == pytest.approx(want.alpha, rel=1e-12)

    def test_matched_population_alpha_grows_with_n(self):
        g = groups.wreath_shifts(4, 2)
        sigma = synth.make_population(
            synth.PopulationSpec(m=8, kind=synth.POP_GROUP_INVARIANT, base_seed=2, group=g))
        def mean_alpha(n, trials=40):
            vals = []
            for t in range(trials):
                data = synth.sample_gaussian(sigma, n, (42, n, t))
                vals.append(mse_plugin_alpha(data, g).alpha)
            return np.mean(vals)
        assert mean_alpha(2000) > mean_alpha(50)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            mse_plugin_alpha(Dataset(np.array([[1.0, 2.0]])).center(), groups.trivial(2))

    def test_matches_per_row_loop(self):
        # the per-row projection loop the closed forms replace, on every
        # projection kind: Haar, full-symmetric and partitioned
        library = synth.parse_library_spec("preset:pathway100+decoys").candidates
        sigma = synth.make_population(
            synth.PopulationSpec(m=100, kind=synth.POP_RANDOM_SPD, base_seed=5))
        for n, cases in ((50, library), (2000, library[1:3] + library[-1:])):
            data = synth.sample_gaussian(sigma, n, (60, n))
            r_hat = sample_covariance(data)
            for g in (*cases, groups.haar_orthogonal(100)):
                res = mse_plugin_alpha(data, g)
                if res.note == NOTE_DENOMINATOR_DEGENERATE:
                    continue
                perp_rhat = r_hat.values - reynolds_project(g, r_hat).values
                total = 0.0
                for row in data.rows:
                    outer = SymmetricMatrix(np.outer(row, row))
                    perp_outer = outer.values - reynolds_project(g, outer).values
                    total += float(np.sum((perp_outer - perp_rhat) ** 2))
                assert res.v_perp_hat == pytest.approx(total / n**2, rel=1e-12, abs=0), g.name

    def test_plus_d_identity(self):
        # || R - P(R) ||^2 equals || Pperp(R) ||^2 with the projector applied
        # through enumeration on the complement side.
        rng = np.random.default_rng(43)
        data = Dataset(rng.standard_normal((8, 4))).center()
        g = groups.grid_klein(2, 2)
        r_hat = sample_covariance(data)
        lhs = np.sum((r_hat.values - reynolds_project(g, r_hat).values) ** 2)
        perp = r_hat.values - brute_force_project(g, r_hat).values
        assert lhs == pytest.approx(np.sum(perp**2), abs=1e-10)


class TestCvNll:
    def test_deterministic(self):
        rng = np.random.default_rng(44)
        data = Dataset(rng.standard_normal((30, 4))).center()
        g = groups.grid_d4(2)
        a = cv_nll_alpha(data, g)
        b = cv_nll_alpha(data, g)
        assert a.alpha == b.alpha
        assert a.per_alpha_scores == b.per_alpha_scores

    def test_trivial_group_ties_break_to_zero(self):
        rng = np.random.default_rng(45)
        data = Dataset(rng.standard_normal((30, 4))).center()
        res = cv_nll_alpha(data, groups.trivial(4))
        scores = list(res.per_alpha_scores.values())
        assert all(s == scores[0] for s in scores)
        assert res.alpha == 0.0

    def test_matched_population_selects_one(self):
        # matched population, large N, small noise
        g = groups.wreath_shifts(20, 5)
        sigma = synth.make_population(
            synth.PopulationSpec(m=100, kind=synth.POP_GROUP_INVARIANT, base_seed=11, group=g))
        hits = 0
        for t in range(50):
            data = synth.sample_gaussian(sigma, 2000, (46, "match", t))
            res = cv_nll_alpha(data, g)
            hits += (res.alpha == 1.0)
        assert hits >= 45

    def test_mismatched_population_collapses_to_small_alpha(self):
        g = groups.wreath_shifts(8, 4)
        sigma = synth.make_population(
            synth.PopulationSpec(m=32, kind=synth.POP_DELTA_CONTROLLED, base_seed=11,
                                 group=g, target_delta=0.5))
        hits = 0
        for t in range(50):
            data = synth.sample_gaussian(sigma, 2000, (47, "mis", t))
            res = cv_nll_alpha(data, g)
            hits += (res.alpha <= 1 / 12 + 1e-12)
        assert hits >= 45

    def test_infinite_scores_participate_and_lose(self):
        # N < M: the alpha=0 blend is singular, so its score is +inf and a
        # structured candidate with positive alpha must win.
        rng = np.random.default_rng(48)
        data = Dataset(rng.standard_normal((10, 16))).center()
        g = groups.full_symmetric(16)
        res = cv_nll_alpha(data, g)
        assert math.isinf(res.per_alpha_scores[0.0])
        assert res.alpha > 0.0

    def test_degenerate_folds_rejected(self):
        # with N=3 and two folds, one training complement has a single row
        rng = np.random.default_rng(49)
        data = Dataset(rng.standard_normal((3, 3))).center()
        with pytest.raises(ValueError):
            cv_nll_alpha(data, groups.trivial(3), folds=2)

    def test_trace_csv(self, tmp_path):
        rng = np.random.default_rng(50)
        data = Dataset(rng.standard_normal((20, 3))).center()
        res = cv_nll_alpha(data, groups.cyclic(3), 5)
        path = tmp_path / "trace.csv"
        write_cv_trace_csv(path, res)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fold,alpha,nll"
        assert len(lines) == 1 + 5 * 5  # folds x grid


def _explicit_fold_scores(data, g, grid_points=DEFAULT_GRID_POINTS, use_lwnl=False,
                          folds=DEFAULT_FOLDS):
    """Every (fold, alpha) score from its own explicit blend."""
    grid = alpha_grid(grid_points)
    scores = np.empty((folds, len(grid)))
    for fold, test in enumerate(fold_slices(data.n_obs, folds)):
        x_train = np.delete(data.rows, test, axis=0)
        r_train = second_moment(x_train)
        sample_term = (shrinkage.lwnl_from_covariance(r_train, len(x_train)).matrix
                       if use_lwnl else r_train)
        residual = reynolds_project(g, r_train).values - sample_term.values
        r_test = second_moment(data.rows[test])
        for j, alpha in enumerate(grid):
            blend = SymmetricMatrix(sample_term.values + alpha * residual)
            scores[fold, j] = gaussian_nll_per_sample(blend, r_test)
    return scores


def _rows(n, m, seed, zero_column=None):
    rows = np.random.default_rng(seed).standard_normal((n, m))
    if zero_column is not None:
        rows[:, zero_column] = 0.0
    return Dataset(rows).center()


def _record_nll_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(matrixcore, "gaussian_nll_per_sample",
                        lambda sigma, r_test: calls.append(1) or gaussian_nll_per_sample(
                            sigma, r_test))
    return calls


class TestAlphaCurve:
    """cv_nll_alpha scores each candidate's whole alpha curve per fold from
    one factorization; every fold score must match its explicit blend."""

    @pytest.mark.parametrize("data,g,use_lwnl", [
        # N < M: the alpha = 0 blend is singular
        (_rows(10, 16, 48), groups.full_symmetric(16), False),
        # a zero column makes the target singular: the explicit-blend path
        (_rows(40, 6, 60, zero_column=2), groups.trivial(6), True),
        (_rows(40, 8, 61), groups.block_symmetric(4, 2), True),
        (_rows(60, 12, 62), groups.wreath_shifts(3, 4), False),
        # three test rows per fold, fewer than M/4: the tridiagonal M x M route
        (_rows(15, 16, 49), groups.cyclic(16), True),
        # T = R_train is singular at N < M, the LWNL sample term is not: the
        # explicit path scores alpha < 1 and keeps +inf at alpha = 1
        (_rows(15, 16, 50), groups.trivial(16), True),
    ], ids=["n-below-m", "singular-target", "lwnl", "wreath", "few-test-rows",
            "few-test-rows-singular-target"])
    def test_fold_scores_match_explicit_blends(self, data, g, use_lwnl):
        got = cv_nll_alpha(data, g, use_lwnl_sample_term=use_lwnl).fold_scores
        want = _explicit_fold_scores(data, g, use_lwnl=use_lwnl)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)
        assert finite.any()

    def test_zero_residual_columns_bitwise_equal(self):
        scores = cv_nll_alpha(_rows(30, 5, 63), groups.trivial(5)).fold_scores
        assert (scores == scores[:, :1]).all()

    def test_alpha_zero_column_shared_across_groups(self):
        stats = DataStats.of(_rows(30, 6, 64))
        a, b = (cv_nll_alpha(stats, g) for g in [groups.cyclic(6), groups.haar_orthogonal(6)])
        np.testing.assert_array_equal(a.fold_scores[:, 0], b.fold_scores[:, 0])
        assert not np.array_equal(a.fold_scores[:, 1:], b.fold_scores[:, 1:])

    def test_one_cholesky_score_per_fold_when_well_conditioned(self, monkeypatch):
        calls = _record_nll_calls(monkeypatch)
        folds = 5
        stats = DataStats.of(_rows(200, 6, 65))
        for g in [groups.cyclic(6), groups.block_symmetric(3, 2)]:
            cv_nll_alpha(stats, g, folds=folds)
        assert len(calls) == folds


@pytest.fixture(scope="module")
def pathway_decoys():
    return synth.parse_library_spec("preset:pathway100+decoys")


def _pathway_rows(n):
    sigma = synth.make_population(synth.PopulationSpec(
        m=100, kind=synth.POP_BLOCK_CIRCULANT, block_size=20))
    return synth.sample_gaussian(sigma, n, (71, n))


class TestAlphaCurveOnLibrary:
    """Every pathway100+decoys candidate's fold scores agree with their
    explicit blends, across N < M and N > M and both sample terms."""

    @pytest.mark.parametrize("use_lwnl,n", [
        (use_lwnl, n) for use_lwnl in (False, True) for n in (50, 100, 125, 150, 400, 2000)
        if (use_lwnl, n) != (True, 125)] + [pytest.param(True, 125, marks=pytest.mark.xfail(
            strict=True, reason="at n_train = M the trivial target is near-singular: "
                                "fold 0 of trivial-100 scores 5.2e6 nats at alpha = 1, "
                                "where curve and explicit blend differ by 5.1e-10 "
                                "relative (6.3e-10 before LWNL's p > n branch)"))])
    def test_fold_scores_match_explicit_blends(self, pathway_decoys, n, use_lwnl):
        data = _pathway_rows(n)
        stats = DataStats.of(data)
        results = [cv_nll_alpha(stats, g, use_lwnl_sample_term=use_lwnl)
                   for g in pathway_decoys.candidates]
        for g, res in zip(pathway_decoys.candidates, results):
            want = _explicit_fold_scores(data, g, use_lwnl=use_lwnl)
            finite = np.isfinite(want)
            np.testing.assert_array_equal(np.isfinite(res.fold_scores), finite, err_msg=g.name)
            np.testing.assert_allclose(res.fold_scores[finite], want[finite],
                                       rtol=1e-12, atol=0, err_msg=g.name)


def _record_factorizations(monkeypatch):
    calls, factor = [], calibration.lapack.dpotrf
    monkeypatch.setattr(calibration.lapack, "dpotrf",
                        lambda a, **kw: calls.append(1) or factor(a, **kw))
    return calls


class TestWhitening:
    """A fold whose sample term S is well conditioned (LWNL at any n_train,
    R_train from n_train >= M rows) whitens every target's curve by S's one
    factor; every other fold factors each distinct target with a nonzero
    residual once."""

    @pytest.mark.parametrize("n", [400, 2000])
    def test_one_factor_per_fold_and_sample_term(self, pathway_decoys, n, monkeypatch):
        stats, folds = DataStats.of(_pathway_rows(n)), DEFAULT_FOLDS
        calls = _record_factorizations(monkeypatch)
        for kinds, use_lwnl in enumerate((False, True), start=1):
            for g in pathway_decoys.candidates:
                cv_nll_alpha(stats, g, use_lwnl_sample_term=use_lwnl)
            assert len(calls) == folds * kinds

    @pytest.mark.parametrize("n", [50, 100])
    def test_targets_factored_once_per_fold_on_target_whitened_folds(self, pathway_decoys,
                                                                     n, monkeypatch):
        # n_train < M: the Gram route factors each target for R_train but the
        # trivial one, equal to R_train, while its LWNL term, positive
        # definite, whitens every curve by its factor
        stats, folds = DataStats.of(_pathway_rows(n)), DEFAULT_FOLDS
        calls = _record_factorizations(monkeypatch)
        distinct = {id(stats.targets(folds, g)) for g in pathway_decoys.candidates}
        for g in pathway_decoys.candidates:
            cv_nll_alpha(stats, g)
        assert len(calls) == folds * (len(distinct) - 1)
        for g in pathway_decoys.candidates:
            cv_nll_alpha(stats, g, use_lwnl_sample_term=True)
        assert len(calls) == folds * (len(distinct) - 1) + folds

    def test_lwnl_selection_below_m_scores_explicitly_only_singular_ends(self,
                                                                         pathway_decoys,
                                                                         monkeypatch):
        # n_train = 40: every fold whitens by its LWNL term; beside the five
        # alpha = 0 scores, only alpha = 1 of a singular target is explicit
        calls = _record_nll_calls(monkeypatch)
        bmg.bmg_with_fallback(_pathway_rows(50), pathway_decoys, use_lwnl=True)
        assert len(calls) <= 2 * DEFAULT_FOLDS

    @pytest.mark.parametrize("n", [125, 126, 130])
    @pytest.mark.parametrize("use_lwnl", [False, True])
    def test_no_explicit_blends_near_full_rank(self, pathway_decoys, n, use_lwnl,
                                               monkeypatch):
        # n_train = M .. 1.04 M: S is whitened only when well-conditioned
        calls = _record_nll_calls(monkeypatch)
        bmg.bmg_with_fallback(_pathway_rows(n), pathway_decoys, use_lwnl=use_lwnl)
        assert len(calls) == DEFAULT_FOLDS

    @pytest.mark.parametrize("n,use_lwnl", [(150, False), (400, False), (150, True)])
    def test_constant_column_whitens_every_curve_by_its_target(self, pathway_decoys, n,
                                                                use_lwnl, monkeypatch):
        # centering zeroes a constant column: R_train is singular at every N and
        # the LWNL term fails the kappa test, so no fold whitens by S
        rows = _pathway_rows(n).rows.copy()
        rows[:, 7] = 0.0
        calls = _record_nll_calls(monkeypatch)
        bmg.bmg_with_fallback(Dataset(rows).center(), pathway_decoys, use_lwnl=use_lwnl)
        assert len(calls) == DEFAULT_FOLDS


def _record_eigh_shapes(monkeypatch):
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    return shapes


def _record_tridiagonal_shapes(monkeypatch):
    shapes, kernel = [], calibration._tridiagonal_curve
    monkeypatch.setattr(calibration, "_tridiagonal_curve",
                        lambda k, *args, **kw: shapes.append(k.shape) or kernel(k, *args, **kw))
    return shapes


def _record_eigen_calls(monkeypatch):
    calls, kernel = [], calibration._eigen_curve
    monkeypatch.setattr(calibration, "_eigen_curve",
                        lambda *args: calls.append(1) or kernel(*args))
    return calls


class TestGramPath:
    """A raw sample term of n_train < M rows scores its alpha curve from a
    tridiagonal reduction of the n_train x n_train Gram matrix of its fold
    rows, with no eigh."""

    @pytest.mark.parametrize("g", [
        groups.cyclic(12), groups.block_symmetric(4, 3), groups.full_symmetric(12),
        groups.haar_orthogonal(12),
    ], ids=lambda g: g.name)
    @pytest.mark.parametrize("n,k,n_train", [(3, 3, 2), (12, 2, 6), (12, 12, 11)],
                             ids=["n_train=2", "n_train=M/2", "n_train=M-1"])
    def test_fold_scores_match_explicit_blends(self, g, n, k, n_train, monkeypatch):
        data, folds = DataStats.of(_rows(n, 12, 80 + n)), k
        shapes = _record_eigh_shapes(monkeypatch)
        got = cv_nll_alpha(data, g, folds=folds).fold_scores
        assert shapes == []
        want = _explicit_fold_scores(data, g, folds=folds)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)
        assert finite.any()

    def test_dependent_training_rows_stay_on_the_gram_route(self, monkeypatch):
        rows = np.random.default_rng(90).standard_normal((15, 16))
        rows[10] = rows[5]   # folds 0, 3 and 4 train on both copies
        data, g = Dataset(rows).center(), groups.cyclic(16)
        shapes = _record_eigh_shapes(monkeypatch)
        kernel_shapes = _record_tridiagonal_shapes(monkeypatch)
        got = cv_nll_alpha(data, g).fold_scores
        assert shapes == [] and kernel_shapes == [(12, 12)] * 5
        want = _explicit_fold_scores(data, g)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)

    def test_no_m_by_m_eigh_on_pathway_library_at_n_50(self, pathway_decoys, monkeypatch):
        data = _pathway_rows(50)
        shapes = _record_eigh_shapes(monkeypatch)
        kernel_shapes = _record_tridiagonal_shapes(monkeypatch)
        stats = DataStats.of(data)
        for g in pathway_decoys.candidates:
            cv_nll_alpha(stats, g)
        assert shapes == [] and kernel_shapes and set(kernel_shapes) == {(40, 40)}

    def test_fold_rows_cached_per_scheme(self):
        # 15 training rows of M = 16: kept for the Gram route
        stats = DataStats.of(_rows(20, 16, 91))
        assert stats.splits(4) is stats.splits(4)
        for block, (train, test, _, _) in zip(fold_slices(20, 4), stats.splits(4)):
            np.testing.assert_array_equal(train, np.delete(stats.rows, block, 0))
            np.testing.assert_array_equal(test, stats.rows[block])

    @pytest.mark.parametrize("n,m", [(20, 16), (20, 15), (40, 6)])
    def test_fold_keeps_test_row_views_and_training_rows_only_below_m(self, n, m):
        stats = DataStats.of(_rows(n, m, 92))
        for train, test, _, _ in stats.splits(4):
            assert np.shares_memory(test, stats.rows)
            assert (train is None) == (n - len(test) >= m)


class TestTridiagonalRoute:
    """Folds with fewer than M/4 test rows score any M x M curve from a
    tridiagonal reduction; the others keep the eigendecomposition."""

    @pytest.mark.parametrize("n,use_lwnl", [(100, True), (100, False), (400, False)])
    def test_eigen_spectrum_only_from_m_over_4_test_rows(self, pathway_decoys, n, use_lwnl,
                                                         monkeypatch):
        data = DataStats.of(_pathway_rows(n))
        folds = DEFAULT_FOLDS
        calls = _record_eigen_calls(monkeypatch)
        for g in pathway_decoys.candidates:
            cv_nll_alpha(data, g, use_lwnl_sample_term=use_lwnl)
        if n // folds < calibration.TRIDIAGONAL_ROW_FRACTION * 100:
            assert calls == []
            return
        distinct = {id(t): t for t in (data.targets(folds, g) for g in pathway_decoys.candidates)}
        # one per (fold, distinct target) with a nonzero residual
        want = sum(not np.array_equal(t.values, r_train.values)
                   for targets in distinct.values()
                   for t, (_, _, r_train, _) in zip(targets, data.splits(folds)))
        assert want > folds and len(calls) == want

    @pytest.mark.parametrize("use_lwnl", [False, True])
    def test_two_training_rows(self, use_lwnl):
        # one test row of M = 8: Gram route for the raw term, M x M for LWNL
        data, folds, g = _rows(3, 8, 51), 3, groups.cyclic(8)
        got = cv_nll_alpha(data, g, folds=folds, use_lwnl_sample_term=use_lwnl).fold_scores
        want = _explicit_fold_scores(data, g, use_lwnl=use_lwnl, folds=folds)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)
        assert finite.any()

    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_kernel_matches_dense_algebra(self, m):
        rng = np.random.default_rng(52 + m)
        k = rng.standard_normal((m, m))
        k += k.T
        k -= (np.linalg.eigvalsh(k)[-1] + 1.0) * np.eye(m)   # spectrum at most -1
        lam_min = np.linalg.eigvalsh(k)[0]
        w = rng.standard_normal((m, 3))
        a, b = np.full(4, -1.5 * lam_min), np.array([0.0, 0.5, 1.0, 2.0])
        # the eigen kernel reads W W^T as the whitened test moment
        for keep, logdet, trace in (
                calibration._tridiagonal_curve(k, w, a, b, floor=1e-3),
                calibration._eigen_curve(k, w @ w.T, a, b, 1e-3)):
            np.testing.assert_array_equal(keep, [True, True, True, False])
            for j, ld, tr in zip(np.flatnonzero(keep), logdet, trace):
                blend = a[j] * np.eye(m) + b[j] * k
                np.testing.assert_allclose(ld, np.linalg.slogdet(blend)[1], rtol=1e-12)
                np.testing.assert_allclose(tr, np.trace(w.T @ np.linalg.solve(blend, w)),
                                           rtol=1e-12)

    @pytest.mark.parametrize("g", [
        groups.cyclic(16), groups.block_symmetric(4, 4), groups.haar_orthogonal(16),
    ], ids=lambda g: g.name)
    @pytest.mark.parametrize("n,k", [(12, 2), (16, 2)])
    def test_lwnl_below_m_training_rows_take_the_eigen_kernel(self, g, n, k, monkeypatch):
        # at least M/4 test rows and n_train < M, which five folds cannot give
        data, folds = _rows(n, 16, 54 + n), k
        calls = _record_eigen_calls(monkeypatch)
        got = cv_nll_alpha(data, g, folds=folds, use_lwnl_sample_term=True).fold_scores
        assert len(calls) == k
        want = _explicit_fold_scores(data, g, use_lwnl=True, folds=folds)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)
        assert finite.any()

    def test_failed_tridiagonal_solve_falls_back_to_explicit_blends(self, monkeypatch):
        data, g = _rows(15, 16, 53), groups.cyclic(16)
        calls = _record_nll_calls(monkeypatch)
        for use_lwnl in (False, True):
            cv_nll_alpha(data, g, use_lwnl_sample_term=use_lwnl)
        assert len(calls) == 2 * calibration.DEFAULT_FOLDS   # the alpha = 0 scores alone
        monkeypatch.setattr(calibration.lapack, "dptsv", lambda d, e, b: (d, e, b, 1))
        for use_lwnl in (False, True):
            calls.clear()
            got = cv_nll_alpha(data, g, use_lwnl_sample_term=use_lwnl).fold_scores
            assert len(calls) == got.size
            want = _explicit_fold_scores(data, g, use_lwnl=use_lwnl)
            finite = np.isfinite(want)
            np.testing.assert_array_equal(np.isfinite(got), finite)
            np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)


def _alternating_6():
    """A_6 from a 3-cycle and a 5-cycle: another group than S_6, with the
    same orbitals on pairs."""
    return groups.GroupAction("a6", 6, ((1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)))


class TestFoldStats:
    def test_same_partition_scored_once(self, monkeypatch):
        s6, a6 = groups.full_symmetric(6), _alternating_6()
        assert np.array_equal(groups.orbit_partition(s6).sym_class_of,
                              groups.orbit_partition(a6).sym_class_of)
        calls = []
        def counting(g, a):
            calls.append(g.name)
            return reynolds_project(g, a)
        monkeypatch.setattr(calibration, "reynolds_project", counting)
        folds = 5
        stats = DataStats.of(_rows(40, 6, 66))
        a, b = (cv_nll_alpha(stats, g, folds=folds) for g in [s6, a6])
        np.testing.assert_array_equal(a.fold_scores, b.fold_scores)
        assert a.alpha == b.alpha
        assert calls == ["s6"] * folds

    def test_fold_scores_read_only_and_shared_per_partition(self):
        stats, folds = DataStats.of(_rows(40, 6, 74)), 5
        s6, a6 = groups.full_symmetric(6), _alternating_6()
        first = cv_nll_alpha(stats, s6, folds=folds).fold_scores
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
        for g in (s6, a6, s6):
            assert cv_nll_alpha(stats, g, folds=folds).fold_scores is first
        assert cv_nll_alpha(stats, s6, folds=folds,
                            use_lwnl_sample_term=True).fold_scores is not first

    def test_lwnl_fold_terms_computed_once_across_candidates_and_calls(self, monkeypatch):
        stats, folds = DataStats.of(_rows(30, 6, 75)), 5
        calls, original = [], shrinkage.lwnl_from_covariance
        monkeypatch.setattr(shrinkage, "lwnl_from_covariance",
                            lambda r, n: calls.append(n) or original(r, n))
        for grid_points in (DEFAULT_GRID_POINTS, 5):
            for g in (groups.cyclic(6), groups.block_symmetric(3, 2), groups.trivial(6)):
                cv_nll_alpha(stats, g, grid_points, folds, use_lwnl_sample_term=True)
        assert len(calls) == folds

    def test_haar_groups_of_one_dimension_share_a_target(self):
        stats, folds = DataStats.of(_rows(30, 6, 67)), DEFAULT_FOLDS
        other = groups.GroupAction("haar-b", 6, kind=groups.KIND_HAAR)
        assert stats.targets(folds, groups.haar_orthogonal(6)) is stats.targets(folds, other)

    def test_shared_stats_give_standalone_results_bitwise(self):
        data = _rows(60, 12, 68)
        cands = [groups.trivial(12), groups.wreath_shifts(3, 4), groups.haar_orthogonal(12)]
        folds = DEFAULT_FOLDS
        stats = DataStats.of(data)
        for use_lwnl in (False, True):
            shared = [cv_nll_alpha(stats, g, folds=folds, use_lwnl_sample_term=use_lwnl)
                      for g in cands]
            alone = [cv_nll_alpha(data, g, folds=folds, use_lwnl_sample_term=use_lwnl)
                     for g in cands]
            for x, y in zip(shared, alone):
                np.testing.assert_array_equal(x.fold_scores, y.fold_scores)
                assert (x.alpha, x.per_alpha_scores) == (y.alpha, y.per_alpha_scores)

    def test_uncentered_data_rejected_before_any_statistic(self):
        # the plug-in always raised; held-out calibration scored the shifted
        # rows without complaint and returned alpha = 1
        rows = _rows(30, 6, 73).rows + 5.0
        with pytest.raises(matrixcore.CenteringError):
            DataStats(rows)
        for calibrate in (cv_nll_alpha, mse_plugin_alpha):
            with pytest.raises(matrixcore.CenteringError):
                calibrate(Dataset(rows), groups.cyclic(6))

    def test_of_wraps_once_and_caches_per_scheme(self):
        data = _rows(30, 6, 72)
        stats = DataStats.of(data)
        assert DataStats.of(stats) is stats and DataStats.of(data) is not stats
        np.testing.assert_array_equal(stats.rows, data.rows)
        assert stats.r_hat is stats.r_hat and stats.lwnl is stats.lwnl
        np.testing.assert_array_equal(stats.r_hat.values, sample_covariance(data).values)
        assert stats.splits(5) is stats.splits(5)
        assert len(stats.splits(3)) == 3 and stats.splits(3) is not stats.splits(5)


class TestOneStandardErrorRule:
    # hand-built (k=5, n_alpha) fold-score matrices; column 1 is the
    # fold-mean minimizer unless stated otherwise
    BASE = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

    def _scores(self, *cols):
        return np.column_stack([np.full(5, 10.0), self.BASE, *cols])

    def test_promotes_to_endpoint_within_one_paired_se(self):
        # mean difference 0.01, paired SE about 0.07
        last = self.BASE + np.array([0.1, -0.1, 0.2, -0.2, 0.05])
        assert _one_se_index(self._scores(last)) == 2

    def test_no_promotion_beyond_one_paired_se(self):
        # mean difference 1.0, paired SE about 0.03
        last = self.BASE + np.array([1.0, 1.1, 0.9, 1.0, 1.0])
        assert _one_se_index(self._scores(last)) == 1

    def test_fold_offset_common_to_all_alphas_does_not_widen_the_band(self):
        # the fold-to-fold spread of the levels is large, but the paired
        # differences are nearly constant, so the endpoint is not promoted
        last = self.BASE + np.array([0.5, 0.51, 0.49, 0.5, 0.5])
        assert _one_se_index(self._scores(last)) == 1

    def test_exact_ties_stay_at_index_zero(self):
        scores = np.tile(self.BASE[:, None], (1, 13))
        assert _one_se_index(scores) == 0

    def test_column_with_inf_never_promoted(self):
        within = self.BASE + np.array([0.1, -0.1, 0.2, -0.2, 0.05])
        last = within.copy()
        last[3] = np.inf
        assert _one_se_index(self._scores(within, last)) == 2
        assert _one_se_index(self._scores(last)) == 1

    def test_all_inf_keeps_argmin(self):
        assert _one_se_index(np.full((5, 13), np.inf)) == 0


class TestMseConsistencyTrend:
    def test_plugin_error_shrinks_with_n(self):
        # |alpha_hat - alpha*| median decreases across N in {50, 200, 800}
        # on a fixed mismatched configuration.
        g = groups.grid_translation2d(2, 4)
        sigma = synth.make_population(
            synth.PopulationSpec(m=8, kind=synth.POP_RANDOM_SPD, base_seed=77))
        b = sigma.values - reynolds_project(g, sigma).values
        d = float(np.sum(b**2))
        medians = []
        for n in (50, 200, 800):
            _, v_perp, _, _ = synth.estimate_variance_components(sigma, g, n, 600, seed=88)
            alpha_star = v_perp / (v_perp + d)
            errs = []
            for t in range(50):
                data = synth.sample_gaussian(sigma, n, (89, n, t))
                errs.append(abs(mse_plugin_alpha(data, g).alpha - alpha_star))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]
