import math

import numpy as np
import pytest

from symcov import calibration, groups, matrixcore, shrinkage, synth
from symcov.calibration import (
    AlphaGrid,
    DEFAULT_GRID,
    DataStats,
    FoldScheme,
    METHOD_CV_NLL,
    METHOD_MSE_PLUGIN,
    NOTE_DENOMINATOR_DEGENERATE,
    _one_se_index,
    cv_nll_alpha,
    cv_nll_alphas,
    curvature_constant,
    mse_plugin_alpha,
    predict_alpha_nll_asymptotic,
    predict_n_star,
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


class TestAlphaGrid:
    def test_default_thirteen_points(self):
        grid = AlphaGrid.uniform(13)
        assert len(grid.points) == 13
        assert grid.points[0] == 0.0 and grid.points[-1] == 1.0
        assert grid.points[1] == pytest.approx(1 / 12)

    def test_endpoints_mandatory(self):
        with pytest.raises(ValueError):
            AlphaGrid((0.0, 0.5))
        with pytest.raises(ValueError):
            AlphaGrid((0.1, 0.5, 1.0))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            AlphaGrid((0.0, 0.5, 0.5, 1.0))

    def test_uniform_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            AlphaGrid.uniform(1)


class TestFoldScheme:
    def test_contiguous_sizes_differ_by_at_most_one(self):
        f = FoldScheme.contiguous(23, 5)
        counts = [f.fold_mask(k).sum() for k in range(5)]
        assert counts == [5, 5, 5, 4, 4]
        # contiguity: each fold is one run of indices
        for k in range(5):
            idx = np.flatnonzero(f.fold_mask(k))
            assert np.all(np.diff(idx) == 1)

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            FoldScheme.contiguous(3, 5)


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
            cv_nll_alpha(data, groups.trivial(3), folds=FoldScheme.contiguous(3, 2))

    def test_trace_csv(self, tmp_path):
        rng = np.random.default_rng(50)
        data = Dataset(rng.standard_normal((20, 3))).center()
        grid = AlphaGrid.uniform(5)
        res = cv_nll_alpha(data, groups.cyclic(3), grid)
        path = tmp_path / "trace.csv"
        write_cv_trace_csv(path, res, grid)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fold,alpha,nll"
        assert len(lines) == 1 + 5 * 5  # folds x grid


def _explicit_fold_scores(data, g, grid=DEFAULT_GRID, use_lwnl=False, folds=None):
    """Every (fold, alpha) score from its own explicit blend."""
    folds = folds or FoldScheme.contiguous(data.n_obs)
    scores = np.empty((folds.k, len(grid.points)))
    for fold in range(folds.k):
        mask = folds.fold_mask(fold)
        r_train = second_moment(data.rows[~mask])
        sample_term = (shrinkage.lwnl_from_covariance(r_train, int((~mask).sum())).matrix
                       if use_lwnl else r_train)
        residual = reynolds_project(g, r_train).values - sample_term.values
        r_test = second_moment(data.rows[mask])
        for j, alpha in enumerate(grid.points):
            blend = SymmetricMatrix(sample_term.values + alpha * residual)
            scores[fold, j] = gaussian_nll_per_sample(blend, r_test)
    return scores


def _rows(n, m, seed, zero_column=None):
    rows = np.random.default_rng(seed).standard_normal((n, m))
    if zero_column is not None:
        rows[:, zero_column] = 0.0
    return Dataset(rows).center()


class TestAlphaCurve:
    """cv_nll_alphas scores each candidate's whole alpha curve per fold from
    one factorization; every fold score must match its explicit blend."""

    @pytest.mark.parametrize("data,g,use_lwnl", [
        # N < M: the alpha = 0 blend is singular
        (_rows(10, 16, 48), groups.full_symmetric(16), False),
        # a zero column makes the target singular: the explicit-blend path
        (_rows(40, 6, 60, zero_column=2), groups.trivial(6), True),
        (_rows(40, 8, 61), groups.block_symmetric(4, 2), True),
        (_rows(60, 12, 62), groups.wreath_shifts(3, 4), False),
    ], ids=["n-below-m", "singular-target", "lwnl", "wreath"])
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
        data = _rows(30, 6, 64)
        a, b = cv_nll_alphas(data, [groups.cyclic(6), groups.haar_orthogonal(6)])
        np.testing.assert_array_equal(a.fold_scores[:, 0], b.fold_scores[:, 0])
        assert not np.array_equal(a.fold_scores[:, 1:], b.fold_scores[:, 1:])

    def test_one_cholesky_score_per_fold_when_well_conditioned(self, monkeypatch):
        calls = []
        def counting(sigma, r_test):
            calls.append(1)
            return gaussian_nll_per_sample(sigma, r_test)
        monkeypatch.setattr(matrixcore, "gaussian_nll_per_sample", counting)
        folds = FoldScheme.contiguous(200, 5)
        cv_nll_alphas(_rows(200, 6, 65), [groups.cyclic(6), groups.block_symmetric(3, 2)],
                      folds=folds)
        assert len(calls) == folds.k


@pytest.fixture(scope="module")
def pathway_decoys():
    return synth.parse_library_spec("preset:pathway100+decoys")


class TestAlphaCurveOnLibrary:
    """Every pathway100+decoys candidate's fold scores agree with their
    explicit blends, across N < M and N > M and both sample terms."""

    @pytest.mark.parametrize("n", [50, 400])
    @pytest.mark.parametrize("use_lwnl", [False, True])
    def test_fold_scores_match_explicit_blends(self, pathway_decoys, n, use_lwnl):
        sigma = synth.make_population(synth.PopulationSpec(
            m=100, kind=synth.POP_BLOCK_CIRCULANT, block_size=20))
        data = synth.sample_gaussian(sigma, n, (71, n))
        results = cv_nll_alphas(data, pathway_decoys.candidates,
                                use_lwnl_sample_term=use_lwnl)
        for g, res in zip(pathway_decoys.candidates, results):
            want = _explicit_fold_scores(data, g, use_lwnl=use_lwnl)
            finite = np.isfinite(want)
            np.testing.assert_array_equal(np.isfinite(res.fold_scores), finite, err_msg=g.name)
            np.testing.assert_allclose(res.fold_scores[finite], want[finite],
                                       rtol=1e-12, atol=0, err_msg=g.name)


def _record_eigh_shapes(monkeypatch):
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    return shapes


class TestGramPath:
    """A raw sample term of n_train < M rows scores its alpha curve from the
    n_train x n_train Gram matrix of its fold rows, with no M x M eigh."""

    @pytest.mark.parametrize("g", [
        groups.cyclic(12), groups.block_symmetric(4, 3), groups.full_symmetric(12),
        groups.haar_orthogonal(12),
    ], ids=lambda g: g.name)
    @pytest.mark.parametrize("n,k,n_train", [(3, 3, 2), (12, 2, 6), (12, 12, 11)],
                             ids=["n_train=2", "n_train=M/2", "n_train=M-1"])
    def test_fold_scores_match_explicit_blends(self, g, n, k, n_train, monkeypatch):
        data, folds = DataStats.of(_rows(n, 12, 80 + n)), FoldScheme(n, k)
        # a singular target scores every alpha on its explicit blend
        factored = sum(factors is not None for _, factors in data.targets(folds, g))
        shapes = _record_eigh_shapes(monkeypatch)
        got = cv_nll_alpha(data, g, folds=folds).fold_scores
        assert shapes == [(n_train, n_train)] * factored
        want = _explicit_fold_scores(data, g, folds=folds)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)
        assert finite.any()

    def test_dependent_training_rows_take_the_m_by_m_path(self, monkeypatch):
        rows = np.random.default_rng(90).standard_normal((15, 16))
        rows[10] = rows[5]   # folds 0, 3 and 4 train on both copies
        data, g = Dataset(rows).center(), groups.cyclic(16)
        shapes = _record_eigh_shapes(monkeypatch)
        got = cv_nll_alpha(data, g).fold_scores
        assert sorted(shapes) == [(12, 12)] * 5 + [(16, 16)] * 3
        want = _explicit_fold_scores(data, g)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0)

    def test_no_m_by_m_eigh_on_pathway_library_at_n_50(self, pathway_decoys, monkeypatch):
        sigma = synth.make_population(synth.PopulationSpec(
            m=100, kind=synth.POP_BLOCK_CIRCULANT, block_size=20))
        data = synth.sample_gaussian(sigma, 50, (71, 50))
        shapes = _record_eigh_shapes(monkeypatch)
        cv_nll_alphas(data, pathway_decoys.candidates)
        assert shapes and set(shapes) == {(40, 40)}

    def test_fold_rows_cached_per_scheme(self):
        stats = DataStats.of(_rows(20, 6, 91))
        folds = FoldScheme.contiguous(20, 4)
        assert stats.fold_rows(folds) is stats.fold_rows(FoldScheme.contiguous(20, 4))
        for (train, test), mask in zip(stats.fold_rows(folds), map(folds.fold_mask, range(4))):
            np.testing.assert_array_equal(train, stats.rows[~mask])
            np.testing.assert_array_equal(test, stats.rows[mask])


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
        folds = FoldScheme.contiguous(40, 5)
        a, b = cv_nll_alphas(_rows(40, 6, 66), [s6, a6], folds=folds)
        np.testing.assert_array_equal(a.fold_scores, b.fold_scores)
        assert a.alpha == b.alpha
        assert calls == ["s6"] * folds.k

    def test_haar_groups_of_one_dimension_share_a_target(self):
        stats, folds = DataStats.of(_rows(30, 6, 67)), FoldScheme.contiguous(30)
        other = groups.GroupAction("haar-b", 6, kind=groups.KIND_HAAR)
        assert stats.targets(folds, groups.haar_orthogonal(6)) is stats.targets(folds, other)

    def test_shared_stats_give_standalone_results_bitwise(self):
        data = _rows(60, 12, 68)
        cands = [groups.trivial(12), groups.wreath_shifts(3, 4), groups.haar_orthogonal(12)]
        folds = FoldScheme.contiguous(60)
        stats = DataStats.of(data)
        for use_lwnl in (False, True):
            shared = cv_nll_alphas(stats, cands, folds=folds, use_lwnl_sample_term=use_lwnl)
            alone = cv_nll_alphas(data, cands, folds=folds, use_lwnl_sample_term=use_lwnl)
            for x, y in zip(shared, alone):
                np.testing.assert_array_equal(x.fold_scores, y.fold_scores)
                assert (x.alpha, x.per_alpha_scores) == (y.alpha, y.per_alpha_scores)

    def test_stats_for_other_rows_or_folds_rejected(self):
        # a DataStats is its own rows, so only a fold scheme can mismatch
        stats, g = DataStats.of(_rows(30, 6, 70)), groups.cyclic(6)
        with pytest.raises(ValueError, match="fold scheme"):
            cv_nll_alphas(stats, [g], folds=FoldScheme.contiguous(31, 5))
        with pytest.raises(ValueError, match="fold scheme"):
            stats.targets(FoldScheme.contiguous(29, 5), g)

    def test_of_wraps_once_and_caches_per_scheme(self):
        data = _rows(30, 6, 72)
        stats = DataStats.of(data)
        assert DataStats.of(stats) is stats and DataStats.of(data) is not stats
        np.testing.assert_array_equal(stats.rows, data.rows)
        assert stats.r_hat is stats.r_hat and stats.lwnl is stats.lwnl
        np.testing.assert_array_equal(stats.r_hat.values, sample_covariance(data).values)
        five, three = FoldScheme.contiguous(30, 5), FoldScheme.contiguous(30, 3)
        assert stats.moments(five) is stats.moments(FoldScheme.contiguous(30, 5))
        assert len(stats.moments(three)) == 3 and stats.moments(three) is not stats.moments(five)


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


class TestAsymptotics:
    def test_matched_limit_note(self):
        g = groups.full_symmetric(4)
        sigma = SymmetricMatrix(np.eye(4))
        res = predict_alpha_nll_asymptotic(sigma, g, 100)
        assert res.matched_limit and res.alpha == 1.0
        with pytest.raises(ValueError):
            predict_n_star(sigma, g)

    def test_one_inversion_per_prediction(self, monkeypatch):
        calls = []
        inverse = calibration._inverse_spd
        monkeypatch.setattr(calibration, "_inverse_spd",
                            lambda *args: calls.append(1) or inverse(*args))
        g = groups.cyclic(6)
        a = np.random.default_rng(50).standard_normal((6, 6))
        sigma = SymmetricMatrix(a @ a.T / 6 + 0.2 * np.eye(6))
        predict_alpha_nll_asymptotic(sigma, g, 100)
        assert len(calls) == 1
        predict_n_star(sigma, g)
        assert len(calls) == 2

    def test_curvature_constant_positive(self):
        rng = np.random.default_rng(51)
        cases = [groups.transposition(6), groups.cyclic(6),
                 groups.full_symmetric(6), groups.block_symmetric(3, 2),
                 groups.wreath_shifts(3, 2)]
        for i in range(50):
            g = cases[i % len(cases)]
            a = rng.standard_normal((6, 6))
            sigma = SymmetricMatrix(a @ a.T / 6 + 0.2 * np.eye(6))
            c = curvature_constant(sigma, g)
            m = 6
            from symcov.groups import orbit_partition
            d_g = orbit_partition(g).d_g
            assert c >= m * (m + 1) - 2 * d_g > 0

    def test_prediction_halves_when_n_doubles_in_small_alpha_regime(self):
        rng = np.random.default_rng(52)
        g = groups.cyclic(6)
        a = rng.standard_normal((6, 6))
        sigma = SymmetricMatrix(a @ a.T / 6 + 0.2 * np.eye(6))
        n = 10**7  # deep small-alpha regime
        a1 = predict_alpha_nll_asymptotic(sigma, g, n).alpha
        a2 = predict_alpha_nll_asymptotic(sigma, g, 2 * n).alpha
        assert a2 == pytest.approx(a1 / 2, rel=1e-3)

    def test_n_star_defining_identity(self):
        rng = np.random.default_rng(53)
        g = groups.grid_klein(2, 3)
        a = rng.standard_normal((6, 6))
        sigma = SymmetricMatrix(a @ a.T / 6 + 0.2 * np.eye(6))
        n_star = predict_n_star(sigma, g)
        assert predict_alpha_nll_asymptotic(sigma, g, n_star).alpha == pytest.approx(0.5, abs=1e-10)

    def test_n_star_quadruples_when_bias_halves(self):
        # scale the off-commutant part of Sigma by 1/2 at small base residual
        rng = np.random.default_rng(54)
        g = groups.block_symmetric(3, 2)
        a = rng.standard_normal((6, 6))
        base = SymmetricMatrix(a @ a.T / 6 + 1.0 * np.eye(6))
        proj = reynolds_project(g, base).values
        b0 = base.values - proj
        b0 *= 0.1 / np.linalg.norm(b0, "fro")  # small residual
        n1 = predict_n_star(SymmetricMatrix(proj + b0), g)
        n2 = predict_n_star(SymmetricMatrix(proj + 0.5 * b0), g)
        assert n2 == pytest.approx(4 * n1, rel=0.1)

    def test_mismatched_toy_matches_trace_loops(self):
        # M=4, Z2 swap: independent loop evaluation of c(Sigma, G) and Q_B
        g = groups.transposition(4, 0, 1)
        sigma = SymmetricMatrix(np.array([
            [2.0, 0.3, 0.1, 0.0],
            [0.3, 1.5, 0.2, 0.1],
            [0.1, 0.2, 1.8, 0.4],
            [0.0, 0.1, 0.4, 2.2]]))
        b = sigma.values - brute_force_project(g, sigma).values
        inv = np.linalg.inv(sigma.values)
        q_b = 0.0
        sb = inv @ b @ inv @ b
        for i in range(4):
            q_b += sb[i, i]
        from symcov.groups import orbit_partition
        d_g = orbit_partition(g).d_g
        tr_ib = float(np.trace(inv @ b))
        c = 4 * 5 - 2 * d_g - 2 * 5 * tr_ib
        assert predict_n_star(sigma, g) == pytest.approx(c / q_b, rel=1e-10)

    def test_singular_sigma_rejected(self):
        with pytest.raises(ValueError):
            predict_alpha_nll_asymptotic(
                SymmetricMatrix(np.diag([1.0, 0.0])), groups.transposition(2), 10)

    def test_ridge_plugin_mode_accepts_rank_deficient(self):
        rng = np.random.default_rng(55)
        rows = rng.standard_normal((4, 8))
        r_hat = SymmetricMatrix(rows.T @ rows / 4)  # rank deficient
        res = predict_alpha_nll_asymptotic(r_hat, groups.cyclic(8), 100, ridge_scale=1e-8)
        assert 0.0 <= res.alpha <= 1.0
