import math
import operator
import tracemalloc
from decimal import Decimal, localcontext

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
    """Every (fold, alpha) score from its own explicit blend, but where a raw
    R_train of fewer than M rows makes a blend singular by structure, which is
    +inf: the blend equal to R_train, singular by rank, and every alpha > 0
    when ``matrixcore.cholesky`` cannot factor the target, whose kernel every
    such blend shares."""
    grid = alpha_grid(grid_points)
    scores = np.empty((folds, len(grid)))
    for fold, test in enumerate(fold_slices(data.n_obs, folds)):
        x_train = np.delete(data.rows, test, axis=0)
        r_train = second_moment(x_train)
        sample_term = (shrinkage.lwnl_from_covariance(r_train, len(x_train)).matrix
                       if use_lwnl else r_train)
        target = reynolds_project(g, r_train)
        residual = target.values - sample_term.values
        r_test = second_moment(data.rows[test])
        singular = not use_lwnl and len(x_train) < data.dim
        singular_target = singular and matrixcore.cholesky(target) is None
        for j, alpha in enumerate(grid):
            blend = SymmetricMatrix(sample_term.values + alpha * residual)
            scores[fold, j] = (np.inf if (singular and np.array_equal(blend.values, r_train.values))
                               or (singular_target and alpha > 0)
                               else gaussian_nll_per_sample(blend, r_test))
    return scores


def _dot(u, v):
    return sum(map(operator.mul, u, v), Decimal(0))


def _nll_40_digits(s, t, alpha, x_test):
    """The held-out NLL (1/2) logdet B + (1/2) tr(B^-1 X_test^T X_test) / n_test
    of the blend B = (1 - alpha) S + alpha T of the double S and T, formed and
    scored at 40 significant digits (Cholesky by rows, in ``decimal``): a
    reference for the double-precision routes, whatever the blend's kappa."""
    with localcontext() as ctx:
        ctx.prec = 40
        alpha = Decimal(alpha)
        ell = []
        for i, (s_row, t_row) in enumerate(zip(s.tolist(), t.tolist())):
            b = [(1 - alpha) * Decimal(s_ij) + alpha * Decimal(t_ij)
                 for s_ij, t_ij in zip(s_row[:i + 1], t_row)]
            row = []
            for j in range(i):
                row.append((b[j] - _dot(row, ell[j])) / ell[j][j])
            row.append((b[i] - _dot(row, row)).sqrt())
            ell.append(row)
        trace = Decimal(0)
        for x in x_test.tolist():
            y = []
            for i, row in enumerate(ell):
                y.append((Decimal(x[i]) - _dot(y, row)) / row[i])
            trace += _dot(y, y)
        return (2 * sum(row[-1].ln() for row in ell) + trace / len(x_test)) / 2


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
        # every R_train whitens: its one factor also scores alpha = 0, so no
        # blend is scored explicitly
        calls = _record_nll_calls(monkeypatch)
        factors = _record_factorizations(monkeypatch)
        folds = 5
        stats = DataStats.of(_rows(200, 6, 65))
        for g in [groups.cyclic(6), groups.block_symmetric(3, 2)]:
            cv_nll_alpha(stats, g, folds=folds)
        assert len(calls) == 0 and len(factors) == folds


@pytest.fixture(scope="module")
def pathway_decoys():
    return synth.parse_library_spec("preset:pathway100+decoys")


def _pathway_rows(n, draw=71):
    sigma = synth.make_population(synth.PopulationSpec(
        m=100, kind=synth.POP_BLOCK_CIRCULANT, block_size=20))
    return synth.sample_gaussian(sigma, n, (draw, n))


class TestAlphaCurveOnLibrary:
    """Every pathway100+decoys candidate's fold scores agree with their
    explicit blends, across N < M and N > M and both sample terms."""

    @pytest.mark.parametrize("use_lwnl,n", [
        (use_lwnl, n) for use_lwnl in (False, True) for n in (50, 100, 125, 150, 400, 2000)
        if (use_lwnl, n) != (True, 125)] + [pytest.param(True, 125, marks=pytest.mark.xfail(
            strict=True, reason="fold 3 of trivial-100 is whitened by its LWNL term, and "
                                "its trivial target (kappa about 1.3e5) is near-singular: "
                                "at alpha = 1 curve and explicit blend differ by 3.5e-12 "
                                "relative"))])
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

    def test_disputed_cell_within_1e_11_of_a_40_digit_score(self):
        # the one cell the [True-125] case misses 1e-12 on: alpha = 1 of
        # trivial-100 on fold 3, T = R_train of kappa 8.1e5, where curve and
        # explicit blend differ by 3.8e-12 and each is 1.9e-12 or 2.0e-12 from
        # the 40-digit score of the same double S and T
        data, g, fold = _pathway_rows(125), groups.trivial(100), 3
        test = fold_slices(data.n_obs, DEFAULT_FOLDS)[fold]
        x_train = np.delete(data.rows, test, axis=0)
        r_train = second_moment(x_train)
        s = shrinkage.lwnl_from_covariance(r_train, len(x_train)).matrix.values
        want = _nll_40_digits(s, reynolds_project(g, r_train).values, 1.0, data.rows[test])
        curve = cv_nll_alpha(data, g, use_lwnl_sample_term=True).fold_scores[fold, -1]
        explicit = _explicit_fold_scores(data, g, use_lwnl=True)[fold, -1]
        for got in (curve, explicit):
            assert abs(Decimal(got) - want) <= Decimal("1e-11") * abs(want)


def _record_curves(monkeypatch, name):
    """The results of every call of the curve kernel ``name``."""
    results, kernel = [], getattr(calibration, name)
    monkeypatch.setattr(calibration, name,
                        lambda *args, **kw: results.append(kernel(*args, **kw)) or results[-1])
    return results


class TestCommutingTarget:
    """The trivial target equals R_train, which commutes with its LWNL term S:
    on folds S whitens, its curve is read off S's spectrum with no M x M
    reduction, and below the rank its alpha = 1, R_train itself, is +inf."""

    @pytest.mark.parametrize("n", [200, 400, 2000])
    def test_trivial_lwnl_scores_match_explicit_blends(self, n, monkeypatch):
        data, trivial = _pathway_rows(n), groups.trivial(100)
        spectral = _record_curves(monkeypatch, "_spectral_curve")
        reductions = (_record_eigen_calls(monkeypatch), _record_tridiagonal_shapes(monkeypatch))
        got = cv_nll_alpha(data, trivial, use_lwnl_sample_term=True).fold_scores
        assert len(spectral) == DEFAULT_FOLDS and None not in spectral
        assert reductions == ([], [])
        want = _explicit_fold_scores(data, trivial, use_lwnl=True)
        finite = np.isfinite(want)
        assert finite.all()
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_below_the_rank_alpha_one_is_singular_with_no_explicit_blend(self, pathway_decoys,
                                                                          monkeypatch):
        # N = 110 >= kappa M at kappa = 1 admits trivial-100; its folds train on
        # 88 rows, so R_train, the trivial target, has rank 88 < M
        data = _pathway_rows(110)
        stats, calls = DataStats.of(data), _record_nll_calls(monkeypatch)
        spectral = _record_curves(monkeypatch, "_spectral_curve")
        _, report = bmg.bmg_with_fallback(stats, pathway_decoys, kappa=1.0, use_lwnl=True)
        assert len(calls) == 0
        assert "trivial-100" in report.tier1_admitted
        assert math.isfinite(report.tier2_scores["trivial-100"])
        assert len(spectral) == DEFAULT_FOLDS and None not in spectral
        got = cv_nll_alpha(stats, groups.trivial(100), use_lwnl_sample_term=True).fold_scores
        assert np.isinf(got[:, -1]).all() and np.isfinite(got[:, :-1]).all()
        want = _explicit_fold_scores(data, groups.trivial(100), use_lwnl=True)
        np.testing.assert_allclose(got[:, :-1], want[:, :-1], rtol=1e-12, atol=0)

    def test_an_ill_conditioned_target_keeps_the_whitened_curve(self, monkeypatch):
        # n_train = M at N = 125: R_train's condition number reaches 8e5, past
        # what the spectrum resolves, so those folds reduce K as before
        spectral = _record_curves(monkeypatch, "_spectral_curve")
        reductions = _record_eigen_calls(monkeypatch)
        cv_nll_alpha(_pathway_rows(125), groups.trivial(100), use_lwnl_sample_term=True)
        declined = sum(curve is None for curve in spectral)
        assert declined > 0 and len(reductions) == declined


def _relative_error(got, want):
    return abs(Decimal(got) - want) / abs(want)


def _kappa(a):
    eigs = np.linalg.eigvalsh(a)
    return eigs[-1] / eigs[0]


class TestFortyDigitReference:
    """Disputed cells, where two double-precision routes disagree past 1e-12:
    each route's error against ``_nll_40_digits`` of the same double S and T,
    with the blend's condition number (CHANGES.md tabulates the errors)."""

    def test_lwnl_spectra_near_c_one_each_score_their_own_s(self):
        # N = 124, s = 73, fold 1: 99 training rows, c = 1.01. The LWNL term
        # from the Gram spectrum (the route's) and from the M x M spectrum (the
        # explicit blends') agree to 2.3e-13, yet score alpha = 0 5.3e-11
        # apart; each score is within 4.5e-15 of the 40-digit score of its own S
        data, fold = _pathway_rows(124, draw=73), 1
        test = fold_slices(data.n_obs, DEFAULT_FOLDS)[fold]
        x_train, x_test = np.delete(data.rows, test, axis=0), data.rows[test]
        r_train = second_moment(x_train)
        gram = shrinkage.lwnl_from_covariance(r_train, len(x_train), x_train).matrix
        full = shrinkage.lwnl_from_covariance(r_train, len(x_train)).matrix
        want_gram, want_full = (_nll_40_digits(s.values, s.values, 0.0, x_test)
                                for s in (gram, full))
        route = cv_nll_alpha(data, groups.trivial(100), use_lwnl_sample_term=True)
        explicit = _explicit_fold_scores(data, groups.trivial(100), use_lwnl=True)
        assert _relative_error(route.fold_scores[fold, 0], want_gram) <= Decimal("1e-14")
        assert _relative_error(explicit[fold, 0], want_full) <= Decimal("1e-14")
        assert _relative_error(gaussian_nll_per_sample(gram, second_moment(x_test)),
                               want_gram) <= Decimal("1e-14")
        assert _relative_error(want_gram, want_full) >= Decimal("2e-11")
        assert 1e3 <= _kappa(gram.values) <= 1e4

    def test_trivial_folds_of_m_training_rows_keep_the_curve_whitened_by_s(self, monkeypatch):
        # N = 125, draws 71-73: every fold trains on M rows. On the 14 folds
        # S whitens, the closed form declines T's blends (kappa 6.9e4 to
        # 2.9e7 at alpha = 1) for the curve whitened by S, which is within
        # 8.5e-12 of the 40-digit score there, where the closed form would
        # be up to 1.4e-10 off and the explicit blend up to 4.8e-11
        errors = {"route": [], "closed": [], "explicit": []}
        for draw in (71, 72, 73):
            data, trivial = _pathway_rows(125, draw), groups.trivial(100)
            with monkeypatch.context() as patch:
                spectral = _record_curves(patch, "_spectral_curve")
                route = cv_nll_alpha(data, trivial, use_lwnl_sample_term=True).fold_scores
            with monkeypatch.context() as patch:
                patch.setattr(calibration, "_resolves", lambda kappa: True)
                closed = cv_nll_alpha(data, trivial, use_lwnl_sample_term=True).fold_scores
            explicit = _explicit_fold_scores(data, trivial, use_lwnl=True)
            assert spectral and all(curve is None for curve in spectral)
            for fold, test in enumerate(fold_slices(data.n_obs, DEFAULT_FOLDS)):
                x_train = np.delete(data.rows, test, axis=0)
                r_train = second_moment(x_train)
                s = shrinkage.lwnl_from_covariance(r_train, len(x_train)).matrix
                if not calibration._whitens(s, matrixcore.cholesky(s)):
                    continue   # draw 71, fold 0: every alpha is an explicit blend
                want = _nll_40_digits(s.values, r_train.values, 1.0, data.rows[test])
                for name, scores in (("route", route), ("closed", closed),
                                     ("explicit", explicit)):
                    errors[name].append(_relative_error(scores[fold, -1], want))
                assert 5e4 <= _kappa(r_train.values) <= 5e7
        assert len(errors["route"]) == 14
        assert max(errors["route"]) <= Decimal("3e-11")
        assert max(errors["explicit"]) <= Decimal("1.5e-10")
        assert Decimal("5e-11") <= max(errors["closed"]) <= Decimal("5e-10")


def _record_factorizations(monkeypatch):
    calls, factor = [], matrixcore.lapack.dpotrf
    monkeypatch.setattr(matrixcore.lapack, "dpotrf",
                        lambda a, **kw: calls.append(1) or factor(a, **kw))
    return calls


class TestWhitening:
    """A fold whose sample term S is well conditioned (LWNL at any n_train,
    R_train from n_train >= M rows) whitens every target's curve by S's one
    factor; every other fold factors each distinct target with a nonzero
    residual once. Each explicit score factors its own blend."""

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
        # definite, whitens every curve by its factor; beside these, only the
        # explicit scores factor
        stats, folds = DataStats.of(_pathway_rows(n)), DEFAULT_FOLDS
        calls, explicit = _record_factorizations(monkeypatch), _record_nll_calls(monkeypatch)
        distinct = {id(stats.targets(folds, g)) for g in pathway_decoys.candidates}
        for g in pathway_decoys.candidates:
            cv_nll_alpha(stats, g)
        assert len(calls) == folds * (len(distinct) - 1) + len(explicit)
        for g in pathway_decoys.candidates:
            cv_nll_alpha(stats, g, use_lwnl_sample_term=True)
        assert len(calls) == folds * (len(distinct) - 1) + folds + len(explicit)

    def test_unfactorable_gram_targets_score_no_explicit_blend(self, pathway_decoys,
                                                               monkeypatch):
        # n_train = 40: z2-50-cartesian's target cannot be factored, and on the
        # Gram route each of its alphas > 0 is +inf with no Cholesky of its own
        calls = _record_nll_calls(monkeypatch)
        _, report = bmg.bmg_with_fallback(_pathway_rows(50), pathway_decoys)
        assert len(calls) == 0 and not report.fallback_used

    def test_whitens_rejects_an_ill_conditioned_positive_definite_end(self):
        # kappa = max diag ||L^-1||_F^2 is about 1e6: kappa^2 CURVE_GUARD = 1e4 > 1
        ill, well = (SymmetricMatrix(np.diag([1.0] * 7 + [d])) for d in (1e-6, 1e-3))
        assert not calibration._whitens(ill, matrixcore.cholesky(ill))
        assert calibration._whitens(well, matrixcore.cholesky(well))

    def test_target_failing_the_test_scores_its_fold_explicitly(self, monkeypatch):
        # n_train = M: fold 0's LWNL term and its trivial target (kappa about
        # 2.9e7) both fail _whitens, so the 12 alphas > 0 of that fold are
        # scored on explicit blends and alpha = 0 off S's factor; the other
        # four folds whiten by S
        stats = DataStats.of(_pathway_rows(125))
        calls = _record_nll_calls(monkeypatch)
        cv_nll_alpha(stats, groups.trivial(100), use_lwnl_sample_term=True)
        assert len(calls) == DEFAULT_GRID_POINTS - 1

    def test_lwnl_selection_below_m_scores_explicitly_only_singular_ends(self,
                                                                         pathway_decoys,
                                                                         monkeypatch):
        # n_train = 40: every fold whitens by its LWNL term; only alpha = 1 of a
        # singular target is explicit
        calls = _record_nll_calls(monkeypatch)
        bmg.bmg_with_fallback(_pathway_rows(50), pathway_decoys, use_lwnl=True)
        assert len(calls) <= 2 * DEFAULT_FOLDS

    @pytest.mark.parametrize("n", [125, 126, 130])
    @pytest.mark.parametrize("use_lwnl", [False, True])
    def test_no_explicit_blends_near_full_rank(self, pathway_decoys, n, use_lwnl,
                                               monkeypatch):
        # n_train = M .. 1.04 M: S is whitened only when well-conditioned, and
        # a fold whose S is not (R_train of M or M + 1 rows at N = 125, 126,
        # fold 0's LWNL term at N = 125) reads its alpha = 0 off S's factor
        calls = _record_nll_calls(monkeypatch)
        bmg.bmg_with_fallback(_pathway_rows(n), pathway_decoys, use_lwnl=use_lwnl)
        assert len(calls) == 0

    @pytest.mark.parametrize("n,use_lwnl", [(150, False), (400, False), (150, True)])
    def test_constant_column_whitens_every_curve_by_its_target(self, pathway_decoys, n,
                                                                use_lwnl, monkeypatch):
        # centering zeroes a constant column: R_train is singular at every N and
        # the LWNL term fails the kappa test, so no fold whitens by S, and
        # every alpha = 0 is read off S's factor or is +inf without one
        rows = _pathway_rows(n).rows.copy()
        rows[:, 7] = 0.0
        calls = _record_nll_calls(monkeypatch)
        bmg.bmg_with_fallback(Dataset(rows).center(), pathway_decoys, use_lwnl=use_lwnl)
        assert len(calls) == 0


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
        # block-s4x3's target of 2 training rows has rank 11 of 12, and every
        # blend shares its kernel
        assert finite.any() == ((n_train, g.name) != (2, "block-s4x3"))

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
        for block, fold in zip(fold_slices(20, 4), stats.splits(4)):
            np.testing.assert_array_equal(fold.x_train, np.delete(stats.rows, block, 0))
            np.testing.assert_array_equal(fold.x_test, stats.rows[block])

    # five folds of N = 124 or 249 rows train on 99 and 100, or 199 and 200
    fold_cases = [(20, 16, 4), (20, 15, 4), (40, 6, 4), (3, 100, 3)] + [
        (n, 100, DEFAULT_FOLDS) for n in (50, 99, 100, 124, 125, 199, 200, 249, 250, 2000)]

    @pytest.mark.parametrize("n,m,folds", fold_cases, ids=[f"{n}-{m}" for n, m, _ in fold_cases])
    def test_fold_keeps_test_row_views_and_training_rows_only_below_m(self, n, m, folds,
                                                                       monkeypatch):
        # dof = n_train; X_train is kept iff n_train < M, and R_train
        # is downdated from R_hat, copying no rows, iff n_train >= 2M
        stats, copies, delete = DataStats.of(_rows(n, m, 92)), [], np.delete
        monkeypatch.setattr(np, "delete", lambda *args, **kw: copies.append(1) or delete(
            *args, **kw))
        splits = stats.splits(folds)
        monkeypatch.undo()
        for block, fold in zip(fold_slices(n, folds), splits):
            n_train = n - (block.stop - block.start)
            assert fold.n_train == fold.dof == n_train
            assert np.shares_memory(fold.x_test, stats.rows)
            np.testing.assert_array_equal(fold.r_test.values,
                                          second_moment(stats.rows[block]).values)
            assert (fold.x_train is None) == (n_train >= m)
        assert len(copies) == sum(fold.n_train < 2 * m for fold in splits)


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
        want = sum(not np.array_equal(t.values, fold.r_train.values)
                   for targets in distinct.values()
                   for t, fold in zip(targets, data.splits(folds)))
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

    def test_no_alpha_certified_scores_no_blend(self):
        rng = np.random.default_rng(55)
        k = rng.standard_normal((5, 5))
        k += k.T
        a, b = np.ones(3), np.array([0.25, 0.5, 1.0])
        floor = (a + b * np.linalg.eigvalsh(k)[0]).max() + 1.0   # above every bound
        keep, logdet, trace = calibration._tridiagonal_curve(k, rng.standard_normal((5, 2)),
                                                             a, b, floor)
        np.testing.assert_array_equal(keep, [False] * 3)
        assert logdet.size == trace.size == 0

    @pytest.mark.parametrize("m", [2, 3, 7, calibration.BLOCKED_ORDER + 2])
    def test_kernel_matches_dense_algebra(self, m):
        # from BLOCKED_ORDER dsytrd reduces K blocked, and dormqr applies its
        # reflectors to a wide W
        rng = np.random.default_rng(52 + m)
        k = rng.standard_normal((m, m))
        k += k.T
        k -= (np.linalg.eigvalsh(k)[-1] + 1.0) * np.eye(m)   # spectrum at most -1
        lam_min = np.linalg.eigvalsh(k)[0]
        w = rng.standard_normal((m, 3 if m < calibration.BLOCKED_ORDER else 70))
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
        # no explicit score: the raw term of 12 < M rows is +inf at alpha = 0
        # by rank, and the LWNL term whitens and scores alpha = 0 from its factor
        assert len(calls) == 0
        monkeypatch.setattr(calibration.lapack, "dptsv", lambda d, e, b: (d, e, b, 1))
        for use_lwnl in (False, True):
            calls.clear()
            got = cv_nll_alpha(data, g, use_lwnl_sample_term=use_lwnl).fold_scores
            assert len(calls) == got.size - calibration.DEFAULT_FOLDS
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
                            lambda r, n, rows: calls.append(n) or original(r, n, rows))
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


class TestDegreesOfFreedom:
    """Each centered moment's degrees of freedom are decided once, in
    ``DataStats.dof`` (N - 1) and ``Fold.dof`` (n_train), and every rank rule
    and LWNL call reads them."""

    @pytest.mark.parametrize("n", [2, 3, 50, 124, 125, 2000])
    def test_dof_of_r_hat_and_of_each_fold(self, n):
        stats, folds = DataStats.of(_pathway_rows(n)), min(DEFAULT_FOLDS, n)
        assert stats.dof == n - 1
        if n == 2:   # no fold of 2 rows leaves 2 training rows
            return
        for test, fold in zip(fold_slices(n, folds), stats.splits(folds)):
            assert fold.dof == fold.n_train == n - (test.stop - test.start)

    @pytest.mark.parametrize("n", [124, 125])
    def test_raw_rank_rules_flip_at_dof_m(self, pathway_decoys, n, monkeypatch):
        # five folds of 124 rows train on 99 or 100 rows, of 125 rows on 100
        terms, record = [], calibration.FoldTerm
        monkeypatch.setattr(calibration, "FoldTerm",
                            lambda *args: terms.append(record(*args)) or terms[-1])
        stats = DataStats.of(_pathway_rows(n))
        scores = cv_nll_alpha(stats, pathway_decoys.candidates[0]).fold_scores
        splits = stats.splits(DEFAULT_FOLDS)
        assert sorted({fold.dof for fold in splits}) == ([99, 100] if n == 124 else [100])
        for fold, term, at_zero in zip(splits, terms, scores[:, 0]):
            below = fold.dof < stats.dim
            assert (fold.x_train is not None) == below
            assert math.isinf(term.at_zero) == math.isinf(at_zero) == below

    def test_alpha_one_of_a_centered_fold_of_m_rows_is_singular_by_dof(self, monkeypatch):
        # folds of M training rows centered on their own mean: dof M - 1 makes
        # R_train, the trivial target, singular, though its M rows give LWNL
        # the M x M path, whose spectrum has no null space to read a rank off;
        # the pivot test accepts the explicit alpha = 1 blend on 4 of these 5
        # folds, scoring 2e15 to 7e15, so only the rule on dof keeps them +inf
        data, m = _pathway_rows(125), 100
        rows, centered = data.rows, []
        for test in fold_slices(len(rows), DEFAULT_FOLDS):
            x_train = np.delete(rows, test, axis=0)
            mean = x_train.mean(axis=0)
            x_train, x_test = x_train - mean, rows[test] - mean
            centered.append(calibration.Fold(x_train, x_test, second_moment(x_train),
                                             second_moment(x_test), m, m - 1))
        monkeypatch.setattr(DataStats, "splits", lambda self, folds: centered)
        terms, original = [], shrinkage.lwnl_from_covariance
        monkeypatch.setattr(shrinkage, "lwnl_from_covariance", lambda r, n, rows: terms.append(
            original(r, n, rows)) or terms[-1])
        calls = _record_nll_calls(monkeypatch)
        got = cv_nll_alpha(data, groups.trivial(m), use_lwnl_sample_term=True).fold_scores
        assert [term.spectrum.null for term in terms] == [None] * DEFAULT_FOLDS
        assert len(calls) == 0
        assert np.isinf(got[:, -1]).all() and np.isfinite(got[:, :-1]).all()

    def test_both_lwnl_calls_take_their_moments_dof(self, monkeypatch):
        stats, folds = DataStats.of(_rows(30, 6, 76)), DEFAULT_FOLDS
        calls, original = [], shrinkage.lwnl_from_covariance
        monkeypatch.setattr(shrinkage, "lwnl_from_covariance",
                            lambda r, n, rows: calls.append((r, n)) or original(r, n, rows))
        stats.lwnl
        cv_nll_alpha(stats, groups.cyclic(6), folds=folds, use_lwnl_sample_term=True)
        moments = [(stats.r_hat, stats.dof)] + [(f.r_train, f.dof) for f in stats.splits(folds)]
        assert [(id(r), n) for r, n in calls] == [(id(r), n) for r, n in moments]
        assert [n for _, n in calls] == [29] + [24] * folds


class TestFixedCosts:
    """Work no candidate changes is done once per fold or group: a whitened
    fold's alpha = 0 score is read off its factor, a training moment of at
    least 2M rows is downdated from R_hat, and a group's partition key is
    its partition's label buffer, so each group holds its labels once."""

    @pytest.mark.parametrize("n,m,use_lwnl,kernel", [
        (15, 16, True, "_tridiagonal_curve"), (200, 6, False, "_eigen_curve"),
        (40, 8, True, "_eigen_curve")])
    def test_whitened_alpha_zero_matches_explicit_score(self, n, m, use_lwnl, kernel,
                                                         monkeypatch):
        data, g = _rows(n, m, 66), groups.cyclic(m)
        stats = DataStats.of(data)
        kernel_calls, original = [], getattr(calibration, kernel)
        monkeypatch.setattr(calibration, kernel,
                            lambda *args, **kw: kernel_calls.append(1) or original(*args, **kw))
        calls = _record_nll_calls(monkeypatch)
        got = cv_nll_alpha(stats, g, use_lwnl_sample_term=use_lwnl).fold_scores[:, 0]
        assert calls == [] and len(kernel_calls) == DEFAULT_FOLDS
        want = _explicit_fold_scores(data, g, use_lwnl=use_lwnl)[:, 0]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [250, 2000], ids=["n_train=2M", "N=2000"])
    def test_downdated_training_moment_matches_sliced_rows(self, n, monkeypatch):
        stats, copies, delete = DataStats.of(_pathway_rows(n)), [], np.delete
        monkeypatch.setattr(np, "delete", lambda *args, **kw: copies.append(1) or delete(
            *args, **kw))
        splits = stats.splits(DEFAULT_FOLDS)
        monkeypatch.undo()
        assert copies == []
        for test, fold in zip(fold_slices(n, DEFAULT_FOLDS), splits):
            assert fold.x_train is None and fold.n_train >= 2 * stats.dim
            want = second_moment(np.delete(stats.rows, test, axis=0)).values
            np.testing.assert_allclose(fold.r_train.values, want, rtol=0,
                                       atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("g", [groups.trivial(6), groups.cyclic(6), _alternating_6(),
                                   groups.full_symmetric(6), groups.haar_orthogonal(6)],
                             ids=lambda g: g.name)
    def test_partition_key_is_the_partitions_label_buffer(self, g):
        if g.kind == groups.KIND_HAAR:
            assert calibration._partition_key(g) == g.dim
            return
        part = groups.orbit_partition(g)
        assert calibration._partition_key(g) is part.key
        assert part.sym_class_of.tobytes() == part.key
        assert not part.sym_class_of.flags.writeable
        with pytest.raises(ValueError):
            part.sym_class_of.flags.writeable = True

    def test_partition_keys_equal_exactly_for_equal_partitions(self, pathway_decoys):
        names_of = {}
        for g in pathway_decoys.candidates:
            names_of.setdefault(calibration._partition_key(g), []).append(g.name)
        # only the random subgroup shares a partition: it generates S_100
        assert [names for names in names_of.values() if len(names) > 1] == [
            ["s100", "random-s100-subgroup-seed42"]]
        assert len(names_of) == len(pathway_decoys.candidates) - 1

    def test_partitions_and_keys_hold_one_label_array_per_group(self):
        # M = 400: 20 generator groups of 1.2 MiB of labels each, plus
        # anchors and counts (26.3 MiB), and no second copy of the labels
        # for the key (75.1 MiB with ordered labels and a copied key)
        candidates = synth.pathway_library_with_decoys(400).candidates
        groups.orbit_partition.cache_clear()
        tracemalloc.start()
        try:
            held = [(groups.orbit_partition(g), calibration._partition_key(g))
                    for g in candidates]
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(held) == 20 and retained <= 30 * 2**20


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
