import math

import numpy as np
import pytest

from symcov import calibration, groups, shrinkage, synth
from symcov.bmg import (
    BMGReport,
    CandidateLibrary,
    bmg_with_fallback,
    delta_residual,
    report_fields,
    shah_at_selected,
    tier1_admit,
    tier2_select,
    write_report_csv,
)
from symcov.calibration import cv_nll_alpha
from symcov.matrixcore import (
    Dataset,
    SymmetricMatrix,
    format_row,
    gaussian_nll_per_sample,
    sample_covariance,
)


def small_library(m=4):
    return CandidateLibrary((
        groups.trivial(m),
        groups.transposition(m, 0, 1),
        groups.full_symmetric(m),
    ))


class TestCandidateLibrary:
    def test_unique_names_required(self):
        with pytest.raises(ValueError):
            CandidateLibrary((groups.trivial(3), groups.trivial(3)))


class TestTier1:
    def test_trivial_excluded_at_small_n(self):
        lib = CandidateLibrary((groups.trivial(100), groups.tied_cyclic_blocks(20, 5)))
        admitted = tier1_admit(lib, n=50, m=100, kappa=2.0)
        # 50 * 1 = 50 < 200 but 50 * 20 = 1000 >= 200
        assert "trivial-100" not in admitted
        assert "z20-tied5" in admitted

    def test_boundary_equality_admits(self):
        lib = CandidateLibrary((groups.trivial(1),))
        assert tier1_admit(lib, n=1, m=1, kappa=1.0) == ["trivial-1"]

    def test_monotone_in_kappa(self):
        lib = CandidateLibrary((groups.trivial(10), groups.transposition(10),
                                groups.cyclic(10), groups.full_symmetric(10)))
        prev = None
        for kappa in (1.0, 1.5, 2.0, 3.0, 5.0):
            admitted = set(tier1_admit(lib, n=2, m=10, kappa=kappa))
            if prev is not None:
                assert admitted <= prev
            prev = admitted

    def test_symbolic_orders_admit_through_bound(self):
        g = groups.wreath_shifts(20, 5)  # order 20^5 * 5!, counted only up to the cap
        lib = CandidateLibrary((g,))
        assert tier1_admit(lib, n=50, m=100, kappa=2.0) == [g.name]

    def test_undeclared_order_same_from_file_and_python(self, tmp_path):
        perm = (1, 0, 2, 3, 4, 5)
        path = tmp_path / "swap.grp"
        path.write_text("name=swap\ndim=6\nkind=generator_based\n1,0,2,3,4,5\n")
        from_file = groups.read_group_file(path)
        in_python = groups.GroupAction(name="swap", dim=6, generators=(perm,))
        for n in (5, 6):   # |G| = 2 admits from n = 6 at m = 6, kappa = 2
            assert tier1_admit(CandidateLibrary((from_file,)), n, 6) \
                == tier1_admit(CandidateLibrary((in_python,)), n, 6) \
                == (["swap"] if n == 6 else [])

    @pytest.mark.parametrize("spec,n,m", [
        ("klein:1x4", 2, 4),               # |G| = 2: both flips of one row coincide
        ("grid-dihedral:2x2:col", 2, 4),   # |G| = 2: shift and flip of 2 columns coincide
        ("d4:1", 1, 1),                    # |G| = 1 on a single cell
    ])
    def test_order_is_counted_not_named(self, spec, n, m):
        # groups whose names suggest orders 4, 4 and 8 need N * |G| >= 2M
        # on their true order
        g = groups.parse_group_spec(spec)
        assert tier1_admit(CandidateLibrary((g,)), n=n, m=m, kappa=2.0) == []
        assert tier1_admit(CandidateLibrary((g,)), n=2 * n, m=m, kappa=2.0) == [g.name]

    def test_kappa_below_one_rejected(self):
        with pytest.raises(ValueError):
            tier1_admit(small_library(), 10, 4, kappa=0.5)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan])
    def test_non_finite_kappa_rejected(self, kappa):
        with pytest.raises(ValueError, match="finite"):
            tier1_admit(small_library(), 10, 4, kappa=kappa)


class TestDeltaResidual:
    def test_invariant_matrix_zero(self):
        g = groups.full_symmetric(3)
        sigma = SymmetricMatrix(np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3)))
        assert delta_residual(g, sigma) <= 1e-12

    def test_trivial_group_zero(self):
        rng = np.random.default_rng(60)
        a = rng.standard_normal((4, 4))
        assert delta_residual(groups.trivial(4), SymmetricMatrix(a @ a.T)) == 0.0

    def test_hand_value_full_symmetric(self):
        # R = diag(1, 3) projects to 2 I; residual sqrt(2)/sqrt(10)
        r = SymmetricMatrix(np.diag([1.0, 3.0]))
        got = delta_residual(groups.full_symmetric(2), r)
        assert got == pytest.approx(math.sqrt(2.0 / 10.0), rel=1e-12)

    def test_zero_matrix_is_nan(self):
        # undefined, like the fallback's delta
        assert math.isnan(delta_residual(groups.trivial(2), SymmetricMatrix(np.zeros((2, 2)))))

    @pytest.mark.parametrize("c", [2.0**-600, 1e-200, 1e200])
    def test_scale_free_where_squares_leave_the_float_range(self, c):
        rng = np.random.default_rng(67)
        a = rng.standard_normal((5, 5))
        r = a @ a.T
        want = delta_residual(groups.cyclic(5), SymmetricMatrix(r))
        got = delta_residual(groups.cyclic(5), SymmetricMatrix(r * c))
        # a power of two scales exactly, so delta is bitwise the same
        assert got == want if c == 2.0**-600 else got == pytest.approx(want, rel=1e-12)


class TestTier2:
    def test_trivial_only_library(self):
        rng = np.random.default_rng(61)
        data = Dataset(rng.standard_normal((20, 4))).center()
        lib = CandidateLibrary((groups.trivial(4),))
        report = tier2_select(data, list(lib.candidates))
        assert report.selected == "trivial-4"
        assert report.bmg_margin == 0.0
        assert report.alpha == 0.0  # ties break to the smallest alpha

    def test_margin_nonnegative_and_scores_recorded(self):
        rng = np.random.default_rng(62)
        data = Dataset(rng.standard_normal((24, 4))).center()
        lib = small_library()
        report = tier2_select(data, list(lib.candidates))
        assert report.bmg_margin >= 0.0
        assert set(report.tier2_scores) == {g.name for g in lib.candidates}
        best = min(report.tier2_scores.values())
        assert report.tier2_scores[report.selected] == best

    def test_structural_zero_margin_when_both_calibrate_to_zero(self):
        # strongly mismatched population at large N: two non-trivial
        # candidates both pick alpha = 0, so their blends are the sample
        # covariance and the margin between them is exactly zero.
        sigma = synth.make_population(
            synth.PopulationSpec(m=8, kind=synth.POP_GEOMETRIC, base_seed=5,
                                 geometric_decay=0.5))
        data = synth.sample_gaussian(sigma, 400, (63, 1))
        cands = [groups.grid_translation2d(2, 4), groups.grid_klein(2, 4)]
        report = tier2_select(data, cands)
        assert report.tier2_alphas[cands[0].name] == 0.0
        assert report.tier2_alphas[cands[1].name] == 0.0
        assert report.bmg_margin == 0.0

    def test_determinism_including_tie_break(self):
        rng = np.random.default_rng(64)
        data = Dataset(rng.standard_normal((24, 4))).center()
        lib = small_library()
        a = tier2_select(data, list(lib.candidates))
        b = tier2_select(data, list(lib.candidates))
        assert a == b

    @pytest.mark.parametrize("use_lwnl", [False, True])
    def test_scores_equal_standalone_calibration(self, use_lwnl):
        rng = np.random.default_rng(69)
        data = Dataset(rng.standard_normal((30, 6))).center()
        cands = list(small_library(6).candidates)
        report = tier2_select(data, cands, use_lwnl_sample_term=use_lwnl)
        for g in cands:
            res = cv_nll_alpha(data, g, use_lwnl_sample_term=use_lwnl)
            assert report.tier2_alphas[g.name] == res.alpha
            assert report.tier2_scores[g.name] == res.per_alpha_scores[res.alpha]

    def test_one_cv_nll_alpha_call_per_admitted_candidate(self, monkeypatch):
        data = Dataset(np.random.default_rng(71).standard_normal((30, 6))).center()
        cands = list(small_library(6).candidates)
        called, original = [], calibration.cv_nll_alpha

        def counting(stats, g, *args):
            called.append((stats, g.name))
            return original(stats, g, *args)

        monkeypatch.setattr(calibration, "cv_nll_alpha", counting)
        tier2_select(data, cands)
        assert [name for _, name in called] == [g.name for g in cands]
        assert len({id(stats) for stats, _ in called}) == 1

    def test_lwnl_sample_term_computed_once_per_fold(self, monkeypatch):
        rng = np.random.default_rng(70)
        data = Dataset(rng.standard_normal((30, 6))).center()
        cands = list(small_library(6).candidates)
        calls = []
        original = shrinkage.lwnl_from_covariance

        def counting(r_hat, n_obs, rows):
            calls.append(n_obs)
            return original(r_hat, n_obs, rows)

        monkeypatch.setattr(shrinkage, "lwnl_from_covariance", counting)
        folds = 5
        tier2_select(data, cands, folds=folds, use_lwnl_sample_term=True)
        assert len(calls) == folds

    def test_empty_admitted_rejected(self):
        rng = np.random.default_rng(65)
        data = Dataset(rng.standard_normal((10, 4))).center()
        with pytest.raises(ValueError):
            tier2_select(data, [])


class TestFallback:
    def test_nothing_admitted_falls_back_to_linear_shrinkage(self):
        # N=1, small groups, kappa=2: nothing passes the prefilter
        data = Dataset(np.ones((1, 100))).center()
        lib = CandidateLibrary((groups.trivial(100), groups.transposition(100),
                                groups.cyclic(100)))
        est, report = bmg_with_fallback(data, lib, kappa=2.0)
        assert report.fallback_used
        assert report.selected == ""
        assert est.estimator_name == "lw2004"

    def test_total_on_valid_data(self):
        rng = np.random.default_rng(66)
        for n in (1, 2, 5, 30):
            data = Dataset(rng.standard_normal((n, 6))).center()
            lib = CandidateLibrary((groups.trivial(6), groups.full_symmetric(6)))
            est, report = bmg_with_fallback(data, lib)
            assert est.matrix.dim == 6

    @pytest.mark.parametrize("use_lwnl", [False, True])
    def test_total_on_all_zero_data(self, use_lwnl):
        # a valid centered dataset whose R_hat is the zero matrix
        data = Dataset(np.zeros((10, 6)), centered=True)
        lib = synth.parse_library_spec("trivial:6;s:6;cyclic:6")
        est, report = bmg_with_fallback(data, lib, use_lwnl=use_lwnl)
        assert not report.fallback_used and math.isnan(report.delta)
        np.testing.assert_array_equal(est.matrix.values, np.zeros((6, 6)))

    @pytest.mark.parametrize("c", [2.0**-300, 1e-100, 1e100])
    def test_delta_and_fallback_alpha_scale_free(self, c):
        # the squares of R_hat's entries, and the fourth powers of the rows,
        # leave the float range at these scales
        sigma = synth.block_circulant_population(100, 20, 0.5, 0.1)
        data = synth.sample_gaussian(sigma, 50, (3,))
        scaled = Dataset(data.rows * c, centered=True)
        lib = synth.parse_library_spec("preset:pathway100+decoys")
        (_, want), (_, got) = (bmg_with_fallback(d, lib) for d in (data, scaled))
        assert (got.selected, got.alpha) == (want.selected, want.alpha)
        assert got.delta == pytest.approx(want.delta, rel=1e-12)
        nothing = CandidateLibrary((groups.trivial(100),))   # falls back to LW2004
        (_, want), (_, got) = (bmg_with_fallback(d, nothing) for d in (data, scaled))
        assert got.fallback_used and got.alpha == pytest.approx(want.alpha, rel=1e-12)

    @pytest.mark.parametrize("use_lwnl", [False, True])
    @pytest.mark.parametrize("n", [4, 6])
    def test_selection_scale_free_where_an_inverse_factor_leaves_the_float_range(
            self, n, use_lwnl):
        # at 1e-150 some factor's ||L^-1||_F^2 passes the float range: it
        # reads +inf, which certifies no curve, with no overflow warning
        sigma = synth.block_circulant_population(100, 20, 0.5, 0.1)
        data = synth.sample_gaussian(sigma, n, (1,))
        scaled = Dataset(data.rows * 1e-150, centered=True)
        lib = synth.parse_library_spec("preset:pathway100+decoys")
        (_, want), (_, got) = (bmg_with_fallback(d, lib, use_lwnl=use_lwnl)
                               for d in (data, scaled))
        assert not got.fallback_used
        assert (got.selected, got.alpha) == (want.selected, want.alpha)

    def test_falls_back_exactly_when_no_fold_of_min_k_n_leaves_two_training_rows(self):
        # S_4 passes the prefilter at every N, so only the folds decide
        lib = CandidateLibrary((groups.full_symmetric(4),))
        rng = np.random.default_rng(70)
        for n in range(1, 13):
            data = Dataset(rng.standard_normal((n, 4))).center()
            for k in range(2, 7):
                used = min(k, n)
                infeasible = used < 2 or any(
                    n - (fold.stop - fold.start) < 2 for fold in calibration.fold_slices(n, used))
                _, report = bmg_with_fallback(data, lib, folds=k)
                assert report.fallback_used == infeasible, (n, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    @pytest.mark.parametrize("setting,value", [("folds", 1), ("grid_points", 1),
                                               ("kappa", 0.5)])
    def test_bad_setting_rejected_at_any_n(self, n, setting, value):
        # the fallback path at N <= 2 checks them as Tier 2 does
        data = Dataset(np.random.default_rng(71).standard_normal((n, 4))).center()
        lib = CandidateLibrary((groups.full_symmetric(4),))
        with pytest.raises(ValueError, match="cannot split|at least 2 points|kappa"):
            bmg_with_fallback(data, lib, **{setting: value})

    def test_shah_at_selected_under_fallback_is_haar_projection(self):
        # under fallback the comparator projects through the Haar group of the
        # LW2004 blend; one centered row still gives the zero matrix
        data = Dataset(np.ones((1, 50))).center()
        lib = CandidateLibrary((groups.trivial(50),))
        est, report = bmg_with_fallback(data, lib, kappa=2.0)
        shah = shah_at_selected(data, lib, report)
        assert shah.group_name == "haar-o50"
        np.testing.assert_array_equal(shah.matrix.values, np.zeros((50, 50)))

    def test_shah_at_selected_under_fallback_at_two_rows_is_lw2004(self):
        # two rows center to x and -x: the sample covariance is singular, but
        # its Haar projection is LW2004 pinned to alpha = 1, with finite NLL
        rng = np.random.default_rng(69)
        data = Dataset(rng.standard_normal((2, 20))).center()
        test = Dataset(rng.standard_normal((40, 20))).center()
        lib = CandidateLibrary((groups.trivial(20), groups.cyclic(20)))
        est, report = bmg_with_fallback(data, lib)
        assert report.fallback_used and est.alpha == 1.0
        shah = shah_at_selected(data, lib, report).matrix
        np.testing.assert_array_equal(shah.values, shrinkage.lw2004_auto(data).matrix.values)
        r_test = sample_covariance(test)
        nll = gaussian_nll_per_sample(shah, r_test)
        assert math.isfinite(nll)
        assert nll == gaussian_nll_per_sample(est.matrix, r_test)
        assert math.isinf(gaussian_nll_per_sample(sample_covariance(data), r_test))


class TestReportCsv:
    def test_rows_cover_candidates(self, tmp_path):
        rng = np.random.default_rng(67)
        data = Dataset(rng.standard_normal((24, 4))).center()
        lib = small_library()
        est, report = bmg_with_fallback(data, lib, kappa=1.0)
        path = tmp_path / "report.csv"
        write_report_csv(path, lib, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "candidate,admitted,mean_cv_nll,best_alpha,selected,margin,delta"
        assert len(lines) == 1 + len(lib.candidates)
        selected_rows = [ln for ln in lines[1:] if ln.split(",")[4] == "1"]
        assert len(selected_rows) == 1

    def test_trial_column(self):
        rng = np.random.default_rng(68)
        data = Dataset(rng.standard_normal((24, 4))).center()
        lib = small_library()
        _, report = bmg_with_fallback(data, lib, kappa=1.0)
        rows = [format_row(row) for row in report_fields(lib, report, trial=7)]
        assert all(row.startswith("7,") for row in rows)
