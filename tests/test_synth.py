import math
import sys

import numpy as np
import pytest

from symcov import bmg as bmg_mod
from symcov import calibration, groups, matrixcore, shrinkage, synth
from symcov.bmg import CandidateLibrary, delta_residual, tier1_admit
from symcov.groups import reynolds_project
from symcov.matrixcore import Dataset, SymmetricMatrix, sample_covariance
from symcov.synth import (
    PopulationSpec,
    SweepConfig,
    build_decoy_library,
    estimate_blend_risk,
    estimate_variance_components,
    make_population,
    parse_library_spec,
    parse_sweep_config,
    pathway_library,
    run_mp_verification,
    run_trial_sweep,
    sample_gaussian,
    trial_record_row,
    write_trial_records_csv,
)


class TestPopulations:
    def test_identity_is_exactly_identity(self):
        sigma = make_population(PopulationSpec(m=5, kind=synth.POP_IDENTITY))
        np.testing.assert_array_equal(sigma.values, np.eye(5))

    def test_random_spd_is_spd_and_seeded(self):
        spec = PopulationSpec(m=12, kind=synth.POP_RANDOM_SPD, base_seed=3)
        a = make_population(spec)
        b = make_population(spec)
        np.testing.assert_array_equal(a.values, b.values)
        w = np.linalg.eigvalsh(a.values)
        assert w.min() >= 1e-8 * w.max()

    def test_group_invariant_has_zero_residual(self):
        g = groups.wreath_shifts(4, 3)
        sigma = make_population(PopulationSpec(m=12, kind=synth.POP_GROUP_INVARIANT,
                                               base_seed=4, group=g))
        assert delta_residual(g, sigma) <= 1e-10

    def test_delta_controlled_hits_target(self):
        g = groups.block_symmetric(4, 3)
        spec = PopulationSpec(m=12, kind=synth.POP_DELTA_CONTROLLED, base_seed=5,
                              group=g, target_delta=0.2)
        sigma = make_population(spec)
        measured = delta_residual(g, sigma)
        assert 0.199 <= measured <= 0.201

    @pytest.mark.parametrize("g", [groups.wreath_shifts(8, 4), groups.block_symmetric(4, 3),
                                   groups.cyclic(12), groups.haar_orthogonal(12)],
                             ids=lambda g: g.name)
    @pytest.mark.parametrize("target", [0.05, 0.2, 0.4])
    def test_delta_controlled_lands_on_target(self, g, target):
        sigma = make_population(PopulationSpec(m=g.dim, kind=synth.POP_DELTA_CONTROLLED,
                                               base_seed=6, group=g, target_delta=target))
        assert abs(delta_residual(g, sigma) - target) <= 1e-5

    def test_delta_controlled_fixed_draw_is_finite(self):
        # the trivial group fixes every draw: only delta = 0 is reachable
        g = groups.trivial(6)
        spec = PopulationSpec(m=6, kind=synth.POP_DELTA_CONTROLLED, base_seed=6,
                              group=g, target_delta=0.0)
        sigma = make_population(spec)
        assert np.isfinite(sigma.values).all()
        assert delta_residual(g, sigma) == 0.0
        with pytest.raises(ValueError, match="attainable"):
            make_population(PopulationSpec(m=6, kind=synth.POP_DELTA_CONTROLLED,
                                           base_seed=6, group=g, target_delta=0.1))

    def test_delta_unreachable_reports_range(self):
        g = groups.block_symmetric(4, 3)
        spec = PopulationSpec(m=12, kind=synth.POP_DELTA_CONTROLLED, base_seed=7,
                              group=g, target_delta=0.99)
        with pytest.raises(ValueError, match="attainable"):
            make_population(spec)

    def test_two_block_eigenvalues(self):
        spec = PopulationSpec(m=10, kind=synth.POP_TWO_BLOCK, base_seed=8,
                              two_block_ratio=8.0, two_block_split=0.3)
        w = np.linalg.eigvalsh(make_population(spec).values)
        assert sum(np.isclose(w, 8.0)) == 3
        assert sum(np.isclose(w, 1.0)) == 7

    def test_geometric_eigenvalues(self):
        spec = PopulationSpec(m=6, kind=synth.POP_GEOMETRIC, base_seed=9,
                              geometric_decay=0.5)
        w = np.sort(np.linalg.eigvalsh(make_population(spec).values))[::-1]
        np.testing.assert_allclose(w, 0.5 ** np.arange(6), rtol=1e-10)

    @pytest.mark.parametrize("shape, field", [
        (dict(kind=synth.POP_TWO_BLOCK, two_block_ratio=-3.0), "two_block_ratio"),
        (dict(kind=synth.POP_GEOMETRIC, geometric_decay=0.0), "geometric_decay"),
    ])
    def test_population_not_positive_definite_fails_where_built(self, shape, field):
        spec = PopulationSpec(m=6, base_seed=1, **shape)
        with pytest.raises(ValueError, match="not positive definite") as err:
            make_population(spec)
        assert err.value.fields[0] == field
        config = SweepConfig(population=spec, library=CandidateLibrary((groups.trivial(6),)),
                             n_list=(8,), trials=1)
        with pytest.raises(ValueError, match="not positive definite"):
            next(run_trial_sweep(config))   # before any record, not one error record each

    def test_block_circulant_invariance_and_structure(self):
        sigma = make_population(PopulationSpec(m=20, kind=synth.POP_BLOCK_CIRCULANT,
                                               block_size=5, circulant_rho=0.4,
                                               cross_block=0.05))
        g = groups.wreath_shifts(5, 4)
        assert delta_residual(g, sigma) <= 1e-12
        # not compound-symmetric: the block projection is strictly lossy
        assert delta_residual(groups.block_symmetric(5, 4), sigma) > 0.1


class TestSampler:
    def test_lln_agreement(self):
        sigma = SymmetricMatrix(np.eye(4))
        data = sample_gaussian(sigma, 10000, seed=10)
        r_hat = sample_covariance(data)
        assert np.max(np.abs(r_hat.values - np.eye(4))) < 0.1

    def test_fixed_seed_bitwise_identical(self):
        sigma = make_population(PopulationSpec(m=6, kind=synth.POP_RANDOM_SPD, base_seed=1))
        a = sample_gaussian(sigma, 50, seed=(3, 4))
        b = sample_gaussian(sigma, 50, seed=(3, 4))
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_single_draw_centers_to_zero_row(self):
        sigma = SymmetricMatrix(np.eye(3))
        data = sample_gaussian(sigma, 1, seed=11)
        np.testing.assert_array_equal(data.rows, np.zeros((1, 3)))

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            sample_gaussian(SymmetricMatrix(np.diag([1.0, 0.0])), 5, seed=12)


class TestMonteCarloOracles:
    def test_risk_decomposition_small(self):
        g = groups.grid_translation2d(2, 3)
        sigma = make_population(PopulationSpec(m=6, kind=synth.POP_RANDOM_SPD, base_seed=13))
        b = sigma.values - reynolds_project(g, sigma).values
        bn2 = float(np.sum(b**2))
        alphas = (0.0, 0.5, 1.0)
        risk, risk_se = estimate_blend_risk(sigma, g, 40, alphas, 800, seed=14)
        v_in, v_perp, se_in, se_perp = estimate_variance_components(sigma, g, 40, 800, seed=15)
        for j, a in enumerate(alphas):
            rhs = v_in + (1 - a) ** 2 * v_perp + a**2 * bn2
            tol = 3 * math.sqrt(risk_se[j] ** 2 + se_in**2 + (1 - a) ** 4 * se_perp**2)
            assert abs(risk[j] - rhs) <= tol

    def test_dominance_condition_and_ordering(self):
        # small structural residual: the matched-side quantity is below the
        # identity-target quantity, and the realized MSE ordering agrees.
        haar = groups.haar_orthogonal(12)
        g = groups.wreath_shifts(4, 3)
        n = 48
        for cfg in range(5):
            base = make_population(PopulationSpec(m=12, kind=synth.POP_RANDOM_SPD,
                                                  base_seed=200 + cfg))
            proj = reynolds_project(g, base).values
            resid = base.values - proj
            resid *= 0.05 / max(np.linalg.norm(resid, "fro"), 1e-12)
            sigma = SymmetricMatrix(proj + resid)
            d_g = float(np.sum((sigma.values - reynolds_project(g, sigma).values) ** 2))
            d_lw = float(np.sum((sigma.values - reynolds_project(haar, sigma).values) ** 2))
            vin_g, vperp_g, _, _ = estimate_variance_components(sigma, g, n, 500, seed=300 + cfg)
            vin_l, vperp_l, _, _ = estimate_variance_components(sigma, haar, n, 500, seed=400 + cfg)
            lhs = vin_g + vperp_g * d_g / (vperp_g + d_g)
            rhs = vin_l + vperp_l * d_lw / (vperp_l + d_lw)
            assert lhs < rhs
            # realized risks at the respective optimal alphas
            a_g = vperp_g / (vperp_g + d_g)
            a_l = vperp_l / (vperp_l + d_lw)
            risk_g, _ = estimate_blend_risk(sigma, g, n, [a_g], 500, seed=500 + cfg)
            risk_l, _ = estimate_blend_risk(sigma, haar, n, [a_l], 500, seed=600 + cfg)
            assert risk_g[0] < risk_l[0]


class TestMpVerification:
    def test_geometric_prials_close(self):
        spec = PopulationSpec(m=64, kind=synth.POP_GEOMETRIC, base_seed=3,
                              geometric_decay=0.95)
        rows = run_mp_verification(0.25, spec, trials=50, base_seed=7)
        prial = {r["estimator"]: r["prial"] for r in rows}
        assert abs(prial["lwnl"] - prial["lw2004"]) <= 5.0

    def test_one_population_root_per_call(self, monkeypatch):
        roots = []
        symmetric_root = synth._symmetric_root
        monkeypatch.setattr(synth, "_symmetric_root",
                            lambda sigma: roots.append(1) or symmetric_root(sigma))
        run_mp_verification(0.5, PopulationSpec(m=8, kind=synth.POP_IDENTITY), 12)
        assert len(roots) == 1

    def test_bad_concentration_rejected(self):
        spec = PopulationSpec(m=8, kind=synth.POP_IDENTITY)
        # c = 8 leaves one row at m = 8
        for c in (0.0, -0.5, math.inf, math.nan, 8.0):
            with pytest.raises(ValueError):
                run_mp_verification(c, spec, 10)
        with pytest.raises(ValueError):
            run_mp_verification(0.5, spec, 5)

    @pytest.mark.parametrize("c", [1.5, 2.0])
    @pytest.mark.parametrize("spec", [
        PopulationSpec(m=64, kind=synth.POP_IDENTITY, base_seed=3),
        PopulationSpec(m=64, kind=synth.POP_TWO_BLOCK, base_seed=3, two_block_ratio=10.0,
                       two_block_split=0.2),
    ], ids=lambda spec: spec.kind)
    def test_lwnl_beats_the_singular_sample_covariance_above_c_one(self, spec, c):
        # N = M / c rows: the p > n branch of LWNL
        rows = {r["estimator"]: r for r in run_mp_verification(c, spec, trials=20, base_seed=7)}
        assert rows["lwnl"]["prial"] > 3.0 * rows["lwnl"]["se"]


class TestDecoyLibrary:
    def test_twelve_decoys_with_fixed_seeds(self):
        decoys = build_decoy_library(100, 20)
        assert len(decoys) == 12
        names = [g.name for g in decoys]
        assert len(set(names)) == 12
        for seed in (1, 2, 3):
            assert f"random-block-s20x5-seed{seed}" in names
        assert "random-block-s10x10-seed11" in names
        assert "random-block-s4x25-seed12" in names
        assert "random-block-s50x2-seed13" in names
        assert "z100-flat" in names
        assert "z20-5-cartesian-random-seed21" in names
        assert "z2-50-cartesian" in names
        assert "z5-wr-s20-seed31" in names
        assert "z2-wr-s50-seed32" in names
        assert "random-s100-subgroup-seed42" in names

    def test_all_decoys_pass_tier1(self):
        lib = CandidateLibrary(tuple(build_decoy_library(100, 20)))
        assert len(tier1_admit(lib, n=50, m=100, kappa=2.0)) == 12

    def test_decoy_projections_are_projections(self):
        rng = np.random.default_rng(70)
        a = SymmetricMatrix(rng.standard_normal((100, 100)))
        for g in build_decoy_library(100, 20):
            p1 = reynolds_project(g, a)
            p2 = reynolds_project(g, p1)
            np.testing.assert_allclose(p1.values, p2.values, atol=1e-12)

    def test_reproducible(self):
        a = build_decoy_library(100, 20)
        b = build_decoy_library(100, 20)
        for ga, gb in zip(a, b):
            assert ga.generators == gb.generators


class TestLibraryPresets:
    def test_pathway_library_shape(self):
        lib = pathway_library(100, 20)
        assert len(lib.candidates) == 8
        assert lib.candidates[0] == groups.trivial(100)
        assert lib.candidates[1].name == "s100"

    def test_parse_presets_and_lists(self):
        assert len(parse_library_spec("preset:pathway100").candidates) == 8
        assert len(parse_library_spec("preset:pathway100+decoys").candidates) == 20
        assert len(parse_library_spec("preset:grid8").candidates) == 8
        lib = parse_library_spec("trivial:6;cyclic:6")
        assert [g.name for g in lib.candidates] == ["trivial-6", "z6-flat"]

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            parse_library_spec("preset:nope")


def tiny_sweep_config(**overrides):
    kwargs = dict(
        population=PopulationSpec(m=6, kind=synth.POP_BLOCK_CIRCULANT, block_size=3,
                                  circulant_rho=0.4, cross_block=0.05),
        library=CandidateLibrary((groups.trivial(6), groups.block_symmetric(3, 2),
                                  groups.wreath_shifts(3, 2))),
        n_list=(16, 24),
        n_test=40,
        trials=3,
        folds=4,
        grid_points=5,
        base_seed=9,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


class TestTrialSweep:
    def test_deterministic_across_thread_counts(self):
        config = tiny_sweep_config()
        serial = [trial_record_row(r) for r in run_trial_sweep(config, threads=1)]
        threaded = [trial_record_row(r) for r in run_trial_sweep(config, threads=4)]
        assert serial == threaded

    def test_record_count_and_pairing(self):
        config = tiny_sweep_config()
        records = list(run_trial_sweep(config))
        assert len(records) == len(config.n_list) * config.trials
        for rec in records:
            assert rec.error is None
            # paired-splits contract: every estimator scored in this trial
            assert set(rec.nll) == set(config.estimators)
            assert rec.choice_agree is not None

    def test_estimator_toggles(self):
        config = tiny_sweep_config(estimators=("sample", "lw2004"))
        rec = next(iter(run_trial_sweep(config)))
        assert set(rec.nll) == {"sample", "lw2004"}
        assert rec.ad is None

    def test_sample_nll_matches_recomputation(self):
        # the recorded score is reproducible from the trial's seeded draws
        config = tiny_sweep_config(estimators=("sample",))
        rec = next(iter(run_trial_sweep(config)))
        sigma = make_population(config.population)
        train = sample_gaussian(sigma, config.n_list[0], (config.base_seed, 0, 0, 0))
        test = sample_gaussian(sigma, config.n_test, (config.base_seed, 0, 0, 1))
        from symcov.matrixcore import gaussian_nll_per_sample
        want = gaussian_nll_per_sample(sample_covariance(train), sample_covariance(test))
        assert rec.nll["sample"] == want

    def test_per_trial_failures_recorded_not_raised(self, monkeypatch):
        # force a genuine estimator failure: the record carries the message
        # and the sweep keeps going
        import symcov.shrinkage as shr

        def boom(data):
            raise RuntimeError("forced failure")
        monkeypatch.setattr(shr, "lwnl", boom)
        config = tiny_sweep_config(trials=1)
        records = list(run_trial_sweep(config))
        assert len(records) == len(config.n_list)
        assert all("forced failure" in r.error for r in records)

    def test_degenerate_test_set_scores_without_error(self):
        # n_test=1 centers to the zero row, so the test covariance is the
        # zero matrix; scoring still proceeds (the trace term vanishes)
        config = tiny_sweep_config(n_list=(16,), n_test=1, trials=1,
                                   estimators=("sample", "lw2004"))
        rec = next(iter(run_trial_sweep(config)))
        assert rec.error is None
        assert all(math.isfinite(v) for v in rec.nll.values())

    def test_one_and_two_rows_keep_the_record(self):
        # N = 1: LWNL is undefined and left empty, every other estimator is
        # scored; N = 2: LW2004 pins alpha = 1, so it and the BMG fallbacks
        # built on it score a finite held-out NLL
        config = tiny_sweep_config(n_list=(1, 2), trials=2)
        for rec in run_trial_sweep(config):
            row = dict(zip(synth.TRIAL_CSV_COLUMNS, trial_record_row(rec).split(",")))
            assert row["error"] == ""
            assert rec.ad.fallback_used and rec.ad_lwnl.fallback_used
            if rec.cell_n == 1:
                assert row["nll_lwnl"] == row["frob_lwnl"] == ""
                assert set(rec.nll) == set(config.estimators) - {"lwnl"}
            else:
                assert set(rec.nll) == set(config.estimators)
                for name in ("lw2004", "ad_bmg", "ad_lwnl_bmg"):
                    assert math.isfinite(rec.nll[name]), name

    def test_csv_round_shape(self, tmp_path):
        config = tiny_sweep_config(trials=2)
        path = tmp_path / "sweep.csv"
        write_trial_records_csv(path, run_trial_sweep(config))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * len(config.n_list)
        assert lines[0].startswith("cell_n,trial,seed,nll_sample")


@pytest.fixture(scope="module")
def pathway_decoys():
    return parse_library_spec("preset:pathway100+decoys")


def _bmg_trial_config(library, n):
    return SweepConfig(
        population=PopulationSpec(m=100, kind=synth.POP_BLOCK_CIRCULANT, block_size=20),
        library=library, n_list=(n,), n_test=50, trials=1, base_seed=12,
        estimators=("ad_bmg", "ad_lwnl_bmg"))


class TestTrialFoldSharing:
    """One sweep trial hands one calibration.DataStats to both BMG
    selections."""

    @pytest.mark.parametrize("n", [50, 400])
    def test_shared_selections_equal_standalone_calls(self, pathway_decoys, monkeypatch, n):
        original = bmg_mod.bmg_with_fallback
        calls = []

        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result

        monkeypatch.setattr(bmg_mod, "bmg_with_fallback", capturing)
        (record,) = run_trial_sweep(_bmg_trial_config(pathway_decoys, n))
        assert record.error is None
        assert [kw["use_lwnl"] for _, kw, _ in calls] == [False, True]
        train = calls[0][0][0]
        assert isinstance(train, calibration.DataStats) and calls[1][0][0] is train
        for (args, kwargs, (est, report)), recorded in zip(calls, (record.ad, record.ad_lwnl)):
            plain = Dataset(train.rows, train.centered)
            alone_est, alone = original(plain, *args[1:], use_lwnl=kwargs["use_lwnl"])
            assert recorded == report == alone
            assert np.array_equal(est.matrix.values, alone_est.matrix.values)

    def test_each_fold_target_projected_and_factored_once(self, pathway_decoys, monkeypatch):
        projections, factorizations = [], []
        project, factor = calibration.reynolds_project, calibration.lapack.dpotrf
        monkeypatch.setattr(calibration, "reynolds_project",
                            lambda g, a: projections.append(1) or project(g, a))
        monkeypatch.setattr(calibration.lapack, "dpotrf",
                            lambda a, **kw: factorizations.append(1) or factor(a, **kw))
        config = _bmg_trial_config(pathway_decoys, 400)
        (record,) = run_trial_sweep(config)
        assert record.error is None and record.ad_lwnl is not None
        admitted = [pathway_decoys.by_name(name) for name in record.ad.tier1_admitted]
        distinct = {groups.orbit_partition(g).sym_class_of.tobytes() for g in admitted}
        assert len(distinct) < len(admitted) == len(pathway_decoys.candidates)
        assert len(projections) == config.folds * len(distinct)
        # every fold has n_train >= M rows: one factor of each sample term whitens it
        assert len(factorizations) == config.folds * 2


def _record_calls(monkeypatch, module, name):
    """Wrap ``module.name`` under every symcov module attribute bound to it
    and return the list its calls' arguments are appended to."""
    original, calls = getattr(module, name), []

    def recording(*args):
        calls.append(args)
        return original(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("symcov.") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, recording)
    return calls


class TestTrialStatistics:
    """One sweep record forms the training R_hat once and its LWNL once."""

    @pytest.mark.parametrize("n, k", [(40, 5), (2, 0)])   # N = 2 falls back: no folds
    def test_each_statistic_formed_once_per_record(self, monkeypatch, n, k):
        moments = _record_calls(monkeypatch, matrixcore, "second_moment")
        lwnl_inputs = _record_calls(monkeypatch, shrinkage, "lwnl_from_covariance")
        config = SweepConfig(
            population=PopulationSpec(m=20, kind=synth.POP_BLOCK_CIRCULANT, block_size=5),
            library=pathway_library(20, 5), n_list=(n,), n_test=30, trials=1)
        (record,) = run_trial_sweep(config)
        assert record.error is None and set(record.nll) == set(synth.ESTIMATOR_ORDER)
        assert (record.ad.fallback_used, record.ad_lwnl.fallback_used) == (k == 0, k == 0)
        # the training R_hat, the test covariance, and k training/held-out pairs
        assert len(moments) == 2 * k + 2
        # the training R_hat's, then one per fold sample term
        assert len(lwnl_inputs) == k + 1
        assert len({(r.values.tobytes(), n_obs) for r, n_obs in lwnl_inputs}) == k + 1


class TestSweepConfigFile:
    def test_parse_round_trip(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# demo sweep\n"
            "m = 12\n"
            "population = block_circulant\n"
            "block_size = 4\n"
            "circulant_rho = 0.4\n"
            "cross_block = 0.05\n"
            "library = trivial:12;block:4x3;wreath:4x3\n"
            "n_list = 20,30\n"
            "n_test = 50\n"
            "trials = 2\n"
            "folds = 4\n"
            "grid_points = 5\n"
            "base_seed = 17\n"
            "estimators = sample,lw2004,ad_bmg\n"
        )
        config = parse_sweep_config(cfg)
        assert config.population.kind == synth.POP_BLOCK_CIRCULANT
        assert config.n_list == (20, 30)
        assert config.estimators == ("sample", "lw2004", "ad_bmg")
        records = list(run_trial_sweep(config))
        assert len(records) == 4

    def test_missing_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("population = identity\n")
        with pytest.raises(ValueError):
            parse_sweep_config(cfg)

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("m = 4\nnot a key value line\n")
        with pytest.raises(ValueError):
            parse_sweep_config(cfg)
