import subprocess
import sys

import numpy as np
import pytest

from symcov import bmg as bmg_mod
from symcov import groups, synth
from symcov.cli import main
from symcov.matrixcore import (
    Dataset,
    SymmetricMatrix,
    read_matrix_csv,
    write_dataset_csv,
    write_matrix_csv,
)
from symcov.shrinkage import read_estimator_csv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def identity_csv(tmp_path):
    path = tmp_path / "ident.csv"
    write_matrix_csv(path, SymmetricMatrix(np.eye(3)))
    return path


@pytest.fixture
def dataset_csv(tmp_path):
    rng = np.random.default_rng(80)
    data = Dataset(rng.standard_normal((30, 4))).center()
    path = tmp_path / "data.csv"
    write_dataset_csv(path, data)
    return path


class TestProject:
    def test_identity_through_any_group(self, tmp_path, identity_csv):
        out = tmp_path / "out.csv"
        assert run_cli("project", "--matrix", str(identity_csv),
                       "--group", "cyclic:3", "--out", str(out)) == 0
        np.testing.assert_allclose(read_matrix_csv(out).values, np.eye(3), atol=1e-15)

    def test_haar_trace_six(self, tmp_path):
        src = tmp_path / "m.csv"
        write_matrix_csv(src, SymmetricMatrix(np.diag([1.0, 2.0, 3.0])))
        out = tmp_path / "p.csv"
        assert run_cli("project", "--matrix", str(src), "--group", "haar:3",
                       "--out", str(out)) == 0
        np.testing.assert_array_equal(read_matrix_csv(out).values, 2.0 * np.eye(3))

    def test_file_level_idempotence(self, tmp_path):
        rng = np.random.default_rng(81)
        src = tmp_path / "m.csv"
        write_matrix_csv(src, SymmetricMatrix(rng.standard_normal((6, 6))))
        once = tmp_path / "once.csv"
        twice = tmp_path / "twice.csv"
        run_cli("project", "--matrix", str(src), "--group", "block:3x2", "--out", str(once))
        run_cli("project", "--matrix", str(once), "--group", "block:3x2", "--out", str(twice))
        assert once.read_text() == twice.read_text()

    def test_group_file_input(self, tmp_path, identity_csv):
        gpath = tmp_path / "g.grp"
        groups.write_group_file(gpath, groups.cyclic(3))
        out = tmp_path / "o.csv"
        assert run_cli("project", "--matrix", str(identity_csv),
                       "--group", str(gpath), "--out", str(out)) == 0

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("project", "--matrix", str(tmp_path / "nope.csv"),
                       "--group", "trivial:3", "--out", str(tmp_path / "o.csv")) == 4

    def test_nan_matrix_is_config_error_naming_line(self, tmp_path, capsys):
        src = tmp_path / "nan.csv"
        src.write_text("2\n1.0,nan\nnan,1.0\n")
        assert run_cli("project", "--matrix", str(src), "--group", "cyclic:2",
                       "--out", str(tmp_path / "out.csv")) == 2
        assert f"{src}:2:" in capsys.readouterr().err

    def test_bad_group_spec_is_config_error(self, tmp_path, identity_csv):
        assert run_cli("project", "--matrix", str(identity_csv),
                       "--group", "bogus:3", "--out", str(tmp_path / "o.csv")) == 2

    def test_bad_header_is_config_error_naming_line(self, tmp_path, capsys):
        src = tmp_path / "hdr.csv"
        src.write_text("x\n1.0\n")
        assert run_cli("project", "--matrix", str(src), "--group", "trivial:1",
                       "--out", str(tmp_path / "out.csv")) == 2
        assert f"{src}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,line", [
        ("name=z3\ndim=3\nkind=generator_based\n1,x,0\n", 4),
        ("name=z3\ndim=x\nkind=generator_based\n1,2,0\n", 2),
        ("name=z3\ndim=3\nkind=generator_based\n0,0,1\n", 4),
        ("name=z3\ndim=3\nkind=generator\n1,2,0\n", 3),
        ("name=s3\ndim=3\nkind=full_symmetric\n1,2,0\n", 4),
        ("name=h3\ndim=3\nkind=haar_orthogonal\n1,2,0\n", 4),
    ], ids=["generator", "dim", "not-a-permutation", "unknown-kind",
            "legacy-kind-generator", "haar-generator"])
    def test_bad_group_file_integer_is_config_error_naming_line(self, tmp_path, identity_csv,
                                                                 capsys, text, line):
        gpath = tmp_path / "g.grp"
        gpath.write_text(text)
        assert run_cli("project", "--matrix", str(identity_csv),
                       "--group", str(gpath), "--out", str(tmp_path / "o.csv")) == 2
        assert f"{gpath}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("name=z4\ndim=4\ndim=3\nkind=generator_based\n1,2,0\n", ":3: group field 'dim'"),
        ("name=a\nname=b\ndim=3\nkind=trivial\n", ":2: group field 'name'"),
        ("name=z3\ndim=3\nkind=generator_based\nkind=haar_orthogonal\n",
         ":4: group field 'kind'"),
        ("name=blocks,3\ndim=3\nkind=trivial\n", ":1: group name 'blocks,3' contains a comma"),
    ], ids=["dim", "name", "kind", "comma-name"])
    def test_repeated_field_or_comma_name_is_config_error_naming_line(
            self, tmp_path, identity_csv, capsys, text, message):
        gpath = tmp_path / "g.grp"
        gpath.write_text(text)
        out = tmp_path / "o.csv"
        assert run_cli("project", "--matrix", str(identity_csv),
                       "--group", str(gpath), "--out", str(out)) == 2
        assert f"{gpath}{message}" in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    def test_every_estimator_writes_parseable_output(self, tmp_path, dataset_csv):
        for name, extra in (
            ("sample", []),
            ("lw2004", ["--alpha", "0.5"]),
            ("lw2004", []),
            ("lwnl", []),
            ("shah", ["--group", "block:2x2"]),
            ("ad", ["--group", "block:2x2", "--alpha", "0.25"]),
            ("ad", ["--group", "block:2x2", "--auto-alpha", "cv"]),
            ("ad-lwnl", ["--group", "block:2x2", "--alpha", "0.25"]),
        ):
            out = tmp_path / f"{name}{len(extra)}.csv"
            code = run_cli("estimate", "--data", str(dataset_csv), "--estimator",
                           name, "--out", str(out), *extra)
            assert code == 0
            res = read_estimator_csv(out)
            assert res.matrix.dim == 4

    def test_blend_without_alpha_is_config_error(self, tmp_path, dataset_csv):
        assert run_cli("estimate", "--data", str(dataset_csv), "--estimator", "ad",
                       "--group", "block:2x2", "--out", str(tmp_path / "o.csv")) == 2

    def test_eigensolver_failure_is_numerical_error(self, tmp_path, dataset_csv,
                                                    monkeypatch):
        def boom(values):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        assert run_cli("estimate", "--data", str(dataset_csv), "--estimator", "lwnl",
                       "--out", str(tmp_path / "o.csv")) == 3

    @pytest.mark.parametrize("name,extra,flag", [
        ("ad", ["--group", "block:2x2", "--alpha", "0.25", "--auto-alpha", "cv"],
         "--auto-alpha"),
        ("shah", ["--group", "block:2x2", "--auto-alpha", "mse"], "--auto-alpha"),
        ("sample", ["--auto-alpha", "cv"], "--auto-alpha"),
        ("sample", ["--alpha", "0.5"], "--alpha"),
        ("lwnl", ["--alpha", "0"], "--alpha"),
        ("shah", ["--group", "block:2x2", "--alpha", "0.5"], "--alpha"),
        ("sample", ["--group", "block:2x2"], "--group"),
        ("lwnl", ["--group", "block:2x2"], "--group"),
        ("lw2004", ["--group", "block:2x2", "--alpha", "0.5"], "--group"),
    ])
    def test_unread_flag_is_config_error_naming_it(self, tmp_path, dataset_csv, capsys,
                                                   name, extra, flag):
        out = tmp_path / "o.csv"
        assert run_cli("estimate", "--data", str(dataset_csv), "--estimator", name,
                       "--out", str(out), *extra) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_mse_auto_alpha_builds_no_grid(self, tmp_path, dataset_csv):
        assert run_cli("estimate", "--data", str(dataset_csv), "--estimator", "ad",
                       "--group", "block:2x2", "--auto-alpha", "mse", "--grid-points", "1",
                       "--out", str(tmp_path / "o.csv")) == 0

    def test_short_estimator_metadata_names_line(self, tmp_path):
        # no subcommand reads estimator CSVs; the reader is checked directly
        path = tmp_path / "est.csv"
        path.write_text("sample,,\n1\n1.0\n")
        with pytest.raises(ValueError, match=f"{path}:1: expected 4 metadata fields"):
            read_estimator_csv(path)


class TestCalibrate:
    def test_mse_and_cv(self, tmp_path, dataset_csv, capsys):
        assert run_cli("calibrate", "--data", str(dataset_csv),
                       "--group", "block:2x2", "--method", "mse") == 0
        assert "alpha=" in capsys.readouterr().out
        trace = tmp_path / "trace.csv"
        assert run_cli("calibrate", "--data", str(dataset_csv), "--group", "block:2x2",
                       "--method", "cv", "--folds", "3", "--grid-points", "5",
                       "--trace", str(trace)) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "fold,alpha,nll"
        assert len(lines) == 1 + 3 * 5

    def test_one_grid_point_is_config_error(self, dataset_csv):
        assert run_cli("calibrate", "--data", str(dataset_csv), "--group", "block:2x2",
                       "--method", "cv", "--grid-points", "1") == 2

    @pytest.mark.parametrize("extra,flag", [(["--use-lwnl"], "--use-lwnl"),
                                            (["--trace", "TRACE"], "--trace")])
    def test_mse_with_cv_only_flag_is_config_error_naming_it(self, tmp_path, dataset_csv,
                                                              capsys, extra, flag):
        extra = [str(tmp_path / "trace.csv") if a == "TRACE" else a for a in extra]
        assert run_cli("calibrate", "--data", str(dataset_csv), "--group", "block:2x2",
                       "--method", "mse", *extra) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


class TestBmg:
    def test_report_and_estimator_outputs(self, tmp_path, dataset_csv):
        report = tmp_path / "report.csv"
        est = tmp_path / "est.csv"
        code = run_cli("bmg", "--data", str(dataset_csv),
                       "--library", "trivial:4;block:2x2;full-symmetric:4",
                       "--kappa", "1.0", "--report", str(report),
                       "--estimator-out", str(est))
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 4
        assert read_estimator_csv(est).matrix.dim == 4

    def test_one_row_dataset_falls_back_with_exit_zero(self, tmp_path):
        data_path = tmp_path / "one.csv"
        write_dataset_csv(data_path, Dataset(np.ones((1, 8))).center())
        report = tmp_path / "report.csv"
        code = run_cli("bmg", "--data", str(data_path), "--library",
                       "trivial:8;block:4x2", "--report", str(report))
        assert code == 0
        body = report.read_text()
        assert "candidate," in body

    def test_one_grid_point_is_config_error(self, tmp_path, dataset_csv):
        assert run_cli("bmg", "--data", str(dataset_csv), "--library", "trivial:4;s:4",
                       "--grid-points", "1", "--report", str(tmp_path / "r.csv")) == 2

    def test_one_token_header_is_config_error_naming_line(self, tmp_path, capsys):
        data_path = tmp_path / "hdr.csv"
        data_path.write_text("5\n1.0,2.0\n")
        assert run_cli("bmg", "--data", str(data_path), "--library", "trivial:2;s:2",
                       "--report", str(tmp_path / "report.csv")) == 2
        assert f"{data_path}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["inf", "1x"])
    def test_bad_value_is_config_error_naming_line(self, tmp_path, capsys, token):
        data_path = tmp_path / "bad.csv"
        data_path.write_text(f"3,2\n1.0,2.0\n-1.0,{token}\n0.0,-2.0\n")
        assert run_cli("bmg", "--data", str(data_path), "--library", "trivial:2;s:2",
                       "--report", str(tmp_path / "report.csv")) == 2
        assert f"{data_path}:3:" in capsys.readouterr().err

    def test_library_directory(self, tmp_path, dataset_csv):
        libdir = tmp_path / "lib"
        libdir.mkdir()
        groups.write_group_file(libdir / "a.grp", groups.trivial(4))
        groups.write_group_file(libdir / "b.grp", groups.block_symmetric(2, 2))
        report = tmp_path / "report.csv"
        assert run_cli("bmg", "--data", str(dataset_csv), "--library", str(libdir),
                       "--kappa", "1.0", "--report", str(report)) == 0

    def test_comma_in_group_name_is_config_error(self, tmp_path, dataset_csv, capsys):
        lib = tmp_path / "lib"
        lib.mkdir()
        groups.write_group_file(lib / "a.grp", groups.cyclic(4))
        (lib / "b.grp").write_text("name=blocks,20\ndim=4\nkind=trivial\n")
        report = tmp_path / "report.csv"
        assert run_cli("bmg", "--data", str(dataset_csv), "--library", str(lib),
                       "--report", str(report)) == 2
        assert f"{lib / 'b.grp'}:1:" in capsys.readouterr().err
        assert not report.exists()


class TestVerifyLwnl:
    def test_summary_row_written(self, tmp_path):
        out = tmp_path / "prial.csv"
        code = run_cli("verify-lwnl", "--c", "0.5", "--m", "16", "--trials", "10",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "estimator,prial,se,mean_err,mean_err_sample,trials"
        assert len(lines) == 3

    def test_unset_shape_flags_take_population_spec_defaults(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(synth, "run_mp_verification",
                            lambda c, spec, trials, base_seed: specs.append(spec) or [])
        for extra in ([], ["--geometric-decay", "0.5"]):
            assert run_cli("verify-lwnl", "--c", "0.5", "--m", "16", "--population",
                           synth.POP_GEOMETRIC, "--seed", "3",
                           "--out", str(tmp_path / "p.csv"), *extra) == 0
        assert specs == [
            synth.PopulationSpec(16, synth.POP_GEOMETRIC, 3),
            synth.PopulationSpec(16, synth.POP_GEOMETRIC, 3, geometric_decay=0.5),
        ]

    @pytest.mark.parametrize("population, flag", [
        (synth.POP_IDENTITY, "--geometric-decay"),
        (synth.POP_IDENTITY, "--two-block-ratio"),
        (synth.POP_RANDOM_SPD, "--two-block-split"),
        (synth.POP_GEOMETRIC, "--two-block-ratio"),
        (synth.POP_TWO_BLOCK, "--geometric-decay"),
    ])
    def test_unread_shape_flag_is_config_error_naming_it(self, tmp_path, capsys,
                                                         population, flag):
        out = tmp_path / "p.csv"
        assert run_cli("verify-lwnl", "--c", "0.5", "--m", "16", "--population", population,
                       flag, "0.5", "--trials", "10", "--out", str(out)) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


SWEEP_CFG = """
m = 6
population = block_circulant
block_size = 3
circulant_rho = 0.4
cross_block = 0.05
library = trivial:6;block:3x2;wreath:3x2
n_list = 16,24
n_test = 40
trials = 2
folds = 4
grid_points = 5
base_seed = 9
"""


def sweep_cfg_with(line):
    """SWEEP_CFG with ``line`` in place of the line setting the same key."""
    key = line.split("=")[0].strip()
    kept = [ln for ln in SWEEP_CFG.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


class TestSweepAndDecoy:
    def test_sweep_row_count(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "records.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # cells x trials

    @pytest.mark.parametrize("key", ["folds", "grid_points"])
    def test_sweep_single_fold_or_grid_point_is_config_error(self, tmp_path, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(sweep_cfg_with(f"{key} = 1"))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 2

    @pytest.mark.parametrize("line, key", [("kappa = 0.5", "kappa"), ("n_list = 16,0", "n_list"),
                                           ("n_test = 0", "n_test"),
                                           ("library = preset:grid8", "library")])
    def test_sweep_config_failing_every_trial_is_config_error(self, tmp_path, capsys,
                                                              line, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(sweep_cfg_with(line))
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "decoy"])
    @pytest.mark.parametrize("line, message", [
        ("populaton = identity", ":14: config key 'populaton' unknown"),
        ("trials = 3", ":14: config key 'trials' given twice"),
    ])
    def test_unknown_or_repeated_key_is_config_error_naming_it(self, tmp_path, capsys,
                                                               command, line, message):
        # SWEEP_CFG has 13 lines, its first blank, so the added line is line 14
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG + line + "\n")
        out = tmp_path / "o.csv"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}{message}" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_deterministic_under_threads(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(a), "--threads", "1") == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(b), "--threads", "4") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_decoy_outputs(self, tmp_path):
        cfg = tmp_path / "decoy.cfg"
        cfg.write_text(
            "m = 6\n"
            "population = block_circulant\n"
            "block_size = 3\n"
            "circulant_rho = 0.4\n"
            "cross_block = 0.05\n"
            "library = trivial:6;block:3x2;wreath:3x2;random-block:3x2:1\n"
            "n_list = 20\n"
            "trials = 2\n"
            "folds = 4\n"
            "grid_points = 5\n"
            "base_seed = 9\n")
        out = tmp_path / "scores.csv"
        summary = tmp_path / "summary.csv"
        assert run_cli("decoy", "--config", str(cfg), "--out", str(out),
                       "--summary-out", str(summary)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 4  # trials x candidates
        assert summary.read_text().startswith("candidate,mean_cv_nll,selected_count")

    def test_decoy_trial_failure_is_config_error(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(bmg_mod, "bmg_with_fallback", boom)
        cfg = tmp_path / "decoy.cfg"
        cfg.write_text("m = 6\npopulation = identity\nlibrary = trivial:6;block:3x2\n"
                       "n_list = 20\ntrials = 2\n")
        assert run_cli("decoy", "--config", str(cfg),
                       "--out", str(tmp_path / "scores.csv")) == 2
        assert "LinAlgError: forced failure" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        assert run_cli("sweep", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "o.csv")) == 4


class TestCliContract:
    def test_unknown_flag_errors(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("project", "--matrix", "x", "--group", "y", "--out", "z",
                    "--frobnicate")
        assert exc.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("project", "estimate", "calibrate", "bmg", "sweep",
                    "verify-lwnl", "decoy"):
            assert cmd in out

    def test_package_import_leaves_numpy_unloaded(self):
        # the CLI pins the BLAS thread pools in its environment, which only
        # takes effect if importing the package has not loaded numpy yet
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, symcov; sys.exit('numpy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_console_entry_point(self, tmp_path):
        # the installed script wires to the same main
        proc = subprocess.run([sys.executable, "-m", "symcov.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "symcov" in proc.stdout
