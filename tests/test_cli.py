import csv
import importlib
import re
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

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert run_cli("project", "--matrix", str(tmp_path / "nope.csv"),
                       "--group", "trivial:3", "--out", str(tmp_path / "o.csv")) == 4
        assert "No such file or directory" in capsys.readouterr().err

    def test_nan_matrix_is_config_error_naming_line(self, tmp_path, capsys):
        src = tmp_path / "nan.csv"
        src.write_text("2\n1.0,nan\nnan,1.0\n")
        assert run_cli("project", "--matrix", str(src), "--group", "cyclic:2",
                       "--out", str(tmp_path / "out.csv")) == 2
        assert f"{src}:2:" in capsys.readouterr().err

    def test_asymmetric_matrix_is_config_error_naming_line(self, tmp_path, capsys):
        src, out = tmp_path / "asym.csv", tmp_path / "out.csv"
        src.write_text("2\n1.0,5.0\n0.0,1.0\n")
        assert run_cli("project", "--matrix", str(src), "--group", "trivial:2",
                       "--out", str(out)) == 2
        assert f"{src}:2: matrix is not symmetric: entry (1, 2) is 5.0" in capsys.readouterr().err
        assert not out.exists()

    def test_asymmetry_within_rounding_is_read(self, tmp_path):
        src, out = tmp_path / "near.csv", tmp_path / "out.csv"
        src.write_text("2\n2.0,1.0\n1.0000000000001,2.0\n")
        assert run_cli("project", "--matrix", str(src), "--group", "trivial:2",
                       "--out", str(out)) == 0

    def test_bad_group_spec_is_config_error(self, tmp_path, identity_csv, capsys):
        assert run_cli("project", "--matrix", str(identity_csv),
                       "--group", "bogus:3", "--out", str(tmp_path / "o.csv")) == 2
        assert capsys.readouterr().err == "error: unknown group constructor 'bogus'\n"

    def test_bad_header_is_config_error_naming_line(self, tmp_path, capsys):
        src = tmp_path / "hdr.csv"
        src.write_text("x\n1.0\n")
        assert run_cli("project", "--matrix", str(src), "--group", "trivial:1",
                       "--out", str(tmp_path / "out.csv")) == 2
        assert f"{src}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0\n", "-1\n1.0\n"], ids=["zero", "negative"])
    def test_nonpositive_dimension_is_config_error_naming_line(self, tmp_path, capsys, text):
        src = tmp_path / "dim.csv"
        src.write_text(text)
        assert run_cli("project", "--matrix", str(src), "--group", "trivial:1",
                       "--out", str(tmp_path / "out.csv")) == 2
        assert f"{src}:1: expected positive integers" in capsys.readouterr().err

    @pytest.mark.parametrize("text,line", [
        ("name=z3\ndim=3\nkind=generator_based\n1,x,0\n", 4),
        ("name=z3\ndim=x\nkind=generator_based\n1,2,0\n", 2),
        ("name=z3\ndim=3\nkind=generator_based\n0,0,1\n", 4),
        ("name=z3\ndim=3\nkind=generator\n1,2,0\n", 3),
        ("name=s3\ndim=3\nkind=full_symmetric\n1,2,0\n", 4),
        ("name=h3\ndim=3\nkind=haar_orthogonal\n1,2,0\n", 4),
        ("name=z3\ndim=0\nkind=generator_based\n", 2),
        ("name=z3\ndim=-2\nkind=trivial\n", 2),
    ], ids=["generator", "dim", "not-a-permutation", "unknown-kind",
            "legacy-kind-generator", "haar-generator", "dim-zero", "dim-negative"])
    def test_bad_group_file_integer_is_config_error_naming_line(self, tmp_path, identity_csv,
                                                                 capsys, text, line):
        gpath = tmp_path / "g.grp"
        gpath.write_text(text)
        assert run_cli("project", "--matrix", str(identity_csv),
                       "--group", str(gpath), "--out", str(tmp_path / "o.csv")) == 2
        assert f"{gpath}:{line}:" in capsys.readouterr().err

    def test_bad_later_generator_names_its_line(self, tmp_path, identity_csv, capsys):
        gpath = tmp_path / "g.grp"
        gpath.write_text("name=z3\ndim=3\nkind=generator_based\n1,2,0\n# swap\n2,2,0\n0,2,1\n")
        assert run_cli("project", "--matrix", str(identity_csv),
                       "--group", str(gpath), "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert f"{gpath}:6: generator [2, 2, 0] is not a permutation of 0..2" in err

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

    def test_blend_without_alpha_is_config_error(self, tmp_path, dataset_csv, capsys):
        assert run_cli("estimate", "--data", str(dataset_csv), "--estimator", "ad",
                       "--group", "block:2x2", "--out", str(tmp_path / "o.csv")) == 2
        assert "estimator ad requires --alpha or --auto-alpha" in capsys.readouterr().err

    def test_eigensolver_failure_is_numerical_error(self, tmp_path, dataset_csv,
                                                    monkeypatch, capsys):
        def boom(values):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        assert run_cli("estimate", "--data", str(dataset_csv), "--estimator", "lwnl",
                       "--out", str(tmp_path / "o.csv")) == 3
        assert capsys.readouterr().err == "error: no convergence\n"

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lw2004_mse_auto_alpha_is_its_own_plug_in(self, tmp_path, n):
        # at N <= 2 LW2004's plug-in pins alpha = 1 and flags singular_input
        data = tmp_path / "data.csv"
        write_dataset_csv(data, Dataset(np.random.default_rng(82).standard_normal((n, 4))).center())
        outs = [tmp_path / "default.csv", tmp_path / "mse.csv"]
        for out, extra in zip(outs, ([], ["--auto-alpha", "mse"])):
            assert run_cli("estimate", "--data", str(data), "--estimator", "lw2004",
                           "--out", str(out), *extra) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_mse_auto_alpha_builds_no_grid(self, tmp_path, dataset_csv, capsys):
        # the grid flag is refused as unread before any grid is built
        assert run_cli("estimate", "--data", str(dataset_csv), "--estimator", "ad",
                       "--group", "block:2x2", "--auto-alpha", "mse", "--grid-points", "1",
                       "--out", str(tmp_path / "o.csv")) == 2
        err = capsys.readouterr().err
        assert "would ignore --grid-points" in err and "at least 2 points" not in err

    def test_asymmetric_estimator_matrix_names_line(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("sample,,,\n3\n1.0,0.0,0.0\n0.0,1.0,0.5\n0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: matrix is not symmetric: entry (2, 3) is 0.5, its transpose 0.0")):
            read_estimator_csv(path)

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
        assert capsys.readouterr().out.endswith(" method=cv_nll\n")
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "fold,alpha,nll"
        assert len(lines) == 1 + 3 * 5

    def test_one_grid_point_is_config_error(self, dataset_csv, capsys):
        assert run_cli("calibrate", "--data", str(dataset_csv), "--group", "block:2x2",
                       "--method", "cv", "--grid-points", "1") == 2
        assert "alpha grid needs at least 2 points, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,flag", [(["--use-lwnl"], "--use-lwnl"),
                                            (["--trace", "TRACE"], "--trace")])
    def test_mse_with_cv_only_flag_is_config_error_naming_it(self, tmp_path, dataset_csv,
                                                              capsys, extra, flag):
        extra = [str(tmp_path / "trace.csv") if a == "TRACE" else a for a in extra]
        assert run_cli("calibrate", "--data", str(dataset_csv), "--group", "block:2x2",
                       "--method", "mse", *extra) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--estimator", "lwnl", "--folds", "1"], "estimator lwnl would ignore --folds"),
    (["estimate", "--estimator", "sample", "--folds", "3"],
     "estimator sample would ignore --folds"),
    (["estimate", "--estimator", "ad", "--group", "cyclic:4", "--alpha", "0.3",
      "--grid-points", "4"], "estimator ad would ignore --grid-points"),
    (["estimate", "--estimator", "lw2004", "--auto-alpha", "mse", "--folds", "3"],
     "estimator lw2004 would ignore --folds"),
    (["calibrate", "--group", "cyclic:4", "--method", "mse", "--folds", "9"],
     "--method mse would ignore --folds"),
    (["calibrate", "--group", "cyclic:4", "--method", "mse", "--grid-points", "5"],
     "--method mse would ignore --grid-points"),
])
def test_held_out_flag_without_held_out_calibration_is_config_error(
        tmp_path, dataset_csv, capsys, argv, message):
    out = tmp_path / "o.csv"
    tail = ["--out", str(out)] if argv[0] == "estimate" else []
    assert run_cli(*argv, "--data", str(dataset_csv), *tail) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


class TestBmg:
    def test_report_and_estimator_outputs(self, tmp_path, dataset_csv, capsys):
        report = tmp_path / "report.csv"
        est = tmp_path / "est.csv"
        code = run_cli("bmg", "--data", str(dataset_csv),
                       "--library", "trivial:4;block:2x2;full-symmetric:4",
                       "--kappa", "1.0", "--report", str(report),
                       "--estimator-out", str(est))
        assert code == 0
        assert capsys.readouterr().out.startswith("selected=")
        lines = report.read_text().strip().splitlines()
        assert len(lines) == 4
        assert read_estimator_csv(est).matrix.dim == 4

    def test_one_row_dataset_falls_back_with_exit_zero(self, tmp_path, capsys):
        data_path = tmp_path / "one.csv"
        write_dataset_csv(data_path, Dataset(np.ones((1, 8))).center())
        report = tmp_path / "report.csv"
        code = run_cli("bmg", "--data", str(data_path), "--library",
                       "trivial:8;block:4x2", "--report", str(report))
        assert code == 0
        assert capsys.readouterr().out.startswith("fallback alpha=")
        body = report.read_text()
        assert "candidate," in body

    def test_all_zero_dataset_selects_with_nan_delta(self, tmp_path, capsys):
        data_path = tmp_path / "zero.csv"
        write_dataset_csv(data_path, Dataset(np.zeros((10, 6)), centered=True))
        assert run_cli("bmg", "--data", str(data_path), "--library", "trivial:6;s:6;cyclic:6",
                       "--report", str(tmp_path / "r.csv")) == 0
        assert capsys.readouterr().out.rstrip().endswith("delta=nan")

    def test_one_grid_point_is_config_error(self, tmp_path, dataset_csv, capsys):
        assert run_cli("bmg", "--data", str(dataset_csv), "--library", "trivial:4;s:4",
                       "--grid-points", "1", "--report", str(tmp_path / "r.csv")) == 2
        assert "alpha grid needs at least 2 points, got 1" in capsys.readouterr().err

    def test_two_folds_on_three_rows_fall_back(self, tmp_path, capsys):
        # the larger of the two folds would leave one training row
        data_path = tmp_path / "three.csv"
        write_dataset_csv(data_path, Dataset(np.random.default_rng(82).standard_normal(
            (3, 4))).center())
        assert run_cli("bmg", "--data", str(data_path), "--library", "trivial:4;s:4",
                       "--folds", "2", "--report", str(tmp_path / "r.csv")) == 0
        assert capsys.readouterr().out.startswith("fallback ")

    @pytest.mark.parametrize("n", [2, 10])
    def test_one_fold_is_config_error_at_any_n(self, tmp_path, capsys, n):
        data_path = tmp_path / "data.csv"
        write_dataset_csv(data_path, Dataset(np.random.default_rng(83).standard_normal(
            (n, 4))).center())
        assert run_cli("bmg", "--data", str(data_path), "--library", "trivial:4;s:4",
                       "--folds", "1", "--report", str(tmp_path / "r.csv")) == 2
        assert f"cannot split {n} rows into 1 folds" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 40])
    def test_library_of_wrong_dimension_is_config_error_naming_candidates(self, tmp_path,
                                                                         capsys, n):
        # checked before Tier 1, so N = 2 cannot reach the fallback
        data_path = tmp_path / "data.csv"
        write_dataset_csv(data_path, Dataset(np.random.default_rng(84).standard_normal(
            (n, 6))).center())
        report = tmp_path / "r.csv"
        assert run_cli("bmg", "--data", str(data_path), "--library", "cyclic:4;s:4",
                       "--report", str(report)) == 2
        err = capsys.readouterr().err
        assert "z4-flat" in err and "s4" in err
        assert not report.exists()

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

    @pytest.mark.parametrize("text,message", [
        ("0,5\n", ":1: expected positive integers"),
        ("2,0\n\n", ":1: expected positive integers"),
        ("\n2,2\n1.0,2.0\n3.0,-2.0\n", ":2: column means are not zero"),
        ("2,2\n1.0,2.0\n1.0,-2.0\n", ":1: column means are not zero"),
        ("1,2\n3.0,4.0\n", ":1: column means are not zero"),
    ], ids=["no-rows", "no-columns", "uncentered", "constant-nonzero-column",
            "one-nonzero-row"])
    def test_bad_dataset_is_config_error_naming_line(self, tmp_path, capsys, text, message):
        data_path = tmp_path / "bad.csv"
        data_path.write_text(text)
        assert run_cli("bmg", "--data", str(data_path), "--library", "trivial:2;s:2",
                       "--report", str(tmp_path / "report.csv")) == 2
        assert f"{data_path}{message}" in capsys.readouterr().err

    def test_library_directory(self, tmp_path, dataset_csv, capsys):
        libdir = tmp_path / "lib"
        libdir.mkdir()
        groups.write_group_file(libdir / "a.grp", groups.trivial(4))
        groups.write_group_file(libdir / "b.grp", groups.block_symmetric(2, 2))
        report = tmp_path / "report.csv"
        assert run_cli("bmg", "--data", str(dataset_csv), "--library", str(libdir),
                       "--kappa", "1.0", "--report", str(report)) == 0
        assert capsys.readouterr().out.startswith("selected=")

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
    @pytest.mark.parametrize("c", ["0.5", "2"])
    def test_summary_row_written(self, tmp_path, capsys, c):
        out = tmp_path / "prial.csv"
        code = run_cli("verify-lwnl", "--c", c, "--m", "16", "--trials", "10",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "estimator,prial,se,mean_err,mean_err_sample,trials"
        assert len(lines) == 3
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(": PRIAL ")[0] for line in printed] == ["lw2004", "lwnl"]

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

    @pytest.mark.parametrize("args, flag", [
        (["--seed", "-1"], "--seed"),
        (["--population", synth.POP_TWO_BLOCK, "--two-block-ratio", "-3"], "--two-block-ratio"),
        (["--population", synth.POP_GEOMETRIC, "--geometric-decay", "0"], "--geometric-decay"),
        (["--population", synth.POP_TWO_BLOCK, "--two-block-split", "3"], "--two-block-split"),
        (["--population", synth.POP_TWO_BLOCK, "--two-block-split", "0"], "--two-block-split"),
        (["--m", "0"], "--m"),
        (["--m", "-2"], "--m"),
    ])
    def test_failed_population_check_is_config_error_naming_flag(self, tmp_path, capsys,
                                                                 args, flag):
        out = tmp_path / "p.csv"
        assert run_cli("verify-lwnl", "--c", "0.5", "--m", "16", "--trials", "10",
                       *args, "--out", str(out)) == 2
        assert f"error: {flag}: " in capsys.readouterr().err
        assert not out.exists()

    def test_block_size_check_names_m_not_a_missing_flag(self, tmp_path, capsys):
        # blocks of 20 do not divide the default --m 64; verify-lwnl has no --block-size
        out = tmp_path / "p.csv"
        assert run_cli("verify-lwnl", "--c", "0.5", "--population", synth.POP_BLOCK_CIRCULANT,
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "error: --m: " in err and "--block-size" not in err
        assert not out.exists()

    @pytest.mark.parametrize("population", [  # every kind --population offers
        kind for kind, (reads, _) in synth.POPULATIONS.items() if "group" not in reads])
    def test_every_offered_population_runs_with_its_defaults(self, tmp_path, capsys,
                                                             population):
        out = tmp_path / "p.csv"
        assert run_cli("verify-lwnl", "--c", "0.5", "--m", "20", "--population", population,
                       "--trials", "10", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 3
        assert len(capsys.readouterr().out.splitlines()) == 2


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


# one cell of 2 trials over 4 candidates; no n_test key, which decoy runs reject
DECOY_CFG = """m = 6
population = block_circulant
block_size = 3
circulant_rho = 0.4
cross_block = 0.05
library = trivial:6;block:3x2;wreath:3x2;random-block:3x2:1
n_list = 20
trials = 2
folds = 4
grid_points = 5
base_seed = 9
"""


def csv_records(path):
    """The rows of a CSV file with a header, as dicts of their text fields."""
    with open(path) as fh:
        return list(csv.DictReader(fh))


def sweep_cfg_with(line):
    """SWEEP_CFG with ``line`` in place of the line setting the same key."""
    key = line.split("=")[0].strip()
    kept = [ln for ln in SWEEP_CFG.splitlines() if ln.split("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


def population_cfg_with(*lines):
    """SWEEP_CFG with ``lines`` last in place of its population lines."""
    population = ("population", "block_size", "circulant_rho", "cross_block")
    kept = [ln for ln in SWEEP_CFG.splitlines() if ln.split("=")[0].strip() not in population]
    return "\n".join(kept + list(lines)) + "\n"


class TestSweepAndDecoy:
    def test_sweep_row_count(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "records.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # cells x trials

    def test_sweep_two_folds_on_three_rows_fall_back(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(sweep_cfg_with("folds = 2").replace("n_list = 16,24", "n_list = 3"))
        out = tmp_path / "records.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
        header, *lines = [line.split(",") for line in out.read_text().splitlines()]
        assert len(lines) == 2
        for row in (dict(zip(header, line)) for line in lines):
            assert row["error"] == "" and row["ad_fallback"] == row["adlwnl_fallback"] == "1"

    @pytest.mark.parametrize("key", ["folds", "grid_points"])
    def test_sweep_single_fold_or_grid_point_is_config_error(self, tmp_path, capsys, key):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(sweep_cfg_with(f"{key} = 1"))
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 2
        assert f"config key '{key}': sweep needs {key} >= 2, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [("kappa = 0.5", "kappa"), ("n_list = 16,0", "n_list"),
                                           ("n_test = 0", "n_test"),
                                           ("n_test = 1", "n_test"),
                                           ("library = preset:grid8", "library"),
                                           ("population = bogus", "population"),
                                           ("population = group_invariant", "population"),
                                           ("block_size = 4", "block_size"),
                                           ("base_seed = -1", "base_seed"),
                                           ("trials = 0", "trials"),
                                           ("estimators =", "estimators"),
                                           ("estimators = sample,sample", "estimators")])
    def test_sweep_config_failing_every_trial_is_config_error(self, tmp_path, capsys,
                                                              line, key):
        # the failing key's line is the config's last
        text = sweep_cfg_with(line)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}:{len(text.splitlines())}: config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "decoy"])
    @pytest.mark.parametrize("text, key", [
        (sweep_cfg_with("cross_block = 1.5"), "cross_block"),
        (population_cfg_with("population = delta_controlled", "population_group = cyclic:6",
                             "target_delta = 0.99"), "target_delta"),
        (population_cfg_with("population = group_invariant", "population_group = cyclic:5"),
         "population_group"),
        (population_cfg_with("population = two_block", "two_block_ratio = -3"),
         "two_block_ratio"),
        (population_cfg_with("population = two_block", "two_block_ratio = 0"),
         "two_block_ratio"),
        (population_cfg_with("population = geometric", "geometric_decay = 0"),
         "geometric_decay"),
        (population_cfg_with("population = random_spd", "population_seed = -4"),
         "population_seed"),
        (population_cfg_with("population = two_block", "two_block_split = 2.0"),
         "two_block_split"),
        (population_cfg_with("population = two_block", "two_block_split = -1.0"),
         "two_block_split"),
        (population_cfg_with("population = two_block", "two_block_split = 0.0"),
         "two_block_split"),
        # ceil(0.9 m) = m at m = 6
        (population_cfg_with("population = two_block", "two_block_split = 0.9"),
         "two_block_split"),
        (sweep_cfg_with("m = 0"), "m"),
        (sweep_cfg_with("m = -2"), "m"),
    ], ids=["not-positive-definite", "unreachable-delta", "group-of-wrong-size",
            "negative-two-block-ratio", "zero-two-block-ratio", "zero-geometric-decay",
            "negative-population-seed", "two-block-split-above-one",
            "negative-two-block-split", "zero-two-block-split", "two-block-split-rounding-to-m",
            "zero-m", "negative-m"])
    def test_unbuildable_population_is_config_error_naming_key(self, tmp_path, capsys,
                                                               command, text, key):
        # the failing key's line is the config's last
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}:{len(text.splitlines())}: config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_decoy_with_several_cells_is_config_error_naming_n_list(self, tmp_path, capsys):
        cfg = tmp_path / "decoy.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "o.csv"
        assert run_cli("decoy", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}: config key 'n_list'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["estimators = lw2004", "estimators = ad_bmg, lwnl"])
    def test_decoy_with_estimators_is_config_error_naming_them(self, tmp_path, capsys, line):
        # decoy runs score ad_bmg alone, so an estimators key would be ignored
        cfg = tmp_path / "decoy.cfg"
        cfg.write_text(sweep_cfg_with("n_list = 16") + line + "\n")
        out = tmp_path / "o.csv"
        assert run_cli("decoy", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}: config key 'estimators'" in capsys.readouterr().err
        assert not out.exists()

    def test_decoy_with_n_test_is_config_error_naming_it(self, tmp_path, capsys):
        # decoy runs write no held-out score, so an n_test key would be ignored
        cfg = tmp_path / "decoy.cfg"
        cfg.write_text(DECOY_CFG + "n_test = 40\n")
        out = tmp_path / "o.csv"
        assert run_cli("decoy", "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}: config key 'n_test'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "decoy"])
    @pytest.mark.parametrize("line, message", [
        ("populaton = identity", ":14: config key 'populaton' unknown"),
        ("trials = 3", ":14: config key 'trials' given twice"),
        ("geometric_decay = 0.5",
         ":14: population block_circulant would ignore config key 'geometric_decay'"),
        ("target_delta = 0.1",
         ":14: population block_circulant would ignore config key 'target_delta'"),
        ("population_seed = 3",
         ":14: population block_circulant would ignore config key 'population_seed'"),
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

    @pytest.mark.parametrize("command", ["sweep", "decoy"])
    @pytest.mark.parametrize("line", ["n_list = 50,abc", "trials = two", "m = 100 # hundred"])
    def test_unparsable_value_is_config_error_naming_key_and_line(self, tmp_path, capsys,
                                                                  command, line):
        # sweep_cfg_with moves the key's line to the end, line 13
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(sweep_cfg_with(line))
        key = line.split("=")[0].strip()
        out = tmp_path / "o.csv"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        assert f"{cfg}:13: config key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_deterministic_under_threads(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(a), "--threads", "1") == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(b), "--threads", "4") == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_sweep_threads_below_one_is_config_error(self, tmp_path, capsys, threads):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CFG)
        out = tmp_path / "o.csv"
        assert run_cli("sweep", "--config", str(cfg), "--out", str(out),
                       "--threads", threads) == 2
        assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_decoy_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "decoy.cfg"
        cfg.write_text(DECOY_CFG)
        out = tmp_path / "scores.csv"
        summary = tmp_path / "summary.csv"
        assert run_cli("decoy", "--config", str(cfg), "--out", str(out),
                       "--summary-out", str(summary)) == 0
        # one "name: selected k/2" line per candidate selected at least once
        printed = capsys.readouterr().out.splitlines()
        assert printed and all(": selected " in line and line.endswith("/2") for line in printed)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 4  # trials x candidates
        assert summary.read_text().startswith("candidate,mean_cv_nll,selected_count")

    def test_decoy_trials_are_the_sweeps_trials(self, tmp_path):
        # decoy and sweep draw each trial's training rows from one stream, so
        # the decoy's selected row restates the sweep record's ad_bmg fields
        cfg = tmp_path / "decoy.cfg"
        cfg.write_text(DECOY_CFG)
        scores, sweep = tmp_path / "scores.csv", tmp_path / "sweep.csv"
        assert run_cli("decoy", "--config", str(cfg), "--out", str(scores)) == 0
        assert run_cli("sweep", "--config", str(cfg), "--out", str(sweep)) == 0
        selected = {row["trial"]: row for row in csv_records(scores) if row["selected"] == "1"}
        records = csv_records(sweep)
        assert sorted(selected) == [record["trial"] for record in records] == ["0", "1"]
        for record in records:
            row = selected[record["trial"]]
            assert [row[c] for c in ("candidate", "best_alpha", "margin", "delta")] == \
                [record[c] for c in ("ad_selected", "ad_alpha", "ad_margin", "ad_delta")]

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

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert run_cli("sweep", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "o.csv")) == 4
        assert "No such file or directory" in capsys.readouterr().err


class TestCliContract:
    def test_unknown_flag_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("project", "--matrix", "x", "--group", "y", "--out", "z",
                    "--frobnicate")
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --frobnicate" in capsys.readouterr().err

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

    def test_every_export_resolves(self):
        # each public name and each module of the lazy export table loads
        # through the package attribute it is reached by
        import symcov
        for name in symcov.__all__:
            module = importlib.import_module(f"symcov.{symcov._EXPORTS[name]}")
            assert getattr(symcov, name) is getattr(module, name)
        for module in set(symcov._EXPORTS.values()):
            assert getattr(symcov, module) is importlib.import_module(f"symcov.{module}")

    def test_an_unknown_attribute_is_an_attribute_error(self):
        # the lazy lookup loads nothing for a name outside the export table,
        # so hasattr and a misspelt name behave as on any module
        import symcov
        with pytest.raises(AttributeError, match="module 'symcov' has no attribute 'lw2005'"):
            symcov.lw2005
        assert not hasattr(symcov, "lw2005")

    def test_console_entry_point(self, tmp_path):
        # the installed script wires to the same main
        proc = subprocess.run([sys.executable, "-m", "symcov.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "symcov" in proc.stdout
