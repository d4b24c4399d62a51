"""The CSV contract: every file symcov writes uses one number format, and
every row of a table has as many fields as its header."""

import math

import numpy as np
import pytest

from symcov import bmg as bmg_mod
from symcov import groups, matrixcore, shrinkage, synth
from symcov.bmg import BMGReport, CandidateLibrary
from symcov.calibration import CalibrationResult, write_cv_trace_csv
from symcov.cli import main
from symcov.matrixcore import Dataset, SymmetricMatrix

THIRD = "0.3333333333333333"

TINY_CFG = """m = 6
population = block_circulant
block_size = 3
circulant_rho = 0.4
library = trivial:6;block:3x2;wreath:3x2
n_list = 4,20
n_test = 30
trials = 2
folds = 4
grid_points = 5
base_seed = 9
"""


def run_cli(*argv):
    return main([str(a) for a in argv])


def check_table(path, text_columns=()):
    """Each row as wide as the header; every other non-empty field a float."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows
    for row in rows:
        assert len(row) == len(header), row
        for name, field in zip(header, row):
            if name not in text_columns and field:
                float(field)


def check_matrix_body(lines):
    m = int(lines[0])
    assert len(lines) == m + 1
    for line in lines[1:]:
        assert len([float(tok) for tok in line.split(",")]) == m


class TestFormatField:
    @pytest.mark.parametrize("value, text", [
        (None, ""), (True, "1"), (False, "0"), (np.True_, "1"), (np.False_, "0"),
        (0.1, "0.1"), (1 / 3, THIRD), (1e-300, "1e-300"), (-2.0, "-2.0"),
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        (np.float64(0.1), "0.1"), (np.float64(math.inf), "inf"), (np.float64(math.nan), "nan"),
        (np.float32(0.5), "0.5"), (3, "3"), (np.int64(3), "3"), ("z3-flat", "z3-flat"),
    ])
    def test_one_format(self, value, text):
        assert matrixcore.format_field(value) == text

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        matrixcore.write_csv(path, [("a", "b", "c", "d", "e", "f", "g"),
                                    (0.1, np.float64(1 / 3), 1e-300, math.inf, math.nan,
                                     None, True)])
        assert path.read_text() == f"a,b,c,d,e,f,g\n0.1,{THIRD},1e-300,inf,nan,,1\n"


class TestWriterBytes:
    """Each writer on one tiny example holding 0.1, 1/3, 1e-300, inf, nan, an
    empty field and a bool, wherever its format admits them."""

    def test_matrix_and_dataset(self, tmp_path):
        path = tmp_path / "m.csv"
        matrixcore.write_matrix_csv(path, SymmetricMatrix(np.array([[0.1, 1 / 3],
                                                                    [1 / 3, 1e-300]])))
        assert path.read_text() == f"2\n0.1,{THIRD}\n{THIRD},1e-300\n"
        matrixcore.write_dataset_csv(path, Dataset(np.array([[0.1, 1 / 3], [1e-300, -2.0]])))
        assert path.read_text() == f"2,2\n0.1,{THIRD}\n1e-300,-2.0\n"

    def test_estimator(self, tmp_path):
        matrix = SymmetricMatrix(np.array([[0.1, 0.0], [0.0, 1e-300]]))
        path = tmp_path / "e.csv"
        shrinkage.write_estimator_csv(path, shrinkage.EstimatorResult("sample", matrix))
        assert path.read_text() == "sample,,,\n2\n0.1,0.0\n0.0,1e-300\n"
        shrinkage.write_estimator_csv(path, shrinkage.EstimatorResult(
            "ad", matrix, alpha=np.float64(1 / 3), group_name="z2-flat",
            flags=frozenset({"b", "a"})))
        assert path.read_text() == f"ad,{THIRD},z2-flat,a;b\n2\n0.1,0.0\n0.0,1e-300\n"

    def test_group_file(self, tmp_path):
        path = tmp_path / "g.grp"
        groups.write_group_file(path, groups.cyclic(3))
        assert path.read_text() == "name=z3-flat\ndim=3\nkind=generator_based\n1,2,0\n"

    def test_cv_trace(self, tmp_path):
        result = CalibrationResult(alpha=1.0, method="cv_nll",
                                   fold_scores=np.array([[np.inf, 0.1], [np.nan, 1 / 3]]))
        path = tmp_path / "trace.csv"
        write_cv_trace_csv(path, result)
        assert path.read_text() == ("fold,alpha,nll\n0,0.0,inf\n0,1.0,0.1\n"
                                    f"1,0.0,nan\n1,1.0,{THIRD}\n")

    @staticmethod
    def _report():
        lib = CandidateLibrary((groups.cyclic(3), groups.trivial(3)))
        report = BMGReport(selected="z3-flat", alpha=np.float64(1 / 3),
                           tier1_admitted=("z3-flat",),
                           tier2_scores={"z3-flat": np.float64(0.1)},
                           tier2_alphas={"z3-flat": 1 / 3}, bmg_margin=math.inf,
                           delta=1e-300, fallback_used=False)
        return lib, report

    def test_report(self, tmp_path):
        lib, report = self._report()
        path = tmp_path / "r.csv"
        bmg_mod.write_report_csv(path, lib, report)
        assert path.read_text() == (
            "candidate,admitted,mean_cv_nll,best_alpha,selected,margin,delta\n"
            f"z3-flat,1,0.1,{THIRD},1,inf,1e-300\n"
            "trivial-3,0,nan,nan,0,inf,1e-300\n")
        rows = bmg_mod.report_fields(lib, report, trial=4)
        assert matrixcore.format_row(rows[1]) == "4,trivial-3,0,nan,nan,0,inf,1e-300"

    def test_trial_records(self, tmp_path):
        _, report = self._report()
        record = synth.TrialRecord(cell_n=5, trial=1, seed=7,
                                   nll={"sample": math.inf, "lw2004": np.float64(0.1)},
                                   frob={"sample": 1e-300}, ad=report, choice_agree=False)
        path = tmp_path / "s.csv"
        synth.write_trial_records_csv(path, [record])
        header, row = path.read_text().splitlines()
        assert header == ",".join(synth.TRIAL_CSV_COLUMNS)
        assert row == (f"5,1,7,inf,0.1,,,,,1e-300,,,,,,z3-flat,{THIRD},inf,1e-300,0"
                       ",,,,,,0,")

    def test_verify_lwnl(self, tmp_path, monkeypatch, capsys):
        rows = [{"estimator": "lwnl", "prial": np.float64(0.1), "se": 1 / 3,
                 "mean_err": np.float64(1e-300), "mean_err_sample": np.float64(np.inf),
                 "trials": 10}]
        monkeypatch.setattr(synth, "run_mp_verification", lambda *args, **kwargs: rows)
        out = tmp_path / "v.csv"
        assert run_cli("verify-lwnl", "--c", "0.5", "--out", out) == 0
        assert capsys.readouterr().out == "lwnl: PRIAL 0.10% +- 0.33\n"
        assert out.read_text() == ("estimator,prial,se,mean_err,mean_err_sample,trials\n"
                                   f"lwnl,0.1,{THIRD},1e-300,inf,10\n")

    def test_decoy(self, tmp_path, monkeypatch, capsys):
        lib, report = self._report()
        monkeypatch.setattr(bmg_mod, "bmg_with_fallback", lambda *args, **kwargs: (None, report))
        cfg = tmp_path / "decoy.cfg"
        cfg.write_text("m = 3\nlibrary = cyclic:3;trivial:3\nn_list = 20\ntrials = 1\n")
        out, summary = tmp_path / "d.csv", tmp_path / "ds.csv"
        assert run_cli("decoy", "--config", cfg, "--out", out, "--summary-out", summary) == 0
        assert capsys.readouterr().out == "z3-flat: selected 1/1\n"
        assert out.read_text() == (
            "trial,candidate,admitted,mean_cv_nll,best_alpha,selected,margin,delta\n"
            f"0,z3-flat,1,0.1,{THIRD},1,inf,1e-300\n"
            "0,trivial-3,0,nan,nan,0,inf,1e-300\n")
        assert summary.read_text() == ("candidate,mean_cv_nll,selected_count,trials\n"
                                       "z3-flat,0.1,1,1\ntrivial-3,inf,0,1\n")


def test_every_cli_writer_is_well_formed(tmp_path, capsys):
    rng = np.random.default_rng(83)
    data = tmp_path / "data.csv"
    matrixcore.write_dataset_csv(data, Dataset(rng.standard_normal((24, 6))).center())
    matrix = tmp_path / "m.csv"
    matrixcore.write_matrix_csv(matrix, SymmetricMatrix(rng.standard_normal((6, 6))))
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TINY_CFG)
    decoy_cfg = tmp_path / "decoy.cfg"
    # one cell, and no n_test key: decoy runs write no held-out score
    decoy_cfg.write_text(TINY_CFG.replace("n_list = 4,20", "n_list = 20")
                         .replace("n_test = 30\n", ""))
    out = {name: tmp_path / f"{name}.csv" for name in (
        "project", "estimate", "trace", "report", "winner", "sweep", "verify", "decoy",
        "summary")}
    for argv in (
        ("project", "--matrix", matrix, "--group", "block:3x2", "--out", out["project"]),
        ("estimate", "--data", data, "--estimator", "ad", "--group", "block:3x2",
         "--auto-alpha", "cv", "--out", out["estimate"]),
        ("calibrate", "--data", data, "--group", "block:3x2", "--method", "cv",
         "--trace", out["trace"]),
        ("bmg", "--data", data, "--library", "trivial:6;block:3x2;wreath:3x2",
         "--report", out["report"], "--estimator-out", out["winner"]),
        ("sweep", "--config", cfg, "--out", out["sweep"]),
        ("verify-lwnl", "--c", "0.5", "--m", "8", "--trials", "10", "--out", out["verify"]),
        ("decoy", "--config", decoy_cfg, "--out", out["decoy"], "--summary-out", out["summary"]),
    ):
        assert run_cli(*argv) == 0, argv
    calibrate, bmg, *prial, decoy = capsys.readouterr().out.splitlines()
    assert calibrate.endswith(" method=cv_nll") and bmg.startswith("selected=")
    assert [line.split(": PRIAL ")[0] for line in prial] == ["lw2004", "lwnl"]
    assert ": selected " in decoy
    check_matrix_body(out["project"].read_text().splitlines())
    for name in ("estimate", "winner"):
        meta, *body = out[name].read_text().splitlines()
        assert len(meta.split(",")) == 4
        check_matrix_body(body)
    check_table(out["trace"])
    check_table(out["report"], {"candidate"})
    check_table(out["sweep"], {"ad_selected", "adlwnl_selected", "error"})
    check_table(out["verify"], {"estimator"})
    check_table(out["decoy"], {"candidate"})
    check_table(out["summary"], {"candidate"})
