"""Input checks that the rest of the suite never reaches: each bad input
raises its own exception type with a message naming what is wrong."""

import re

import numpy as np
import pytest

from symcov import groups, synth
from symcov.bmg import CandidateLibrary
from symcov.calibration import mse_plugin_alpha, write_cv_trace_csv
from symcov.cli import main
from symcov.groups import GroupAction, GroupValidationError
from symcov.matrixcore import (
    Dataset,
    DimensionMismatchError,
    SymmetricMatrix,
    read_dataset_csv,
    read_matrix_csv,
    write_dataset_csv,
)
from symcov.shrinkage import read_estimator_csv


@pytest.fixture
def data():
    return Dataset(np.random.default_rng(3).standard_normal((8, 4))).center()


class TestCalibration:
    def test_mse_plugin_group_of_other_dim(self, data):
        with pytest.raises(DimensionMismatchError, match="group dim 3 != data dim 4"):
            mse_plugin_alpha(data, groups.trivial(3))

    def test_cv_trace_of_plug_in_result(self, tmp_path, data):
        result = mse_plugin_alpha(data, groups.full_symmetric(4))
        with pytest.raises(ValueError, match="calibration result carries no fold trace"):
            write_cv_trace_csv(tmp_path / "trace.csv", result)
        assert not (tmp_path / "trace.csv").exists()


def test_cli_shah_without_group_is_config_error(tmp_path, capsys, data):
    path, out = tmp_path / "data.csv", tmp_path / "o.csv"
    write_dataset_csv(path, data)
    assert main(["estimate", "--data", str(path), "--estimator", "shah",
                 "--out", str(out)]) == 2
    assert "estimator shah requires --group" in capsys.readouterr().err
    assert not out.exists()


def test_empty_candidate_library():
    with pytest.raises(ValueError, match="candidate library is empty"):
        CandidateLibrary(())


class TestGroups:
    def test_unknown_kind(self):
        with pytest.raises(GroupValidationError, match="unknown group kind 'bogus'"):
            GroupAction(name="g", dim=3, kind="bogus")

    def test_dim_below_one(self):
        with pytest.raises(GroupValidationError, match="group dimension must be >= 1"):
            GroupAction(name="g", dim=0)

    def test_reynolds_project_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="group dim 3 != matrix dim 4"):
            groups.reynolds_project(groups.cyclic(3), SymmetricMatrix(np.eye(4)))

    def test_grid_cyclic_bad_axis(self):
        with pytest.raises(GroupValidationError, match="axis must be 'row' or 'col', got 'diag'"):
            groups.grid_cyclic(2, 3, "diag")

    def test_direct_product_with_haar(self):
        with pytest.raises(GroupValidationError,
                           match="direct products need generator-based factors"):
            groups.direct_product(groups.cyclic(4), groups.haar_orthogonal(4))

    def test_block_layout_not_a_permutation(self):
        with pytest.raises(GroupValidationError,
                           match=re.escape("block layout permutation must be a "
                                           "permutation of 0..m-1")):
            groups.block_symmetric(2, 3, perm=np.array([0, 1, 2, 3, 4, 4]))

    def test_brute_force_project_over_cap(self):
        g = groups.full_symmetric(5)
        with pytest.raises(GroupValidationError,
                           match=f"group {g.name} exceeds enumeration cap 10"):
            groups.brute_force_project(g, SymmetricMatrix(np.eye(5)), cap=10)

    def test_spec_wraps_builder_value_error(self):
        with pytest.raises(GroupValidationError,
                           match="bad group spec 'block:20x5:x': invalid literal for int"):
            groups.parse_group_spec("block:20x5:x")


class TestMatrixcore:
    def test_empty_matrix(self):
        with pytest.raises(DimensionMismatchError, match="matrix dimension must be >= 1"):
            SymmetricMatrix(np.zeros((0, 0)))

    def test_rows_not_2d(self):
        with pytest.raises(DimensionMismatchError,
                           match=re.escape("dataset rows must be 2-D, got shape (3,)")):
            Dataset(np.zeros(3))

    def test_no_rows(self):
        with pytest.raises(DimensionMismatchError,
                           match="dataset needs at least one row and one column"):
            Dataset(np.zeros((0, 3)))

    def test_row_of_wrong_width(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2\n1,0\n0,1,0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 2 values, found 3")):
            read_matrix_csv(path)

    def test_empty_matrix_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty matrix file")):
            read_matrix_csv(path)

    def test_empty_dataset_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=re.escape(f"{path}: empty dataset file")):
            read_dataset_csv(path)

    def test_row_count_other_than_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("2,2\n1,-1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: expected 2 rows, found 1")):
            read_dataset_csv(path)


def test_empty_estimator_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=re.escape(f"{path}: empty estimator file")):
        read_estimator_csv(path)


class TestSynth:
    @pytest.mark.parametrize("build", [synth.pathway_library, synth.build_decoy_library])
    def test_block_size_not_dividing_m(self, build):
        with pytest.raises(ValueError, match="block size 3 does not divide 10"):
            build(10, 3)

    def test_unknown_estimator_toggle_names_its_line(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("m = 6\nlibrary = trivial:6\nn_list = 16\n"
                        "estimators = sample,bogus\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: config key 'estimators': unknown estimator toggles ['bogus']")):
            synth.parse_sweep_config(path)

    def test_a_failed_check_of_default_fields_names_the_file_only(self, tmp_path):
        # blocks of 40 at the default rho 0.5 and cross level 0.1 are not
        # positive definite, and the check names the two fields no line gives
        path = tmp_path / "sweep.cfg"
        path.write_text("m = 80\npopulation = block_circulant\nblock_size = 40\n"
                        "library = s80\nn_list = 10\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: block-circulant (rho=0.5, cross=0.1) is not positive definite")):
            synth.parse_sweep_config(path)
