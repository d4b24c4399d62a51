"""Symmetry-aware covariance shrinkage.

Reynolds projection of sample covariances under finite permutation groups,
convex structural blends with closed-form and cross-validated intensity
calibration, two-tier data-driven group selection, and a seeded Monte Carlo
benchmarking harness with a CSV-only CLI.

The public names below load their module on first access (PEP 562), so
``import symcov`` does not import numpy: the CLI must set its BLAS thread
variables before numpy loads.
"""

import importlib

# public name -> defining module, grouped by module
_EXPORTS = {name: module for module, names in {
    "matrixcore": ("Dataset", "SymmetricMatrix", "frobenius_norm", "gaussian_nll_per_sample",
                   "sample_covariance"),
    "groups": ("GroupAction", "OrbitPartition", "orbit_partition", "reynolds_project"),
    "shrinkage": ("EstimatorResult", "ad_blend", "ad_lwnl_blend", "lw2004", "lw2004_auto",
                  "lwnl", "shah_projection"),
    "calibration": ("CalibrationResult", "cv_nll_alpha", "mse_plugin_alpha"),
    "bmg": ("BMGReport", "CandidateLibrary", "bmg_with_fallback", "delta_residual",
            "tier1_admit", "tier2_select"),
    "synth": ("PopulationSpec", "SweepConfig", "TrialRecord", "build_decoy_library",
              "make_population", "run_mp_verification", "run_trial_sweep",
              "sample_gaussian"),
}.items() for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
