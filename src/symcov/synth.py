"""Synthetic ground truth and the Monte Carlo trial engine: seeded
population construction (invariant and residual-controlled), Gaussian
sampling, the nonlinear-shrinkage verification harness, candidate-library
presets with their decoy extensions, and the paired-split trial sweep.

Every random draw comes from a counter-based generator keyed by
(base_seed, cell, trial, stream), so per-trial streams are independent and
the output is identical under any parallel schedule.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bmg as bmg_mod
from . import groups, matrixcore, shrinkage
from .bmg import BMGReport, CandidateLibrary
from .calibration import DEFAULT_FOLDS, DEFAULT_GRID_POINTS, DataStats
from .groups import GroupAction, _rng, parse_group_spec, reynolds_project
from .matrixcore import Dataset, SymmetricMatrix

POPULATION_RIDGE = 1e-6

POP_RANDOM_SPD = "random_spd"
POP_GROUP_INVARIANT = "group_invariant"
POP_DELTA_CONTROLLED = "delta_controlled"
POP_IDENTITY = "identity"
POP_TWO_BLOCK = "two_block"
POP_GEOMETRIC = "geometric"
POP_BLOCK_CIRCULANT = "block_circulant"

ESTIMATOR_ORDER = ("sample", "lw2004", "lwnl", "shah_bmg", "ad_bmg", "ad_lwnl_bmg")

# Fixed decoy-partition seeds: three same-scale partitions, three wrong
# scales, one Cartesian partition, two wreath partitions, one random
# subgroup.
DECOY_SEEDS = {
    "same_scale": (1, 2, 3),
    "scale_half": 11,
    "scale_small": 12,
    "scale_big": 13,
    "cartesian": 21,
    "wreath_small": 31,
    "wreath_pairs": 32,
    "subgroup": 42,
}


class _FieldError(ValueError):
    """A failed check of the ``fields`` named, most specific first."""

    def __init__(self, fields: tuple[str, ...], message: str) -> None:
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class PopulationSpec:
    """Recipe for a ground-truth covariance.

    kind selects the construction; ``POPULATIONS`` says which of the other
    fields beside m it reads, and a field it reads may not be None (group
    and target_delta have no default).
    """

    m: int
    kind: str = POP_RANDOM_SPD
    base_seed: int = 0
    group: GroupAction | None = None
    target_delta: float | None = None
    two_block_ratio: float = 8.0
    two_block_split: float = 0.25
    geometric_decay: float = 0.9
    block_size: int = 20
    circulant_rho: float = 0.5
    cross_block: float = 0.1

    def __post_init__(self) -> None:
        if self.m < 1:
            raise _FieldError(("m",), f"population needs m >= 1, got {self.m}")
        if self.kind not in POPULATIONS:
            raise _FieldError(("kind",), f"unknown population kind {self.kind!r}")
        reads, _ = POPULATIONS[self.kind]
        for field in reads:
            if getattr(self, field) is None:
                raise _FieldError((field, "kind"), f"population kind {self.kind} needs {field}")
        if "group" in reads and self.group.dim != self.m:
            raise _FieldError(("group", "m"), f"population group {self.group.name} acts "
                              f"on {self.group.dim} points, not m = {self.m}")
        if self.base_seed < 0:
            raise _FieldError(("base_seed",), f"population needs base_seed >= 0, "
                              f"got {self.base_seed}")
        if self.kind == POP_BLOCK_CIRCULANT and self.m % self.block_size:
            raise _FieldError(("block_size", "m"),
                              "block_circulant population needs block_size to divide m")
        # the top ceil(split m) eigenvalues take the ratio: both blocks must be nonempty
        split = self.two_block_split
        if self.kind == POP_TWO_BLOCK and not (0.0 < split < 1.0
                                               and math.ceil(split * self.m) < self.m):
            raise _FieldError(("two_block_split", "m"), f"two_block population needs "
                              f"0 < two_block_split and ceil(two_block_split * m) < m, "
                              f"got {split} at m = {self.m}")


def _ridge(values: np.ndarray) -> np.ndarray:
    m = values.shape[0]
    return values + np.eye(m) * (POPULATION_RIDGE * np.trace(values) / m)


def _random_spd(spec: PopulationSpec) -> SymmetricMatrix:
    a = _rng(spec.base_seed, "pop", spec.m).standard_normal((spec.m, spec.m))
    return SymmetricMatrix(_ridge(a @ a.T / spec.m))


def _rotated(spec: PopulationSpec, eigs: np.ndarray) -> SymmetricMatrix:
    """Q diag(eigs) Q^T for a seeded Haar-random orthogonal Q."""
    q, r = np.linalg.qr(_rng(spec.base_seed, "rot", spec.m).standard_normal((spec.m, spec.m)))
    q = q * np.sign(np.diag(r))
    return SymmetricMatrix((q * eigs) @ q.T)


def _delta_controlled(spec: PopulationSpec) -> SymmetricMatrix:
    """The point Sigma(t) = (1-t) P_G(S) + t S of the blend path whose residual
    delta(t) = t q / sqrt(p^2 + t^2 q^2) hits the target, with p = ||P_G(S)||
    and q = ||S - P_G(S)||: P_G(S) is Frobenius-orthogonal to S - P_G(S), so t
    has a closed form. When G fixes S (q = 0) only delta = 0 is reachable, at t = 0."""
    s = _random_spd(spec)
    proj = reynolds_project(spec.group, s)
    p = matrixcore.frobenius_norm(proj)
    q = matrixcore.frobenius_norm(SymmetricMatrix.of_symmetric(s.values - proj.values))
    attainable = q / matrixcore.frobenius_norm(s)
    target = float(spec.target_delta)
    if not 0.0 <= target <= attainable + 1e-12:
        raise _FieldError(("target_delta",),
                          f"target delta {target} unreachable; attainable range is "
                          f"[0, {attainable:.6f}] for this draw")
    t = 0.0 if q == 0.0 else min(1.0, target * p / (q * math.sqrt(1.0 - target * target)))
    return SymmetricMatrix(_ridge(matrixcore.blend(proj, s, t).values))


def make_population(spec: PopulationSpec) -> SymmetricMatrix:
    """Realize the specification as an SPD covariance, by its kind's builder
    in ``POPULATIONS``.

    The random constructions carry a ridge of 1e-6 * (tr/m) to guarantee
    strict positive definiteness; the closed-form diagonal families are SPD
    by construction and are returned exactly (identity means the identity).
    A shape that leaves sigma not positive definite (a ``two_block_ratio``
    or ``geometric_decay`` of 0 or below) fails ``sample_gaussian``'s test
    here, naming the kind's fields.
    """
    return _population_with_root(spec)[0]


def _population_with_root(spec: PopulationSpec) -> tuple[SymmetricMatrix, tuple]:
    """``make_population``'s sigma and its ``_symmetric_root``, whose smallest
    eigenvalue ``_draw_gaussian`` tests: tested here, where the spec's fields
    can be named."""
    reads, build = POPULATIONS[spec.kind]
    sigma = build(spec)
    root = _symmetric_root(sigma)
    if root[1] <= 0.0:
        # the shape fields set the spectrum; the seed only rotates or draws
        shape = [field for field in reads if field != "base_seed"]
        given = ", ".join(f"{field}={getattr(spec, field)}" for field in shape)
        raise _FieldError((*shape, "kind"), f"population {spec.kind} ({given}) is not "
                          f"positive definite (min eig {root[1]:.3e})")
    return sigma, root


def block_circulant_population(m: int, block_size: int, rho: float,
                               cross: float) -> SymmetricMatrix:
    """Block-structured generative covariance: unit diagonal, a circulant
    correlation profile rho^min(d, K-d) within each block, and a constant
    cross-block level. Exactly invariant under independent within-block
    cyclic shifts lifted by free block permutation, with order-one structure
    that the free-permutation (compound) candidates cannot represent."""
    k = block_size
    d = np.abs(np.arange(k)[:, None] - np.arange(k)[None, :])
    circ = rho ** np.minimum(d, k - d)
    out = np.full((m, m), float(cross))
    for b in range(m // k):
        out[b * k:(b + 1) * k, b * k:(b + 1) * k] = circ
    sigma = SymmetricMatrix(out)
    w = np.linalg.eigvalsh(sigma.values)
    if w[0] <= 1e-8 * w[-1]:
        raise _FieldError(("cross_block", "circulant_rho"), f"block-circulant (rho={rho}, "
                          f"cross={cross}) is not positive definite (min eig {w[0]:.3e})")
    return sigma


# Population kind -> (the PopulationSpec fields beside m that it reads, its builder).
POPULATIONS = {
    POP_RANDOM_SPD: (("base_seed",), _random_spd),
    POP_GROUP_INVARIANT: (("base_seed", "group"), lambda s: SymmetricMatrix(
        _ridge(reynolds_project(s.group, _random_spd(s)).values))),
    POP_DELTA_CONTROLLED: (("base_seed", "group", "target_delta"), _delta_controlled),
    POP_IDENTITY: ((), lambda s: SymmetricMatrix.identity(s.m)),
    POP_TWO_BLOCK: (("base_seed", "two_block_ratio", "two_block_split"), lambda s: _rotated(
        s, np.where(np.arange(s.m) < math.ceil(s.two_block_split * s.m),
                    s.two_block_ratio, 1.0))),
    POP_GEOMETRIC: (("base_seed", "geometric_decay"),
                    lambda s: _rotated(s, s.geometric_decay ** np.arange(s.m))),
    POP_BLOCK_CIRCULANT: (("block_size", "circulant_rho", "cross_block"), lambda s:
                          block_circulant_population(s.m, s.block_size, s.circulant_rho,
                                                     s.cross_block)),
}


def _symmetric_root(sigma: SymmetricMatrix) -> tuple[np.ndarray, float]:
    """sigma^(1/2) with negative eigenvalues clipped, and sigma's smallest eigenvalue."""
    w, u = np.linalg.eigh(sigma.values)
    return (u * np.sqrt(np.maximum(w, 0.0))) @ u.T, w.min()


def _draw_gaussian(root: np.ndarray, w_min: float, n: int, seed) -> Dataset:
    if w_min <= 0.0:
        raise ValueError("sample_gaussian requires a positive-definite covariance")
    key = seed if isinstance(seed, tuple) else (seed,)
    z = _rng(*key).standard_normal((n, root.shape[0]))
    return Dataset(z @ root, centered=False).center()


def sample_gaussian(sigma: SymmetricMatrix, n: int, seed) -> Dataset:
    """N mean-zero Gaussian draws through the symmetric square root, then
    column-centered. A single observation centers to the zero row and its
    sample covariance is the zero matrix (documented degenerate case)."""
    return _draw_gaussian(*_symmetric_root(sigma), n, seed)


# ---------------------------------------------------------------------------
# Library presets.
# ---------------------------------------------------------------------------

def pathway_library(m: int = 100, block_size: int = 20) -> CandidateLibrary:
    """Eight-candidate block-structured library: the two extrema, full
    within-block exchangeability, three tied cyclic orderings (natural plus
    two seeded permutations standing in for data-derived orderings), and the
    high-order Cartesian and wreath candidates."""
    if m % block_size:
        raise ValueError(f"block size {block_size} does not divide {m}")
    b = m // block_size
    return CandidateLibrary((
        groups.trivial(m),
        groups.full_symmetric(m),
        groups.block_symmetric(block_size, b),
        groups.tied_cyclic_blocks(block_size, b),
        groups.tied_cyclic_blocks(
            block_size, b, perm=groups.random_partition_perm(m, block_size, 101),
            name=f"z{block_size}-tied{b}-perm1"),
        groups.tied_cyclic_blocks(
            block_size, b, perm=groups.random_partition_perm(m, block_size, 102),
            name=f"z{block_size}-tied{b}-perm2"),
        groups.cartesian_power_shifts(block_size, b),
        groups.wreath_shifts(block_size, b),
    ))


def grid_library(height: int = 8, width: int = 8) -> CandidateLibrary:
    """Eight-candidate grid library: extrema, single-axis cyclics, the joint
    two-axis translation, the single-axis dihedral, independent per-row
    shifts, and the row-shift wreath."""
    m = height * width
    return CandidateLibrary((
        groups.trivial(m),
        groups.full_symmetric(m),
        groups.grid_cyclic(height, width, "row"),
        groups.grid_cyclic(height, width, "col"),
        groups.grid_translation2d(height, width),
        groups.grid_dihedral(height, width, "col"),
        groups.cartesian_power_shifts(width, height),
        groups.wreath_rowshift_rowcycle(height, width),
    ))


def build_decoy_library(m: int = 100, block_size: int = 20) -> list[GroupAction]:
    """Twelve decoys in four families: wrong-partition free permutation (3
    same-scale seeded partitions + 3 wrong scales), wrong-domain cyclic and
    Cartesian, wrong-scale wreaths, and a pure-noise random subgroup."""
    seeds = DECOY_SEEDS
    if m % block_size:
        raise ValueError(f"block size {block_size} does not divide {m}")
    decoys: list[GroupAction] = []
    # Family A: same algebraic shape, wrong partitions.
    for seed in seeds["same_scale"]:
        decoys.append(groups.decoy_random_partition_blocks(m, block_size, seed))
    wrong_scales = [(block_size // 2, seeds["scale_half"]),
                    (4, seeds["scale_small"]),
                    (m // 2, seeds["scale_big"])]
    for size, seed in wrong_scales:
        if size >= 2 and m % size == 0 and size != block_size:
            decoys.append(groups.decoy_random_partition_blocks(m, size, seed))
    # Family B: wrong-domain cyclic and Cartesian.
    decoys.append(groups.cyclic(m))
    decoys.append(groups.cartesian_power_shifts(
        block_size, m // block_size,
        perm=groups.random_partition_perm(m, block_size, seeds["cartesian"]),
        name=f"z{block_size}-{m // block_size}-cartesian-random-seed{seeds['cartesian']}"))
    decoys.append(groups.pairwise_z2_power(m))
    # Family C: wreaths at inverted scales.
    small = m // block_size
    decoys.append(groups.wreath_shifts(
        small, block_size, perm=groups.random_partition_perm(m, small, seeds["wreath_small"]),
        name=f"z{small}-wr-s{block_size}-seed{seeds['wreath_small']}"))
    decoys.append(groups.wreath_shifts(
        2, m // 2, perm=groups.random_partition_perm(m, 2, seeds["wreath_pairs"]),
        name=f"z2-wr-s{m // 2}-seed{seeds['wreath_pairs']}"))
    # Family D: pure noise.
    decoys.append(groups.decoy_random_subgroup_closure(m, 5, seeds["subgroup"]))
    return decoys


def pathway_library_with_decoys(m: int = 100, block_size: int = 20) -> CandidateLibrary:
    base = pathway_library(m, block_size)
    return CandidateLibrary(base.candidates + tuple(build_decoy_library(m, block_size)))


_PRESETS = {
    "pathway100": lambda: pathway_library(100, 20),
    "pathway100+decoys": lambda: pathway_library_with_decoys(100, 20),
    "grid8": lambda: grid_library(8, 8),
}


def parse_library_spec(text: str) -> CandidateLibrary:
    """A library given as preset:<name>, dir:<path>, or a semicolon list of
    group constructor strings."""
    text = text.strip()
    if text.startswith("preset:"):
        name = text.split(":", 1)[1]
        if name not in _PRESETS:
            raise ValueError(f"unknown library preset {name!r}; "
                             f"have {sorted(_PRESETS)}")
        return _PRESETS[name]()
    if text.startswith("dir:"):
        return CandidateLibrary(tuple(groups.read_library_dir(text.split(":", 1)[1])))
    return CandidateLibrary(tuple(parse_group_spec(tok) for tok in text.split(";") if tok.strip()))


# ---------------------------------------------------------------------------
# Monte Carlo oracles: variance components and blend risk.
# ---------------------------------------------------------------------------

def _raw_second_moment(root: np.ndarray, n: int, key) -> SymmetricMatrix:
    """Second moment (1/N) X^T X of draws X = Z root, not centered: the theory
    oracles below need E[R_hat] = Sigma exactly, which centering biases by (N-1)/N."""
    z = _rng(*key).standard_normal((n, root.shape[0]))
    return matrixcore.second_moment(z @ root)


def estimate_variance_components(sigma: SymmetricMatrix, g: GroupAction, n: int,
                                 trials: int, seed: int):
    """Monte Carlo estimates of V_in = E||P_G(R - Sigma)||_F^2 and
    V_perp = E||(I - P_G)(R - Sigma)||_F^2 with standard errors."""
    v_in = np.empty(trials)
    v_perp = np.empty(trials)
    root, _ = _symmetric_root(sigma)
    for t in range(trials):
        u = _raw_second_moment(root, n, (seed, "vc", t)).values - sigma.values
        u_in = reynolds_project(g, SymmetricMatrix(u)).values
        v_in[t] = np.sum(u_in**2)
        v_perp[t] = np.sum((u - u_in) ** 2)
    return (v_in.mean(), v_perp.mean(),
            v_in.std(ddof=1) / np.sqrt(trials), v_perp.std(ddof=1) / np.sqrt(trials))


def estimate_blend_risk(sigma: SymmetricMatrix, g: GroupAction, n: int,
                        alphas, trials: int, seed: int):
    """Monte Carlo E||blend(alpha) - Sigma||_F^2 at each alpha, with SEs.
    All alphas share each trial's draw (paired across the grid)."""
    alphas = np.asarray(alphas, dtype=float)
    risks = np.empty((trials, len(alphas)))
    root, _ = _symmetric_root(sigma)
    for t in range(trials):
        r_hat = _raw_second_moment(root, n, (seed, "risk", t))
        proj = reynolds_project(g, r_hat)
        for j, alpha in enumerate(alphas):
            blend = matrixcore.blend(r_hat, proj, alpha).values
            risks[t, j] = np.sum((blend - sigma.values) ** 2)
    return risks.mean(axis=0), risks.std(axis=0, ddof=1) / np.sqrt(trials)


# ---------------------------------------------------------------------------
# Nonlinear-shrinkage verification harness.
# ---------------------------------------------------------------------------

def run_mp_verification(c: float, spec: PopulationSpec, trials: int,
                        base_seed: int = 0) -> list[dict]:
    """PRIAL of the linear and nonlinear shrinkage estimators against the
    sample covariance under the spec's population at concentration M/N = c.

    PRIAL(E) = 1 - E||E - Sigma||_F^2 / E||R - Sigma||_F^2, expectations by
    Monte Carlo over paired draws; standard errors by the delta method for
    the ratio of means. At c >= 1 the N = round(M / c) centered rows have
    rank N - 1 < M: R is singular and LWNL takes its p > n branch.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"concentration ratio must be positive and finite, got {c}")
    n = round(spec.m / c)
    if n < 2:
        raise ValueError(f"concentration ratio {c} leaves {n} rows at m = {spec.m}, below 2")
    if trials < 10:
        raise ValueError("MP verification needs at least 10 trials")
    sigma, root = _population_with_root(spec)
    err = {name: np.empty(trials) for name in ("sample", "lw2004", "lwnl")}
    for t in range(trials):
        data = DataStats.of(_draw_gaussian(*root, n, (base_seed, "mp", t)))
        for name, fit in (("sample", data.r_hat), ("lw2004", shrinkage.lw2004_auto(data).matrix),
                          ("lwnl", shrinkage.lwnl(data).matrix)):
            err[name][t] = np.sum((fit.values - sigma.values) ** 2)
    rows = []
    base = err["sample"]
    for name in ("lw2004", "lwnl"):
        ratio = err[name].mean() / base.mean()
        cov = np.cov(err[name], base, ddof=1)
        var_ratio = (cov[0, 0] / base.mean()**2
                     + err[name].mean()**2 * cov[1, 1] / base.mean()**4
                     - 2 * err[name].mean() * cov[0, 1] / base.mean()**3) / trials
        rows.append({
            "estimator": name,
            "prial": 100.0 * (1.0 - ratio),
            "se": 100.0 * math.sqrt(max(var_ratio, 0.0)),
            "mean_err": err[name].mean(),
            "mean_err_sample": base.mean(),
            "trials": trials,
        })
    return rows


# ---------------------------------------------------------------------------
# The trial sweep.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    population: PopulationSpec
    library: CandidateLibrary
    n_list: tuple[int, ...]
    n_test: int = 200
    kappa: float = bmg_mod.DEFAULT_KAPPA
    grid_points: int = DEFAULT_GRID_POINTS
    folds: int = DEFAULT_FOLDS
    trials: int = 50
    base_seed: int = 1
    estimators: tuple[str, ...] = ESTIMATOR_ORDER

    def __post_init__(self) -> None:
        unknown = set(self.estimators) - set(ESTIMATOR_ORDER)
        if unknown:
            raise _FieldError(("estimators",), f"unknown estimator toggles {sorted(unknown)}")
        if not self.estimators:
            raise _FieldError(("estimators",), "sweep needs at least one estimator")
        repeated = sorted({e for e in self.estimators if self.estimators.count(e) > 1})
        if repeated:
            raise _FieldError(("estimators",), f"estimators {repeated} named more than once")
        # settings under which every trial would fail
        for key, ok, need in (("grid_points", self.grid_points >= 2, ">= 2"),
                              ("folds", self.folds >= 2, ">= 2"),
                              ("n_list", min(self.n_list, default=0) >= 1, "entries >= 1"),
                              ("n_test", self.n_test >= 2, ">= 2"),
                              ("trials", self.trials >= 1, ">= 1"),
                              ("base_seed", self.base_seed >= 0, ">= 0"),
                              ("kappa", 1.0 <= self.kappa < math.inf, "finite and >= 1")):
            if not ok:
                raise _FieldError((key,), f"sweep needs {key} {need}, got {getattr(self, key)}")
        wrong = [g.name for g in self.library.candidates if g.dim != self.population.m]
        if wrong:
            raise _FieldError(("library",),
                              f"library groups {wrong} do not act on m = {self.population.m}")


@dataclass
class TrialRecord:
    cell_n: int
    trial: int
    seed: int
    nll: dict
    frob: dict
    ad: BMGReport | None = None
    ad_lwnl: BMGReport | None = None
    choice_agree: bool | None = None
    error: str | None = None


TRIAL_CSV_COLUMNS = (
    ["cell_n", "trial", "seed"]
    + [f"nll_{e}" for e in ESTIMATOR_ORDER]
    + [f"frob_{e}" for e in ESTIMATOR_ORDER]
    + ["ad_selected", "ad_alpha", "ad_margin", "ad_delta", "ad_fallback",
       "adlwnl_selected", "adlwnl_alpha", "adlwnl_margin", "adlwnl_delta",
       "adlwnl_fallback", "choice_agree", "error"]
)


def _run_one_trial(config: SweepConfig, sigma: SymmetricMatrix,
                   root: tuple[np.ndarray, float], cell_idx: int, trial: int) -> TrialRecord:
    n = config.n_list[cell_idx]
    record = TrialRecord(cell_n=n, trial=trial, seed=config.base_seed,
                         nll={}, frob={})
    try:
        train = DataStats.of(_draw_gaussian(*root, n, (config.base_seed, cell_idx, trial, 0)))
        test = _draw_gaussian(*root, config.n_test, (config.base_seed, cell_idx, trial, 1))
        r_test = matrixcore.sample_covariance(test)
        wanted = set(config.estimators)
        selection = (config.library, config.kappa, config.grid_points, config.folds)
        fitted: dict[str, SymmetricMatrix] = {}
        if "sample" in wanted:
            fitted["sample"] = train.r_hat
        if "lw2004" in wanted:
            fitted["lw2004"] = shrinkage.lw2004_auto(train).matrix
        if "lwnl" in wanted and train.dof >= 1:   # undefined at dof 0: left empty
            fitted["lwnl"] = shrinkage.lwnl(train).matrix
        if wanted & {"ad_bmg", "shah_bmg"}:
            est_ad, record.ad = bmg_mod.bmg_with_fallback(train, *selection, use_lwnl=False)
            if "ad_bmg" in wanted:
                fitted["ad_bmg"] = est_ad.matrix
            if "shah_bmg" in wanted:
                fitted["shah_bmg"] = bmg_mod.shah_at_selected(
                    train, config.library, record.ad).matrix
        if "ad_lwnl_bmg" in wanted:
            est_lw, record.ad_lwnl = bmg_mod.bmg_with_fallback(train, *selection, use_lwnl=True)
            fitted["ad_lwnl_bmg"] = est_lw.matrix
        for name, matrix in fitted.items():
            record.nll[name] = (np.inf if name == "sample" and train.dof < sigma.dim
                                else matrixcore.gaussian_nll_per_sample(matrix, r_test))
            record.frob[name] = matrixcore.frobenius_norm(
                SymmetricMatrix.of_symmetric(matrix.values - sigma.values))
        if record.ad is not None and record.ad_lwnl is not None:
            record.choice_agree = (not record.ad.fallback_used
                                   and not record.ad_lwnl.fallback_used
                                   and record.ad.selected == record.ad_lwnl.selected)
    except Exception as exc:  # per-trial failures never abort the sweep
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def run_trial_sweep(config: SweepConfig, threads: int = 1):
    """Yield one TrialRecord per (cell, trial) in deterministic order.

    Trials are embarrassingly parallel; each owns its seeded stream, and
    emission is order-buffered so the output stream does not depend on the
    worker count.
    """
    sigma, root = _population_with_root(config.population)
    tasks = [(ci, t) for ci in range(len(config.n_list))
             for t in range(config.trials)]
    if threads <= 1:
        for ci, t in tasks:
            yield _run_one_trial(config, sigma, root, ci, t)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(lambda ct: _run_one_trial(config, sigma, root, *ct), tasks)


def trial_record_row(record: TrialRecord) -> str:
    fields = [record.cell_n, record.trial, record.seed]
    fields += [record.nll.get(e) for e in ESTIMATOR_ORDER]
    fields += [record.frob.get(e) for e in ESTIMATOR_ORDER]
    for rep in (record.ad, record.ad_lwnl):
        if rep is None:
            fields += [None] * 5
        else:
            fields += [rep.selected, rep.alpha, rep.bmg_margin, rep.delta, rep.fallback_used]
    fields += [record.choice_agree, record.error]
    return matrixcore.format_row(fields)


def write_trial_records_csv(path, records) -> None:
    """Streaming emission: flushed per record, so an interrupted run leaves
    a file truncated at a record boundary."""
    with open(path, "w") as fh:
        fh.write(matrixcore.format_row(TRIAL_CSV_COLUMNS) + "\n")
        for record in records:
            fh.write(trial_record_row(record) + "\n")
            fh.flush()


# ---------------------------------------------------------------------------
# Sweep configuration files: key=value lines, # comments.
# ---------------------------------------------------------------------------

# Config keys: key -> (field name, parser). An absent optional key leaves
# the field at its PopulationSpec / SweepConfig default.
_POPULATION_KEYS = {
    "m": ("m", int),
    "population": ("kind", str),
    "population_seed": ("base_seed", int),
    "population_group": ("group", parse_group_spec),
    "block_size": ("block_size", int),
    **{key: (key, float) for key in ("target_delta", "two_block_ratio", "two_block_split",
                                     "geometric_decay", "circulant_rho", "cross_block")},
}
_SWEEP_KEYS = {
    "library": ("library", parse_library_spec),
    "n_list": ("n_list", lambda val: tuple(int(tok) for tok in val.split(","))),
    "kappa": ("kappa", float),
    "estimators": ("estimators",
                   lambda val: tuple(tok.strip() for tok in val.split(",") if tok.strip())),
    **{key: (key, int) for key in ("n_test", "grid_points", "folds", "trials", "base_seed")},
}


def parse_sweep_config(path) -> SweepConfig:
    """A sweep config of key=value lines; a line that is not key=value, an
    unknown key, a repeated key, a value that does not parse, fails a check
    or leaves the population unbuildable, and a population key that the
    chosen kind does not read each raise ValueError naming its line. ``#``
    starts a comment only at the start of a line."""
    raw: dict[str, tuple[int, str]] = {}
    for no, line in matrixcore.read_csv_lines(path):
        key, sep, val = (part.strip() for part in line.partition("="))
        if line.startswith("#"):
            continue
        if not sep:
            raise ValueError(f"{path}:{no}: bad config line {line!r} (expected key=value)")
        if key in raw or key not in _POPULATION_KEYS | _SWEEP_KEYS:
            reason = "given twice" if key in raw else "unknown"
            raise ValueError(f"{path}:{no}: config key {key!r} {reason}")
        raw[key] = (no, val)
    for key in ("m", "library", "n_list"):
        if key not in raw:
            raise ValueError(f"sweep config missing required key {key!r}")

    def parsed(key, parse):
        no, val = raw[key]
        try:
            return parse(val)
        except ValueError as exc:
            raise ValueError(f"{path}:{no}: config key {key!r}: {exc}") from None

    def checked(make, keys: dict):
        """make(); a failed check names the line of the first of its fields given by a key."""
        try:
            return make()
        except _FieldError as exc:
            key_of = {field: key for key, (field, _) in keys.items()}
            for key in map(key_of.get, exc.fields):
                if key in raw:
                    raise ValueError(f"{path}:{raw[key][0]}: config key {key!r}: {exc}") from None
            raise ValueError(f"{path}: {exc}") from None

    def given(keys: dict) -> dict:
        return {field: parsed(key, parse) for key, (field, parse) in keys.items() if key in raw}

    population = checked(lambda: PopulationSpec(**given(_POPULATION_KEYS)), _POPULATION_KEYS)
    reads, _ = POPULATIONS[population.kind]
    for key, (field, _) in _POPULATION_KEYS.items():
        if key in raw and field not in ("m", "kind", *reads):
            raise ValueError(f"{path}:{raw[key][0]}: population {population.kind} "
                             f"would ignore config key {key!r}")
    # a population that cannot be built fails here, before any output file opens
    checked(lambda: make_population(population), _POPULATION_KEYS)
    return checked(lambda: SweepConfig(population=population, **given(_SWEEP_KEYS)), _SWEEP_KEYS)
