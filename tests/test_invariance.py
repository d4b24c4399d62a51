"""Invariance properties every estimator must have, checked without an
oracle: relabelling the coordinates, scaling the rows, rotating them, and
reordering the rows inside each fold. Each runs over small random cases and
on the pathway preset at fixed seeds. The random cases are derandomized, so
tier-1 sees the same examples on every run."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcov import groups, shrinkage, synth
from symcov.bmg import BMGReport, CandidateLibrary, bmg_with_fallback
from symcov.calibration import DEFAULT_FOLDS, DEFAULT_GRID_POINTS, DataStats
from symcov.matrixcore import Dataset

properties = settings(max_examples=25, deadline=None, derandomize=True)

# (m, n, seed) for the random cases. Every training fold keeps at least 2m
# rows of a population with eigenvalues in [1, 4], so every blend is well
# conditioned. With fewer rows, gaussian_nll_per_sample scores singular
# blends from rounding-level eigenvalues, and such scores do not agree to
# 1e-12 under these transformations.
cases = st.integers(2, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(3 * m + 2, 8 * m), st.integers(0, 2**32 - 1)))


def random_data(m: int, n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    root = (q * np.sqrt(rng.uniform(1.0, 4.0, m))) @ q.T
    return Dataset(rng.standard_normal((n, m)) @ root).center()


def small_library(m: int, seed: int) -> CandidateLibrary:
    """Candidates of every kind on m points: groups sharing one partition
    (at m = 2), a seeded random one and the Haar average."""
    cands = [groups.trivial(m), groups.full_symmetric(m), groups.cyclic(m),
             groups.transposition(m), groups.decoy_random_subgroup_closure(m, 1, seed),
             groups.haar_orthogonal(m)]
    if m % 2 == 0:
        cands.append(groups.block_symmetric(2, m // 2))
    return CandidateLibrary(tuple(cands))


@pytest.fixture(scope="module")
def pathway():
    """The pathway preset with its decoys, and block-circulant draws at N = 10 and 50."""
    sigma = synth.block_circulant_population(100, 20, 0.5, 0.1)
    return (synth.parse_library_spec("preset:pathway100+decoys"),
            [synth.sample_gaussian(sigma, n, (3,)) for n in (10, 50)])


def conjugate(g: groups.GroupAction, p: np.ndarray) -> groups.GroupAction:
    """g acting on the columns of X[:, p], whose index j is X's index p[j]."""
    inv = np.argsort(p)
    return replace(g, generators=tuple(inv[np.asarray(gen)[p]] for gen in g.generators))


def assert_scores_close(got: np.ndarray, want: np.ndarray, m: int, shift: float = 0.0) -> list:
    """Scores within m nats of the lowest of ``want`` equal to 1e-12 relative
    after subtracting ``shift`` from ``got``; the others stay above that band.
    They are near-singular blends, scored to a rounding error that grows with
    their condition number. Returns the band's mask."""
    got = np.asarray(got) - shift
    band = want <= want.min() + m
    np.testing.assert_allclose(got[band], want[band], rtol=1e-12, atol=1e-12 * abs(shift))
    assert (got[~band] > want.min() + m).all()
    return band


def assert_reports_close(got: BMGReport, want: BMGReport, m: int, shift: float = 0.0) -> None:
    """The same selection and alpha, and the same Tier-2 scores and alphas
    in the band of ``assert_scores_close``."""
    assert (got.selected, got.fallback_used) == (want.selected, want.fallback_used)
    assert got.alpha == pytest.approx(want.alpha, rel=1e-12)
    names = list(want.tier2_scores)
    assert list(got.tier2_scores) == names
    if names:
        band = assert_scores_close([got.tier2_scores[k] for k in names],
                                   np.array([want.tier2_scores[k] for k in names]), m, shift)
        assert [got.tier2_alphas[k] for k, b in zip(names, band) if b] \
            == [want.tier2_alphas[k] for k, b in zip(names, band) if b]


def assert_relabelling(data: Dataset, lib: CandidateLibrary, p: np.ndarray,
                       use_lwnl: bool) -> None:
    est, report = bmg_with_fallback(data, lib, use_lwnl=use_lwnl)
    lib_p = CandidateLibrary(tuple(conjugate(g, p) for g in lib.candidates))
    est_p, report_p = bmg_with_fallback(Dataset(data.rows[:, p], centered=True), lib_p,
                                        use_lwnl=use_lwnl)
    assert_reports_close(report_p, report, data.dim)
    want = est.matrix.values[np.ix_(p, p)]
    np.testing.assert_allclose(est_p.matrix.values, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def assert_scaling(data: Dataset, lib: CandidateLibrary, c: float, use_lwnl: bool) -> None:
    est, report = bmg_with_fallback(data, lib, use_lwnl=use_lwnl)
    est_c, report_c = bmg_with_fallback(Dataset(data.rows * c, centered=True), lib,
                                        use_lwnl=use_lwnl)
    assert_reports_close(report_c, report, data.dim, data.dim * math.log(c))
    np.testing.assert_allclose(est_c.matrix.values / c**2, est.matrix.values, rtol=0,
                               atol=1e-12 * np.abs(est.matrix.values).max())


def assert_row_order(data: Dataset, lib: CandidateLibrary, seed: int, use_lwnl: bool) -> None:
    """Rows shuffled inside each of the min(folds, N) contiguous folds, whose
    bounds are written out here rather than read from the package. The
    shuffled rows score the library in the opposite order, so fold scores
    that leak between groups through a shared cache key show as well."""
    n, k = data.n_obs, min(DEFAULT_FOLDS, data.n_obs)
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(block)
                            for block in np.array_split(np.arange(n), k)])
    stats, shuffled = DataStats.of(data), DataStats(data.rows[order], centered=True)
    cands = lib.candidates
    want = np.array([stats.fold_scores(k, g, DEFAULT_GRID_POINTS, use_lwnl) for g in cands])
    got = np.array([shuffled.fold_scores(k, g, DEFAULT_GRID_POINTS, use_lwnl)
                    for g in reversed(cands)][::-1])
    for fold in range(k):   # every group's scores on one fold share one band
        assert_scores_close(got[:, fold].ravel(), want[:, fold].ravel(), data.dim)


class TestRelabelling:
    @properties
    @given(cases, st.booleans())
    def test_small(self, case, use_lwnl):
        m, n, seed = case
        p = np.random.default_rng(seed + 1).permutation(m)
        assert_relabelling(random_data(m, n, seed), small_library(m, seed), p, use_lwnl)

    @pytest.mark.parametrize("use_lwnl", [False, True])
    def test_pathway(self, pathway, use_lwnl):
        lib, draws = pathway
        p = np.random.default_rng(5).permutation(100)
        for data in draws:
            assert_relabelling(data, lib, p, use_lwnl)


class TestScale:
    @properties
    @given(cases, st.sampled_from([2.0**-20, 1e-100, 1e100]), st.booleans())
    def test_small(self, case, c, use_lwnl):
        m, n, seed = case
        assert_scaling(random_data(m, n, seed), small_library(m, seed), c, use_lwnl)

    @pytest.mark.parametrize("c", [2.0**-20, 1e-100, 1e100])
    def test_pathway(self, pathway, c):
        lib, draws = pathway
        for data in draws:
            assert_scaling(data, lib, c, use_lwnl=c > 1)

    @pytest.mark.parametrize("c", [2.0**-20, 1e-100, 1e100])
    def test_pathway_fallback(self, pathway, c):
        # only the trivial group, which N = 10 rows cannot admit: LW2004
        _, draws = pathway
        assert_scaling(draws[0], CandidateLibrary((groups.trivial(100),)), c, use_lwnl=False)


class TestRotation:
    @properties
    @given(cases)
    def test_rotation_equivariant_estimators(self, case):
        m, n, seed = case
        data = random_data(m, n, seed)
        q, _ = np.linalg.qr(np.random.default_rng(seed + 2).standard_normal((m, m)))
        rotated = Dataset(data.rows @ q, centered=True)
        for fit in (shrinkage.sample_estimator, shrinkage.lw2004_auto, shrinkage.lwnl):
            want = q.T @ fit(data).matrix.values @ q
            np.testing.assert_allclose(fit(rotated).matrix.values, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max(), err_msg=fit.__name__)


class TestRowOrderWithinFolds:
    @properties
    @given(cases, st.booleans())
    def test_small(self, case, use_lwnl):
        m, n, seed = case
        assert_row_order(random_data(m, n, seed), small_library(m, seed), seed, use_lwnl)

    @pytest.mark.parametrize("use_lwnl", [False, True])
    def test_pathway(self, pathway, use_lwnl):
        lib, draws = pathway
        for data in draws:
            assert_row_order(data, lib, 7, use_lwnl)


@pytest.mark.xfail(strict=True, reason=(
    "gaussian_nll_per_sample accepts a smallest Cholesky pivot down to "
    "PIVOT_RTOL = 1e-12 of the largest, so singular blends score from rounding "
    "noise (FOUND on matrixcore.PIVOT_RTOL in CHANGES.md): fold 2 scores "
    "[inf, 28.92, inf, -41.83, 3.41] at alpha = 0..4/12, relabelled "
    "[inf, inf, inf, inf, -19.15]"))
def test_relabelling_keeps_fold_scores_of_three_rank_deficient_rows():
    rng = np.random.default_rng(29)
    data = Dataset(rng.standard_normal((3, 6)) @ rng.standard_normal((6, 6))).center()
    g, p = groups.block_symmetric(2, 3), np.random.default_rng(30).permutation(6)
    want = DataStats.of(data).fold_scores(3, g, DEFAULT_GRID_POINTS, False)
    got = DataStats(data.rows[:, p], centered=True).fold_scores(3, conjugate(g, p),
                                                                DEFAULT_GRID_POINTS, False)
    assert_scores_close(got[2], want[2], data.dim)
