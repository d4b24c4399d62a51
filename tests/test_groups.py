import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcov import groups, synth
from symcov.groups import (
    GroupAction,
    GroupValidationError,
    brute_force_project,
    capped_order,
    decoy_random_partition_blocks,
    decoy_random_subgroup_closure,
    enumerate_group,
    orbit_partition,
    parse_group_spec,
    permutation_matrix,
    read_group_file,
    read_library_dir,
    reynolds_project,
    write_group_file,
)
from symcov.matrixcore import SymmetricMatrix


def rand_sym(rng, m):
    a = rng.standard_normal((m, m))
    return SymmetricMatrix(a + a.T)


def rand_psd(rng, m):
    a = rng.standard_normal((m, m))
    return SymmetricMatrix(a @ a.T / m)


# Small enumerable groups (M <= 8, |G| <= 48) used by the brute-force suites.
def small_groups():
    return [
        groups.trivial(3),
        groups.transposition(4, 0, 1),
        groups.cyclic(5),
        groups.cyclic(8),
        groups.grid_d4(2),
        groups.grid_klein(2, 4),
        groups.grid_dihedral(1, 8, "col"),
        groups.full_symmetric(4),
        groups.block_symmetric(2, 3),
        groups.cartesian_power_shifts(2, 3),
        groups.wreath_shifts(2, 2),
        groups.wreath_shifts(2, 3),
        groups.tied_cyclic_blocks(4, 2),
        groups.grid_translation2d(2, 4),
    ]


class TestValidation:
    @pytest.mark.parametrize("gens, shown", [
        (((0, 0, 1),), "[0, 0, 1]"),
        (((1, 0),), "[1, 0]"),
        (((1, 2, 0), (2, 0, 0), (0, 0, 0)), "[2, 0, 0]"),
        ((np.array([1, 2, 0]), np.array([0, 1, 2, 3])), "[0, 1, 2, 3]"),
    ], ids=["non-permutation", "wrong-length", "bad-after-valid", "ragged-arrays"])
    def test_non_permutation_generator_rejected(self, gens, shown):
        # the message names the first bad generator
        with pytest.raises(GroupValidationError,
                           match=re.escape(f"generator {shown} is not a permutation of 0..2")):
            GroupAction(name="bad", dim=3, generators=gens)

    def test_generator_containers_give_equal_actions(self):
        perms = [[1, 2, 0, 3], [0, 1, 3, 2]]
        forms = [perms, tuple(map(tuple, perms)), np.array(perms),
                 [np.array(p, dtype=np.int32) for p in perms]]
        actions = [GroupAction(name="g", dim=4, generators=f) for f in forms]
        assert all(a == actions[0] and hash(a) == hash(actions[0]) for a in actions)
        for a in actions:
            assert a.generators == ((1, 2, 0, 3), (0, 1, 3, 2))
            assert all(type(v) is int for gen in a.generators for v in gen)
            assert all(type(gen) is tuple for gen in a.generators)

    def test_closed_form_kinds_carry_no_generators(self):
        with pytest.raises(GroupValidationError):
            GroupAction(name="bad", dim=3, generators=((1, 2, 0),),
                        kind=groups.KIND_HAAR)


@st.composite
def generator_sets(draw):
    """Up to three generators on m <= 7 points. Each permutes a drawn subset
    of the points and fixes the rest; the last may repeat the first."""
    m = draw(st.integers(1, 7))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        moved = sorted(draw(st.sets(st.integers(0, m - 1))))
        perm = np.arange(m)
        perm[moved] = draw(st.permutations(moved))
        gens.append(perm)
    if len(gens) >= 2 and draw(st.booleans()):
        gens[-1] = gens[0].copy()
    return m, gens


def pair_union_find_partition(g):
    """n_classes, sym_class_of, d_g, sym_anchor and sym_counts from a plain
    union-find over the M^2 ordered pairs, joining every pair with its image
    under each generator. A pair whose points a generator fixes is its own
    image, so only pairs with a moved point are visited."""
    m = g.dim
    parent = list(range(m * m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in g.generators:
        moved = [i for i in range(m) if perm[i] != i]
        pairs = [(i, j) for i in moved for j in range(m)]
        pairs += [(i, j) for i in range(m) for j in moved]
        for i, j in pairs:
            parent[find(i * m + j)] = find(perm[i] * m + perm[j])
    ids, sym_ids, anchors = {}, {}, []
    class_of = np.array([ids.setdefault(find(x), len(ids)) for x in range(m * m)])
    class_of = class_of.reshape(m, m)
    sym_class_of = np.empty((m, m), dtype=int)
    for i in range(m):
        for j in range(m):
            key = min(class_of[i, j], class_of[j, i])
            if key not in sym_ids:
                anchors.append(i * m + j)
            sym_class_of[i, j] = sym_ids.setdefault(key, len(sym_ids))
    return (len(ids), sym_class_of, len(sym_ids), np.array(anchors),
            np.bincount(sym_class_of.ravel()))


class TestGroupActionHash:
    def test_equal_groups_built_separately_share_hash_and_partition(self):
        g, h = (decoy_random_subgroup_closure(100, 75, seed=7) for _ in range(2))
        assert g is not h and g == h and hash(g) == hash(h)
        assert orbit_partition(g) is orbit_partition(h)

    def test_hash_stays_with_the_fields(self):
        g = groups.cyclic(6)
        assert hash(g) == hash(g) == hash((g.name, g.dim, g.kind))
        assert hash(replace(g, name="other")) != hash(g)

    def test_same_fields_other_generators_are_other_groups(self):
        # the hash leaves the generators out; equality, and so every cache
        # keyed by the group, still tells the two apart
        g = groups.cyclic(6)
        h = replace(groups.transposition(6), name=g.name)
        assert hash(g) == hash(h) and g != h
        assert orbit_partition(g) is not orbit_partition(h)
        assert (orbit_partition(g).d_g, orbit_partition(h).d_g) == (4, 16)
        assert (capped_order(g, 100), capped_order(h, 100)) == (6, 2)

    def test_pickle_round_trip_carries_no_hash(self):
        g = groups.wreath_shifts(3, 4)
        hash(g)
        back = pickle.loads(pickle.dumps(g))
        assert "_hash" not in vars(back)
        assert back == g and hash(back) == hash(g)

    def test_pickle_from_another_process_rehashes(self):
        # string hashes are salted per process: a hash pickled by a process
        # with another seed would not match this process's equal group
        script = ("import pickle, sys; from symcov import groups; g = groups.cyclic(6); "
                  "hash(g); sys.stdout.buffer.write(pickle.dumps(g))")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                             env={**os.environ, "PYTHONHASHSEED": "12345"}).stdout
        back, here = pickle.loads(out), groups.cyclic(6)
        assert back == here and hash(back) == hash(here)


class TestCappedOrder:
    @settings(max_examples=60, deadline=None)
    @given(generator_sets(), st.integers(1, 30))
    def test_equals_capped_enumeration(self, case, cap):
        m, gens = case
        g = GroupAction(name="g", dim=m, generators=tuple(gens))
        assert capped_order(g, cap) == min(len(enumerate_group(gens, m)), cap)

    def test_closed_form_kinds(self):
        assert capped_order(groups.full_symmetric(4), 100) == 24
        assert capped_order(groups.full_symmetric(100), 7) == 7
        assert capped_order(groups.haar_orthogonal(4), 7) == 7
        assert capped_order(groups.trivial(4), 7) == 1

    @pytest.mark.parametrize("g,cap", [(groups.cyclic(12), 5), (groups.cyclic(12), 13),
                                       (groups.full_symmetric(6), 30),
                                       (groups.haar_orthogonal(3), 4)],
                             ids=["z12-cap5", "z12-cap13", "s6-cap30", "haar3-cap4"])
    def test_memoized_as_computed(self, g, cap):
        want = capped_order.__wrapped__(g, cap)
        assert capped_order(g, cap) == want
        hits = capped_order.cache_info().hits
        # an equal group built afresh reads the same entry
        assert capped_order(GroupAction(g.name, g.dim, g.generators, g.kind), cap) == want
        assert capped_order.cache_info().hits == hits + 1
        assert capped_order.cache_info().maxsize == 128


class TestOrbitPartition:
    def test_trivial_m3(self):
        part = orbit_partition(groups.trivial(3))
        assert part.n_classes == 9
        assert part.d_g == 6  # M(M+1)/2 with no merging beyond transposition

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 100])
    def test_full_symmetric_is_generator_based(self, m):
        g = groups.full_symmetric(m)
        assert g.kind == groups.KIND_GENERATOR and len(g.generators) == 2
        # compound symmetry: one diagonal class and one off-diagonal class
        assert orbit_partition(g).d_g == (2 if m >= 2 else 1)

    def test_class_invariance_under_generators(self):
        for g in small_groups():
            part = orbit_partition(g)
            for perm in g.generators:
                np.testing.assert_array_equal(
                    part.sym_class_of, part.sym_class_of[np.ix_(perm, perm)])

    def test_grid_anchor_values(self):
        # 8x8 grid anchors; each group carries two integer invariants, the
        # ordered-pair commutant dimension (n_classes) and its symmetric
        # restriction (d_g).
        lat = orbit_partition(groups.grid_cyclic(8, 8, "row"))
        assert (lat.n_classes, lat.d_g) == (512, 264)
        joint = orbit_partition(groups.grid_translation2d(8, 8))
        assert (joint.n_classes, joint.d_g) == (64, 34)
        cart = orbit_partition(groups.cartesian_power_shifts(8, 8))
        assert (cart.n_classes, cart.d_g) == (120, 68)
        wr = orbit_partition(groups.wreath_rowshift_rowcycle(8, 8))
        assert (wr.n_classes, wr.d_g) == (15, 9)

    def test_d_g_matches_enumeration_rank(self):
        # d_g equals the dimension of the span of projected symmetric basis
        # matrices, computed from the explicitly enumerated group.
        for g in small_groups():
            m = g.dim
            elements = enumerate_group(g.generators, m, cap=100)
            assert elements is not None and len(elements) <= 48
            mats = [permutation_matrix(p) for p in elements]
            basis_images = []
            for i in range(m):
                for j in range(i, m):
                    e = np.zeros((m, m))
                    e[i, j] = e[j, i] = 1.0
                    avg = sum(p @ e @ p.T for p in mats) / len(mats)
                    basis_images.append(avg.ravel())
            rank = np.linalg.matrix_rank(np.vstack(basis_images), tol=1e-10)
            assert orbit_partition(g).d_g == rank, g.name

    def test_closed_form_kinds_have_no_partition(self):
        with pytest.raises(GroupValidationError):
            orbit_partition(groups.haar_orthogonal(4))

    @settings(max_examples=80, deadline=None)
    @given(generator_sets())
    def test_classes_are_exactly_the_orbitals(self, case):
        # (a, b) and (c, d) share a merged class exactly when an enumerated
        # group element maps one to (c, d) or to (d, c); n_classes counts
        # the ordered orbitals
        m, gens = case
        part = orbit_partition(GroupAction(name="g", dim=m, generators=tuple(gens)))
        elements = np.array(enumerate_group(gens, m))
        images = (elements[:, :, None] * m + elements[:, None, :]).reshape(len(elements), -1)
        joined = np.zeros((m * m, m * m), dtype=bool)
        joined[np.arange(m * m), images] = True
        merged = joined | joined[:, np.arange(m * m).reshape(m, m).T.ravel()]
        flat = part.sym_class_of.ravel()
        np.testing.assert_array_equal(merged, flat[:, None] == flat[None, :])
        assert part.n_classes == len(np.unique(joined, axis=0))
        assert part.d_g == len(np.unique(merged, axis=0))

    @pytest.mark.parametrize("spec", ["preset:pathway100+decoys", "preset:grid8"])
    def test_library_partitions_match_pair_union_find(self, spec):
        for g in synth.parse_library_spec(spec).candidates:
            if g.kind not in (groups.KIND_GENERATOR, groups.KIND_TRIVIAL):
                continue
            part = orbit_partition(g)
            n_classes, sym_class_of, d_g, sym_anchor, sym_counts = pair_union_find_partition(g)
            np.testing.assert_array_equal(part.sym_class_of, sym_class_of, err_msg=g.name)
            np.testing.assert_array_equal(part.sym_anchor, sym_anchor, err_msg=g.name)
            np.testing.assert_array_equal(part.sym_counts, sym_counts, err_msg=g.name)
            assert (part.n_classes, part.d_g) == (n_classes, d_g), g.name

    @pytest.mark.parametrize("spec", ["preset:pathway100+decoys", "preset:grid8"])
    def test_chunked_joins_match_one_chunk(self, monkeypatch, spec):
        # orbit_partition compares its joins in chunks of _JOIN_ENTRIES
        # labels; one or three rows per chunk give the one-chunk result
        cands = [g for g in synth.parse_library_spec(spec).candidates
                 if g.kind == groups.KIND_GENERATOR]
        m = cands[0].dim

        def partitions(budget):
            monkeypatch.setattr(groups, "_JOIN_ENTRIES", budget)
            orbit_partition.cache_clear()
            return [orbit_partition(g) for g in cands]

        whole = partitions(1 << 40)
        for rows in (1, 3):
            for g, want, got in zip(cands, whole, partitions(rows * m)):
                for field in fields(groups.OrbitPartition):
                    a, b = getattr(want, field.name), getattr(got, field.name)
                    if isinstance(a, np.ndarray):
                        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                            (g.name, rows, field.name)
                    else:
                        assert type(a) is type(b) and a == b, (g.name, rows, field.name)
        orbit_partition.cache_clear()

    @pytest.mark.parametrize("g, orbits", [(groups.block_symmetric(20, 5), 5),
                                           (groups.cyclic(100), 1), (groups.trivial(6), 6)],
                             ids=["block-s20x5", "z100", "trivial-6"])
    def test_pair_union_find_has_one_node_per_label(self, monkeypatch, g, orbits):
        # the points' union-find has M nodes; the pairs' has one row of M
        # labels per orbit, not M^2
        sizes = []
        components = groups._components

        def spy(n, a, b):
            sizes.append(n)
            return components(n, a, b)

        monkeypatch.setattr(groups, "_components", spy)
        orbit_partition.__wrapped__(g)   # uncached, so the union-finds run
        assert sizes == [g.dim, orbits * g.dim]

    def test_cli_import_leaves_scipy_sparse_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, symcov.cli; sys.exit('scipy.sparse' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def pathway_decoys():
    return synth.parse_library_spec("preset:pathway100+decoys")


def _symmetrized_class_means(g, a):
    """Each entry replaced by its merged class's anchored mean, with the
    class counts recounted and the result passed through the symmetrizing
    SymmetricMatrix constructor."""
    part = orbit_partition(g)
    flat_class = part.sym_class_of.ravel()
    flat_vals = a.values.ravel()
    anchors = flat_vals[part.sym_anchor]
    dev = flat_vals - anchors[flat_class]
    counts = np.bincount(flat_class, minlength=part.d_g)
    means = anchors + np.bincount(flat_class, weights=dev, minlength=part.d_g) / counts
    return SymmetricMatrix(means[flat_class].reshape(a.dim, a.dim))


class TestReynoldsProject:
    def test_bitwise_equal_to_symmetrized_class_means(self, pathway_decoys):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((150, 100))
        for a in (rand_sym(rng, 100), SymmetricMatrix(x.T @ x / len(x))):
            for g in pathway_decoys.candidates:
                got = reynolds_project(g, a)
                assert np.array_equal(got.values, _symmetrized_class_means(g, a).values), g.name
                assert not got.values.flags.writeable

    def test_non_finite_class_mean_rejected(self):
        # the diagonal class sums two deviations of -1.78e308
        a = SymmetricMatrix(np.diag([8.9e307, -8.9e307, -8.9e307]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            reynolds_project(groups.cyclic(3), a)

    def test_identity_is_invariant(self):
        for g in (groups.cyclic(5), groups.full_symmetric(5),
                  groups.haar_orthogonal(5), groups.trivial(5)):
            out = reynolds_project(g, SymmetricMatrix(np.eye(5)))
            np.testing.assert_allclose(out.values, np.eye(5), atol=1e-15)

    def test_trivial_returns_input_bitwise(self):
        a = rand_sym(np.random.default_rng(12), 7)
        assert np.array_equal(reynolds_project(groups.trivial(7), a).values, a.values)

    def test_haar_is_scaled_identity(self):
        a = SymmetricMatrix(np.diag([1.0, 2.0, 3.0]))  # trace 6
        out = reynolds_project(groups.haar_orthogonal(3), a)
        np.testing.assert_array_equal(out.values, 2.0 * np.eye(3))

    def test_z2_swap_two_term_average(self):
        # explicit (A + P A P^T)/2 for the 0<->1 swap
        g = groups.transposition(2, 0, 1)
        a = SymmetricMatrix(np.array([[1.0, 0.0], [0.0, 3.0]]))
        out = reynolds_project(g, a)
        np.testing.assert_allclose(out.values, [[2.0, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_full_symmetric_compound(self):
        a = SymmetricMatrix(np.array([[1.0, 0.5, 0.1],
                                      [0.5, 2.0, 0.3],
                                      [0.1, 0.3, 3.0]]))
        out = reynolds_project(groups.full_symmetric(3), a)
        assert np.allclose(np.diag(out.values), 2.0)
        off = out.values[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.3)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(10)
        for g in small_groups():
            a = rand_sym(rng, g.dim)
            got = reynolds_project(g, a)
            want = brute_force_project(g, a)
            np.testing.assert_allclose(got.values, want.values, atol=1e-12)

    def test_projection_properties(self):
        rng = np.random.default_rng(11)
        cases = [groups.trivial(6), groups.transposition(6), groups.cyclic(6),
                 groups.grid_d4(3), groups.grid_klein(2, 3),
                 groups.full_symmetric(6), groups.haar_orthogonal(6),
                 groups.cartesian_power_shifts(3, 2), groups.wreath_shifts(3, 2)]
        for g in cases:
            for _ in range(10):
                a = rand_sym(rng, g.dim)
                b = rand_sym(rng, g.dim)
                pa = reynolds_project(g, a)
                # idempotence
                np.testing.assert_allclose(
                    reynolds_project(g, pa).values, pa.values, atol=1e-12)
                # orthogonality of the residual against the image
                pb = reynolds_project(g, b)
                cross = np.sum((a.values - pa.values) * pb.values)
                scale = np.linalg.norm(a.values, "fro") * np.linalg.norm(b.values, "fro")
                assert abs(cross) <= 1e-10 * scale
                # trace preservation and contraction
                assert np.trace(pa.values) == pytest.approx(np.trace(a.values), abs=1e-12)
                assert np.linalg.norm(pa.values, "fro") <= np.linalg.norm(a.values, "fro") + 1e-12
            psd = rand_psd(rng, g.dim)
            w = np.linalg.eigvalsh(reynolds_project(g, psd).values)
            assert w.min() >= -1e-10 * np.linalg.eigvalsh(psd.values).max()

    def test_generator_invariance(self):
        rng = np.random.default_rng(12)
        for g in small_groups():
            if not g.generators:
                continue
            a = rand_sym(rng, g.dim)
            pa = reynolds_project(g, a).values
            for perm in g.generators:
                p = permutation_matrix(perm)
                np.testing.assert_allclose(p @ pa @ p.T, pa, atol=1e-12)


class TestConstructors:
    def test_wreath_generator_counts_and_order(self):
        g = groups.wreath_shifts(5, 11)
        assert g.dim == 55
        assert len(g.generators) == 11 + 2  # shifts plus the block cycle and one block swap
        assert capped_order(g, 1000) == 1000   # |G| = 5^11 * 11!

    def test_shift_constructor_generators(self):
        assert groups.cyclic(5).generators == ((1, 2, 3, 4, 0),)
        assert groups.grid_cyclic(2, 3, "col").generators == ((1, 2, 0, 4, 5, 3),)
        assert groups.pairwise_z2_power(4).generators == ((1, 0, 2, 3), (0, 1, 3, 2))
        assert [g.name for g in (groups.cyclic(5), groups.grid_cyclic(2, 3, "col"),
                                 groups.pairwise_z2_power(4))] \
            == ["z5-flat", "z3-cols-2x3", "z2-2-cartesian"]
        with pytest.raises(GroupValidationError):
            groups.pairwise_z2_power(5)

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("k, b", [(1, 3), (3, 1), (2, 3), (4, 5), (20, 5)])
    def test_array_constructors_match_loop_reference(self, k, b, seed):
        # the constructors fill generator arrays in one pass; the per-block
        # and per-cell loops below are the reference they must equal. The
        # symmetric factors are generated by a cycle and one swap; the
        # adjacent transpositions and adjacent block swaps they replace
        # generate the same groups (every orbit-partition field and the
        # capped order agree).
        m = k * b
        perm = None if seed is None else groups.random_partition_perm(m, k, seed)
        slots = np.arange(m).reshape(b, k) if perm is None else perm.reshape(b, k)
        tail = "" if seed is None else f":{seed}"

        def with_cycles(cycles):
            p = list(range(m))
            for src, dst in cycles:
                for i, j in zip(np.ravel(src), np.ravel(dst)):
                    p[i] = int(j)
            return tuple(p)

        def assert_same_group(got, ref):
            want = orbit_partition(ref)
            for field in fields(want):
                np.testing.assert_array_equal(getattr(orbit_partition(got), field.name),
                                              getattr(want, field.name), strict=True)
            caps = (1, 2, 5, 30, 200)
            assert [capped_order(got, c) for c in caps] == [capped_order(ref, c) for c in caps]

        shifts = [with_cycles([(slots[i], np.roll(slots[i], -1))]) for i in range(b)]
        swaps = [with_cycles([(slots[i], slots[i + 1]), (slots[i + 1], slots[i])])
                 for i in range(b - 1)]
        transp = [with_cycles([(slots[i, [s, s + 1]], slots[i, [s + 1, s]])])
                  for i in range(b) for s in range(k - 1)]
        cycle_swap = [gen for i in range(b)
                      for gen in (shifts[i], with_cycles([(slots[i, :2], slots[i, 1::-1])]))]
        block_cycle_swap = [with_cycles([(slots[i], slots[(i + 1) % b]) for i in range(b)]),
                            with_cycles([(slots[:2], slots[1::-1])])]
        tied = with_cycles([(slots[i], np.roll(slots[i], -1)) for i in range(b)])
        assert groups.cartesian_power_shifts(k, b, perm).generators == tuple(shifts)
        assert groups.tied_cyclic_blocks(k, b, perm).generators == (tied,)
        block_specs = [f"block:{k}x{b}{tail}"] + ([] if seed is None else
                                                 [f"random-block:{k}x{b}:{seed}"])
        for spec in block_specs:
            g = parse_group_spec(spec)
            assert g.generators == tuple(cycle_swap), spec
            assert_same_group(g, GroupAction(name="adjacent", dim=m, generators=transp))
        wreath = parse_group_spec(f"wreath:{k}x{b}{tail}")
        assert wreath.generators == tuple(shifts + block_cycle_swap)
        assert_same_group(wreath, GroupAction(name="adjacent", dim=m, generators=shifts + swaps))

        def cells(fn):
            return tuple(fn(r, c)[0] * k + fn(r, c)[1] for r in range(b) for c in range(k))

        rowcycle = cells(lambda r, c: ((r + 1) % b, c))
        assert groups.grid_cyclic(b, k, "row").generators == (rowcycle,)
        assert groups.grid_klein(b, k).generators == (
            cells(lambda r, c: (r, k - 1 - c)), cells(lambda r, c: (b - 1 - r, c)))
        assert groups.grid_dihedral(b, k, "row").generators == (
            rowcycle, cells(lambda r, c: (b - 1 - r, c)))
        assert groups.wreath_rowshift_rowcycle(b, k).generators[-1] == rowcycle
        assert groups.grid_d4(k).generators == tuple(
            tuple(f(r, c)[0] * k + f(r, c)[1] for r in range(k) for c in range(k))
            for f in (lambda r, c: (c, k - 1 - r), lambda r, c: (c, r)))

    def test_direct_product_dim_mismatch(self):
        with pytest.raises(Exception):
            groups.direct_product(groups.cyclic(4), groups.cyclic(5))

    def test_block_layout_must_divide(self):
        with pytest.raises(GroupValidationError):
            decoy_random_partition_blocks(10, 3, seed=1)


class TestDecoys:
    def test_random_partition_determinism(self):
        a = decoy_random_partition_blocks(100, 20, seed=1)
        b = decoy_random_partition_blocks(100, 20, seed=1)
        assert a.generators == b.generators
        c = decoy_random_partition_blocks(100, 20, seed=2)
        assert c.generators != a.generators

    def test_random_partition_small_case_enumeration(self):
        # m=4 in blocks of 2: the action is S2 x S2 on some pairing.
        # Ordered-pair orbits: 2 diagonal classes, 2 within-block off-diagonal
        # classes, and 2 cross-block classes that merge to 1 under transpose,
        # giving d_g = 5; checked against explicit enumeration.
        g = decoy_random_partition_blocks(4, 2, seed=3)
        elements = enumerate_group(g.generators, 4, cap=100)
        assert len(elements) == 4
        part = orbit_partition(g)
        assert part.n_classes == 6
        assert part.d_g == 5
        rng = np.random.default_rng(13)
        a = rand_sym(rng, 4)
        np.testing.assert_allclose(reynolds_project(g, a).values,
                                   brute_force_project(g, a).values, atol=1e-13)

    def test_random_partition_m100_class_structure(self):
        # 5 blocks of 20: per-block diagonal and off-diagonal classes (10)
        # plus 10 unordered cross-block classes.
        g = decoy_random_partition_blocks(100, 20, seed=1)
        part = orbit_partition(g)
        assert part.d_g == 20
        assert part.n_classes == 30

    def test_subgroup_closure_cap_and_probe(self):
        g = decoy_random_subgroup_closure(100, 5, seed=42)
        assert g.kind == groups.KIND_GENERATOR
        assert len(g.generators) == 5
        assert capped_order(g, 1000) == 1000
        # a tame draw is counted exactly
        h = decoy_random_subgroup_closure(6, 1, seed=0)
        assert capped_order(h, 1000) == len(enumerate_group(h.generators, 6)) == 5

    def test_subgroup_closure_zero_generators_is_trivial(self):
        g = decoy_random_subgroup_closure(10, 0, seed=5)
        assert g == groups.trivial(10)

    def test_subgroup_closure_reproducible(self):
        a = decoy_random_subgroup_closure(50, 3, seed=9)
        b = decoy_random_subgroup_closure(50, 3, seed=9)
        assert a.generators == b.generators

    def test_seeded_streams_are_unchanged(self):
        # fixed values: a change to a stream's key or construction would move
        # every seeded decoy and every sweep
        perm = groups.random_partition_perm(100, 20, 1)
        assert perm[:8].tolist() == [52, 12, 29, 85, 5, 4, 72, 67]
        first = decoy_random_subgroup_closure(100, 5, seed=42).generators[0]
        assert first[:8] == (70, 96, 4, 27, 13, 74, 9, 44)
        assert groups._rng(1, "pop", 4).standard_normal(3).tolist() == [
            -1.0231839071532354, 0.4499314568788782, 0.9400518041432813]


class TestGroupFiles:
    def test_round_trip(self, tmp_path):
        g = groups.wreath_shifts(3, 2)
        path = tmp_path / "wreath.grp"
        write_group_file(path, g)
        back = read_group_file(path)
        assert back == g
        # order lines written by older versions are ignored like any unknown key
        with open(path, "a") as fh:
            fh.write("order_description=9\norder_lower_bound=0\n")
        assert read_group_file(path) == g

    def test_repeated_unknown_key_stays_ignored(self, tmp_path):
        path = tmp_path / "z4.grp"
        write_group_file(path, groups.cyclic(4))
        with open(path, "a") as fh:
            fh.write("order_lower_bound=4\norder_lower_bound=4\n")
        assert read_group_file(path) == groups.cyclic(4)

    @pytest.mark.parametrize("kind,build", [("full_symmetric", groups.full_symmetric),
                                            ("trivial", groups.trivial)])
    def test_legacy_kinds_read_as_generator_groups(self, tmp_path, kind, build):
        path = tmp_path / "legacy.grp"
        path.write_text(f"name=legacy\ndim=5\nkind={kind}\n")
        back = read_group_file(path)
        assert back == replace(build(5), name="legacy")
        assert back.kind == groups.KIND_GENERATOR

    def test_library_dir_sorted(self, tmp_path):
        write_group_file(tmp_path / "b.grp", groups.cyclic(4))
        write_group_file(tmp_path / "a.grp", groups.trivial(4))
        lib = read_library_dir(tmp_path)
        assert [g.name for g in lib] == ["trivial-4", "z4-flat"]

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("name=x\n0,1\n")
        with pytest.raises(ValueError):
            read_group_file(path)


class TestParseGroupSpec:
    @pytest.mark.parametrize("spec,expected_dim", [
        ("trivial:7", 7),
        ("full-symmetric:5", 5),
        ("haar:6", 6),
        ("cyclic:9", 9),
        ("grid-cyclic:2x3:row", 6),
        ("grid-translation:2x3", 6),
        ("klein:2x2", 4),
        ("d4:3", 9),
        ("rot4:2", 4),
        ("block:4x3", 12),
        ("cartesian:4x3", 12),
        ("wreath:4x3", 12),
        ("tied-cyclic:4x3", 12),
        ("wreath-rows:3x4", 12),
        ("z2-pairs:8", 8),
        ("random-block:5x4:7", 20),
        ("random-subgroup:10:2:3", 10),
        ("grid-dihedral:2x3", 6),
        ("grid-dihedral:2x3:row", 6),
        ("block:4x3:7", 12),
        ("tied-cyclic:4x3:7", 12),
        ("cartesian:4x3:7", 12),
    ])
    def test_constructors(self, spec, expected_dim):
        assert parse_group_spec(spec).dim == expected_dim

    @pytest.mark.parametrize("spec", [
        "trivial:3:9", "cyclic:4:junk", "haar:4:x", "random-subgroup:10:2:3:1000",
        "wreath:4x3:7:1", "grid-dihedral:2x3:row:1",
    ])
    def test_surplus_fields_rejected(self, spec):
        with pytest.raises(GroupValidationError, match="at most"):
            parse_group_spec(spec)

    def test_seeded_block_spec_reproducible(self):
        a = parse_group_spec("wreath:5x4:9")
        b = parse_group_spec("wreath:5x4:9")
        assert a.generators == b.generators
        assert "seed9" in a.name

    def test_unknown_spec(self):
        with pytest.raises(GroupValidationError):
            parse_group_spec("frobnicate:3")

    def test_every_constructor_documented(self):
        def heads(grammar):
            return {tok.split(":")[0] for tok in re.split(r"[|\s]+", grammar) if ":" in tok}

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        readme_grammar = readme.split("constructor strings:\n\n```\n", 1)[1].split("```", 1)[0]
        doc_grammar = parse_group_spec.__doc__.split("HxW):", 1)[1].split("A trailing", 1)[0]
        assert heads(readme_grammar) == set(groups._SPEC_CONSTRUCTORS)
        assert heads(doc_grammar) == set(groups._SPEC_CONSTRUCTORS)
