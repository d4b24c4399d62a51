"""Finite permutation-group actions, orbit-pair partitions, and the Reynolds
projection onto the commutant algebra.

Every permutation group, the trivial group and the full symmetric group
included, is carried by generators and is never enumerated for projection:
the orbit partition of ordered index pairs under (i, j) -> (g(i), g(j)) is
computed from a transversal of the point orbits and one union-find, in O(M^2)
memory and O(M^2) work per generator regardless of group order. A wreath
product of order 1e32 projects exactly as fast as a single transposition.

The one other kind is the Haar average over the orthogonal group, which has
no generators and projects by a closed form (scaled identity).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace

import numpy as np

from . import matrixcore
from .matrixcore import DimensionMismatchError, SymmetricMatrix

KIND_GENERATOR = "generator_based"
KIND_HAAR = "haar_orthogonal"
# Kind values of group files written by older versions; read_group_file
# builds these groups from generators.
KIND_TRIVIAL = "trivial"
KIND_FULL_SYMMETRIC = "full_symmetric"

_KINDS = (KIND_GENERATOR, KIND_HAAR)


class GroupValidationError(ValueError):
    """A generator is not a permutation, or kind and generator fields disagree."""


Perm = tuple[int, ...]


def _as_perm(gen, m: int) -> Perm:
    arr = np.asarray(gen, dtype=int)
    if arr.shape != (m,) or not np.array_equal(np.sort(arr), np.arange(m)):
        raise GroupValidationError(f"generator {arr.tolist()} is not a permutation of 0..{m - 1}")
    return tuple(arr.tolist())


def _as_perms(gens, m: int) -> tuple[Perm, ...]:
    """Every generator as a tuple of ints, checked in one stacked sort; when
    the stack is not a set of permutations, the first bad generator raises
    through ``_as_perm``."""
    try:
        arr = np.asarray(gens, dtype=int)
    except (TypeError, ValueError):   # ragged, or not integers
        arr = None
    if arr is not None and arr.shape == (len(gens), m) and (np.sort(arr, axis=1) == np.arange(m)).all():
        return tuple(map(tuple, arr.tolist()))
    return tuple(_as_perm(gen, m) for gen in gens)


@dataclass(frozen=True)
class GroupAction:
    """A finite group acting on indices {0..M-1}.

    ``generators`` are index arrays with g[i] = image of i, so the matrix
    action is A -> P A P^T with P[g[i], i] = 1. The group order is never
    stored: ``capped_order`` counts it from the generators up to the cap a
    caller needs.
    """

    name: str
    dim: int
    generators: tuple[Perm, ...] = ()
    kind: str = KIND_GENERATOR

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise GroupValidationError(f"unknown group kind {self.kind!r}")
        if self.dim < 1:
            raise GroupValidationError("group dimension must be >= 1")
        gens = _as_perms(tuple(self.generators), self.dim)
        if self.kind == KIND_HAAR and gens:
            raise GroupValidationError(f"kind {self.kind} carries no generators")
        object.__setattr__(self, "generators", gens)

    def __hash__(self) -> int:
        # hashed once per instance: the generators are hashed on every
        # orbit_partition cache lookup otherwise
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash((self.name, self.dim, self.generators, self.kind))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # string hashes are salted per process, so a pickle carries no hash
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def generator_arrays(self) -> list[np.ndarray]:
        return [np.array(g, dtype=int) for g in self.generators]


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of ordered index pairs (i, j) into orbits of the conjugation
    action, plus the symmetric merge of each class with its transpose.

    ``n_classes`` is the ordered-pair class count, i.e. the dimension of the
    full commutant algebra. ``d_g`` counts classes after merging (i, j) with
    (j, i): the dimension of the commutant restricted to symmetric matrices,
    which is the quantity the estimation theory runs on. Both are retained
    because group catalogues quote either one depending on context.
    """

    dim: int
    class_of: np.ndarray        # (M, M) ordered-pair class ids
    n_classes: int
    sym_class_of: np.ndarray    # (M, M) ids after merging transposes
    d_g: int
    sym_anchor: np.ndarray      # flat index of each merged class's first entry
    sym_counts: np.ndarray      # entry count of each merged class

    def __post_init__(self) -> None:
        self.class_of.flags.writeable = False
        self.sym_class_of.flags.writeable = False
        self.sym_anchor.flags.writeable = False
        self.sym_counts.flags.writeable = False


def _renumber_first_occurrence(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relabel components as 0..k-1 in order of first appearance (row-major),
    without sorting the labels; also return each new label's first index."""
    first = np.full(labels.max() + 1, labels.size)
    np.minimum.at(first, labels, np.arange(labels.size))
    anchor = np.sort(first[first < labels.size])
    rank = np.empty(len(first), dtype=np.intp)
    rank[labels[anchor]] = np.arange(len(anchor))
    return rank[labels], anchor


def _distinct(values: np.ndarray, kind: str | None = None) -> np.ndarray:
    """np.unique(values) by one sort: several times faster than np.unique's
    hashing on the heavily repeated join keys of orbit_partition."""
    values = np.sort(values, kind=kind)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each node 0..n-1 labelled by the smallest node of its component under
    the edges a[e]--b[e]: hook roots under smaller roots, then jump pointers."""
    root = np.arange(n)
    while (cross := root[a] != root[b]).any():
        a, b = a[cross], b[cross]
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := root[root], root):
            root = up
    return root


# Label entries orbit_partition compares per chunk of its joins: 512 KB of
# int64 per gathered array, which keeps the chunk's sort in cache.
_JOIN_ENTRIES = 1 << 16


@functools.lru_cache(maxsize=128)
def orbit_partition(g: GroupAction) -> OrbitPartition:
    """Orbit classes of ordered pairs under the generated group.

    Generator-based kind only; the Haar average has no pair partition.
    Results are memoized per GroupAction.

    Pair (k, y) is labelled (r, u_k^-1(y)), where r is the smallest point of
    k's orbit and the transversal element u_k maps r to k; one union-find
    joins the labels of (i, j) and (g(i), g(j)) for every generator g. Each
    join is made by a group element, so the classes are exactly the orbitals.
    Classes are numbered in order of first appearance (row-major), so the
    result does not depend on the transversal or on the order of the joins.
    """
    if g.kind == KIND_HAAR:
        raise GroupValidationError(f"orbit_partition undefined for kind {g.kind}")
    m = g.dim
    gens = np.array(g.generators, dtype=np.intp).reshape(-1, m)
    points = np.arange(m)
    rep = _components(m, np.tile(points, len(gens)), gens.ravel())
    # BFS from every orbit's smallest point at once: u_{g(k)}^-1 = u_k^-1 o g^-1
    inv_gens = np.argsort(gens, axis=1)
    reached = rep == points
    frontier = np.flatnonzero(reached)
    u_inv = np.tile(points, (m, 1))
    via = np.full(m, -1)
    while frontier.size:
        images = gens[:, frontier].ravel()
        fresh = np.flatnonzero(~reached[images])
        via[images[fresh]] = fresh   # any one step reaching a point will do
        new = np.flatnonzero(~reached & (via >= 0))
        gen_of, parent = np.divmod(via[new], frontier.size)
        u_inv[new] = u_inv[frontier[parent][:, None], inv_gens[gen_of]]
        frontier = new
        reached[frontier] = True
    raw = rep[:, None] * m + u_inv
    # Each generator g joins the labels of (s, y) and (g(s), g(y)) for every
    # point s it moves, in the rows and then in the columns of the labels; a
    # pair of fixed points keeps its label. The moved points of all
    # generators are compared together, _JOIN_ENTRIES labels per chunk.
    gen_of, point = np.nonzero(gens != points)
    step = max(1, _JOIN_ENTRIES // m)
    joins = [np.empty(0, dtype=np.intp)]
    for r in (raw, raw.T):
        for lo in range(0, len(point), step):
            k, s = gen_of[lo:lo + step], point[lo:lo + step]
            kept, moved = r[s], r[gens[k, s][:, None], gens[k]]
            differ = moved != kept
            joins.append(_distinct(kept[differ] * (m * m) + moved[differ]))
    # each chunk's keys are sorted, so a stable sort (timsort) merges the runs
    src, dst = np.divmod(_distinct(np.concatenate(joins), kind="stable"), m * m)
    labels, anchor = _renumber_first_occurrence(_components(m * m, src, dst)[raw.ravel()])
    class_of = labels.reshape(m, m)
    # Transposition is an involution on classes: merge each with its image.
    sym_labels, sym_anchor = _renumber_first_occurrence(np.minimum(class_of, class_of.T).ravel())
    return OrbitPartition(dim=m, class_of=class_of, n_classes=len(anchor),
                          sym_class_of=sym_labels.reshape(m, m), d_g=len(sym_anchor),
                          sym_anchor=sym_anchor, sym_counts=np.bincount(sym_labels))


def _anchored_mean(values: np.ndarray, anchor: float) -> float:
    """Mean computed as anchor + mean(values - anchor): exact when every
    value equals the anchor, which makes projections exact fixed points of
    themselves (bitwise file-level idempotence)."""
    return anchor + float(np.mean(values - anchor))


def reynolds_project(g: GroupAction, a: SymmetricMatrix) -> SymmetricMatrix:
    """Orthogonal projection of ``a`` onto the commutant algebra of ``g``.

    Permutation groups replace each entry by the mean over its
    (symmetrically merged) orbit class, which equals (1/|G|) sum_g P A P^T
    without ever enumerating the group: the full symmetric group gives
    compound symmetry, and the trivial group returns ``a`` unchanged. The
    Haar-orthogonal average maps to (tr A / M) I. Trace is preserved, the
    PSD cone is preserved, and class means are anchored at one
    representative entry so that projecting twice is bitwise equal to
    projecting once. A non-finite class mean raises ValueError.
    """
    if g.dim != a.dim:
        raise DimensionMismatchError(f"group dim {g.dim} != matrix dim {a.dim}")
    m = a.dim
    if g.kind == KIND_HAAR:
        diag = np.diag(a.values)
        return SymmetricMatrix(np.eye(m) * _anchored_mean(diag, diag[0]))
    part = orbit_partition(g)
    flat_class = part.sym_class_of.ravel()
    flat_vals = a.values.ravel()
    anchors = flat_vals[part.sym_anchor]
    dev = flat_vals - anchors[flat_class]
    means = anchors + np.bincount(flat_class, weights=dev, minlength=part.d_g) / part.sym_counts
    if not np.isfinite(means).all():
        raise ValueError("matrix contains a non-finite value")
    # sym_class_of is symmetric, so the result is exactly symmetric already
    return SymmetricMatrix.of_symmetric(means[flat_class].reshape(m, m))


def projected_outer_sq_norms(g: GroupAction, rows: np.ndarray) -> np.ndarray:
    """||P_G(x x^T)||_F^2 for each row x: ||x||^4 / M for the Haar kind;
    otherwise the sum over merged orbit classes c of (sum of x x^T over c)^2
    / |c|, by bincount over chunks of rows."""
    m = g.dim
    if g.kind == KIND_HAAR:
        return np.einsum("ij,ij->i", rows, rows) ** 2 / m
    part = orbit_partition(g)
    flat_class = part.sym_class_of.ravel()
    inv_counts = 1.0 / part.sym_counts
    step = max(1, (1 << 20) // (m * m))   # about 8 MB of outer-product entries
    out = []
    for x in np.split(rows, range(step, len(rows), step)):
        labels = (flat_class + part.d_g * np.arange(len(x))[:, None]).ravel()
        sums = np.bincount(labels, weights=np.einsum("ki,kj->kij", x, x).ravel())
        out.append(sums.reshape(len(x), part.d_g) ** 2 @ inv_counts)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Constructors: named groups and the product/power/wreath families.
#
# Grid layouts are row-major throughout: index(row, col) = row * width + col.
# ---------------------------------------------------------------------------

def trivial(m: int) -> GroupAction:
    """The trivial group: no generators, so every ordered pair is its own orbit."""
    return GroupAction(name=f"trivial-{m}", dim=m)


def full_symmetric(m: int) -> GroupAction:
    """S_m from the m-cycle i -> i+1 (mod m) and the transposition (0 1);
    its projection is compound symmetry (d_G = 2 for m >= 2)."""
    cycle = np.roll(np.arange(m), -1)
    swap = np.arange(m)
    swap[:2] = swap[1::-1]      # the identity when m = 1
    return GroupAction(name=f"s{m}", dim=m, generators=(cycle, swap))


def haar_orthogonal(m: int) -> GroupAction:
    return GroupAction(name=f"haar-o{m}", dim=m, kind=KIND_HAAR)


def symmetric_generators(m: int) -> GroupAction:
    """full_symmetric(m) under the name the enumeration tests use."""
    return replace(full_symmetric(m), name=f"s{m}-gen")


def cyclic(m: int) -> GroupAction:
    """Flat cyclic shift i -> i+1 (mod m) on all m indices."""
    return tied_cyclic_blocks(m, 1, name=f"z{m}-flat")


def transposition(m: int, i: int = 0, j: int = 1) -> GroupAction:
    perm = np.arange(m)
    perm[i], perm[j] = j, i
    return GroupAction(name=f"z2-swap{i}{j}-{m}", dim=m, generators=(perm,))


def _grid_perm(height: int, width: int, fn) -> np.ndarray:
    """The permutation sending cell (r, c) to fn(r, c), evaluated on the
    row and column index arrays of every cell at once."""
    r2, c2 = fn(*np.divmod(np.arange(height * width), width))
    return r2 * width + c2


def grid_cyclic(height: int, width: int, axis: str) -> GroupAction:
    """Z_H or Z_W acting by uniform translation along one grid axis."""
    if axis == "col":
        # each row is a contiguous block of width indices, all shifted together
        return tied_cyclic_blocks(width, height, name=f"z{width}-cols-{height}x{width}")
    if axis != "row":
        raise GroupValidationError(f"axis must be 'row' or 'col', got {axis!r}")
    gen = _grid_perm(height, width, lambda r, c: ((r + 1) % height, c))
    return GroupAction(name=f"z{height}-rows-{height}x{width}", dim=height * width,
                       generators=(gen,))


def grid_translation2d(height: int, width: int) -> GroupAction:
    """Z_H x Z_W joint translation on both grid axes."""
    return direct_product(grid_cyclic(height, width, "row"),
                          grid_cyclic(height, width, "col"),
                          name=f"z{height}xz{width}-{height}x{width}")


def grid_dihedral(height: int, width: int, axis: str = "col") -> GroupAction:
    """Dihedral group on one axis: the axis cyclic shift plus its reflection."""
    if axis == "col":
        shift = _grid_perm(height, width, lambda r, c: (r, (c + 1) % width))
        flip = _grid_perm(height, width, lambda r, c: (r, width - 1 - c))
        name = f"d{width}-cols-{height}x{width}"
    elif axis == "row":
        shift = _grid_perm(height, width, lambda r, c: ((r + 1) % height, c))
        flip = _grid_perm(height, width, lambda r, c: (height - 1 - r, c))
        name = f"d{height}-rows-{height}x{width}"
    else:
        raise GroupValidationError(f"axis must be 'row' or 'col', got {axis!r}")
    return GroupAction(name=name, dim=height * width, generators=(shift, flip))


def grid_klein(height: int, width: int) -> GroupAction:
    """Klein four-group: horizontal flip, vertical flip (and their product)."""
    hflip = _grid_perm(height, width, lambda r, c: (r, width - 1 - c))
    vflip = _grid_perm(height, width, lambda r, c: (height - 1 - r, c))
    return GroupAction(name=f"klein-{height}x{width}", dim=height * width,
                       generators=(hflip, vflip))


def grid_rot4(n: int) -> GroupAction:
    """Z_4 generated by the 90-degree rotation of a square n x n patch."""
    rot = _grid_perm(n, n, lambda r, c: (c, n - 1 - r))
    return GroupAction(name=f"rot4-{n}x{n}", dim=n * n, generators=(rot,))


def grid_d4(n: int) -> GroupAction:
    """Full dihedral symmetry of the square patch: rotation plus transpose."""
    rot = _grid_perm(n, n, lambda r, c: (c, n - 1 - r))
    mirror = _grid_perm(n, n, lambda r, c: (c, r))
    return GroupAction(name=f"d4-{n}x{n}", dim=n * n, generators=(rot, mirror))


def direct_product(g1: GroupAction, g2: GroupAction,
                   name: str | None = None) -> GroupAction:
    """The group generated by two actions on the same index set: the union
    of their generators. It is their direct product when the factors commute
    and intersect trivially, as the axis-wise grid factors used here do.
    """
    if g1.dim != g2.dim:
        raise DimensionMismatchError(f"direct product dims {g1.dim} != {g2.dim}")
    if KIND_HAAR in (g1.kind, g2.kind):
        raise GroupValidationError("direct products need generator-based factors")
    return GroupAction(
        name=name or f"{g1.name}*{g2.name}",
        dim=g1.dim,
        generators=g1.generators + g2.generators,
    )


def _block_slots(block_size: int, n_blocks: int, perm: np.ndarray | None) -> np.ndarray:
    """Index layout (n_blocks, block_size): contiguous blocks routed through
    an optional permutation of the m underlying indices."""
    m = block_size * n_blocks
    slots = np.arange(m) if perm is None else np.asarray(perm, dtype=int)
    if slots.shape != (m,) or not np.array_equal(np.sort(slots), np.arange(m)):
        raise GroupValidationError("block layout permutation must be a permutation of 0..m-1")
    return slots.reshape(n_blocks, block_size)


def cartesian_power_shifts(block_size: int, n_blocks: int,
                           perm: np.ndarray | None = None,
                           name: str | None = None) -> GroupAction:
    """Z_K^B: one independent cyclic-shift generator per block."""
    slots = _block_slots(block_size, n_blocks, perm)
    return GroupAction(
        name=name or f"z{block_size}-pow{n_blocks}",
        dim=slots.size, generators=_block_shift_gens(slots),
    )


def _block_shift_gens(slots: np.ndarray) -> np.ndarray:
    """One generator per block, shifting that block's slots cyclically by one."""
    n_blocks = len(slots)
    gens = np.tile(np.arange(slots.size), (n_blocks, 1))
    gens[np.arange(n_blocks)[:, None], slots] = np.roll(slots, -1, axis=1)
    return gens


def _block_swap_gens(slots: np.ndarray) -> np.ndarray:
    """One generator per adjacent pair of blocks, exchanging them slot by slot."""
    n_blocks, _ = slots.shape
    gens = np.tile(np.arange(slots.size), (n_blocks - 1, 1))
    rows = np.arange(n_blocks - 1)[:, None]
    gens[rows, slots[:-1]] = slots[1:]
    gens[rows, slots[1:]] = slots[:-1]
    return gens


def wreath_shifts(block_size: int, n_blocks: int,
                  perm: np.ndarray | None = None,
                  name: str | None = None) -> GroupAction:
    """Z_K wr S_B: independent per-block shifts lifted by free permutation of
    the blocks (B shift generators plus B-1 block-adjacent transpositions)."""
    slots = _block_slots(block_size, n_blocks, perm)
    return GroupAction(
        name=name or f"z{block_size}-wr-s{n_blocks}",
        dim=slots.size, generators=np.concatenate((_block_shift_gens(slots),
                                                   _block_swap_gens(slots))),
    )


def wreath_rowshift_rowcycle(height: int, width: int) -> GroupAction:
    """Independent per-row column shifts lifted by the cyclic row rotation
    (Z_W wr Z_H on the row-major grid)."""
    shifts = _block_shift_gens(_block_slots(width, height, None))
    rowcycle = _grid_perm(height, width, lambda r, c: ((r + 1) % height, c))
    return GroupAction(
        name=f"z{width}-wr-z{height}-{height}x{width}",
        dim=height * width,
        generators=np.vstack((shifts, rowcycle)),
    )


def block_symmetric(block_size: int, n_blocks: int,
                    perm: np.ndarray | None = None,
                    name: str | None = None) -> GroupAction:
    """S_K^B: full exchangeability within each block, none across blocks.

    Generators are the within-block adjacent transpositions.
    """
    slots = _block_slots(block_size, n_blocks, perm)
    left, right = slots[:, :-1].ravel(), slots[:, 1:].ravel()   # block-major
    gens = np.tile(np.arange(slots.size), (len(left), 1))
    rows = np.arange(len(left))
    gens[rows, left], gens[rows, right] = right, left
    return GroupAction(
        name=name or f"block-s{block_size}x{n_blocks}",
        dim=slots.size, generators=gens,
    )


def tied_cyclic_blocks(block_size: int, n_blocks: int,
                       perm: np.ndarray | None = None,
                       name: str | None = None) -> GroupAction:
    """Z_K shifting every block simultaneously by the same offset (order K)."""
    slots = _block_slots(block_size, n_blocks, perm)
    p = np.arange(slots.size)
    p[slots] = np.roll(slots, -1, axis=1)
    return GroupAction(
        name=name or f"z{block_size}-tied{n_blocks}",
        dim=slots.size, generators=(p,),
    )


def pairwise_z2_power(m: int) -> GroupAction:
    """Z_2^(m/2): independent transpositions of consecutive index pairs."""
    if m % 2:
        raise GroupValidationError("pairwise Z2 power needs even dimension")
    return cartesian_power_shifts(2, m // 2, name=f"z2-{m // 2}-cartesian")


# ---------------------------------------------------------------------------
# Seeded decoy constructors.
# ---------------------------------------------------------------------------

def decoy_random_partition_blocks(m: int, block_size: int, seed: int) -> GroupAction:
    """Block-symmetric action over a seeded uniformly random partition of the
    m indices into blocks of ``block_size``."""
    if m % block_size:
        raise GroupValidationError(f"block size {block_size} does not divide {m}")
    perm = random_partition_perm(m, block_size, seed)
    return block_symmetric(block_size, m // block_size, perm=perm,
                           name=f"random-block-s{block_size}x{m // block_size}-seed{seed}")


def enumerate_group(generators: list[np.ndarray], dim: int,
                    cap: int = 10**6) -> list[np.ndarray] | None:
    """BFS closure of the generated group; None when the order exceeds cap."""
    if not generators:
        return [np.arange(dim)]
    seen = {tuple(range(dim))}
    frontier = [tuple(range(dim))]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for elem in frontier:
            for g in gens:
                comp = tuple(g[e] for e in elem)
                if comp not in seen:
                    seen.add(comp)
                    nxt.append(comp)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return [np.array(e, dtype=int) for e in sorted(seen)]


def capped_order(g: GroupAction, cap: int) -> int:
    """min(|G|, cap) for cap >= 1, exact: the generator closure stops once it
    has ``cap`` elements, so the cost is bounded by the cap, not by |G|. The
    Haar average, which has no finite order, counts as ``cap``."""
    if g.kind == KIND_HAAR:
        return cap
    elements = enumerate_group(g.generators, g.dim, cap=cap - 1)
    return cap if elements is None else len(elements)


def decoy_random_subgroup_closure(m: int, n_generators: int, seed: int) -> GroupAction:
    """The subgroup of S_m generated by ``n_generators`` seeded random
    permutations; the trivial group for none. The group is never enumerated:
    projection needs only orbits, and Tier 1 counts elements up to its
    admission threshold with ``capped_order``."""
    if n_generators == 0:
        return trivial(m)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((m, n_generators, seed))))
    return GroupAction(name=f"random-s{m}-subgroup-seed{seed}", dim=m,
                       generators=tuple(rng.permutation(m) for _ in range(n_generators)))


def permutation_matrix(perm: np.ndarray) -> np.ndarray:
    """P with P[perm[i], i] = 1, so P A P^T relabels indices by the permutation."""
    m = len(perm)
    p = np.zeros((m, m))
    p[np.asarray(perm, dtype=int), np.arange(m)] = 1.0
    return p


def brute_force_project(g: GroupAction, a: SymmetricMatrix,
                        cap: int = 10**6) -> SymmetricMatrix:
    """(1/|G|) sum over explicitly enumerated elements of P A P^T.

    Independent oracle for reynolds_project on small groups; raises when the
    order exceeds the cap.
    """
    elements = enumerate_group(g.generator_arrays(), g.dim, cap=cap)
    if elements is None:
        raise GroupValidationError(f"group {g.name} exceeds enumeration cap {cap}")
    acc = np.zeros((g.dim, g.dim))
    for perm in elements:
        p = permutation_matrix(perm)
        acc += p @ a.values @ p.T
    return SymmetricMatrix(acc / len(elements))


# ---------------------------------------------------------------------------
# Group specification files: key=value header, then one generator per line
# as a comma-separated index array.
# ---------------------------------------------------------------------------

_LEGACY_KINDS = {KIND_TRIVIAL: trivial, KIND_FULL_SYMMETRIC: full_symmetric}


def write_group_file(path, g: GroupAction) -> None:
    matrixcore.write_csv(path, [(f"name={g.name}",), (f"dim={g.dim}",), (f"kind={g.kind}",),
                                *g.generators])


def read_group_file(path) -> GroupAction:
    """The ``name=``, ``dim=`` and ``kind=`` fields and the generators of a
    group file; other keys and ``#`` comments are ignored. The legacy kinds
    ``trivial`` and ``full_symmetric`` read as ``trivial(dim)`` and
    ``full_symmetric(dim)`` under the file's name. A malformed integer, an
    unknown kind, a repeated ``name=``, ``dim=`` or ``kind=``, a name with a
    comma (it would split the CSV fields the name is written to), a
    generator under a kind that carries none, or a generator that is not a
    permutation raises ValueError naming the file and line."""
    fields: dict[str, tuple[int, str]] = {}
    gens: list[tuple[int, Perm]] = []
    for no, line in matrixcore.read_csv_lines(path):
        if line.startswith("#"):
            continue
        if "=" in line and not line.split("=", 1)[0].lstrip("-").isdigit():
            key, val = (part.strip() for part in line.split("=", 1))
            if key in fields and key in ("name", "dim", "kind"):
                raise ValueError(f"{path}:{no}: group field {key!r} given twice")
            if key == "name" and "," in val:
                raise ValueError(f"{path}:{no}: group name {val!r} contains a comma")
            fields[key] = (no, val)
        else:
            try:
                gens.append((no, tuple(int(tok) for tok in line.split(","))))
            except ValueError as exc:
                raise ValueError(f"{path}:{no}: {exc}") from None
    try:
        name = fields["name"][1]
        dim_line = fields["dim"]
        kind_no, kind = fields["kind"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing required group field {exc}") from exc
    (dim,) = matrixcore.parse_header(path, dim_line, 1)
    if kind not in _KINDS and kind not in _LEGACY_KINDS:
        raise ValueError(f"{path}:{kind_no}: unknown group kind {kind!r}")
    if kind != KIND_GENERATOR and gens:
        raise ValueError(f"{path}:{gens[0][0]}: kind {kind} carries no generators")
    if kind in _LEGACY_KINDS:
        return replace(_LEGACY_KINDS[kind](dim), name=name)
    try:
        return GroupAction(name=name, dim=dim, generators=tuple(g for _, g in gens), kind=kind)
    except GroupValidationError:
        for no, gen in gens:   # name the line of the first bad generator
            try:
                _as_perm(gen, dim)
            except GroupValidationError as exc:
                raise ValueError(f"{path}:{no}: {exc}") from None
        raise


def read_library_dir(path) -> list[GroupAction]:
    """All group files in a directory, sorted by filename for a stable order."""
    actions = []
    for fname in sorted(os.listdir(path)):
        full = os.path.join(path, fname)
        if os.path.isfile(full):
            actions.append(read_group_file(full))
    return actions


def random_partition_perm(m: int, block_size: int, seed: int) -> np.ndarray:
    """Seeded uniformly random assignment of the m indices to block slots."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((m, block_size, seed))))
    return rng.permutation(m)


def _parse_kxb(token: str) -> tuple[int, int]:
    k, b = token.split("x")
    return int(k), int(b)


def _seeded_blocks(maker, args: list[str]) -> GroupAction:
    """A block constructor on KxB; a trailing seed routes the blocks through
    a seeded random partition of the indices."""
    k, b = _parse_kxb(args[0])
    if len(args) == 1:
        return maker(k, b)
    seed = int(args[1])
    g = maker(k, b, perm=random_partition_perm(k * b, k, seed))
    return replace(g, name=f"{g.name}-seed{seed}")


def _random_blocks(args: list[str]) -> GroupAction:
    k, b = _parse_kxb(args[0])
    return decoy_random_partition_blocks(k * b, k, int(args[1]))


# constructor -> (most fields it takes after its name, builder from the fields)
_SPEC_CONSTRUCTORS = {
    "trivial": (1, lambda a: trivial(int(a[0]))),
    "full-symmetric": (1, lambda a: full_symmetric(int(a[0]))),
    "s": (1, lambda a: full_symmetric(int(a[0]))),
    "haar": (1, lambda a: haar_orthogonal(int(a[0]))),
    "cyclic": (1, lambda a: cyclic(int(a[0]))),
    "z2-pairs": (1, lambda a: pairwise_z2_power(int(a[0]))),
    "grid-cyclic": (2, lambda a: grid_cyclic(*_parse_kxb(a[0]), a[1])),
    "grid-dihedral": (2, lambda a: grid_dihedral(*_parse_kxb(a[0]), *a[1:])),
    "grid-translation": (1, lambda a: grid_translation2d(*_parse_kxb(a[0]))),
    "klein": (1, lambda a: grid_klein(*_parse_kxb(a[0]))),
    "rot4": (1, lambda a: grid_rot4(int(a[0]))),
    "d4": (1, lambda a: grid_d4(int(a[0]))),
    "wreath-rows": (1, lambda a: wreath_rowshift_rowcycle(*_parse_kxb(a[0]))),
    "block": (2, lambda a: _seeded_blocks(block_symmetric, a)),
    "tied-cyclic": (2, lambda a: _seeded_blocks(tied_cyclic_blocks, a)),
    "cartesian": (2, lambda a: _seeded_blocks(cartesian_power_shifts, a)),
    "wreath": (2, lambda a: _seeded_blocks(wreath_shifts, a)),
    "random-block": (2, _random_blocks),
    "random-subgroup": (3, lambda a: decoy_random_subgroup_closure(
        int(a[0]), int(a[1]), int(a[2]))),
}


def parse_group_spec(text: str) -> GroupAction:
    """Build a named group from a compact constructor string.

    Grammar (sizes as KxB or HxW):
      trivial:M | full-symmetric:M | s:M | haar:M | cyclic:M | z2-pairs:M |
      grid-cyclic:HxW:row|col | grid-dihedral:HxW[:row|col] |
      grid-translation:HxW | klein:HxW | rot4:N | d4:N | wreath-rows:HxW |
      block:KxB[:seed] | tied-cyclic:KxB[:seed] | cartesian:KxB[:seed] |
      wreath:KxB[:seed] | random-block:KxB:seed |
      random-subgroup:M:n_generators:seed
    s:M is short for full-symmetric:M. A trailing seed on the block
    constructors routes the blocks through a seeded random partition of the
    indices. Missing, malformed or surplus fields raise GroupValidationError.
    """
    head, *args = text.strip().split(":")
    if head not in _SPEC_CONSTRUCTORS:
        raise GroupValidationError(f"unknown group constructor {head!r}")
    max_fields, build = _SPEC_CONSTRUCTORS[head]
    if len(args) > max_fields:
        raise GroupValidationError(
            f"bad group spec {text!r}: {head} takes at most {max_fields} field(s), "
            f"got {len(args)}")
    try:
        return build(args)
    except (IndexError, ValueError) as exc:
        raise GroupValidationError(f"bad group spec {text!r}: {exc}") from exc
