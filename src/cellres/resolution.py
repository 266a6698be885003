"""Deciding when a labelled complex resolves its ideal, and how well.

A labelled complex is a cellular resolution when every sublevel restriction
(vertices whose labels divide a fixed multidegree) is acyclic; checking the
points of the lcm lattice suffices because any multidegree sees the same
sublevel as the join of the labels dividing it.  Minimality is a strictness
condition on multidegrees along covering face pairs.  The Cohen-Macaulay
verdict additionally compares the codimension of the ideal with the length
of the resolution.

For square-free labellings everything can be phrased on the vertex family
instead: three criteria (a cover bound, acyclicity of complements of
unions, and a separation condition on covering face pairs) reproduce the
full verdict; both routes are implemented so they can be played against
each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (
    CellComplex,
    SignsMissingError,
    chain_ranks,
    is_connected,
    reduced_betti,
    reduced_homology,
    restrict,
    vertex_adjacency,
)
from .linalg import GF2, FieldSpec, gf2_rank
from .monomials import (
    FamilyError,
    Monomial,
    MonomialLabelling,
    VertexFamily,
    iter_bits,
    lcm_lattice,
    mask_of,
    set_of,
    subfamily_unions,
)


def f_symmetry(X: CellComplex) -> bool:
    """f_i == f_(dim-1-i) below the top dimension, and a single top cell."""
    f = X.f_vector()
    if not f:
        return False
    d = len(f) - 1
    if f[d] != 1:
        return False
    return all(f[i] == f[d - 1 - i] for i in range(d))


class AcyclicityOracle:
    """Memoized acyclicity of vertex-induced restrictions of one complex.

    Queries take a vertex bitmask.  Results are cached; the cache also
    serves as the record of which restrictions a run has touched, which the
    test suite replays over other fields.

    The complex is packed once into bitsets over cell ids: the star of
    each vertex, the cells of each dimension, the boundary of each cell.
    On a miss the cells inside the mask are those in no star of a vertex
    outside it, and the checks run in this order: the reduced Euler
    characteristic (popcounts), connectivity of the 1-skeleton, then, for
    restrictions of dimension 2 or more, one GF(2) elimination of the
    boundary bitsets, in cell-id coordinates.  Over Q that elimination is
    a certificate: by the universal coefficient theorem (Hatcher,
    Algebraic Topology, Thm 3A.3) dim H_k(C; Q) <= dim H_k(C; F_2) for a
    finite complex of free abelian groups, so a restriction acyclic over
    GF(2) is acyclic over Q.  Only the rest, such as a projective plane
    with its 2-torsion, goes on to exact elimination over Q.
    """

    def __init__(self, X: CellComplex, field: FieldSpec = GF2):
        if field.characteristic != 2 and not X.fully_signed():
            raise SignsMissingError(
                f"acyclicity over {field.describe()} needs signed incidences")
        self.X = X
        self.field = field
        self.full_mask = (1 << X.n_vertices) - 1
        self._star = [0] * X.n_vertices
        self._dims = [0] * (X.dim + 1)
        for c in X.cells:
            for v in c.vertices:
                self._star[v] |= 1 << c.id
            self._dims[c.dim] |= 1 << c.id
        # the bitsets of distinct dimensions are disjoint: sum is union
        self._all = sum(self._dims)
        self._even = sum(self._dims[0::2])
        self._upper = sum(self._dims[2:])
        self._boundary = [mask_of(b for b, _ in c.boundary) for c in X.cells]
        self._adj = vertex_adjacency(X)
        self._verdicts = {}

    def touched(self) -> dict:
        return dict(self._verdicts)

    def is_acyclic(self, mask: int) -> bool:
        got = self._verdicts.get(mask)
        if got is None:
            got = self._compute(mask & self.full_mask)
            self._verdicts[mask] = got
        return got

    def _compute(self, mask: int) -> bool:
        outside = 0
        for v in iter_bits(self.full_mask & ~mask):
            outside |= self._star[v]
        inside = self._all & ~outside
        if not inside:
            return True  # void restriction
        size = inside.bit_count()
        if 2 * (inside & self._even).bit_count() - size != 1:
            return False  # nonzero reduced Euler characteristic
        f0 = (inside & self._dims[0]).bit_count()
        if f0 > 1 and not is_connected(self._adj, mask):
            return False
        upper = inside & self._upper
        if not upper:
            # a connected graph with reduced Euler characteristic 0 is a tree
            return True
        # the reduced Betti numbers from dimension 1 up are >= 0 and sum to
        # f_1 + ... + f_top - r_1 - 2(r_2 + ... + r_top), r_d the rank of
        # the boundary on d-cells; r_1 = f_0 - 1 when connected, and one
        # elimination yields r_2 + ... as boundaries of distinct
        # dimensions meet disjoint cell ids
        if 2 * gf2_rank(self._boundary[i] for i in iter_bits(upper)) \
                == size - 2 * f0 + 1:
            return True
        if not self.field.is_rational:
            return False
        return not reduced_betti(
            [[self.X.cells[i] for i in iter_bits(inside & cells)]
             for cells in self._dims], self.field)


def cover_unions(base: int, masks, k: int):
    """Yield base | (union of S) for every k-subset S of masks, in the
    order of itertools.combinations; the cover bound compares these with
    the full vertex mask."""
    for combo in itertools.combinations(masks, k):
        u = base
        for m in combo:
            u |= m
        yield u


@dataclass(frozen=True)
class FamilyCriteriaReport:
    """Outcome of the three family criteria plus the covering corollary.

    cover_bound: no dim-X-many members cover all vertices.
    complements_acyclic: for every union W of members, the restriction of
        the complex to the complement of W is acyclic.
    face_separation: every covering face pair F < G admits a member meeting
        G but not F.
    covers_vertices: the members jointly cover every vertex (implied by
        face_separation applied below the vertices; tracked separately).
    """

    cover_bound: bool
    complements_acyclic: bool
    face_separation: bool
    covers_vertices: bool
    field: str
    cover_witness: tuple = None      # member index tuple
    union_witness: frozenset = None  # union whose complement is not acyclic
    separation_witness: tuple = None  # (small cell id, big cell id)
    uncovered_vertex: int = None

    @property
    def ok(self) -> bool:
        return (self.cover_bound and self.complements_acyclic
                and self.face_separation and self.covers_vertices)


def covering_face_pairs(X: CellComplex) -> list:
    """(boundary cell id, cell id) for every codimension-1 incidence."""
    pairs = []
    for c in X.cells:
        for b, _ in c.boundary:
            pairs.append((b, c.id))
    return pairs


def separation_bits(X: CellComplex, masks) -> list:
    """Per vertex mask, the bitset of covering face pairs it separates.

    Bit k is set when the mask misses the smaller cell of pair k of
    covering_face_pairs(X) and meets the larger one.
    """
    cells = [mask_of(c.vertices) for c in X.cells]
    pairs = [(cells[b], cells[cid]) for b, cid in covering_face_pairs(X)]
    out = []
    for m in masks:
        bits = 0
        for k, (small, big) in enumerate(pairs):
            if m & small == 0 and m & big:
                bits |= 1 << k
        out.append(bits)
    return out


def require_family_on(X: CellComplex, F: VertexFamily):
    """Raise FamilyError unless F is a family on the vertices of X."""
    if F.n != X.n_vertices:
        raise FamilyError(
            f"family on {F.n} vertices does not match complex on {X.n_vertices}")


def require_labelling_on(X: CellComplex, L: MonomialLabelling):
    """Raise FamilyError unless L labels the vertices of X."""
    if L.n_vertices != X.n_vertices:
        raise FamilyError("labelling size does not match the complex")


def check_family_criteria(X: CellComplex, F: VertexFamily,
                          field: FieldSpec = GF2,
                          oracle: AcyclicityOracle = None) -> FamilyCriteriaReport:
    """Evaluate the three validity criteria for a family on a complex."""
    require_family_on(X, F)
    d = X.dim
    if d < 1:
        raise FamilyError("criteria need a complex of dimension at least 1")
    masks = F.member_masks()
    full = (1 << X.n_vertices) - 1
    oracle = oracle or AcyclicityOracle(X, field)

    # a cover by fewer than d members is still a cover by d (members may
    # repeat), so families smaller than d are tested as a whole
    cover_bound, cover_witness = True, None
    k = min(d, len(masks))
    for combo, u in zip(itertools.combinations(range(len(masks)), k),
                        cover_unions(0, masks, k)):
        if u == full:
            cover_bound, cover_witness = False, combo
            break

    complements_acyclic, union_witness = True, None
    for u in sorted(subfamily_unions(masks)):
        if not oracle.is_acyclic(full & ~u):
            complements_acyclic, union_witness = False, set_of(u)
            break

    separated = 0
    for bits in separation_bits(X, masks):
        separated |= bits
    unseparated = [p for k, p in enumerate(covering_face_pairs(X))
                   if not separated >> k & 1]
    face_separation = not unseparated
    separation_witness = unseparated[0] if unseparated else None

    covered = 0
    for m in masks:
        covered |= m
    covers_vertices = covered == full
    uncovered = None
    if not covers_vertices:
        uncovered = min(set_of(full & ~covered))

    return FamilyCriteriaReport(
        cover_bound, complements_acyclic, face_separation, covers_vertices,
        field.describe(), cover_witness, union_witness, separation_witness,
        uncovered)


def check_cellular_resolution(X: CellComplex, L: MonomialLabelling,
                              field: FieldSpec = GF2,
                              oracle: AcyclicityOracle = None):
    """(is_resolution, failing multidegree or None).

    Walks the lcm lattice in increasing order and tests the restriction of
    the complex to each point's support, the vertices whose labels divide
    it.  lcm_lattice builds the supports directly: they are the closed
    vertex sets M = {v : m_v divides lcm(M)}, one per point.
    """
    require_labelling_on(X, L)
    oracle = oracle or AcyclicityOracle(X, field)
    lattice = lcm_lattice(L)
    for b in lattice.sorted_points():
        if not oracle.is_acyclic(lattice.supports[b]):
            return False, b
    return True, None


def multidegree(L: MonomialLabelling, vertices) -> Monomial:
    """Join of the labels over a set of vertices."""
    acc = None
    for v in vertices:
        m = L.labels[v]
        acc = m if acc is None else acc.join(m)
    if acc is None:
        return Monomial((0,) * L.n_variables)
    return acc


def check_minimal(X: CellComplex, L: MonomialLabelling):
    """(is_minimal, witness covering pair or None).

    Minimal means the multidegree strictly increases along every covering
    face pair; divisibility is automatic, so only equality can fail.  A
    degree-zero vertex label would be a unit entry in the first map and is
    rejected the same way (witness (None, vertex cell id)).
    """
    require_labelling_on(X, L)
    mdeg = {}
    for c in X.cells:
        mdeg[c.id] = multidegree(L, c.vertices).exponents
    for c in X.cells:
        if c.dim == 0:
            if sum(mdeg[c.id]) == 0:
                return False, (None, c.id)
            continue
        for b, _ in c.boundary:
            if mdeg[b] == mdeg[c.id]:
                return False, (b, c.id)
    return True, None


def _minimum_cover_size(universe: int, masks):
    """Smallest number of masks whose union contains `universe`, or None.

    Deepens the size bound one step at a time; some mask of a cover holds
    the lowest uncovered vertex, so each step branches only on those.
    """
    reach = 0
    for m in masks:
        reach |= m
    if universe & ~reach:
        return None

    def covers(covered, k):
        rest = universe & ~covered
        if not rest:
            return True
        low = rest & -rest
        return k > 0 and any(covers(covered | m, k - 1)
                             for m in masks if m & low)

    size = 0
    while not covers(0, size):
        size += 1
    return size


def codimension(L: MonomialLabelling) -> int:
    """Fewest variables meeting the support of every label."""
    universe = (1 << L.n_vertices) - 1
    per_var = []
    for p in range(L.n_variables):
        m = 0
        for v, lab in enumerate(L.labels):
            if lab.exponents[p]:
                m |= 1 << v
        per_var.append(m)
    size = _minimum_cover_size(universe, per_var)
    if size is None:
        raise FamilyError("some label is the unit monomial; nothing covers it")
    return size


def codimension_family(F: VertexFamily) -> int:
    """Fewest members covering all vertices."""
    universe = (1 << F.n) - 1
    size = _minimum_cover_size(universe, F.member_masks())
    if size is None:
        raise FamilyError("family does not cover the vertex set")
    return size


@dataclass(frozen=True)
class CmVerdict:
    is_cellular_resolution: bool
    is_minimal: bool
    codimension: int
    projective_dimension: int  # None unless the resolution verdict holds
    is_cm: bool
    field: str
    witness: tuple = None  # (kind, payload) for the first failure


def check_cm_labelling(X: CellComplex, L: MonomialLabelling,
                       field: FieldSpec = GF2,
                       oracle: AcyclicityOracle = None) -> CmVerdict:
    """Full verdict: resolution, minimality, codimension versus dimension."""
    res_ok, res_w = check_cellular_resolution(X, L, field, oracle)
    min_ok, min_w = check_minimal(X, L)
    codim = codimension(L)
    want = X.dim + 1
    pdim = want if res_ok else None
    is_cm = res_ok and min_ok and codim == want
    witness = None
    if not res_ok:
        witness = ("restriction-not-acyclic", res_w)
    elif not min_ok:
        witness = ("multidegree-not-strict", min_w)
    elif codim != want:
        witness = ("codimension", (codim, want))
    return CmVerdict(res_ok, min_ok, codim, pdim, is_cm, field.describe(), witness)


@dataclass(frozen=True)
class CellularFreeComplex:
    """Free complex read off a signed labelled complex.

    Homological degree 0 is the ring; degree i >= 1 has one generator per
    (i-1)-cell with multidegree the join of the cell's vertex labels.
    maps[i] sends degree i+1 to degree i as sparse columns, one per
    degree-(i+1) generator, of (row, sign, exponent tuple of the quotient
    monomial) entries.
    """

    n_variables: int
    multidegrees: tuple  # per degree: tuple of exponent tuples
    cell_ids: tuple      # per degree: tuple of source cell ids (None for degree 0)
    maps: tuple          # maps[i]: one column per degree-(i+1) generator

    def ranks(self) -> tuple:
        return tuple(len(d) for d in self.multidegrees)

    def composition_is_zero(self) -> bool:
        for A, B in zip(self.maps, self.maps[1:]):
            for col in B:
                acc = {}
                for k, s, _ in col:
                    for r, t, _ in A[k]:
                        acc[r] = acc.get(r, 0) + s * t
                if any(acc.values()):
                    return False
        return True


def build_free_complex(X: CellComplex, L: MonomialLabelling) -> CellularFreeComplex:
    """Construct the free complex of a signed labelled complex.

    Entries of the degree-1 map are the labels themselves; higher entries
    are the signed quotient monomials between the multidegrees of a cell
    and its boundary cell.  The composite of consecutive maps is verified
    to vanish.
    """
    require_labelling_on(X, L)
    if not X.fully_signed():
        raise SignsMissingError("free complex needs signed incidences")
    zero = (0,) * L.n_variables
    mdeg = {c.id: multidegree(L, c.vertices).exponents for c in X.cells}
    cell_ids = [(None,)] + [tuple(c.id for c in X.cells_of_dim(d))
                            for d in range(X.dim + 1)]
    maps = [tuple(((0, 1, mdeg[cid]),) for cid in cell_ids[1])]
    for rows, cols in zip(cell_ids[1:], cell_ids[2:]):
        pos = {cid: i for i, cid in enumerate(rows)}
        maps.append(tuple(
            tuple((pos[b], s, tuple(x - y for x, y in zip(mdeg[cid], mdeg[b])))
                  for b, s in X.cells[cid].boundary)
            for cid in cols))
    fc = CellularFreeComplex(
        L.n_variables,
        tuple([(zero,)] + [tuple(mdeg[cid] for cid in ids)
                           for ids in cell_ids[1:]]),
        tuple(cell_ids),
        tuple(maps),
    )
    if not fc.composition_is_zero():
        raise ValueError("free complex maps do not compose to zero")
    return fc


def strand_ranks(fc: CellularFreeComplex, b, field: FieldSpec = GF2) -> tuple:
    """Homology ranks of the degree-b strand of the free complex.

    The strand keeps the generators whose multidegree divides b; each kept
    entry contributes only its sign.
    """
    b = tuple(b)
    kept = [[i for i, m in enumerate(degs) if all(x <= y for x, y in zip(m, b))]
            for degs in fc.multidegrees]
    maps = []
    for i in range(2, len(kept)):
        pos = {r: rj for rj, r in enumerate(kept[i - 1])}
        cols = fc.maps[i - 1]
        maps.append([[(pos[r], s) for r, s, _ in cols[c] if r in pos]
                     for c in kept[i]])
    # the degree-1 map sends every kept vertex generator onto the ring, so
    # its rank is 1 as soon as one vertex generator is kept
    augmentation = [min(1, len(k)) for k in kept[1:2]]
    ranks = [0] + augmentation + chain_ranks(maps, field) + [0]
    return tuple(len(kept[i]) - ranks[i] - ranks[i + 1]
                 for i in range(len(kept)))


def strand_matches_homology(fc: CellularFreeComplex, X: CellComplex, b,
                            field: FieldSpec = GF2) -> bool:
    """Cross-check: strand homology of the free complex against reduced
    homology of the sublevel restriction, degree i versus dimension i-1."""
    b = tuple(b)
    keep = set()
    for cid, m in zip(fc.cell_ids[1], fc.multidegrees[1]):
        if all(x <= y for x, y in zip(m, b)):
            keep |= X.cells[cid].vertices
    betti = reduced_homology(restrict(X, keep), field).reduced_betti
    strand = strand_ranks(fc, b, field)
    for i, h in enumerate(strand):
        if h != betti.get(i - 1, 0):
            return False
    return all(d + 1 < len(strand) for d in betti)
