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
from typing import NamedTuple

from .complexes import (
    CellComplex,
    SignsMissingError,
    is_connected,
    reduced_betti,
    vertex_adjacency,
)
from .linalg import GF2, FieldSpec, gf2_rank
from .monomials import (
    FamilyError,
    LabellingError,
    Monomial,
    MonomialLabelling,
    VertexFamily,
    _lcm_exponents,
    _supports,
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

    Queries take a vertex bitmask, one at a time (`is_acyclic`) or as a
    batch of candidates removed together with one union (`acyclic_bits`).
    Results are cached under the mask asked; the cache also serves as the
    record of which restrictions a run has touched, which the test suite
    replays over other fields.

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
        # stars, dimensions and boundaries in one pass
        self._star = star = [0] * X.n_vertices
        self._dims = dims = [0] * (X.dim + 1)
        self._boundary = []
        for cid, dim, vertices, boundary in X.cells:
            bit = 1 << cid
            for v in vertices:
                star[v] |= bit
            dims[dim] |= bit
            self._boundary.append(mask_of(b for b, _ in boundary))
        # the bitsets of distinct dimensions are disjoint: sum is union
        self._all = sum(dims)
        self._even = sum(dims[0::2])
        self._upper = sum(dims[2:])
        self._adj = vertex_adjacency(X)
        self._verdicts = {}

    def touched(self) -> dict:
        return dict(self._verdicts)

    def is_acyclic(self, mask: int, outside: int = None) -> bool:
        """Is the restriction to the vertices in mask acyclic?

        A caller that already holds `outside`, the union of the stars of
        the vertices not in mask, passes it, and a miss skips building it.
        """
        got = self._verdicts.get(mask)
        if got is None:
            got = self._compute(mask & self.full_mask, outside)
            self._verdicts[mask] = got
        return got

    def acyclic_bits(self, out: int, masks, bits: int) -> int:
        """The bits k of `bits` for which the restriction to the vertices
        outside out | masks[k] is acyclic.

        Each question is the one `is_acyclic(full & ~(out | masks[k]))`
        asks, answered from and stored in the same cache, so a search asks
        about one union and many candidates in one call.
        """
        verdicts = self._verdicts
        keep = self.full_mask & ~out
        ok = 0
        while bits:
            low = bits & -bits
            bits ^= low
            mask = keep & ~masks[low.bit_length() - 1]
            got = verdicts.get(mask)
            if got is None:
                got = verdicts[mask] = self._compute(mask)
            if got:
                ok |= low
        return ok

    def _compute(self, mask: int, outside: int = None) -> bool:
        if outside is None:
            outside = 0
            rest = self.full_mask & ~mask
            while rest:
                low = rest & -rest
                outside |= self._star[low.bit_length() - 1]
                rest ^= low
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
        rows = []
        while upper:
            low = upper & -upper
            rows.append(self._boundary[low.bit_length() - 1])
            upper ^= low
        if 2 * gf2_rank(rows) == size - 2 * f0 + 1:
            return True
        if not self.field.is_rational:
            return False
        return not reduced_betti(
            [[self.X.cells[i] for i in iter_bits(inside & cells)]
             for cells in self._dims], self.field)


def oracle_for(X: CellComplex, field: FieldSpec,
               oracle: AcyclicityOracle = None) -> AcyclicityOracle:
    """The oracle an entry point answers with: a new one for X over field,
    or `oracle`, which must answer for that same complex and field."""
    if oracle is None:
        return AcyclicityOracle(X, field)
    if oracle.X != X or oracle.field != field:
        raise ValueError(
            "the oracle must answer for the complex and field asked about "
            f"(it answers over {oracle.field.describe()}, "
            f"asked over {field.describe()})")
    return oracle


def cover_unions(base: int, masks, k: int):
    """Yield base | (union of S) for every k-subset S of masks, in the
    order of itertools.combinations; the cover bound compares these with
    the full vertex mask."""
    for combo in itertools.combinations(masks, k):
        u = base
        for m in combo:
            u |= m
        yield u


class FamilyCriteriaReport(NamedTuple):
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


def requirement_rows(X: CellComplex, masks) -> list:
    """Per requirement on a valid family, the bitset of masks meeting it.

    Bit j of row v is set when masks[j] holds vertex v.  Bit j of row
    n + k is set when masks[j] misses the smaller cell of pair k of
    covering_face_pairs(X) and meets the larger one: meet[c], the OR of
    the vertex rows of cell c, holds the masks meeting c.
    """
    rows = [0] * X.n_vertices
    for j, m in enumerate(masks):
        for v in iter_bits(m):
            rows[v] |= 1 << j
    meet = []
    for c in X.cells:
        got = 0
        for v in c.vertices:
            got |= rows[v]
        meet.append(got)
    return rows + [meet[big] & ~meet[small]
                   for small, big in covering_face_pairs(X)]


def require_family_on(X: CellComplex, F: VertexFamily):
    """Raise FamilyError unless F is a family on the vertices of X."""
    if F.n != X.n_vertices:
        raise FamilyError(
            f"family on {F.n} vertices does not match complex on {X.n_vertices}")


def require_labelling_on(X: CellComplex, L: MonomialLabelling):
    """Raise FamilyError unless L labels the vertices of X."""
    if L.n_vertices != X.n_vertices:
        raise FamilyError("labelling size does not match the complex")


def _cover_witness(masks, full: int, d: int):
    """First index tuple, in itertools.combinations order, of min(d, m)
    masks whose union is full; None when no such tuple exists.

    A cover by fewer than d members is still a cover by d (members may
    repeat), so the ordered scan runs only once a cover by at most d
    members is known to exist.
    """
    if _minimum_cover_size(full, masks, d) is None:
        return None
    k = min(d, len(masks))
    return next(combo for combo, u in zip(
        itertools.combinations(range(len(masks)), k),
        cover_unions(0, masks, k)) if u == full)


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
    oracle = oracle_for(X, field, oracle)
    # closing the unions first refuses an oversized family (GuardExceeded)
    # before the cover-bound search, whose partial unions lie among these
    unions = sorted(subfamily_unions(masks))
    cover_witness = _cover_witness(masks, full, d)
    cover_bound = cover_witness is None

    complements_acyclic, union_witness = True, None
    for u in unions:
        if not oracle.is_acyclic(full & ~u):
            complements_acyclic, union_witness = False, set_of(u)
            break

    # a zero row is a requirement no member meets
    rows = requirement_rows(X, masks)
    n = X.n_vertices
    uncovered = next((v for v in range(n) if not rows[v]), None)
    covers_vertices = uncovered is None
    separation_witness = next((p for p, row in zip(covering_face_pairs(X),
                                                   rows[n:]) if not row), None)
    face_separation = separation_witness is None

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
    oracle = oracle_for(X, field, oracle)
    lattice = lcm_lattice(L)
    for b in sorted(lattice):
        if not oracle.is_acyclic(lattice[b]):
            return False, b
    return True, None


def multidegree(L: MonomialLabelling, vertices) -> Monomial:
    """Join of the labels over a set of vertices."""
    vertices = tuple(vertices)
    bad = next((v for v in vertices if not 0 <= v < L.n_vertices), None)
    if bad is not None:
        raise LabellingError(
            f"vertex {bad} is out of range for {L.n_vertices} labels")
    return Monomial(_lcm_exponents(L, mask_of(vertices)))


def check_minimal(X: CellComplex, L: MonomialLabelling):
    """(is_minimal, witness covering pair or None).

    Minimal means the multidegree strictly increases along every covering
    face pair; divisibility is automatic, so only equality can fail.  A
    degree-zero vertex label would be a unit entry in the first map and is
    rejected the same way (witness (None, vertex cell id)).
    """
    require_labelling_on(X, L)
    mdeg = [_lcm_exponents(L, mask_of(c.vertices)) for c in X.cells]
    for c in X.cells:
        if c.dim == 0:
            if sum(mdeg[c.id]) == 0:
                return False, (None, c.id)
            continue
        for b, _ in c.boundary:
            if mdeg[b] == mdeg[c.id]:
                return False, (b, c.id)
    return True, None


def _minimum_cover_size(universe: int, masks, limit: int = None):
    """Fewest masks whose union contains `universe`; None when no cover
    exists or more than `limit` masks are needed.

    The parts of `universe` that the partial covers of each size leave
    uncovered are kept as a set.  Some mask of every cover holds the lowest
    vertex such a rest still holds, so a rest shrinks only by those masks.
    The search stops at `limit`: it builds no rests for a larger size.
    """
    reach = 0
    for m in masks:
        reach |= m
    if universe & ~reach:
        return None
    level, size = {universe}, 0
    while 0 not in level:
        if size == limit:
            return None
        grown = set()
        for rest in level:
            low = rest & -rest
            grown.update(rest & ~m for m in masks if m & low)
        level, size = grown, size + 1
    return size


def codimension(L: MonomialLabelling) -> int:
    """Fewest variables meeting the support of every label."""
    universe = (1 << L.n_vertices) - 1
    size = _minimum_cover_size(universe, _supports(L))
    if size is None:
        raise FamilyError("some label is the unit monomial; nothing covers it")
    return size


class CmVerdict(NamedTuple):
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


class CellularFreeComplex(NamedTuple):
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


def build_free_complex(X: CellComplex, L: MonomialLabelling) -> CellularFreeComplex:
    """Construct the free complex of a signed labelled complex.

    Entries of the degree-1 map are the labels themselves; higher entries
    are the signed quotient monomials between the multidegrees of a cell
    and its boundary cell.  X must pass `validate_complex`, as every complex
    that `complex_from_dict` loads does: the quotients along any two-step
    path multiply to one monomial, so the maps compose to zero exactly when
    X's signed boundary does, and the build does not check it again.
    """
    require_labelling_on(X, L)
    if not X.fully_signed():
        raise SignsMissingError("free complex needs signed incidences")
    zero = (0,) * L.n_variables
    mdeg = [_lcm_exponents(L, mask_of(c.vertices)) for c in X.cells]
    cell_ids = [(None,)] + [tuple(c.id for c in X.cells_of_dim(d))
                            for d in range(X.dim + 1)]
    # the void complex has no degree-1 generators and so no maps at all
    maps = [tuple(((0, 1, mdeg[cid]),) for cid in ids) for ids in cell_ids[1:2]]
    for rows, cols in zip(cell_ids[1:], cell_ids[2:]):
        pos = {cid: i for i, cid in enumerate(rows)}
        maps.append(tuple(
            tuple((pos[b], s, tuple(x - y for x, y in zip(mdeg[cid], mdeg[b])))
                  for b, s in X.cells[cid].boundary)
            for cid in cols))
    return CellularFreeComplex(
        L.n_variables,
        tuple([(zero,)] + [tuple(mdeg[cid] for cid in ids)
                           for ids in cell_ids[1:]]),
        tuple(cell_ids),
        tuple(maps),
    )

