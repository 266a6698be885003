"""Regular cell complexes with signed boundary incidences.

A complex is a flat list of cells; cell ids are list positions.  Dimension-0
cells are singleton vertex cells, higher cells record their vertex support
and their boundary as (cell_id, sign) pairs with sign in {-1, 0, +1}; sign 0
marks "not yet assigned", which is enough for homology over GF(2) but not
over other fields.

Reduced homology is computed from the augmented chain complex, so the report
includes dimension -1 and a one-point complex is acyclic.  The void complex
(no cells at all) is acyclic by convention.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .linalg import GF2, FieldSpec, gf2_rank, matrix_rank


class ComplexError(ValueError):
    """Structurally bad cell complex input."""


class SignsMissingError(ComplexError):
    """An operation needed signed incidences but the complex has unset signs."""


class SignConflictError(ComplexError):
    """No consistent sign assignment exists for the given boundary structure."""


class Cell(NamedTuple):
    id: int
    dim: int
    vertices: frozenset
    boundary: tuple  # ((cell_id, sign), ...)


class CellComplex(NamedTuple):
    n_vertices: int
    cells: tuple  # Cell entries, indexed by id

    @property
    def dim(self) -> int:
        return max((c.dim for c in self.cells), default=-1)

    def cells_of_dim(self, d: int) -> list:
        return [c for c in self.cells if c.dim == d]

    def fully_signed(self) -> bool:
        return all(s != 0 for c in self.cells for _, s in c.boundary)

    def f_vector(self) -> tuple:
        if not self.cells:
            return ()
        counts = [0] * (self.dim + 1)
        for c in self.cells:
            counts[c.dim] += 1
        return tuple(counts)


_EMPTY_FACE = ((-1, 1),)  # a vertex's boundary in the augmented complex


class ComplexBuilder:
    """Incremental constructor; every add_ method returns the new cell id.

    With `add_vertices` the builder starts with one vertex cell per vertex,
    vertex v being cell v; only then do `add_edge` and `add_polygon` apply.
    """

    def __init__(self, n_vertices: int, add_vertices: bool = True):
        self.n_vertices = n_vertices
        self._cells = []
        self._edges = {}  # (u, v) and (v, u) -> id of the edge u-v
        if add_vertices:
            for v in range(n_vertices):
                self.add_cell(0, (v,), ())

    def add_cell(self, dim: int, vertices, boundary=()) -> int:
        """Append a cell whose boundary is (cell_id, sign) pairs."""
        cid = len(self._cells)
        self._cells.append(Cell(cid, dim, frozenset(vertices),
                                tuple((b, s) for b, s in boundary)))
        return cid

    def add_edge(self, u: int, v: int) -> int:
        """Append the edge u-v with boundary u, then v, and +1 on the larger
        vertex id, the orientation `assign_signs` gives an edge."""
        cid = self.add_cell(1, (u, v), ((u, 1 if u > v else -1),
                                        (v, 1 if v > u else -1)))
        self._edges[u, v] = self._edges[v, u] = cid
        return cid

    def add_polygon(self, cycle) -> int:
        """Append a 2-cell on a vertex cycle whose consecutive vertices are
        joined by added edges.  Its boundary lists those edges in walking
        order, +1 on an edge walked from its smaller to its larger id."""
        steps = zip(cycle, (*cycle[1:], cycle[0]))
        return self.add_cell(2, cycle, [(self._edges[a, c], 1 if a < c else -1)
                                        for a, c in steps])

    def build(self) -> CellComplex:
        return CellComplex(self.n_vertices, tuple(self._cells))


def validate_complex(X: CellComplex) -> list:
    """Return diagnostics (empty list means every invariant holds).

    Checked: cell ids are positional; vertex cells are singletons covering
    each vertex exactly once; boundaries reference cells one dimension down,
    each at most once; the vertex set of a positive-dimensional cell is the
    union of its boundary's vertex sets; signs lie in {-1, 0, +1}.  The rest
    is read off the augmented chain complex, where every vertex has the
    empty face, named -1, as its boundary with sign +1: every face two
    dimensions below a cell lies under exactly two of its boundary cells
    (the diamond property; for an edge, two endpoints), and when the complex
    is fully signed the composite boundary vanishes (for an edge, endpoints
    of opposite sign).
    """
    diags = []
    cells = X.cells
    ncells = len(cells)
    seen_vertices = {}
    signed = True
    nonzero = []  # composite-boundary faults, reported if fully signed
    for i, c in enumerate(cells):
        if c.id != i:
            diags.append(f"cell at index {i} has id {c.id}")
        if c.dim == 0:
            if c.boundary:
                diags.append(f"cell {c.id}: dimension-0 cell with nonempty boundary")
            if len(c.vertices) != 1:
                diags.append(f"cell {c.id}: dimension-0 cell must have one vertex")
                continue
            (v,) = c.vertices
            if v in seen_vertices:
                diags.append(f"vertex {v} appears in cells {seen_vertices[v]} and {c.id}")
            seen_vertices[v] = c.id
        elif not c.vertices:
            diags.append(f"cell {c.id}: empty vertex set")
        for v in c.vertices:
            if not 0 <= v < X.n_vertices:
                diags.append(f"cell {c.id}: vertex {v} out of range")
        if c.dim == 0:
            continue
        if len(dict(c.boundary)) != len(c.boundary):
            diags.append(f"cell {c.id}: repeated boundary cell")
        closure = set()
        count = {}  # face -> boundary cells above it
        total = {}  # face -> signed sum of their incidences
        for b, s in c.boundary:
            if not s:
                signed = False
            elif s not in (-1, 1):
                diags.append(f"cell {c.id}: sign {s} on boundary cell {b}")
            if not 0 <= b < ncells:
                diags.append(f"cell {c.id}: boundary id {b} out of range")
                continue
            bc = cells[b]
            if bc.dim != c.dim - 1:
                diags.append(f"cell {c.id}: boundary cell {b} has dimension {bc.dim}")
            closure |= bc.vertices
            for f, t in bc.boundary if bc.dim else _EMPTY_FACE:
                if bc.dim and not 0 <= f < ncells:
                    continue  # reported at bc; no face of c
                count[f] = count.get(f, 0) + 1
                total[f] = total.get(f, 0) + s * t
        if closure != c.vertices:
            diags.append(f"cell {c.id}: vertex set differs from union of boundary vertex sets")
        for f, k in count.items():
            if k != 2:
                diags.append(f"cell {c.id}: face {f} lies under {k} boundary cells, expected 2")
        if any(total.values()):
            bad = sorted(f for f, v in total.items() if v)
            nonzero.append(f"cell {c.id}: boundary of boundary is nonzero at {bad}")
    # one diagnostic names the lowest missing vertex and counts the rest,
    # so its size does not grow with n_vertices
    missing = X.n_vertices - sum(0 <= v < X.n_vertices for v in seen_vertices)
    if missing > 0:
        v = next(v for v in itertools.count() if v not in seen_vertices)
        more = f", nor do {missing - 1} more vertices" if missing > 1 else ""
        diags.append(f"vertex {v} has no dimension-0 cell{more}")
    return diags + nonzero if signed else diags


def restrict(X: CellComplex, vertices) -> CellComplex:
    """Subcomplex induced on a vertex subset, with cell ids renumbered.

    Cells survive iff their vertex support lies inside the subset; vertex
    ids themselves are kept, so the result lives on the same vertex range.
    An empty subset yields the void complex.
    """
    wanted = frozenset(vertices)
    for v in wanted:
        if not 0 <= v < X.n_vertices:
            raise ComplexError(f"vertex {v} out of range")
    keep = [c for c in X.cells if c.vertices <= wanted]
    remap = {c.id: i for i, c in enumerate(keep)}
    new_cells = tuple(
        Cell(remap[c.id], c.dim, c.vertices,
             tuple((remap[b], s) for b, s in c.boundary))
        for c in keep
    )
    return CellComplex(X.n_vertices, new_cells)


class HomologyReport(NamedTuple):
    field: str
    reduced_betti: dict  # dimension -> rank, nonzero entries only (includes -1)
    acyclic: bool


def chain_ranks(maps, field: FieldSpec) -> list:
    """Ranks over `field` of boundary maps given as sparse columns.

    Each map is a list of columns, each column a list of (row, sign) pairs
    in any row coordinates, each row at most once.  Over Q the columns go
    to `matrix_rank` as they are; over GF(2) each is packed into a bitmask
    and the signs are ignored.  A map with no entries has rank 0 and needs
    no elimination.
    """
    ranks = []
    for cols in maps:
        if not any(cols):
            ranks.append(0)
        elif field.is_rational:
            ranks.append(matrix_rank(cols, field))
        else:
            ranks.append(gf2_rank(sum(1 << r for r, _ in col) for col in cols))
    return ranks


def _find(parent, a: int) -> int:
    """Root of a in the union-find forest `parent`, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _join(parent, a: int, b: int) -> bool:
    """Merge the classes of a and b in `parent`; False if already one."""
    ra, rb = _find(parent, a), _find(parent, b)
    parent[ra] = rb
    return ra != rb


def reduced_betti(by_dim, field: FieldSpec) -> dict:
    """Nonzero reduced Betti numbers (dimension -1 included) of the cells
    listed by dimension in `by_dim`, which must hold every boundary cell of
    every listed cell.  Each boundary map is the cells' boundary tuples, in
    cell-id coordinates.  The augmentation C_0 -> C_(-1) has rank 1
    whenever there are vertices.  Every edge must have two endpoints, of
    opposite signs unless the field is GF(2); then the edge map's rank is
    the vertex count less the number of components, the merges a
    union-find makes, and only the maps from dimension 2 up are eliminated."""
    parent = {c.id: c.id for c in by_dim[0]}
    merges = sum(_join(parent, c.boundary[0][0], c.boundary[1][0])
                 for c in (by_dim[1] if len(by_dim) > 1 else ()))
    maps = [[c.boundary for c in cells] for cells in by_dim[2:]]
    ranks = [1 if parent else 0, merges]
    ranks += chain_ranks(maps, field) + [0]
    betti = {-1: 1} if not ranks[0] else {}
    for d, cells in enumerate(by_dim):
        b = len(cells) - ranks[d] - ranks[d + 1]
        if b:
            betti[d] = b
    return betti


def reduced_homology(X: CellComplex, field: FieldSpec = GF2) -> HomologyReport:
    """Reduced Betti numbers of the augmented chain complex, exactly.

    Over GF(2) the stored signs are irrelevant and may be unset; any other
    field requires a fully signed complex.
    """
    if field.characteristic != 2 and not X.fully_signed():
        raise SignsMissingError(
            f"homology over {field.describe()} needs signed incidences")
    if not X.cells:
        return HomologyReport(field.describe(), {}, True)
    betti = reduced_betti([X.cells_of_dim(d) for d in range(X.dim + 1)], field)
    return HomologyReport(field.describe(), betti, not betti)


def vertex_adjacency(X: CellComplex) -> list:
    """adj[v] is the bitmask of the vertices joined to v by an edge."""
    adj = [0] * X.n_vertices
    for c in X.cells_of_dim(1):
        u, v = c.vertices
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def is_connected(adj: list, mask: int) -> bool:
    """Is the 1-skeleton induced on the vertex bitmask connected?

    Flood fill from the lowest vertex of the mask, one vertex at a time.
    The restriction of a complex to a vertex set is connected exactly when
    this holds.
    """
    seen = frontier = mask & -mask
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def assign_signs(X: CellComplex) -> CellComplex:
    """Choose boundary signs making the composite boundary vanish.

    One pass signs the cells in order of dimension, each from the signs
    already chosen for its boundary cells; any stored signs are ignored.
    A vertex keeps an empty boundary, and an edge gets +1 on its endpoint
    with the larger vertex id.  In a higher cell c every face f two
    dimensions down lies under exactly two boundary cells b and b', and the
    composite boundary vanishes at f exactly when eps(b) * eps(b') is
    -sign(b, f) * sign(b', f).  So along any path of such diamonds the sign
    of the first boundary cell fixes all the others: once the first
    boundary cell (in boundary order) of each connected set of diamonds is
    +1, at most one assignment remains, and a walk in any order finds it.
    Raises ComplexError when a face lies under other than two boundary
    cells, and SignConflictError, naming a violating pair or diamond, when
    no consistent assignment exists.
    """
    by_dim = [[] for _ in range(X.dim + 1)]
    for c in X.cells:
        by_dim[c.dim].append(c)
    sign = {}  # cell id -> {boundary id: sign}, in boundary order
    for c in itertools.chain.from_iterable(by_dim):
        if c.dim == 0:
            sign[c.id] = {}
        elif c.dim == 1:
            if len(c.boundary) != 2:
                raise ComplexError(f"edge {c.id} has {len(c.boundary)} boundary cells")
            hi = max((b for b, _ in c.boundary),
                     key=lambda b: max(X.cells[b].vertices))
            sign[c.id] = {b: 1 if b == hi else -1 for b, _ in c.boundary}
        else:
            sign[c.id] = _solve_cell_signs(c, sign)
    return CellComplex(X.n_vertices, tuple(
        Cell(c.id, c.dim, c.vertices,
             tuple((b, sign[c.id][b]) for b, _ in c.boundary) if c.dim else ())
        for c in X.cells))


def _solve_cell_signs(c: Cell, sign: dict) -> dict:
    """The signs of c's boundary cells, keyed in boundary order, from the
    signs in `sign` of their own boundaries (see assign_signs)."""
    over = {}  # face -> [(boundary cell, its sign on the face), ...]
    for b, _ in c.boundary:
        for f, s in sign[b].items():
            over.setdefault(f, []).append((b, s))
    link = {b: {} for b, _ in c.boundary}  # b -> {b': (eps(b) * eps(b'), face)}
    for f, under in over.items():
        if len(under) != 2:
            raise ComplexError(
                f"cell {c.id}: face {f} lies under {len(under)} boundary cells, expected 2")
        (b, s), (b2, s2) = under
        prev = link[b].get(b2)
        if prev is not None and prev[0] != -s * s2:
            raise SignConflictError(
                f"cell {c.id}: faces {prev[1]} and {f} force opposite relative signs "
                f"between boundary cells {b} and {b2}")
        link[b][b2] = link[b2][b] = (-s * s2, f)
    eps = dict.fromkeys(link, 0)
    for seed in eps:
        if eps[seed]:
            continue
        eps[seed] = 1
        stack = [seed]
        while stack:
            b = stack.pop()
            for b2, (product, f) in link[b].items():
                if not eps[b2]:
                    eps[b2] = product * eps[b]
                    stack.append(b2)
                elif eps[b] * eps[b2] != product:
                    raise SignConflictError(
                        f"cell {c.id}: diamond at face {f} (boundary cells {b}, {b2}) "
                        f"admits no consistent signs")
    return eps


def is_polytope_complex(X: CellComplex) -> bool:
    """Does the complex look like the face complex of a polytope?

    Operational test: a single top-dimensional cell whose iterated boundary
    reaches every other cell.  Disks with interior walls (several top cells)
    and graphs with more than one edge fail.
    """
    if X.dim < 0:
        return False
    tops = X.cells_of_dim(X.dim)
    if len(tops) != 1:
        return False
    seen = {tops[0].id}
    stack = [tops[0].id]
    while stack:
        for b, _ in X.cells[stack.pop()].boundary:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(X.cells)
