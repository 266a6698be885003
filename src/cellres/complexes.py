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
from dataclasses import dataclass

from .linalg import GF2, FieldSpec, gf2_rank, matrix_rank


class ComplexError(ValueError):
    """Structurally bad cell complex input."""


class SignsMissingError(ComplexError):
    """An operation needed signed incidences but the complex has unset signs."""


class SignConflictError(ComplexError):
    """No consistent sign assignment exists for the given boundary structure."""


@dataclass(frozen=True)
class Cell:
    id: int
    dim: int
    vertices: frozenset
    boundary: tuple  # ((cell_id, sign), ...)


@dataclass(frozen=True)
class CellComplex:
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


class ComplexBuilder:
    """Incremental constructor; add_cell returns the new cell id."""

    def __init__(self, n_vertices: int, add_vertices: bool = True):
        self.n_vertices = n_vertices
        self._cells = []
        if add_vertices:
            for v in range(n_vertices):
                self.add_cell(0, (v,), ())

    def add_cell(self, dim: int, vertices, boundary=()) -> int:
        """Append a cell whose boundary is (cell_id, sign) pairs."""
        cid = len(self._cells)
        self._cells.append(Cell(cid, dim, frozenset(vertices),
                                tuple((b, s) for b, s in boundary)))
        return cid

    def build(self) -> CellComplex:
        return CellComplex(self.n_vertices, tuple(self._cells))


def validate_complex(X: CellComplex) -> list:
    """Return diagnostics (empty list means every invariant holds).

    Checked: cell ids are positional; vertex cells are singletons covering
    each vertex exactly once; boundaries reference cells one dimension down,
    each at most once; the vertex set of a positive-dimensional cell is the
    union of its boundary's vertex sets; signs lie in {-1, 0, +1}; when the
    complex is fully signed, the composite boundary vanishes; and every
    (d, d-2) incidence closes into a diamond (exactly two intermediate
    cells).
    """
    diags = []
    for i, c in enumerate(X.cells):
        if c.id != i:
            diags.append(f"cell at index {i} has id {c.id}")
    seen_vertices = {}
    for c in X.cells:
        if c.dim == 0:
            if len(c.vertices) != 1:
                diags.append(f"cell {c.id}: dimension-0 cell must have one vertex")
                continue
            (v,) = tuple(c.vertices)
            if v in seen_vertices:
                diags.append(f"vertex {v} appears in cells {seen_vertices[v]} and {c.id}")
            seen_vertices[v] = c.id
        if not c.vertices:
            diags.append(f"cell {c.id}: empty vertex set")
        for v in c.vertices:
            if not 0 <= v < X.n_vertices:
                diags.append(f"cell {c.id}: vertex {v} out of range")
    # one diagnostic names the lowest missing vertex and counts the rest,
    # so its size does not grow with n_vertices
    missing = X.n_vertices - sum(0 <= v < X.n_vertices for v in seen_vertices)
    if missing > 0:
        v = next(v for v in itertools.count() if v not in seen_vertices)
        more = f", nor do {missing - 1} more vertices" if missing > 1 else ""
        diags.append(f"vertex {v} has no dimension-0 cell{more}")
    ncells = len(X.cells)
    for c in X.cells:
        if c.dim == 0:
            if c.boundary:
                diags.append(f"cell {c.id}: dimension-0 cell with nonempty boundary")
            continue
        ids = [b for b, _ in c.boundary]
        if len(set(ids)) != len(ids):
            diags.append(f"cell {c.id}: repeated boundary cell")
        closure = set()
        for b, s in c.boundary:
            if not 0 <= b < ncells:
                diags.append(f"cell {c.id}: boundary id {b} out of range")
                continue
            bc = X.cells[b]
            if bc.dim != c.dim - 1:
                diags.append(f"cell {c.id}: boundary cell {b} has dimension {bc.dim}")
            if s not in (-1, 0, 1):
                diags.append(f"cell {c.id}: sign {s} on boundary cell {b}")
            closure |= bc.vertices
        if closure != c.vertices:
            diags.append(f"cell {c.id}: vertex set differs from union of boundary vertex sets")
    # diamond property: each codimension-2 face below a cell sits under
    # exactly two of its boundary cells
    for c in X.cells:
        if c.dim < 2:
            continue
        counts = {}
        for b, _ in c.boundary:
            if not 0 <= b < ncells:
                continue
            for f, _ in X.cells[b].boundary:
                counts[f] = counts.get(f, 0) + 1
        for f, k in counts.items():
            if k != 2:
                diags.append(f"cell {c.id}: face {f} lies under {k} boundary cells, expected 2")
    if X.fully_signed():
        for c in X.cells:
            if c.dim < 2:
                continue
            acc = {}
            for b, s in c.boundary:
                for f, t in X.cells[b].boundary:
                    acc[f] = acc.get(f, 0) + s * t
            bad = {f: v for f, v in acc.items() if v != 0}
            if bad:
                diags.append(f"cell {c.id}: boundary of boundary is nonzero at {sorted(bad)}")
    return diags


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


@dataclass(frozen=True)
class HomologyReport:
    field: str
    reduced_betti: dict  # dimension -> rank, nonzero entries only (includes -1)
    acyclic: bool


def chain_ranks(maps, field: FieldSpec) -> list:
    """Ranks over `field` of boundary maps given as sparse columns.

    Each map is a list of columns, each column a list of (row position,
    sign) pairs.  Over GF(2) a column is packed into a bitmask and the signs
    are ignored; over Q the map becomes a dense integer matrix.  A map with
    no entries has rank 0 and needs no elimination.
    """
    ranks = []
    for cols in maps:
        if not any(cols):
            ranks.append(0)
        elif field.is_rational:
            mat = [[0] * len(cols)
                   for _ in range(1 + max(r for col in cols for r, _ in col))]
            for j, col in enumerate(cols):
                for r, s in col:
                    mat[r][j] = s
            ranks.append(matrix_rank(mat, field))
        else:
            packed = []
            for col in cols:
                bits = 0
                for r, _ in col:
                    bits |= 1 << r
                packed.append(bits)
            ranks.append(gf2_rank(packed))
    return ranks


def reduced_betti(by_dim, field: FieldSpec) -> dict:
    """Nonzero reduced Betti numbers (dimension -1 included) of the cells
    listed by dimension in `by_dim`, which must hold every boundary cell of
    every listed cell.  The augmentation C_0 -> C_(-1) has rank 1 whenever
    there are vertices, so only the higher maps are eliminated."""
    maps = []
    for d in range(1, len(by_dim)):
        pos = {c.id: i for i, c in enumerate(by_dim[d - 1])}
        maps.append([[(pos[b], s) for b, s in c.boundary] for c in by_dim[d]])
    ranks = [1 if by_dim[0] else 0] + chain_ranks(maps, field) + [0]
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

    Edges are oriented from their smaller to their larger vertex id (+1 on
    the larger endpoint).  For each higher cell the four incidences around
    every (d, d-2) diamond must multiply to -1; that constraint is solved
    by propagation along a spanning tree of the diamond-adjacency graph of
    the cell's boundary, seeding the smallest boundary id with +1.  Any
    stored signs are ignored and recomputed, so the output is deterministic
    for a given cell ordering.  Raises SignConflictError, naming a violating
    diamond, when no consistent assignment exists.
    """
    new_boundary = {}
    new_sign = {}  # cell id -> {boundary id: sign}
    for d in range(0, X.dim + 1):
        for c in X.cells_of_dim(d):
            if d == 0:
                new_boundary[c.id] = ()
                new_sign[c.id] = {}
                continue
            if d == 1:
                ids = [b for b, _ in c.boundary]
                if len(ids) != 2:
                    raise ComplexError(f"edge {c.id} has {len(ids)} boundary cells")
                vs = {b: max(X.cells[b].vertices) for b in ids}
                hi = max(ids, key=lambda b: vs[b])
                entries = tuple((b, 1 if b == hi else -1) for b, _ in c.boundary)
            else:
                entries = _solve_cell_signs(X, c, new_sign)
            new_boundary[c.id] = entries
            new_sign[c.id] = dict(entries)
    cells = tuple(
        Cell(c.id, c.dim, c.vertices, new_boundary[c.id]) for c in X.cells
    )
    return CellComplex(X.n_vertices, cells)


def _solve_cell_signs(X: CellComplex, c: Cell, new_sign: dict) -> tuple:
    ids = [b for b, _ in c.boundary]
    index = {b: i for i, b in enumerate(ids)}
    shared = {}
    for b in ids:
        for f in new_sign[b]:
            shared.setdefault(f, []).append(b)
    edges = {}  # (i, j) -> (required product, witness face)
    for f, bs in shared.items():
        if len(bs) != 2:
            raise ComplexError(
                f"cell {c.id}: face {f} lies under {len(bs)} boundary cells, expected 2")
        b1, b2 = bs
        i, j = sorted((index[b1], index[b2]))
        req = -new_sign[ids[i]][f] * new_sign[ids[j]][f]
        prev = edges.get((i, j))
        if prev is not None and prev[0] != req:
            raise SignConflictError(
                f"cell {c.id}: faces {prev[1]} and {f} force opposite relative signs "
                f"between boundary cells {ids[i]} and {ids[j]}")
        edges[(i, j)] = (req, f)
    adj = {i: [] for i in range(len(ids))}
    for (i, j), (req, f) in edges.items():
        adj[i].append((j, req, f))
        adj[j].append((i, req, f))
    eps = [0] * len(ids)
    for seed in range(len(ids)):
        if eps[seed]:
            continue
        eps[seed] = 1
        queue = [seed]
        while queue:
            i = queue.pop(0)
            for j, req, f in sorted(adj[i]):
                if eps[j] == 0:
                    eps[j] = req * eps[i]
                    queue.append(j)
                elif eps[i] * eps[j] != req:
                    raise SignConflictError(
                        f"cell {c.id}: diamond at face {f} (boundary cells {ids[i]}, {ids[j]}) "
                        f"admits no consistent signs")
    return tuple((b, eps[index[b]]) for b in ids)


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


def euler_characteristic(X: CellComplex) -> int:
    """Alternating cell count (unreduced)."""
    return sum((-1) ** c.dim for c in X.cells)


def strip_signs(X: CellComplex) -> CellComplex:
    cells = tuple(
        Cell(c.id, c.dim, c.vertices, tuple((b, 0) for b, _ in c.boundary))
        for c in X.cells
    )
    return CellComplex(X.n_vertices, cells)
