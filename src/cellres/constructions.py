"""Complexes and labellings with known Cohen-Macaulay behaviour.

Trees with doubled edge variables, subdivided polygons and their string
families, pyramids and elongated pyramids, wheel polytopes, and a fixture
catalogue of hand-labelled instances used throughout the tests.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .complexes import CellComplex, ComplexBuilder, ComplexError, assign_signs
from .monomials import (
    FamilyError,
    MonomialLabelling,
    VertexFamily,
    family,
    labelling,
)


# ---------------------------------------------------------------------------
# trees


def _find(parent: list, a: int) -> int:
    """Root of a in the union-find forest `parent`, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


@dataclass(frozen=True)
class OrientedTree:
    """Tree on vertices 0..n-1 with directed edges (source, target)."""

    n: int
    edges: tuple  # (source, target) pairs

    def __post_init__(self):
        if len(self.edges) != self.n - 1:
            raise ComplexError(f"a tree on {self.n} vertices has {self.n - 1} edges")
        parent = list(range(self.n))
        for s, t in self.edges:
            if not (0 <= s < self.n and 0 <= t < self.n) or s == t:
                raise ComplexError(f"bad edge ({s}, {t})")
            rs, rt = _find(parent, s), _find(parent, t)
            if rs == rt:
                raise ComplexError("edges contain a cycle")
            parent[rs] = rt

    def side_vertices(self, edge_index: int):
        """(source side, target side) after removing the indexed edge."""
        s, t = self.edges[edge_index]
        adj = {v: [] for v in range(self.n)}
        for i, (a, b) in enumerate(self.edges):
            if i == edge_index:
                continue
            adj[a].append(b)
            adj[b].append(a)
        comp = set()
        stack = [s]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v])
        return frozenset(comp), frozenset(range(self.n)) - frozenset(comp)


def tree_complex(T: OrientedTree) -> CellComplex:
    """One-dimensional complex of a tree; each edge points source -> target."""
    b = ComplexBuilder(T.n)
    for s, t in T.edges:
        b.add_cell(1, (s, t), ((t, 1), (s, -1)))
    return b.build()


def tree_maximal_labelling(T: OrientedTree) -> MonomialLabelling:
    """Labelling in 2(n-1) variables: each edge contributes one variable to
    every vertex on its source side and a second to every vertex on its
    target side.  Variables are ordered (edge, source-side copy,
    target-side copy)."""
    nvar = 2 * (T.n - 1)
    rows = [[0] * nvar for _ in range(T.n)]
    for e in range(T.n - 1):
        src_side, tgt_side = T.side_vertices(e)
        for v in src_side:
            rows[v][2 * e] = 1
        for v in tgt_side:
            rows[v][2 * e + 1] = 1
    return labelling(nvar, [tuple(r) for r in rows])


def all_labelled_trees(n: int):
    """Every tree on vertices 0..n-1, as frozensets of sorted edge pairs."""
    if n == 1:
        yield frozenset()
        return
    if n == 2:
        yield frozenset({(0, 1)})
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        for v in seq:
            deg[v] += 1
        edges = []
        heap = [v for v in range(n) if deg[v] == 1]
        heapq.heapify(heap)
        for v in seq:
            leaf = heapq.heappop(heap)
            edges.append((min(leaf, v), max(leaf, v)))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(heap, v)
        u = heapq.heappop(heap)
        w = heapq.heappop(heap)
        edges.append((min(u, w), max(u, w)))
        yield frozenset(edges)


def edges_to_tree(n: int, edges) -> OrientedTree:
    return OrientedTree(n, tuple(sorted((min(a, b), max(a, b)) for a, b in edges)))


def _lcm_degree_table(L: MonomialLabelling):
    n = L.n_vertices
    deg = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = L.labels[i].exponents, L.labels[j].exponents
            deg[(i, j)] = sum(max(x, y) for x, y in zip(a, b))
    return deg


def _tree_passes_thresholds(edges, n, edge_deg) -> bool:
    thresholds = sorted(set(edge_deg.values()))
    for d in thresholds:
        parent = list(range(n))
        for (i, j) in edges:
            if edge_deg[(i, j)] <= d:
                parent[_find(parent, i)] = _find(parent, j)
        for (i, j), dd in edge_deg.items():
            if dd <= d and _find(parent, i) != _find(parent, j):
                return False
    return True


def tree_resolution_trees(L: MonomialLabelling) -> frozenset:
    """All trees on the label set whose threshold subgraphs are spanning
    forests of the corresponding threshold subgraphs of the complete graph.

    Exhaustive over labelled trees, so intended for small vertex counts.
    """
    n = L.n_vertices
    edge_deg = _lcm_degree_table(L)
    out = set()
    for edges in all_labelled_trees(n):
        if _tree_passes_thresholds(edges, n, edge_deg):
            out.add(edges)
    return frozenset(out)


def canonical_resolution_tree(L: MonomialLabelling) -> OrientedTree:
    """Greedy tree: scan complete-graph edges by (lcm degree, lexicographic)
    and keep those joining distinct components."""
    n = L.n_vertices
    edge_deg = _lcm_degree_table(L)
    order = sorted(edge_deg, key=lambda e: (edge_deg[e], e))
    parent = list(range(n))
    chosen = []
    for (i, j) in order:
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
        if len(chosen) == n - 1:
            break
    return OrientedTree(n, tuple(sorted(chosen)))


def tree_unique_morphism(T: OrientedTree, L: MonomialLabelling):
    """Exponent matrix of the variable substitution carrying the doubled-edge
    labelling of T onto L.

    For the edge s -> t write the reduced fraction label_t / label_s as
    z^a / z^b; the target-side variable of the edge maps to z^a and the
    source-side variable to z^b.  Rows follow the doubled labelling's
    variable order.  The substitution is verified to carry each vertex's
    label onto L's label; failure raises, since it means T does not resolve
    the input.
    """
    if L.n_vertices != T.n:
        raise FamilyError("labelling size does not match the tree")
    nvar = 2 * (T.n - 1)
    rows = [None] * nvar
    for e, (s, t) in enumerate(T.edges):
        ms, mt = L.labels[s].exponents, L.labels[t].exponents
        up = tuple(max(y - x, 0) for x, y in zip(ms, mt))
        down = tuple(max(x - y, 0) for x, y in zip(ms, mt))
        rows[2 * e] = down      # source-side variable
        rows[2 * e + 1] = up    # target-side variable
    M = tree_maximal_labelling(T)
    for v in range(T.n):
        img = [0] * L.n_variables
        for p in range(nvar):
            if M.labels[v].exponents[p]:
                img = [a + b for a, b in zip(img, rows[p])]
        if tuple(img) != L.labels[v].exponents:
            raise ValueError(
                f"substitution does not carry the label of vertex {v}; "
                f"the tree does not resolve this input")
    return tuple(rows)


# ---------------------------------------------------------------------------
# polygons and chords


def _region_cycles(cycle, chords):
    if not chords:
        return [tuple(cycle)]
    (a, b), rest = chords[0], chords[1:]
    i, j = cycle.index(a), cycle.index(b)
    if i > j:
        i, j = j, i
    sides = (cycle[i:j + 1], cycle[j:] + cycle[:i + 1])
    out = []
    for side in sides:
        sset = set(side)
        inside = [c for c in rest if c[0] in sset and c[1] in sset]
        out.extend(_region_cycles(side, inside))
    return out


def subdivided_polygon(n: int, chords=()) -> CellComplex:
    """n-gon disk cut by pairwise non-crossing chords.

    Edges are oriented from smaller to larger vertex id; every region is a
    2-cell whose boundary walks its vertex cycle counterclockwise.
    """
    if n < 3:
        raise ComplexError("polygon needs at least 3 vertices")
    chords = tuple(tuple(sorted(c)) for c in chords)
    seen = set()
    for (u, v) in chords:
        if not (0 <= u < v < n):
            raise ComplexError(f"bad chord ({u}, {v})")
        if (v - u) in (1, n - 1):
            raise ComplexError(f"chord ({u}, {v}) duplicates a polygon edge")
        if (u, v) in seen:
            raise ComplexError(f"chord ({u}, {v}) repeated")
        seen.add((u, v))
    for (u1, v1), (u2, v2) in itertools.combinations(chords, 2):
        crossing = (u1 < u2 < v1 < v2) or (u2 < u1 < v2 < v1)
        if crossing:
            raise ComplexError(f"chords ({u1},{v1}) and ({u2},{v2}) cross")
    b = ComplexBuilder(n)
    edge_id = {}
    for i in range(n):
        u, v = sorted((i, (i + 1) % n))
        edge_id[(u, v)] = b.add_cell(1, (u, v), ((v, 1), (u, -1)))
    for (u, v) in chords:
        edge_id[(u, v)] = b.add_cell(1, (u, v), ((v, 1), (u, -1)))
    for region in _region_cycles(list(range(n)), list(chords)):
        bnd = []
        k = len(region)
        for t in range(k):
            a, c = region[t], region[(t + 1) % k]
            sign = 1 if a < c else -1
            bnd.append((edge_id[(min(a, c), max(a, c))], sign))
        b.add_cell(2, region, bnd)
    return b.build()


def polygon_complex(n: int) -> CellComplex:
    return subdivided_polygon(n)


def chord_complex(n: int, a: int) -> CellComplex:
    """Polygon cut by the single chord from vertex 0 to vertex a."""
    if not (2 <= a and 2 * a <= n):
        raise ComplexError("chord endpoint must satisfy 2 <= a and 2a <= n")
    return subdivided_polygon(n, ((0, a),))


@dataclass(frozen=True)
class Arc:
    """Consecutive run of vertices on the n-cycle: start, start+1, ..., end."""

    start: int
    end: int
    modulus: int

    def vertices(self) -> frozenset:
        out = []
        v = self.start % self.modulus
        while True:
            out.append(v)
            if v == self.end % self.modulus:
                break
            v = (v + 1) % self.modulus
        return frozenset(out)

    @property
    def length(self) -> int:
        return (self.end - self.start) % self.modulus + 1


def arc_set(start: int, length: int, n: int) -> frozenset:
    return Arc(start % n, (start + length - 1) % n, n).vertices()


def all_arcs(n: int, length: int):
    """All length-`length` arcs of the n-cycle, by starting vertex."""
    return [arc_set(s, length, n) for s in range(n)]


def polygon_family(n: int) -> VertexFamily:
    """The unique valid family of an odd polygon: all arcs of length
    (n-1)/2.  Even polygons admit no Cohen-Macaulay labelling at all, which
    is reported as an error."""
    if n < 3:
        raise ComplexError("polygon needs at least 3 vertices")
    if n % 2 == 0:
        raise FamilyError(
            f"the {n}-gon admits no Cohen-Macaulay labelling; no family exists")
    r = (n - 1) // 2
    return family(n, all_arcs(n, r))


def chord_families(n: int, a: int):
    """The two maximal families of the polygon with chord 0..a.

    Both have n+1 members.  The first keeps the short arcs anchored away
    from the chord; the second is its image under the reflection fixing the
    chord.
    """
    if not (2 <= a and 2 * a <= n):
        raise FamilyError("chord endpoint must satisfy 2 <= a and 2a <= n")
    chord_arc = arc_set(0, a + 1, n)  # vertices 0..a
    extra = arc_set(1, a - 1, n)      # vertices 1..a-1
    if n % 2:
        r = (n - 1) // 2
        first = family(n, all_arcs(n, r) + [extra])
        second_sets = []
        for s in all_arcs(n, r + 1):
            if chord_arc <= s:
                second_sets.append(s)
        for s in all_arcs(n, r):
            if (0 in s and (a - 1) % n not in s) or (a in s and 1 not in s):
                second_sets.append(s)
        for s in all_arcs(n, r - 1):
            if not (s & chord_arc):
                second_sets.append(s)
        second_sets.append(extra)
        second = family(n, second_sets)
    else:
        r = n // 2

        def one_sided(anchor, banned_pair):
            sets = [s for s in all_arcs(n, r) if anchor in s]
            sets += [s for s in all_arcs(n, r - 1) if not (s & banned_pair)]
            sets.append(extra)
            return family(n, sets)

        first = one_sided(0, frozenset({0, 1}))
        second = one_sided(a, frozenset({a, (a - 1) % n}))
    if len(first.sets) != n + 1 or len(second.sets) != n + 1:
        raise AssertionError("chord family construction lost a member")
    return first, second


# ---------------------------------------------------------------------------
# pyramids, elongated pyramids, wheels


def pyramid(X: CellComplex) -> CellComplex:
    """Cone over the whole complex with a new apex vertex (id n).

    Keeps every cell of X, adds the apex, and one cone cell over each cell
    of X.  Signs follow the mapping cone: the boundary of a cone is the
    base cell minus the cone over the base's boundary (apex for vertices).
    """
    n = X.n_vertices
    m = len(X.cells)
    apex = n
    b = ComplexBuilder(n + 1, add_vertices=False)
    for c in X.cells:
        b.add_cell(c.dim, c.vertices, c.boundary)
    apex_cell = b.add_cell(0, (apex,), ())
    cone_id = {}
    for c in X.cells:
        cone_id[c.id] = m + 1 + c.id
    for c in X.cells:
        verts = set(c.vertices) | {apex}
        if c.dim == 0:
            bnd = [(c.id, 1), (apex_cell, -1)]
        else:
            bnd = [(c.id, 1)] + [(cone_id[e], -s) for e, s in c.boundary]
        got = b.add_cell(c.dim + 1, verts, bnd)
        assert got == cone_id[c.id]
    return b.build()


def pyramid_family(F: VertexFamily) -> VertexFamily:
    """The family on the pyramid: everything as before plus the apex alone."""
    return family(F.n + 1, list(F.sets) + [{F.n}])


def _top_cells(X: CellComplex):
    return X.cells_of_dim(X.dim)


def elongated_pyramid(X: CellComplex) -> CellComplex:
    """Prism over X with a pyramid on top, as one polytope-like cell.

    The bottom copy keeps all of X; the top copy, the vertical prisms, and
    the apex cones exist only over proper cells (everything below the top
    dimension), so the full prism ceiling is not a face.  A single new top
    cell of dimension dim X + 1 has every dim-X cell in its boundary.
    Vertices: bottom v, top copy v + n, apex 2n.  Signs are reassigned from
    scratch.
    """
    if X.dim < 1:
        raise ComplexError("elongated pyramid needs a complex of dimension >= 1")
    tops = _top_cells(X)
    if len(tops) != 1:
        raise ComplexError("elongated pyramid needs a single top cell")
    n = X.n_vertices
    apex = 2 * n
    b = ComplexBuilder(2 * n + 1, add_vertices=False)
    bottom = {}
    for c in X.cells:
        bottom[c.id] = b.add_cell(c.dim, c.vertices,
                                  [(bottom[e], 0) for e, _ in c.boundary])
    top_dim = X.dim
    proper = [c for c in X.cells if c.dim < top_dim]
    upper = {}
    for c in proper:
        upper[c.id] = b.add_cell(c.dim, {v + n for v in c.vertices},
                                 [(upper[e], 0) for e, _ in c.boundary])
    apex_cell = b.add_cell(0, (apex,), ())
    prism = {}
    for c in proper:
        verts = set(c.vertices) | {v + n for v in c.vertices}
        bnd = [(bottom[c.id], 0), (upper[c.id], 0)]
        bnd += [(prism[e], 0) for e, _ in c.boundary]
        prism[c.id] = b.add_cell(c.dim + 1, verts, bnd)
    cone = {}
    for c in proper:
        verts = {v + n for v in c.vertices} | {apex}
        bnd = [(upper[c.id], 0)]
        if c.dim == 0:
            bnd.append((apex_cell, 0))
        else:
            bnd += [(cone[e], 0) for e, _ in c.boundary]
        cone[c.id] = b.add_cell(c.dim + 1, verts, bnd)
    facets = [c for c in X.cells if c.dim == top_dim - 1]
    top_bnd = [(bottom[t.id], 0) for t in tops]
    top_bnd += [(prism[f.id], 0) for f in facets]
    top_bnd += [(cone[f.id], 0) for f in facets]
    all_verts = set(range(2 * n + 1))
    b.add_cell(top_dim + 1, all_verts, top_bnd)
    return assign_signs(b.build())


def ep_family(F: VertexFamily) -> VertexFamily:
    """Family on the elongated pyramid over the base family's complex:
    each member appears once lifted to the top copy together with the apex
    and once doubled across both copies, plus the whole bottom copy."""
    n = F.n
    sets = []
    for s in F.sets:
        sets.append({v + n for v in s} | {2 * n})
    for s in F.sets:
        sets.append(set(s) | {v + n for v in s})
    sets.append(set(range(n)))
    return family(2 * n + 1, sets)


def wheel_polytope(n: int) -> CellComplex:
    """3-polytope with a 2n-gon rim, a hub joined to the odd rim vertices,
    and outer membranes over the even rim vertices.

    Vertices 0..2n-1 around the rim, hub 2n.  Two-cells: n kites at the
    hub, n outer triangles, and one outer n-gon region; a single 3-cell has
    all of them in its boundary.  f = (2n+1, 4n, 2n+1, 1).
    """
    if n < 3:
        raise ComplexError("wheel needs n >= 3")
    hub = 2 * n
    b = ComplexBuilder(2 * n + 1)
    rim = {}
    for i in range(2 * n):
        j = (i + 1) % (2 * n)
        rim[i] = b.add_cell(1, (i, j), ((i, 0), (j, 0)))
    spoke = {}
    for k in range(n):
        v = 2 * k + 1
        spoke[v] = b.add_cell(1, (hub, v), ((hub, 0), (v, 0)))
    outer = {}
    for k in range(n):
        u, w = 2 * k, (2 * k + 2) % (2 * n)
        outer[u] = b.add_cell(1, (u, w), ((u, 0), (w, 0)))
    two_cells = []
    for k in range(n):
        v1, v2, v3 = 2 * k + 1, (2 * k + 2) % (2 * n), (2 * k + 3) % (2 * n)
        cid = b.add_cell(2, (hub, v1, v2, v3),
                         ((spoke[v1], 0), (rim[v1], 0), (rim[v2], 0), (spoke[v3], 0)))
        two_cells.append(cid)
    for k in range(n):
        u, v, w = 2 * k, 2 * k + 1, (2 * k + 2) % (2 * n)
        cid = b.add_cell(2, (u, v, w), ((rim[u], 0), (rim[v], 0), (outer[u], 0)))
        two_cells.append(cid)
    evens = tuple(range(0, 2 * n, 2))
    cid = b.add_cell(2, evens, tuple((outer[u], 0) for u in evens))
    two_cells.append(cid)
    b.add_cell(3, range(2 * n + 1), tuple((c, 0) for c in two_cells))
    return assign_signs(b.build())


def wheel_family() -> VertexFamily:
    """The ten-member family on the nine-vertex wheel (hub index 8)."""
    hub = 8
    sets = [
        {0, 1, 2}, {2, 3, 4}, {4, 5, 6}, {6, 7, 0},
        {hub, 1, 3}, {hub, 3, 5}, {hub, 5, 7}, {hub, 7, 1},
        {1, 2, 3}, {3, 4, 5},
    ]
    return family(9, sets)


def bipyramid_complex(n: int) -> CellComplex:
    """Double cone over the n-gon ring: two apexes n and n+1, 2n triangles,
    one 3-cell.  Its f-vector is not symmetric for n != 3."""
    if n < 3:
        raise ComplexError("bipyramid needs n >= 3")
    top, bot = n, n + 1
    b = ComplexBuilder(n + 2)
    ring = {}
    for i in range(n):
        j = (i + 1) % n
        ring[i] = b.add_cell(1, (i, j), ((i, 0), (j, 0)))
    up = {i: b.add_cell(1, (i, top), ((i, 0), (top, 0))) for i in range(n)}
    dn = {i: b.add_cell(1, (i, bot), ((i, 0), (bot, 0))) for i in range(n)}
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces.append(b.add_cell(2, (i, j, top), ((ring[i], 0), (up[i], 0), (up[j], 0))))
        faces.append(b.add_cell(2, (i, j, bot), ((ring[i], 0), (dn[i], 0), (dn[j], 0))))
    b.add_cell(3, range(n + 2), tuple((f, 0) for f in faces))
    return assign_signs(b.build())


# ---------------------------------------------------------------------------
# fixture catalogue


def _two_chord_hexagon() -> CellComplex:
    return subdivided_polygon(6, ((1, 5), (3, 5)))


def _hex_squares():
    X = _two_chord_hexagon()
    L = labelling(3, [
        (2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2), (1, 0, 1),
    ])
    return X, L


def _hex_squares_polarized():
    X = _two_chord_hexagon()
    L = labelling(6, [
        (1, 1, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 0),
        (0, 0, 1, 1, 0, 0),
        (0, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 1, 1),
        (1, 0, 0, 0, 1, 0),
    ])
    return X, L


def _hex_squares_alternative():
    X = _two_chord_hexagon()
    L = labelling(6, [
        (1, 1, 0, 0, 0, 0),
        (1, 0, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 0),
        (0, 0, 1, 0, 0, 1),
        (0, 0, 0, 0, 1, 1),
        (1, 0, 0, 0, 0, 1),
    ])
    return X, L


def _hex_squares_combined():
    X = _two_chord_hexagon()
    L = labelling(8, [
        (1, 1, 0, 0, 0, 0, 0, 0),
        (1, 0, 1, 0, 0, 1, 0, 0),
        (0, 0, 1, 1, 1, 1, 0, 0),
        (0, 0, 1, 0, 1, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 1, 1),
        (1, 0, 0, 0, 0, 0, 1, 0),
    ])
    return X, L


def _pyramid_pentagon():
    X = pyramid(polygon_complex(5))
    rows = []
    for i in range(5):
        row = [0] * 7
        row[i] = 1
        row[(i + 1) % 5] = 1
        rows.append(tuple(row))
    rows.append((0, 0, 0, 0, 0, 1, 1))
    return X, labelling(7, rows)


def _elongated_pyramid_triangle():
    X = elongated_pyramid(polygon_complex(3))
    rows = [
        (0, 0, 0, 1, 0, 0, 1),
        (0, 0, 0, 0, 1, 0, 1),
        (0, 0, 0, 0, 0, 1, 1),
        (1, 0, 0, 1, 0, 0, 0),
        (0, 1, 0, 0, 1, 0, 0),
        (0, 0, 1, 0, 0, 1, 0),
        (1, 1, 1, 0, 0, 0, 0),
    ]
    return X, labelling(7, rows)


def _wheel_rows(pairs, nvar):
    rows = []
    for sup in pairs:
        row = [0] * nvar
        for p in sup:
            row[p] = 1
        rows.append(tuple(row))
    return rows


def _wheel_hexagon():
    X = wheel_polytope(4)
    sup = [(1, 4), (2, 4), (0, 4), (0, 2), (0, 3), (3, 5), (1, 3), (1, 5), (2, 5)]
    return X, labelling(6, _wheel_rows(sup, 6))


def _wheel_bipyramid_a():
    X = wheel_polytope(4)
    sup = [(3, 4), (0, 1, 3), (3, 6), (0, 6), (5, 6), (2, 5), (4, 5), (1, 2, 4),
           (0, 1, 2)]
    return X, labelling(7, _wheel_rows(sup, 7))


def _wheel_bipyramid_b():
    X = wheel_polytope(4)
    sup = [(3, 4), (1, 2, 3), (0, 1, 3), (0, 1, 2), (0, 6), (5, 6), (4, 6), (4, 5),
           (2, 5)]
    return X, labelling(7, _wheel_rows(sup, 7))


def _wheel_bipyramid_c():
    X = wheel_polytope(4)
    sup = [(3, 6), (0, 1, 3), (3, 4), (0, 1, 4), (4, 5), (2, 5), (5, 6), (2, 6),
           (0, 1, 2)]
    return X, labelling(7, _wheel_rows(sup, 7))


_FIXTURES = {
    "hex-squares": (
        _hex_squares,
        "two-chord hexagon labelled by the degree-2 monomials in 3 variables"),
    "hex-squares-polarized": (
        _hex_squares_polarized,
        "square-free split of hex-squares into six variables"),
    "hex-squares-alternative": (
        _hex_squares_alternative,
        "a second six-variable square-free split of hex-squares"),
    "hex-squares-combined": (
        _hex_squares_combined,
        "eight-variable labelling of the two-chord hexagon refining both splits"),
    "pyramid-pentagon": (
        _pyramid_pentagon,
        "pyramid over the pentagon, rim labelled by consecutive variable pairs"),
    "elongated-pyramid-triangle": (
        _elongated_pyramid_triangle,
        "elongated pyramid over the triangle with its seven-variable labelling"),
    "wheel-hexagon": (
        _wheel_hexagon,
        "nine-vertex wheel labelled by the hexagon's vertex-pair ideal"),
    "wheel-bipyramid-a": (
        _wheel_bipyramid_a,
        "nine-vertex wheel, face ideal of a once-subdivided triangle bipyramid"),
    "wheel-bipyramid-b": (
        _wheel_bipyramid_b,
        "nine-vertex wheel, face ideal of a twice-subdivided triangle bipyramid"),
    "wheel-bipyramid-c": (
        _wheel_bipyramid_c,
        "nine-vertex wheel, face ideal of a third subdivided triangle bipyramid"),
}


def fixture_catalogue() -> dict:
    """id -> one-line description of every built-in labelled instance."""
    return {k: v[1] for k, v in sorted(_FIXTURES.items())}


def fixture(fixture_id: str):
    """(complex, labelling) for a catalogue id; see fixture_catalogue()."""
    entry = _FIXTURES.get(fixture_id)
    if entry is None:
        known = ", ".join(sorted(_FIXTURES))
        raise KeyError(f"unknown fixture {fixture_id!r}; known: {known}")
    return entry[0]()
