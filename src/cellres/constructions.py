"""Complexes and labellings with known Cohen-Macaulay behaviour.

Trees with doubled edge variables, subdivided polygons and their string
families, pyramids and elongated pyramids, wheel polytopes, and a fixture
catalogue of hand-labelled instances used throughout the tests.  The
catalogue is one table: per id, a description, the complex, and the
variables of each vertex's label, from which `fixture` builds the
exponent rows.

Polygons, wheels and bipyramids are listed as edges and 2-cell vertex
cycles for `ComplexBuilder.add_edge` and `ComplexBuilder.add_polygon`;
pyramids and elongated pyramids share one cone kernel.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .complexes import (
    CellComplex,
    ComplexBuilder,
    ComplexError,
    _find,
    _join,
    assign_signs,
)
from .monomials import (
    UNION_LIMIT,
    FamilyError,
    GuardExceeded,
    MonomialLabelling,
    VertexFamily,
    _lcm_exponents,
    family,
    labelling,
)


# ---------------------------------------------------------------------------
# trees


class _TreeFields(NamedTuple):
    n: int
    edges: tuple  # (source, target) pairs


class OrientedTree(_TreeFields):
    """Tree on vertices 0..n-1 with directed edges (source, target)."""

    __slots__ = ()

    def __new__(cls, n: int, edges: tuple):
        if len(edges) != n - 1:
            raise ComplexError(f"a tree on {n} vertices has {n - 1} edges")
        parent = list(range(n))
        for s, t in edges:
            if not (0 <= s < n and 0 <= t < n) or s == t:
                raise ComplexError(f"bad edge ({s}, {t})")
            if not _join(parent, s, t):
                raise ComplexError("edges contain a cycle")
        return super().__new__(cls, n, edges)

    def side_vertices(self, edge_index: int):
        """(source side, target side) after removing the indexed edge."""
        parent = list(range(self.n))
        for i, (a, b) in enumerate(self.edges):
            if i != edge_index:
                _join(parent, a, b)
        root = _find(parent, self.edges[edge_index][0])
        src = frozenset(v for v in range(self.n) if _find(parent, v) == root)
        return src, frozenset(range(self.n)) - src


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


def edges_to_tree(n: int, edges) -> OrientedTree:
    return OrientedTree(n, tuple(sorted((min(a, b), max(a, b)) for a, b in edges)))


def _lcm_degree_table(L: MonomialLabelling):
    """(i, j) -> degree of lcm(m_i, m_j), for i < j."""
    return {(i, j): sum(_lcm_exponents(L, 1 << i | 1 << j))
            for i, j in itertools.combinations(range(L.n_vertices), 2)}


def _degree_classes(L: MonomialLabelling):
    """Kruskal over the label pairs by lcm-degree class, lightest first and
    lexicographic within a class.  Per class, yield the pairs joining two
    components of the lighter pairs, as (pair, root, root), and the pairs
    Kruskal keeps."""
    edge_deg = _lcm_degree_table(L)
    parent = list(range(L.n_vertices))
    for _, pairs in itertools.groupby(
            sorted(edge_deg, key=lambda e: (edge_deg[e], e)), edge_deg.get):
        joining = [(e, _find(parent, e[0]), _find(parent, e[1]))
                   for e in pairs]
        joining = [(e, a, b) for e, a, b in joining if a != b]
        yield joining, [e for e, _, _ in joining if _join(parent, *e)]


def tree_resolution_trees(L: MonomialLabelling) -> frozenset:
    """All trees on the label set whose threshold subgraphs are spanning
    forests of the corresponding threshold subgraphs of the complete graph.

    Those are the minimum spanning trees under lcm degree: the product over
    the degree classes of the spanning forests, as large as Kruskal's pick
    there, that a class's pairs form on the components of the lighter
    pairs.  Refuses (GuardExceeded) before listing the forests when the
    tries, the sum of C(joining pairs, kept pairs) over the classes, exceed
    UNION_LIMIT, and before building the product when the trees, the
    product of the forest counts, exceed it.
    """
    classes = list(_degree_classes(L))
    # the Kruskal tree's checks refuse the empty labelling
    OrientedTree(L.n_vertices, tuple(e for _, kept in classes for e in kept))
    tries = sum(math.comb(len(j), len(k)) for j, k in classes)
    if tries > UNION_LIMIT:
        raise GuardExceeded(
            f"{tries} candidate forests to try, more than {UNION_LIMIT}")

    def is_forest(pick):
        parent = list(range(L.n_vertices))
        for _, a, b in pick:
            if not _join(parent, a, b):
                return False
        return True

    forests = [list(filter(is_forest, itertools.combinations(j, len(k))))
               for j, k in classes]
    trees = math.prod(map(len, forests))
    if trees > UNION_LIMIT:
        raise GuardExceeded(
            f"{trees} resolving trees, more than {UNION_LIMIT}")
    return frozenset(frozenset(e for pick in choice for e, _, _ in pick)
                     for choice in itertools.product(*forests))


def canonical_resolution_tree(L: MonomialLabelling) -> OrientedTree:
    """Greedy tree: scan complete-graph edges by (lcm degree, lexicographic)
    and keep those joining distinct components."""
    kept = [e for _, k in _degree_classes(L) for e in k]
    return OrientedTree(L.n_vertices, tuple(sorted(kept)))


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


def _faces(n: int, chords: tuple):
    """The regions of the n-gon cut by chords (pairs u < v), as increasing
    vertex lists, or None when two chords cross.

    One sweep over the vertices keeps the rim path not yet closed off on a
    stack.  At vertex v the chords ending there, shortest first, each close
    off the vertices above their lower end u: those, with u and v, bound
    one region.  A chord finds u closed off exactly when an earlier chord
    of the sweep crossed it.
    """
    ending = [[] for _ in range(n)]
    for u, v in chords:
        ending[v].append(u)
    faces, stack, on_stack = [], [], [False] * n
    for v in range(n):
        stack.append(v)
        on_stack[v] = True
        for u in sorted(ending[v], reverse=True):
            if not on_stack[u]:
                return None
            k = len(stack) - 2
            while stack[k] != u:
                on_stack[stack[k]] = False
                k -= 1
            faces.append(stack[k:])
            del stack[k + 1:-1]
    return faces + [stack]


def _region_cycles(n: int, chords: tuple) -> list:
    """Vertex cycles of the regions the chords cut the n-gon into, or None
    when two chords cross.

    The cycles and their order are those of cutting recursively: the
    first chord cuts the cycle 0, ..., n-1 into the arc running forward
    from whichever of its ends comes first in the cycle to the other, and
    the arc running on round from there back; each arc, which starts at
    that end, keeps the chords with both ends on it and is cut the same
    way, the first arc's regions first.  An arc holding the chords after c
    is a union of regions, joined across chords after c, so adding the
    chords last to first to a union-find over the regions builds the tree
    of cuts without rescanning any chord.
    """
    faces = _faces(n, chords)
    if faces is None:
        return None
    # a region lists its vertices in increasing order, so it lies outside
    # the chords joining consecutive ones more than one apart, and inside
    # the chord joining its first and last, if that is one
    index = {chord: c for c, chord in enumerate(chords)}
    inner, outer = [0] * len(chords), [0] * len(chords)
    for f, face in enumerate(faces):
        for a, b in zip(face, face[1:]):
            if b - a > 1:
                outer[index[a, b]] = f
        if (face[0], face[-1]) in index:
            inner[index[face[0], face[-1]]] = f
    leaves = len(faces)
    root = list(range(leaves))  # union-find over the regions
    node = list(range(leaves))  # a root's arc: a region, or leaves + chord
    sides = [None] * len(chords)
    for c in reversed(range(len(chords))):
        a, b = _find(root, inner[c]), _find(root, outer[c])
        sides[c] = (node[a], node[b])
        root[a] = b
        node[b] = leaves + c
    out, todo = [], [(node[_find(root, 0)], 0)]
    while todo:
        arc, start = todo.pop()
        if arc < leaves:
            face = faces[arc]
            i = face.index(start)
            out.append(tuple(face[i:] + face[:i]))
            continue
        (u, v), (inside, beyond) = chords[arc - leaves], sides[arc - leaves]
        if (u - start) % n < (v - start) % n:
            todo += [(beyond, v), (inside, u)]
        else:
            todo += [(inside, u), (beyond, v)]
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
    regions = _region_cycles(n, chords)
    if regions is None:
        # name the first crossing pair in input order
        for (u1, v1), (u2, v2) in itertools.combinations(chords, 2):
            if u1 < u2 < v1 < v2 or u2 < u1 < v2 < v1:
                raise ComplexError(
                    f"chords ({u1},{v1}) and ({u2},{v2}) cross")
    b = ComplexBuilder(n)
    for u, v in [(i, (i + 1) % n) for i in range(n)] + list(chords):
        b.add_edge(max(u, v), min(u, v))
    for region in regions:
        b.add_polygon(region)
    return b.build()


def polygon_complex(n: int) -> CellComplex:
    return subdivided_polygon(n)


def chord_complex(n: int, a: int) -> CellComplex:
    """Polygon cut by the single chord from vertex 0 to vertex a."""
    if not (2 <= a and 2 * a <= n):
        raise ComplexError("chord endpoint must satisfy 2 <= a and 2a <= n")
    return subdivided_polygon(n, ((0, a),))


def arc_set(start: int, length: int, n: int) -> frozenset:
    """Consecutive run start, start+1, ..., start+length-1 on the n-cycle."""
    if not 1 <= length <= n:
        raise ComplexError(f"arc length {length} is outside 1..{n}")
    return frozenset((start + i) % n for i in range(length))


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

    Both have n+1 members, and the two differ.  For even n the second is
    the image of the first under the reflection v -> a - v (mod n), which
    fixes the chord.  For odd n the first is itself invariant under that
    reflection, so the second is not its image.
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
    return first, second


# ---------------------------------------------------------------------------
# pyramids, elongated pyramids, wheels


def _cone(b: ComplexBuilder, cells, base, apex_cell: int, shift: int = 0):
    """Add to b a cone over each of `cells` (listed after their boundary
    cells) with apex cell `apex_cell`, whose vertex is b's last.  base[id]
    is the cell of b coned over in place of cell id, and its vertices are
    the cell's shifted by `shift`.  Signs follow the mapping cone: a cone's
    boundary is its base minus the cones over the base's boundary (minus
    the apex, for a vertex).  Returns cell id -> cone id."""
    apex = b.n_vertices - 1
    cone = {}
    for c in cells:
        bnd = [(base[c.id], 1)]
        bnd += [(cone[e], -s) for e, s in c.boundary] if c.dim else [(apex_cell, -1)]
        cone[c.id] = b.add_cell(c.dim + 1, {v + shift for v in c.vertices} | {apex},
                                bnd)
    return cone


def pyramid(X: CellComplex) -> CellComplex:
    """Cone over the whole complex with a new apex vertex (id n).

    Keeps every cell of X, adds the apex, and one cone cell over each cell
    of X, with signs from the mapping cone.
    """
    b = ComplexBuilder(X.n_vertices + 1, add_vertices=False)
    for c in X.cells:
        b.add_cell(c.dim, c.vertices, c.boundary)
    _cone(b, X.cells, range(len(X.cells)), b.add_cell(0, (X.n_vertices,)))
    return b.build()


def pyramid_family(F: VertexFamily) -> VertexFamily:
    """The family on the pyramid: everything as before plus the apex alone."""
    return family(F.n + 1, list(F.sets) + [{F.n}])


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
    tops = X.cells_of_dim(X.dim)
    if len(tops) != 1:
        raise ComplexError("elongated pyramid needs a single top cell")
    n = X.n_vertices
    b = ComplexBuilder(2 * n + 1, add_vertices=False)
    for c in X.cells:  # the bottom copy keeps X's cell ids
        b.add_cell(c.dim, c.vertices, c.boundary)
    top_dim = X.dim
    proper = [c for c in X.cells if c.dim < top_dim]
    upper = {}
    for c in proper:
        upper[c.id] = b.add_cell(c.dim, {v + n for v in c.vertices},
                                 [(upper[e], 0) for e, _ in c.boundary])
    apex_cell = b.add_cell(0, (2 * n,))
    prism = {}
    for c in proper:
        verts = set(c.vertices) | {v + n for v in c.vertices}
        bnd = [(c.id, 0), (upper[c.id], 0)]
        bnd += [(prism[e], 0) for e, _ in c.boundary]
        prism[c.id] = b.add_cell(c.dim + 1, verts, bnd)
    cone = _cone(b, proper, upper, apex_cell, n)
    facets = [c for c in X.cells if c.dim == top_dim - 1]
    top_bnd = [(t.id, 0) for t in tops]
    top_bnd += [(prism[f.id], 0) for f in facets]
    top_bnd += [(cone[f.id], 0) for f in facets]
    b.add_cell(top_dim + 1, range(2 * n + 1), top_bnd)
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
    m = 2 * n  # rim vertices 0..m-1, hub m
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m, v) for v in range(1, m, 2)]
    edges += [(u, (u + 2) % m) for u in range(0, m, 2)]
    cycles = [(m, v, (v + 1) % m, (v + 2) % m) for v in range(1, m, 2)]
    cycles += [(u, u + 1, (u + 2) % m) for u in range(0, m, 2)]
    cycles.append(tuple(range(0, m, 2)))
    return _polytope(m + 1, edges, cycles)


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
    one 3-cell.  Its f-vector (n + 2, 3n, 2n, 1) is symmetric only at
    n = 2, which is refused."""
    if n < 3:
        raise ComplexError("bipyramid needs n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, apex) for apex in (n, n + 1) for i in range(n)]
    cycles = [((i + 1) % n, i, apex) for i in range(n) for apex in (n, n + 1)]
    return _polytope(n + 2, edges, cycles)


def _polytope(n_vertices: int, edges, cycles) -> CellComplex:
    """3-polytope on vertices 0..n_vertices-1 with these edges, one 2-cell
    per facet's vertex cycle, and one 3-cell bounded by all of them."""
    b = ComplexBuilder(n_vertices)
    for u, v in edges:
        b.add_edge(u, v)
    facets = [b.add_polygon(cycle) for cycle in cycles]
    b.add_cell(3, range(n_vertices), [(f, 0) for f in facets])
    return assign_signs(b.build())


# ---------------------------------------------------------------------------
# fixture catalogue


_HEXAGON = functools.partial(subdivided_polygon, 6, ((1, 5), (3, 5)))
_WHEEL = functools.partial(wheel_polytope, 4)

# id -> (description, complex builder, number of variables, the variables
# of each vertex's label in vertex order; a variable listed twice is squared)
_FIXTURES = {
    "hex-squares": (
        "two-chord hexagon labelled by the degree-2 monomials in 3 variables",
        _HEXAGON, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 2)]),
    "hex-squares-polarized": (
        "square-free split of hex-squares into six variables",
        _HEXAGON, 6, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (0, 4)]),
    "hex-squares-alternative": (
        "a second six-variable square-free split of hex-squares",
        _HEXAGON, 6, [(0, 1), (0, 3), (2, 3), (2, 5), (4, 5), (0, 5)]),
    "hex-squares-combined": (
        "eight-variable labelling of the two-chord hexagon refining both splits",
        _HEXAGON, 8,
        [(0, 1), (0, 2, 5), (2, 3, 4, 5), (2, 4, 6), (6, 7), (0, 6)]),
    "pyramid-pentagon": (
        "pyramid over the pentagon, rim labelled by consecutive variable pairs",
        lambda: pyramid(polygon_complex(5)), 7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (5, 6)]),
    "elongated-pyramid-triangle": (
        "elongated pyramid over the triangle with its seven-variable labelling",
        lambda: elongated_pyramid(polygon_complex(3)), 7,
        [(3, 6), (4, 6), (5, 6), (0, 3), (1, 4), (2, 5), (0, 1, 2)]),
    "wheel-hexagon": (
        "nine-vertex wheel labelled by the hexagon's vertex-pair ideal",
        _WHEEL, 6,
        [(1, 4), (2, 4), (0, 4), (0, 2), (0, 3), (3, 5), (1, 3), (1, 5), (2, 5)]),
    "wheel-bipyramid-a": (
        "nine-vertex wheel, face ideal of a once-subdivided triangle bipyramid",
        _WHEEL, 7, [(3, 4), (0, 1, 3), (3, 6), (0, 6), (5, 6), (2, 5), (4, 5),
                    (1, 2, 4), (0, 1, 2)]),
    "wheel-bipyramid-b": (
        "nine-vertex wheel, face ideal of a twice-subdivided triangle bipyramid",
        _WHEEL, 7, [(3, 4), (1, 2, 3), (0, 1, 3), (0, 1, 2), (0, 6), (5, 6),
                    (4, 6), (4, 5), (2, 5)]),
    "wheel-bipyramid-c": (
        "nine-vertex wheel, face ideal of a third subdivided triangle bipyramid",
        _WHEEL, 7, [(3, 6), (0, 1, 3), (3, 4), (0, 1, 4), (4, 5), (2, 5), (5, 6),
                    (2, 6), (0, 1, 2)]),
}


def fixture_catalogue() -> dict:
    """id -> one-line description of every built-in labelled instance."""
    return {k: v[0] for k, v in sorted(_FIXTURES.items())}


def fixture(fixture_id: str):
    """(complex, labelling) for a catalogue id; see fixture_catalogue()."""
    entry = _FIXTURES.get(fixture_id)
    if entry is None:
        known = ", ".join(sorted(_FIXTURES))
        raise KeyError(f"unknown fixture {fixture_id!r}; known: {known}")
    _, build, nvar, labels = entry
    rows = []
    for variables in labels:
        row = [0] * nvar
        for p in variables:
            row[p] += 1
        rows.append(tuple(row))
    return build(), labelling(nvar, rows)
