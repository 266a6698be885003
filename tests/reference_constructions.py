"""Reference constructions: each named complex with its own edge tables.

These are the bodies the library used before its constructions shared
`ComplexBuilder.add_edge`, `ComplexBuilder.add_polygon` and one cone
kernel: every construction keeps its own dict of edge ids and writes each
2-cell's boundary tuple by hand, and `pyramid` and `elongated_pyramid`
each run their own cone loop.  The library must build the same cells, in
the same order, with the same boundaries and signs.  The reference
polygon cuts its regions with its own recursive splitter,
`reference_regions`, so a fault in the library's splitter shows too.
"""

import itertools

from cellres.complexes import (CellComplex, ComplexBuilder, ComplexError,
                               assign_signs)


def reference_regions(cycle, chords) -> list:
    """Vertex cycles of the regions non-crossing chords cut a cycle into.

    The first chord cuts the cycle into the arc running forward from its
    earlier endpoint to its later one and the arc running on round from
    the later back to the earlier; each arc keeps the chords with both
    ends on it and is cut recursively, the forward arc's regions first.
    """
    if not chords:
        return [tuple(cycle)]
    k = len(cycle)
    i, j = sorted((cycle.index(chords[0][0]), cycle.index(chords[0][1])))
    regions = []
    for start, stop in ((i, j), (j, i + k)):
        arc = [cycle[t % k] for t in range(start, stop + 1)]
        regions += reference_regions(
            arc, [c for c in chords[1:] if c[0] in arc and c[1] in arc])
    return regions


def reference_subdivided_polygon(n: int, chords=()) -> CellComplex:
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
    for region in reference_regions(list(range(n)), list(chords)):
        bnd = []
        k = len(region)
        for t in range(k):
            a, c = region[t], region[(t + 1) % k]
            sign = 1 if a < c else -1
            bnd.append((edge_id[(min(a, c), max(a, c))], sign))
        b.add_cell(2, region, bnd)
    return b.build()


def reference_pyramid(X: CellComplex) -> CellComplex:
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


def reference_elongated_pyramid(X: CellComplex) -> CellComplex:
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


def reference_wheel_polytope(n: int) -> CellComplex:
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


def reference_bipyramid_complex(n: int) -> CellComplex:
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
