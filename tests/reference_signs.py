"""Reference sign solver: a pair table and a breadth-first walk per cell.

This is the body `assign_signs` had before it signed each cell with one
walk over its diamonds.  Per cell it rescans the cells of each dimension,
keeps the signed boundaries and the sign lookups in two dicts, builds a
pair table with a witness face per pair of boundary cells, rebuilds it as
adjacency lists, and walks them breadth first, sorting each list on every
visit.  On every input it signs, the library must return the same complex,
cell for cell.
"""

from cellres.complexes import (Cell, CellComplex, ComplexError,
                               SignConflictError)


def reference_assign_signs(X: CellComplex) -> CellComplex:
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
                entries = reference_solve_cell_signs(X, c, new_sign)
            new_boundary[c.id] = entries
            new_sign[c.id] = dict(entries)
    cells = tuple(
        Cell(c.id, c.dim, c.vertices, new_boundary[c.id]) for c in X.cells
    )
    return CellComplex(X.n_vertices, cells)


def reference_solve_cell_signs(X: CellComplex, c: Cell, new_sign: dict) -> tuple:
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
