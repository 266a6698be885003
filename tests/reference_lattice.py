"""Reference lcm-lattice route: exponent vectors joined, supports scanned.

`reference_lcm_lattice` closes the labels' exponent vectors under
componentwise max, joining new points with the labels only.
`reference_check_cellular_resolution` walks those points in increasing
order and finds each point's support with a labels x variables
divisibility scan.  The library closes vertex masks instead and reads each
point off its support; both routes must return the same points, supports,
verdicts and witnesses, and ask the oracle the same masks in the same order.

The rest are the label-tuple routes the library replaced by reading lcms,
supports and top exponents off a labelling's level masks: multidegrees as
folds of `Monomial.join`, minimality on those multidegrees, per-variable
supports and maxima by scanning every label, and pairwise lcm degrees as
sums of componentwise maxima.
"""

from cellres.linalg import GF2
from cellres.monomials import (
    UNION_LIMIT,
    FamilyError,
    GuardExceeded,
    LabellingError,
    Monomial,
    VertexFamily,
    labelling,
)
from cellres.resolution import (
    AcyclicityOracle,
    _minimum_cover_size,
    require_labelling_on,
)


def reference_lcm_lattice(L) -> frozenset:
    """Exponent tuples of the lcms of the nonempty sets of labels."""
    labels = {m.exponents for m in L.labels}
    points, frontier = set(labels), labels
    while frontier:
        frontier = {tuple(max(x, y) for x, y in zip(a, b))
                    for a in frontier for b in labels} - points
        points |= frontier
    return frozenset(points)


def divisibility_mask(L, b) -> int:
    """Mask of the vertices whose labels divide the exponent vector b."""
    mask = 0
    for v, m in enumerate(L.labels):
        if all(x <= y for x, y in zip(m.exponents, b)):
            mask |= 1 << v
    return mask


def reference_check_cellular_resolution(X, L, field=GF2, oracle=None):
    """(is_resolution, first failing point or None)."""
    oracle = oracle or AcyclicityOracle(X, field)
    for b in sorted(reference_lcm_lattice(L)):
        if not oracle.is_acyclic(divisibility_mask(L, b)):
            return False, b
    return True, None


def reference_multidegree(L, vertices) -> Monomial:
    """Join of the labels over a set of vertices."""
    acc = None
    for v in vertices:
        m = L.labels[v]
        acc = m if acc is None else acc.join(m)
    if acc is None:
        return Monomial((0,) * L.n_variables)
    return acc


def reference_check_minimal(X, L):
    """(is_minimal, witness covering pair or None)."""
    require_labelling_on(X, L)
    mdeg = {}
    for c in X.cells:
        mdeg[c.id] = reference_multidegree(L, c.vertices).exponents
    for c in X.cells:
        if c.dim == 0:
            if sum(mdeg[c.id]) == 0:
                return False, (None, c.id)
            continue
        for b, _ in c.boundary:
            if mdeg[b] == mdeg[c.id]:
                return False, (b, c.id)
    return True, None


def reference_codimension(L) -> int:
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


def reference_family_of(L) -> VertexFamily:
    """Vertex family of a square-free labelling, one variable at a time."""
    if not all(m.is_squarefree() for m in L.labels):
        raise LabellingError("labelling is not square-free")
    sets = []
    seen = {}
    for p in range(L.n_variables):
        s = frozenset(v for v, m in enumerate(L.labels) if m.exponents[p])
        if not s:
            continue
        if s in seen:
            raise FamilyError(
                f"variables {seen[s]} and {p} divide exactly the same vertex labels")
        seen[s] = p
        sets.append(s)
    return VertexFamily(L.n_vertices, tuple(sets))


def reference_polarize(L):
    """Square-free labelling with each variable split into copies."""
    maxes = [max(m.exponents[p] for m in L.labels) for p in range(L.n_variables)]
    total = sum(maxes)
    if total > UNION_LIMIT:
        raise GuardExceeded(
            f"polarization needs {total} variables, more than {UNION_LIMIT}")
    if len(L.labels) * total > 2 * UNION_LIMIT:
        raise GuardExceeded(
            f"polarization needs {len(L.labels)} rows of {total} exponents, "
            f"more than {2 * UNION_LIMIT} in all")
    rows = []
    for m in L.labels:
        row = []
        for p, top in enumerate(maxes):
            e = m.exponents[p]
            row.extend([1] * e + [0] * (top - e))
        rows.append(tuple(row))
    return labelling(total, rows)


def reference_lcm_degree_table(L) -> dict:
    """(i, j) -> degree of lcm(m_i, m_j), for i < j."""
    n = L.n_vertices
    deg = {}
    for i in range(n):
        for j in range(i + 1, n):
            a, b = L.labels[i].exponents, L.labels[j].exponents
            deg[(i, j)] = sum(max(x, y) for x, y in zip(a, b))
    return deg
