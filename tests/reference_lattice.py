"""Reference lcm-lattice route: exponent vectors joined, supports scanned.

`reference_lcm_lattice` closes the labels' exponent vectors under
componentwise max, joining new points with the labels only.
`reference_check_cellular_resolution` walks those points in increasing
order and finds each point's support with a labels x variables
divisibility scan.  The library closes vertex masks instead and reads each
point off its support; both routes must return the same points, supports,
verdicts and witnesses, and ask the oracle the same masks in the same order.
"""

from cellres.linalg import GF2
from cellres.resolution import AcyclicityOracle


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
