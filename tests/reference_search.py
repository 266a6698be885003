"""Reference family searches: two walks of the hereditary subset lattice.

Both walks visit every family that passes the hereditary criteria (the
cover bound and acyclic complements of member unions), in candidate-index
order, and record those that also separate every covering face pair and
cover every vertex.  `reference_search` updates the criteria incrementally;
`from_scratch_search` re-evaluates them with `check_family_criteria` at
every node.  Neither has a look-ahead, so both are far slower than the
library's forward-checking search, and they are kept here only to check
that search against: all must return the same families in the same order.
"""

import itertools

from cellres.monomials import VertexFamily, mask_of, set_of
from cellres.resolution import (
    AcyclicityOracle,
    check_family_criteria,
    covering_face_pairs,
)


def reference_search(X, field, cands, oracle=None) -> list:
    """Families over the candidate masks, as tuples of masks in walk order."""
    oracle = oracle or AcyclicityOracle(X, field)
    full = (1 << X.n_vertices) - 1
    d = X.dim
    if not oracle.is_acyclic(full):
        return []
    pairs = covering_face_pairs(X)
    cell_masks = {c.id: mask_of(c.vertices) for c in X.cells}
    all_pairs = (1 << len(pairs)) - 1
    cand_pairs = []
    for m in cands:
        bits = 0
        for k, (b, cid) in enumerate(pairs):
            if m & cell_masks[b] == 0 and m & cell_masks[cid]:
                bits |= 1 << k
        cand_pairs.append(bits)

    found = []
    chosen_masks = []

    def cover_ok(m):
        k = min(d - 1, len(chosen_masks))
        for combo in itertools.combinations(chosen_masks, k):
            u = m
            for x in combo:
                u |= x
            if u == full:
                return False
        return True

    def descend(start, unions, sat, covered):
        for j in range(start, len(cands)):
            m = cands[j]
            if not cover_ok(m):
                continue
            fresh = []
            ok = True
            for u in unions:
                w = u | m
                if w not in unions:
                    if not oracle.is_acyclic(full & ~w):
                        ok = False
                        break
                    fresh.append(w)
            if not ok:
                continue
            chosen_masks.append(m)
            if covered | m == full and sat | cand_pairs[j] == all_pairs:
                found.append(tuple(chosen_masks))
            descend(j + 1, unions | set(fresh), sat | cand_pairs[j],
                    covered | m)
            chosen_masks.pop()

    descend(0, {0}, 0, 0)
    return found


def from_scratch_search(X, field, cands, oracle=None) -> list:
    """The same walk, checking each visited family from scratch."""
    oracle = oracle or AcyclicityOracle(X, field)
    if not oracle.is_acyclic((1 << X.n_vertices) - 1):
        return []
    found = []
    chosen = []

    def walk(start):
        for j in range(start, len(cands)):
            fam = VertexFamily(
                X.n_vertices,
                tuple(set_of(x) for x in chosen) + (set_of(cands[j]),))
            rep = check_family_criteria(X, fam, field, oracle)
            if not (rep.cover_bound and rep.complements_acyclic):
                continue
            chosen.append(cands[j])
            if rep.ok:
                found.append(tuple(chosen))
            walk(j + 1)
            chosen.pop()

    walk(0)
    return found
