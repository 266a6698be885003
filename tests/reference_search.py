"""Reference family search: the incremental subset-lattice walk.

This walk visits every family that passes the hereditary criteria (the
cover bound and acyclic complements of member unions), in candidate-index
order, and records those that also separate every covering face pair and
cover every vertex.  It has no look-ahead, so it is far slower than the
library's forward-checking search, and it is kept here only to check that
search against: both must return the same families in the same order.
"""

import itertools

from cellres.resolution import AcyclicityOracle, covering_face_pairs, mask_of


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
