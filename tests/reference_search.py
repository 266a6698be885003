"""Reference family searches: two walks of the hereditary subset lattice.

Both walks visit every family that passes the hereditary criteria (the
cover bound and acyclic complements of member unions), in candidate-index
order, and record those that also separate every covering face pair and
cover every vertex.  `reference_search` updates the criteria incrementally;
`from_scratch_search` re-evaluates them with `check_family_criteria` at
every node.  Neither has a look-ahead, so both are far slower than the
library's requirement-driven, forward-checking search, and they are kept
here only to check that search against: all must return the same families.
The library's visit order is its own, so families are compared as sets.

`reference_is_maximal` is the maximality test over every vertex subset;
the library tries only connected ones and must return the same report.
`reference_maximal_families` enumerates the valid families and keeps those
`is_maximal` accepts; the library's search yields the maximal ones
directly and must return the same list, in the same order.
`reference_family_search` is the library's requirement-driven search as
it was before it kept its filter answers as candidate bitsets: each child
asks the cover bound and the oracle about every candidate in turn.  The
library must yield the same families in the same order and leave the same
restrictions in the oracle's cache.
`reference_connected_vertex_subsets` finds those connected sets by
flood-filling each of the 2^n vertex masks; the library grows them from
their lowest vertex and must return the same list.
"""

import itertools

from cellres.complexes import is_connected, vertex_adjacency
from cellres.linalg import GF2
from cellres.monomials import (
    FamilyError,
    VertexFamily,
    _exact_cover_exists,
    iter_bits,
    mask_of,
    reduce_family,
    set_of,
    subfamily_unions,
)
from cellres.resolution import (
    AcyclicityOracle,
    check_family_criteria,
    covering_face_pairs,
    cover_unions,
    separation_bits,
)
from cellres.search import (
    MaximalityReport,
    enumerate_valid_families,
    is_maximal,
)


def reference_connected_vertex_subsets(X) -> list:
    """Masks of nonempty vertex subsets inducing a connected restriction."""
    adj = vertex_adjacency(X)
    return [m for m in range(1, 1 << X.n_vertices) if is_connected(adj, m)]


def reference_family_search(X, field, cands, oracle=None, maximal=False):
    """`_search` with the per-candidate filter: same families, same order."""
    oracle = oracle or AcyclicityOracle(X, field)
    n = X.n_vertices
    full = (1 << n) - 1
    d = X.dim
    if not oracle.is_acyclic(full):
        return
    # requirement bits: vertex v is bit v, covering face pair k is bit n + k
    serve = [m | bits << n
             for m, bits in zip(cands, separation_bits(X, cands))]
    goal = (1 << (n + len(covering_face_pairs(X)))) - 1
    # bit j of reqs[k] is set when candidate j meets requirement k
    reqs = [sum(1 << j for j, bits in enumerate(serve) if bits >> k & 1)
            for k in range(goal.bit_length())]
    chosen = []

    def maximal_at(joinable):
        return (all(_exact_cover_exists(cands[k], chosen)
                    for k in iter_bits(joinable))
                and not any(_exact_cover_exists(m, chosen[:i] + chosen[i + 1:])
                            for i, m in enumerate(chosen)))

    def descend(live, excl, unions, served):
        if served == goal and (not maximal or maximal_at(live | excl)):
            yield tuple(chosen)
        pick = None
        for k in iter_bits(goal & ~served):
            opts = reqs[k] & live
            if pick is None or opts.bit_count() < pick.bit_count():
                pick = opts
                if not opts:
                    break
        for j in iter_bits(live if pick is None else pick):
            live &= ~(1 << j)
            m = cands[j]
            chosen.append(m)
            fresh = {u | m for u in unions} - unions
            size = min(d - 1, len(chosen))
            bounds = (list(cover_unions(m, chosen[:-1], size - 1)) if size
                      else [])
            nxt = 0
            for k in iter_bits(live | excl):
                c = cands[k]
                if (all(c | u != full for u in bounds)
                        and all(oracle.is_acyclic(full & ~(w | c))
                                for w in fresh)):
                    nxt |= 1 << k
            yield from descend(nxt & live, nxt & ~live, unions | fresh,
                               served | serve[j])
            chosen.pop()
            if maximal:
                excl |= 1 << j

    root = sum(1 << j for j, m in enumerate(cands)
               if m != full and oracle.is_acyclic(full & ~m))
    yield from descend(root, 0, {0}, 0)


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


def reference_is_maximal(X, F, field, oracle=None) -> MaximalityReport:
    """`is_maximal` by trying every one of the 2^n vertex masks in order."""
    oracle = oracle or AcyclicityOracle(X, field)
    rep = check_family_criteria(X, F, field, oracle)
    if not rep.ok:
        raise FamilyError("maximality is defined for families passing "
                          "the validity criteria")
    red = reduce_family(F)
    if len(red.sets) != len(F.sets):
        gone = next(s for s in F.sets if s not in red.as_set())
        return MaximalityReport(False, decomposable=gone)
    masks = F.member_masks()
    member_set = set(masks)
    unions = sorted(subfamily_unions(masks))
    full = (1 << X.n_vertices) - 1
    d = X.dim
    combos = [0, *cover_unions(0, masks, min(d - 1, len(masks)))]
    for t in range(1, full + 1):
        if t in member_set:
            continue
        if _exact_cover_exists(t, masks):
            continue
        if any(t | u == full for u in combos):
            continue  # extension would break the cover bound
        if all(oracle.is_acyclic(full & ~(t | u)) for u in unions):
            return MaximalityReport(False, extension=set_of(t))
    return MaximalityReport(True)


def reference_maximal_families(X, space=None, field=GF2) -> list:
    """The valid families, canonically ordered, that `is_maximal` accepts."""
    oracle = AcyclicityOracle(X, field)
    valid = enumerate_valid_families(X, space, field, oracle)
    return [F for F in valid if is_maximal(X, F, field, oracle).is_maximal]
