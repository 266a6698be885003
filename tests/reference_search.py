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
`reference_recursive_search` is the library's search as it was before it
ran as one loop over an explicit stack: a generator recursing through one
`yield from` per chosen member onto a shared list of them.  The library
must yield the same families in the same order and leave the same
restrictions in the oracle's cache.
`candidate_masks` is the library's candidate walk without its duality
test: every candidate, asked of the oracle and refused by the guard
exactly as the library's walk does, so the engine can be run over the
full list and compared with its run over the candidates duality allows.
`reference_connected_vertex_subsets` finds those connected sets by
flood-filling each of the 2^n vertex masks; the library grows them from
their lowest vertex and must return the same list.
`reference_family_criteria` is `check_family_criteria` as it was when it
read face separation from `separation_bits`, one test per member and
covering face pair, and coverage from the union of the members; the
library reads both from requirement rows and must return the same report.
`reference_cover_witness` is the cover-bound scan over every
min(d, m)-subset of the members; the library asks the minimum-cover kernel
first and must return the same first covering tuple.
`reference_covering_property_check` is `covering_property_check` as it was
when it scanned every subset of exactly min(count, pool size) members for a
cover; `covering_property_check` asks the minimum-cover kernel instead and
must return the same report.

`covering_property_check` and `strand_matches_homology` are cross-checks
of theorems, not reference bodies: a failure of either on the inputs the
suite gives them means a bug in the library.  No library code calls them,
so they live here, and so does `strand_ranks`, the strand homology of a
free complex that `strand_matches_homology` reads: the verdict reads the
lcm lattice and the oracle, and no command reaches the strands.
"""

import itertools

from typing import NamedTuple

from cellres.complexes import (
    chain_ranks,
    is_connected,
    is_polytope_complex,
    reduced_homology,
    restrict,
    vertex_adjacency,
)
from cellres.linalg import GF2
from cellres.monomials import (
    FamilyError,
    GuardExceeded,
    VertexFamily,
    _exact_cover_exists,
    _mask_key,
    iter_bits,
    mask_of,
    reduce_family,
    set_of,
    subfamily_unions,
)
from cellres.resolution import (
    AcyclicityOracle,
    FamilyCriteriaReport,
    _minimum_cover_size,
    check_family_criteria,
    covering_face_pairs,
    cover_unions,
    oracle_for,
    requirement_rows,
)
from cellres.search import (
    MaximalityReport,
    _connected_masks,
    enumerate_valid_families,
    is_maximal,
)


def separation_bits(X, masks) -> list:
    """Per vertex mask, the bitset of covering face pairs it separates.

    Bit k is set when the mask misses the smaller cell of pair k of
    covering_face_pairs(X) and meets the larger one.
    """
    cells = [mask_of(c.vertices) for c in X.cells]
    pairs = [(cells[b], cells[cid]) for b, cid in covering_face_pairs(X)]
    out = []
    for m in masks:
        bits = 0
        for k, (small, big) in enumerate(pairs):
            if m & small == 0 and m & big:
                bits |= 1 << k
        out.append(bits)
    return out


def candidate_masks(space, oracle) -> tuple:
    """Every candidate's mask, sorted by `_mask_key`."""
    full = oracle.full_mask
    found = []
    for m, reach in _connected_masks(oracle._adj, oracle._star):
        if oracle.is_acyclic(full & ~m, reach):
            found.append(m)
            if len(found) > space.max_candidates:
                raise GuardExceeded(
                    f"more than {space.max_candidates} candidate sets")
    return tuple(sorted(found, key=_mask_key))


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


def reference_recursive_search(X, field, cands, oracle=None, maximal=False):
    """Yield every valid family over a fixed candidate list, exactly once;
    with `maximal`, only those that are maximal over that list.

    Families come as tuples of member masks in the order they were chosen;
    the visit order is not part of the contract.

    A node holds the chosen members, their subfamily unions, the
    requirement rows they leave unmet, in requirement order, and the live
    set: the candidates that can still join without breaking the cover
    bound or the acyclic-complement condition.  Both conditions are closed
    under subfamilies, so a child filters its parent's live set by what
    the newest member adds alone: the cover-bound unions that contain it
    and the member unions it creates; it keeps the unmet rows the new
    member does not serve.  While a row is unmet, the options are its live
    candidates for the first unmet row with the fewest of them, and none
    at all when that row has no live candidate.  Once no row is unmet, the
    node is a valid family and the options are the whole live set.  Branch
    i adds option i and bans options 0..i-1, so no family is reached
    twice.

    With `maximal`, a node also carries the excluded set of Bron and
    Kerbosch (CACM 16(9), 1973): the banned options that could still join,
    filtered by the same test as the live set.  Live and excluded together
    are then every candidate that can join the chosen members.  A valid
    node is yielded only if each of them is a disjoint union of members
    and no member is a disjoint union of other members; that is exactly
    `is_maximal` over these candidates.  Without `maximal` the excluded
    set stays empty, so the search makes the same oracle calls.

    The filter's answers are candidate bitsets kept per union for the
    whole search (`short`, `tried` and `passed` below).  A child's live
    and excluded sets are the parent's ANDed with the mask of each
    cover-bound union, then narrowed by each fresh member union in turn,
    so a candidate that fails one union is never asked about the next: the
    oracle sees the restrictions a candidate-by-candidate test would ask
    about, and each (union, candidate) question at most once.  The new
    questions about one union go to the oracle in one `acyclic_bits` call.
    """
    oracle = oracle_for(X, field, oracle)
    full = (1 << X.n_vertices) - 1
    d = X.dim
    if not oracle.is_acyclic(full):
        return
    # bit j of reqs[k] is set when candidate j meets requirement k: vertex
    # k for k < n, covering face pair k - n after that
    reqs = requirement_rows(X, cands)
    # candidate bitsets, memoized over the whole search: short[u] holds the
    # candidates c with c | u != full; tried[w] those asked whether the
    # complement of w | c is acyclic, filled in as nodes ask, and passed[w]
    # those that answered yes
    short, tried, passed = {}, {}, {}
    everyone = (1 << len(cands)) - 1
    chosen = []

    def short_of(u):
        got = short.get(u)
        if got is None:
            # c | u == full when c holds every vertex outside u
            covers = everyone
            rest = full & ~u
            while rest:
                low = rest & -rest
                covers &= reqs[low.bit_length() - 1]
                rest ^= low
            got = short[u] = everyone & ~covers
        return got

    def acyclic_among(w, ask):
        asked = tried.get(w, 0)
        new = ask & ~asked
        if new:
            tried[w] = asked | new
            passed[w] = passed.get(w, 0) | oracle.acyclic_bits(w, cands, new)
        return ask & passed.get(w, 0)

    def maximal_at(joinable):
        while joinable:
            low = joinable & -joinable
            if not _exact_cover_exists(cands[low.bit_length() - 1], chosen):
                return False
            joinable ^= low
        return not any(_exact_cover_exists(m, chosen[:i] + chosen[i + 1:])
                       for i, m in enumerate(chosen))

    def descend(live, excl, unions, unmet):
        opts = live
        if unmet:
            fewest = len(cands) + 1
            for row in unmet:
                got = row & live
                count = got.bit_count()
                if count < fewest:
                    opts, fewest = got, count
                    if not count:
                        break
        elif not maximal or maximal_at(live | excl):
            yield tuple(chosen)
        while opts:
            low = opts & -opts
            opts ^= low
            live &= ~low
            m = cands[low.bit_length() - 1]
            chosen.append(m)
            fresh = {u | m for u in unions} - unions
            size = min(d - 1, len(chosen))
            nxt = live | excl
            if size:
                for u in cover_unions(m, chosen[:-1], size - 1):
                    nxt &= short_of(u)
            for w in fresh:
                nxt = acyclic_among(w, nxt)
            yield from descend(nxt & live, nxt & ~live, unions | fresh,
                               [row for row in unmet if not row & low])
            chosen.pop()
            if maximal:
                excl |= low

    root = sum(1 << j for j, m in enumerate(cands)
               if m != full and oracle.is_acyclic(full & ~m))
    yield from descend(root, 0, {0}, reqs)


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
        gone = next(s for s in F.sets if s not in red.sets)
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


def reference_cover_witness(masks, full, d):
    """First index tuple of min(d, m) masks whose union is full, or None."""
    k = min(d, len(masks))
    for combo, u in zip(itertools.combinations(range(len(masks)), k),
                        cover_unions(0, masks, k)):
        if u == full:
            return combo
    return None


def reference_family_criteria(X, F, field=GF2, oracle=None):
    """`check_family_criteria` with separation read off `separation_bits`."""
    masks = F.member_masks()
    full = (1 << X.n_vertices) - 1
    oracle = oracle or AcyclicityOracle(X, field)

    cover_witness = reference_cover_witness(masks, full, X.dim)
    cover_bound = cover_witness is None

    complements_acyclic, union_witness = True, None
    for u in sorted(subfamily_unions(masks)):
        if not oracle.is_acyclic(full & ~u):
            complements_acyclic, union_witness = False, set_of(u)
            break

    separated = 0
    for bits in separation_bits(X, masks):
        separated |= bits
    unseparated = [p for k, p in enumerate(covering_face_pairs(X))
                   if not separated >> k & 1]
    face_separation = not unseparated
    separation_witness = unseparated[0] if unseparated else None

    covered = 0
    for m in masks:
        covered |= m
    covers_vertices = covered == full
    uncovered = None
    if not covers_vertices:
        uncovered = min(set_of(full & ~covered))

    return FamilyCriteriaReport(
        cover_bound, complements_acyclic, face_separation, covers_vertices,
        field.describe(), cover_witness, union_witness, separation_witness,
        uncovered)


def reference_covering_property_check(X, F, field=GF2, oracle=None):
    """`covering_property_check` by ordered scans over member subsets."""
    if not is_maximal(X, F, field, oracle).is_maximal:
        raise FamilyError("covering properties apply to maximal families only")
    masks = F.member_masks()
    full = (1 << X.n_vertices) - 1
    d = X.dim

    def covers_with(base, pool, count):
        return full in cover_unions(base, pool, min(count, len(pool)))

    single, witness = True, None
    for i, T in enumerate(F.sets):
        for t in T:
            pool = [m for m in masks if not (m >> t) & 1]
            if not covers_with(masks[i], pool, d):
                single, witness = False, ("single-vertex", t, T)
                break
        if not single:
            break

    pair = None
    if is_polytope_complex(X):
        pair = True
        for i, j in itertools.combinations(range(len(masks)), 2):
            if masks[i] & masks[j]:
                continue
            if not covers_with(masks[i] | masks[j], masks, d - 1):
                pair = False
                if witness is None:
                    witness = ("disjoint-pair", F.sets[i], F.sets[j])
                break

    return CoveringReport(single, pair, witness)


class CoveringReport(NamedTuple):
    """Covering consequences of maximality.

    single_vertex_cover: every vertex t of every member T admits dim-X
        members avoiding t that, with T, cover the vertex set.
    disjoint_pair_cover: every disjoint pair of members extends by
        dim X - 1 members to a cover; proved only for polytopes, so the
        field is None when the complex is not one.
    """

    single_vertex_cover: bool
    disjoint_pair_cover: bool
    witness: tuple = None

    @property
    def ok(self) -> bool:
        return self.single_vertex_cover and self.disjoint_pair_cover is not False


def covering_property_check(X, F, field=GF2, oracle=None) -> CoveringReport:
    """Check the covering consequences on a maximal family.

    A failure here indicates a bug (both statements are theorems for the
    inputs they are checked on), which is exactly why the suite runs it.
    """
    oracle = oracle_for(X, field, oracle)
    verdict = is_maximal(X, F, field, oracle)
    if not verdict.is_maximal:
        raise FamilyError("covering properties apply to maximal families only")
    masks = F.member_masks()
    full = (1 << X.n_vertices) - 1
    d = X.dim

    single, witness = True, None
    for i, T in enumerate(F.sets):
        for t in T:
            pool = [m for m in masks if not (m >> t) & 1]
            if _minimum_cover_size(full & ~masks[i], pool, d) is None:
                single, witness = False, ("single-vertex", t, T)
                break
        if not single:
            break

    pair = None
    if is_polytope_complex(X):
        pair = True
        for i, j in itertools.combinations(range(len(masks)), 2):
            if masks[i] & masks[j]:
                continue
            rest = full & ~(masks[i] | masks[j])
            if _minimum_cover_size(rest, masks, d - 1) is None:
                pair = False
                if witness is None:
                    witness = ("disjoint-pair", F.sets[i], F.sets[j])
                break

    return CoveringReport(single, pair, witness)


def strand_ranks(fc, b, field=GF2) -> tuple:
    """Homology ranks of the degree-b strand of the free complex fc.

    The strand keeps the generators whose multidegree divides b; each kept
    entry contributes only its sign.
    """
    b = tuple(b)
    kept = [[i for i, m in enumerate(degs) if all(x <= y for x, y in zip(m, b))]
            for degs in fc.multidegrees]
    maps = []
    for i in range(2, len(kept)):
        rows = set(kept[i - 1])
        cols = fc.maps[i - 1]
        maps.append([[(r, s) for r, s, _ in cols[c] if r in rows]
                     for c in kept[i]])
    # the degree-1 map sends every kept vertex generator onto the ring, so
    # its rank is 1 as soon as one vertex generator is kept
    augmentation = [min(1, len(k)) for k in kept[1:2]]
    ranks = [0] + augmentation + chain_ranks(maps, field) + [0]
    return tuple(len(kept[i]) - ranks[i] - ranks[i + 1]
                 for i in range(len(kept)))


def strand_matches_homology(fc, X, b, field=GF2) -> bool:
    """Strand homology of the free complex fc of X against reduced
    homology of the sublevel restriction, degree i versus dimension i-1."""
    b = tuple(b)
    keep = set()
    for cid, m in zip(fc.cell_ids[1], fc.multidegrees[1]):
        if all(x <= y for x, y in zip(m, b)):
            keep |= X.cells[cid].vertices
    betti = reduced_homology(restrict(X, keep), field).reduced_betti
    strand = strand_ranks(fc, b, field)
    for i, h in enumerate(strand):
        if h != betti.get(i - 1, 0):
            return False
    return all(d + 1 < len(strand) for d in betti)
