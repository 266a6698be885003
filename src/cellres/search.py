"""Search for valid and maximal families on small complexes.

The validity criteria split into a hereditary part (the cover bound and
acyclicity of complements of unions survive passing to subfamilies) and a
set of requirements closed under supersets: cover every vertex and
separate every covering face pair.  One depth-first engine, `_search`,
answers both questions asked here: enumeration collects every family it
yields, existence stops at the first.  Each node carries its live set, the
candidates that can still join without breaking the hereditary part;
adding a member only ever shrinks it, and only the checks involving the
new member are run.  While a requirement is unmet the engine branches on
the live candidates serving the unmet requirement with the fewest of them
(the minimum-remaining-values rule of Knuth's Algorithm X), so a subtree
ends as soon as some requirement has no live candidate left.
Requirements are rows over the candidates, from `requirement_rows`: row k
holds the candidates meeting requirement k, and each node keeps the rows
its members leave unmet.  The cover bound comes from the shared
`cover_unions`.

The candidates are the vertex sets that can be members at all: nonempty,
connected, with acyclic complement.  They are grown from their lowest
vertex and tested as they arrive, so the guard refuses as soon as the
(max_candidates + 1)-th is found.

On a complex with one top cell, Gorenstein duality then keeps only the
candidates that meet as many i-cells as they miss (d-1-i)-cells (see
`_duality_test`).  On a non-palindromic f-vector it keeps none, and an
empty list is answered "no family" before the engine runs.  The candidate
guard and the symmetry check come first, so duality never stands in for
one of their refusals.

Maximality is operational: a reduced family is maximal when no single set
can be added without breaking a criterion.  The smallest addable set is
always connected, passes the duality test and can only break the
hereditary part, so the sets to try are the candidates that pass it.  For
maximal families the engine finds them as the live set plus the excluded
set of Bron and Kerbosch and tests each valid family where it is reached;
`is_maximal` checks one given family, scanning the same sets, and names a
witness.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (
    CellComplex,
    is_polytope_complex,
    vertex_adjacency,
)
from .linalg import GF2, FieldSpec
from .monomials import (
    FamilyError,
    GuardExceeded,
    VertexFamily,
    _decomposable,
    _exact_cover_exists,
    _mask_key,
    iter_bits,
    member_key,
    set_of,
    subfamily_unions,
)
from .resolution import (
    AcyclicityOracle,
    FamilyCriteriaReport,
    _minimum_cover_size,
    check_family_criteria,
    cover_unions,
    f_symmetry,
    oracle_for,
    requirement_rows,
)


class SearchSpace(NamedTuple):
    """Inputs of the family search besides the complex and the field.

    The candidate members are always the nonempty vertex sets with
    connected restriction and acyclic complement.

    symmetry: vertex permutations (tuples) used to deduplicate results by
        orbit; they must be automorphisms of the complex.
    max_candidates: refuse (GuardExceeded) to search a longer list, as soon
        as the (max_candidates + 1)-th candidate is found.
    """

    symmetry: tuple = ()
    max_candidates: int = 60


def _connected_masks(adj: list, star: list, keep=None):
    """Yield (mask, reach) for each nonempty vertex mask whose induced
    subgraph of the graph `adj` (one neighbour mask per vertex) is
    connected, once; reach is the union of star[v] over the vertices v in
    the mask.  A set grown to a reach failing `keep` is not yielded, nor
    grown further.  If `keep` fails above every reach it fails on, no set
    passing it is lost: the reach grows along a set's one growth path.

    Each set grows from its lowest vertex v (ESU, Wernicke 2006) by one
    extension vertex at a time.  Those lie above v and enter as neighbours
    of the newest member not yet adjacent to the set, whose closed
    neighbourhood rides along as a mask, and so does the reach, at one
    union per step; so each set has one growth path.
    The stack is explicit, so long paths cannot overflow it, and children
    with the smallest extension come off it first.
    """
    for v in range(len(adj)):
        above = -2 << v
        stack = [(1 << v, star[v], adj[v] | 1 << v, adj[v] & above)]
        while stack:
            sub, reach, closed, ext = stack.pop()
            yield sub, reach
            while ext:
                u = ext.bit_length() - 1
                ext ^= 1 << u
                grown = reach | star[u]
                if keep is None or keep(grown):
                    stack.append((sub | 1 << u, grown, closed | adj[u],
                                  ext | adj[u] & above & ~closed))


def connected_vertex_subsets(X: CellComplex) -> list:
    """Increasing masks of nonempty vertex sets with connected restriction."""
    adj = vertex_adjacency(X)
    return sorted(m for m, _ in _connected_masks(adj, [0] * len(adj)))


def _duality_test(oracle: AcyclicityOracle):
    """A test on a set's reach (the cells meeting it) that every member of
    every valid family passes, and a test that every reach below a passing
    one passes; (None, None) when X has several top cells.

    A valid family on a d-dimensional X with a single d-cell gives a
    Cohen-Macaulay minimal cellular resolution supported on X, of length
    and codimension d + 1 (the cover bound).  Its last module has rank
    f_d = 1, so the quotient is Gorenstein and its minimal resolution is
    self-dual (Bruns and Herzog, *Cohen-Macaulay Rings*, ch. 3).  Each
    label is the product of the members meeting its cell, so the duality
    pairs the i-cells with the (d-1-i)-cells such that every member meets
    exactly one cell of each pair: a member meets as many i-cells as it
    misses (d-1-i)-cells, for every i.  A set failing that can neither be
    searched as a candidate nor join a valid family.

    Where f_i != f_(d-1-i), the conditions for i and for d-1-i ask one
    sum to equal both, so no set passes, and both tests say no at once:
    a non-palindromic f-vector admits no valid family.  Otherwise the
    second test asks that no sum exceed f_i; a sum never falls as the
    reach grows.
    """
    dims = oracle._dims
    d = len(dims) - 1
    f = [cells.bit_count() for cells in dims]
    if f[d] != 1:
        return None, None
    if any(f[i] != f[d - 1 - i] for i in range(d)):
        return (lambda reach: False,) * 2
    pairs = [(dims[i], dims[d - 1 - i], f[i]) for i in range(d)]

    def test(reach):
        for a, b, n in pairs:
            if (reach & a).bit_count() + (reach & b).bit_count() != n:
                return False
        return True
    return test, lambda reach: all(
        (reach & a).bit_count() + (reach & b).bit_count() <= n
        for a, b, n in pairs)


def _candidates(space: SearchSpace, oracle: AcyclicityOracle) -> tuple:
    """The masks of the candidates that `_duality_test` allows, sorted by
    `_mask_key`; refuses as soon as the (max_candidates + 1)-th candidate
    is found, before duality is asked about any of them."""
    full = oracle.full_mask
    found = []
    # the cells meeting a candidate are those its complement's restriction
    # leaves out, so the walk hands the oracle the union of its stars
    for m, reach in _connected_masks(oracle._adj, oracle._star):
        if oracle.is_acyclic(full & ~m, reach):
            found.append((m, reach))
            if len(found) > space.max_candidates:
                raise GuardExceeded(
                    f"more than {space.max_candidates} candidate sets; "
                    "raise max_candidates to proceed")
    dual, _ = _duality_test(oracle)
    return tuple(sorted((m for m, reach in found
                         if dual is None or dual(reach)), key=_mask_key))


def _maximal_at(cands: tuple, joinable: int, chosen: tuple) -> bool:
    """Every joinable candidate splits into members; no member into others."""
    return (all(_exact_cover_exists(cands[j], chosen)
                for j in iter_bits(joinable))
            and not any(_decomposable(chosen)))


def _search(X: CellComplex, field: FieldSpec, cands: tuple,
            oracle: AcyclicityOracle = None, maximal: bool = False):
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

    The walk is one loop over an explicit stack of nodes not yet entered,
    so memory, not the recursion limit, bounds a family's size.  An entry
    holds the members chosen above the node, the option entering it and
    the parent's sets for that option, and is filtered when popped; the
    highest option is pushed first, so siblings come off in order.

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
    root = sum(1 << j for j, m in enumerate(cands)
               if m != full and oracle.is_acyclic(full & ~m))
    stack = [((), 0, root, 0, {0}, reqs)]
    while stack:
        chosen, low, live, excl, unions, unmet = stack.pop()
        if low:
            m = cands[low.bit_length() - 1]
            fresh = {u | m for u in unions} - unions
            size = min(d - 1, len(chosen) + 1)
            nxt = live | excl
            for u in cover_unions(m, chosen, size - 1) if size else ():
                short_u = short.get(u)
                if short_u is None:
                    # c | u == full when c holds every vertex outside u
                    covers = everyone
                    for v in iter_bits(full & ~u):
                        covers &= reqs[v]
                    short_u = short[u] = everyone & ~covers
                nxt &= short_u
            for w in fresh:
                asked = tried.get(w, 0)
                new = nxt & ~asked
                if new:
                    tried[w] = asked | new
                    passed[w] = (passed.get(w, 0)
                                 | oracle.acyclic_bits(w, cands, new))
                nxt &= passed.get(w, 0)
            chosen += (m,)
            live, excl = nxt & live, nxt & ~live
            unions = unions | fresh
            unmet = [row for row in unmet if not row & low]
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
        elif not maximal or _maximal_at(cands, live | excl, chosen):
            yield chosen
        while opts:
            top = 1 << (opts.bit_length() - 1)
            stack.append((chosen, top, live & ~opts,
                          excl | opts ^ top if maximal else excl,
                          unions, unmet))
            opts ^= top


def _check_automorphism(X: CellComplex, perm: tuple):
    if sorted(perm) != list(range(X.n_vertices)):
        raise FamilyError(f"{perm} is not a permutation of the vertices")
    by_dim = {}
    for c in X.cells:
        by_dim.setdefault(c.dim, set()).add(c.vertices)
    for d, supports in by_dim.items():
        image = {frozenset(perm[v] for v in s) for s in supports}
        if image != supports:
            raise FamilyError(
                f"permutation {perm} does not preserve the dimension-{d} cells")


def _family_key(sets) -> tuple:
    return tuple(sorted(map(member_key, sets)))


def _orbit_representative(sets, perms) -> tuple:
    return min(_family_key([frozenset(perm[v] for v in s) for s in sets])
               for perm in perms)


def _materialize(n, mask_tuples, symmetry) -> list:
    keys = set()
    for masks in mask_tuples:
        sets = [set_of(m) for m in masks]
        keys.add(_orbit_representative(sets, symmetry) if symmetry
                 else _family_key(sets))
    return [VertexFamily(n, tuple(frozenset(vs) for _, vs in key))
            for key in sorted(keys)]


def _families(X: CellComplex, space: SearchSpace, field: FieldSpec,
              oracle: AcyclicityOracle, maximal: bool) -> list:
    space = space or SearchSpace()
    if X.dim < 1:
        raise FamilyError("enumeration needs a complex of dimension at least 1")
    oracle = oracle_for(X, field, oracle)
    cands = _candidates(space, oracle)
    symmetry = ()
    if space.symmetry:
        for perm in space.symmetry:
            _check_automorphism(X, tuple(perm))
        symmetry = tuple({tuple(p) for p in space.symmetry}
                         | {tuple(range(X.n_vertices))})
    if not cands:
        return []
    return _materialize(X.n_vertices,
                        _search(X, field, cands, oracle, maximal), symmetry)


def enumerate_valid_families(X: CellComplex, space: SearchSpace = None,
                             field: FieldSpec = GF2,
                             oracle: AcyclicityOracle = None) -> list:
    """All families over the candidate set passing the three criteria.

    Results are canonically ordered (members sorted by size then content,
    families likewise) and, when a symmetry group is supplied, reduced to
    one representative per orbit.
    """
    return _families(X, space, field, oracle, maximal=False)


def any_valid_family(X: CellComplex, space: SearchSpace = None,
                     field: FieldSpec = GF2,
                     oracle: AcyclicityOracle = None):
    """A valid family on X, or None when none exists.

    Which valid family comes back is not specified.  The family search
    meets requirements first, so it reaches a valid family along a path of
    requirement branches and stops there.  Searching only connected
    candidates with acyclic complement decides existence outright:
    splitting a disconnected member of a valid family into its pieces
    preserves validity.  On a complex with one top cell the search runs
    over the candidates that duality allows (see `_duality_test`); when
    it allows none, as on every non-palindromic f-vector, the answer is
    None without the search.
    """
    space = space or SearchSpace()
    if X.dim < 1:
        raise FamilyError("search needs a complex of dimension at least 1")
    oracle = oracle_for(X, field, oracle)
    cands = _candidates(space, oracle)
    hit = next(_search(X, field, cands, oracle), None) if cands else None
    return None if hit is None else _materialize(X.n_vertices, [hit], ())[0]


class MaximalityReport(NamedTuple):
    is_maximal: bool
    extension: frozenset = None     # an addable set, when one exists
    decomposable: frozenset = None  # a member that splits into other members


def is_maximal(X: CellComplex, F: VertexFamily, field: FieldSpec = GF2,
               oracle: AcyclicityOracle = None,
               criteria: FamilyCriteriaReport = None) -> MaximalityReport:
    """Is a family maximal among reduced families on this complex?

    Requires the family to pass the validity criteria (raises otherwise).
    A caller that already holds F's `check_family_criteria` report over
    this field passes it as `criteria`, and the criteria are not run again;
    a report over another field raises ValueError.
    The family must equal its own reduction, and every vertex set T not
    already expressible through the family must break a criterion when
    added.  Since the family itself passes, only the cover bound and the
    acyclic-complement condition can break, and only on subfamilies
    involving T.

    Only connected sets need trying.  If T can be added, so can its
    connected pieces together (splitting a member into its pieces
    preserves validity), and then any piece that is not a disjoint union
    of members can be added alone, since the hereditary part survives
    dropping the other pieces.  That piece's mask is at most T's, so the
    scan over connected sets in increasing mask order returns the same
    `extension` as a scan over every vertex subset would.  An addable set
    joins a valid family, so the scan keeps only the sets that pass
    `_duality_test`, and the walk grows no set past a count of that test;
    the `extension` stays the same.

    Each set meets the cheap questions first: the cover bound (do at most
    d - 1 members cover the vertices it misses?), then the exact cover,
    and only then the oracle, about the complement of its union with each
    union of members; a disjoint union of members would pass all of those.
    """
    oracle = oracle_for(X, field, oracle)
    if criteria is None:
        criteria = check_family_criteria(X, F, field, oracle)
    elif criteria.field != field.describe():
        raise ValueError(f"the criteria report is over {criteria.field}, "
                         f"asked over {field.describe()}")
    if not criteria.ok:
        raise FamilyError("maximality is defined for families passing "
                          "the validity criteria")
    masks = F.member_masks()
    gone = next(_decomposable(masks), None)
    if gone is not None:
        return MaximalityReport(False, decomposable=set_of(gone))
    unions = sorted(subfamily_unions(masks))
    full = (1 << X.n_vertices) - 1
    dual, within = _duality_test(oracle)
    walk = _connected_masks(oracle._adj, oracle._star, within)
    for t in sorted(m for m, reach in walk if dual is None or dual(reach)):
        if _minimum_cover_size(full & ~t, masks, X.dim - 1) is not None:
            continue  # extension would break the cover bound
        if _exact_cover_exists(t, masks):
            continue  # a member, or a disjoint union of members
        if all(oracle.is_acyclic(full & ~(t | u)) for u in unions):
            return MaximalityReport(False, extension=set_of(t))
    return MaximalityReport(True)


def enumerate_maximal_families(X: CellComplex, space: SearchSpace = None,
                               field: FieldSpec = GF2) -> list:
    """The valid families that are maximal, canonically ordered.

    The search yields them directly (see `_search`); automorphisms preserve
    maximality, so each orbit representative is maximal when its orbit is.
    """
    return _families(X, space, field, None, maximal=True)


# ---------------------------------------------------------------------------
# symmetry groups


def dihedral_group(n: int) -> tuple:
    """Rotations and reflections of the n-cycle as vertex permutations."""
    perms = []
    for k in range(n):
        perms.append(tuple((v + k) % n for v in range(n)))
        perms.append(tuple((k - v) % n for v in range(n)))
    return tuple(perms)


def chord_symmetry(n: int, a: int) -> tuple:
    """Identity and the reflection fixing the chord from 0 to a."""
    return (tuple(range(n)), tuple((a - v) % n for v in range(n)))


# ---------------------------------------------------------------------------
# conjecture harnesses (evidence, not proofs)


class ConjectureReport(NamedTuple):
    kind: str
    rows: tuple
    counterexamples: tuple

    @property
    def holds(self) -> bool:
        return not self.counterexamples


VARIABLE_COUNT_INSTANCES = (
    (5, ((0, 2),)),
    (6, ((0, 2),)),
    (6, ((0, 3),)),
    (7, ((0, 2),)),
    (7, ((0, 3),)),
    (6, ((1, 5), (3, 5))),
)


def variable_count_report(field: FieldSpec = GF2,
                          max_candidates: int = 200) -> ConjectureReport:
    """Do maximal families on polygons with k chords have n + k members?

    Every maximal family found by exhaustive search is compared against the
    predicted cardinality; mismatches are collected as counterexamples
    rather than errors.
    """
    from .constructions import subdivided_polygon

    rows, bad = [], []
    for n, chords in VARIABLE_COUNT_INSTANCES:
        X = subdivided_polygon(n, chords)
        space = SearchSpace(max_candidates=max_candidates)
        families = enumerate_maximal_families(X, space, field)
        expected = n + len(chords)
        sizes = [len(F.sets) for F in families]
        row = {
            "n": n,
            "chords": [list(c) for c in chords],
            "expected_members": expected,
            "maximal_families": len(families),
            "family_sizes": sizes,
            "ok": all(s == expected for s in sizes),
        }
        rows.append(row)
        for F in families:
            if len(F.sets) != expected:
                bad.append({
                    "n": n,
                    "chords": [list(c) for c in chords],
                    "family": [sorted(s) for s in F.sets],
                    "members": len(F.sets),
                    "expected": expected,
                })
    return ConjectureReport("variable-count", tuple(rows), tuple(bad))


def _selfdual_corpus():
    from .constructions import (
        bipyramid_complex,
        elongated_pyramid,
        ep_family,
        polygon_complex,
        polygon_family,
        pyramid,
        pyramid_family,
        wheel_family,
        wheel_polytope,
    )

    corpus = []
    for n in (3, 5, 7):
        corpus.append((f"pyramid-{n}-gon", pyramid(polygon_complex(n)),
                       pyramid_family(polygon_family(n))))
    for n in (4, 6):
        corpus.append((f"pyramid-{n}-gon", pyramid(polygon_complex(n)), None))
    for n in (3, 5):
        corpus.append((f"elongated-pyramid-{n}-gon",
                       elongated_pyramid(polygon_complex(n)),
                       ep_family(polygon_family(n))))
    corpus.append(("wheel-4", wheel_polytope(4), wheel_family()))
    corpus.append(("bipyramid-3-gon", bipyramid_complex(3), None))
    corpus.append(("bipyramid-4-gon", bipyramid_complex(4), None))
    return corpus


def selfdual_report(field: FieldSpec = GF2,
                    max_candidates: int = 200) -> ConjectureReport:
    """Do polytopes admitting a valid family have symmetric f-vectors?

    Rows carry a named complex, whether any valid family exists (by a known
    witness family or by the requirement-driven existence search), and the
    f-vector symmetry verdict.  A polytope admitting a family without the
    symmetry would be a counterexample and is flagged, not raised.

    The existence rows of the asymmetric polytopes restate a theorem
    rather than add evidence: on a complex with one top cell,
    `any_valid_family` searches only the candidates that Gorenstein
    duality allows (see `_duality_test`), and on a non-palindromic
    f-vector it allows none, so the engine never runs there.
    """
    rows, bad = [], []
    for name, X, witness in _selfdual_corpus():
        if witness is not None:
            admits = check_family_criteria(X, witness, field).ok
            method = "witness-family"
        else:
            try:
                space = SearchSpace(max_candidates=max_candidates)
                admits = any_valid_family(X, space, field) is not None
                method = "existence-search"
            except GuardExceeded:
                admits, method = None, "skipped-guard"
        row = {
            "name": name,
            "f_vector": list(X.f_vector()),
            "polytope": is_polytope_complex(X),
            "symmetric": f_symmetry(X),
            "admits_valid_family": admits,
            "method": method,
        }
        rows.append(row)
        if admits and row["polytope"] and not row["symmetric"]:
            bad.append(row)
    return ConjectureReport("selfdual", tuple(rows), tuple(bad))
