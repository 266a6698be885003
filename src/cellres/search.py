"""Search for valid and maximal families on small complexes.

The validity criteria split into a hereditary part (the cover bound and
acyclicity of complements of unions survive passing to subfamilies) and a
part closed under supersets (face separation and covering the vertex set).
Enumeration walks families depth first in candidate-index order and records
a family whenever the second part holds at the current node.  Each node
carries its live set, the later candidates that can still join without
breaking the hereditary part; adding a member only ever shrinks it, and
only the checks involving the new member are run.  A subtree is skipped
when its live set cannot complete face separation or the vertex cover.

Maximality is operational: a reduced family is maximal when no single set
can be added without breaking a criterion.  Adding a set can only break the
hereditary part, which keeps the extension test cheap.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .complexes import CellComplex, is_polytope_complex
from .linalg import GF2, FieldSpec
from .monomials import (
    FamilyError,
    VertexFamily,
    _exact_cover_exists,
    reduce_family,
)
from .resolution import (
    AcyclicityOracle,
    check_family_criteria,
    covering_face_pairs,
    f_vector,
    f_symmetry,
    mask_of,
    set_of,
    subfamily_unions,
)


class GuardExceeded(RuntimeError):
    """Candidate list larger than the search guard allows."""


@dataclass(frozen=True)
class SearchSpace:
    """Knobs for the family search.

    candidates: explicit candidate member sets; None builds the default
        list (nonempty subsets with connected restriction and acyclic
        complement, both necessary for membership in a family found by the
        maximal-family search).
    symmetry: vertex permutations (tuples) used to deduplicate results by
        orbit; they must be automorphisms of the complex.
    connected_only / complement_filter: toggles for the default candidate
        construction, exposed so the suite can rerun searches on cruder
        candidate lists and compare.
    max_candidates: refuse (GuardExceeded) to search a longer list.
    prune: carry the live candidate set down the search tree and skip
        subtrees whose live set cannot meet face separation or the vertex
        cover; turning it off re-evaluates the criteria from scratch at
        every node of the hereditary walk.  Results are identical either
        way.
    """

    candidates: tuple = None
    symmetry: tuple = ()
    connected_only: bool = True
    complement_filter: bool = True
    max_candidates: int = 60
    prune: bool = True


def connected_vertex_subsets(X: CellComplex) -> list:
    """Masks of nonempty vertex subsets inducing a connected restriction."""
    n = X.n_vertices
    edges = []
    for c in X.cells_of_dim(1):
        u, v = sorted(c.vertices)
        edges.append((u, v))
    out = []
    for m in range(1, 1 << n):
        verts = [v for v in range(n) if (m >> v) & 1]
        parent = {v: v for v in verts}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        comps = len(verts)
        for u, v in edges:
            if (m >> u) & 1 and (m >> v) & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    comps -= 1
        if comps == 1:
            out.append(m)
    return out


def _mask_sort_key(m: int):
    return (bin(m).count("1"), tuple(sorted(set_of(m))))


def _candidate_masks(X: CellComplex, space: SearchSpace,
                     oracle: AcyclicityOracle) -> tuple:
    full = (1 << X.n_vertices) - 1
    if space.candidates is not None:
        masks = set()
        for s in space.candidates:
            m = mask_of(s)
            if m == 0 or m & ~full:
                raise FamilyError(f"candidate {sorted(s)} out of range")
            masks.add(m)
        masks = sorted(masks, key=_mask_sort_key)
    else:
        if space.connected_only:
            masks = connected_vertex_subsets(X)
        else:
            masks = list(range(1, full + 1))
        if space.complement_filter:
            masks = [m for m in masks if oracle.is_acyclic(full & ~m)]
        masks.sort(key=_mask_sort_key)
    if len(masks) > space.max_candidates:
        raise GuardExceeded(
            f"{len(masks)} candidate sets exceed the limit of "
            f"{space.max_candidates}; raise max_candidates to proceed")
    return tuple(masks)


def _search(X: CellComplex, field: FieldSpec, cands: tuple, prune: bool,
            only_first: int = None, oracle: AcyclicityOracle = None) -> list:
    """Depth-first family search over a fixed candidate list.

    Returns the found families as tuples of member masks, in candidate
    order.  When only_first is given, the first chosen candidate is pinned
    to that index (used to partition work across processes).

    With prune, every node carries its live set: the candidates after the
    newest member that can still join the chosen family without breaking
    the cover bound or the acyclic-complement condition.  Both conditions
    are closed under subfamilies, so a candidate that leaves the live set
    never returns below that node, and a child filters its parent's live
    set by what the newest member adds alone: the cover-bound unions that
    contain it and the member unions it creates.  A child is entered only
    when its live set can still separate every covering face pair and cover
    every vertex, since both requirements are closed under supersets.
    Without prune every node re-evaluates the criteria from scratch.
    """
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
    chosen = []

    def reachable(live, sat, covered):
        for k in live:
            sat |= cand_pairs[k]
            covered |= cands[k]
        return sat == all_pairs and covered == full

    def descend(live, unions, sat, covered, only=None):
        for i, j in enumerate(live):
            if only is not None and j != only:
                continue
            m = cands[j]
            chosen.append(m)
            sat_j, covered_j = sat | cand_pairs[j], covered | m
            if covered_j == full and sat_j == all_pairs:
                found.append(tuple(chosen))
            fresh = {u | m for u in unions} - unions
            size = min(d - 1, len(chosen))
            bounds = []
            if size:
                for combo in itertools.combinations(chosen[:-1], size - 1):
                    u = m
                    for x in combo:
                        u |= x
                    bounds.append(u)
            nxt = [k for k in live[i + 1:]
                   if all(cands[k] | u != full for u in bounds)
                   and all(oracle.is_acyclic(full & ~(w | cands[k]))
                           for w in fresh)]
            if nxt and reachable(nxt, sat_j, covered_j):
                descend(nxt, unions | fresh, sat_j, covered_j)
            chosen.pop()

    def from_scratch(start, only=None):
        indices = range(start, len(cands)) if only is None else (only,)
        for j in indices:
            fam = VertexFamily(
                X.n_vertices,
                tuple(set_of(x) for x in chosen) + (set_of(cands[j]),))
            rep = check_family_criteria(X, fam, field, oracle)
            if not (rep.cover_bound and rep.complements_acyclic):
                continue
            chosen.append(cands[j])
            if rep.ok:
                found.append(tuple(chosen))
            from_scratch(j + 1)
            chosen.pop()

    if not prune:
        from_scratch(0, only=only_first)
        return found
    root = [j for j, m in enumerate(cands)
            if m != full and oracle.is_acyclic(full & ~m)]
    if reachable(root, 0, 0):
        descend(root, {0}, 0, 0, only=only_first)
    return found


def _search_worker(args):
    X, field, cands, prune, j = args
    return _search(X, field, cands, prune, only_first=j)


def _identity(n: int) -> tuple:
    return tuple(range(n))


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
    return tuple(sorted((len(s), tuple(sorted(s))) for s in sets))


def _orbit_representative(sets, perms) -> tuple:
    best = None
    for perm in perms:
        image = [frozenset(perm[v] for v in s) for s in sets]
        key = _family_key(image)
        if best is None or key < best:
            best = key
    return best


def _materialize(n, mask_tuples, symmetry) -> list:
    families = {}
    for masks in mask_tuples:
        sets = [set_of(m) for m in masks]
        key = (_orbit_representative(sets, symmetry) if symmetry
               else _family_key(sets))
        families.setdefault(key, key)
    out = []
    for key in sorted(families):
        out.append(VertexFamily(n, tuple(frozenset(vs) for _, vs in key)))
    return out


def enumerate_valid_families(X: CellComplex, space: SearchSpace = None,
                             field: FieldSpec = GF2, jobs: int = None,
                             oracle: AcyclicityOracle = None) -> list:
    """All families over the candidate set passing the three criteria.

    Results are canonically ordered (members sorted by size then content,
    families likewise) and, when a symmetry group is supplied, reduced to
    one representative per orbit.  Independent of candidate order, the
    prune toggle, and the job count.
    """
    space = space or SearchSpace()
    if X.dim < 1:
        raise FamilyError("enumeration needs a complex of dimension at least 1")
    oracle = oracle or AcyclicityOracle(X, field)
    cands = _candidate_masks(X, space, oracle)
    symmetry = ()
    if space.symmetry:
        for perm in space.symmetry:
            _check_automorphism(X, tuple(perm))
        symmetry = tuple({tuple(p) for p in space.symmetry}
                         | {_identity(X.n_vertices)})
    workers = min(jobs or 1, os.cpu_count() or 1, len(cands))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                _search_worker,
                [(X, field, cands, space.prune, j) for j in range(len(cands))])
            hits = [m for part in parts for m in part]
    else:
        hits = _search(X, field, cands, space.prune, oracle=oracle)
    return _materialize(X.n_vertices, hits, symmetry)


def any_valid_family(X: CellComplex, space: SearchSpace = None,
                     field: FieldSpec = GF2,
                     oracle: AcyclicityOracle = None):
    """One valid family on X, or None when none exists over the candidates.

    Existence does not need the full enumeration.  Any valid family can be
    shrunk to one whose every member either covers some vertex or separates
    some covering face pair, because the cover bound and the complement
    acyclicity conditions survive passing to subfamilies while the other two
    conditions only ever need one witness per requirement.  Splitting a
    disconnected member into its pieces also preserves validity, so with the
    default candidate set (connected, acyclic complement) the answer decides
    existence outright.

    The search keeps a list of unmet requirements and branches on the one
    with the fewest admissible candidates, banning a candidate once its
    subtree is exhausted, and stops at the first valid family.
    """
    space = space or SearchSpace()
    if X.dim < 1:
        raise FamilyError("search needs a complex of dimension at least 1")
    oracle = oracle or AcyclicityOracle(X, field)
    cands = _candidate_masks(X, space, oracle)
    n = X.n_vertices
    full = (1 << n) - 1
    d = X.dim
    if not oracle.is_acyclic(full):
        return None

    pairs = covering_face_pairs(X)
    cell_masks = {c.id: mask_of(c.vertices) for c in X.cells}
    reqs = [[j for j, m in enumerate(cands) if m >> v & 1] for v in range(n)]
    for b, cid in pairs:
        reqs.append([j for j, m in enumerate(cands)
                     if m & cell_masks[b] == 0 and m & cell_masks[cid]])
    serve_bits = [0] * len(cands)
    for k, opts in enumerate(reqs):
        for j in opts:
            serve_bits[j] |= 1 << k

    def admissible(j, chosen, unions):
        m = cands[j]
        k = min(d - 1, len(chosen))
        for combo in itertools.combinations(chosen, k):
            u = m
            for x in combo:
                u |= cands[x]
            if u == full:
                return None
        fresh = []
        for u in unions:
            w = u | m
            if w not in unions:
                if not oracle.is_acyclic(full & ~w):
                    return None
                fresh.append(w)
        return fresh

    def solve(chosen, unions, unmet, banned):
        if unmet == 0:
            return chosen
        pick = None
        for k in range(len(reqs)):
            if unmet >> k & 1:
                opts = [j for j in reqs[k] if not banned >> j & 1]
                if pick is None or len(opts) < len(pick):
                    pick = opts
                    if not opts:
                        return None
        for j in pick:
            fresh = admissible(j, chosen, unions)
            if fresh is not None:
                hit = solve(chosen + [j], unions | set(fresh),
                            unmet & ~serve_bits[j], banned)
                if hit is not None:
                    return hit
            # no valid family extends chosen with j, so drop j for good
            banned |= 1 << j
        return None

    hit = solve([], {0}, (1 << len(reqs)) - 1, 0)
    if hit is None:
        return None
    return VertexFamily(n, tuple(set_of(cands[j]) for j in sorted(hit)))


@dataclass(frozen=True)
class MaximalityReport:
    is_maximal: bool
    extension: frozenset = None     # an addable set, when one exists
    decomposable: frozenset = None  # a member that splits into other members


def is_maximal(X: CellComplex, F: VertexFamily, field: FieldSpec = GF2,
               oracle: AcyclicityOracle = None) -> MaximalityReport:
    """Is a family maximal among reduced families on this complex?

    Requires the family to pass the validity criteria (raises otherwise).
    The family must equal its own reduction, and every candidate set T not
    already expressible through the family must break a criterion when
    added.  Since the family itself passes, only the cover bound and the
    acyclic-complement condition can break, and only on subsets involving
    T; the scan over all vertex subsets exploits that.
    """
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
    k = min(d - 1, len(masks))
    combos = [0]
    for combo in itertools.combinations(masks, k):
        u = 0
        for m in combo:
            u |= m
        combos.append(u)
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


def enumerate_maximal_families(X: CellComplex, space: SearchSpace = None,
                               field: FieldSpec = GF2,
                               jobs: int = None) -> list:
    """The valid families that are maximal, canonically ordered."""
    oracle = AcyclicityOracle(X, field)
    valid = enumerate_valid_families(X, space, field, jobs, oracle=oracle)
    return [F for F in valid if is_maximal(X, F, field, oracle).is_maximal]


@dataclass(frozen=True)
class CoveringReport:
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


def covering_property_check(X: CellComplex, F: VertexFamily,
                            field: FieldSpec = GF2,
                            oracle: AcyclicityOracle = None) -> CoveringReport:
    """Check the covering consequences on a maximal family.

    A failure here indicates a bug (both statements are theorems for the
    inputs they are checked on), which is exactly why the suite runs it.
    """
    oracle = oracle or AcyclicityOracle(X, field)
    verdict = is_maximal(X, F, field, oracle)
    if not verdict.is_maximal:
        raise FamilyError("covering properties apply to maximal families only")
    masks = F.member_masks()
    full = (1 << X.n_vertices) - 1
    d = X.dim

    def covers_with(base, pool, count):
        k = min(count, len(pool))
        for combo in itertools.combinations(pool, k):
            u = base
            for m in combo:
                u |= m
            if u == full:
                return True
        return False

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


@dataclass(frozen=True)
class ConjectureReport:
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


def variable_count_report(instances=None, field: FieldSpec = GF2,
                          jobs: int = None,
                          max_candidates: int = 200) -> ConjectureReport:
    """Do maximal families on polygons with k chords have n + k members?

    Every maximal family found by exhaustive search is compared against the
    predicted cardinality; mismatches are collected as counterexamples
    rather than errors.
    """
    from .constructions import subdivided_polygon

    rows, bad = [], []
    for n, chords in (instances or VARIABLE_COUNT_INSTANCES):
        X = subdivided_polygon(n, chords)
        space = SearchSpace(max_candidates=max_candidates)
        families = enumerate_maximal_families(X, space, field, jobs)
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
                    "family": [sorted(s) for s in F.canonical().sets],
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


def selfdual_report(corpus=None, field: FieldSpec = GF2,
                    jobs: int = None,
                    max_candidates: int = 200) -> ConjectureReport:
    """Do polytopes admitting a valid family have symmetric f-vectors?

    Rows carry a named complex, whether any valid family exists (by a known
    witness family or by the requirement-driven existence search), and the
    f-vector symmetry verdict.  A polytope admitting a family without the
    symmetry would be a counterexample and is flagged, not raised.
    """
    rows, bad = [], []
    for name, X, witness in (corpus or _selfdual_corpus()):
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
            "f_vector": list(f_vector(X)),
            "polytope": is_polytope_complex(X),
            "symmetric": f_symmetry(X),
            "admits_valid_family": admits,
            "method": method,
        }
        rows.append(row)
        if admits and row["polytope"] and not row["symmetric"]:
            bad.append(row)
    return ConjectureReport("selfdual", tuple(rows), tuple(bad))


def conjecture_harness(kind: str, **params) -> ConjectureReport:
    """Dispatch to one of the conjecture evidence reports by kind."""
    if kind == "variable-count":
        return variable_count_report(**params)
    if kind == "selfdual":
        return selfdual_report(**params)
    raise ValueError(f"unknown conjecture kind {kind!r}; "
                     "use variable-count or selfdual")
