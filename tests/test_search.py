"""Family enumeration, maximality, covering checks, conjecture harnesses."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellres.search as search
from cellres.complexes import (ComplexBuilder, is_polytope_complex,
                               reduced_homology, restrict, validate_complex,
                               vertex_adjacency)
from cellres.constructions import (
    _polytope,
    bipyramid_complex,
    chord_complex,
    chord_families,
    edges_to_tree,
    elongated_pyramid,
    ep_family,
    fixture,
    polygon_complex,
    polygon_family,
    pyramid,
    pyramid_family,
    subdivided_polygon,
    tree_complex,
    wheel_family,
    wheel_polytope,
)
from cellres.linalg import GF2, RATIONAL
from cellres.monomials import (
    FamilyError,
    _mask_key,
    family,
    family_of,
    member_key,
    refines,
    set_of,
)
from cellres.resolution import (AcyclicityOracle, check_family_criteria,
                                f_symmetry)
from cellres.search import (
    GuardExceeded,
    MaximalityReport,
    SearchSpace,
    VARIABLE_COUNT_INSTANCES,
    any_valid_family,
    chord_symmetry,
    connected_vertex_subsets,
    dihedral_group,
    enumerate_maximal_families,
    enumerate_valid_families,
    is_maximal,
    selfdual_report,
    variable_count_report,
)
from reference_search import (
    candidate_masks,
    covering_property_check,
    from_scratch_search,
    reference_covering_property_check,
    reference_family_search,
    reference_connected_vertex_subsets,
    reference_is_maximal,
    reference_maximal_families,
    reference_recursive_search,
    reference_search,
)

SP = SearchSpace(max_candidates=200)

# the full catalogue on the hexagon with chords (1,5) and (3,5); found by
# exhaustive search and cross-checked over both fields at every lattice point
HEXAGON_MAXIMAL = [
    [[0], [2], [4], [0, 1], [1, 2], [2, 3], [0, 1, 5], [1, 2, 3], [3, 4, 5]],
    [[0], [2], [4], [1, 2], [2, 3], [3, 4], [0, 1, 5], [1, 2, 3], [3, 4, 5]],
    [[0], [4], [0, 1], [0, 5], [1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]],
    [[0], [4], [0, 1], [1, 2], [2, 3], [0, 1, 5], [0, 4, 5], [3, 4, 5]],
    [[0], [4], [1, 2], [2, 3], [3, 4], [0, 1, 5], [0, 4, 5], [3, 4, 5]],
    [[0], [4], [2, 3], [3, 4], [4, 5], [0, 1, 2], [0, 1, 5], [1, 2, 3]],
]


def as_sorted_sets(F):
    return sorted(sorted(s) for s in F.sets)


def family_key(masks):
    """A family given by member masks, independent of member order."""
    return tuple(sorted(masks))


def every_subset(n):
    """Every nonempty vertex subset, as a candidate list of masks."""
    return tuple(sorted(range(1, 1 << n), key=_mask_key))


def default_candidates(X, field=GF2):
    return candidate_masks(SP, AcyclicityOracle(X, field))


def test_connected_vertex_subsets_of_a_path():
    X = tree_complex(edges_to_tree(3, [(0, 1), (1, 2)]))
    subs = {set_of(m) for m in connected_vertex_subsets(X)}
    assert subs == {frozenset({0}), frozenset({1}), frozenset({2}),
                    frozenset({0, 1}), frozenset({1, 2}),
                    frozenset({0, 1, 2})}
    # connected means the restriction has no reduced H_0
    for X in (chord_complex(7, 3), pyramid(polygon_complex(5))):
        no_h0 = [m for m in range(1, 1 << X.n_vertices)
                 if 0 not in reduced_homology(restrict(X, set_of(m))).reduced_betti]
        assert connected_vertex_subsets(X) == no_h0


# case name -> complex; each lists its connected sets in the library and
# in the 2^n reference scan
CONNECTED_SET_CASES = {
    **{f"polygon-{n}": polygon_complex(n) for n in range(3, 13)},
    "octagon-one-chord": subdivided_polygon(8, ((0, 4),)),
    "nonagon-two-chords": subdivided_polygon(9, ((0, 3), (0, 6))),
    "hexagon-two-chords": subdivided_polygon(6, ((1, 5), (3, 5))),
    "twelve-gon-three-chords": subdivided_polygon(
        12, ((0, 3), (0, 6), (0, 9))),
    **{f"pyramid-{n}-gon": pyramid(polygon_complex(n)) for n in range(4, 9)},
    **{f"bipyramid-{n}-gon": bipyramid_complex(n) for n in range(3, 7)},
    "wheel-4": wheel_polytope(4),
    "elongated-pyramid-3-gon": elongated_pyramid(polygon_complex(3)),
    "elongated-pyramid-4-gon": elongated_pyramid(polygon_complex(4)),
    "path-6": tree_complex(edges_to_tree(6, [(i, i + 1) for i in range(5)])),
    "star-7": tree_complex(edges_to_tree(7, [(0, i) for i in range(1, 7)])),
    "caterpillar-8": tree_complex(edges_to_tree(
        8, [(0, 3), (1, 3), (3, 4), (4, 2), (4, 7), (7, 5), (7, 6)])),
}


@pytest.mark.parametrize("case", sorted(CONNECTED_SET_CASES))
def test_connected_vertex_subsets_match_the_reference_scan(case):
    X = CONNECTED_SET_CASES[case]
    # with each vertex's own bit as its star, the reach is the set itself
    grown = list(search._connected_masks(
        vertex_adjacency(X), [1 << v for v in range(X.n_vertices)]))
    assert all(sub == reach for sub, reach in grown)
    assert len(grown) == len(set(grown))
    assert connected_vertex_subsets(X) == reference_connected_vertex_subsets(X)


def test_odd_polygon_has_exactly_the_arc_family():
    found = enumerate_valid_families(polygon_complex(5), SP)
    assert len(found) == 1
    assert found[0].same_family(polygon_family(5))


def test_even_polygons_have_no_valid_family():
    assert enumerate_valid_families(polygon_complex(4), SP) == []
    assert enumerate_valid_families(polygon_complex(6), SP) == []


def test_enumeration_is_independent_of_candidate_order():
    X = polygon_complex(5)
    base = enumerate_valid_families(X, SP)
    cands = list(default_candidates(X))
    rng = random.Random(7)
    rng.shuffle(cands)
    shuffled = search._materialize(
        X.n_vertices, search._search(X, GF2, tuple(cands)), ())
    assert [as_sorted_sets(F) for F in base] == [as_sorted_sets(F) for F in shuffled]


def test_enumeration_is_independent_of_pruning():
    X = chord_complex(5, 2)
    base = enumerate_valid_families(X, SP)
    cands = default_candidates(X)
    unpruned = search._materialize(
        X.n_vertices, from_scratch_search(X, GF2, cands), ())
    key = lambda fams: [as_sorted_sets(F) for F in fams]
    assert key(base) == key(unpruned)


def _pyramid_over_pentagon_short_list(field):
    """The first 20 default candidates on the pyramid over a pentagon, plus
    the members of a valid family, so that the list has a solution and the
    reference walk stays quick."""
    X = pyramid(polygon_complex(5))
    masks = set(default_candidates(X)[:20])
    masks |= set(any_valid_family(X, SP).member_masks())
    return X, tuple(sorted(masks, key=_mask_key))


def _with_default_candidates(X):
    return lambda field: (X, default_candidates(X, field))


# case name -> field -> (complex, candidate masks)
DIFFERENTIAL_CASES = {
    "pyramid-4-gon": _with_default_candidates(pyramid(polygon_complex(4))),
    "bipyramid-3-gon": _with_default_candidates(bipyramid_complex(3)),
    "pyramid-5-gon-short-list": _pyramid_over_pentagon_short_list,
    "chord-6-3": _with_default_candidates(chord_complex(6, 3)),
    "hexagon-two-chords": _with_default_candidates(
        subdivided_polygon(6, ((1, 5), (3, 5)))),
    "chord-5-2-unfiltered": lambda field: (chord_complex(5, 2),
                                           every_subset(5)),
}


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_forward_checking_matches_the_reference_walk(case, field):
    X, cands = DIFFERENTIAL_CASES[case](field)
    got = [family_key(masks) for masks in search._search(X, field, cands)]
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(
        family_key(masks) for masks in reference_search(X, field, cands))


def test_enumeration_over_the_rationals_matches_gf2():
    X = chord_complex(6, 2)
    key = lambda fams: [as_sorted_sets(F) for F in fams]
    assert key(enumerate_valid_families(X, SP)) == \
        key(enumerate_valid_families(X, SP, field=RATIONAL))


def test_chord_enumeration_matches_construction():
    for n, a in ((5, 2), (6, 2), (6, 3)):
        found = enumerate_valid_families(chord_complex(n, a), SP)
        wanted = chord_families(n, a)
        assert len(found) == 2
        assert {as_sorted_sets(F) == as_sorted_sets(G)
                for F in found for G in wanted} >= {True}
        for F in found:
            assert any(F.same_family(G) for G in wanted)


def test_symmetry_reduces_chord_orbit():
    X = chord_complex(6, 3)
    sym = chord_symmetry(6, 3)
    reduced = enumerate_valid_families(
        X, SearchSpace(symmetry=sym, max_candidates=200))
    assert len(reduced) == 1
    full = enumerate_valid_families(X, SP)
    assert len(full) == 2


def test_symmetry_rejects_non_automorphisms():
    X = chord_complex(6, 3)
    rotation = tuple((i + 1) % 6 for i in range(6))  # breaks the chord
    with pytest.raises(FamilyError):
        enumerate_valid_families(
            X, SearchSpace(symmetry=(rotation,), max_candidates=200))
    with pytest.raises(FamilyError, match="is not a permutation"):
        enumerate_valid_families(
            X, SearchSpace(symmetry=((0, 0, 1, 2, 3, 4),), max_candidates=200))


def test_search_needs_a_complex_of_positive_dimension():
    point = tree_complex(edges_to_tree(1, []))
    with pytest.raises(FamilyError, match="^enumeration needs a complex"):
        enumerate_valid_families(point)
    with pytest.raises(FamilyError, match="^search needs a complex"):
        any_valid_family(point)


def test_dihedral_group_size():
    assert len(dihedral_group(5)) == 10
    assert len({p for p in dihedral_group(5)}) == 10


def test_guard_refuses_oversized_candidate_sets():
    with pytest.raises(GuardExceeded) as err:
        enumerate_valid_families(polygon_complex(7),
                                 SearchSpace(max_candidates=3))
    assert "max_candidates" in str(err.value)


class CountingOracle(AcyclicityOracle):
    """Counts acyclicity queries, one per mask whether asked alone or in a
    batch, and the ones the cache cannot answer."""

    queries = misses = 0

    def is_acyclic(self, mask, outside=None):
        self.queries += 1
        return super().is_acyclic(mask, outside)

    def acyclic_bits(self, out, masks, bits):
        self.queries += bits.bit_count()
        return super().acyclic_bits(out, masks, bits)

    def _compute(self, mask, outside=None):
        self.misses += 1
        return super()._compute(mask, outside)


def test_guard_refuses_after_one_candidate_past_the_limit():
    # every connected set of the 40-gon has an acyclic complement, so each
    # query keeps a candidate and the 61st is the first past the limit
    X = polygon_complex(40)
    oracle = CountingOracle(X)
    with pytest.raises(GuardExceeded) as err:
        enumerate_valid_families(X, SearchSpace(max_candidates=60),
                                 oracle=oracle)
    assert str(err.value) == ("more than 60 candidate sets; "
                              "raise max_candidates to proceed")
    assert oracle.queries <= 61


def test_guard_refuses_a_long_path_without_deep_recursion():
    X = tree_complex(edges_to_tree(2000, [(i, i + 1) for i in range(1999)]))
    with pytest.raises(GuardExceeded):
        enumerate_valid_families(X, SearchSpace())


def test_unfiltered_search_finds_the_same_pentagon_family():
    X = polygon_complex(5)
    wide = search._materialize(
        X.n_vertices, search._search(X, GF2, every_subset(5)), ())
    assert len(wide) == 1
    assert wide[0].same_family(polygon_family(5))


def test_hexagon_catalogue_is_exactly_the_frozen_list(hexagon_valid_families,
                                                      hexagon_maximal_families):
    assert len(hexagon_valid_families) == 26
    got = sorted(as_sorted_sets(F) for F in hexagon_maximal_families)
    assert got == sorted(sorted(f) for f in HEXAGON_MAXIMAL)
    sizes = sorted(len(F.sets) for F in hexagon_maximal_families)
    assert sizes == [8, 8, 8, 8, 9, 9]


def test_maximal_families_are_valid_and_maximal(hexagon_two_chords,
                                                hexagon_maximal_families):
    X = hexagon_two_chords
    for F in hexagon_maximal_families:
        assert check_family_criteria(X, F).ok
        assert is_maximal(X, F).is_maximal


def test_combined_hexagon_family_extends_by_a_rim_pair(hexagon_two_chords):
    _, L = fixture("hex-squares-combined")
    F = family_of(L)
    rep = is_maximal(hexagon_two_chords, F)
    assert not rep.is_maximal
    assert rep.extension == frozenset({0, 1})


def test_is_maximal_rejects_invalid_families(hexagon_two_chords):
    with pytest.raises(FamilyError):
        is_maximal(hexagon_two_chords, family(6, [{0, 1, 2, 3, 4, 5}]))


def test_is_maximal_reports_decomposable_members():
    # a valid family on the 7-gon with chord (0, 2); its last member is
    # the disjoint union of {1} and {3, 4}
    X = subdivided_polygon(7, ((0, 2),))
    F = family(7, [{1}, {3, 4}, {4, 5}, {5, 6}, {0, 5, 6}, {2, 3, 4},
                   {0, 1, 2, 3}, {0, 1, 2, 6}, {1, 3, 4}])
    assert check_family_criteria(X, F).ok
    assert is_maximal(X, F) == MaximalityReport(
        False, decomposable=frozenset({1, 3, 4}))


def test_pentagon_family_is_maximal():
    X = polygon_complex(5)
    rep = is_maximal(X, polygon_family(5))
    assert rep.is_maximal and rep.extension is None


def _searched(X):
    """Every valid family on X and every valid one-member deletion."""
    def pairs(field):
        out = []
        for F in enumerate_valid_families(X, SP, field):
            out.append((X, F))
            for i in range(len(F.sets)):
                G = family(X.n_vertices, F.sets[:i] + F.sets[i + 1:])
                if check_family_criteria(X, G, field).ok:
                    out.append((X, G))
        return out
    return pairs


def _with_a_union(X):
    """Every valid family on X with the union of two disjoint members
    added, where that family is valid too: its added member decomposes."""
    def pairs(field):
        out = []
        for F in enumerate_valid_families(X, SP, field):
            for s, t in itertools.combinations(F.sets, 2):
                if s & t or s | t in F.sets:
                    continue
                G = family(X.n_vertices, F.sets + (s | t,))
                if check_family_criteria(X, G, field).ok:
                    out.append((X, G))
        return out
    return pairs


def _arc_family(n):
    return lambda field: [(polygon_complex(n), polygon_family(n))]


def _hexagon_combined(field):
    X, L = fixture("hex-squares-combined")
    return [(X, family_of(L))]


# case name -> field -> [(complex, valid family)]
MAXIMALITY_CASES = {
    **{f"{n}-gon-chords-" + "-".join(f"{a}{b}" for a, b in chords):
       _searched(subdivided_polygon(n, chords))
       for n, chords in VARIABLE_COUNT_INSTANCES},
    "pyramid-5-gon": _searched(pyramid(polygon_complex(5))),
    # dimension 4: the cover bound asks the kernel for 3 members
    "pyramid-pyramid-5-gon": _searched(pyramid(pyramid(polygon_complex(5)))),
    "7-gon-chords-02-with-a-union":
        _with_a_union(subdivided_polygon(7, ((0, 2),))),
    "6-gon-chords-15-35-with-a-union":
        _with_a_union(subdivided_polygon(6, ((1, 5), (3, 5)))),
    "11-gon-arcs": _arc_family(11),
    "13-gon-arcs": _arc_family(13),
    "15-gon-arcs": _arc_family(15),
    "hex-squares-combined": _hexagon_combined,
}


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(MAXIMALITY_CASES))
def test_is_maximal_matches_the_reference_scan(case, field):
    pairs = MAXIMALITY_CASES[case](field)
    assert pairs
    for X, F in pairs:
        assert is_maximal(X, F, field) == reference_is_maximal(X, F, field)


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("n,asked", [(11, 68), (13, 93), (15, 122)])
def test_is_maximal_asks_nothing_once_the_criteria_have_run(n, asked, field):
    # duality lets only the arcs of (n - 1)/2 vertices join the n-gon's
    # arc family, and those are its members
    X, F = polygon_complex(n), polygon_family(n)
    oracle = AcyclicityOracle(X, field)
    criteria = check_family_criteria(X, F, field, oracle)
    assert len(oracle.touched()) == asked
    assert is_maximal(X, F, field, oracle, criteria) == MaximalityReport(True)
    assert len(oracle.touched()) == asked


def test_no_mutual_morphism_between_distinct_chord_families():
    A, B = chord_families(6, 3)
    assert not (refines(A, B) and refines(B, A))


def test_existence_search_agrees_with_enumeration():
    # bipyramid_complex(4) is answered by the f-vector on both sides; the
    # engine's own answer there is tested with the non-palindromic corpus
    for X in (polygon_complex(4), polygon_complex(5), polygon_complex(6),
              chord_complex(5, 2), chord_complex(6, 3), bipyramid_complex(4),
              pyramid(polygon_complex(6)),
              subdivided_polygon(6, ((1, 5), (3, 5)))):
        fam = any_valid_family(X, SP)
        fams = enumerate_valid_families(X, SP)
        assert (fam is not None) == bool(fams)
        if fam is not None:
            assert check_family_criteria(X, fam).ok


def test_existence_search_handles_solid_polytopes():
    assert any_valid_family(pyramid(polygon_complex(4)), SP) is None
    assert any_valid_family(bipyramid_complex(3), SP) is None
    fam = any_valid_family(pyramid(polygon_complex(5)), SP)
    assert fam is not None
    assert check_family_criteria(pyramid(polygon_complex(5)), fam).ok
    wide = SearchSpace(max_candidates=300)
    assert any_valid_family(bipyramid_complex(6), wide) is None
    W = wheel_polytope(4)
    fam = any_valid_family(W, wide)
    assert fam is not None and check_family_criteria(W, fam).ok
    E = elongated_pyramid(polygon_complex(4))
    assert len(candidate_masks(wide, AcyclicityOracle(E))) == 241
    assert any_valid_family(E, wide) is None


def test_no_family_on_a_complex_that_is_not_acyclic():
    # a signed 5-cycle with no 2-cell: the complement of the empty union,
    # the whole complex, already fails, over either field
    b = ComplexBuilder(5)
    for i in range(5):
        b.add_cell(1, (i, (i + 1) % 5), (((i + 1) % 5, 1), (i, -1)))
    X = b.build()
    for field in (GF2, RATIONAL):
        assert reduced_homology(X, field).reduced_betti == {1: 1}
        assert enumerate_valid_families(X, SP, field) == []
        assert any_valid_family(X, SP, field) is None


def test_enumeration_on_the_pyramid_over_a_pentagon():
    X = pyramid(polygon_complex(5))
    found = enumerate_valid_families(X, SP)
    assert len(found) == 1
    assert found[0].same_family(any_valid_family(X, SP))
    assert found[0].same_family(pyramid_family(polygon_family(5)))


@pytest.mark.parametrize("n, chords, count, members", [
    (8, ((0, 3),), 2, 9),
    (8, ((0, 2), (0, 4)), 4, 10),
    (10, ((0, 5),), 2, 11),
    (10, ((0, 3), (0, 6)), 6, 12),
], ids=["chords0-2-9", "chords1-4-10", "chords2-2-11", "chords3-6-12"])
def test_octagon_maximal_families_have_n_plus_k_members(n, chords, count,
                                                        members):
    found = enumerate_maximal_families(subdivided_polygon(n, chords), SP)
    assert len(found) == count
    assert [len(F.sets) for F in found] == [members] * count


def fan(n):
    """The n-gon triangulated by the chords from vertex 0."""
    return subdivided_polygon(n, tuple((0, k) for k in range(2, n - 1)))


# case name -> complex; the search's maximal families must equal the
# filtered valid ones
MAXIMAL_FAMILY_CASES = {
    **{f"{n}-gon-chords-" + "-".join(f"{a}{b}" for a, b in chords):
       subdivided_polygon(n, chords)
       for n, chords in VARIABLE_COUNT_INSTANCES},
    **{f"fan-{n}-gon": fan(n) for n in range(5, 9)},
    "12-gon-chords-03-06-09": subdivided_polygon(
        12, ((0, 3), (0, 6), (0, 9))),
    "10-gon-chords-03-06": subdivided_polygon(10, ((0, 3), (0, 6))),
    "11-gon-chords-03-37": subdivided_polygon(11, ((0, 3), (3, 7))),
    "pyramid-5-gon": pyramid(polygon_complex(5)),
}


def chord_symmetries(X):
    """The chord reflections that are automorphisms of X."""
    found = []
    for a in range(X.n_vertices):
        perms = chord_symmetry(X.n_vertices, a)
        try:
            search._check_automorphism(X, perms[1])
        except FamilyError:
            continue
        found.append(perms)
    return found


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(MAXIMAL_FAMILY_CASES))
def test_maximal_families_match_the_filtered_valid_ones(case, field):
    X = MAXIMAL_FAMILY_CASES[case]
    symmetries = chord_symmetries(X)
    assert bool(symmetries) == (case not in ("10-gon-chords-03-06",
                                             "11-gon-chords-03-37"))
    spaces = [SP] + [SearchSpace(symmetry=perms, max_candidates=200)
                     for perms in symmetries[:1]]
    for space in spaces:
        got = enumerate_maximal_families(X, space, field)
        assert got == reference_maximal_families(X, space, field)


@st.composite
def chords_of(draw, n):
    """A set of pairwise non-crossing chords of the n-gon."""
    diagonals = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if v - u not in (1, n - 1)]
    chords = []
    if diagonals:  # the triangle has none
        for u, v in draw(st.lists(st.sampled_from(diagonals), unique=True,
                                  max_size=n - 3)):
            if not any(a < u < b < v or u < a < v < b for a, b in chords):
                chords.append((u, v))
    return tuple(chords)


@st.composite
def polygons_with_chords(draw):
    """An n-gon, 4 <= n <= 8, and a set of pairwise non-crossing chords."""
    n = draw(st.integers(4, 8))
    return n, draw(chords_of(n))


@settings(max_examples=40, deadline=None)
@given(polygons_with_chords())
def test_maximal_families_match_the_filter_on_random_polygons(polygon):
    X = subdivided_polygon(*polygon)
    for field in (GF2, RATIONAL):
        assert (enumerate_maximal_families(X, SP, field)
                == reference_maximal_families(X, SP, field))


# case name -> complex; over every vertex subset as candidates, some valid
# families have a member that is a disjoint union of others
EVERY_SUBSET_CASES = {
    "path-3": tree_complex(edges_to_tree(3, [(0, 1), (1, 2)])),
    "path-4": tree_complex(edges_to_tree(4, [(0, 1), (1, 2), (2, 3)])),
    "star-4": tree_complex(edges_to_tree(4, [(0, 1), (0, 2), (0, 3)])),
    "chord-5-2": chord_complex(5, 2),
}


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(EVERY_SUBSET_CASES))
def test_maximal_search_over_every_subset_matches_the_reference_scan(
        case, field):
    X = EVERY_SUBSET_CASES[case]
    cands = every_subset(X.n_vertices)
    want = [family_key(masks) for masks in search._search(X, field, cands)
            if reference_is_maximal(X, family(X.n_vertices, map(set_of, masks)),
                                    field).is_maximal]
    got = [family_key(masks)
           for masks in search._search(X, field, cands, maximal=True)]
    assert want and sorted(got) == sorted(want)


def test_maximal_families_come_without_the_maximality_filter(
        hexagon_two_chords, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search must not call this")
    monkeypatch.setattr(search, "is_maximal", refuse)
    monkeypatch.setattr(search, "check_family_criteria", refuse)
    found = enumerate_maximal_families(hexagon_two_chords, SP)
    assert sorted(as_sorted_sets(F) for F in found) == sorted(
        sorted(f) for f in HEXAGON_MAXIMAL)


@pytest.mark.parametrize("n", range(5, 10))
def test_fan_triangulations_have_two_to_the_n_minus_3_maximal_families(n):
    assert len(enumerate_maximal_families(fan(n), SP)) == 2 ** (n - 3)


def test_valid_and_existence_searches_make_the_same_oracle_calls(
        hexagon_two_chords):
    # with the maximal switch off both searches make exactly these calls;
    # the misses are those of the search before it carried an excluded set
    # or kept candidate bitsets, the queries only the ones those bitsets
    # leave to ask (1,104 and 506 before them)
    X = hexagon_two_chords
    oracle = CountingOracle(X)
    assert len(enumerate_valid_families(X, SP, GF2, oracle)) == 26
    assert (oracle.queries, oracle.misses) == (703, 62)
    oracle = CountingOracle(X)
    assert any_valid_family(X, SP, GF2, oracle) is not None
    assert (oracle.queries, oracle.misses) == (474, 59)


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("X,calls", [
    (bipyramid_complex(5), (7483, 128)),
    (pyramid(polygon_complex(8)), (4734, 387)),
], ids=["bipyramid-5", "pyramid-8-gon"])
def test_existence_search_asks_the_oracle_a_fixed_set_of_questions(X, calls,
                                                                   field):
    # the (queries, misses) of the candidate walk and then the engine, as
    # measured once the engine kept candidate bitsets; a faster engine must
    # ask exactly these questions and miss on these masks
    oracle = CountingOracle(X, field)
    cands = candidate_masks(SP, oracle)
    assert next(search._search(X, field, cands, oracle), None) is None
    assert (oracle.queries, oracle.misses) == calls


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
def test_existence_on_an_asymmetric_bipyramid_asks_only_the_candidate_walk(
        field):
    X = bipyramid_complex(5)
    walk = CountingOracle(X, field)
    candidate_masks(SP, walk)
    oracle = CountingOracle(X, field)
    assert any_valid_family(X, SP, field, oracle) is None
    assert (oracle.queries, oracle.misses) == (walk.queries, walk.misses)
    assert (oracle.queries, oracle.misses) == (116, 116)


def prism(n):
    """The prism over the n-gon: rings 0..n-1 and n..2n-1, rung i to n+i."""
    ring = [(i, (i + 1) % n) for i in range(n)]
    edges = ring + [(n + u, n + v) for u, v in ring]
    edges += [(i, n + i) for i in range(n)]
    cycles = [tuple(range(n)), tuple(range(n, 2 * n))]
    cycles += [(u, v, n + v, n + u) for u, v in ring]
    return _polytope(2 * n, edges, cycles)


@pytest.mark.parametrize("n", range(3, 7))
def test_prisms_are_polytopes_with_the_prism_f_vector(n):
    X = prism(n)
    assert validate_complex(X) == []
    assert is_polytope_complex(X)
    assert X.f_vector() == (2 * n, 3 * n, n + 2, 1)


# one top cell each; the f-vectors (n + 2, 3n, 2n, 1) and (2n, 3n, n + 2, 1)
# are not palindromic for n >= 3
NON_PALINDROMIC_CASES = {
    **{f"bipyramid-{n}": (lambda n=n: bipyramid_complex(n))
       for n in range(3, 8)},
    **{f"prism-{n}-gon": (lambda n=n: prism(n)) for n in range(3, 7)},
}

# one top cell each, with a palindromic f-vector
PALINDROMIC_CASES = {
    **{f"pyramid-{n}-gon": (lambda n=n: pyramid(polygon_complex(n)))
       for n in range(4, 9)},
    "wheel-4": lambda: wheel_polytope(4),
    **{f"elongated-{n}-gon-pyramid":
       (lambda n=n: elongated_pyramid(polygon_complex(n))) for n in (3, 4)},
}

# the sixth prism has 633 candidates
WIDE = SearchSpace(max_candidates=1000)


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(NON_PALINDROMIC_CASES))
def test_engine_finds_no_family_where_the_f_vector_excludes_one(case, field):
    X = NON_PALINDROMIC_CASES[case]()
    assert len(X.cells_of_dim(X.dim)) == 1 and not f_symmetry(X)
    oracle = AcyclicityOracle(X, field)
    assert search._candidates(WIDE, oracle) == ()
    cands = candidate_masks(WIDE, oracle)
    assert next(search._search(X, field, cands, oracle), None) is None
    assert any_valid_family(X, WIDE, field) is None
    assert enumerate_valid_families(X, WIDE, field) == []
    assert enumerate_maximal_families(X, WIDE, field) == []


# (queries, misses) of the candidate walk and then the engine over the
# candidates that duality allows, over either field; the walk and the
# engine over every candidate asked (318, 31), (599, 63), (1560, 114),
# (2159, 216), (4734, 387), (48347, 494), (2546, 116) and (54178, 502)
DUAL_EXISTENCE_CALLS = {
    "pyramid-4-gon": (31, 30),
    "pyramid-5-gon": (107, 54),
    "pyramid-6-gon": (97, 96),
    "pyramid-7-gon": (305, 172),
    "pyramid-8-gon": (315, 314),
    "wheel-4": (687, 346),
    "elongated-3-gon-pyramid": (190, 97),
    "elongated-4-gon-pyramid": (352, 343),
}


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(PALINDROMIC_CASES))
def test_existence_reaches_the_engine_on_palindromic_f_vectors(case, field):
    X = PALINDROMIC_CASES[case]()
    assert len(X.cells_of_dim(X.dim)) == 1 and f_symmetry(X)
    engine = CountingOracle(X, field)
    cands = candidate_masks(WIDE, engine)
    want = next(search._search(X, field, cands, engine), None)
    oracle = CountingOracle(X, field)
    got = any_valid_family(X, WIDE, field, oracle)
    assert (got is None) == (want is None)
    if got is not None:
        assert check_family_criteria(X, got, field).ok
    # the walk, then the engine over the kept candidates only
    walked = CountingOracle(X, field)
    kept = search._candidates(WIDE, walked)
    assert kept
    next(search._search(X, field, kept, walked), None)
    assert (oracle.queries, oracle.misses) == (walked.queries, walked.misses)
    assert (oracle.queries, oracle.misses) == DUAL_EXISTENCE_CALLS[case]


def test_the_guard_and_the_symmetry_check_come_before_the_f_vector():
    # the bipyramid over the pentagon has 105 candidates, past the default
    # limit of 60, and the f-vector excludes a family; the pyramid over the
    # 8-gon has 115, and duality keeps one of them
    for X, space, excluded in (
            (bipyramid_complex(5), SearchSpace(), True),
            (pyramid(polygon_complex(8)), SearchSpace(max_candidates=100),
             False)):
        kept = search._candidates(WIDE, AcyclicityOracle(X))
        assert (kept == ()) == excluded
        n = X.n_vertices
        with pytest.raises(GuardExceeded):
            any_valid_family(X, space)
        for enumerate_families in (enumerate_valid_families,
                                   enumerate_maximal_families):
            with pytest.raises(GuardExceeded):
                enumerate_families(X, space)
            # swapping ring neighbours 0 and 1 sends the edge from the last
            # ring vertex to 0 onto a non-edge
            swap = (1, 0, *range(2, n))
            with pytest.raises(FamilyError, match="does not preserve"):
                enumerate_families(X, SearchSpace(symmetry=(swap,),
                                                  max_candidates=200))
            with pytest.raises(FamilyError, match="is not a permutation"):
                enumerate_families(X, SearchSpace(symmetry=((0,) * n,),
                                                  max_candidates=200))


def meets_as_many_cells_as_it_misses(X, T) -> bool:
    """For each i, the vertex set T meets as many i-cells of X as it misses
    (d-1-i)-cells, d the dimension of X, counted cell by cell."""
    d = X.dim
    meet = [sum(1 for c in X.cells_of_dim(i) if T & c.vertices)
            for i in range(d)]
    return all(meet[i] == len(X.cells_of_dim(d - 1 - i)) - meet[d - 1 - i]
               for i in range(d))


# one top cell each, and some valid family
DUALITY_CASES = {
    "wheel-4": lambda: wheel_polytope(4),
    **{f"pyramid-{n}-gon": (lambda n=n: pyramid(polygon_complex(n)))
       for n in (3, 5, 7)},
    "elongated-3-gon-pyramid": lambda: elongated_pyramid(polygon_complex(3)),
}


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(DUALITY_CASES))
def test_every_member_of_a_valid_family_meets_as_many_cells_as_it_misses(
        case, field):
    X = DUALITY_CASES[case]()
    assert len(X.cells_of_dim(X.dim)) == 1
    oracle = AcyclicityOracle(X, field)
    cands = candidate_masks(WIDE, oracle)
    families = list(search._search(X, field, cands, oracle))
    assert families
    for masks in families:
        for m in masks:
            assert meets_as_many_cells_as_it_misses(X, set_of(m)), masks


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("name", ["elongated-pyramid-triangle",
                                  "wheel-bipyramid-a", "wheel-bipyramid-b",
                                  "wheel-hexagon"])
def test_the_one_top_cell_fixture_families_meet_as_many_cells_as_they_miss(
        name, field):
    X, L = fixture(name)
    F = family_of(L)
    assert len(X.cells_of_dim(X.dim)) == 1
    assert check_family_criteria(X, F, field).ok
    for T in F.sets:
        assert meets_as_many_cells_as_it_misses(X, T), sorted(T)


FILTER_CASES = {
    **PALINDROMIC_CASES,
    **{f"{n}-gon": (lambda n=n: polygon_complex(n)) for n in range(3, 10)},
    "pyramid-pyramid-pentagon": lambda: pyramid(pyramid(polygon_complex(5))),
    # several top cells: every candidate is kept
    "hexagon-chords-15-35": lambda: subdivided_polygon(6, ((1, 5), (3, 5))),
    "pyramid-fan-6-gon": lambda: pyramid(fan(6)),
}


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(FILTER_CASES))
def test_the_candidates_duality_allows_hold_the_same_families(case, field):
    X = FILTER_CASES[case]()
    oracle = AcyclicityOracle(X, field)
    cands = candidate_masks(WIDE, oracle)
    kept = search._candidates(WIDE, oracle)
    if len(X.cells_of_dim(X.dim)) == 1:
        assert kept == tuple(m for m in cands if
                             meets_as_many_cells_as_it_misses(X, set_of(m)))
        assert len(kept) < len(cands)
    else:
        assert kept == cands
    for maximal in (False, True):
        want = sorted(family_key(masks) for masks in
                      search._search(X, field, cands, oracle, maximal))
        got = sorted(family_key(masks) for masks in
                     search._search(X, field, kept, oracle, maximal))
        assert got == want


@st.composite
def one_top_cell_complexes(draw):
    """A complex with one top cell and the family its construction gives,
    or None: a 3- to 11-gon, the pyramid over one or the pyramid over that
    pyramid, an elongated pyramid over a 3- to 5-gon, `wheel_polytope(3..5)`
    or `bipyramid_complex(3..6)`.  No complex drawn has more than 11
    vertices, since the reference maximality test tries every vertex mask."""
    kind = draw(st.sampled_from(["cone", "elongated", "wheel", "bipyramid"]))
    if kind == "cone":
        apexes = draw(st.integers(0, 2))
        n = draw(st.integers(3, 11 - apexes))
        X, F = polygon_complex(n), polygon_family(n) if n % 2 else None
        for _ in range(apexes):
            X, F = pyramid(X), F and pyramid_family(F)
        return X, F
    if kind == "elongated":
        n = draw(st.integers(3, 5))
        return (elongated_pyramid(polygon_complex(n)),
                ep_family(polygon_family(n)) if n % 2 else None)
    if kind == "wheel":
        n = draw(st.integers(3, 5))
        return wheel_polytope(n), wheel_family() if n == 4 else None
    return bipyramid_complex(draw(st.integers(3, 6))), None


def maximality_or_refusal(check, X, F, field):
    try:
        return check(X, F, field)
    except FamilyError:
        return "refused"


@settings(max_examples=40, deadline=None)
@given(one_top_cell_complexes(), st.sampled_from([GF2, RATIONAL]))
def test_duality_keeps_every_answer_on_one_top_cell(drawn, field):
    # the pyramid over the pyramid over the 9-gon has 1,171 candidates
    X, built = drawn
    space = SearchSpace(max_candidates=2000)
    oracle = AcyclicityOracle(X, field)
    cands = candidate_masks(space, oracle)
    found = any_valid_family(X, space, field)
    assert (found is None) == (
        next(search._search(X, field, cands, oracle), None) is None)
    families = []
    for F in (built, found):
        if F is not None:
            families += [F, *(family(F.n, F.sets[:i] + F.sets[i + 1:])
                              for i in range(len(F.sets)))]
    if X.n_vertices <= 9:
        valid, maximal = (search._materialize(X.n_vertices, search._search(
            X, field, cands, oracle, flag), ()) for flag in (False, True))
        assert enumerate_valid_families(X, space, field) == valid
        assert enumerate_maximal_families(X, space, field) == maximal
        families += valid
    for F in families:
        assert (maximality_or_refusal(is_maximal, X, F, field)
                == maximality_or_refusal(reference_is_maximal, X, F, field))


def duality_walk(X, cut):
    """The (mask, reach) pairs of the connected-set walk on X, cut where
    duality's counts overflow or not, and the duality test."""
    oracle = AcyclicityOracle(X)
    dual, within = search._duality_test(oracle)
    return list(search._connected_masks(oracle._adj, oracle._star,
                                        within if cut else None)), dual


@settings(max_examples=60, deadline=None)
@given(one_top_cell_complexes())
def test_the_cut_walk_yields_every_set_duality_passes(drawn):
    X, _ = drawn
    walked, dual = duality_walk(X, cut=True)
    every, _ = duality_walk(X, cut=False)
    assert set(walked) <= set(every) and len(walked) == len(set(walked))
    passing = sorted(m for m, reach in walked if dual(reach))
    assert passing == sorted(m for m, reach in every if dual(reach))
    if not f_symmetry(X):
        assert passing == []


def test_the_cut_walk_stops_where_duality_counts_overflow(monkeypatch):
    # 1,160 and 32,979 connected sets without the cut; the wheel admits no
    # family to ask is_maximal about, so its walk is counted directly
    assert len(duality_walk(wheel_polytope(5), cut=True)[0]) == 86
    counts = []
    walk = search._connected_masks

    def counted(*args):
        counts.append(0)
        for item in walk(*args):
            counts[-1] += 1
            yield item
    monkeypatch.setattr(search, "_connected_masks", counted)
    X, F = pyramid(polygon_complex(15)), pyramid_family(polygon_family(15))
    assert is_maximal(X, F) == MaximalityReport(True)
    assert counts == [106]


PARITY_LADDERS = {
    "wheel": (wheel_polytope, range(3, 9), 0),
    "elongated-pyramid": (lambda n: elongated_pyramid(polygon_complex(n)),
                          range(3, 9), 1),
    "pyramid": (lambda n: pyramid(polygon_complex(n)), range(3, 15), 1),
}


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("ladder", sorted(PARITY_LADDERS))
def test_one_top_cell_ladders_admit_a_family_by_parity(ladder, field):
    # the guard counts every candidate before duality: the elongated
    # pyramid over the 8-gon has 9,441
    make, sizes, parity = PARITY_LADDERS[ladder]
    space = SearchSpace(max_candidates=10_000)
    for n in sizes:
        X = make(n)
        F = any_valid_family(X, space, field)
        assert (F is not None) == (n % 2 == parity), n
        if F is not None:
            assert check_family_criteria(X, F, field).ok
            assert list(F.sets) == sorted(F.sets, key=member_key)


BITSET_FILTER_CASES = {
    "bipyramid-4": lambda: bipyramid_complex(4),
    "bipyramid-5": lambda: bipyramid_complex(5),
    **{f"pyramid-{n}-gon": (lambda n=n: pyramid(polygon_complex(n)))
       for n in range(5, 9)},
    "elongated-triangle-pyramid":
        lambda: elongated_pyramid(polygon_complex(3)),
    "hexagon-chords-15-35":
        lambda: subdivided_polygon(6, ((1, 5), (3, 5))),
    "wheel-4": lambda: wheel_polytope(4),
    "bipyramid-6": lambda: bipyramid_complex(6),
    "fan-7-gon": lambda: fan(7),
    "pyramid-fan-6-gon": lambda: pyramid(fan(6)),
}


@pytest.mark.parametrize("maximal", [False, True], ids=["valid", "maximal"])
@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(BITSET_FILTER_CASES))
def test_bitset_filter_matches_the_per_candidate_filter(case, field, maximal):
    X = BITSET_FILTER_CASES[case]()
    # the wheel has 233 candidates
    cands = candidate_masks(SearchSpace(max_candidates=300),
                            AcyclicityOracle(X, field))
    got_oracle = AcyclicityOracle(X, field)
    want_oracle = AcyclicityOracle(X, field)
    got = list(search._search(X, field, cands, got_oracle, maximal))
    want = list(reference_family_search(X, field, cands, want_oracle,
                                        maximal))
    assert got == want
    # the same restrictions reach the oracle, so it misses on the same ones
    assert got_oracle.touched() == want_oracle.touched()


def assert_same_walk(X, field, maximal):
    """The loop engine and the recursive one yield the same families in the
    same order, and ask the oracle about the same restrictions."""
    cands = candidate_masks(SearchSpace(max_candidates=300),
                            AcyclicityOracle(X, field))
    got_oracle = AcyclicityOracle(X, field)
    want_oracle = AcyclicityOracle(X, field)
    got = list(search._search(X, field, cands, got_oracle, maximal))
    want = list(reference_recursive_search(X, field, cands, want_oracle,
                                           maximal))
    assert got == want
    assert got_oracle.touched() == want_oracle.touched()


LOOP_ENGINE_CASES = {
    **{f"fan-{n}-gon": (lambda n=n: fan(n)) for n in range(5, 10)},
    "zigzag-8-gon": lambda: subdivided_polygon(
        8, ((1, 7), (2, 7), (2, 6), (3, 6), (3, 5))),
    "hexagon-chords-15-35":
        lambda: subdivided_polygon(6, ((1, 5), (3, 5))),
    "twelve-gon-chords-03-06-09":
        lambda: subdivided_polygon(12, ((0, 3), (0, 6), (0, 9))),
    **{f"pyramid-{n}-gon": (lambda n=n: pyramid(polygon_complex(n)))
       for n in range(4, 8)},
    "pyramid-fan-6-gon": lambda: pyramid(fan(6)),
    **{f"bipyramid-{n}": (lambda n=n: bipyramid_complex(n))
       for n in range(3, 6)},
    "wheel-4": lambda: wheel_polytope(4),
    "elongated-triangle-pyramid":
        lambda: elongated_pyramid(polygon_complex(3)),
}


@pytest.mark.parametrize("maximal", [False, True], ids=["valid", "maximal"])
@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(LOOP_ENGINE_CASES))
def test_loop_engine_matches_the_recursive_engine(case, field, maximal):
    assert_same_walk(LOOP_ENGINE_CASES[case](), field, maximal)


@st.composite
def search_complexes(draw):
    """A chorded 5- to 9-gon, the pyramid over a chorded 5- to 7-gon, or a
    tree on 2 to 10 vertices.  Pyramids stop at 7-gons: over a
    triangulated 9-gon each engine takes about a minute."""
    kind = draw(st.sampled_from(["polygon", "pyramid", "tree"]))
    if kind == "tree":
        n = draw(st.integers(2, 10))
        return tree_complex(edges_to_tree(
            n, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]))
    n = draw(st.integers(5, 9 if kind == "polygon" else 7))
    X = subdivided_polygon(n, draw(chords_of(n)))
    return pyramid(X) if kind == "pyramid" else X


@settings(max_examples=30, deadline=None)
@given(search_complexes())
def test_loop_engine_matches_the_recursive_engine_on_random_complexes(X):
    for field in (GF2, RATIONAL):
        for maximal in (False, True):
            assert_same_walk(X, field, maximal)


# a fresh process searches the 60-vertex path under a recursion limit of
# 100, then prints the size and verdict of the family it found
DEEP_PATH_PROBE = """\
import sys
from cellres.constructions import edges_to_tree, tree_complex
from cellres.resolution import check_family_criteria
from cellres.search import SearchSpace, any_valid_family
X = tree_complex(edges_to_tree(60, [(i, i + 1) for i in range(59)]))
sys.setrecursionlimit(100)
F = any_valid_family(X, SearchSpace(max_candidates=200))
sys.setrecursionlimit(1000)
print(len(F.sets), check_family_criteria(X, F).ok)
"""


def test_family_size_is_not_bounded_by_the_recursion_limit():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", DEEP_PATH_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["118", "True"]


def test_covering_property_of_maximal_families(hexagon_two_chords,
                                               hexagon_maximal_families):
    X = polygon_complex(5)
    rep = covering_property_check(X, polygon_family(5))
    assert rep.ok
    assert rep.single_vertex_cover
    # the pentagon disk is a polytope, so the disjoint-pair half runs too
    assert rep.disjoint_pair_cover is True
    for F in hexagon_maximal_families:
        assert covering_property_check(hexagon_two_chords, F).ok


def test_covering_property_matches_the_ordered_scans(
        hexagon_two_chords, hexagon_maximal_families):
    assert len(hexagon_maximal_families) == 6
    for F in hexagon_maximal_families:
        assert (covering_property_check(hexagon_two_chords, F)
                == reference_covering_property_check(hexagon_two_chords, F))


def test_covering_property_requires_maximality(hexagon_two_chords):
    _, L = fixture("hex-squares-combined")
    with pytest.raises(FamilyError):
        covering_property_check(hexagon_two_chords, family_of(L))


def test_covering_property_on_three_dimensional_polytopes():
    W = wheel_polytope(4)
    assert covering_property_check(W, wheel_family()).ok
    E = elongated_pyramid(polygon_complex(5))
    assert covering_property_check(E, ep_family(polygon_family(5))).ok


def test_variable_count_report_flags_the_hexagon():
    rep = variable_count_report()
    assert rep.kind == "variable-count"
    assert not rep.holds
    by_instance = {(row["n"], tuple(tuple(c) for c in row["chords"])): row
                   for row in rep.rows}
    assert len(by_instance) == len(VARIABLE_COUNT_INSTANCES)
    pentagon = by_instance[5, ((0, 2),)]
    assert pentagon["ok"]
    assert pentagon["family_sizes"] == [6, 6]
    hexagon = by_instance[6, ((1, 5), (3, 5))]
    assert not hexagon["ok"]
    assert hexagon["family_sizes"] == [9, 9, 8, 8, 8, 8]
    assert len(rep.counterexamples) == 2
    for ce in rep.counterexamples:
        assert ce["members"] == 9 and ce["expected"] == 8


def test_selfdual_report_holds_on_the_corpus():
    rep = selfdual_report()
    assert rep.kind == "selfdual"
    assert rep.holds and not rep.counterexamples
    names = {row["name"] for row in rep.rows}
    assert {"pyramid-5-gon", "bipyramid-3-gon", "wheel-4"} <= names
    for row in rep.rows:
        if row["admits_valid_family"] and row["polytope"]:
            assert row["symmetric"]
    methods = {row["method"] for row in rep.rows}
    assert methods == {"witness-family", "existence-search"}


def test_selfdual_report_flags_asymmetric_polytopes(monkeypatch):
    monkeypatch.setattr(search, "f_symmetry", lambda X: False)
    rep = selfdual_report()
    assert not rep.holds
    flagged = [row for row in rep.rows
               if row["admits_valid_family"] and row["polytope"]]
    assert flagged and list(rep.counterexamples) == flagged
    assert not any(row["symmetric"] for row in rep.rows)


def test_selfdual_report_skips_searches_past_the_guard():
    rep = selfdual_report(max_candidates=3)
    skipped = {row["name"] for row in rep.rows
               if row["method"] == "skipped-guard"}
    assert skipped == {"pyramid-4-gon", "pyramid-6-gon", "bipyramid-3-gon",
                       "bipyramid-4-gon"}
    for row in rep.rows:
        assert (row["admits_valid_family"] is None) == (row["name"] in skipped)
    assert rep.holds
