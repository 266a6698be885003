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
from cellres.complexes import (ComplexBuilder, reduced_homology, restrict,
                               vertex_adjacency)
from cellres.constructions import (
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
    refines,
    set_of,
)
from cellres.resolution import AcyclicityOracle, check_family_criteria
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
    return search._candidate_masks(SP, AcyclicityOracle(X, field))


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


def test_no_mutual_morphism_between_distinct_chord_families():
    A, B = chord_families(6, 3)
    assert not (refines(A, B) and refines(B, A))


def test_existence_search_agrees_with_enumeration():
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
    assert len(search._candidate_masks(wide, AcyclicityOracle(E))) == 241
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
    # the (queries, misses) of the search that kept candidate bitsets; a
    # faster engine must ask exactly these questions and miss on these masks
    oracle = CountingOracle(X, field)
    assert any_valid_family(X, SP, field, oracle) is None
    assert (oracle.queries, oracle.misses) == calls


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
    cands = search._candidate_masks(SearchSpace(max_candidates=300),
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
    cands = search._candidate_masks(SearchSpace(max_candidates=300),
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
