"""Family enumeration, maximality, covering checks, conjecture harnesses."""

import random

import pytest

import cellres.search as search
from cellres.complexes import ComplexBuilder, reduced_homology, restrict
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
    family,
    family_of,
    morphism_exists,
    set_of,
)
from cellres.resolution import AcyclicityOracle, check_family_criteria
from cellres.search import (
    GuardExceeded,
    SearchSpace,
    VARIABLE_COUNT_INSTANCES,
    any_valid_family,
    chord_symmetry,
    connected_vertex_subsets,
    covering_property_check,
    dihedral_group,
    enumerate_maximal_families,
    enumerate_valid_families,
    is_maximal,
    selfdual_report,
    variable_count_report,
)
from reference_search import (
    from_scratch_search,
    reference_connected_vertex_subsets,
    reference_is_maximal,
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
    return tuple(sorted(range(1, 1 << n), key=search._mask_sort_key))


def default_candidates(X, field=GF2):
    return search._candidate_masks(X, SP, AcyclicityOracle(X, field))


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
    grown = list(search._connected_masks(X))
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
    return X, tuple(sorted(masks, key=search._mask_sort_key))


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


def test_dihedral_group_size():
    assert len(dihedral_group(5)) == 10
    assert len({p for p in dihedral_group(5)}) == 10


def test_guard_refuses_oversized_candidate_sets():
    with pytest.raises(GuardExceeded) as err:
        enumerate_valid_families(polygon_complex(7),
                                 SearchSpace(max_candidates=3))
    assert "max_candidates" in str(err.value)


class CountingOracle(AcyclicityOracle):
    queries = 0

    def is_acyclic(self, mask):
        self.queries += 1
        return super().is_acyclic(mask)


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
    X = polygon_complex(5)
    F = family(5, list(polygon_family(5).sets) + [{0, 1, 2}])
    rep_ok = check_family_criteria(X, F)
    if rep_ok.ok:
        rep = is_maximal(X, F)
        assert not rep.is_maximal
        assert rep.decomposable is not None


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
    "11-gon-arcs": _arc_family(11),
    "13-gon-arcs": _arc_family(13),
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
    assert not (morphism_exists(A, B) and morphism_exists(B, A))


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
    assert len(search._candidate_masks(E, wide, AcyclicityOracle(E))) == 241
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
    rep = variable_count_report(
        instances=((5, ((0, 2),)), (6, ((1, 5), (3, 5)))))
    assert rep.kind == "variable-count"
    assert not rep.holds
    by_chords = {tuple(tuple(c) for c in row["chords"]): row
                 for row in rep.rows}
    assert by_chords[((0, 2),)]["ok"]
    assert by_chords[((0, 2),)]["family_sizes"] == [6, 6]
    hexagon = by_chords[((1, 5), (3, 5))]
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


def test_selfdual_report_skips_searches_past_the_guard():
    rep = selfdual_report(max_candidates=3)
    skipped = {row["name"] for row in rep.rows
               if row["method"] == "skipped-guard"}
    assert skipped == {"pyramid-4-gon", "pyramid-6-gon", "bipyramid-3-gon",
                       "bipyramid-4-gon"}
    for row in rep.rows:
        assert (row["admits_valid_family"] is None) == (row["name"] in skipped)
    assert rep.holds
