"""Family enumeration, maximality, covering checks, conjecture harnesses."""

import os
import random

import pytest

import cellres.search as search
from cellres.complexes import reduced_homology, restrict
from cellres.constructions import (
    bipyramid_complex,
    chord_complex,
    chord_families,
    elongated_pyramid,
    ep_family,
    fixture,
    polygon_complex,
    polygon_family,
    pyramid,
    pyramid_family,
    subdivided_polygon,
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
    any_valid_family,
    chord_symmetry,
    conjecture_harness,
    connected_vertex_subsets,
    covering_property_check,
    dihedral_group,
    enumerate_maximal_families,
    enumerate_valid_families,
    is_maximal,
    selfdual_report,
    variable_count_report,
)
from reference_search import from_scratch_search, reference_search

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


def every_subset(n):
    """Every nonempty vertex subset, as an explicit candidate list."""
    return tuple(set_of(m) for m in range(1, 1 << n))


def test_connected_vertex_subsets_of_a_path():
    from cellres.constructions import edges_to_tree, tree_complex
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
    cands = [set_of(m) for m in connected_vertex_subsets(X)]
    rng = random.Random(7)
    rng.shuffle(cands)
    shuffled = enumerate_valid_families(
        X, SearchSpace(candidates=tuple(cands), max_candidates=200))
    assert [as_sorted_sets(F) for F in base] == [as_sorted_sets(F) for F in shuffled]


def test_enumeration_is_independent_of_pruning_and_jobs():
    X = chord_complex(5, 2)
    base = enumerate_valid_families(X, SP)
    cands = search._candidate_masks(X, SP, AcyclicityOracle(X))
    unpruned = search._materialize(
        X.n_vertices, from_scratch_search(X, GF2, cands), ())
    parallel = enumerate_valid_families(X, SP, jobs=2)
    key = lambda fams: [as_sorted_sets(F) for F in fams]
    assert key(base) == key(unpruned) == key(parallel)


def _pyramid_over_pentagon_space():
    """The first 20 default candidates on the pyramid over a pentagon, plus
    the members of a valid family, so that the list has a solution and the
    reference walk stays quick."""
    X = pyramid(polygon_complex(5))
    masks = search._candidate_masks(X, SP, AcyclicityOracle(X))
    sets = {set_of(m) for m in masks[:20]}
    sets |= set(any_valid_family(X, SP).sets)
    return X, SearchSpace(candidates=tuple(sets), max_candidates=200)


DIFFERENTIAL_CASES = {
    "pyramid-4-gon": lambda: (pyramid(polygon_complex(4)), SP),
    "bipyramid-3-gon": lambda: (bipyramid_complex(3), SP),
    "pyramid-5-gon-short-list": _pyramid_over_pentagon_space,
    "chord-6-3": lambda: (chord_complex(6, 3), SP),
    "hexagon-two-chords": lambda: (subdivided_polygon(6, ((1, 5), (3, 5))),
                                   SP),
    "chord-5-2-unfiltered": lambda: (
        chord_complex(5, 2),
        SearchSpace(candidates=every_subset(5), max_candidates=200)),
}


@pytest.mark.parametrize("field", [GF2, RATIONAL], ids=["gf2", "rational"])
@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_forward_checking_matches_the_reference_walk(case, field):
    X, space = DIFFERENTIAL_CASES[case]()
    cands = search._candidate_masks(X, space, AcyclicityOracle(X, field))
    got = search._search(X, field, cands)
    assert got == reference_search(X, field, cands)


def test_worker_count_is_clamped_before_forking(monkeypatch):
    sizes = []

    class PoolRecorder:
        """Stands in for ProcessPoolExecutor: records the requested worker
        count and maps in this process, so no worker is ever started."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(search, "ProcessPoolExecutor", PoolRecorder)
    X = chord_complex(5, 2)
    key = lambda fams: [as_sorted_sets(F) for F in fams]
    base = key(enumerate_valid_families(X, SP))
    assert key(enumerate_valid_families(X, SP, jobs=10 ** 6)) == base
    cpus = os.cpu_count() or 1
    assert len(sizes) == (1 if cpus > 1 else 0)
    assert all(w <= cpus for w in sizes)

    # with a known core count the clamp is exact, and a short candidate
    # list caps the pool at one worker per candidate
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    sizes.clear()
    assert key(enumerate_valid_families(X, SP, jobs=10 ** 6)) == base
    pair = SearchSpace(candidates=({0, 1}, {2, 3}), max_candidates=200)
    enumerate_valid_families(X, pair, jobs=10 ** 6)
    assert sizes == [3, 2]

    # zero or negative job counts run serially
    sizes.clear()
    for jobs in (0, -4, 1):
        assert key(enumerate_valid_families(X, SP, jobs=jobs)) == base
    assert sizes == []


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


def test_candidate_validation():
    X = polygon_complex(5)
    with pytest.raises(FamilyError):
        enumerate_valid_families(
            X, SearchSpace(candidates=(frozenset({9}),), max_candidates=10))


def test_unfiltered_search_finds_the_same_pentagon_family():
    X = polygon_complex(5)
    wide = enumerate_valid_families(
        X, SearchSpace(candidates=every_subset(5), max_candidates=40))
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


def test_no_mutual_morphism_between_distinct_chord_families():
    A, B = chord_families(6, 3)
    assert not (morphism_exists(A, B) and morphism_exists(B, A))


def test_existence_search_agrees_with_enumeration():
    for X in (polygon_complex(4), polygon_complex(5), polygon_complex(6),
              chord_complex(5, 2), chord_complex(6, 3)):
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


def test_enumeration_on_the_pyramid_over_a_pentagon():
    X = pyramid(polygon_complex(5))
    found = enumerate_valid_families(X, SP)
    assert len(found) == 1
    assert found[0].same_family(any_valid_family(X, SP))
    assert found[0].same_family(pyramid_family(polygon_family(5)))


@pytest.mark.parametrize("chords, count, members", [
    (((0, 3),), 2, 9),
    (((0, 2), (0, 4)), 4, 10),
])
def test_octagon_maximal_families_have_n_plus_k_members(chords, count,
                                                        members):
    found = enumerate_maximal_families(subdivided_polygon(8, chords), SP)
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


def test_conjecture_harness_dispatch():
    with pytest.raises(ValueError):
        conjecture_harness("no-such-conjecture")
    rep = conjecture_harness("selfdual")
    assert rep.kind == "selfdual"
