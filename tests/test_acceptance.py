"""Acceptance suite: the finite classifications the package must reproduce.

Every expected value here is an integer or boolean; nothing is tolerance
based.  The final block cross-validates each instance the earlier tests
touched: strand ranks against restriction homology, field independence,
d o d = 0, family-level against labelling-level verdicts, and the covering
property on maximal families.  Module-level registries carry the instances
forward; pytest executes tests in definition order, so the sweep runs last.
"""

import random

import pytest

from cellres.constructions import (
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
    tree_maximal_labelling,
    tree_resolution_trees,
    wheel_family,
    wheel_polytope,
)
from cellres.linalg import GF2, RATIONAL
from cellres.monomials import (
    LabellingError,
    Monomial,
    MonomialLabelling,
    family,
    family_of,
    labelling_of,
    lcm_lattice,
    polarize,
    refines,
)
from cellres.resolution import (
    build_free_complex,
    check_cm_labelling,
    check_family_criteria,
    codimension,
    f_symmetry,
)
from cellres.search import (
    SearchSpace,
    any_valid_family,
    enumerate_maximal_families,
    enumerate_valid_families,
    is_maximal,
    selfdual_report,
    variable_count_report,
)
from cellres.complexes import reduced_homology, restrict
from reference_search import (
    composition_is_zero,
    covering_property_check,
    reference_covering_property_check,
    strand_matches_homology,
)
from reference_trees import all_labelled_trees

SP = SearchSpace(max_candidates=200)

# instances the cross-validation block replays; filled as the tests run
LABELLED = {}   # name -> (complex, labelling)
FAMILIES = {}   # name -> (complex, family), every family touched
MAXIMAL = {}    # name -> (complex, family), the ones verified maximal


def remember_labelling(name, X, L):
    LABELLED.setdefault(name, (X, L))


def remember_family(name, X, F, maximal):
    FAMILIES.setdefault(name, (X, F))
    if maximal:
        MAXIMAL.setdefault(name, (X, F))
    LABELLED.setdefault(name, (X, labelling_of(F)))


# ---------------------------------------------------------------------------
# trees


def test_every_small_tree_carries_exactly_one_maximal_family(tree_inventory):
    total = 0
    for n in range(2, 9):
        for i, edges in enumerate(tree_inventory[n]):
            T = edges_to_tree(n, edges)
            X = tree_complex(T)
            found = enumerate_maximal_families(X, SP)
            assert len(found) == 1, (n, sorted(edges))
            expected = family_of(tree_maximal_labelling(T))
            assert found[0].same_family(expected), (n, sorted(edges))
            remember_family(f"tree-{n}-{i}", X, found[0], maximal=True)
            total += 1
    assert total == 47


def power_chain_labelling(degree):
    """x^d, x^(d-1)y, ..., y^d as a labelling of degree+1 tree vertices."""
    rows = tuple(Monomial((degree - i, i)) for i in range(degree + 1))
    return MonomialLabelling(2, rows)


def coordinate_product_labelling(n):
    """Generator i is the product of all variables except the i-th."""
    rows = tuple(Monomial(tuple(0 if p == i else 1 for p in range(n)))
                 for i in range(n))
    return MonomialLabelling(n, rows)


def trees_with_cm_verdict(L):
    g = L.n_vertices
    out = set()
    for edges in all_labelled_trees(g):
        X = tree_complex(edges_to_tree(g, edges))
        if check_cm_labelling(X, L).is_cm:
            out.add(edges)
    return frozenset(out)


def test_power_chain_ideals_resolve_on_exactly_one_path():
    for degree in range(1, 6):
        L = power_chain_labelling(degree)
        passing = trees_with_cm_verdict(L)
        path = frozenset((i, i + 1) for i in range(degree))
        assert passing == tree_resolution_trees(L) == frozenset({path})
        X = tree_complex(edges_to_tree(degree + 1, path))
        remember_labelling(f"powers-{degree}", X, L)


def test_coordinate_product_ideals_resolve_on_every_tree():
    for n in range(3, 6):
        L = coordinate_product_labelling(n)
        passing = trees_with_cm_verdict(L)
        assert passing == tree_resolution_trees(L)
        assert len(passing) == n ** (n - 2)
        path = frozenset((i, i + 1) for i in range(n - 1))
        star = frozenset((0, i) for i in range(1, n))
        for tag, edges in (("path", path), ("star", star)):
            X = tree_complex(edges_to_tree(n, edges))
            remember_labelling(f"products-{n}-{tag}", X, L)


def random_codim2_labellings(count=20, seed=20260816):
    """Seeded antichains in 2-3 variables, kept when codimension is 2 and
    at least one tree carries a Cohen-Macaulay resolution."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nvar = rng.choice([2, 3])
        g = rng.randint(3, 5)
        pts = {tuple(rng.randint(0, 4) for _ in range(nvar)) for _ in range(g)}
        keep = sorted(p for p in pts
                      if not any(q != p and all(a <= b for a, b in zip(q, p))
                                 for q in pts))
        if not 3 <= len(keep) <= 5:
            continue
        try:
            L = MonomialLabelling(nvar, tuple(Monomial(p) for p in keep))
        except (LabellingError, ValueError):
            continue
        if codimension(L) != 2:
            continue
        passing = trees_with_cm_verdict(L)
        if not passing:
            continue
        out.append((L, passing))
    return out


def test_random_codimension_two_ideals_match_the_threshold_rule():
    instances = random_codim2_labellings()
    assert len(instances) == 20
    for k, (L, passing) in enumerate(instances):
        assert passing == tree_resolution_trees(L)
        first = min(sorted(edges) for edges in passing)
        X = tree_complex(edges_to_tree(L.n_vertices, first))
        remember_labelling(f"random-{k}", X, L)


# ---------------------------------------------------------------------------
# polygons and chords


def test_odd_polygons_carry_exactly_the_arc_family():
    for n in (5, 7):
        found = enumerate_valid_families(polygon_complex(n), SP)
        assert len(found) == 1
        assert found[0].same_family(polygon_family(n))
        remember_family(f"polygon-{n}", polygon_complex(n), found[0],
                        maximal=True)
    arcs = {frozenset({i, (i + 1) % 5}) for i in range(5)}
    assert set(polygon_family(5).sets) == arcs
    long_arcs = {frozenset({i, (i + 1) % 7, (i + 2) % 7}) for i in range(7)}
    assert set(polygon_family(7).sets) == long_arcs


def test_even_polygons_carry_no_family():
    assert enumerate_valid_families(polygon_complex(4), SP) == []
    assert enumerate_valid_families(polygon_complex(6), SP) == []


def test_one_chord_disks_carry_exactly_the_two_known_families():
    for n, a in ((5, 2), (6, 2), (6, 3), (7, 2), (7, 3)):
        X = chord_complex(n, a)
        found = enumerate_valid_families(X, SP)
        wanted = chord_families(n, a)
        assert len(found) == 2
        for F in found:
            assert len(F.sets) == n + 1
            assert any(F.same_family(G) for G in wanted)
        for i, F in enumerate(found):
            remember_family(f"chord-{n}-{a}-{i}", X, F, maximal=True)


# ---------------------------------------------------------------------------
# the two-chord hexagon chain


def test_hexagon_fixture_labellings_are_cohen_macaulay():
    for name in ("hex-squares", "hex-squares-polarized",
                 "hex-squares-alternative", "hex-squares-combined"):
        X, L = fixture(name)
        verdict = check_cm_labelling(X, L)
        assert verdict.is_cm and verdict.codimension == 3, name
        remember_labelling(name, X, L)


def test_polarized_hexagon_family_is_not_maximal(hexagon_two_chords):
    _, L = fixture("hex-squares-polarized")
    F = family_of(L)
    rep = is_maximal(hexagon_two_chords, F)
    assert not rep.is_maximal
    assert rep.extension == frozenset({0, 1})
    remember_family("hex-polarized", hexagon_two_chords, F, maximal=False)


def test_combined_hexagon_family_refines_both_splits(hexagon_two_chords):
    _, L = fixture("hex-squares-combined")
    F = family_of(L)
    assert len(F.sets) == 8
    _, P = fixture("hex-squares-polarized")
    _, A = fixture("hex-squares-alternative")
    assert refines(F, family_of(P))
    assert refines(F, family_of(A))
    X, squares = fixture("hex-squares")
    assert polarize(squares) == P
    remember_family("hex-combined", hexagon_two_chords, F, maximal=False)
    remember_family("hex-alternative", hexagon_two_chords, family_of(A),
                    maximal=False)


def test_combined_hexagon_family_is_maximal(hexagon_two_chords,
                                            hexagon_maximal_families):
    # The source classification records the eight-member combined family as
    # maximal; this test is where that claim is checked.  Verdict: the claim
    # is false.  The family stays valid after adjoining {0, 1}, and the
    # enlarged nine-member family is CM over both fields by the lcm-lattice
    # route, strictly refines the fixture, and is itself one of the six
    # maximal families of the corrected catalogue (see README).
    X = hexagon_two_chords
    _, L = fixture("hex-squares-combined")
    F = family_of(L)
    G = family(6, list(F.sets) + [{0, 1}])
    assert len(G.sets) == 9
    for fld in (GF2, RATIONAL):
        rep = is_maximal(X, F, fld)
        assert not rep.is_maximal
        assert rep.extension == frozenset({0, 1})
        verdict = check_cm_labelling(X, labelling_of(G), fld)
        assert verdict.is_cm and verdict.codimension == 3
        assert is_maximal(X, G, fld).is_maximal
    assert refines(G, F)
    assert not refines(F, G)
    assert any(G.same_family(M) for M in hexagon_maximal_families)
    remember_labelling("hex-combined-plus-01", X, labelling_of(G))
    remember_family("hex-combined-plus-01", X, G, maximal=True)


# the one maximal family on the 12-gon with chords (0,3), (0,6), (0,9)
# that has n + k + 1 members
TWELVE_GON_SIXTEEN = [
    {1, 2}, {10, 11}, {0, 1, 2, 3, 4}, {0, 1, 2, 3, 11}, {0, 1, 9, 10, 11},
    {0, 8, 9, 10, 11}, {1, 2, 3, 4, 5}, {4, 5, 6, 7, 8}, {7, 8, 9, 10, 11},
    {1, 2, 3, 4, 5, 6}, {2, 3, 4, 5, 6, 7}, {3, 4, 5, 6, 7, 8},
    {4, 5, 6, 7, 8, 9}, {5, 6, 7, 8, 9, 10}, {6, 7, 8, 9, 10, 11},
    {3, 4, 5, 6, 7, 8, 9},
]


def test_twelve_gon_with_three_chords_has_a_sixteen_member_family():
    # Like the hexagon, a counterexample to n + k members for every
    # maximal family: nine of the ten have 15 = 12 + 3 members, one has 16.
    X = subdivided_polygon(12, ((0, 3), (0, 6), (0, 9)))
    F = family(12, TWELVE_GON_SIXTEEN)
    for fld in (GF2, RATIONAL):
        found = enumerate_maximal_families(X, SP, fld)
        sizes = sorted(len(M.sets) for M in found)
        assert sizes == [15] * 9 + [16]
        sixteen = [M for M in found if len(M.sets) == 16]
        assert len(sixteen) == 1 and sixteen[0].same_family(F)
        assert check_family_criteria(X, F, fld).ok
        assert is_maximal(X, F, fld).is_maximal
        verdict = check_cm_labelling(X, labelling_of(F), fld)
        assert verdict.is_cm and verdict.codimension == 3


# ---------------------------------------------------------------------------
# transfers to three-dimensional polytopes


def test_pyramid_transfer_preserves_validity_and_maximality():
    cases = [("pyramid-pentagon", polygon_complex(5), polygon_family(5))]
    for i, F in enumerate(chord_families(5, 2)):
        cases.append((f"pyramid-chord-{i}", chord_complex(5, 2), F))
    for name, X, F in cases:
        P, PF = pyramid(X), pyramid_family(F)
        assert check_family_criteria(P, PF).ok
        assert is_maximal(X, F).is_maximal
        assert is_maximal(P, PF).is_maximal
        remember_family(name, P, PF, maximal=True)


def test_pyramid_transfer_preserves_non_maximality(hexagon_two_chords):
    _, L = fixture("hex-squares-combined")
    F = family_of(L)
    P = pyramid(hexagon_two_chords)
    PF = pyramid_family(F)
    assert check_family_criteria(P, PF).ok
    rep = is_maximal(P, PF)
    assert not rep.is_maximal
    assert rep.extension == frozenset({0, 1})
    remember_family("pyramid-hex-combined", P, PF, maximal=False)


def test_elongated_pyramid_families_are_valid_and_maximal():
    E5 = elongated_pyramid(polygon_complex(5))
    F5 = ep_family(polygon_family(5))
    assert check_family_criteria(E5, F5).ok
    assert is_maximal(E5, F5).is_maximal
    remember_family("ep-pentagon", E5, F5, maximal=True)

    E3 = elongated_pyramid(polygon_complex(3))
    F3 = ep_family(polygon_family(3))
    assert check_family_criteria(E3, F3).ok
    assert E3.f_vector() == (7, 12, 7, 1)
    assert is_maximal(E3, F3).is_maximal
    remember_family("ep-triangle", E3, F3, maximal=True)


def test_wheel_family_is_maximal_and_its_labellings_resolve():
    W = wheel_polytope(4)
    WF = wheel_family()
    assert check_family_criteria(W, WF).ok
    assert is_maximal(W, WF).is_maximal
    assert W.f_vector() == (9, 16, 9, 1)
    assert f_symmetry(W)
    remember_family("wheel", W, WF, maximal=True)
    for name in ("wheel-hexagon", "wheel-bipyramid-a",
                 "wheel-bipyramid-b", "wheel-bipyramid-c"):
        X, L = fixture(name)
        verdict = check_cm_labelling(X, L)
        assert verdict.is_cm and verdict.codimension == 4, name
        assert tuple(build_free_complex(X, L).ranks()) == (1, 9, 16, 9, 1)
        remember_labelling(name, X, L)


# ---------------------------------------------------------------------------
# dimensions four and five: the cone constructions go past three


def above_three():
    """(complex, family) for cones over the pentagon in dimensions 4 and 5."""
    P, F = pyramid(polygon_complex(5)), pyramid_family(polygon_family(5))
    PP, PF = pyramid(P), pyramid_family(F)
    return {"pyramid-pyramid-pentagon": (PP, PF),
            "pyramid-pyramid-pyramid-pentagon":
                (pyramid(PP), pyramid_family(PF)),
            "elongated-pyramid-pyramid-pentagon":
                (elongated_pyramid(P), ep_family(F))}


@pytest.mark.parametrize("field", (GF2, RATIONAL), ids=("gf2", "rational"))
def test_cone_families_stay_valid_and_maximal_above_dimension_three(field):
    f_vectors = {}
    for name, (X, F) in above_three().items():
        f_vectors[name] = X.f_vector()
        assert check_family_criteria(X, F, field).ok, name
        verdict = check_cm_labelling(X, labelling_of(F), field)
        assert verdict.is_cm and verdict.codimension == X.dim + 1, name
        assert is_maximal(X, F, field).is_maximal, name
        # the elongated cone has 3,821 candidates
        found = any_valid_family(X, SearchSpace(max_candidates=4000), field)
        assert found is not None and \
            check_family_criteria(X, found, field).ok, name
    assert f_vectors == {
        "pyramid-pyramid-pentagon": (7, 16, 16, 7, 1),
        "pyramid-pyramid-pyramid-pentagon": (8, 23, 32, 23, 8, 1),
        "elongated-pyramid-pyramid-pentagon": (13, 32, 32, 13, 1),
    }


# ---------------------------------------------------------------------------
# conjecture evidence (report-only: counterexamples are findings, not
# failures, and must be flagged distinctly by the harness)

HEXAGON_OVERSIZED = [
    [[0], [2], [4], [0, 1], [1, 2], [2, 3], [0, 1, 5], [1, 2, 3], [3, 4, 5]],
    [[0], [2], [4], [1, 2], [2, 3], [3, 4], [0, 1, 5], [1, 2, 3], [3, 4, 5]],
]


def test_variable_count_evidence_table(hexagon_two_chords,
                                       hexagon_maximal_families):
    rep = variable_count_report()
    assert rep.kind == "variable-count"
    assert {tuple(r) for row in rep.rows for r in row["chords"]} == \
        {(0, 2), (0, 3), (1, 5), (3, 5)}
    for row in rep.rows:
        if len(row["chords"]) == 1:
            assert row["ok"]
            assert row["maximal_families"] == 2
            assert set(row["family_sizes"]) == {row["n"] + 1}
    two_chord = [row for row in rep.rows if len(row["chords"]) == 2]
    assert len(two_chord) == 1
    assert not two_chord[0]["ok"]
    assert sorted(two_chord[0]["family_sizes"]) == [8, 8, 8, 8, 9, 9]
    assert not rep.holds
    got = sorted(sorted(map(tuple, ce["family"]))
                 for ce in rep.counterexamples)
    want = sorted(sorted(map(tuple, fam)) for fam in HEXAGON_OVERSIZED)
    assert got == want
    for ce in rep.counterexamples:
        assert ce["members"] == 9 and ce["expected"] == 8
    for i, F in enumerate(hexagon_maximal_families):
        remember_family(f"hexagon-maximal-{i}", hexagon_two_chords, F,
                        maximal=True)


def test_selfdual_evidence_table():
    rep = selfdual_report()
    assert rep.kind == "selfdual"
    assert rep.holds and rep.counterexamples == ()
    admits = {row["name"]: row["admits_valid_family"] for row in rep.rows}
    assert admits == {
        "pyramid-3-gon": True, "pyramid-5-gon": True, "pyramid-7-gon": True,
        "pyramid-4-gon": False, "pyramid-6-gon": False,
        "elongated-pyramid-3-gon": True, "elongated-pyramid-5-gon": True,
        "wheel-4": True,
        "bipyramid-3-gon": False, "bipyramid-4-gon": False,
    }
    for row in rep.rows:
        if row["admits_valid_family"] and row["polytope"]:
            assert row["symmetric"], row["name"]


# ---------------------------------------------------------------------------
# cross-validation sweep over everything registered above


def sublevel_vertices(L, point):
    return {v for v in range(L.n_vertices)
            if all(a <= b for a, b in zip(L.labels[v].exponents, point))}


def test_registries_are_filled():
    assert len(LABELLED) >= 100
    assert len(MAXIMAL) >= 60
    for key in ("tree-8-0", "powers-5", "random-19", "polygon-7",
                "chord-7-3-1", "hex-squares", "pyramid-pentagon",
                "ep-pentagon", "wheel", "hexagon-maximal-5"):
        assert key in LABELLED or key in FAMILIES, key


def test_strand_ranks_match_restriction_homology_everywhere():
    for name, (X, L) in LABELLED.items():
        fc = build_free_complex(X, L)
        for point in sorted(lcm_lattice(L)):
            for fld in (GF2, RATIONAL):
                assert strand_matches_homology(fc, X, point, fld), (name, point)


def test_acyclicity_is_field_independent_on_touched_instances():
    for name, (X, L) in LABELLED.items():
        for point in sorted(lcm_lattice(L)):
            R = restrict(X, sublevel_vertices(L, point))
            assert reduced_homology(R, GF2).acyclic == \
                reduced_homology(R, RATIONAL).acyclic, (name, point)
        assert check_cm_labelling(X, L, GF2).is_cm == \
            check_cm_labelling(X, L, RATIONAL).is_cm, name


def test_differentials_compose_to_zero_on_touched_instances():
    for name, (X, L) in LABELLED.items():
        assert composition_is_zero(build_free_complex(X, L)), name


def test_family_verdicts_agree_with_labelling_verdicts(hexagon_two_chords):
    # one deliberately failing pair keeps the equivalence two-sided
    rim_arcs = family(6, [{i, (i + 1) % 6} for i in range(6)])
    FAMILIES.setdefault("hex-rim-arcs", (hexagon_two_chords, rim_arcs))
    for name, (X, F) in FAMILIES.items():
        ok = check_family_criteria(X, F).ok
        cm = check_cm_labelling(X, labelling_of(F)).is_cm
        assert ok == cm, name
    assert not check_family_criteria(hexagon_two_chords, rim_arcs).ok


def test_every_maximal_family_has_the_covering_property():
    for name, (X, F) in MAXIMAL.items():
        assert covering_property_check(X, F).ok, name


def test_covering_property_matches_the_ordered_scans_everywhere():
    for name, (X, F) in MAXIMAL.items():
        assert (covering_property_check(X, F)
                == reference_covering_property_check(X, F)), name
