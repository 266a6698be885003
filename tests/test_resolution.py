"""Resolution checks: acyclicity oracle, CM verdicts, free complexes, strands."""

import itertools
from dataclasses import replace

import pytest

from cellres.complexes import ComplexBuilder, reduced_homology, restrict
from cellres.constructions import (
    bipyramid_complex,
    chord_complex,
    chord_families,
    edges_to_tree,
    fixture,
    polygon_complex,
    polygon_family,
    pyramid,
    subdivided_polygon,
    tree_complex,
)
from cellres.linalg import GF2, RATIONAL
from cellres.monomials import (
    FamilyError,
    family,
    labelling,
    labelling_of,
    lcm_lattice,
    set_of,
)
from cellres.resolution import (
    AcyclicityOracle,
    build_free_complex,
    check_cellular_resolution,
    check_cm_labelling,
    check_family_criteria,
    check_minimal,
    codimension,
    codimension_family,
    multidegree,
    strand_matches_homology,
)


def strand_oracle(X, L, b, field=GF2) -> bool:
    """Build the free complex and compare one strand against homology."""
    fc = build_free_complex(X, L)
    return strand_matches_homology(fc, X, b, field)


def corrupt_one_sign(fc):
    """Flip the first sign of the last map of a free complex."""
    maps = [list(map(list, m)) for m in fc.maps]
    for m in reversed(maps):
        for row in m:
            for j, e in enumerate(row):
                if e is not None:
                    row[j] = (-e[0], e[1])
                    return replace(fc, maps=tuple(
                        tuple(tuple(r) for r in mm) for mm in maps))
    return fc


def path_on_three():
    return tree_complex(edges_to_tree(3, [(0, 1), (1, 2)]))


def star_on_three():
    return tree_complex(edges_to_tree(3, [(0, 1), (0, 2)]))


def squares_labelling():
    return labelling(2, [(2, 0), (1, 1), (0, 2)])


def simplex_on_three():
    b = ComplexBuilder(3)
    b.add_cell(1, (0, 1), ((1, 1), (0, -1)))
    b.add_cell(1, (1, 2), ((2, 1), (1, -1)))
    b.add_cell(1, (0, 2), ((2, 1), (0, -1)))
    b.add_cell(2, (0, 1, 2), ((3, 1), (4, 1), (5, -1)))
    return b.build()


def test_path_resolves_the_squares_ideal():
    X, L = path_on_three(), squares_labelling()
    verdict = check_cm_labelling(X, L)
    assert verdict.is_cellular_resolution
    assert verdict.is_minimal
    assert verdict.codimension == 2
    assert verdict.projective_dimension == 2
    assert verdict.is_cm
    fc = build_free_complex(X, L)
    assert fc.ranks() == (1, 3, 2)
    assert fc.composition_is_zero()


def test_star_fails_on_the_squares_ideal():
    ok, bad = check_cellular_resolution(star_on_three(), squares_labelling())
    assert not ok
    assert bad == (1, 2)  # the xy^2 restriction is two disconnected points
    verdict = check_cm_labelling(star_on_three(), squares_labelling())
    assert not verdict.is_cm
    assert verdict.witness[0] == "restriction-not-acyclic"


def test_taylor_simplex_resolves_but_is_not_minimal():
    # pairwise products: every restriction is a full face, hence acyclic,
    # but the triangle's multidegree equals each edge's
    X = simplex_on_three()
    L = labelling(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    ok, _ = check_cellular_resolution(X, L)
    assert ok
    minimal, witness = check_minimal(X, L)
    assert not minimal
    assert witness[1] == 6  # the 2-cell
    assert not check_cm_labelling(X, L).is_cm


def test_simplex_on_variables_is_minimal_cm():
    X = simplex_on_three()
    L = labelling(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    verdict = check_cm_labelling(X, L)
    assert verdict.is_cm
    assert verdict.codimension == 3
    assert build_free_complex(X, L).ranks() == (1, 3, 3, 1)


def test_multidegree_is_the_label_join():
    L = squares_labelling()
    assert multidegree(L, (0, 1)).exponents == (2, 1)
    assert multidegree(L, (0, 1, 2)).exponents == (2, 2)
    assert multidegree(L, ()).exponents == (0, 0)


def test_codimension_counts_minimal_variable_cover():
    assert codimension(squares_labelling()) == 2
    L = labelling(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert codimension(L) == 2
    assert codimension(labelling(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 3


def test_codimension_family_matches_labelling_codimension():
    for F in (polygon_family(5), *chord_families(5, 2), *chord_families(6, 3)):
        assert codimension_family(F) == codimension(labelling_of(F))


def test_codimension_family_requires_cover():
    with pytest.raises(FamilyError):
        codimension_family(family(3, [{0, 1}]))


def test_acyclicity_oracle_caches_and_agrees_with_fields():
    X = chord_complex(6, 2)
    g, q = AcyclicityOracle(X, GF2), AcyclicityOracle(X, RATIONAL)
    full = (1 << 6) - 1
    for mask in range(full + 1):
        assert g.is_acyclic(mask) == q.is_acyclic(mask)
    assert g.is_acyclic(full)
    assert set(g.touched()) >= {0, full}
    # on every mask the short-circuits and the rank kernel agree with the
    # homology of the restriction
    for X in (chord_complex(6, 2), pyramid(polygon_complex(5)),
              bipyramid_complex(4), subdivided_polygon(6, ((1, 5), (3, 5)))):
        for field in (GF2, RATIONAL):
            oracle = AcyclicityOracle(X, field)
            for mask in range(1 << X.n_vertices):
                restriction = restrict(X, set_of(mask))
                assert oracle.is_acyclic(mask) == \
                    reduced_homology(restriction, field).acyclic


def test_family_criteria_report_fields():
    X = polygon_complex(5)
    rep = check_family_criteria(X, polygon_family(5))
    assert rep.ok
    assert rep.field == "gf2"
    # a single member covering everything breaks the cover bound
    rep = check_family_criteria(X, family(5, [{0, 1, 2, 3, 4}]))
    assert not rep.cover_bound and rep.cover_witness == (0,)
    # members covering all but one vertex fail the covering corollary
    rep = check_family_criteria(X, family(5, [{0, 1}, {2}, {3}]))
    assert not rep.covers_vertices and rep.uncovered_vertex == 4
    assert not rep.ok


def test_family_criteria_separation_witness():
    X = polygon_complex(4)
    rep = check_family_criteria(X, family(4, [{0, 1}, {2, 3}]))
    assert not rep.face_separation
    assert rep.separation_witness is not None


def test_criteria_match_cm_verdict_on_hexagon_families(hexagon_two_chords,
                                                       hexagon_valid_families):
    X = hexagon_two_chords
    # the arc family of the plain hexagon fails here (the chord faces are
    # never separated), and the labelling level agrees
    arcs = family(6, [{i, (i + 1) % 6} for i in range(6)])
    crit = check_family_criteria(X, arcs)
    assert not crit.ok and not crit.face_separation
    assert not check_cm_labelling(X, labelling_of(arcs)).is_cm
    for F in hexagon_valid_families[:6]:
        assert check_family_criteria(X, F).ok
        assert check_cm_labelling(X, labelling_of(F)).is_cm


def test_strand_ranks_match_restriction_homology():
    X, L = path_on_three(), squares_labelling()
    fc = build_free_complex(X, L)
    for b in lcm_lattice(L).sorted_points():
        assert strand_matches_homology(fc, X, b, GF2)
        assert strand_matches_homology(fc, X, b, RATIONAL)
    assert strand_oracle(X, L, (2, 2))


def test_corrupted_sign_is_caught_at_the_composition_gate():
    # the strand rank formula presumes a complex, so the cross-validation
    # pipeline rejects a flipped sign when the composite map stops vanishing
    X = polygon_complex(5)
    L = labelling_of(polygon_family(5))
    fc = build_free_complex(X, L)
    bad = corrupt_one_sign(fc)
    assert bad != fc
    assert fc.composition_is_zero()
    assert not bad.composition_is_zero()
    points = lcm_lattice(L).sorted_points()
    assert all(strand_matches_homology(fc, X, b, RATIONAL) for b in points)


def test_free_complex_entries_are_quotient_monomials():
    X, L = path_on_three(), squares_labelling()
    fc = build_free_complex(X, L)
    first = fc.maps[0]
    assert [e[1] for e in first[0]] == [(2, 0), (1, 1), (0, 2)]
    second = fc.maps[1]
    # edge (0,1) has multidegree x^2 y; over vertex x^2 the entry is y
    col0 = [second[r][0] for r in range(3)]
    entries = {fc.cell_ids[1][r]: e for r, e in enumerate(col0) if e is not None}
    assert set(entries) == {0, 1}
    quotients = sorted(e[1] for e in entries.values())
    assert quotients == [(0, 1), (1, 0)]
