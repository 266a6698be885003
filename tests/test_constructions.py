"""Constructors: trees, polygons, chords, pyramids, wheels, fixtures."""

import itertools

import pytest

from cellres.complexes import ComplexError, validate_complex
from cellres.constructions import (
    Arc,
    OrientedTree,
    all_arcs,
    all_labelled_trees,
    arc_set,
    bipyramid_complex,
    canonical_resolution_tree,
    chord_complex,
    chord_families,
    edges_to_tree,
    elongated_pyramid,
    ep_family,
    fixture,
    fixture_catalogue,
    polygon_complex,
    polygon_family,
    pyramid,
    pyramid_family,
    subdivided_polygon,
    tree_complex,
    tree_maximal_labelling,
    tree_resolution_trees,
    tree_unique_morphism,
    wheel_family,
    wheel_polytope,
)
from cellres.monomials import family_of, labelling, polarize
from cellres.resolution import check_cm_labelling


def test_oriented_tree_validation():
    with pytest.raises(ComplexError):
        OrientedTree(3, ((0, 1),))
    with pytest.raises(ComplexError):
        OrientedTree(3, ((0, 1), (1, 0)))
    with pytest.raises(ComplexError):
        OrientedTree(3, ((0, 1), (0, 3)))


def test_side_vertices_partition():
    T = OrientedTree(5, ((0, 1), (1, 2), (1, 3), (3, 4)))
    src, tgt = T.side_vertices(2)
    assert src == {0, 1, 2} and tgt == {3, 4}
    for e in range(4):
        a, b = T.side_vertices(e)
        assert a | b == set(range(5)) and not a & b


def test_tree_maximal_labelling_doubles_edges():
    T = OrientedTree(3, ((0, 1), (1, 2)))
    L = tree_maximal_labelling(T)
    assert L.n_variables == 4
    assert [m.exponents for m in L.labels] == [
        (1, 0, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1)]
    F = family_of(L)
    assert sorted(sorted(s) for s in F.sets) == [[0], [0, 1], [1, 2], [2]]


def test_all_labelled_trees_counts():
    # Cayley: n^(n-2) labelled trees
    for n, want in ((2, 1), (3, 3), (4, 16), (5, 125)):
        trees = list(all_labelled_trees(n))
        assert len(trees) == want
        assert len(set(trees)) == want


def test_power_chain_has_a_unique_resolving_path():
    # x^3, x^2 y, x y^2, y^3 on four points
    L = labelling(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    trees = tree_resolution_trees(L)
    assert trees == frozenset({frozenset({(0, 1), (1, 2), (2, 3)})})


def test_complement_products_admit_every_tree():
    # m_i = product of all variables but the i-th
    n = 4
    rows = [tuple(0 if p == i else 1 for p in range(n)) for i in range(n)]
    L = labelling(n, rows)
    assert tree_resolution_trees(L) == frozenset(all_labelled_trees(n))


def test_canonical_resolution_tree_passes():
    L = labelling(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    T = canonical_resolution_tree(L)
    assert frozenset(T.edges) in tree_resolution_trees(L)


def test_tree_unique_morphism_substitutes_onto_labels():
    L = labelling(2, [(2, 0), (1, 1), (0, 2)])
    T = OrientedTree(3, ((0, 1), (1, 2)))
    rows = tree_unique_morphism(T, L)
    # source/target side variables of each edge map to the reduced fraction
    assert rows == ((1, 0), (0, 1), (1, 0), (0, 1))


def test_tree_unique_morphism_rejects_non_resolving_tree():
    L = labelling(2, [(2, 0), (1, 1), (0, 2)])
    star = OrientedTree(3, ((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        tree_unique_morphism(star, L)


def test_polygon_and_chord_f_vectors():
    assert polygon_complex(5).f_vector() == (5, 5, 1)
    assert polygon_complex(6).f_vector() == (6, 6, 1)
    assert chord_complex(5, 2).f_vector() == (5, 6, 2)
    assert chord_complex(6, 3).f_vector() == (6, 7, 2)
    assert subdivided_polygon(6, ((1, 5), (3, 5))).f_vector() == (6, 8, 3)
    for X in (polygon_complex(7), chord_complex(7, 3),
              subdivided_polygon(6, ((1, 5), (3, 5)))):
        assert validate_complex(X) == []


def test_subdivided_polygon_rejects_bad_chords():
    with pytest.raises(ComplexError):
        subdivided_polygon(6, ((0, 1),))     # a rim edge, not a chord
    with pytest.raises(ComplexError):
        subdivided_polygon(6, ((2, 2),))
    with pytest.raises(ComplexError):
        subdivided_polygon(6, ((1, 3), (1, 3)))


def test_arcs():
    assert arc_set(4, 3, 5) == {4, 0, 1}
    assert Arc(4, 1, 5).vertices() == frozenset({4, 0, 1})
    assert Arc(4, 1, 5).length == 3
    arcs = list(all_arcs(5, 2))
    assert len(arcs) == 5
    assert all(len(a) == 2 for a in arcs)


def test_polygon_family_is_the_arc_family():
    F = polygon_family(5)
    assert sorted(sorted(s) for s in F.sets) == [
        [0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
    with pytest.raises(ValueError):
        polygon_family(6)


def test_chord_families_frozen_content():
    A, B = chord_families(5, 2)
    assert sorted(sorted(s) for s in A.sets) == [
        [0, 1], [0, 4], [1], [1, 2], [2, 3], [3, 4]]
    assert sorted(sorted(s) for s in B.sets) == [
        [0, 1, 2], [0, 4], [1], [2, 3], [3], [4]]
    for n, a in ((5, 2), (6, 2), (6, 3), (7, 2), (7, 3)):
        for F in chord_families(n, a):
            assert len(F.sets) == n + 1


def test_pyramid_shapes():
    P = pyramid(polygon_complex(5))
    assert P.f_vector() == (6, 10, 6, 1)
    assert validate_complex(P) == []
    F = pyramid_family(polygon_family(5))
    assert frozenset({5}) in F.sets
    assert len(F.sets) == 6


def test_elongated_pyramid_shapes():
    E3 = elongated_pyramid(polygon_complex(3))
    assert E3.f_vector() == (7, 12, 7, 1)
    assert validate_complex(E3) == []
    E5 = elongated_pyramid(polygon_complex(5))
    assert E5.f_vector() == (11, 20, 11, 1)
    F = ep_family(polygon_family(5))
    assert len(F.sets) == 11


def test_wheel_and_bipyramid_shapes():
    W = wheel_polytope(4)
    assert W.f_vector() == (9, 16, 9, 1)
    assert validate_complex(W) == []
    assert len(wheel_family().sets) == 10
    B = bipyramid_complex(4)
    assert B.f_vector() == (6, 12, 8, 1)
    assert validate_complex(B) == []


def test_fixture_catalogue_is_stable():
    assert sorted(fixture_catalogue()) == [
        "elongated-pyramid-triangle",
        "hex-squares",
        "hex-squares-alternative",
        "hex-squares-combined",
        "hex-squares-polarized",
        "pyramid-pentagon",
        "wheel-bipyramid-a",
        "wheel-bipyramid-b",
        "wheel-bipyramid-c",
        "wheel-hexagon",
    ]
    with pytest.raises(KeyError):
        fixture("no-such-fixture")


def test_fixtures_are_well_formed():
    for fid in fixture_catalogue():
        X, L = fixture(fid)
        assert validate_complex(X) == [], fid
        assert L.n_vertices == X.n_vertices, fid


def test_hex_squares_polarizes_onto_its_polarized_fixture():
    X, L = fixture("hex-squares")
    _, P = fixture("hex-squares-polarized")
    Q = polarize(L)
    assert Q.n_variables == P.n_variables
    assert [m.exponents for m in Q.labels] == [m.exponents for m in P.labels]


def test_hex_squares_is_cm():
    X, L = fixture("hex-squares")
    verdict = check_cm_labelling(X, L)
    assert verdict.is_cm and verdict.codimension == 3
