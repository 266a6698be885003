"""Constructors: trees, polygons, chords, pyramids, wheels, fixtures."""

import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cellres.complexes import ComplexError, validate_complex
from cellres.constructions import (
    OrientedTree,
    all_arcs,
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
from cellres.monomials import (
    FamilyError,
    GuardExceeded,
    LabellingError,
    family_of,
    labelling,
    labelling_of,
    polarize,
)
from cellres.resolution import check_cm_labelling
from cellres.serialize import complex_to_dict
from reference_constructions import (
    reference_bipyramid_complex,
    reference_elongated_pyramid,
    reference_pyramid,
    reference_subdivided_polygon,
    reference_wheel_polytope,
)
from reference_trees import (
    all_labelled_trees,
    reference_canonical_resolution_tree,
    reference_tree_resolution_trees,
)
from test_search import chords_of


def test_oriented_tree_refuses_a_cycle():
    with pytest.raises(ComplexError, match="^edges contain a cycle$"):
        OrientedTree(4, ((0, 1), (1, 2), (0, 2)))


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


def random_labelling(rng, n):
    """Seeded labelling of n vertices in 2-4 variables, exponents up to 3."""
    while True:
        nvar = rng.randint(2, 4)
        rows = [tuple(rng.randint(0, 3) for _ in range(nvar))
                for _ in range(n)]
        try:
            return labelling(nvar, rows)
        except LabellingError:
            continue


def test_resolution_trees_match_the_threshold_rule():
    rng = random.Random(20261018)
    ties = 0
    for n, count in ((2, 20), (3, 60), (4, 70), (5, 70), (6, 60), (7, 20)):
        for _ in range(count):
            L = random_labelling(rng, n)
            trees = tree_resolution_trees(L)
            assert trees == reference_tree_resolution_trees(L)
            ties += len(trees) > 1
    # equal lcm degrees are common, so many labellings have several trees
    assert ties >= 100


def test_canonical_resolution_tree_passes():
    L = labelling(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    T = canonical_resolution_tree(L)
    assert frozenset(T.edges) in tree_resolution_trees(L)


@st.composite
def small_labellings(draw):
    """Labellings of 2-6 labels in 2-4 variables with exponents 0-3: the
    minimal rows of a random list, with unused variables dropped."""
    k = draw(st.integers(2, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 3)] * k),
                         min_size=2, max_size=12, unique=True))
    keep = [r for r in rows if not any(
        q != r and all(a <= b for a, b in zip(q, r)) for q in rows)]
    used = [p for p in range(k) if any(r[p] for r in keep)]
    assume(2 <= len(keep) <= 6 and len(used) >= 2)
    return labelling(len(used), [tuple(r[p] for p in used) for r in keep])


@settings(max_examples=150, deadline=None)
@given(small_labellings())
def test_resolution_trees_match_the_threshold_rule_on_random_labellings(L):
    assert tree_resolution_trees(L) == reference_tree_resolution_trees(L)
    assert (canonical_resolution_tree(L)
            == reference_canonical_resolution_tree(L))


DEGREE_SIX_ROWS = [r for r in itertools.product(range(7), repeat=4)
                   if sum(r) == 6]


def degree_six_labelling(rng, n):
    """Seeded labelling of n distinct degree-6 labels in 4 variables; labels
    of one degree form an antichain, so up to 84 labels can be drawn."""
    while True:
        try:
            return labelling(4, rng.sample(DEGREE_SIX_ROWS, n))
        except LabellingError:
            continue


def test_canonical_resolution_tree_is_the_one_pass_kruskal_tree():
    rng = random.Random(20261019)
    for n in range(1, 13):
        for _ in range(10):
            L = degree_six_labelling(rng, n)
            assert (canonical_resolution_tree(L)
                    == reference_canonical_resolution_tree(L))


def test_eight_labels_answer_without_a_scan_of_every_tree():
    L = degree_six_labelling(random.Random(1), 8)
    start = time.perf_counter()
    trees = tree_resolution_trees(L)
    assert time.perf_counter() - start < 0.1
    # the threshold rule over all 8^6 trees gives the same 24 trees
    assert len(trees) == 24
    assert frozenset(canonical_resolution_tree(L).edges) in trees


def test_tree_listing_refuses_past_the_union_limit():
    def complement_products(n):
        return labelling(n, [tuple(int(p != i) for p in range(n))
                             for i in range(n)])

    # every tree resolves: C(21, 6) = 54,264 tries for 7 labels
    assert len(tree_resolution_trees(complement_products(7))) == 7 ** 5
    start = time.perf_counter()
    with pytest.raises(GuardExceeded, match="more than 65536"):
        tree_resolution_trees(complement_products(8))
    assert time.perf_counter() - start < 0.1
    # 12 labels: a product of 85,050 tries, but a sum the limit allows,
    # and 3,680 trees
    assert len(tree_resolution_trees(
        degree_six_labelling(random.Random(3), 12))) == 3680
    with pytest.raises(GuardExceeded, match=(
            "^75587 candidate forests to try, more than 65536$")):
        tree_resolution_trees(degree_six_labelling(random.Random(87), 12))
    # 6,009 tries, but more trees than the limit
    with pytest.raises(GuardExceeded, match=(
            "^73920 resolving trees, more than 65536$")):
        tree_resolution_trees(degree_six_labelling(random.Random(221), 14))


def test_the_empty_labelling_has_no_tree():
    L = labelling(0, [])
    for trees in (tree_resolution_trees, canonical_resolution_tree):
        with pytest.raises(ComplexError,
                           match=r"^a tree on 0 vertices has -1 edges$"):
            trees(L)


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
    with pytest.raises(FamilyError, match="^labelling size does not match"):
        tree_unique_morphism(OrientedTree(2, ((0, 1),)), L)


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
    assert arc_set(7, 1, 5) == {2}
    assert arc_set(2, 5, 5) == set(range(5))
    arcs = list(all_arcs(5, 2))
    assert len(arcs) == 5
    assert all(len(a) == 2 for a in arcs)


@pytest.mark.parametrize("start,length", [(2, 0), (0, 7), (1, -1)])
def test_arc_lengths_outside_the_cycle_are_rejected(start, length):
    with pytest.raises(ComplexError):
        arc_set(start, length, 5)


def test_polygon_family_is_the_arc_family():
    F = polygon_family(5)
    assert sorted(sorted(s) for s in F.sets) == [
        [0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]
    with pytest.raises(ValueError):
        polygon_family(6)
    with pytest.raises(ComplexError,
                       match="^polygon needs at least 3 vertices$"):
        polygon_family(2)


@pytest.mark.parametrize("n,a", [(6, 1), (6, 4), (3, 2)])
def test_chords_off_the_allowed_range_are_rejected(n, a):
    with pytest.raises(ComplexError, match="^chord endpoint must satisfy"):
        chord_complex(n, a)
    with pytest.raises(FamilyError, match="^chord endpoint must satisfy"):
        chord_families(n, a)


def test_chord_families_frozen_content():
    A, B = chord_families(5, 2)
    assert sorted(sorted(s) for s in A.sets) == [
        [0, 1], [0, 4], [1], [1, 2], [2, 3], [3, 4]]
    assert sorted(sorted(s) for s in B.sets) == [
        [0, 1, 2], [0, 4], [1], [2, 3], [3], [4]]
    for n, a in ((5, 2), (6, 2), (6, 3), (7, 2), (7, 3)):
        for F in chord_families(n, a):
            assert len(F.sets) == n + 1


def test_chord_families_are_reflections_only_for_even_n():
    for n in range(4, 12):
        for a in range(2, n // 2 + 1):
            families = chord_families(n, a)
            assert [len(F.sets) for F in families] == [n + 1, n + 1]
            first, second = (set(F.sets) for F in families)
            image = {frozenset((a - v) % n for v in s) for s in first}
            assert first != second
            if n % 2:
                assert image == first
            else:
                assert image == second


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


def test_elongated_pyramid_needs_one_top_cell_of_positive_dimension():
    point = tree_complex(OrientedTree(1, ()))
    with pytest.raises(ComplexError, match="dimension >= 1$"):
        elongated_pyramid(point)
    with pytest.raises(ComplexError, match="a single top cell$"):
        elongated_pyramid(chord_complex(6, 3))


def test_wheel_and_bipyramid_shapes():
    W = wheel_polytope(4)
    assert W.f_vector() == (9, 16, 9, 1)
    assert validate_complex(W) == []
    assert len(wheel_family().sets) == 10
    B = bipyramid_complex(4)
    assert B.f_vector() == (6, 12, 8, 1)
    assert validate_complex(B) == []


def same_complex(X, Y):
    return complex_to_dict(X) == complex_to_dict(Y)


def test_named_complexes_match_the_reference_bodies():
    for n in range(3, 13):
        assert same_complex(wheel_polytope(n), reference_wheel_polytope(n))
        assert same_complex(bipyramid_complex(n),
                            reference_bipyramid_complex(n))
    bases = [polygon_complex(n) for n in range(3, 11)]
    bases += [wheel_polytope(4), bipyramid_complex(5), pyramid(bases[1]),
              tree_complex(edges_to_tree(2, [(0, 1)]))]
    for X in bases:
        assert same_complex(pyramid(X), reference_pyramid(X))
        assert same_complex(elongated_pyramid(X),
                            reference_elongated_pyramid(X))
    # cones over a tree and a double pyramid; no single top cell to elongate
    for X in (tree_complex(edges_to_tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])),
              pyramid(pyramid(bases[2]))):
        assert same_complex(pyramid(X), reference_pyramid(X))


@st.composite
def dissections(draw):
    """An n-gon, 3 <= n <= 12, and a set of pairwise non-crossing chords."""
    n = draw(st.integers(3, 12))
    return n, draw(chords_of(n))


@settings(max_examples=150, deadline=None)
@given(dissections())
def test_dissections_and_their_pyramids_match_the_reference(polygon):
    X = subdivided_polygon(*polygon)
    assert same_complex(X, reference_subdivided_polygon(*polygon))
    assert same_complex(pyramid(X), reference_pyramid(X))


@st.composite
def chord_lists(draw):
    """An n-gon, 4 <= n <= 40, and a list of its diagonals, each written
    either way round, in any order: some chords of a random triangulation,
    and sometimes a few more diagonals, which may cross or repeat."""
    n = draw(st.integers(4, 40))
    chords, todo = [], [list(range(n))]
    while todo:
        cycle = todo.pop()
        k = len(cycle)
        if k > 3:
            i = draw(st.integers(0, k - 1))
            i, j = sorted((i, (i + draw(st.integers(2, k - 2))) % k))
            if draw(st.booleans()):
                chords.append((cycle[i], cycle[j]))
            todo += [cycle[i:j + 1], cycle[j:] + cycle[:i + 1]]
    diagonals = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if v - u not in (1, n - 1)]
    chords += draw(st.lists(st.sampled_from(diagonals), max_size=3))
    chords = draw(st.permutations(chords))
    flips = draw(st.lists(st.booleans(), min_size=len(chords),
                          max_size=len(chords)))
    return n, [(v, u) if flip else (u, v)
               for (u, v), flip in zip(chords, flips)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)),
                         max_size=4))), chord_lists()))
def test_bad_chords_are_refused_as_in_the_reference(polygon):
    # the same regions, in the same order, from the same start vertex; a
    # crossing names the same first pair
    try:
        want = complex_to_dict(reference_subdivided_polygon(*polygon))
    except ComplexError as exc:
        with pytest.raises(ComplexError) as got:
            subdivided_polygon(*polygon)
        assert got.value.args == exc.args
    else:
        assert complex_to_dict(subdivided_polygon(*polygon)) == want


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


def polarized_hex_squares():
    X, L = fixture("hex-squares")
    return X, polarize(L)


def ep_labelled_triangle():
    return (elongated_pyramid(polygon_complex(3)),
            labelling_of(ep_family(polygon_family(3))))


# the fixtures the library can rebuild; the table keeps them literal, so
# these compare polarize and ep_family with an independent record
REBUILT = {"hex-squares-polarized": polarized_hex_squares,
           "elongated-pyramid-triangle": ep_labelled_triangle}


@pytest.mark.parametrize("fid", REBUILT)
def test_derivable_fixture_is_what_the_library_builds(fid):
    assert fixture(fid) == REBUILT[fid]()


def test_hex_squares_is_cm():
    X, L = fixture("hex-squares")
    verdict = check_cm_labelling(X, L)
    assert verdict.is_cm and verdict.codimension == 3
