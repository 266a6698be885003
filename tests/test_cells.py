"""Cell complex plumbing: validation, restriction, homology, signs."""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellres.complexes import (
    Cell,
    CellComplex,
    ComplexBuilder,
    ComplexError,
    SignConflictError,
    assign_signs,
    is_polytope_complex,
    reduced_homology,
    restrict,
    validate_complex,
)
from cellres.constructions import (
    _region_cycles,
    bipyramid_complex,
    chord_complex,
    edges_to_tree,
    elongated_pyramid,
    fixture,
    fixture_catalogue,
    polygon_complex,
    pyramid,
    subdivided_polygon,
    tree_complex,
    wheel_polytope,
)
from cellres.linalg import GF2, RATIONAL, FieldSpec, matrix_rank
from cellres.resolution import f_symmetry
from reference_linalg import dense_gf2_rank, fraction_free_rank
from reference_signs import reference_assign_signs
from test_cli_golden import fan_polygon
from test_resolution import projective_plane
from test_search import chords_of


def strip_signs(X):
    """X with every boundary sign set to 0, to be assigned again."""
    return CellComplex(X.n_vertices, tuple(
        Cell(c.id, c.dim, c.vertices, tuple((b, 0) for b, _ in c.boundary))
        for c in X.cells))


def cycle_complex(n):
    """Plain n-cycle, no top cell."""
    b = ComplexBuilder(n)
    for i in range(n):
        b.add_cell(1, (i, (i + 1) % n), (((i + 1) % n, 1), (i, -1)))
    return b.build()


def test_builder_output_is_valid():
    for X in (polygon_complex(5), chord_complex(6, 3),
              subdivided_polygon(6, ((1, 5), (3, 5))), cycle_complex(4),
              tree_complex(edges_to_tree(4, [(0, 1), (1, 2), (1, 3)]))):
        assert validate_complex(X) == []


def test_validation_flags_duplicate_vertex_cell():
    cells = (Cell(0, 0, frozenset({0}), ()), Cell(1, 0, frozenset({0}), ()))
    diags = validate_complex(CellComplex(1, cells))
    assert any("vertex 0 appears in cells" in d for d in diags)


def test_validation_flags_missing_vertex_cell():
    cells = (Cell(0, 0, frozenset({0}), ()),)
    diags = validate_complex(CellComplex(2, cells))
    assert any("vertex 1 has no dimension-0 cell" in d for d in diags)
    # one diagnostic, however many vertices lack a cell
    assert validate_complex(CellComplex(10 ** 8, cells)) == [
        "vertex 1 has no dimension-0 cell, nor do 99999998 more vertices"]


def test_validation_flags_wrong_boundary_dimension():
    b = ComplexBuilder(3)
    b.add_cell(1, (0, 1), ((1, 1), (0, -1)))
    # 2-cell listing a vertex cell directly in its boundary
    b.add_cell(2, (0, 1, 2), ((3, 1), (2, -1)))
    diags = validate_complex(b.build())
    assert any("has dimension" in d for d in diags)


def test_validation_flags_vertex_set_mismatch():
    b = ComplexBuilder(3)
    b.add_cell(1, (0, 1), ((1, 1), (0, -1)))
    b.add_cell(2, (0, 1, 2), ((3, 1),))
    diags = validate_complex(b.build())
    # triangle with a single side: both the closure and the diamond break
    assert any("union of boundary vertex sets" in d for d in diags)
    assert any("expected 2" in d for d in diags)


def test_validation_flags_flipped_sign():
    X = polygon_complex(4)
    cells = list(X.cells)
    top = cells[-1]
    b0, s0 = top.boundary[0]
    flipped = tuple([(b0, -s0)] + list(top.boundary[1:]))
    cells[-1] = Cell(top.id, top.dim, top.vertices, flipped)
    diags = validate_complex(CellComplex(X.n_vertices, tuple(cells)))
    assert any("boundary of boundary is nonzero" in d for d in diags)


def test_validation_flags_ids_off_their_index_and_signs_of_two():
    # the wire format refuses both before a complex is built, so only a
    # complex built in the library shows them
    cells = list(polygon_complex(3).cells)
    edge, top = cells[3], cells[6]
    cells[3] = Cell(7, edge.dim, edge.vertices, edge.boundary)
    assert validate_complex(CellComplex(3, tuple(cells))) == [
        "cell at index 3 has id 7"]
    cells[3] = edge
    cells[6] = Cell(6, 2, top.vertices, ((3, 2), *top.boundary[1:]))
    assert validate_complex(CellComplex(3, tuple(cells))) == [
        "cell 6: sign 2 on boundary cell 3",
        "cell 6: boundary of boundary is nonzero at [0, 1]"]


def test_out_of_range_ids_are_no_faces_of_the_cell_above():
    # edge 5 of the pentagon lists a bad id; only edge 5 is blamed for it,
    # and the 2-cell sees just the vertex that edge no longer reaches
    X = polygon_complex(5)
    for bad in (-1, 99):
        cells = list(X.cells)
        (_, s), *rest = cells[5].boundary
        cells[5] = Cell(5, 1, cells[5].vertices, ((bad, s), *rest))
        assert validate_complex(CellComplex(5, tuple(cells))) == [
            f"cell 5: boundary id {bad} out of range",
            "cell 5: vertex set differs from union of boundary vertex sets",
            "cell 5: face -1 lies under 1 boundary cells, expected 2",
            "cell 10: face 1 lies under 1 boundary cells, expected 2",
            "cell 5: boundary of boundary is nonzero at [-1]",
            "cell 10: boundary of boundary is nonzero at [1]",
        ]


def single_corruptions(X):
    """Every complex one fault away from X: a boundary entry dropped, its
    sign flipped (when X is fully signed), or its id moved out of range or
    negative; an edge given one endpoint or three, with its vertex set
    to match."""
    cells = X.cells

    def with_cell(c, vertices, boundary):
        new = list(cells)
        new[c.id] = Cell(c.id, c.dim, frozenset(vertices), tuple(boundary))
        return CellComplex(X.n_vertices, tuple(new))

    for c in cells:
        for k, (b, s) in enumerate(c.boundary):
            head, tail = c.boundary[:k], c.boundary[k + 1:]
            yield with_cell(c, c.vertices, head + tail)
            if X.fully_signed():
                yield with_cell(c, c.vertices, head + ((b, -s),) + tail)
            for bad in (len(cells), -1):
                yield with_cell(c, c.vertices, head + ((bad, s),) + tail)
        if c.dim == 1:
            kept = c.boundary[0]
            yield with_cell(c, cells[kept[0]].vertices, (kept,))
            third = next(v for v in cells
                         if v.dim == 0 and not v.vertices <= c.vertices)
            yield with_cell(c, c.vertices | third.vertices,
                            c.boundary + ((third.id, 1),))


CORRUPTED = {
    "tree": tree_complex(edges_to_tree(4, [(0, 1), (1, 2), (1, 3)])),
    "cycle": cycle_complex(4),
    "polygon": polygon_complex(5),
    "unsigned polygon": strip_signs(polygon_complex(5)),
    "chord": chord_complex(6, 3),
    "subdivided": subdivided_polygon(6, ((1, 5), (3, 5))),
    "pyramid": pyramid(polygon_complex(4)),
    "elongated pyramid": elongated_pyramid(polygon_complex(3)),
    "wheel": wheel_polytope(4),
    "bipyramid": bipyramid_complex(3),
    **{fid: fixture(fid)[0] for fid in fixture_catalogue()},
}


@pytest.mark.parametrize("name", list(CORRUPTED))
def test_every_single_corruption_is_diagnosed(name):
    # the augmented complex gives every vertex the empty face as its
    # boundary, so the diamond and composite-boundary checks reach edges
    # too: no corruption passes, and none makes the validator raise
    X = CORRUPTED[name]
    assert validate_complex(X) == []
    for count, Y in enumerate(single_corruptions(X), 1):
        assert validate_complex(Y), (name, count)
    assert count > len(X.cells)


def test_restrict_keeps_induced_cells():
    X = polygon_complex(5)
    Y = restrict(X, {0, 1, 2})
    assert Y.f_vector() == (3, 2)
    # vertex ids survive (the ambient range is kept), cell ids are dense again
    assert Y.n_vertices == X.n_vertices
    assert {tuple(c.vertices)[0] for c in Y.cells if c.dim == 0} == {0, 1, 2}
    assert [c.id for c in Y.cells] == list(range(len(Y.cells)))


def test_restrict_rejects_out_of_range():
    with pytest.raises(ComplexError):
        restrict(polygon_complex(4), {0, 9})


@settings(max_examples=60, deadline=None)
@given(a=st.sets(st.integers(0, 5)), b=st.sets(st.integers(0, 5)))
def test_restrict_composes_as_intersection(a, b):
    X = subdivided_polygon(6, ((1, 5), (3, 5)))
    one = restrict(restrict(X, a), a & b)
    two = restrict(X, a & b)
    assert one.f_vector() == two.f_vector()
    assert [c.vertices for c in one.cells] == [c.vertices for c in two.cells]


def test_homology_of_reference_spaces():
    disk = reduced_homology(polygon_complex(5), GF2)
    assert disk.acyclic and disk.reduced_betti == {}
    circle = reduced_homology(cycle_complex(5), GF2)
    assert not circle.acyclic and circle.reduced_betti == {1: 1}
    two_points = reduced_homology(restrict(cycle_complex(5), {0, 2}), GF2)
    assert two_points.reduced_betti == {0: 1}
    point = reduced_homology(restrict(cycle_complex(5), {0}), GF2)
    assert point.acyclic
    void = reduced_homology(restrict(cycle_complex(5), set()), GF2)
    assert void.acyclic


def test_homology_fields_agree_on_reference_spaces():
    for X in (polygon_complex(6), cycle_complex(6), wheel_polytope(4),
              elongated_pyramid(polygon_complex(3))):
        a = reduced_homology(X, GF2).reduced_betti
        b = reduced_homology(X, RATIONAL).reduced_betti
        assert a == b


def eliminated_betti(X, field):
    """Nonzero reduced Betti numbers from a dense elimination of every
    boundary map, the augmentation and the edge map included."""
    if not X.cells:
        return {}
    rank = fraction_free_rank if field.is_rational else dense_gf2_rank
    by_dim = [X.cells_of_dim(d) for d in range(X.dim + 1)]
    ranks = []
    for rows, cols in zip([[-1]] + [[c.id for c in cs] for cs in by_dim],
                          by_dim):
        columns = [dict(c.boundary or ((-1, 1),)) for c in cols]
        ranks.append(rank([[col.get(r, 0) for col in columns] for r in rows]))
    ranks.append(0)
    betti = {-1: 1 - ranks[0]}
    for d, cells in enumerate(by_dim):
        betti[d] = len(cells) - ranks[d] - ranks[d + 1]
    return {d: b for d, b in betti.items() if b}


@st.composite
def graphs(draw):
    """A graph on 1-8 vertices, each edge added with either endpoint first;
    isolated vertices and several components are common."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    b = ComplexBuilder(n)
    if pairs:  # a single vertex has none
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
            b.add_edge(*((u, v) if draw(st.booleans()) else (v, u)))
    return b.build()


@st.composite
def restricted_dissections(draw):
    """A chorded n-gon or its pyramid, 3 <= n <= 9, restricted to a vertex
    subset, so that several components may carry 2- and 3-cells."""
    n = draw(st.integers(3, 9))
    X = subdivided_polygon(n, draw(chords_of(n)))
    if draw(st.booleans()):
        X = pyramid(X)
    return restrict(X, draw(st.sets(st.integers(0, X.n_vertices - 1))))


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(), restricted_dissections()))
def test_component_count_matches_eliminating_every_map(X):
    for field in (GF2, RATIONAL):
        assert reduced_homology(X, field).reduced_betti == eliminated_betti(X, field)


def test_rational_homology_of_the_fan_2000_gon_is_quick():
    X = fan_polygon(2000)
    start = time.perf_counter()
    report = reduced_homology(X, RATIONAL)
    assert time.perf_counter() - start < 1
    assert report.acyclic


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 10).flatmap(lambda n: st.tuples(
    st.just(n), chords_of(n), st.lists(st.booleans(), min_size=3 * n,
                                       max_size=3 * n))))
def test_polygons_over_edges_added_either_way_are_valid(drawn):
    n, chords, flips = drawn
    b = ComplexBuilder(n)
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    for (u, v), flip in zip(edges, flips):
        b.add_edge(*((v, u) if flip else (u, v)))
    for region, flip in zip(_region_cycles(n, chords), flips[2 * n:]):
        b.add_polygon(region[::-1] if flip else region)
    X = b.build()
    assert X.fully_signed() and validate_complex(X) == []
    # add_edge orients each edge as assign_signs does
    assert X.cells[:n + len(chords)] == assign_signs(X).cells[:n + len(chords)]
    assert reduced_homology(X, RATIONAL).acyclic


def test_euler_characteristic_matches_homology():
    # chi = 1 + sum (-1)^i  reduced_betti_i for every complex here
    for X in (polygon_complex(5), cycle_complex(6), bipyramid_complex(3),
              pyramid(polygon_complex(4))):
        betti = reduced_homology(X, RATIONAL).reduced_betti
        alt = sum((-1) ** i * r for i, r in betti.items() if i >= 0)
        extra = betti.get(-1, 0)
        assert sum((-1) ** c.dim for c in X.cells) == 1 - extra + alt


def test_sign_assignment_roundtrip():
    for X in (wheel_polytope(4), elongated_pyramid(polygon_complex(5)),
              bipyramid_complex(4), pyramid(polygon_complex(6))):
        assert X.fully_signed()
        assert validate_complex(X) == []
        redone = assign_signs(strip_signs(X))
        assert redone.fully_signed()
        assert validate_complex(redone) == []


def test_sign_assignment_refuses_the_hemicube():
    # K4 with its three 4-cycles as 2-cells is the projective plane; a
    # 3-cell over it passes every combinatorial check, but a non-orientable
    # boundary admits no signs with vanishing composite
    b = ComplexBuilder(4)
    edge = {e: b.add_cell(1, e, ((e[0], 0), (e[1], 0)))
            for e in itertools.combinations(range(4), 2)}
    squares = []
    for cyc in ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)):
        sides = [tuple(sorted(p)) for p in zip(cyc, cyc[1:] + cyc[:1])]
        squares.append(b.add_cell(2, cyc, tuple((edge[s], 0) for s in sides)))
    b.add_cell(3, range(4), tuple((q, 0) for q in squares))
    X = b.build()
    assert validate_complex(X) == []
    with pytest.raises(SignConflictError, match=(
            "cell 13: faces 4 and 9 force opposite relative signs "
            "between boundary cells 10 and 11")):
        assign_signs(X)


@st.composite
def complexes_to_sign(draw):
    """A chorded n-gon, 3 <= n <= 8, or its pyramid or double pyramid, or
    an elongated pyramid over the bare n-gon or its pyramid; taken as
    built, with its signs stripped, or with every boundary reordered."""
    n = draw(st.integers(3, 8))
    if draw(st.booleans()):
        X = subdivided_polygon(n, draw(chords_of(n)))
        for _ in range(draw(st.integers(0, 2))):
            X = pyramid(X)
    else:  # an elongated pyramid needs a single top cell
        X = polygon_complex(n)
        if draw(st.booleans()):
            X = pyramid(X)
        X = elongated_pyramid(X)
    way = draw(st.sampled_from(("built", "stripped", "shuffled")))
    if way == "stripped":
        return strip_signs(X)
    if way == "shuffled":
        rng = draw(st.randoms(use_true_random=False))
        return CellComplex(X.n_vertices, tuple(
            Cell(c.id, c.dim, c.vertices,
                 tuple(rng.sample(c.boundary, len(c.boundary))))
            for c in X.cells))
    return X


@settings(max_examples=150, deadline=None)
@given(complexes_to_sign())
def test_sign_assignment_matches_the_reference_solver(X):
    assert assign_signs(X) == reference_assign_signs(X)


def test_sign_assignment_refuses_an_odd_cycle_of_diamonds():
    # a 3-cell bounded by the 6-vertex projective plane: no two of its
    # triangles share two edges, so no pair of faces conflicts, and the
    # walk meets the conflict on a cycle of diamonds
    P = projective_plane()
    top = Cell(len(P.cells), 3, frozenset(range(6)),
               tuple((c.id, 0) for c in P.cells_of_dim(2)))
    X = CellComplex(6, P.cells + (top,))
    assert validate_complex(X) == []
    for solve in (assign_signs, reference_assign_signs):
        with pytest.raises(SignConflictError,
                           match="^cell 31: diamond at face .* admits no "
                                 "consistent signs$"):
            solve(X)


def test_sign_assignment_refuses_edges_and_faces_off_two_cells():
    b = ComplexBuilder(2)
    b.add_cell(1, (0, 1), ((0, 0),))
    with pytest.raises(ComplexError, match="^edge 2 has 1 boundary cells$"):
        assign_signs(b.build())
    # the square without its last side: vertices 0 and 3 lie under one side
    b = ComplexBuilder(4)
    sides = [b.add_edge(v, v + 1) for v in range(3)]
    b.add_cell(2, range(4), [(e, 0) for e in sides])
    with pytest.raises(ComplexError, match=(
            "^cell 7: face 0 lies under 1 boundary cells, expected 2$")):
        assign_signs(b.build())


def test_polytope_recognition():
    assert not is_polytope_complex(CellComplex(0, ()))
    assert is_polytope_complex(polygon_complex(5))
    assert is_polytope_complex(wheel_polytope(4))
    assert is_polytope_complex(bipyramid_complex(3))
    assert is_polytope_complex(pyramid(polygon_complex(4)))
    assert not is_polytope_complex(cycle_complex(5))
    assert not is_polytope_complex(tree_complex(edges_to_tree(3, [(0, 1), (1, 2)])))
    # two top cells sharing only part of their boundary
    assert not is_polytope_complex(chord_complex(6, 2))


def test_f_vector_symmetry():
    assert wheel_polytope(4).f_vector() == (9, 16, 9, 1)
    assert f_symmetry(wheel_polytope(4))
    assert bipyramid_complex(3).f_vector() == (5, 9, 6, 1)
    assert not f_symmetry(bipyramid_complex(3))
    assert f_symmetry(polygon_complex(9))
    # the void complex has no f-vector, and a chord splits the top cell
    assert not f_symmetry(CellComplex(0, ()))
    assert chord_complex(6, 3).f_vector() == (6, 7, 2)
    assert not f_symmetry(chord_complex(6, 3))


SMALL = st.integers(-3, 3)
# entries near +-10^9, and zeros so that some rows are sparse
HUGE = st.one_of(st.just(0), st.integers(10 ** 9 - 3, 10 ** 9 + 3),
                 st.integers(-10 ** 9 - 3, -10 ** 9 + 3))


def dense_matrices(entries):
    return st.integers(0, 8).flatmap(lambda nc: st.lists(
        st.lists(entries, min_size=nc, max_size=nc), max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.one_of(dense_matrices(SMALL), dense_matrices(HUGE)), st.booleans())
def test_matrix_rank_matches_dense_elimination(rows, dependent):
    if dependent and len(rows) >= 2:
        # a row in the span of two others, so that huge draws lose rank too
        rows = rows + [[3 * x - 2 * y for x, y in zip(rows[0], rows[1])]]
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    assert matrix_rank(sparse, RATIONAL) == fraction_free_rank(rows)
    assert matrix_rank(sparse, GF2) == dense_gf2_rank(rows)


def test_field_spec_accepts_only_gf2_and_the_rationals():
    assert FieldSpec(2) == GF2 and FieldSpec(0) == RATIONAL
    with pytest.raises(ValueError):
        FieldSpec(3)
    rows = [[(0, 1), (1, 1)], [(0, 1), (1, -1)], [(1, 2), (2, 2)]]
    assert matrix_rank(rows, RATIONAL) == 3
    assert matrix_rank(rows, GF2) == 1
    assert matrix_rank([], GF2) == matrix_rank([[]], RATIONAL) == 0
