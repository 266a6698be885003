"""Cell complex plumbing: validation, restriction, homology, signs."""

import itertools

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
    euler_characteristic,
    is_polytope_complex,
    reduced_homology,
    restrict,
    strip_signs,
    validate_complex,
)
from cellres.constructions import (
    bipyramid_complex,
    chord_complex,
    edges_to_tree,
    elongated_pyramid,
    polygon_complex,
    pyramid,
    subdivided_polygon,
    tree_complex,
    wheel_polytope,
)
from cellres.linalg import GF2, RATIONAL, FieldSpec, matrix_rank
from cellres.resolution import f_symmetry


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


def test_euler_characteristic_matches_homology():
    # chi = 1 + sum (-1)^i  reduced_betti_i for every complex here
    for X in (polygon_complex(5), cycle_complex(6), bipyramid_complex(3),
              pyramid(polygon_complex(4))):
        betti = reduced_homology(X, RATIONAL).reduced_betti
        alt = sum((-1) ** i * r for i, r in betti.items() if i >= 0)
        extra = betti.get(-1, 0)
        assert euler_characteristic(X) == 1 - extra + alt


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


def test_polytope_recognition():
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


def test_field_spec_accepts_only_gf2_and_the_rationals():
    assert FieldSpec(2) == GF2 and FieldSpec(0) == RATIONAL
    with pytest.raises(ValueError):
        FieldSpec(3)
    rows = [[1, 1, 0], [1, -1, 0], [0, 2, 2]]
    assert matrix_rank(rows, RATIONAL) == 3
    assert matrix_rank(rows, GF2) == 1
    assert matrix_rank([], GF2) == matrix_rank([[]], RATIONAL) == 0
