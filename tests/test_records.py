"""The record types: validation, immutability, repr, equality and hash."""

import pytest

from cellres.complexes import (
    Cell,
    CellComplex,
    ComplexError,
    HomologyReport,
    reduced_homology,
)
from cellres.constructions import (
    OrientedTree,
    edges_to_tree,
    polygon_complex,
    polygon_family,
    subdivided_polygon,
)
from cellres.linalg import GF2, FieldSpec
from cellres.monomials import (
    FamilyError,
    LabellingError,
    Monomial,
    MonomialLabelling,
    VertexFamily,
    family,
    labelling,
    lcm_lattice,
    monomial,
)
from cellres.resolution import (
    CellularFreeComplex,
    CmVerdict,
    FamilyCriteriaReport,
    build_free_complex,
    check_cm_labelling,
    check_family_criteria,
)
from cellres.search import (
    ConjectureReport,
    MaximalityReport,
    SearchSpace,
    is_maximal,
)
from cellres.serialize import complex_from_dict, complex_to_dict

SQUARES = [(2, 0), (1, 1), (0, 2)]


@pytest.mark.parametrize("build,error,message", [
    (lambda: monomial(1, -1), LabellingError, "negative exponent"),
    (lambda: labelling(2, [(1,), (0, 1)]), LabellingError,
     "label (1,) does not have 2 exponents"),
    (lambda: labelling(2, [(1, 0), (1, 1)]), LabellingError,
     "label at vertex 0 divides label at vertex 1"),
    (lambda: family(3, [{0}, set()]), FamilyError, "empty member set"),
    (lambda: family(3, [{0}, {0}]), FamilyError, "member [0] repeated"),
    (lambda: FieldSpec(3), ValueError, "characteristic must be 0 or 2, got 3"),
    (lambda: OrientedTree(4, ((0, 1), (1, 2), (0, 2))), ComplexError,
     "edges contain a cycle"),
])
def test_a_validating_constructor_raises_as_before(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_validating_constructors_take_their_fields_by_keyword():
    assert VertexFamily(n=2, sets=(frozenset({0}),)) == family(2, [{0}])
    assert Monomial(exponents=(1, 0)) == monomial(1, 0)
    assert FieldSpec() == GF2 and FieldSpec(characteristic=0).is_rational
    assert OrientedTree(n=2, edges=((0, 1),)) == edges_to_tree(2, [(1, 0)])
    assert (MonomialLabelling(n_variables=2, labels=(monomial(1, 0),
                                                     monomial(0, 1)))
            == labelling(2, [(1, 0), (0, 1)]))


def _records():
    X = polygon_complex(3)
    L = labelling(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    F = polygon_family(5)
    P = polygon_complex(5)
    return [
        X.cells[0], X, reduced_homology(X), GF2, monomial(1, 0), L,
        family(2, [{0}]), edges_to_tree(2, [(0, 1)]),
        check_family_criteria(P, F), check_cm_labelling(X, L),
        build_free_complex(X, L), SearchSpace(), is_maximal(P, F),
        ConjectureReport("selfdual", (), ()),
    ]


def test_every_record_type_is_covered():
    types = {type(r) for r in _records()}
    assert types == {
        Cell, CellComplex, HomologyReport, FieldSpec, Monomial,
        MonomialLabelling, VertexFamily, OrientedTree, FamilyCriteriaReport,
        CmVerdict, CellularFreeComplex, SearchSpace, MaximalityReport,
        ConjectureReport}


@pytest.mark.parametrize("rec", _records(), ids=lambda r: type(r).__name__)
def test_assigning_to_a_field_raises(rec):
    for name in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


@pytest.mark.parametrize("rec", [r for r in _records()
                                 if not isinstance(r, MonomialLabelling)],
                         ids=lambda r: type(r).__name__)
def test_a_record_takes_no_new_attributes(rec):
    with pytest.raises(AttributeError):
        rec.extra = None


def test_a_replaced_labelling_is_validated_and_keeps_its_levels():
    L = labelling(2, SQUARES)
    M = L._replace(labels=L.labels[:2])
    assert M == labelling(2, SQUARES[:2])
    assert M._levels == labelling(2, SQUARES[:2])._levels
    with pytest.raises(LabellingError, match="^label at vertex 0 divides"):
        L._replace(labels=(monomial(1, 0), monomial(1, 1)))


def test_the_lattice_length_is_its_point_count():
    lat = lcm_lattice(labelling(2, SQUARES))
    assert lat.keys() == {(2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)}
    assert len(lat) == 6


def test_the_repr_of_a_record_is_unchanged():
    assert repr(polygon_complex(3).cells[3]) == (
        "Cell(id=3, dim=1, vertices=frozenset({0, 1}), "
        "boundary=((1, 1), (0, -1)))")
    L = labelling(2, SQUARES)
    assert L._levels
    assert repr(L) == (
        "MonomialLabelling(n_variables=2, labels=(Monomial(exponents=(2, 0)), "
        "Monomial(exponents=(1, 1)), Monomial(exponents=(0, 2))))")
    assert repr(MaximalityReport(False, extension=frozenset({0, 1}))) == (
        "MaximalityReport(is_maximal=False, extension=frozenset({0, 1}), "
        "decomposable=None)")


def test_equal_records_built_apart_compare_and_hash_alike():
    X = subdivided_polygon(6, ((1, 5), (3, 5)))
    Y = complex_from_dict(complex_to_dict(subdivided_polygon(6, ((1, 5), (3, 5)))))
    assert X is not Y and X == Y and hash(X) == hash(Y)
    L, M = labelling(2, SQUARES), labelling(2, list(SQUARES))
    assert L == M and hash(L) == hash(M)
    assert polygon_complex(5) != polygon_complex(6)
