"""Monomial labellings, vertex families, reduction and refinement."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellres
import cellres.search
from cellres.constructions import fixture, fixture_catalogue, polygon_family
from cellres.monomials import (
    UNION_LIMIT,
    FamilyError,
    GuardExceeded,
    LabellingError,
    Refinement,
    family,
    family_of,
    is_disjoint_union_of,
    labelling,
    labelling_of,
    lcm_lattice,
    monomial,
    morphism_exists,
    polarize,
    reduce_family,
    refinement_compare,
    refines,
    subfamily_unions,
)


def test_monomial_basics():
    m = monomial(2, 0, 1)
    assert m.degree == 3
    assert m.support() == {0, 2}
    assert not m.is_squarefree()
    assert m.divides(monomial(2, 1, 1))
    assert not m.divides(monomial(1, 3, 3))
    assert m.join(monomial(0, 2, 1)).exponents == (2, 2, 1)


def test_labelling_rejects_divisibility():
    with pytest.raises(LabellingError):
        labelling(3, [(1, 1, 0), (1, 1, 1)])


def test_labelling_rejects_unused_variable():
    with pytest.raises(LabellingError,
                       match="^variable 2 occurs in no label$"):
        labelling(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(LabellingError,
                       match="^variable 1 occurs in no label, "
                             "nor do 3 more variables$"):
        labelling(5, [(1, 0, 0, 0, 0)])


def test_labelling_rejects_negative_exponent():
    with pytest.raises(LabellingError):
        labelling(2, [(1, 0), (0, -1)])


def test_family_rejects_empty_member():
    with pytest.raises(FamilyError):
        family(3, [set(), {0}])


def test_family_of_reads_variable_supports():
    L = labelling(4, [(1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1)])
    F = family_of(L)
    assert sorted(sorted(s) for s in F.sets) == [[0], [0, 1], [1, 2], [2]]


def test_labelling_of_family_roundtrip():
    F = family(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}])
    G = family_of(labelling_of(F))
    assert G.same_family(F)


def test_labelling_of_rejects_nested_vertex_memberships():
    # vertex 0 lies in a strict subset of the members containing vertex 1,
    # so its induced label would divide the other's
    with pytest.raises(LabellingError):
        labelling_of(family(4, [{0, 1}, {2}, {1, 2, 3}]))


@settings(max_examples=80, deadline=None)
@given(st.sets(st.frozensets(st.integers(0, 4), min_size=1), min_size=1,
               max_size=6))
def test_roundtrip_holds_whenever_the_labelling_exists(sets):
    F = family(5, sets)
    try:
        L = labelling_of(F)
    except (LabellingError, FamilyError):
        # uncovered vertex, or nested memberships that break the label
        # antichain; no labelling corresponds to such a family
        return
    assert family_of(L).same_family(F)


def test_polarize_splits_powers():
    L = labelling(2, [(2, 0), (1, 1), (0, 2)])
    P = polarize(L)
    assert P.n_variables == 4
    assert [m.exponents for m in P.labels] == [
        (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1)]
    assert P.is_squarefree()


def test_polarize_fixes_squarefree_labellings():
    L = labelling(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    P = polarize(L)
    assert [m.exponents for m in P.labels] == [m.exponents for m in L.labels]


def test_polarize_refuses_past_the_union_limit():
    top = polarize(labelling(2, [(UNION_LIMIT - 1, 0), (0, 1)]))
    assert top.n_variables == UNION_LIMIT
    with pytest.raises(GuardExceeded, match=f"{UNION_LIMIT + 1} variables"):
        polarize(labelling(2, [(UNION_LIMIT, 0), (0, 1)]))


def test_lcm_lattice_is_join_closed():
    L = labelling(2, [(2, 0), (1, 1), (0, 2)])
    lat = lcm_lattice(L)
    assert sorted(lat.points) == [
        (0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    for a, b in itertools.combinations(lat.points, 2):
        join = tuple(max(x, y) for x, y in zip(a, b))
        assert join in lat.points

    # the points are exactly the lcms of the nonempty subsets of labels
    labellings = [fixture(fid)[1] for fid in fixture_catalogue()]
    labellings.append(labelling_of(polygon_family(11)))
    for L in labellings:
        lcms = set()
        for m in L.labels:
            lcms |= {tuple(map(max, p, m.exponents)) for p in lcms}
            lcms.add(m.exponents)
        assert lcm_lattice(L).points == lcms


def test_union_closure_guard():
    # 16 singletons close to exactly 2^16 unions, the empty one included
    singles = [1 << v for v in range(16)]
    assert len(subfamily_unions(singles)) == 1 << 16 <= UNION_LIMIT
    # the first k singletons with 2^k > UNION_LIMIT are refused
    too_many = [1 << v for v in range(UNION_LIMIT.bit_length())]
    with pytest.raises(GuardExceeded):
        subfamily_unions(too_many)
    assert cellres.GuardExceeded is cellres.search.GuardExceeded \
        is GuardExceeded


def test_exact_cover_uses_parts_in_any_order():
    # the target needs the later part first: {0,1,4} = {0,1} | {4}
    assert is_disjoint_union_of({0, 1, 4}, [{0}, {4}, {0, 1}])
    assert not is_disjoint_union_of({0, 1, 4}, [{0, 1}, {1, 4}])
    assert not is_disjoint_union_of({0, 2}, [{0, 1}, {2}])


def test_reduce_family_drops_disjoint_unions():
    F = family(4, [{0}, {1}, {0, 1}, {2, 3}, {0, 1, 2, 3}])
    R = reduce_family(F)
    assert sorted(sorted(s) for s in R.sets) == [[0], [1], [2, 3]]


def brute_force_reduce(F):
    keep = []
    members = list(F.sets)
    for s in members:
        others = [t for t in members if t != s]
        decomposable = False
        for k in range(2, len(others) + 1):
            for combo in itertools.combinations(others, k):
                if sum(len(t) for t in combo) != len(s):
                    continue
                union = frozenset().union(*combo)
                if union == s:
                    decomposable = True
                    break
            if decomposable:
                break
        if not decomposable:
            keep.append(s)
    return keep


@settings(max_examples=80, deadline=None)
@given(st.sets(st.frozensets(st.integers(0, 5), min_size=1), min_size=1,
               max_size=7))
def test_reduce_matches_brute_force_and_is_idempotent(sets):
    F = family(6, sets)
    R = reduce_family(F)
    assert sorted(map(sorted, R.sets)) == sorted(map(sorted, brute_force_reduce(F)))
    assert reduce_family(R).same_family(R)


def test_refinement_comparisons():
    fine = family(4, [{0}, {1}, {2}, {3}])
    coarse = family(4, [{0, 1}, {2, 3}])
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    assert refinement_compare(fine, coarse) is Refinement.FINER
    assert refinement_compare(coarse, fine) is Refinement.COARSER
    assert refinement_compare(fine, fine) is Refinement.EQUAL
    other = family(4, [{0, 2}, {1, 3}])
    assert refinement_compare(coarse, other) is Refinement.INCOMPARABLE


def test_refines_requires_every_member_to_split():
    F = family(5, [{0, 1}, {2}, {3}, {4}])
    G = family(5, [{0, 1, 2}, {3, 4}])
    assert refines(F, G)
    H = family(5, [{0, 2}, {3, 4}])
    assert not refines(F, H)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.frozensets(st.integers(0, 4), min_size=1), min_size=1,
               max_size=5),
       st.sets(st.frozensets(st.integers(0, 4), min_size=1), min_size=1,
               max_size=5))
def test_mutual_refinement_of_reduced_families_means_equality(a, b):
    F = reduce_family(family(5, a))
    G = reduce_family(family(5, b))
    if refines(F, G) and refines(G, F):
        assert F.same_family(G)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.frozensets(st.integers(0, 3), min_size=1),
                        min_size=1, max_size=4),
                min_size=3, max_size=3))
def test_refinement_is_transitive(triple):
    F, G, H = (family(4, s) for s in triple)
    if refines(F, G) and refines(G, H):
        assert refines(F, H)


def test_morphism_follows_refinement():
    F = family(4, [{0}, {1}, {2}, {3}, {0, 1}])
    G = family(4, [{0, 1}, {2, 3}])
    assert morphism_exists(F, G)
    assert not morphism_exists(G, F)
