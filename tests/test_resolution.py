"""Resolution checks: acyclicity oracle, CM verdicts, free complexes, strands."""

import functools
import itertools
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellres.resolution as resolution
from cellres.complexes import (
    ComplexBuilder,
    assign_signs,
    reduced_homology,
    restrict,
    validate_complex,
)
from cellres.constructions import (
    _lcm_degree_table,
    all_arcs,
    bipyramid_complex,
    chord_complex,
    chord_families,
    edges_to_tree,
    elongated_pyramid,
    fixture,
    fixture_catalogue,
    polygon_complex,
    polygon_family,
    pyramid,
    subdivided_polygon,
    tree_complex,
    wheel_polytope,
)
from cellres.linalg import GF2, RATIONAL
from cellres.monomials import (
    FamilyError,
    GuardExceeded,
    LabellingError,
    Monomial,
    family,
    family_of,
    labelling,
    labelling_of,
    lcm_lattice,
    mask_of,
    polarize,
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
    cover_unions,
    multidegree,
)
from cellres.search import (
    SearchSpace,
    any_valid_family,
    enumerate_valid_families,
    is_maximal,
)
from cellres.serialize import (
    SerializationError,
    complex_from_dict,
    complex_to_dict,
)
from reference_lattice import (
    divides,
    divisibility_mask,
    reference_check_cellular_resolution,
    reference_check_minimal,
    reference_codimension,
    reference_family_of,
    reference_lcm_degree_table,
    reference_lcm_lattice,
    reference_multidegree,
    reference_polarize,
)
from reference_search import (
    candidate_masks,
    composition_is_zero,
    covering_property_check,
    reference_cover_witness,
    reference_family_criteria,
    strand_matches_homology,
)
from test_acceptance import TWELVE_GON_SIXTEEN
from test_search import chords_of, polygons_with_chords, search_complexes


def strand_oracle(X, L, b, field=GF2) -> bool:
    """Build the free complex and compare one strand against homology."""
    fc = build_free_complex(X, L)
    return strand_matches_homology(fc, X, b, field)


def corrupt_one_sign(fc):
    """Flip the first sign of the last map of a free complex."""
    maps = list(fc.maps)
    for i in reversed(range(len(maps))):
        for j, col in enumerate(maps[i]):
            if col:
                (r, s, q), *rest = col
                cols = list(maps[i])
                cols[j] = ((r, -s, q), *rest)
                maps[i] = tuple(cols)
                return fc._replace(maps=tuple(maps))
    return fc


def path_on_three():
    return tree_complex(edges_to_tree(3, [(0, 1), (1, 2)]))


def star_on_three():
    return tree_complex(edges_to_tree(3, [(0, 1), (0, 2)]))


# the six-vertex real projective plane: a cone from 0 over the pentagon
# 1..5, closed up by the five triangles on the pentagram's edges
PROJECTIVE_PLANE = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
                    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3))


def projective_plane():
    """Signed 10-triangle RP^2: H_1 and H_2 are GF(2), nothing over Q."""
    b = ComplexBuilder(6)
    edge = {}
    for t in PROJECTIVE_PLANE:
        for e in itertools.combinations(sorted(t), 2):
            if e not in edge:
                edge[e] = b.add_cell(1, e, ((e[0], 0), (e[1], 0)))
    for t in PROJECTIVE_PLANE:
        b.add_cell(2, t, tuple((edge[e], 0)
                               for e in itertools.combinations(sorted(t), 2)))
    return assign_signs(b.build())


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
    assert composition_is_zero(fc)


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


def test_a_unit_vertex_label_is_not_minimal():
    # one vertex labelled 1 in no variables: a unit entry in the first map
    X = tree_complex(edges_to_tree(1, []))
    assert check_minimal(X, labelling(0, [()])) == (False, (None, 0))


def test_multidegree_is_the_label_join():
    L = squares_labelling()
    assert multidegree(L, (0, 1)).exponents == (2, 1)
    assert multidegree(L, (0, 1, 2)).exponents == (2, 2)
    assert multidegree(L, ()).exponents == (0, 0)


@pytest.mark.parametrize("vertices, bad", [((0, 3, 5), 3), ((1, -1, 9), -1)])
def test_multidegree_names_the_first_vertex_out_of_range(vertices, bad):
    with pytest.raises(LabellingError,
                       match=f"^vertex {bad} is out of range for 3 labels$"):
        multidegree(squares_labelling(), vertices)


def test_codimension_counts_minimal_variable_cover():
    assert codimension(squares_labelling()) == 2
    L = labelling(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert codimension(L) == 2
    assert codimension(labelling(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 3


def test_least_member_cover_matches_labelling_codimension():
    for F in (polygon_family(5), *chord_families(5, 2), *chord_families(6, 3)):
        universe = (1 << F.n) - 1
        assert (resolution._minimum_cover_size(universe, F.member_masks())
                == codimension(labelling_of(F)))


def least_cover_size(universe, masks):
    """Fewest masks whose union holds universe, by trying every subset."""
    for k in range(len(masks) + 1):
        if any(u & universe == universe for u in cover_unions(0, masks, k)):
            return k
    return None


def random_masks(rng, n):
    """Up to 12 distinct nonempty vertex masks of one seeded density."""
    p = rng.choice((0.2, 0.35, 0.5))
    masks = (mask_of(v for v in range(n) if rng.random() < p)
             for _ in range(rng.randint(1, 12)))
    return sorted({m for m in masks if m})


def test_codimension_is_the_least_cover():
    rng = random.Random(20261018)
    largest = 0
    for _ in range(3000):
        n = rng.randint(1, 9)
        masks = random_masks(rng, n)
        want = least_cover_size((1 << n) - 1, masks)
        largest = max(largest, want or 0)
        assert resolution._minimum_cover_size((1 << n) - 1, masks) == want
        # the masks as variable supports, with exponents 1 or 2
        rows = [tuple(rng.randint(1, 2) if m >> v & 1 else 0 for m in masks)
                for v in range(n)]
        try:
            L = labelling(len(masks), rows)
        except LabellingError:
            continue
        if want is None:
            with pytest.raises(FamilyError):
                codimension(L)
        else:
            assert codimension(L) == want
    assert largest >= 5
    # the seeded draws that form labellings have least covers of at most 4;
    # cycle labellings, label i = x_i x_(i+1 mod n), reach 5 and 6
    for n, cover in ((9, 5), (10, 5), (11, 6), (12, 6)):
        rows = [tuple(int(p in (i, (i + 1) % n)) for p in range(n))
                for i in range(n)]
        masks = [mask_of(i for i in range(n) if rows[i][p]) for p in range(n)]
        assert least_cover_size((1 << n) - 1, masks) == cover
        assert codimension(labelling(n, rows)) == cover


def test_codimension_of_many_singletons_is_quick():
    singletons = [1 << v for v in range(40)]
    start = time.perf_counter()
    assert resolution._minimum_cover_size((1 << 40) - 1, singletons) == 40
    assert time.perf_counter() - start < 0.05


def test_codimension_of_400_unit_monomials_has_no_recursion_limit():
    # one variable per vertex: the cover is 400 masks deep
    n = 400
    L = labelling(n, [tuple(int(i == v) for i in range(n)) for v in range(n)])
    assert codimension(L) == n


def test_all_pairs_cover_on_14_vertices_is_quick():
    # one mask per vertex pair; a perfect matching is a least cover
    n = 14
    masks = [mask_of(p) for p in itertools.combinations(range(n), 2)]
    start = time.perf_counter()
    assert resolution._minimum_cover_size((1 << n) - 1, masks) == n // 2
    assert time.perf_counter() - start < 0.5


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
           st.integers(0, (1 << n) - 1),
           st.lists(st.integers(1, (1 << n) - 1), max_size=10, unique=True),
           st.sampled_from([None, 0, 1, 2, 3, 4]))))
def test_minimum_cover_size_matches_the_subset_scan(case):
    universe, masks, limit = case
    want = least_cover_size(universe, masks)
    if want is not None and limit is not None and want > limit:
        want = None
    assert resolution._minimum_cover_size(universe, masks, limit) == want


class CountedPasses(list):
    """A list that counts the passes made over it."""
    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_minimum_cover_size_builds_no_level_past_its_limit():
    # three singletons need all three; one pass over the masks finds that
    # they cover the universe, and each size below the limit takes one more
    # pass to grow its partial covers
    for limit in range(3):
        masks = CountedPasses([1, 2, 4])
        assert resolution._minimum_cover_size(0b111, masks, limit) is None
        assert masks.passes == 1 + limit
    masks = CountedPasses([1, 2, 4])
    assert resolution._minimum_cover_size(0b111, masks, 3) == 3
    assert masks.passes == 4


def test_a_unit_label_leaves_no_cover():
    with pytest.raises(FamilyError, match="unit monomial"):
        codimension(labelling(0, [()]))


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
              bipyramid_complex(4), subdivided_polygon(6, ((1, 5), (3, 5))),
              projective_plane(), wheel_polytope(4),
              elongated_pyramid(polygon_complex(3))):
        for field in (GF2, RATIONAL):
            oracle = AcyclicityOracle(X, field)
            for mask in range(1 << X.n_vertices):
                assert_oracle_matches_homology(oracle, mask)


def assert_oracle_matches_homology(oracle, mask):
    restriction = restrict(oracle.X, set_of(mask))
    assert oracle.is_acyclic(mask) == \
        reduced_homology(restriction, oracle.field).acyclic, mask


def test_projective_plane_is_acyclic_over_q_only():
    P = projective_plane()
    assert P.f_vector() == (6, 15, 10)
    assert reduced_homology(P, GF2).reduced_betti == {1: 1, 2: 1}
    full = (1 << 6) - 1
    assert not AcyclicityOracle(P, GF2).is_acyclic(full)
    assert AcyclicityOracle(P, RATIONAL).is_acyclic(full)


def test_oracle_refuses_a_disconnected_graph_by_connectivity(monkeypatch):
    # a 4-cycle plus an isolated vertex has reduced Euler characteristic
    # 0, so the Euler count passes it and only connectivity refuses it
    b = ComplexBuilder(5)
    for i in range(4):
        b.add_cell(1, (i, (i + 1) % 4),
                   ((max(i, (i + 1) % 4), 1), (min(i, (i + 1) % 4), -1)))
    X = b.build()
    assert validate_complex(X) == []
    answers = []
    connected = resolution.is_connected
    monkeypatch.setattr(resolution, "is_connected",
                        lambda *a: answers.append(connected(*a)) or answers[-1])
    for field in (GF2, RATIONAL):
        assert reduced_homology(X, field).reduced_betti == {0: 1, 1: 1}
        assert_oracle_matches_homology(AcyclicityOracle(X, field), 0b11111)
    assert answers == [False, False]


def test_oversized_family_is_refused_before_the_cover_bound_scan(
        monkeypatch):
    def scan(*args):
        raise AssertionError("the cover bound was scanned before the guard")

    monkeypatch.setattr(resolution, "cover_unions", scan)
    monkeypatch.setattr(resolution, "_minimum_cover_size", scan)
    X = pyramid(polygon_complex(17))
    assert X.dim == 3
    # 17 singletons have 2^17 unions, past the 2^16 the guard allows
    with pytest.raises(GuardExceeded):
        check_family_criteria(X, family(18, [{v} for v in range(17)]))


@st.composite
def random_cover_cases(draw):
    """Up to 12 distinct nonempty vertex masks on 1 to 9 vertices, the full
    mask, and a dimension d from 1 to 4."""
    full = (1 << draw(st.integers(1, 9))) - 1
    masks = draw(st.lists(st.integers(1, full), max_size=12, unique=True))
    return masks, full, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(random_cover_cases())
def test_cover_closure_matches_the_subset_scan(case):
    # the witness is None exactly when the cover bound holds
    masks, full, d = case
    assert (resolution._cover_witness(masks, full, d)
            == reference_cover_witness(masks, full, d))


def test_cover_bound_of_nested_members_is_quick(monkeypatch):
    # the 150 nested sets {0..k} on the pyramid over the 150-gon have 151
    # unions and none holds the apex, so no triple is scanned (551,300
    # triples, about 0.3 s, when each was)
    X = pyramid(polygon_complex(150))
    nested = [set(range(k + 1)) for k in range(150)]

    def scan(*args):
        raise AssertionError("the triples were scanned, yet none covers")

    with monkeypatch.context() as patched:
        patched.setattr(resolution, "cover_unions", scan)
        start = time.perf_counter()
        rep = check_family_criteria(X, family(151, nested))
        assert time.perf_counter() - start < 0.15
    assert rep.cover_bound and rep.cover_witness is None
    # with the apex as a member the first covering triple is reported
    rep = check_family_criteria(X, family(151, [*nested, {150}]))
    assert not rep.cover_bound and rep.cover_witness == (0, 149, 150)


def test_a_passed_oracle_must_answer_for_the_complex_and_field():
    # RP^2 is acyclic over Q only, so a GF(2) oracle would answer a
    # rational question wrongly
    P = projective_plane()
    F = family(6, [{v} for v in range(6)])
    assert check_family_criteria(P, F, GF2).union_witness == frozenset()
    assert check_family_criteria(P, F, RATIONAL).union_witness == {0}
    L = labelling_of(F)
    calls = [
        lambda o: check_family_criteria(P, F, RATIONAL, o),
        lambda o: check_cellular_resolution(P, L, RATIONAL, o),
        lambda o: check_cm_labelling(P, L, RATIONAL, o),
        lambda o: enumerate_valid_families(P, None, RATIONAL, o),
        lambda o: any_valid_family(P, None, RATIONAL, o),
        lambda o: is_maximal(P, F, RATIONAL, o),
        lambda o: covering_property_check(P, F, RATIONAL, o),
    ]
    for call in calls:
        for oracle in (AcyclicityOracle(P, GF2),
                       AcyclicityOracle(pyramid(polygon_complex(5)),
                                        RATIONAL)):
            with pytest.raises(ValueError, match="oracle must answer"):
                call(oracle)
    # an equal complex built apart is the same complex
    again = AcyclicityOracle(projective_plane(), RATIONAL)
    assert check_family_criteria(P, F, RATIONAL, again).union_witness == {0}


def test_is_maximal_refuses_a_criteria_report_over_another_field():
    # RP^2 is acyclic over Q only: this family passes over Q and fails
    # over GF(2), where the whole complex is not acyclic
    P = projective_plane()
    F = any_valid_family(P, None, RATIONAL)
    over_q = check_family_criteria(P, F, RATIONAL)
    over_gf2 = check_family_criteria(P, F, GF2)
    assert over_q.ok and not over_gf2.ok
    assert is_maximal(P, F, RATIONAL, criteria=over_q) == is_maximal(
        P, F, RATIONAL)
    with pytest.raises(FamilyError):
        is_maximal(P, F, GF2)
    for field, criteria in ((GF2, over_q), (RATIONAL, over_gf2)):
        with pytest.raises(ValueError, match="criteria report"):
            is_maximal(P, F, field, criteria=criteria)


def test_rational_existence_search_needs_no_exact_elimination(monkeypatch):
    # the pyramid over the 8-gon admits no valid family, so the search
    # exhausts its tree; every cone it asks about is acyclic over GF(2)
    # already, so the rational search asks the same questions and never
    # eliminates over Q
    X = pyramid(polygon_complex(8))
    calls = []
    betti = resolution.reduced_betti
    monkeypatch.setattr(resolution, "reduced_betti",
                        lambda *a: calls.append(a) or betti(*a))
    misses = {}
    for field in (GF2, RATIONAL):
        oracle = AcyclicityOracle(X, field)
        assert any_valid_family(X, SearchSpace(max_candidates=200), field,
                                oracle=oracle) is None
        misses[field] = oracle.touched()
    assert misses[GF2] == misses[RATIONAL]
    assert len(misses[GF2]) > 100
    assert calls == []


@st.composite
def random_mask_cases(draw):
    """A pyramid over an n-gon (4 <= n <= 8) cut by non-crossing chords,
    or a bipyramid over 3 to 6 vertices, and one vertex mask on it."""
    if draw(st.booleans()):
        X = pyramid(subdivided_polygon(*draw(polygons_with_chords())))
    else:
        X = bipyramid_complex(draw(st.integers(3, 6)))
    return X, draw(st.integers(0, (1 << X.n_vertices) - 1))


@settings(max_examples=40, deadline=None)
@given(random_mask_cases())
def test_oracle_matches_homology_on_random_masks(case):
    X, mask = case
    for field in (GF2, RATIONAL):
        assert_oracle_matches_homology(AcyclicityOracle(X, field), mask)


# small complexes with valid families; random member sets are nearly all
# refused as labellings, so the family cases also perturb a valid family
PERTURBED_COMPLEXES = {
    "chord-5": lambda: subdivided_polygon(5, [(0, 2)]),
    "chord-6": lambda: subdivided_polygon(6, [(0, 2), (2, 4)]),
    "chord-7": lambda: subdivided_polygon(7, [(0, 3), (3, 5)]),
    "polygon-7": lambda: polygon_complex(7),
    "pyramid-5": lambda: pyramid(polygon_complex(5)),
    "pyramid-chord-5": lambda: pyramid(subdivided_polygon(5, [(0, 2)])),
    "elongated-3": lambda: elongated_pyramid(polygon_complex(3)),
    "wheel-4": lambda: wheel_polytope(4),
}


@functools.lru_cache(maxsize=None)
def valid_families_and_candidates(name):
    X = PERTURBED_COMPLEXES[name]()
    space = SearchSpace(max_candidates=1000)
    return (X, enumerate_valid_families(X, space),
            candidate_masks(space, AcyclicityOracle(X)))


@st.composite
def random_family_cases(draw):
    """A polygon (4 <= n <= 8) cut by non-crossing chords, or the pyramid
    over one, and a family of up to eight distinct members on it; or a
    valid family on one of PERTURBED_COMPLEXES, as it is, with one member
    dropped, or with one candidate added."""
    if draw(st.booleans()):
        X, valid, cands = valid_families_and_candidates(
            draw(st.sampled_from(sorted(PERTURBED_COMPLEXES))))
        members = [mask_of(s) for s in draw(st.sampled_from(valid)).sets]
        change = draw(st.sampled_from(["none", "drop", "add"]))
        if change == "drop":
            del members[draw(st.integers(0, len(members) - 1))]
        elif change == "add":
            members.append(draw(st.sampled_from(
                [m for m in cands if m not in members])))
        return X, family(X.n_vertices, [set_of(m) for m in members])
    X = subdivided_polygon(*draw(polygons_with_chords()))
    if draw(st.booleans()):
        X = pyramid(X)
    members = draw(st.lists(
        st.frozensets(st.integers(0, X.n_vertices - 1), min_size=1),
        min_size=1, max_size=8, unique=True))
    return X, family(X.n_vertices, members)


@settings(max_examples=120, deadline=None)
@given(random_family_cases())
def test_family_criteria_match_the_per_member_reference(case):
    # the criteria hold exactly when the family's labelling is CM, and
    # fail whenever the family is refused as a labelling
    X, F = case
    for field in (GF2, RATIONAL):
        criteria = check_family_criteria(X, F, field)
        assert criteria == reference_family_criteria(X, F, field)
        try:
            L = labelling_of(F)
        except (FamilyError, LabellingError):
            assert not criteria.ok
        else:
            assert criteria.ok == check_cm_labelling(X, L, field).is_cm


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
    for b in sorted(lcm_lattice(L)):
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
    assert composition_is_zero(fc)
    assert not composition_is_zero(bad)
    points = sorted(lcm_lattice(L))
    assert all(strand_matches_homology(fc, X, b, RATIONAL) for b in points)
    assert not any(strand_matches_homology(bad, X, b, RATIONAL)
                   for b in points)


def test_criteria_need_a_complex_of_positive_dimension():
    point = tree_complex(edges_to_tree(1, []))
    with pytest.raises(FamilyError, match="^criteria need a complex"):
        check_family_criteria(point, family(1, [{0}]))


def test_free_complex_refuses_signs_whose_maps_do_not_compose_to_zero():
    # the triangle with +1 on every side has a nonzero composite boundary:
    # loading refuses it, and the free complex that a caller builds from it
    # without validating fails the strand route's composition gate
    X = polygon_complex(3)
    top = X.cells[-1]
    bad = top._replace(boundary=tuple((b, 1) for b, _ in top.boundary))
    X = X._replace(cells=X.cells[:-1] + (bad,))
    diag = "cell 6: boundary of boundary is nonzero at [0, 2]"
    assert validate_complex(X) == [diag]
    with pytest.raises(SerializationError, match=re.escape(diag)):
        complex_from_dict(complex_to_dict(X))
    L = labelling(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    fc = build_free_complex(X, L)
    assert not composition_is_zero(fc)
    assert not any(strand_matches_homology(fc, X, b) for b in lcm_lattice(L))


@st.composite
def signed_complexes(draw):
    """A fully signed constructed complex: one that `search_complexes`
    draws (a chorded polygon, the pyramid over one, or a tree), the
    elongated pyramid over a triangle or a square, the wheel over a
    triangle, or a bipyramid over 3 to 5 vertices."""
    kind = draw(st.sampled_from(["search", "elongated", "wheel", "bipyramid"]))
    if kind == "elongated":
        return elongated_pyramid(polygon_complex(draw(st.integers(3, 4))))
    if kind == "wheel":
        return wheel_polytope(3)
    if kind == "bipyramid":
        return bipyramid_complex(draw(st.integers(3, 5)))
    return draw(search_complexes())


def negate_signs(X, entries):
    """X with the sign of each (cell id, boundary position) entry negated."""
    cells = list(X.cells)
    for cid, j in entries:
        boundary = list(cells[cid].boundary)
        b, s = boundary[j]
        boundary[j] = (b, -s)
        cells[cid] = cells[cid]._replace(boundary=tuple(boundary))
    return X._replace(cells=tuple(cells))


@st.composite
def negated_sign_cases(draw):
    """A signed complex and one to four distinct boundary entries of it."""
    X = draw(signed_complexes())
    entries = [(c.id, j) for c in X.cells for j in range(len(c.boundary))]
    return X, draw(st.lists(st.sampled_from(entries), min_size=1, max_size=4,
                            unique=True))


@settings(max_examples=60, deadline=None)
@given(negated_sign_cases())
def test_validation_decides_whether_the_free_complex_composes_to_zero(case):
    # build_free_complex trusts validate_complex for ∂∂ = 0: the quotient
    # monomials along a two-step path multiply to one monomial, so the maps
    # compose to zero exactly when the signed boundary does.  Negating the
    # drawn entries one after another starts sound and breaks at the first.
    X, entries = case
    n = X.n_vertices
    L = labelling(n, [[int(v == p) for p in range(n)] for v in range(n)])
    seen = set()
    for k in range(len(entries) + 1):
        Y = negate_signs(X, entries[:k])
        diags = validate_complex(Y)
        assert all("boundary of boundary is nonzero" in d for d in diags)
        composes = composition_is_zero(build_free_complex(Y, L))
        assert composes == (not diags), (entries[:k], diags)
        seen.add(composes)
    assert seen == {True, False}


def test_free_complex_entries_are_quotient_monomials():
    X, L = path_on_three(), squares_labelling()
    fc = build_free_complex(X, L)
    first = fc.maps[0]
    assert [[(r, q) for r, _, q in col] for col in first] == [
        [(0, (2, 0))], [(0, (1, 1))], [(0, (0, 2))]]
    second = fc.maps[1]
    # edge (0,1) has multidegree x^2 y; over vertex x^2 the entry is y
    entries = {fc.cell_ids[1][r]: q for r, _, q in second[0]}
    assert set(entries) == {0, 1}
    quotients = sorted(entries.values())
    assert quotients == [(0, 1), (1, 0)]


def random_labellings(count, seed):
    """Seeded labellings with exponents up to 3 on the polygons with 3 to
    8 vertices and on the pyramid over a pentagon; draws that are not
    minimal generating sets are redrawn."""
    rng = random.Random(seed)
    complexes = [polygon_complex(n) for n in range(3, 9)]
    complexes.append(pyramid(polygon_complex(5)))
    out = []
    while len(out) < count:
        X = rng.choice(complexes)
        k = rng.randint(2, 5)
        rows = [tuple(rng.randint(0, 3) for _ in range(k))
                for _ in range(X.n_vertices)]
        try:
            out.append((X, labelling(k, rows)))
        except LabellingError:
            continue
    return out


def lattice_cases():
    cases = [fixture(fid) for fid in fixture_catalogue()]
    # arcs of length (n - 1) // 2; on odd n that is polygon_family(n)
    cases += [(polygon_complex(n),
               labelling_of(family(n, all_arcs(n, (n - 1) // 2))))
              for n in range(11, 18)]
    cases.append((subdivided_polygon(12, ((0, 3), (0, 6), (0, 9))),
                  labelling_of(family(12, TWELVE_GON_SIXTEEN))))
    # the same shapes with exponents near 10^9: the mask closure works on
    # the exponents that occur, so its cost must not grow with their size
    big = {0: 0, 1: 10 ** 9, 2: 10 ** 9 + 1, 3: 2 * 10 ** 9}
    huge = [(X, labelling(L.n_variables,
                          [tuple(big[e] for e in m.exponents) for m in L.labels]))
            for X, L in random_labellings(20, seed=11)]
    return cases + random_labellings(300, seed=10) + huge


def test_mask_lattice_matches_the_reference_closure():
    verdicts = set()
    for X, L in lattice_cases():
        lat = lcm_lattice(L)
        assert lat.keys() == reference_lcm_lattice(L)
        assert lat == {b: divisibility_mask(L, b) for b in lat}
        for field in (GF2, RATIONAL):
            ours, ref = AcyclicityOracle(X, field), AcyclicityOracle(X, field)
            got = check_cellular_resolution(X, L, field, ours)
            assert got == reference_check_cellular_resolution(X, L, field, ref)
            assert list(ours.touched().items()) == \
                list(ref.touched().items())
            verdicts.add(got[0])
    assert verdicts == {True, False}


# exponent alphabets: square-free, small powers, and powers near 10^9 (past
# the polarization guard)
EXPONENTS = ((0, 1), (0, 1, 2, 3), (0, 10 ** 9, 10 ** 9 + 1, 2 * 10 ** 9))


@st.composite
def random_labelled_complexes(draw):
    """A labelling of 1 to 8 vertices in 1 to 6 variables, and a signed
    complex on its vertices: a polygon cut by non-crossing chords, or the
    pyramid over one, or a path below three vertices.

    Of up to 16 nonzero rows drawn, the first 8 that divide no earlier kept
    row and are divided by none are kept; variables that occur in no kept
    row are dropped."""
    values = draw(st.sampled_from(EXPONENTS))
    nvar = draw(st.integers(1, 6))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(values)] * nvar)
                         .filter(any), min_size=1, max_size=16))
    kept = []
    for m in map(Monomial, rows):
        if len(kept) < 8 and not any(divides(m, k) or divides(k, m)
                                     for k in kept):
            kept.append(m)
    used = [p for p in range(nvar) if any(m.exponents[p] for m in kept)]
    L = labelling(len(used),
                  [tuple(m.exponents[p] for p in used) for m in kept])
    n = L.n_vertices
    if n < 3:
        X = tree_complex(edges_to_tree(n, [(v, v + 1) for v in range(n - 1)]))
    elif n > 3 and draw(st.booleans()):
        X = pyramid(subdivided_polygon(n - 1, draw(chords_of(n - 1))))
    else:
        X = subdivided_polygon(n, draw(chords_of(n)))
    return X, L


def outcome(f, *args):
    """f's result, or the type and text of the input error it raises."""
    try:
        return f(*args)
    except (LabellingError, FamilyError, GuardExceeded) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(random_labelled_complexes())
def test_level_mask_lcms_match_the_label_tuple_references(case):
    X, L = case
    for mask in range(1 << L.n_vertices):
        assert (multidegree(L, set_of(mask))
                == reference_multidegree(L, set_of(mask)))
    assert check_minimal(X, L) == reference_check_minimal(X, L)
    for ours, ref in ((codimension, reference_codimension),
                      (family_of, reference_family_of),
                      (polarize, reference_polarize),
                      (_lcm_degree_table, reference_lcm_degree_table)):
        assert outcome(ours, L) == outcome(ref, L)
    fc = build_free_complex(X, L)
    assert fc.multidegrees[0] == ((0,) * L.n_variables,)
    assert list(fc.multidegrees[1:]) == [
        tuple(reference_multidegree(L, c.vertices).exponents
              for c in X.cells_of_dim(d)) for d in range(X.dim + 1)]
