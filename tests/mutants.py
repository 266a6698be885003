"""Mutations of the library that the test suite must kill.

Data only.  Each entry names a file under `src/cellres`, an exact text
that occurs in it once, the text that replaces it, and the ids of tests
that fail on the mutated copy.  `scripts/mutants.py` applies each entry to
a copy of the checkout and runs its tests there; `tests/test_mutants.py`
checks that each old text still occurs exactly once and that each named
test exists, so a refactor that moves the code updates the entry.
"""

MUTANTS = [
    {
        "name": "validation-drops-boundary-of-boundary",
        "file": "complexes.py",
        "old": "return diags + nonzero if signed else diags",
        "new": "return diags",
        "tests": [
            "tests/test_resolution.py::test_validation_decides_whether_the_free_complex_composes_to_zero",
            "tests/test_cli.py::test_malformed_complexes_exit_3_from_every_command[all-plus-triangle-betti]",
        ],
    },
    {
        "name": "duality-pairs-i-with-d-minus-i",
        "file": "search.py",
        "old": "pairs = [(dims[i], dims[d - 1 - i], f[i]) for i in range(d)]",
        "new": "pairs = [(dims[i], dims[d - i], f[i]) for i in range(d)]",
        "tests": [
            "tests/test_search.py::test_odd_polygon_has_exactly_the_arc_family",
            "tests/test_cli.py::test_enumerate_pentagon",
        ],
    },
    {
        "name": "duality-bound-strict",
        "file": "search.py",
        "old": "(reach & a).bit_count() + (reach & b).bit_count() <= n",
        "new": "(reach & a).bit_count() + (reach & b).bit_count() < n",
        "tests": [
            "tests/test_search.py::test_the_cut_walk_yields_every_set_duality_passes",
            "tests/test_search.py::test_duality_keeps_every_answer_on_one_top_cell",
        ],
    },
    {
        "name": "duality-on-several-top-cells",
        "file": "search.py",
        "old": "    if f[d] != 1:\n        return None, None",
        "new": "    if f[d] < 1:\n        return None, None",
        "tests": [
            "tests/test_acceptance.py::test_one_chord_disks_carry_exactly_the_two_known_families",
            "tests/test_cli.py::test_maximal_check_flags_the_extendable_family",
        ],
    },
    {
        "name": "search-forgets-tried-candidates",
        "file": "search.py",
        "old": "tried[w] = asked | new",
        "new": "tried[w] = asked",
        "tests": [
            "tests/test_search.py::test_valid_and_existence_searches_make_the_same_oracle_calls",
            "tests/test_search.py::test_existence_search_asks_the_oracle_a_fixed_set_of_questions",
        ],
    },
    {
        "name": "search-drops-cover-bound",
        "file": "search.py",
        "old": "nxt &= short_u",
        "new": "nxt &= everyone",
        "tests": [
            "tests/test_search.py::test_unfiltered_search_finds_the_same_pentagon_family",
        ],
    },
    {
        "name": "candidate-guard-one-early",
        "file": "search.py",
        "old": "if len(found) > space.max_candidates:",
        "new": "if len(found) >= space.max_candidates:",
        "tests": [
            "tests/test_search.py::test_guard_admits_exactly_max_candidates",
        ],
    },
    {
        "name": "maximal-walk-unbounded",
        "file": "search.py",
        "old": "walk = _connected_masks(oracle._adj, oracle._star, within)",
        "new": "walk = _connected_masks(oracle._adj, oracle._star)",
        "tests": [
            "tests/test_search.py::test_the_cut_walk_stops_where_duality_counts_overflow",
        ],
    },
    {
        "name": "maximal-cover-limit-one-low",
        "file": "search.py",
        "old": "_minimum_cover_size(full & ~t, masks, X.dim - 1)",
        "new": "_minimum_cover_size(full & ~t, masks, X.dim - 2)",
        "tests": [
            "tests/test_search.py::test_maximal_families_are_valid_and_maximal",
            "tests/test_acceptance.py::test_every_maximal_family_has_the_covering_property",
        ],
    },
    {
        "name": "decomposable-skips-first-member",
        "file": "monomials.py",
        "old": "for i, m in enumerate(masks):",
        "new": "for i, m in list(enumerate(masks))[1:]:",
        "tests": [
            "tests/test_monomials.py::test_reduce_family_drops_disjoint_unions",
        ],
    },
    {
        "name": "edge-sign-flipped",
        "file": "complexes.py",
        "old": "((u, 1 if u > v else -1),\n"
               "                                        (v, 1 if v > u else -1))",
        "new": "((u, -1 if u > v else 1),\n"
               "                                        (v, -1 if v > u else 1))",
        "tests": [
            "tests/test_cells.py::test_polygons_over_edges_added_either_way_are_valid",
        ],
    },
    {
        "name": "diamond-product-flipped",
        "file": "complexes.py",
        "old": "link[b][b2] = link[b2][b] = (-s * s2, f)",
        "new": "link[b][b2] = link[b2][b] = (s * s2, f)",
        "tests": [
            "tests/test_acceptance.py::test_elongated_pyramid_families_are_valid_and_maximal",
            "tests/test_acceptance.py::test_wheel_family_is_maximal_and_its_labellings_resolve",
        ],
    },
    {
        "name": "cone-apex-sign-flipped",
        "file": "constructions.py",
        "old": "[(apex_cell, -1)]",
        "new": "[(apex_cell, 1)]",
        "tests": [
            "tests/test_acceptance.py::test_differentials_compose_to_zero_on_touched_instances",
            "tests/test_resolution.py::test_validation_decides_whether_the_free_complex_composes_to_zero",
        ],
    },
]
