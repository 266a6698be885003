"""Monomial-labelled cell complexes and Cohen-Macaulay cellular resolutions.

The package decides whether a labelled complex supports a minimal cellular
resolution with Cohen-Macaulay quotient, constructs the classified labelling
families (trees, subdivided polygons, pyramids, wheels), and exhaustively
enumerates maximal families on small complexes.
"""

from .complexes import (
    Cell,
    CellComplex,
    ComplexBuilder,
    ComplexError,
    HomologyReport,
    SignConflictError,
    SignsMissingError,
    assign_signs,
    is_polytope_complex,
    reduced_homology,
    restrict,
    validate_complex,
)
from .linalg import GF2, RATIONAL, FieldSpec
from .monomials import (
    FamilyError,
    GuardExceeded,
    LabellingError,
    Monomial,
    MonomialLabelling,
    Refinement,
    VertexFamily,
    family,
    family_of,
    labelling,
    labelling_of,
    lcm_lattice,
    monomial,
    polarize,
    reduce_family,
    refinement_compare,
    refines,
)
from .resolution import (
    AcyclicityOracle,
    CellularFreeComplex,
    CmVerdict,
    FamilyCriteriaReport,
    build_free_complex,
    check_cellular_resolution,
    check_cm_labelling,
    check_family_criteria,
    check_minimal,
    codimension,
    f_symmetry,
    multidegree,
)
from .constructions import (
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
from .search import (
    ConjectureReport,
    MaximalityReport,
    SearchSpace,
    chord_symmetry,
    connected_vertex_subsets,
    dihedral_group,
    enumerate_maximal_families,
    any_valid_family,
    enumerate_valid_families,
    is_maximal,
    selfdual_report,
    variable_count_report,
)

__version__ = "0.1.0"
