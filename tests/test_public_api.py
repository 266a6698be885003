"""The names `cellres` exports, and why each of them is public."""

import re
import types
from pathlib import Path

import cellres

ROOT = Path(__file__).resolve().parents[1]

EXPORTS = [
    "AcyclicityOracle", "Cell", "CellComplex", "CellularFreeComplex",
    "CmVerdict", "ComplexBuilder", "ComplexError", "ConjectureReport",
    "FamilyCriteriaReport", "FamilyError", "FieldSpec", "GF2",
    "GuardExceeded", "HomologyReport", "LabellingError", "MaximalityReport",
    "Monomial", "MonomialLabelling", "OrientedTree", "RATIONAL", "Refinement",
    "SearchSpace", "SignConflictError", "SignsMissingError", "VertexFamily",
    "all_arcs", "any_valid_family", "arc_set", "assign_signs",
    "bipyramid_complex", "build_free_complex", "canonical_resolution_tree",
    "check_cellular_resolution", "check_cm_labelling",
    "check_family_criteria", "check_minimal", "chord_complex",
    "chord_families", "chord_symmetry", "codimension",
    "connected_vertex_subsets", "dihedral_group", "edges_to_tree",
    "elongated_pyramid", "enumerate_maximal_families",
    "enumerate_valid_families", "ep_family", "f_symmetry", "family",
    "family_of", "fixture", "fixture_catalogue", "is_maximal",
    "is_polytope_complex", "labelling", "labelling_of", "lcm_lattice",
    "monomial", "multidegree", "polarize", "polygon_complex",
    "polygon_family", "pyramid", "pyramid_family", "reduce_family",
    "reduced_homology", "refinement_compare", "refines", "restrict",
    "selfdual_report", "strand_ranks", "subdivided_polygon", "tree_complex",
    "tree_maximal_labelling", "tree_resolution_trees",
    "tree_unique_morphism", "validate_complex", "variable_count_report",
    "wheel_family", "wheel_polytope",
]

# wrappers and aliases whose kernels the callers use instead
REMOVED = ["LcmLattice", "codimension_family", "euler_characteristic",
           "is_disjoint_union_of", "morphism_exists", "strip_signs"]

# exports that neither cli.py nor scripts/ nor bench/ names, and why each
# stays public
KEEP = {
    # record, report and error types
    "Cell": "the cell record of a CellComplex",
    "CellComplex": "the complex that every construction returns",
    "CellularFreeComplex": "what build_free_complex returns",
    "CmVerdict": "what check_cm_labelling returns",
    "ConjectureReport": "what both conjecture reports return",
    "FamilyCriteriaReport": "what check_family_criteria returns",
    "FieldSpec": "the type of GF2 and RATIONAL",
    "HomologyReport": "what reduced_homology returns",
    "MaximalityReport": "what is_maximal returns",
    "Monomial": "the label record of a MonomialLabelling",
    "MonomialLabelling": "what labelling and labelling_of return",
    "OrientedTree": "what edges_to_tree returns",
    "VertexFamily": "what family and family_of return",
    "SignConflictError": "raised by assign_signs on a non-orientable input",
    "SignsMissingError": "raised by homology of an unsigned complex",
    # the paper's tree constructions
    "canonical_resolution_tree": "the paper's greedy resolving tree",
    "tree_resolution_trees": "the paper's resolving trees of a labelling",
    "tree_unique_morphism": "the paper's morphism onto a tree labelling",
    # the paper's other objects
    "multidegree": "the multidegree of a set of cells, the paper's grading",
    "strand_ranks": "the strand homology route to the verdict",
    "monomial": "the short way to write one label",
    # reached by the CLI through another library function
    "ComplexBuilder": "builds every constructed complex",
    "all_arcs": "gives polygon_family and chord_families their members",
    "arc_set": "gives all_arcs and chord_families their arcs",
    "assign_signs": "signs the elongated pyramids, wheels and bipyramids",
    "check_cellular_resolution": "half of check_cm_labelling (verify)",
    "check_minimal": "the other half of check_cm_labelling (verify)",
    "ep_family": "a witness family of conjecture selfdual",
    "pyramid_family": "a witness family of conjecture selfdual",
    "f_symmetry": "a column of conjecture selfdual",
    "is_polytope_complex": "a column of conjecture selfdual",
    "reduce_family": "is_maximal reduces its family first (maximal-check)",
    "validate_complex": "complex_from_dict checks every input complex",
}


def exported_names():
    return sorted(name for name, value in vars(cellres).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))


def test_the_exported_names_are_pinned():
    assert exported_names() == EXPORTS
    assert not set(REMOVED) & set(dir(cellres))


def test_every_export_is_reached_or_kept_for_a_reason():
    paths = [ROOT / "src" / "cellres" / "cli.py",
             *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "bench").glob("*.py"))]
    text = "\n".join(p.read_text() for p in paths)
    unreached = {name for name in EXPORTS
                 if not re.search(rf"\b{name}\b", text)}
    assert unreached == set(KEEP)
