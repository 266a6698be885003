"""Command-line interface over the JSON wire formats.

One binary, subcommand style.  Every run prints a single JSON report on
stdout (canonical formatting, byte-stable for identical inputs); errors go
to stderr as structured JSON.  Exit codes: 0 completed, 1 verification
negative (not CM, not maximal, no morphism), 2 guard refusal, 3 malformed
input.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

# hashlib loads OpenSSL's libcrypto, which costs every call memory and
# import time; the interpreter's built-in SHA-256 gives the same digest
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import constructions as cons
from .complexes import ComplexError, reduced_homology, restrict
from .linalg import GF2, RATIONAL
from .monomials import (
    FamilyError,
    LabellingError,
    Refinement,
    family_of,
    labelling_of,
    polarize,
    refinement_compare,
)
from .resolution import (
    AcyclicityOracle,
    build_free_complex,
    check_cm_labelling,
    check_family_criteria,
    require_family_on,
)
from .search import (
    GuardExceeded,
    SearchSpace,
    chord_symmetry,
    dihedral_group,
    enumerate_maximal_families,
    enumerate_valid_families,
    is_maximal,
    selfdual_report,
    variable_count_report,
)
from .serialize import (
    SerializationError,
    canonical_json,
    complex_from_dict,
    complex_to_dict,
    family_from_dict,
    family_to_dict,
    labelling_from_dict,
    labelling_to_dict,
    parse_json,
    report_to_dict,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_GUARD = 2
EXIT_BAD_INPUT = 3


class CliError(Exception):
    """Unusable command line or input document."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


class _Run:
    """Collects the inputs read and the result for the final report."""

    def __init__(self, command: str, field_name: str):
        self.command = command
        self.field_name = field_name
        self.inputs = []  # (path, raw bytes), in the order read
        self.result = None
        self.exit_code = EXIT_OK

    def load(self, path: str, kind: str):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {kind} file {path}: {exc}") from exc
        self.inputs.append((path, raw))
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(
                f"{kind} file {path} is not UTF-8: {exc}") from exc
        doc = parse_json(text)
        loader = {
            "complex": complex_from_dict,
            "family": family_from_dict,
            "labelling": labelling_from_dict,
        }[kind]
        return loader(doc)

    def report(self) -> dict:
        # only a report shows the digests, so a call that ends in an error
        # hashes nothing
        return {
            "command": self.command,
            "field": self.field_name,
            "inputs": [{"path": path, "sha256": sha256(raw).hexdigest()}
                       for path, raw in self.inputs],
            "result": self.result,
        }


def _field(args):
    return RATIONAL if args.field == "rational" else GF2


def _parse_pairs(text: str, what: str) -> tuple:
    """'0-1,1-2' -> ((0, 1), (1, 2))"""
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bits = chunk.split("-")
        if len(bits) != 2:
            raise CliError(f"{what} entries look like 'i-j', got {chunk!r}")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise CliError(f"{what} entries need integer endpoints: {chunk!r}") from exc
    return tuple(pairs)


def _symmetry(spec_text: str, X):
    if spec_text in (None, "none"):
        return ()
    if spec_text == "dihedral":
        return dihedral_group(X.n_vertices)
    if spec_text.startswith("chord:"):
        try:
            a = int(spec_text.split(":", 1)[1])
        except ValueError as exc:
            raise CliError("--symmetry chord:A needs an integer A") from exc
        return chord_symmetry(X.n_vertices, a)
    raise CliError(f"unknown symmetry {spec_text!r}; "
                   "use none, dihedral, or chord:A")


def nonnegative_int(text: str) -> int:
    """Option type for counts; argparse names it when int() fails."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"needs an integer >= 0, got {value}")
    return value


# parse_args leaves a parser unchanged, so the cache serves every later
# call in a process.  Building all nine subparsers costs more than a whole
# guard refusal, so a call naming a subcommand gets one parser for that
# subcommand alone, which parses the arguments after its name just as the
# subparser of the full tree would; any other call (none, unknown,
# top-level --help) gets the full tree.
@functools.cache
def _build_parser(command: str = None) -> _Parser:
    if command is not None:
        p = _Parser(prog=f"cellres {command}")
        p.set_defaults(command=command)
        _add_options(p, command)
        return p
    top = _Parser(prog="cellres", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return top


def _add_options(p, command: str):
    p.add_argument("--field", choices=["gf2", "rational"], default="gf2",
                   help="coefficient field for homology verdicts")
    p.add_argument("--timing", action="store_true",
                   help="include wall_time_ms in the report")
    _COMMANDS[command][1](p)


def _input_files(p, *names):
    """Add a required option --NAME, read into NAME_file, per input file."""
    for name in names:
        p.add_argument(f"--{name}", dest=f"{name}_file", required=True)


# ---------------------------------------------------------------------------
# subcommands: option adders and bodies


def _complex(X) -> dict:
    return {"complex": complex_to_dict(X)}


def _tree_labelling(edges, n) -> dict:
    T = cons.edges_to_tree(n, edges)
    return {"complex": complex_to_dict(cons.tree_complex(T)),
            "labelling": labelling_to_dict(cons.tree_maximal_labelling(T))}


def _fixture(fid) -> dict:
    try:
        X, L = cons.fixture(fid)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from exc
    return {
        "complex": complex_to_dict(X),
        "labelling": labelling_to_dict(L),
        "description": cons.fixture_catalogue()[fid],
    }


# construct kind -> (flags it needs, in the order they are read; builder
# of the result from their values)
_CONSTRUCT = {
    "polygon": (("--n",), lambda n: _complex(cons.polygon_complex(n))),
    "chord": (("--n", "--a"),
              lambda n, a: _complex(cons.chord_complex(n, a))),
    "subdivided-polygon": (
        ("--chords", "--n"),
        lambda chords, n: _complex(cons.subdivided_polygon(n, chords))),
    "polygon-family": (("--n",), lambda n: {
        "family": family_to_dict(cons.polygon_family(n))}),
    "chord-families": (("--n", "--a"), lambda n, a: {
        "families": [family_to_dict(F) for F in cons.chord_families(n, a)]}),
    "wheel": (("--n",), lambda n: _complex(cons.wheel_polytope(n))),
    "wheel-family": ((), lambda: {
        "family": family_to_dict(cons.wheel_family())}),
    "bipyramid": (("--n",), lambda n: _complex(cons.bipyramid_complex(n))),
    "pyramid": (("--complex",), lambda X: _complex(cons.pyramid(X))),
    "elongated-pyramid": (("--complex",),
                          lambda X: _complex(cons.elongated_pyramid(X))),
    "tree-complex": (("--edges", "--n"), lambda edges, n: _complex(
        cons.tree_complex(cons.edges_to_tree(n, edges)))),
    "tree-labelling": (("--edges", "--n"), _tree_labelling),
    "fixture": (("--id",), _fixture),
}


def _construct_options(p):
    p.add_argument("kind", nargs="?", choices=list(_CONSTRUCT))
    p.add_argument("--list", action="store_true",
                   help="catalogue the named fixtures")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--chords", help="comma list like 1-5,3-5")
    p.add_argument("--edges", help="comma list of tree edges like 0-1,1-2")
    p.add_argument("--id", help="fixture id (see construct --list)")
    p.add_argument("--complex", dest="complex_file",
                   help="input complex for pyramid / elongated-pyramid")


def _construct_flag(flag: str, args, run: _Run):
    value = getattr(args, "complex_file" if flag == "--complex" else flag[2:])
    if value is None:
        raise CliError(f"construct {args.kind} needs {flag}")
    if flag in ("--chords", "--edges"):
        return _parse_pairs(value, flag)
    if flag == "--complex":
        return run.load(value, "complex")
    return value


def _run_construct(args, run: _Run):
    if args.list:
        run.result = {"fixtures": cons.fixture_catalogue()}
        return
    if args.kind is None:
        raise CliError("construct needs a kind or --list")
    flags, build = _CONSTRUCT[args.kind]
    run.result = build(*(_construct_flag(f, args, run) for f in flags))


def _family_criteria(args, run: _Run, X):
    """(family, oracle, criteria report) for --family on X; a size
    mismatch is reported before missing signs."""
    F = run.load(args.family_file, "family")
    require_family_on(X, F)
    oracle = AcyclicityOracle(X, _field(args))
    return F, oracle, check_family_criteria(X, F, oracle.field, oracle)


def _verify_options(p):
    _input_files(p, "complex")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--labelling", dest="labelling_file")
    g.add_argument("--family", dest="family_file")


def _run_verify(args, run: _Run):
    X = run.load(args.complex_file, "complex")
    result = run.result = {}
    oracle = None
    if args.labelling_file:
        L = run.load(args.labelling_file, "labelling")
    else:
        # the lcm supports of a family's labelling are the complements of
        # the member unions the criteria test, so one oracle serves both
        F, oracle, criteria = _family_criteria(args, run, X)
        result["criteria"] = report_to_dict(criteria)
        try:
            L = labelling_of(F)
        except (FamilyError, LabellingError) as exc:
            result["note"] = f"{exc}; the family defines no labelling"
            run.exit_code = EXIT_NEGATIVE
            return
    verdict = check_cm_labelling(X, L, _field(args), oracle)
    result["cm_verdict"] = report_to_dict(verdict)
    if not verdict.is_cm:
        run.exit_code = EXIT_NEGATIVE


def _enumerate_options(p):
    _input_files(p, "complex")
    p.add_argument("--maximal", action="store_true",
                   help="keep only maximal families")
    p.add_argument("--symmetry", default="none",
                   help="none | dihedral | chord:A")
    p.add_argument("--max-candidates", type=nonnegative_int, default=60)
    # ignored: bench/workloads.py jobs_ops still passes --jobs 2
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)


def _run_enumerate(args, run: _Run):
    X = run.load(args.complex_file, "complex")
    space = SearchSpace(symmetry=_symmetry(args.symmetry, X),
                        max_candidates=args.max_candidates)
    enum = enumerate_maximal_families if args.maximal else enumerate_valid_families
    families = enum(X, space, _field(args))
    run.result = {
        "maximal_only": bool(args.maximal),
        "count": len(families),
        "families": [family_to_dict(F) for F in families],
    }


def _run_maximal_check(args, run: _Run):
    X = run.load(args.complex_file, "complex")
    F, oracle, criteria = _family_criteria(args, run, X)
    run.result = {"criteria": report_to_dict(criteria)}
    if not criteria.ok:
        run.result["note"] = ("family fails the validity criteria; "
                              "maximality is undefined for it")
        run.exit_code = EXIT_NEGATIVE
        return
    verdict = is_maximal(X, F, oracle.field, oracle, criteria)
    run.result["maximality"] = report_to_dict(verdict)
    if not verdict.is_maximal:
        run.exit_code = EXIT_NEGATIVE


def _homology_options(p):
    _input_files(p, "complex")
    p.add_argument("--vertices", help="comma list restricting the complex")


def _run_homology(args, run: _Run):
    X = run.load(args.complex_file, "complex")
    if args.vertices is not None:
        try:
            keep = {int(v) for v in args.vertices.split(",") if v.strip()}
        except ValueError as exc:
            raise CliError("--vertices is a comma list of integers") from exc
        X = restrict(X, keep)
    run.result = {"homology": report_to_dict(reduced_homology(X, _field(args)))}


def _run_betti(args, run: _Run):
    X = run.load(args.complex_file, "complex")
    L = run.load(args.labelling_file, "labelling")
    # the build raises unless the maps compose to zero
    fc = build_free_complex(X, L)
    run.result = {"ranks": list(fc.ranks()), "composition_is_zero": True}


def _run_morphism(args, run: _Run):
    F = run.load(args.from_file, "family")
    G = run.load(args.to_file, "family")
    # a morphism F -> G exists exactly when F refines G
    relation = refinement_compare(F, G)
    exists = relation in (Refinement.FINER, Refinement.EQUAL)
    run.result = {"morphism_exists": exists, "relation": relation.value}
    if not exists:
        run.exit_code = EXIT_NEGATIVE


def _run_polarize(args, run: _Run):
    L = run.load(args.labelling_file, "labelling")
    P = polarize(L)
    run.result = {
        "labelling": labelling_to_dict(P),
        "family": family_to_dict(family_of(P)),
    }


def _conjecture_options(p):
    p.add_argument("kind", choices=["variable-count", "selfdual"])
    p.add_argument("--max-candidates", type=nonnegative_int, default=200)


def _run_conjecture(args, run: _Run):
    field = _field(args)
    if args.kind == "variable-count":
        rep = variable_count_report(field=field,
                                    max_candidates=args.max_candidates)
    else:
        rep = selfdual_report(field=field, max_candidates=args.max_candidates)
    run.result = report_to_dict(rep)


# subcommand -> (help, option adder, body), in the order --help lists them
_COMMANDS = {
    "construct": ("emit a complex/family/labelling by name",
                  _construct_options, _run_construct),
    "verify": ("Cohen-Macaulay verdict for a labelled complex",
               _verify_options, _run_verify),
    "enumerate": ("families passing the validity criteria",
                  _enumerate_options, _run_enumerate),
    "maximal-check": ("is the family maximal on the complex?",
                      lambda p: _input_files(p, "complex", "family"),
                      _run_maximal_check),
    "homology": ("reduced homology of a (restricted) complex",
                 _homology_options, _run_homology),
    "betti": ("ranks of the labelled free complex",
              lambda p: _input_files(p, "complex", "labelling"), _run_betti),
    "morphism": ("does a variable substitution map one labelling family "
                 "onto another?",
                 lambda p: _input_files(p, "from", "to"), _run_morphism),
    "polarize": ("square-free the labelling",
                 lambda p: _input_files(p, "labelling"), _run_polarize),
    "conjecture": ("evidence tables for the open conjectures",
                   _conjecture_options, _run_conjecture),
}


def _emit_error(kind: str, message: str):
    sys.stderr.write(canonical_json({
        "error": {"type": kind, "message": message},
    }))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMANDS:
            args = _build_parser(argv[0]).parse_args(argv[1:])
        else:
            args = _build_parser().parse_args(argv)
        if args.command is None:
            raise CliError("a subcommand is required; see --help")
        run = _Run(args.command, args.field)
        started = time.monotonic()
        _COMMANDS[args.command][2](args, run)
        report = run.report()
        if args.timing:
            report["wall_time_ms"] = int((time.monotonic() - started) * 1000)
        sys.stdout.write(canonical_json(report))
        return run.exit_code
    except GuardExceeded as exc:
        _emit_error("guard", str(exc))
        return EXIT_GUARD
    except (CliError, SerializationError, LabellingError, FamilyError,
            ComplexError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
