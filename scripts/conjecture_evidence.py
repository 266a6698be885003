"""Evidence tables for the two open conjectures.

Usage:
    python scripts/conjecture_evidence.py [--kind {variable-count,selfdual,all}]
                                          [--max-candidates N] [--json]

variable-count: every maximal family on an n-gon subdivided by k chords is
expected to have n + k members.  The table reports, per instance, how many
maximal families exhaustive search finds and their sizes; any family of the
wrong size is listed in full as a counterexample.

selfdual: every solid polytope admitting a valid family is expected to have
a symmetric f-vector.  The corpus mixes witness families (known valid) with
instances decided by the requirement-driven existence search.
"""

import argparse
import sys

from cellres.cli import EXIT_GUARD, nonnegative_int
from cellres.search import GuardExceeded, selfdual_report, variable_count_report
from cellres.serialize import canonical_json, report_to_dict


def print_variable_count(rep):
    print("variable-count: maximal families on an n-gon with k chords "
          "should have n + k members")
    print(f"  {'n':>2}  {'chords':<16} {'families':>8}  {'sizes':<18} verdict")
    for row in rep.rows:
        chords = ",".join(f"({a},{b})" for a, b in row["chords"])
        sizes = ",".join(str(s) for s in row["family_sizes"])
        verdict = "ok" if row["ok"] else "COUNTEREXAMPLE"
        print(f"  {row['n']:>2}  {chords:<16} {row['maximal_families']:>8}"
              f"  {sizes:<18} {verdict}")
    if rep.holds:
        print("holds on every instance tested")
        return
    print(f"refuted: {len(rep.counterexamples)} oversized maximal "
          f"famil{'y' if len(rep.counterexamples) == 1 else 'ies'}")
    for ce in rep.counterexamples:
        members = " ".join("{" + ",".join(map(str, s)) + "}"
                           for s in ce["family"])
        print(f"  n={ce['n']} expected {ce['expected']} got {ce['members']}: "
              f"{members}")


def print_selfdual(rep):
    print("selfdual: polytopes admitting a valid family should have "
          "symmetric f-vectors")
    print(f"  {'name':<26} {'f-vector':<14} {'admits':<7} {'symmetric':<10} "
          "method")
    for row in rep.rows:
        fvec = "(" + ",".join(map(str, row["f_vector"])) + ")"
        admits = {True: "yes", False: "no", None: "?"}[
            row["admits_valid_family"]]
        sym = "yes" if row["symmetric"] else "no"
        print(f"  {row['name']:<26} {fvec:<14} {admits:<7} {sym:<10} "
              f"{row['method']}")
    print("holds on the corpus" if rep.holds
          else f"refuted on {len(rep.counterexamples)} instance(s)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=["variable-count", "selfdual", "all"],
                    default="all")
    ap.add_argument("--max-candidates", type=nonnegative_int, default=200)
    ap.add_argument("--json", action="store_true",
                    help="emit the raw reports as canonical JSON")
    args = ap.parse_args(argv)

    kinds = (["variable-count", "selfdual"] if args.kind == "all"
             else [args.kind])
    reports = []
    try:
        for kind in kinds:
            if kind == "variable-count":
                reports.append(variable_count_report(
                    max_candidates=args.max_candidates))
            else:
                reports.append(
                    selfdual_report(max_candidates=args.max_candidates))
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD

    if args.json:
        sys.stdout.write(canonical_json(
            [report_to_dict(r) for r in reports]))
        return 0

    for i, rep in enumerate(reports):
        if i:
            print()
        if rep.kind == "variable-count":
            print_variable_count(rep)
        else:
            print_selfdual(rep)
    return 0


if __name__ == "__main__":
    sys.exit(main())
