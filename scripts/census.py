"""Census of small complexes for the paper's two questions.

Usage:
    python scripts/census.py [--kind KIND] [--max-n N] [--max-candidates N]
                             [--json]

trees: maximal families of one tree per isomorphism class on 2..N vertices;
each class should have one, the canonical tree labelling's.
polygons: valid and maximal families, each maximal one listed in full, on
the solid 3..N-gons, on the 4..N-gons with one chord from vertex 0, and
(N >= 6) on the hexagon cut by the chords (1,5) and (3,5).
variable-count: maximal families on an n-gon with k chords should have
n + k members; a family of another size is listed as a counterexample.
selfdual: polytopes admitting a valid family should have symmetric
f-vectors; witness families and the existence search decide admission.

KIND is one of these four or all (the default).  The conjecture kinds
print the library's reports and ignore --max-n.  --json prints a list of
{"kind", "rows", ...} objects, one per kind.
"""

import argparse
import sys

from cellres.cli import EXIT_GUARD, nonnegative_int
from cellres.constructions import (edges_to_tree, subdivided_polygon,
                                   tree_complex, tree_maximal_labelling)
from cellres.monomials import family_of
from cellres.search import (GuardExceeded, SearchSpace,
                            enumerate_maximal_families,
                            enumerate_valid_families, selfdual_report,
                            variable_count_report)
from cellres.serialize import canonical_json, report_to_dict

TITLES = {
    "trees": "trees: maximal families per isomorphism class on n vertices",
    "polygons": "polygons: valid and maximal families on an n-gon with chords",
    "variable-count": "variable-count: maximal families should have n + k "
                      "members on an n-gon with k chords",
    "selfdual": "selfdual: polytopes admitting a valid family should have "
                "symmetric f-vectors",
}


def ahu_form(n, edges):
    """Canonical string of a free tree, for isomorphism-class dedup."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    deg = {v: len(adj[v]) for v in range(n)}
    while len(alive) > 2:
        for v in [u for u in alive if deg[u] <= 1]:
            alive.remove(v)
            for w in adj[v]:
                if w in alive:
                    deg[w] -= 1

    def encode(v, parent):
        return "(" + "".join(sorted(encode(w, v)
                                    for w in adj[v] if w != parent)) + ")"

    return min(encode(c, None) for c in alive)


def tree_classes(n):
    """One representative edge set per isomorphism class of trees on [n]."""
    if n == 1:
        return [frozenset()]
    reps, seen = [], set()
    for smaller in tree_classes(n - 1):
        for v in range(n - 1):
            edges = frozenset(smaller | {(v, n - 1)})
            form = ahu_form(n, edges)
            if form not in seen:
                seen.add(form)
                reps.append(edges)
    return reps


def tree_rows(max_n, space):
    for n in range(2, max_n + 1):
        classes = tree_classes(n)
        single = canonical = 0
        for edges in classes:
            T = edges_to_tree(n, edges)
            found = enumerate_maximal_families(tree_complex(T), space)
            single += len(found) == 1
            canonical += len(found) == 1 and found[0].same_family(
                family_of(tree_maximal_labelling(T)))
        yield {"n": n, "classes": len(classes), "one_maximal": single,
               "canonical": canonical,
               "ok": single == canonical == len(classes)}


def polygon_instances(max_n):
    yield from ((n, ()) for n in range(3, max_n + 1))
    yield from ((n, ((0, a),)) for n in range(4, max_n + 1)
                for a in range(2, n // 2 + 1))
    if max_n >= 6:
        yield 6, ((1, 5), (3, 5))


def polygon_rows(max_n, space):
    for n, chords in polygon_instances(max_n):
        X = subdivided_polygon(n, chords)
        maximal = enumerate_maximal_families(X, space)
        yield {"n": n, "chords": [list(c) for c in chords],
               "valid": len(enumerate_valid_families(X, space)),
               "maximal_families": len(maximal),
               "family_sizes": [len(F.sets) for F in maximal],
               "families": [[sorted(s) for s in F.sets] for F in maximal]}


def section(kind, args):
    """The {"kind", "rows", ...} object of one kind."""
    if kind == "variable-count":
        return report_to_dict(
            variable_count_report(max_candidates=args.max_candidates))
    if kind == "selfdual":
        return report_to_dict(
            selfdual_report(max_candidates=args.max_candidates))
    space = SearchSpace(max_candidates=args.max_candidates)
    rows = tree_rows if kind == "trees" else polygon_rows
    return {"kind": kind, "rows": list(rows(args.max_n, space))}


def cell(value):
    """Table text of a row value: lists of sets print as {a,b} {c}."""
    if isinstance(value, bool) or value is None:
        return {True: "yes", False: "no", None: "?"}[value]
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return " ".join("{" + cell(v) + "}" for v in value)
        return ",".join(map(str, value)) or "-"
    return str(value)


def print_section(sec):
    """One table: a column per row field, every maximal family listed
    under its row, then the counterexamples and the verdict if any."""
    print(TITLES[sec["kind"]])
    rows = sec["rows"]
    keys = [k for k in rows[0] if k != "families"] if rows else []
    table = [keys] + [[cell(row[k]) for k in keys] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(keys))]
    for row, line in zip([{}, *rows], table if rows else []):
        text = "  ".join(c.ljust(w) for c, w in zip(line, widths))
        print(("  " + text).rstrip())
        for members in row.get("families", ()):
            print(f"      {len(members)} members: {cell(members)}")
    for ce in sec.get("counterexamples", ()):
        print("  counterexample: "
              + " ".join(f"{k}={cell(v)}" for k, v in ce.items()))
    if "holds" in sec:
        print("holds on every row" if sec["holds"] else
              f"refuted by {len(sec['counterexamples'])} counterexample(s)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=[*TITLES, "all"], default="all")
    ap.add_argument("--max-n", type=nonnegative_int, default=7,
                    help="largest tree or polygon size (default 7)")
    ap.add_argument("--max-candidates", type=nonnegative_int, default=200)
    ap.add_argument("--json", action="store_true",
                    help="emit the sections as canonical JSON")
    args = ap.parse_args(argv)

    kinds = list(TITLES) if args.kind == "all" else [args.kind]
    try:
        sections = [section(kind, args) for kind in kinds]
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD

    if args.json:
        sys.stdout.write(canonical_json(sections))
        return 0
    for i, sec in enumerate(sections):
        if i:
            print()
        print_section(sec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
