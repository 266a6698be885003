"""Classification tables for small complexes.

Usage:
    python scripts/classify_small_cases.py [--max-tree-vertices N]
                                           [--max-polygon N]
                                           [--max-candidates N]

Prints, in order: the maximal family count per isomorphism class of small
trees (expected: exactly one each, matching the canonical tree labelling),
valid/maximal family counts for solid polygons and one-chord disks, and the
full catalogue on the hexagon subdivided by the chords (1,5) and (3,5),
where the search finds six maximal families instead of the expected
eight-member single shape.
"""

import argparse
import sys

from cellres.cli import EXIT_GUARD, nonnegative_int
from cellres.constructions import (
    chord_complex,
    edges_to_tree,
    polygon_complex,
    subdivided_polygon,
    tree_complex,
    tree_maximal_labelling,
)
from cellres.monomials import family_of, member_key
from cellres.search import (
    GuardExceeded,
    SearchSpace,
    enumerate_maximal_families,
    enumerate_valid_families,
)


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


def family_text(F):
    return " ".join("{" + ",".join(map(str, sorted(s))) + "}"
                    for s in sorted(F.sets, key=member_key))


def tree_table(max_vertices, space):
    print("trees: maximal families per isomorphism class")
    print(f"  {'n':>2} {'classes':>8} {'one maximal each':>17} "
          f"{'matches canonical labelling':>28}")
    for n in range(2, max_vertices + 1):
        classes = tree_classes(n)
        single = matches = 0
        for edges in classes:
            T = edges_to_tree(n, edges)
            found = enumerate_maximal_families(tree_complex(T), space)
            if len(found) == 1:
                single += 1
                if found[0].same_family(family_of(tree_maximal_labelling(T))):
                    matches += 1
        flag = "yes" if single == matches == len(classes) else "NO"
        print(f"  {n:>2} {len(classes):>8} {single:>13}/{len(classes):<3} "
              f"{matches:>24}/{len(classes):<3} {flag}")


def polygon_table(max_n, space):
    print("solid polygons")
    print(f"  {'n':>2} {'valid':>6} {'maximal':>8}  sizes")
    for n in range(3, max_n + 1):
        valid = enumerate_valid_families(polygon_complex(n), space)
        maximal = enumerate_maximal_families(polygon_complex(n), space)
        sizes = ",".join(str(len(F.sets)) for F in maximal) or "-"
        print(f"  {n:>2} {len(valid):>6} {len(maximal):>8}  {sizes}")


def chord_table(max_n, space):
    print("one-chord disks (chord from vertex 0 to vertex a)")
    print(f"  {'n':>2} {'a':>2} {'valid':>6} {'maximal':>8}  sizes")
    for n in range(4, max_n + 1):
        for a in range(2, n // 2 + 1):
            X = chord_complex(n, a)
            valid = enumerate_valid_families(X, space)
            maximal = enumerate_maximal_families(X, space)
            sizes = ",".join(str(len(F.sets)) for F in maximal) or "-"
            print(f"  {n:>2} {a:>2} {len(valid):>6} {len(maximal):>8}  {sizes}")


def hexagon_catalogue(space):
    X = subdivided_polygon(6, ((1, 5), (3, 5)))
    valid = enumerate_valid_families(X, space)
    maximal = enumerate_maximal_families(X, space)
    print("hexagon with chords (1,5) and (3,5): "
          f"{len(valid)} valid families, {len(maximal)} maximal")
    for F in maximal:
        print(f"  {len(F.sets)} members: {family_text(F)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-tree-vertices", type=int, default=7)
    ap.add_argument("--max-polygon", type=int, default=7)
    ap.add_argument("--max-candidates", type=nonnegative_int, default=200)
    args = ap.parse_args(argv)

    space = SearchSpace(max_candidates=args.max_candidates)
    try:
        tree_table(args.max_tree_vertices, space)
        print()
        polygon_table(args.max_polygon, space)
        print()
        chord_table(args.max_polygon, space)
        print()
        hexagon_catalogue(space)
    except GuardExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    return 0


if __name__ == "__main__":
    sys.exit(main())
