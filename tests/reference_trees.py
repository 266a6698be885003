"""Reference tree rule: one union-find pass per lcm-degree threshold.

The source paper's rule for which trees resolve a codimension-two ideal:
weight each pair of labels by the degree of their lcm; a tree resolves the
ideal when its threshold subgraphs are spanning forests of the
corresponding threshold subgraphs of the complete graph, that is, when for
every degree d the tree's edges of weight at most d join the same vertices
as all pairs of weight at most d.  `reference_tree_resolution_trees` tests
that threshold by threshold over every labelled tree.  The library lists
the minimum spanning trees as a product over lcm-degree classes; both must
return the same trees.  `reference_canonical_resolution_tree` is the
one-pass Kruskal scan the library's class walk must reproduce.
"""

import functools
import heapq
import itertools

from cellres.constructions import OrientedTree


@functools.cache
def all_labelled_trees(n: int) -> tuple:
    """Every tree on vertices 0..n-1, as frozensets of sorted edge pairs,
    decoded from the n^(n-2) Pruefer sequences.  Cached per n: the
    threshold tests scan the same listing for many labellings."""
    if n == 1:
        return (frozenset(),)
    trees = []
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        for v in seq:
            deg[v] += 1
        edges = []
        heap = [v for v in range(n) if deg[v] == 1]
        heapq.heapify(heap)
        for v in seq:
            leaf = heapq.heappop(heap)
            edges.append((min(leaf, v), max(leaf, v)))
            deg[v] -= 1
            if deg[v] == 1:
                heapq.heappush(heap, v)
        u = heapq.heappop(heap)
        w = heapq.heappop(heap)
        edges.append((min(u, w), max(u, w)))
        trees.append(frozenset(edges))
    return tuple(trees)


def _find(parent, a):
    while parent[a] != a:
        a = parent[a]
    return a


def _lcm_degrees(L) -> dict:
    return {(i, j): sum(max(x, y) for x, y in zip(L.labels[i].exponents,
                                                  L.labels[j].exponents))
            for i, j in itertools.combinations(range(L.n_vertices), 2)}


def passes_thresholds(edges, n, edge_deg, levels) -> bool:
    """levels: each lcm degree d with the pairs of weight at most d."""
    for d, pairs in levels:
        parent = list(range(n))
        for i, j in edges:
            if edge_deg[(i, j)] <= d:
                parent[_find(parent, i)] = _find(parent, j)
        for i, j in pairs:
            if _find(parent, i) != _find(parent, j):
                return False
    return True


def reference_tree_resolution_trees(L) -> frozenset:
    n = L.n_vertices
    edge_deg = _lcm_degrees(L)
    levels = [(d, [e for e, dd in edge_deg.items() if dd <= d])
              for d in sorted(set(edge_deg.values()))]
    return frozenset(edges for edges in all_labelled_trees(n)
                     if passes_thresholds(edges, n, edge_deg, levels))


def reference_canonical_resolution_tree(L) -> OrientedTree:
    """Kruskal in one pass: scan all pairs by (lcm degree, lexicographic)
    and keep those joining distinct components."""
    n = L.n_vertices
    edge_deg = _lcm_degrees(L)
    order = sorted(edge_deg, key=lambda e: (edge_deg[e], e))
    parent = list(range(n))
    chosen = []
    for (i, j) in order:
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[ri] = rj
            chosen.append((i, j))
        if len(chosen) == n - 1:
            break
    return OrientedTree(n, tuple(sorted(chosen)))
