"""Reference tree rule: one union-find pass per lcm-degree threshold.

The source paper's rule for which trees resolve a codimension-two ideal:
weight each pair of labels by the degree of their lcm; a tree resolves the
ideal when its threshold subgraphs are spanning forests of the
corresponding threshold subgraphs of the complete graph, that is, when for
every degree d the tree's edges of weight at most d join the same vertices
as all pairs of weight at most d.  `reference_tree_resolution_trees` tests
that threshold by threshold.  The library keeps the trees of least total
weight, the minimum spanning trees; both must return the same trees.
"""

import itertools

from cellres.constructions import all_labelled_trees


def _find(parent, a):
    while parent[a] != a:
        a = parent[a]
    return a


def _lcm_degrees(L) -> dict:
    return {(i, j): sum(max(x, y) for x, y in zip(L.labels[i].exponents,
                                                  L.labels[j].exponents))
            for i, j in itertools.combinations(range(L.n_vertices), 2)}


def passes_thresholds(edges, n, edge_deg) -> bool:
    for d in sorted(set(edge_deg.values())):
        parent = list(range(n))
        for i, j in edges:
            if edge_deg[(i, j)] <= d:
                parent[_find(parent, i)] = _find(parent, j)
        for (i, j), dd in edge_deg.items():
            if dd <= d and _find(parent, i) != _find(parent, j):
                return False
    return True


def reference_tree_resolution_trees(L) -> frozenset:
    n = L.n_vertices
    edge_deg = _lcm_degrees(L)
    return frozenset(edges for edges in all_labelled_trees(n)
                     if passes_thresholds(edges, n, edge_deg))
