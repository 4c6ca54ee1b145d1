"""Exact chromatic numbers of disjointness graphs, small to less small.

The disjointness graph of the k-subsets of 1..n drops two colors every
time n grows by one while k stays put. This script climbs that ladder
with the exact solver, prints beside each chi the lower bound that the
main theorem certifies from the moment curve, shows the witness
colorings, and then restricts to the 2-stable subsets to see that the
chromatic number refuses to drop even on the much thinner vertex set.
"""

from kneser_tverberg import (
    certified_lower_bound,
    chromatic_number,
    intersection_hypergraph,
    kneser_hypergraph,
    moment_points,
    s_stable_subsets,
    simplex_complex,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("Disjointness graphs of all k-subsets")
for k, n in ((2, 5), (2, 6), (2, 7), (3, 7)):
    H = kneser_hypergraph(2, k, n)
    res = chromatic_number(H)
    # the (k-2)-skeleton's minimal nonfaces are the k-subsets; no two disjoint
    # faces meet on the moment curve in R^(2k-3)
    K = simplex_complex(n - 1).skeleton(k - 2)
    lower = certified_lower_bound(K, moment_points(range(1, n + 1), 2 * k - 3), 2)
    print(
        f"k={k} n={n}: {H.n_vertices} vertices, {H.n_edges} edges, "
        f"chi = {res.chi} (= n - 2k + 2 = {n - 2 * k + 2}), "
        f"{res.search_nodes} search nodes; certified bound {lower.bound} "
        f"from {lower.absence.tuples_examined} disjoint face pairs in R^{2 * k - 3}"
    )

banner("The Petersen graph, in its subset clothing")
H = kneser_hypergraph(2, 2, 5)
res = chromatic_number(H)
print(f"vertices: {[sorted(s) for s in H.vertices]}")
print(f"witness with {res.coloring.k} colors: {res.coloring.colors}")
if res.refuted_k is not None:
    print(
        f"and a refutation that {res.refuted_k} colors are impossible "
        f"after {res.refutation_nodes} nodes"
    )

banner("Restricting to 2-stable subsets keeps every color necessary")
for k, n in ((2, 5), (2, 6), (3, 7)):
    stable = s_stable_subsets(k, n, 2)
    H = intersection_hypergraph(stable, 2)
    res = chromatic_number(H)
    print(
        f"k={k} n={n}: {H.n_vertices} stable vertices (down from "
        f"{kneser_hypergraph(2, k, n).n_vertices}), chi still {res.chi}"
    )

banner("Vertex criticality of the 5-cycle instance")
H = intersection_hypergraph(s_stable_subsets(2, 5, 2), 2)
base = chromatic_number(H).chi
for v in range(H.n_vertices):
    sub = H.induced([u for u in range(H.n_vertices) if u != v])
    print(f"delete {sorted(H.vertices[v])}: chi drops {base} -> {chromatic_number(sub).chi}")
