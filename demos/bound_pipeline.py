"""The floor-formula bound, end to end, on the coned six-cycle.

A chromatic lower bound of the form N/(r-1) - d is only as good as the
placement behind it: it needs a drawing of the complex in R^d where no
r disjoint faces have intersecting hulls. This script builds the cone
over a six-cycle, places it as a hexagon with its center, verifies the
absence exhaustively, and then compares the resulting bound with the
exact chromatic number, the fractional width bound, and the greedy
upper bound. The floor formula wins and is tight.
"""

from kneser_tverberg import (
    PointConfiguration,
    SimplicialComplex,
    bound_floor_formula,
    chromatic_number,
    generalized_kneser,
    greedy_least_label,
    kriz_bound,
    simplex_complex,
    tverberg_search,
    width,
)

six_cycle = SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)])
cone = six_cycle.cone()
print(f"cone over the six-cycle: ground {cone.n}, dimension {cone.dim}")
print(f"minimal nonfaces (the nine chords): {[sorted(f) for f in cone.minimal_nonfaces()]}")

placement = PointConfiguration(
    2,
    {1: (2, 0), 2: (1, 2), 3: (-1, 2), 4: (-2, 0), 5: (-1, -2), 6: (1, -2), 7: (0, 0)},
)
search = tverberg_search(placement, 2, restrict_to=cone)
print()
print(f"absence search over the placement: found = {hasattr(search, 'point')}")
print(f"tuples examined: {search.tuples_examined}")

N, r, d = 6, 2, 2
floor = bound_floor_formula(N, r, d)
print()
print(f"floor formula N/(r-1) - d = {N}/{r - 1} - {d} = {floor}, valid by the absence above")

H = generalized_kneser(cone, simplex_complex(6), 2)
res = chromatic_number(H)
print(f"exact chromatic number of the disjointness graph: {res.chi}")

kb = kriz_bound(cone, 2)
print(f"fractional width bound: {kb} (width {width(cone, 2)} over r-1={r - 1}), far below")

greedy = greedy_least_label(H, 2, 6)
print(f"least-label greedy: {greedy.colors_used} colors, proper = {greedy.proper}")
print()
print(f"sandwich: {floor} <= chi = {res.chi} <= {greedy.colors_used}, all equal")
