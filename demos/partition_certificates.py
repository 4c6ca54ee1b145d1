"""Partition certificates and their refusals, all in exact arithmetic.

Three short stories about points on the moment curve:

  1. seven points in the plane always split into three groups with a
     common point, and the certificate can be rechecked by hand;
  2. strong general position is not automatic on the moment curve,
     with a concrete two-set witness in dimension four;
  3. when two hulls do intersect, the intersection shrinks to a
     minimal alternating pair, and when they do not, a polynomial of
     low degree separates them.
"""

from kneser_tverberg import (
    TverbergCertificate,
    intertwined_pair,
    moment_points,
    separating_polynomial,
    strong_general_position_report,
    tverberg_search,
)

print("== a three-part partition of seven planar points ==")
P = moment_points(range(1, 8), 2)
cert = tverberg_search(P, 3)
assert isinstance(cert, TverbergCertificate)
print(f"parts: {[sorted(p) for p in cert.parts]}")
print(f"common point: ({', '.join(str(x) for x in cert.point)})")
print("weights per part:")
for part_weights in cert.weights:
    print("  " + ", ".join(f"{lab}: {w}" for lab, w in part_weights))
print(f"recheck from scratch: {cert.verify(P)}")

print()
print("== the moment curve is not automatically in strong general position ==")
Q = moment_points(range(1, 7), 4)
holds, violating, checked = strong_general_position_report(Q, 2)
print(f"six points in R^4, r=2: holds = {holds} after {checked} tuples")
a, b = violating
print(
    f"witness: the segment {sorted(a)} and the 3-simplex {sorted(b)} "
    "meet, though their expected intersection is empty"
)

print()
print("== shrinking an intersection to its minimal core ==")
R = moment_points(range(1, 10), 3)
X1 = frozenset({1, 3, 6, 8})
X2 = frozenset({2, 4, 5, 9})
pair = intertwined_pair(R, X1, X2)
print(f"{sorted(X1)} vs {sorted(X2)} shrinks to {sorted(pair.part1)} vs {sorted(pair.part2)}")
# moment_points labels follow the curve parameters, so sorting them walks the curve
sides = "".join("AB"[lab in pair.part2] for lab in sorted(pair.part1 | pair.part2))
print(f"sides along the curve: {sides}, alternating: {'AA' not in sides and 'BB' not in sides}")
print(f"sizes {len(pair.part1)} and {len(pair.part2)}: floor(3/2)+1 and ceil(3/2)+1")

print()
print("== and a refusal, certified by a polynomial ==")
coeffs = separating_polynomial(R, frozenset({1, 2, 3}), frozenset({7, 8, 9}))
terms = " + ".join(f"({c})t^{i}" for i, c in enumerate(coeffs))
print(f"p(t) = {terms}")
print("p is positive on parameters 1,2,3 and negative on 7,8,9,")
print("and deg p <= d makes it affine on the curve, so the hulls cannot meet")
