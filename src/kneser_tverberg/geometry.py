"""Exact rational point configurations and partition searches.

All coordinates are fractions.Fraction and every geometric predicate
reduces to integer arithmetic, so there are no epsilons anywhere: a
reported partition comes with rational barycentric weights that anyone
can recheck by hand, and a reported absence means an exhaustive sweep
over the stated face tuples found none.

Contents: moment-curve configurations, cyclic polytope facets by the
evenness rule (with a brute-force half-space oracle to check them
against), convex hull intersection by phase-1 simplex, the partition
search with its verified-absence report, minimal intertwined pairs on
the moment curve, the strong general position test (one small integer
elimination per tuple of subsets, in homogeneous coordinates: stacked
annihilators of the lifted points, with a pivot in the last column
meaning empty hulls), and the seeded placement routine for
average-stability instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import det, feasible_nonneg, nullspace, pivot_columns
from .linalg import rank  # noqa: F401  re-exported: perfbench wraps geometry.rank
from .simplicial import SimplicialComplex, Simplex, complex_from_forbidden

Point = tuple[Fraction, ...]


class PointConfiguration:
    """Finitely many labeled points in Q^d.

    Labels are distinct positive integers; points are stored sorted by
    label. Instances are immutable by convention.
    """

    __slots__ = ("d", "labels", "_coords", "_index")

    def __init__(self, d: int, points: Mapping[int, Sequence] | Iterable[tuple[int, Sequence]]):
        if d < 1:
            raise ValueError("ambient dimension must be at least 1")
        items = sorted(points.items()) if isinstance(points, Mapping) else sorted(points)
        labels = [lab for lab, _ in items]
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if labels and labels[0] < 1:
            raise ValueError("labels must be positive")
        coords = []
        for _, c in items:
            c = tuple(Fraction(x) for x in c)
            if len(c) != d:
                raise ValueError(f"point of dimension {len(c)}, expected {d}")
            coords.append(c)
        self.d = d
        self.labels = tuple(labels)
        self._coords = tuple(coords)
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def point(self, label: int) -> Point:
        return self._coords[self._index[label]]

    def subset(self, labels: Iterable[int]) -> list[Point]:
        return [self.point(lab) for lab in sorted(labels)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PointConfiguration)
            and self.d == other.d
            and self.labels == other.labels
            and self._coords == other._coords
        )

    def __hash__(self) -> int:
        return hash((self.d, self.labels, self._coords))

    def __repr__(self) -> str:
        return f"PointConfiguration(d={self.d}, n={len(self.labels)})"

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "points": [
                {"label": lab, "coords": [str(x) for x in self.point(lab)]}
                for lab in self.labels
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PointConfiguration":
        return cls(
            int(data["d"]),
            [(int(rec["label"]), rec["coords"]) for rec in data["points"]],
        )


def moment_points(params: Sequence[Fraction | int | str], d: int) -> PointConfiguration:
    """Points (t, t^2, ..., t^d) for strictly increasing parameters t.

    Labels are 1..len(params) in parameter order.
    """
    ts = [Fraction(t) for t in params]
    if any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("parameters must be strictly increasing")
    return PointConfiguration(
        d, [(i + 1, tuple(t**j for j in range(1, d + 1))) for i, t in enumerate(ts)]
    )


def _on_moment_curve(P: PointConfiguration) -> bool:
    for lab in P.labels:
        c = P.point(lab)
        t = c[0]
        if any(c[j] != t ** (j + 1) for j in range(1, P.d)):
            return False
    return True


# -- cyclic polytopes ------------------------------------------------


def gale_facets(n: int, d: int) -> tuple[Simplex, ...]:
    """Facet vertex sets of the cyclic polytope with n vertices in R^d.

    The evenness rule: a d-subset S of 1..n spans a facet iff every pair
    of elements outside S encloses an even number of elements of S.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if n < d + 1:
        raise ValueError("need at least d+1 vertices")
    facets = []
    for S in combinations(range(1, n + 1), d):
        inside = set(S)
        outside = [v for v in range(1, n + 1) if v not in inside]
        ok = True
        for a, b in combinations(outside, 2):
            if sum(1 for v in S if a < v < b) % 2:
                ok = False
                break
        if ok:
            facets.append(frozenset(S))
    return tuple(facets)


def hull_facets_oracle(P: PointConfiguration) -> tuple[Simplex, ...]:
    """Facets of the convex hull by definition, for simplicial hulls.

    A d-subset spans a facet iff every remaining point lies strictly on
    one common side of its affine hull, decided by exact determinant
    signs. Subsets whose hull is degenerate or that have points on both
    sides (or on the hyperplane) are rejected, so for configurations in
    general position this is the full facet list.
    """
    d = P.d
    labels = P.labels
    if len(labels) < d + 1:
        raise ValueError("need at least d+1 points")
    out = []
    for S in combinations(labels, d):
        base = P.point(S[0])
        rows = [tuple(x - y for x, y in zip(P.point(lab), base)) for lab in S[1:]]
        sign = 0
        good = True
        for lab in labels:
            if lab in S:
                continue
            dval = det(rows + [tuple(x - y for x, y in zip(P.point(lab), base))])
            s = (dval > 0) - (dval < 0)
            if s == 0 or (sign and s != sign):
                good = False
                break
            sign = s
        if good:
            out.append(frozenset(S))
    return tuple(sorted(out, key=lambda f: tuple(sorted(f))))


def cyclic_missing_faces(n: int, dim: int) -> tuple[Simplex, ...]:
    """Minimal nonfaces of the boundary complex of an even-dimensional cyclic polytope."""
    if dim < 2 or dim % 2:
        raise ValueError("dimension must be even and at least 2")
    if n < dim + 1:
        raise ValueError("need at least dim+1 vertices")
    boundary = SimplicialComplex(n, gale_facets(n, dim))
    return boundary.minimal_nonfaces()


# -- convex hull intersection ----------------------------------------


@dataclass(frozen=True)
class ConvexWitness:
    """A common point of several hulls with one weight vector per part."""

    point: Point
    weights: tuple[tuple[Fraction, ...], ...]


def conv_intersect(parts: Sequence[Sequence[Sequence]]) -> Optional[ConvexWitness]:
    """A point in the intersection of the convex hulls, or None.

    Exact phase-1 simplex on the combined barycentric system. A cheap
    per-coordinate check runs first: the bounding intervals of the parts
    must overlap in every coordinate for an intersection to exist.
    """
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    pts: list[list[Point]] = []
    d = None
    for part in parts:
        if not part:
            raise ValueError("empty part")
        cur = [tuple(Fraction(x) for x in p) for p in part]
        if d is None:
            d = len(cur[0])
        if any(len(p) != d for p in cur):
            raise ValueError("inconsistent point dimensions")
        pts.append(cur)
    assert d is not None

    for j in range(d):
        lo = max(min(p[j] for p in part) for part in pts)
        hi = min(max(p[j] for p in part) for part in pts)
        if lo > hi:
            return None

    sizes = [len(part) for part in pts]
    nvar = sum(sizes)
    offs = [0] * len(pts)
    for i in range(1, len(pts)):
        offs[i] = offs[i - 1] + sizes[i - 1]

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    zero = Fraction(0)
    for i in range(1, len(pts)):
        for j in range(d):
            row = [zero] * nvar
            for p_idx, p in enumerate(pts[0]):
                row[offs[0] + p_idx] = p[j]
            for p_idx, p in enumerate(pts[i]):
                row[offs[i] + p_idx] = -p[j]
            rows.append(row)
            rhs.append(zero)
    for i in range(len(pts)):
        row = [zero] * nvar
        for p_idx in range(sizes[i]):
            row[offs[i] + p_idx] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))

    x = feasible_nonneg(rows, rhs)
    if x is None:
        return None
    weights = tuple(
        tuple(x[offs[i] + p_idx] for p_idx in range(sizes[i])) for i in range(len(pts))
    )
    point = tuple(
        sum((w * p[j] for w, p in zip(weights[0], pts[0])), zero) for j in range(d)
    )
    return ConvexWitness(point, weights)


# -- partition search -------------------------------------------------


class SearchSpaceError(ValueError):
    """Raised when a sweep would exceed its candidate cap."""

    def __init__(self, message: str, estimate: int, cap: int):
        super().__init__(message)
        self.estimate = estimate
        self.cap = cap


@dataclass(frozen=True)
class TverbergCertificate:
    """r disjoint label sets whose hulls share a point, with exact weights.

    weights[i] lists (label, weight) pairs for parts[i]; the weighted
    averages of all parts equal `point`. verify() recomputes everything
    from scratch against a configuration.
    """

    parts: tuple[Simplex, ...]
    point: Point
    weights: tuple[tuple[tuple[int, Fraction], ...], ...]

    def verify(self, P: PointConfiguration) -> bool:
        if len(self.parts) < 2 or len(self.parts) != len(self.weights):
            return False
        seen: set[int] = set()
        for part, wlist in zip(self.parts, self.weights):
            if not part or frozenset(lab for lab, _ in wlist) != part:
                return False
            if seen & part:
                return False
            seen |= part
            if any(w < 0 for _, w in wlist):
                return False
            if sum(w for _, w in wlist) != 1:
                return False
            for j in range(P.d):
                if sum(w * P.point(lab)[j] for lab, w in wlist) != self.point[j]:
                    return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "parts": [sorted(p) for p in self.parts],
            "point": [str(x) for x in self.point],
            "weights": [{str(lab): str(w) for lab, w in wlist} for wlist in self.weights],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TverbergCertificate":
        return cls(
            tuple(frozenset(map(int, p)) for p in data["parts"]),
            tuple(Fraction(x) for x in data["point"]),
            tuple(
                tuple(sorted((int(lab), Fraction(w)) for lab, w in wdict.items()))
                for wdict in data["weights"]
            ),
        )


@dataclass(frozen=True)
class AbsenceReport:
    """Negative search outcome: every admissible face tuple was checked.

    min_total_size records the pruning threshold on the summed part
    sizes (equal to r when nothing was pruned); moment_pruning tells
    whether the threshold came from the codimension rule, which is only
    sound for moment-curve configurations in strong general position.
    """

    r: int
    n_faces: int
    tuples_examined: int
    min_total_size: int
    restricted: bool
    moment_pruning: bool

    def to_json_dict(self) -> dict:
        return {
            "found": False,
            "r": self.r,
            "faces": self.n_faces,
            "tuples_examined": self.tuples_examined,
            "min_total_size": self.min_total_size,
            "restricted": self.restricted,
            "moment_pruning": self.moment_pruning,
        }


DEFAULT_SEARCH_CAP = 1 << 22

# Draws before a seeded search for a strong general position
# configuration gives up with an error instead of looping on.
DEFAULT_SGP_ATTEMPTS = 24


def tverberg_search(
    P: PointConfiguration,
    r: int,
    restrict_to: Optional[SimplicialComplex] = None,
    *,
    cap: int = DEFAULT_SEARCH_CAP,
    moment_pruning: bool = False,
) -> TverbergCertificate | AbsenceReport:
    """Find r disjoint faces whose hulls meet, or verify there are none.

    Faces larger than d+1 points never need to be searched: any point of
    a hull is already a convex combination of at most d+1 of its
    vertices, so a partition using a big face restricts to one using a
    face of the complex of size at most d+1 (complexes are closed under
    subsets). With restrict_to the parts must be faces of that complex,
    whose vertex labels must be exactly the labels of P.

    moment_pruning drops tuples whose summed sizes leave a total
    codimension above d. That is justified only for configurations on
    the moment curve that passed the strong general position test; the
    caller owns that justification, and the returned report carries the
    flag so downstream consumers can see what the sweep relied on.

    Tuples are checked in order of increasing total size, ties in face
    order, so outcomes are deterministic. Raises SearchSpaceError when
    the number of r-subsets of candidate faces exceeds cap.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    d = P.d
    labels = P.labels
    pos = {lab: i for i, lab in enumerate(labels)}

    if restrict_to is not None:
        if set(labels) != set(range(1, restrict_to.n + 1)):
            raise ValueError("complex vertices must match the point labels 1..n")
        face_sets = [f for f in restrict_to.faces(max_size=d + 1) if f]
    else:
        face_sets = [
            frozenset(c) for size in range(1, min(d + 1, len(labels)) + 1)
            for c in combinations(labels, size)
        ]
    face_sets.sort(key=lambda f: (len(f), tuple(sorted(f))))
    masks = [sum(1 << pos[lab] for lab in f) for f in face_sets]
    sizes = [len(f) for f in face_sets]
    nf = len(face_sets)

    estimate = comb(nf, r)
    if estimate > cap:
        raise SearchSpaceError(
            f"{estimate} candidate {r}-tuples from {nf} faces exceed the cap {cap}",
            estimate,
            cap,
        )

    threshold = r
    if moment_pruning:
        # total codimension sum((d+1) - size_i) must stay at most d
        threshold = max(threshold, (r - 1) * (d + 1) + 1)

    admitted: list[tuple[int, ...]] = []
    chosen: list[int] = []
    max_size = max(sizes) if sizes else 0

    def rec(start: int, union: int, total: int):
        if len(chosen) == r:
            admitted.append(tuple(chosen))
            return
        need = r - len(chosen)
        if total + need * max_size < threshold:
            return
        for i in range(start, nf - need + 1):
            if masks[i] & union == 0:
                chosen.append(i)
                rec(i + 1, union | masks[i], total + sizes[i])
                chosen.pop()

    try:
        rec(0, 0, 0)
    finally:
        del rec  # rec refers to itself; break the cycle so what it closes over is freed on return
    admitted = [t for t in admitted if sum(sizes[i] for i in t) >= threshold]
    admitted.sort(key=lambda t: (sum(sizes[i] for i in t), t))

    examined = 0
    for t in admitted:
        examined += 1
        part_sets = [face_sets[i] for i in t]
        witness = conv_intersect([P.subset(f) for f in part_sets])
        if witness is None:
            continue
        order = sorted(range(r), key=lambda i: tuple(sorted(part_sets[i])))
        parts = tuple(part_sets[i] for i in order)
        weights = tuple(
            tuple(zip(sorted(part_sets[i]), witness.weights[i]))
            for i in order
        )
        cert = TverbergCertificate(parts, witness.point, weights)
        if not cert.verify(P):
            raise ArithmeticError("internal certificate failed its own verification")
        return cert
    return AbsenceReport(
        r, nf, examined, threshold, restrict_to is not None, moment_pruning
    )


# -- intertwined pairs on the moment curve ----------------------------


@dataclass(frozen=True)
class IntertwinedPair:
    """Two disjoint label sets with intersecting hulls, minimal under inclusion."""

    part1: Simplex
    part2: Simplex
    alternating: bool
    witness: ConvexWitness


def _blocks_by_side(P: PointConfiguration, X1: frozenset[int], X2: frozenset[int]) -> list[list[int]]:
    merged = sorted(X1 | X2, key=lambda lab: P.point(lab)[0])
    blocks: list[list[int]] = []
    side_prev = None
    for lab in merged:
        side = 1 if lab in X1 else 2
        if side != side_prev:
            blocks.append([])
            side_prev = side
        blocks[-1].append(lab)
    return blocks


def _is_alternating(P: PointConfiguration, Y1: frozenset[int], Y2: frozenset[int]) -> bool:
    merged = sorted(Y1 | Y2, key=lambda lab: P.point(lab)[0])
    sides = [1 if lab in Y1 else 2 for lab in merged]
    return all(a != b for a, b in zip(sides, sides[1:]))


def intertwined_pair(
    P: PointConfiguration, X1: Iterable[int], X2: Iterable[int]
) -> IntertwinedPair:
    """Shrink two intersecting hulls on the moment curve to a minimal pair.

    On the moment curve in R^d, d+2 points whose two-part split
    alternates along the curve form a partition with intersecting hulls,
    and conversely intersecting disjoint sets must interleave at least
    that much. So the fast path picks one point from each of the first
    d+2 alternation blocks of the merged order and verifies the split it
    induces with a single exact feasibility check; minimality is
    automatic because fewer than d+2 points on the curve are affinely
    independent. If the blocks are too few, a greedy descent removes
    points one at a time while the hulls keep intersecting.
    """
    A = frozenset(X1)
    B = frozenset(X2)
    if not A or not B:
        raise ValueError("parts must be nonempty")
    if A & B:
        raise ValueError("parts must be disjoint")
    missing = (A | B) - set(P.labels)
    if missing:
        raise ValueError(f"labels {sorted(missing)} not in the configuration")
    if not _on_moment_curve(P):
        raise ValueError("configuration must lie on the moment curve")
    if conv_intersect([P.subset(A), P.subset(B)]) is None:
        raise ValueError("hulls do not intersect")

    d = P.d
    blocks = _blocks_by_side(P, A, B)
    if len(blocks) >= d + 2:
        picks = [blk[0] for blk in blocks[: d + 2]]
        Y1 = frozenset(lab for lab in picks if lab in A)
        Y2 = frozenset(lab for lab in picks if lab in B)
        witness = conv_intersect([P.subset(Y1), P.subset(Y2)])
        if witness is not None:
            return IntertwinedPair(Y1, Y2, _is_alternating(P, Y1, Y2), witness)

    # Greedy descent, deterministic: repeatedly drop the least label
    # whose removal keeps the hulls intersecting.
    Y1, Y2 = set(A), set(B)
    while True:
        removed = False
        for side, cur in ((1, Y1), (2, Y2)):
            if len(cur) <= 1:
                continue
            for lab in sorted(cur):
                trial1 = Y1 - {lab} if side == 1 else Y1
                trial2 = Y2 - {lab} if side == 2 else Y2
                if conv_intersect([P.subset(trial1), P.subset(trial2)]) is not None:
                    cur.discard(lab)
                    removed = True
                    break
            if removed:
                break
        if not removed:
            break
    Y1f, Y2f = frozenset(Y1), frozenset(Y2)
    witness = conv_intersect([P.subset(Y1f), P.subset(Y2f)])
    assert witness is not None
    return IntertwinedPair(Y1f, Y2f, _is_alternating(P, Y1f, Y2f), witness)


def separating_polynomial(
    P: PointConfiguration, X1: Iterable[int], X2: Iterable[int]
) -> Optional[tuple[Fraction, ...]]:
    """Certificate that two disjoint hulls on the moment curve are disjoint.

    If the merged parameter order of the two parts has at most d+1
    alternation blocks, the polynomial with one root strictly between
    each pair of consecutive blocks has degree at most d, hence is an
    affine functional on the curve, and it strictly separates the parts.
    Returns its coefficients (constant first) with the sign convention
    that the first part is on the positive side, or None when the block
    count is d+2 or more (in which case the hulls do intersect).

    The returned certificate is verified by exact evaluation before it
    is handed back.
    """
    A = frozenset(X1)
    B = frozenset(X2)
    if not A or not B or A & B:
        raise ValueError("parts must be nonempty and disjoint")
    if not _on_moment_curve(P):
        raise ValueError("configuration must lie on the moment curve")
    blocks = _blocks_by_side(P, A, B)
    if len(blocks) >= P.d + 2:
        return None
    roots = []
    for left, right in zip(blocks, blocks[1:]):
        lo = P.point(left[-1])[0]
        hi = P.point(right[0])[0]
        roots.append((lo + hi) / 2)
    coeffs = [Fraction(1)]
    for root in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * root
        coeffs = nxt

    def value(lab: int) -> Fraction:
        t = P.point(lab)[0]
        return sum((c * t**i for i, c in enumerate(coeffs)), Fraction(0))

    # The product of (t - root) factors is positive beyond its largest
    # root, so the last block sits on the positive side; flip if that
    # block belongs to the second part, then verify every point.
    if blocks[-1][0] not in A:
        coeffs = [-c for c in coeffs]
    for lab in sorted(A):
        if value(lab) <= 0:
            raise ArithmeticError("separating certificate failed verification")
    for lab in sorted(B):
        if value(lab) >= 0:
            raise ArithmeticError("separating certificate failed verification")
    return tuple(coeffs)


# -- strong general position ------------------------------------------


def _scaled_integer_points(P: PointConfiguration) -> dict[int, tuple[int, ...]]:
    """Clear denominators column by column.

    Scaling each coordinate axis independently is an invertible linear
    map, so it preserves affine hulls, their intersections, and all the
    dimensions the strong general position test looks at.
    """
    mults = [1] * P.d
    for lab in P.labels:
        for j, x in enumerate(P.point(lab)):
            mults[j] = lcm(mults[j], x.denominator)
    return {
        lab: tuple(
            int(x.numerator) * (mults[j] // x.denominator)
            for j, x in enumerate(P.point(lab))
        )
        for lab in P.labels
    }


def strong_general_position_report(
    P: PointConfiguration, r: int, *, cap: int = DEFAULT_SEARCH_CAP
) -> tuple[bool, Optional[tuple[Simplex, ...]], int]:
    """Full strong general position scan.

    Checks every tuple of s pairwise disjoint nonempty subsets, 2 <= s
    <= r, each of at most d+1 points, whose expected codimensions sum to
    at most d+1 (larger subsets and larger sums impose no constraint:
    a degenerate big subset contains a small subset with the same affine
    hull, and sums beyond d+1 are unconstrained by definition). For each
    such tuple the affine hulls must intersect in the expected dimension,
    or be empty exactly when the codimension sum reaches d+1.

    The test runs in homogeneous coordinates. Each point p is lifted to
    (p, 1), and each subset gets, once, an integer basis of the
    annihilator of the lifted points' span; its d - dim aff rows give
    the subset's codimension. The affine hulls of a tuple meet in the
    solutions of the stacked annihilators with last coordinate 1. One
    elimination of that stack, at most (d+1) x (d+1), decides the tuple:
    a pivot in the last column puts e_(d+1) in the row space, so the
    hulls are empty (codimension d+1); otherwise the actual codimension
    is the rank.

    Returns (holds, violating tuple or None, tuples checked).
    """
    if r < 2:
        raise ValueError("need r >= 2")
    d = P.d
    ipts = _scaled_integer_points(P)
    labels = P.labels
    pos = {lab: i for i, lab in enumerate(labels)}

    subsets: list[frozenset[int]] = [
        frozenset(c)
        for size in range(1, min(d + 1, len(labels)) + 1)
        for c in combinations(labels, size)
    ]
    subsets.sort(key=lambda f: (len(f), tuple(sorted(f))))
    smasks = [sum(1 << pos[lab] for lab in f) for f in subsets]
    annihilators = [nullspace([ipts[lab] + (1,) for lab in sorted(f)]) for f in subsets]
    scodims = [len(rows) for rows in annihilators]

    checked = 0
    chosen: list[int] = []

    def rec(start: int, union: int, codim_sum: int) -> Optional[tuple[Simplex, ...]]:
        nonlocal checked
        if len(chosen) >= 2:
            checked += 1
            if checked > cap:
                raise SearchSpaceError(
                    f"strong general position scan exceeded the cap {cap}", checked, cap
                )
            pivots = pivot_columns([row for i in chosen for row in annihilators[i]])
            actual_codim = d + 1 if pivots and pivots[-1] == d else len(pivots)
            if actual_codim != codim_sum:
                return tuple(subsets[i] for i in chosen)
        if len(chosen) == r:
            return None
        for i in range(start, len(subsets)):
            if smasks[i] & union:
                continue
            nxt = codim_sum + scodims[i]
            if nxt > d + 1:
                continue
            chosen.append(i)
            bad = rec(i + 1, union | smasks[i], nxt)
            if bad:
                return bad
            chosen.pop()
        return None

    try:
        bad = rec(0, 0, 0)
    finally:
        del rec  # rec refers to itself; break the cycle so what it closes over is freed on return
    return bad is None, bad, checked


def is_strong_general_position(
    P: PointConfiguration, r: int, *, cap: int = DEFAULT_SEARCH_CAP
) -> bool:
    """Whether the configuration is in strong general position for r parts."""
    holds, _, _ = strong_general_position_report(P, r, cap=cap)
    return holds


# -- seeded placements for average-stability instances ----------------


def avg_stable_placement(
    r: int,
    k: int,
    d: int,
    n: int,
    *,
    seed: int = 0,
    attempts: int = DEFAULT_SGP_ATTEMPTS,
) -> tuple[SimplicialComplex, PointConfiguration]:
    """Complex plus moment-curve placement for the average-stability bound.

    The complex on 1..n has exactly the k-subsets that are t-stable on
    average as its minimal nonfaces, with t = r(k-3)/(2(k-1)) + 1. The
    points are moment-curve points at parameters i + eps_i with seeded
    rational jitters eps_i in [0, 1/2), retried until the configuration
    passes the strong general position test.
    """
    if r < 2 or k < 2 or d < 1 or n < 1:
        raise ValueError("need r >= 2, k >= 2, d >= 1, n >= 1")
    t = Fraction(r * (k - 3), 2 * (k - 1)) + 1
    if t < 1:
        raise ValueError(f"stability parameter {t} below 1")
    if (r - 1) * d <= r * (k - 2):
        raise ValueError("dimension too small for the average-stability hypotheses")
    if t >= Fraction(r - 1, k - 1) * (d // 2) + 1:
        raise ValueError("stability parameter too large for the dimension")

    from .hypergraphs import is_t_stable_on_average

    forbidden = [
        set(c)
        for c in combinations(range(1, n + 1), k)
        if is_t_stable_on_average(c, n, t)
    ]
    K = complex_from_forbidden(forbidden, n) if forbidden else SimplicialComplex(
        n, [range(1, n + 1)]
    )

    rng = random.Random(seed)
    for _ in range(attempts):
        params = [Fraction(i) + Fraction(rng.randrange(0, 2048), 4096) for i in range(1, n + 1)]
        P = moment_points(params, d)
        if is_strong_general_position(P, r):
            return K, P
    raise ValueError(f"no strong general position placement found in {attempts} attempts")
