"""Exact rational point configurations and partition searches.

All coordinates are fractions.Fraction and every geometric predicate
reduces to integer arithmetic, so there are no epsilons anywhere: a
reported partition comes with rational barycentric weights that anyone
can recheck by hand, and a reported absence means an exhaustive sweep
over the stated face tuples found none.

Contents: moment-curve configurations, cyclic polytope facets by the
evenness rule (with a brute-force half-space oracle to check them
against), convex hull intersection on the barycentric system scaled to
integers by one common denominator (built in one place, _hull_weights,
and decided by one elimination or the phase-1 simplex), the partition
search with its verified-absence report (P is scaled to integers by one
common denominator once per search, and each tuple is solved on those
integer points: one whose per-face bounding boxes miss in some
coordinate is rejected before any hull test, as is a pair on the moment
curve with at most d+1 alternation blocks; certificates are checked in
integers, their denominators cleared), minimal
intertwined pairs on the moment curve by a closed-form integer Radon
dependence, no LP, and separating polynomials, both built and checked
by substitution in integers (both read one parameter table, kept once
per configuration: a common denominator q and the integer u = q*t of
each label's curve parameter t), the strong general position test
(one tuple search in homogeneous coordinates for any number of parts:
stacked annihilators of the lifted points, their echelon basis extended
by one subset per level, with a pivot in the last column meaning empty
hulls), and the seeded placement routine for average-stability
instances, which keeps its first draw for any number of parts. No
absence rests on that test: the partition search prunes by codimension
only where a theorem it checks from its own inputs covers the prune.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import le
from typing import Iterable, Mapping, Optional, Sequence

from .hypergraphs import avg_stability_parameter, is_t_stable_on_average
# rank is used by no function here; perfbench/selftest.py reads geometry.rank
# to check that a traced run restores the binding, so the import stays.
from .linalg import Echelon, extend_echelon, feasible_nonneg, nullspace, rank  # noqa: F401
from .simplicial import SimplicialComplex, Simplex, _disjoint_tuples, complex_from_forbidden

Point = tuple[Fraction, ...]


class PointConfiguration:
    """Finitely many labeled points in Q^d.

    Labels are distinct positive integers; points are stored sorted by
    label. Instances are immutable by convention, which is what lets
    the moment-curve parameter table be decided once and kept.
    """

    __slots__ = ("d", "labels", "_coords", "_index", "_curve")

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
            # a Fraction is immutable, so it is kept rather than copied: points
            # built from Fractions (moment_points, another configuration's) share them
            c = tuple(x if type(x) is Fraction else Fraction(x) for x in c)
            if len(c) != d:
                raise ValueError(f"point of dimension {len(c)}, expected {d}")
            coords.append(c)
        self.d = d
        self.labels = tuple(labels)
        self._coords = tuple(coords)
        self._index = {lab: i for i, lab in enumerate(labels)}
        # None until _curve_table decides it; then False off the curve,
        # or (q, {label: q*t}) with q the common denominator of the parameters t
        self._curve: Optional[tuple[int, dict[int, int]] | bool] = None

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

    A d-subset S spans a facet iff every remaining point lies strictly
    on one common side of its affine hull. The hyperplanes a.x + b = 0
    through S are the null space of the lifted points (p, 1) of S: one
    vector (a, b) when S is affinely independent, more when it is
    degenerate, and then S is rejected. A remaining point q lies on the
    side sign(a.q + b); a subset with points on both sides, or on the
    hyperplane, is rejected too, so for configurations in general
    position this is the full facet list.
    """
    labels = P.labels
    if len(labels) < P.d + 1:
        raise ValueError("need at least d+1 points")
    out = []
    for S in combinations(labels, P.d):
        null = nullspace([(*P.point(lab), 1) for lab in S])
        if len(null) > 1:
            continue
        *a, b = null[0]
        sign = 0
        for lab in labels:
            if lab in S:
                continue
            val = sum(x * y for x, y in zip(a, P.point(lab))) + b
            s = (val > 0) - (val < 0)
            if s == 0 or (sign and s != sign):
                break
            sign = s
        else:
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


Box = list[list[int]]


def _box(points: Sequence[Sequence[int]]) -> Box:
    """Coordinatewise [lows, highs] of nonempty integer points.

    Lists, not tuples: a search frees all its boxes at once, and freed
    tuples stay in the interpreter's per-size free lists, which raised
    peak memory.
    """
    cols = list(zip(*points))
    return [list(map(min, cols)), list(map(max, cols))]


def _boxes_meet(boxes: Sequence[Box]) -> bool:
    """Whether two or more boxes share a point: their intervals overlap in every coordinate.

    Disjoint bounding boxes are a trivial certificate that the hulls
    inside them do not meet: one coordinate and a threshold between them.
    """
    lows, highs = zip(*boxes)
    return all(map(le, map(max, *lows), map(min, *highs)))


@dataclass(frozen=True)
class ConvexWitness:
    """A common point of several hulls with one weight vector per part."""

    point: Point
    weights: tuple[tuple[Fraction, ...], ...]


def _hull_weights(
    parts: Sequence[Sequence[Sequence[int]]], scale: int
) -> Optional[tuple[tuple[Fraction, ...], ...]]:
    """Barycentric weights of a common point of the parts' hulls, or None.

    The one place the barycentric system is built. The parts are
    nonempty lists of integer points of one dimension d, each L = scale
    > 0 times the rational point it stands for. The system is L times
    the rational one, in integers: for each part i >= 1 and coordinate
    j, the row of L*p_j over part 0 and -L*p_j over part i with
    right-hand side 0; then, for each part, a row of L's over its
    weights with right-hand side L. It has (r-1)d + r equations for r
    parts, so parts of total size at most (r-1)(d+1)+1 give no more
    unknowns than equations, and one elimination decides them; larger
    tuples go to the phase-1 simplex. Scaling the whole system by a
    positive integer changes neither its null space nor any Bland choice
    of the simplex (feasible_nonneg), so every multiple of the common
    denominator gives the same weights, one per point, part by part.
    Per-axis scales would change the column sums and with them the
    simplex's entering choices, so the scale is one number.
    """
    sizes = [len(part) for part in parts]
    nvar = sum(sizes)
    first = list(zip(*parts[0]))
    rows: list[list[int]] = []
    before = sizes[0]
    for part, size in zip(parts[1:], sizes[1:]):
        gap = [0] * (before - sizes[0])
        after = [0] * (nvar - before - size)
        for j, col in enumerate(zip(*part)):
            rows.append([*first[j], *gap, *[-x for x in col], *after])
        before += size
    nrows = len(rows)
    before = 0
    for size in sizes:
        rows.append([0] * before + [scale] * size + [0] * (nvar - before - size))
        before += size
    x = feasible_nonneg(rows, [0] * nrows + [scale] * len(sizes))
    if x is None:
        return None
    out = []
    before = 0
    for size in sizes:
        out.append(tuple(x[before : before + size]))
        before += size
    return tuple(out)


def _witness_point(weights: Sequence[Fraction], part: Sequence[Sequence[int]], scale: int) -> Point:
    """The weighted average of one part's integer points, over their scale."""
    return tuple(
        sum((w * x for w, x in zip(weights, col)), Fraction(0)) / scale for col in zip(*part)
    )


def conv_intersect(parts: Sequence[Sequence[Sequence]]) -> Optional[ConvexWitness]:
    """A point in the intersection of the convex hulls, or None.

    Exact: every coordinate is checked and scaled by one common multiple
    L of the parts' denominators, and the integer points go to
    _hull_weights, which builds and solves the barycentric system. A
    cheap per-coordinate check runs first: the bounding intervals of the
    parts must overlap in every coordinate for an intersection to exist.
    The witness point is part 0's weighted average.
    """
    if len(parts) < 2:
        raise ValueError("need at least two parts")
    pts: list[list[Sequence[Fraction | int]]] = []
    d = None
    for part in parts:
        if not part:
            raise ValueError("empty part")
        cur = [
            p if all(type(x) is Fraction or type(x) is int for x in p)
            else tuple(Fraction(x) for x in p)
            for p in part
        ]
        if d is None:
            d = len(cur[0])
        if any(len(p) != d for p in cur):
            raise ValueError("inconsistent point dimensions")
        pts.append(cur)
    assert d is not None

    # A list, not a generator: a generator's argument tuple is grown by
    # reallocation, and that left the heap fragmented, peak memory
    # creeping up call after call.
    scale = lcm(*[x.denominator for part in pts for p in part for x in p])
    ipts = [
        [[x.numerator * (scale // x.denominator) for x in p] for p in part] for part in pts
    ]
    if not _boxes_meet([_box(part) for part in ipts]):
        return None
    weights = _hull_weights(ipts, scale)
    if weights is None:
        return None
    return ConvexWitness(_witness_point(weights[0], ipts[0], scale), weights)


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
        """Whether the parts are disjoint faces whose weighted averages are all `point`.

        Exact, and in integers: weights and coordinates are ints or
        Fractions, read as numerator over denominator. For each part the
        weights w are cleared by the common multiple D of their
        denominators and the coordinates by the common multiple M of
        the part's and the point's: W = D*w >= 0, sum W = D, and in every
        coordinate j, sum W*(M*p_j) = D*(M*point_j), all with no Fraction
        built. A point whose dimension is not P's fails.
        """
        if len(self.parts) < 2 or len(self.parts) != len(self.weights):
            return False
        target = self.point
        if len(target) != P.d:
            return False
        seen: set[int] = set()
        for part, wlist in zip(self.parts, self.weights):
            if not part or frozenset(lab for lab, _ in wlist) != part:
                return False
            if seen & part:
                return False
            seen |= part
            nums = [w.numerator for _, w in wlist]
            if min(nums) < 0:
                return False
            dens = [w.denominator for _, w in wlist]
            D = lcm(*dens)
            W = [a * (D // b) for a, b in zip(nums, dens)]
            if sum(W) != D:
                return False
            pts = [P.point(lab) for lab, _ in wlist]
            M = lcm(*[x.denominator for p in pts for x in p], *[c.denominator for c in target])
            for j, c in enumerate(target):
                lhs = sum(wi * (p[j].numerator * (M // p[j].denominator)) for wi, p in zip(W, pts))
                if lhs != D * c.numerator * (M // c.denominator):
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
    sizes (equal to r when nothing was pruned); codim_pruning tells
    whether the threshold came from the codimension rule, which the
    search applies only where a theorem it checked covers the prune
    (see tverberg_search).
    """

    r: int
    n_faces: int
    tuples_examined: int
    min_total_size: int
    restricted: bool
    codim_pruning: bool

    def to_json_dict(self) -> dict:
        return {
            "found": False,
            "r": self.r,
            "faces": self.n_faces,
            "tuples_examined": self.tuples_examined,
            "min_total_size": self.min_total_size,
            "restricted": self.restricted,
            "codim_pruning": self.codim_pruning,
        }


DEFAULT_SEARCH_CAP = 1 << 22


def tverberg_search(
    P: PointConfiguration,
    r: int,
    restrict_to: Optional[SimplicialComplex] = None,
    *,
    cap: int = DEFAULT_SEARCH_CAP,
    codim_pruning: bool = False,
) -> TverbergCertificate | AbsenceReport:
    """Find r disjoint faces whose hulls meet, or verify there are none.

    Faces larger than d+1 points never need to be searched: any point of
    a hull is already a convex combination of at most d+1 of its
    vertices, so a partition using a big face restricts to one using a
    face of the complex of size at most d+1 (complexes are closed under
    subsets). With restrict_to the parts must be faces of that complex,
    whose vertex labels must be exactly the labels of P.

    codim_pruning asks to drop every tuple whose codimensions d+1-|F|
    sum above d, that is every tuple of total size below the floor
    (r-1)(d+1)+1. The search honours it only where a theorem it checks
    from its own inputs puts some meeting tuple at or above the floor
    whenever one exists:
    - (a) No complex and n >= (r-1)(d+1)+1 points. Tverberg's theorem
      gives r parts whose hulls meet; Caratheodory's theorem shrinks
      each to at most d+1 points that keep the common point; adding
      unused points back keeps the hulls meeting (hulls only grow), and
      the parts have room for r(d+1) >= (r-1)(d+1)+1 points. So some
      meeting tuple has total at least the floor, degenerate
      configurations included.
    - (b) r = 2 at distinct moment-curve parameters (_curve_table): a
      pair below the floor has at most d+1 alternation blocks, so the
      block rule below separates it anyway.
    - (c) r >= 3 at distinct moment-curve parameters with 2n < 3(d+2).
      Any d+1 or fewer points on the curve are affinely independent (a
      Vandermonde determinant). Two disjoint parts whose affine hulls
      meet give a nontrivial linear dependence on their lifted union
      (p, 1), so together they hold at least d+2 points. Three parts
      whose hulls meet pairwise then hold at least 3(d+2)/2 points, more
      than n. So no r >= 3 disjoint faces have meeting hulls at all, and
      pruning every tuple is sound (avg_stable_placement(3, 4, 4, 7):
      n = 7 < 9).
    Everywhere else the search walks every tuple, as without the flag,
    so codim_pruning never turns a certificate into an absence. Strong
    general position would cover more inputs, but
    strong_general_position_report does not prove it: the collinear
    points (0,0,0), (1,1,1), (2,2,2) in R^3 pass its r = 2 scan, yet
    the hulls of {1, 3} and {2} meet, below the floor. The returned
    report says whether the prune was applied, so downstream consumers
    can see what the sweep relied on. On the floor itself, a tuple of
    total size (r-1)(d+1)+1 gives _hull_weights a square system, which
    one elimination decides.

    Tuples are checked in order of increasing total size, ties in face
    order, so outcomes are deterministic. Raises SearchSpaceError when
    the number of r-subsets of candidate faces exceeds cap.

    P is scaled to integers once per search, by one common multiple L of
    all its coordinate denominators, and each face gets its list of
    integer points and their bounding box before the walk. A tuple whose
    boxes miss in some coordinate counts as examined and is rejected
    there; conv_intersect's box check, in its own scale, would reject
    exactly the same tuples, because a positive scale preserves every
    comparison. A tuple whose boxes meet goes to _hull_weights, the
    system conv_intersect solves, with the faces' integer points and the
    scale L; that gives the weights conv_intersect's per-tuple scale
    gives, since scaling the whole system by a positive integer moves
    neither the elimination's answer nor the simplex's pivots. The
    Fraction witness point is built only for the tuple that meets.

    For r = 2 on the moment curve at distinct parameters (_curve_table),
    a pair whose boxes meet is next split into alternation blocks in
    parameter order (_blocks_by_side). With at most d+1 blocks it counts
    as examined and is rejected with no hull test: one root between each
    two consecutive blocks gives a polynomial of degree at most d, an
    affine functional on the curve, that is positive on one part and
    negative on the other (separating_polynomial). That holds for any
    distinct parameters, not only in strong general position, so the
    rule does not depend on codim_pruning. With d+2 or more blocks the
    hulls meet (intertwined_pair), and the pair goes to _hull_weights
    as before, so every certificate is the one the LP finds.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    d = P.d
    labels = P.labels
    pos = {lab: i for i, lab in enumerate(labels)}

    # Faces come in (size, lex) order either way: faces() sorts that way,
    # and combinations of the sorted labels are lex within each size. The
    # tuple walk needs sizes that never decrease along the list.
    if restrict_to is not None:
        if set(labels) != set(range(1, restrict_to.n + 1)):
            raise ValueError("complex vertices must match the point labels 1..n")
        face_sets = [f for f in restrict_to.faces(max_size=d + 1) if f]
    else:
        face_sets = [
            frozenset(c) for size in range(1, min(d + 1, len(labels)) + 1)
            for c in combinations(labels, size)
        ]
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

    # total codimension sum((d+1) - size_i) at most d, only where case (a), (b) or (c) holds
    floor = (r - 1) * (d + 1) + 1
    codim_pruning = codim_pruning and (
        (restrict_to is None and len(labels) >= floor)
        or bool(_curve_table(P) and (r == 2 or 2 * len(labels) < 3 * (d + 2)))
    )
    threshold = floor if codim_pruning else r

    scale = lcm(*[x.denominator for c in P._coords for x in c])
    ipts = {
        lab: [x.numerator * (scale // x.denominator) for x in c]
        for lab, c in zip(labels, P._coords)
    }
    face_ipts = [[ipts[lab] for lab in sorted(f)] for f in face_sets]
    boxes = [_box(pts) for pts in face_ipts]
    max_size = sizes[-1] if sizes else 0
    curve = _curve_table(P) if r == 2 else False
    examined = 0
    for total in range(threshold, r * max_size + 1):
        for t in _disjoint_tuples(masks, sizes, r, total):
            examined += 1
            if not _boxes_meet([boxes[i] for i in t]):
                continue
            if curve and len(_blocks_by_side(curve[1], face_sets[t[0]], face_sets[t[1]])) <= d + 1:
                continue
            found = _hull_weights([face_ipts[i] for i in t], scale)
            if found is None:
                continue
            part_sets = [face_sets[i] for i in t]
            order = sorted(range(r), key=lambda i: tuple(sorted(part_sets[i])))
            parts = tuple(part_sets[i] for i in order)
            weights = tuple(
                tuple(zip(sorted(part_sets[i]), found[i]))
                for i in order
            )
            point = _witness_point(found[0], face_ipts[t[0]], scale)
            cert = TverbergCertificate(parts, point, weights)
            if not cert.verify(P):
                raise ArithmeticError("internal certificate failed its own verification")
            return cert
    return AbsenceReport(
        r, nf, examined, threshold, restrict_to is not None, codim_pruning
    )


# -- intertwined pairs on the moment curve ----------------------------


@dataclass(frozen=True)
class IntertwinedPair:
    """Two disjoint label sets with intersecting hulls, minimal under inclusion."""

    part1: Simplex
    part2: Simplex
    witness: ConvexWitness


def _curve_table(P: PointConfiguration) -> tuple[int, dict[int, int]] | bool:
    """The parameter table of a moment-curve configuration, or False.

    P is on the curve when its points are (t, t^2, ..., t^d) at pairwise
    distinct parameters t. Distinct parameters are part of the test: the
    moment-curve routines read alternation blocks off the parameter
    order, which two labels on one parameter leave undefined. On the
    curve the table is (q, u): the common multiple q of the parameter
    denominators and the integer u = q*t of every label. Since q > 0, u
    orders the labels as t does. The answer is decided on the first call
    and kept on P.
    """
    if P._curve is None:
        ts = [c[0] for c in P._coords]
        if len(set(ts)) == len(ts) and all(
            c[j] == c[j - 1] * c[0] for c in P._coords for j in range(1, P.d)
        ):
            q = lcm(*[t.denominator for t in ts])
            P._curve = q, {
                lab: t.numerator * (q // t.denominator) for lab, t in zip(P.labels, ts)
            }
        else:
            P._curve = False
    return P._curve


def _moment_parts(
    P: PointConfiguration, X1: Iterable[int], X2: Iterable[int]
) -> tuple[frozenset[int], frozenset[int], int, dict[int, int]]:
    """Two parts of a moment-curve configuration, with its parameter table.

    The parts must be nonempty disjoint sets of labels of P, and P must
    lie on the moment curve at distinct parameters (_curve_table), or
    ValueError is raised. Returns (A, B, q, u): the parts as frozensets
    and the table (q, u) of _curve_table.
    """
    A = frozenset(X1)
    B = frozenset(X2)
    if not A or not B or A & B:
        raise ValueError("parts must be nonempty and disjoint")
    missing = sorted(lab for lab in A | B if lab not in P._index)
    if missing:
        raise ValueError(f"labels {missing} not in the configuration")
    curve = _curve_table(P)
    if not curve:
        raise ValueError("configuration must lie on the moment curve at distinct parameters")
    q, u = curve
    return A, B, q, u


def _blocks_by_side(u: Mapping[int, int], X1: frozenset[int], X2: frozenset[int]) -> list[list[int]]:
    """The merged labels in parameter order, cut wherever the side changes."""
    blocks: list[list[int]] = []
    side_prev = None
    for lab in sorted(X1 | X2, key=u.__getitem__):
        side = lab in X1
        if side != side_prev:
            blocks.append([])
            side_prev = side
        blocks[-1].append(lab)
    return blocks


def intertwined_pair(
    P: PointConfiguration, X1: Iterable[int], X2: Iterable[int]
) -> IntertwinedPair:
    """Shrink two intersecting hulls on the moment curve to a minimal pair.

    The number of alternation blocks in the merged parameter order
    decides. With at most d+1 blocks, a polynomial of degree at most d
    with one root between each pair of consecutive blocks separates the
    parts (this is separating_polynomial), so the hulls are disjoint and
    ValueError is raised. Otherwise the first points of the first d+2
    blocks alternate along the curve: picks p_0, ..., p_(d+1) at
    parameters t_0 < ... < t_(d+1), the ones from the first part making
    Y1 and the others Y2. A common point of their hulls shows that the
    parts, which contain them, meet. Its weights are in closed form.

    The (d+1)-st divided difference f[t_0, ..., t_(d+1)] is the sum of
    lambda_i f(t_i) with lambda_i = 1/prod_(j != i)(t_i - t_j). It is
    the leading coefficient of f's interpolant of degree at most d+1, so
    it kills every polynomial of degree at most d; on f = 1, t, ..., t^d
    that says sum lambda_i = 0 and sum lambda_i p_i = 0, an affine
    dependence of the picks. The sign of lambda_i is (-1)^(d+1-i), one
    minus per later pick, so the signs alternate along the curve like
    the sides do, and the positive lambdas are exactly one part's.
    Dividing them, and the negated others, by their sum S gives the
    barycentric weights of a common point. Any d+1 points on the curve
    are affinely independent (their lifted Vandermonde matrix is
    invertible), so the dependence is unique up to scale: the witness is
    the only common point of the two hulls, the one any exact solver
    would find. For the same reason the pair is minimal: without any one
    pick, the rest are affinely independent, and disjoint parts of an
    independent set have disjoint hulls.

    The arithmetic is in integers, on the table u = q*t of _curve_table.
    Scaling every parameter by q > 0 scales each lambda_i by the same
    positive q^-(d+1), so the weights w_i = L/prod_(j != i)(u_i - u_j),
    L the least common multiple of the products, have the sides and the
    normalised weights of the lambdas; q is back only in the point,
    whose coordinate j is the sum over Y1 of w_i u_i^j, over S q^j.
    Before anything is returned the witness is checked by exact
    substitution: the table must reproduce P at every pick (q^j times
    coordinate j is u^j), sum w_i u_i^j must vanish for j = 0..d, and
    the positive weights must be exactly the picks of the first part.
    A failed check raises ArithmeticError. The checks run on the integer
    weights (_intertwined_from_blocks, which callers that read only the
    pair call directly); only the returned witness is made of Fractions.
    """
    A, B, q, u = _moment_parts(P, X1, X2)
    picks, w = _intertwined_from_blocks(P, A, q, u, _blocks_by_side(u, A, B))
    moments = []  # sum over Y1 of w_i u_i^j, for j = 0..d
    terms = [wi if wi > 0 else 0 for wi in w]
    for _ in range(P.d + 1):
        moments.append(sum(terms))
        terms = [t * u[lab] for t, lab in zip(terms, picks)]

    S = moments[0]
    by_label = sorted(zip(picks, w))
    witness = ConvexWitness(
        tuple(Fraction(m, S * q**j) for j, m in enumerate(moments[1:], 1)),
        (
            tuple(Fraction(wi, S) for _, wi in by_label if wi > 0),
            tuple(Fraction(-wi, S) for _, wi in by_label if wi < 0),
        ),
    )
    Y1 = frozenset(lab for lab, wi in zip(picks, w) if wi > 0)
    return IntertwinedPair(Y1, frozenset(picks) - Y1, witness)


def _intertwined_from_blocks(
    P: PointConfiguration,
    A: frozenset[int],
    q: int,
    u: Mapping[int, int],
    blocks: list[list[int]],
) -> tuple[list[int], list[int]]:
    """intertwined_pair's integer dependence on parts already split, verified.

    The parts come from _moment_parts and the blocks from _blocks_by_side.
    Returns (picks, w): the first labels of the first d+2 blocks, in
    parameter order, and their integer weights, w_i = L/prod_(j != i)(u_i - u_j)
    up to one common sign, positive exactly on the picks in A. Every
    check of intertwined_pair runs here, with no Fraction built: the
    table against P at every pick, the signs against the parts, and
    sum w_i u_i^j = 0 for j = 0..d.
    Raises ValueError on d+1 or fewer blocks, ArithmeticError on a
    failed check.
    """
    d = P.d
    if len(blocks) <= d + 1:
        raise ValueError("hulls do not intersect")
    picks = [blk[0] for blk in blocks[: d + 2]]
    us = [u[lab] for lab in picks]
    sides = [lab in A for lab in picks]

    dens = [1] * (d + 2)
    for b in range(1, d + 2):
        for a in range(b):
            diff = us[b] - us[a]
            dens[b] *= diff
            dens[a] *= -diff
    # the last pick's product is positive; its weight goes to the first part
    scale = lcm(*dens) if sides[-1] else -lcm(*dens)
    w = [scale // den for den in dens]

    for lab, ui in zip(picks, us):
        x = qj = 1
        for c in P.point(lab):
            x *= ui
            qj *= q
            if c.numerator * qj != x * c.denominator:
                raise ArithmeticError("parameter table disagrees with the configuration")
    if [wi > 0 for wi in w] != sides:
        raise ArithmeticError("dependence signs do not follow the parts")
    terms = w
    for _ in range(d + 1):
        if sum(terms):
            raise ArithmeticError("divided-difference dependence failed substitution")
        terms = [t * x for t, x in zip(terms, us)]
    return picks, w


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

    The polynomial is built in integers, on the parameter table u = q*t
    of _curve_table. Each root (lo + hi)/2 between blocks becomes the
    factor 2u - (q*lo + q*hi). Their product g(u) = sum c_i u^i equals
    (2q)^m times the monic product of the (t - root) factors, m the
    number of roots, so it has the same sign at every point; the sign
    check runs on g at the integers q*t. The returned coefficients are
    c_i q^i / (2q)^m, the monic polynomial's, whatever q is. The
    certificate is verified by exact evaluation before it is handed
    back.
    """
    A, B, q, u = _moment_parts(P, X1, X2)
    coeffs = _separating_from_blocks(P, A, B, u, _blocks_by_side(u, A, B))
    if coeffs is None:
        return None
    den = (2 * q) ** (len(coeffs) - 1)
    return tuple(Fraction(c * q**i, den) for i, c in enumerate(coeffs))


def _separating_from_blocks(
    P: PointConfiguration,
    A: frozenset[int],
    B: frozenset[int],
    u: Mapping[int, int],
    blocks: list[list[int]],
) -> Optional[list[int]]:
    """separating_polynomial's integer g on parts already split, verified, or None.

    The parts come from _moment_parts and the blocks from _blocks_by_side.
    Returns the coefficients c_i of g (constant first), positive on A and
    negative on B at every u-value, with no Fraction built.
    """
    if len(blocks) >= P.d + 2:
        return None
    coeffs = [1]
    for left, right in zip(blocks, blocks[1:]):
        mid = u[left[-1]] + u[right[0]]
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += 2 * c
            nxt[i] -= c * mid
        coeffs = nxt

    def value(lab: int) -> int:
        x = u[lab]
        v = 0
        for c in reversed(coeffs):
            v = v * x + c
        return v

    # The product of the factors is positive beyond its largest root, so
    # the last block sits on the positive side; flip if that block
    # belongs to the second part, then verify every point.
    if blocks[-1][0] not in A:
        coeffs = [-c for c in coeffs]
    for lab in sorted(A):
        if value(lab) <= 0:
            raise ArithmeticError("separating certificate failed verification")
    for lab in sorted(B):
        if value(lab) >= 0:
            raise ArithmeticError("separating certificate failed verification")
    return coeffs


# -- strong general position ------------------------------------------


def _scaled_integer_points(P: PointConfiguration) -> dict[int, tuple[int, ...]]:
    """Clear denominators column by column.

    Scaling each coordinate axis independently is an invertible linear
    map, so it preserves affine hulls, their intersections, and all the
    dimensions the strong general position test looks at. It is no
    scale for the barycentric system: per-axis scales change the
    simplex's column sums, and with them its pivots (see _hull_weights).
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
    at most d+1. Larger subsets impose no constraint: a degenerate big
    subset contains a small subset with the same affine hull. Larger
    sums are not checked. That is this package's convention, not Perles
    and Sigron's definition, under which such hulls must be empty, and
    the search sums each subset's actual codimension, so a degenerate
    subset can carry a meeting tuple past d+1 unseen: the collinear
    points (0,0,0), (1,1,1), (2,2,2) in R^3 pass for r = 2 with no tuple
    checked, yet the hulls of {1, 3} and {2} meet. For each checked
    tuple the affine hulls must intersect in the expected dimension, or
    be empty exactly when the codimension sum reaches d+1. The tuples
    are walked in a fixed order, and the scan stops at the first
    violation or raises SearchSpaceError when more than cap tuples
    would be checked.

    The test runs in homogeneous coordinates. Each point p is lifted to
    (p, 1), and each subset gets, once, an integer basis of the
    annihilator of the lifted points' span; its d - dim aff rows give
    the subset's codimension. The affine hulls of a tuple meet in the
    solutions of the stacked annihilators with last coordinate 1. The
    DFS carries an echelon basis of that stack down its levels
    (linalg.extend_echelon): choosing a subset reduces only its own
    annihilator rows against the parent's basis, and the child's basis
    decides the tuple. Its leading columns are the pivot columns of the
    stack, so a leading column d puts e_(d+1) in the row space and the
    hulls are empty (codimension d+1); otherwise the actual codimension
    is the number of rows.

    Returns (holds, violating tuple or None, tuples checked).
    """
    if r < 2:
        raise ValueError("need r >= 2")
    d = P.d
    ipts = _scaled_integer_points(P)
    labels = P.labels
    pos = {lab: i for i, lab in enumerate(labels)}

    # (size, lex) order, as combinations of the sorted labels come out
    subsets: list[frozenset[int]] = [
        frozenset(c)
        for size in range(1, min(d + 1, len(labels)) + 1)
        for c in combinations(labels, size)
    ]
    smasks = [sum(1 << pos[lab] for lab in f) for f in subsets]
    annihilators = [nullspace([ipts[lab] + (1,) for lab in sorted(f)]) for f in subsets]
    scodims = [len(rows) for rows in annihilators]

    checked = 0
    chosen: list[int] = []

    def rec(
        start: int, union: int, codim_sum: int, basis: Echelon
    ) -> Optional[tuple[Simplex, ...]]:
        nonlocal checked
        if len(chosen) >= 2:
            checked += 1
            if checked > cap:
                raise SearchSpaceError(
                    f"strong general position scan exceeded the cap {cap}", checked, cap
                )
            actual_codim = d + 1 if basis and basis[-1][0] == d else len(basis)
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
            bad = rec(i + 1, union | smasks[i], nxt, extend_echelon(basis, annihilators[i]))
            if bad:
                return bad
            chosen.pop()
        return None

    try:
        bad = rec(0, 0, 0, [])
    finally:
        del rec  # rec refers to itself; break the cycle so what it closes over is freed on return
    return bad is None, bad, checked


def is_strong_general_position(P: PointConfiguration, r: int) -> bool:
    """Whether the configuration is in strong general position for r parts."""
    holds, _, _ = strong_general_position_report(P, r)
    return holds


# -- seeded placements for average-stability instances ----------------


def avg_stable_placement(
    r: int,
    k: int,
    d: int,
    n: int,
    *,
    seed: int = 0,
) -> tuple[SimplicialComplex, PointConfiguration]:
    """Complex plus moment-curve placement for the average-stability bound.

    The complex on 1..n has exactly the k-subsets that are t-stable on
    average as its minimal nonfaces, with t = r(k-3)/(2(k-1)) + 1. The
    points are moment-curve points at parameters i + eps_i with seeded
    rational jitters eps_i in [0, 1/2), so the parameters are distinct.

    The first draw is kept for every r; no strong general position
    test runs. A search on the placement with codim_pruning prunes only
    where tverberg_search proves it sound: for r = 2 by the block rule,
    and for r >= 3 when n < 3(d+2)/2, as for (r, k, d, n) = (3, 4, 4, 7),
    where no three disjoint faces meet at all. Otherwise it walks every
    tuple.
    """
    return _avg_stable_placement(r, k, d, n, seed, None)


def _avg_stable_placement(
    r: int, k: int, d: int, n: int, seed: int, stable: Optional[Iterable[Iterable[int]]]
) -> tuple[SimplicialComplex, PointConfiguration]:
    """avg_stable_placement, on the t-stable-on-average k-subsets when the caller has them.

    stable, when given, must be exactly the k-subsets of 1..n that are
    t-stable on average (stable_avg_hypergraph's vertices, say), so the
    family is filtered once per instance; None filters them here, after
    the arguments are checked.
    """
    if r < 2 or k < 2 or d < 1 or n < 1:
        raise ValueError("need r >= 2, k >= 2, d >= 1, n >= 1")
    t = avg_stability_parameter(r, k)
    if t < 1:
        raise ValueError(f"stability parameter {t} below 1")
    if (r - 1) * d <= r * (k - 2):
        raise ValueError("dimension too small for the average-stability hypotheses")
    if t >= Fraction(r - 1, k - 1) * (d // 2) + 1:
        raise ValueError("stability parameter too large for the dimension")

    if stable is None:
        stable = [c for c in combinations(range(1, n + 1), k) if is_t_stable_on_average(c, n, t)]
    K = complex_from_forbidden(stable, n)

    rng = random.Random(seed)
    params = [Fraction(i) + Fraction(rng.randrange(0, 2048), 4096) for i in range(1, n + 1)]
    return K, moment_points(params, d)
