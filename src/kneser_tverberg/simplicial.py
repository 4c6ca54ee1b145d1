"""Abstract simplicial complexes on labeled ground sets.

A complex lives on vertices 1..n and is stored by its facets, the
inclusion-maximal faces. Faces are never materialized wholesale unless
asked for; membership is a subset test against the facet list, done on
bitmasks. The empty simplex is a face of every complex, including the
complex whose facet list is just the empty set (the join identity).

Minimal nonfaces and forbidden-family complexes share one kernel,
`_minimal_transversals`: the minimal nonfaces are the minimal
transversals of the facet complements, and the facets of the largest
complex avoiding an antichain G are the complements of the minimal
transversals of G. The kernel adds one edge e at a time, and a
candidate t|v (t missing e, v in e) can only be blocked by a transversal
h with h ∩ e = {v}; so each such h is filed under v as h - v, and the
candidate is tested against the rests under its own v alone. Inclusion
tests between members of a family (the constructor's maximality filter,
the forbidden family's antichain check) go through `_maximal`, which
compares a set only with strictly larger ones, since a proper superset
is strictly larger. Everything is intended for desk-scale ground sets:
enumerating faces walks subsets of the facets, and face enumeration,
minimal nonfaces and the forbidden-family builder refuse to run for n
above `GROUND_LIMIT`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Iterable, Iterator, Sequence

Simplex = frozenset[int]

GROUND_LIMIT = 22


def _mask(s: Iterable[int]) -> int:
    m = 0
    for v in s:
        m |= 1 << (v - 1)
    return m


def _unmask(m: int) -> Simplex:
    out = []
    v = 1
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return frozenset(out)


def _face_key(s: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(s))


def _minimal_transversals(edges: list[int]) -> list[int]:
    """Inclusion-minimal bitmasks that meet every edge (Berge's incremental algorithm).

    Adds the edges one at a time to [0]: of the minimal transversals so
    far, those meeting the new edge e stay (`hit`), and each t missing it
    gives a candidate t|v per bit v of e, kept unless a member of `hit`
    lies below it. That check is the only one needed. For misses t != t',
    t|v <= t'|v' would put t below t' (v' is in e, t misses e), and t, t'
    are incomparable; one t's candidates differ in their bit of e. And
    t|v <= h in `hit` would force t = h, yet h meets e and t does not.

    The check itself is keyed by the one shared vertex. Since t misses
    e, (t|v) & e = v, so h <= t|v forces h & e = v and h - v <= t; the
    converse is immediate. So a member of `hit` that meets e in two or
    more bits never blocks a candidate, and each one meeting e in the
    single bit v is stored as h - v under v and tested only against the
    candidates t|v. The output, order included, is the unkeyed one.
    """
    trans = [0]
    for e in edges:
        hit: list[int] = []
        miss: list[int] = []
        for t in trans:
            (hit if t & e else miss).append(t)
        rests: dict[int, list[int]] = {}
        for h in hit:
            v = h & e
            if not v & (v - 1):
                rests.setdefault(v, []).append(h ^ v)
        bits = [1 << i for i in range(e.bit_length()) if e >> i & 1]
        for t in miss:
            for v in bits:
                if not any(rest & t == rest for rest in rests.get(v, ())):
                    hit.append(t | v)
        trans = hit
    return trans


def _maximal(sets: Iterable[Simplex]) -> list[Simplex]:
    """The members of a family of distinct sets that lie in no other member.

    A proper superset is strictly larger, so with the family sorted by
    decreasing size each set is compared only with the sets before its
    own size, and a uniform family needs no comparison at all.
    """
    ordered = sorted(sets, key=len, reverse=True)
    out: list[Simplex] = []
    larger: list[Simplex] = []
    size = -1
    for i, f in enumerate(ordered):
        if len(f) != size:
            size, larger = len(f), ordered[:i]
        if not larger or not any(f < g for g in larger):
            out.append(f)
    return out


def _disjoint_tuples(
    masks: Sequence[int],
    weights: Sequence[int],
    r: int,
    total: int,
    start: int = 0,
    union: int = 0,
    prefix: tuple[int, ...] = (),
) -> Iterator[tuple[int, ...]]:
    """Index tuples i_1 < ... < i_r of pairwise disjoint masks whose weights sum to total.

    Yielded lazily in lexicographic order, so memory stays O(r) and a
    caller that stops early pays for nothing more. The weights must
    never decrease along the list: then a face too heavy for the parts
    still to pick ends its level, and each level starts at the first
    face of weight at least total - (r-1) * weights[-1], since the r-1
    faces after a lighter one add at most (r-1) * weights[-1] and cannot
    make up the total. On the last level that is the first face of the
    needed weight, and a total out of reach starts past the end. The
    last three arguments carry the walk's state down the recursion.
    The last two levels are one pair of loops, with the same starts and
    breaks, so a pair costs no generator of its own. Like its callers,
    the walk refuses r < 2.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if not masks:
        return
    start = bisect_left(weights, total - (r - 1) * weights[-1], start)
    if r == 2:
        end = len(masks)
        for i in range(start, end - 1):
            w = weights[i]
            if w * 2 > total:
                break
            m = masks[i]
            if m & union:
                continue
            m |= union
            rest = total - w
            for j in range(bisect_left(weights, rest, i + 1), end):
                if weights[j] > rest:
                    break
                if not masks[j] & m:
                    yield prefix + (i, j)
        return
    for i in range(start, len(masks) - r + 1):
        w = weights[i]
        if w * r > total:
            break
        if not masks[i] & union:
            yield from _disjoint_tuples(
                masks, weights, r - 1, total - w, i + 1, union | masks[i], prefix + (i,)
            )


class SimplicialComplex:
    """A finite simplicial complex, canonically represented.

    The constructor accepts any family of generating faces, drops the
    ones contained in another, and stores the resulting antichain sorted
    lexicographically. Two complexes are equal iff they have the same
    ground size and the same facet antichain. Instances are treated as
    immutable; nothing in this package mutates one after construction.
    """

    __slots__ = ("n", "facets", "_facet_masks")

    n: int
    facets: tuple[Simplex, ...]

    def __init__(self, n: int, facets: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        sets = {frozenset(f) for f in facets}
        sets.add(frozenset())
        bad = [f for f in sets if f and (min(f) < 1 or max(f) > n)]
        if bad:  # the least by _face_key, so the error does not hang on the order given
            raise ValueError(f"facet {list(min(map(_face_key, bad)))} is not a subset of 1..{n}")
        self.n = n
        self.facets = tuple(sorted(_maximal(sets), key=_face_key))
        # A list first: a tuple grown from a generator is reallocated as it
        # grows, which fragments the heap, and peak RSS creeps up call after call.
        self._facet_masks = tuple([_mask(f) for f in self.facets])

    # -- basic queries ------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension: largest facet size minus one. The empty-only complex has dim -1."""
        return max(len(f) for f in self.facets) - 1

    def is_face(self, s: Iterable[int]) -> bool:
        m = _mask(s)
        return any(m & fm == m for fm in self._facet_masks)

    def face_masks(self, max_size: int | None = None) -> list[int]:
        """All face bitmasks, optionally capped in cardinality, sorted by (size, lex).

        Every face lies in a facet, so the subsets of the facets with at
        most max_size elements (all of them when max_size is None) are
        exactly the faces asked for.
        """
        if self.n > GROUND_LIMIT:
            raise ValueError(f"face enumeration refused for ground sets above {GROUND_LIMIT}")
        seen: set[int] = set()
        for f in self.facets:
            bits = [1 << (v - 1) for v in f]
            top = len(bits) if max_size is None else min(max_size, len(bits))
            for size in range(0, top + 1):
                seen.update(map(sum, combinations(bits, size)))  # distinct bits: sum is union
        return sorted(seen, key=lambda m: (m.bit_count(), _face_key(_unmask(m))))

    def faces(self, max_size: int | None = None) -> list[Simplex]:
        return [_unmask(m) for m in self.face_masks(max_size)]

    # -- derived complexes --------------------------------------------

    def skeleton(self, k: int) -> "SimplicialComplex":
        """Subcomplex of faces of dimension at most k. Needs k >= -1."""
        if k < -1:
            raise ValueError("skeleton dimension below -1")
        top = k + 1
        gens: list[Iterable[int]] = []
        for f in self.facets:
            if len(f) <= top:
                gens.append(f)
            else:
                gens.extend(combinations(sorted(f), top))
        return SimplicialComplex(self.n, gens)

    def cone(self) -> "SimplicialComplex":
        """Join with one fresh vertex, labeled n+1."""
        apex = self.n + 1
        return SimplicialComplex(apex, [set(f) | {apex} for f in self.facets])

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Simplicial join; the other complex is relabeled to n+1..n+m."""
        shift = self.n
        gens = [
            set(f) | {v + shift for v in g}
            for f in self.facets
            for g in other.facets
        ]
        return SimplicialComplex(self.n + other.n, gens)

    def minimal_nonfaces(self) -> tuple[Simplex, ...]:
        """Inclusion-minimal subsets of 1..n that are not faces, in canonical order.

        A nonface lies in no facet, so it meets every facet complement:
        the minimal nonfaces are the minimal transversals of the facet
        complements. None has more than dim + 2 elements, since removing
        one element leaves a face.
        """
        if self.n > GROUND_LIMIT:
            raise ValueError(f"nonface enumeration refused for ground sets above {GROUND_LIMIT}")
        full = (1 << self.n) - 1
        found = _minimal_transversals([full & ~fm for fm in self._facet_masks])
        return tuple(sorted(map(_unmask, found), key=_face_key))

    # -- plumbing ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self.facets == other.facets
        )

    def __hash__(self) -> int:
        return hash((self.n, self.facets))

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, sorted(f))) + "}" for f in self.facets)
        return f"SimplicialComplex(n={self.n}, facets=[{inner}])"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "facets": [sorted(f) for f in self.facets]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        return cls(int(data["n"]), [list(map(int, f)) for f in data["facets"]])


def simplex_complex(N: int) -> SimplicialComplex:
    """The full simplex on N+1 vertices (dimension N). Needs N >= -1."""
    if N < -1:
        raise ValueError("simplex dimension below -1")
    return SimplicialComplex(N + 1, [range(1, N + 2)])


def complex_from_forbidden(forbidden: Iterable[Iterable[int]], n: int) -> SimplicialComplex:
    """Largest complex on 1..n none of whose faces contains a forbidden set.

    The forbidden family must be an antichain of nonempty subsets of
    1..n; it then comes back verbatim as the minimal nonfaces of the
    result. A set is a face exactly when its complement meets every
    forbidden set, so the facets are the complements of the minimal
    transversals of the family. The ground-set cap applies as elsewhere.

    The members are dualized in the caller's order, repeats dropped: the
    order moves only the order of the transversals found, not which
    they are, and the complex sorts its facets anyway. The checks run
    over the family as a set, and an error names the least invalid
    member by _face_key, so an empty one first, whatever the order.
    """
    if n < 0:
        raise ValueError("ground set size must be nonnegative")
    if n > GROUND_LIMIT:
        raise ValueError(f"forbidden-family construction refused for ground sets above {GROUND_LIMIT}")
    members = [frozenset(g) for g in forbidden]
    fam = set(members)
    bad = [g for g in fam if not g or min(g) < 1 or max(g) > n]
    if bad:
        g = min(map(_face_key, bad))
        if not g:
            raise ValueError("forbidden sets must be nonempty")
        raise ValueError(f"forbidden set {list(g)} is not a subset of 1..{n}")
    if len(_maximal(fam)) < len(fam):
        raise ValueError("forbidden family must be an antichain")
    full = (1 << n) - 1
    transversals = _minimal_transversals([_mask(g) for g in dict.fromkeys(members)])
    return SimplicialComplex(n, [_unmask(full & ~t) for t in transversals])
