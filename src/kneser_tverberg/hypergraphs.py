"""Disjointness hypergraphs of set systems and their stability filters.

The central object is the r-uniform hypergraph whose vertices carry
subsets of a ground set and whose hyperedges are the r-tuples of
pairwise disjoint carried sets. Specializations: the classical Kneser
hypergraph (all k-subsets of 1..n), its restriction to cyclically
s-stable subsets, the restriction to subsets that are t-stable on
average, and the general two-complex form where vertices are the
minimal faces of an ambient complex lying outside a subcomplex.

Also here: gap vectors of subsets of a cycle, inclusion minimization of
set systems, and the r-fold width of a complex (ground size minus the
largest total size of r pairwise disjoint faces).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .simplicial import (
    SimplicialComplex, Simplex, _disjoint_tuples, _face_key, _mask
)


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on set-carrying vertices.

    vertices are distinct frozensets in lexicographic order of their
    sorted tuples; edges are sorted tuples of vertex indices, listed in
    lexicographic order. Vertex ids are positions in `vertices`.

    The constructor checks its input (all but the order of the edges).
    from_sets and induced build canonical vertices and edges by
    construction, so they skip that check (_canonical).
    """

    r: int
    vertices: tuple[Simplex, ...]
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("edge arity must be at least 2")
        if list(self.vertices) != sorted(set(self.vertices), key=_face_key):
            raise ValueError("vertices must be distinct and canonically ordered")
        for e in self.edges:
            if len(e) != self.r or list(e) != sorted(set(e)):
                raise ValueError(f"edge {e} is not a sorted {self.r}-tuple of distinct ids")
            if e and (e[0] < 0 or e[-1] >= len(self.vertices)):
                raise ValueError(f"edge {e} references a missing vertex")

    @classmethod
    def _canonical(
        cls, r: int, vertices: tuple[Simplex, ...], edges: tuple[tuple[int, ...], ...]
    ) -> "Hypergraph":
        """A hypergraph from parts already in canonical form, with no check."""
        H = object.__new__(cls)
        object.__setattr__(H, "r", r)
        object.__setattr__(H, "vertices", vertices)
        object.__setattr__(H, "edges", edges)
        return H

    @classmethod
    def from_sets(cls, r: int, sets: Iterable[Iterable[int]]) -> "Hypergraph":
        """Build the disjointness hypergraph of a family of sets."""
        if r < 2:
            raise ValueError("edge arity must be at least 2")
        verts = sorted({frozenset(s) for s in sets}, key=_face_key)
        masks = [_mask(v) for v in verts]
        # A list first: a tuple grown from a generator is reallocated as it
        # grows, which fragments the heap, and peak RSS creeps up call after call.
        edges = tuple([*_disjoint_tuples(masks, [0] * len(masks), r, 0)])
        return cls._canonical(r, tuple(verts), edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, vid: int) -> int:
        return sum(1 for e in self.edges if vid in e)

    def induced(self, keep: Iterable[int]) -> "Hypergraph":
        """Subhypergraph induced on a set of vertex ids, ids renumbered."""
        kept = sorted(set(keep))
        if kept and (kept[0] < 0 or kept[-1] >= len(self.vertices)):
            raise ValueError("vertex id out of range")
        remap = {old: new for new, old in enumerate(kept)}
        keep_set = set(kept)
        edges = tuple(
            tuple(remap[v] for v in e) for e in self.edges if all(v in keep_set for v in e)
        )
        return Hypergraph._canonical(self.r, tuple(self.vertices[v] for v in kept), edges)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "vertices": [{"id": i, "set": sorted(v)} for i, v in enumerate(self.vertices)],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Hypergraph":
        raw = sorted(data["vertices"], key=lambda rec: rec["id"])
        if [rec["id"] for rec in raw] != list(range(len(raw))):
            raise ValueError("vertex ids must be 0..len-1")
        return cls(
            int(data["r"]),
            tuple(frozenset(map(int, rec["set"])) for rec in raw),
            tuple(tuple(map(int, e)) for e in data["edges"]),
        )


def generalized_kneser(K: SimplicialComplex, L: SimplicialComplex, r: int) -> Hypergraph:
    """Vertices: minimal faces of L outside K. Edges: r pairwise disjoint ones.

    K must be a subcomplex of L (every facet of K a face of L, on a
    ground set no larger than L's).

    The vertices are the minimal nonfaces of K that are faces of L, and
    the singletons {v}, K.n < v <= L.n, that are faces of L. Every
    proper subset of a minimal outside face lies in K, so the face is a
    minimal nonface of K; conversely a minimal nonface of K inside L is
    a minimal face of L outside K. A label above K.n is itself a
    nonface of K, so a minimal outside face containing it is that
    singleton.
    """
    if r < 2:
        raise ValueError("edge arity must be at least 2")
    if K.n > L.n or not all(L.is_face(f) for f in K.facets):
        raise ValueError("first complex must be a subcomplex of the second")
    verts = [f for f in K.minimal_nonfaces() if L.is_face(f)]
    verts += [frozenset({v}) for v in range(K.n + 1, L.n + 1) if L.is_face((v,))]
    return Hypergraph.from_sets(r, verts)


def kneser_hypergraph(r: int, k: int, n: int) -> Hypergraph:
    """All k-subsets of 1..n, hyperedges the r-tuples of pairwise disjoint ones."""
    if k < 1 or n < k:
        raise ValueError("need 1 <= k <= n")
    return Hypergraph.from_sets(r, combinations(range(1, n + 1), k))


def intersection_hypergraph(sets: Iterable[Iterable[int]], r: int) -> Hypergraph:
    """Disjointness hypergraph of an arbitrary family of nonempty sets."""
    fam = {frozenset(s) for s in sets}
    if not fam:
        raise ValueError("empty set family")
    for s in fam:
        if not s:
            raise ValueError("members must be nonempty")
        if min(s) < 1:
            raise ValueError("labels must be positive")
    return Hypergraph.from_sets(r, fam)


def minimize_system(sets: Iterable[Iterable[int]]) -> tuple[Simplex, ...]:
    """Inclusion-minimal members of a set family, canonically ordered."""
    fam = {frozenset(s) for s in sets}
    return tuple(sorted((s for s in fam if not any(t < s for t in fam)), key=_face_key))


def cyclic_gap(a: int, b: int, n: int) -> int:
    """Cyclic distance from a to b on 1..n arranged in a circle."""
    d = (b - a) % n
    return min(d, n - d)


def s_stable_subsets(k: int, n: int, s: int) -> tuple[Simplex, ...]:
    """k-subsets of the n-cycle with every pairwise cyclic distance >= s."""
    if k < 1 or n < k:
        raise ValueError("need 1 <= k <= n")
    if s < 1:
        raise ValueError("stability threshold must be at least 1")
    out = []
    for combo in combinations(range(1, n + 1), k):
        if all(cyclic_gap(a, b, n) >= s for a, b in combinations(combo, 2)):
            out.append(frozenset(combo))
    return tuple(out)


@dataclass(frozen=True)
class GapVector:
    """Cyclic gaps of a subset of 1..n, walking the circle from each element to the next."""

    gaps: tuple[int, ...]
    set: Simplex
    n: int


def _sorted_elements(subset: Iterable[int], n: int) -> list[int]:
    """The distinct elements of a nonempty subset of 1..n, sorted."""
    elems = sorted(set(subset))
    if not elems:
        raise ValueError("gap vector of the empty set is undefined")
    if elems[0] < 1 or elems[-1] > n:
        raise ValueError(f"subset must lie in 1..{n}")
    return elems


def gap_vector(subset: Iterable[int], n: int) -> GapVector:
    elems = _sorted_elements(subset, n)
    gaps = []
    k = len(elems)
    for i, v in enumerate(elems):
        nxt = elems[(i + 1) % k]
        gaps.append((nxt - v - 1) % n if k > 1 else n - 1)
    return GapVector(tuple(gaps), frozenset(elems), n)


def avg_stability_parameter(r: int, k: int) -> Fraction:
    """The stability parameter t = r(k-3)/(2(k-1)) + 1 of the average-stability bound.

    The paper's average-stability application restricts KG^r(n,k) to
    the k-subsets of 1..n that are t-stable on average at this t.
    """
    return Fraction(r * (k - 3), 2 * (k - 1)) + 1


def is_t_stable_on_average(subset: Iterable[int], n: int, t: Fraction | int) -> bool:
    """Average-stability test via the largest cyclic gap.

    A k-subset, k >= 2, qualifies iff after deleting its widest gap the
    remaining k-1 gaps average at least t-1, equivalently
    t <= (n - k - max gap)/(k - 1) + 1. With t = p/q, q > 0, that is
    (p - q)(k - 1) <= (n - k - max gap) q: exact, with the denominators
    cleared, so no Fraction is built per subset. The largest gap is read
    straight off the sorted elements, with gap_vector's errors, and no
    GapVector is built.
    """
    elems = _sorted_elements(subset, n)
    k = len(elems)
    if k < 2:
        raise ValueError("average stability needs subsets of size at least 2")
    # the gap from the last element round to the first is n + first - last - 1
    widest = max([b - a for a, b in zip(elems, elems[1:])] + [n + elems[0] - elems[-1]]) - 1
    p, q = t.as_integer_ratio()
    return (p - q) * (k - 1) <= (n - k - widest) * q


def stable_avg_hypergraph(r: int, k: int, n: int, t: Fraction | int) -> Hypergraph:
    """Kneser hypergraph induced on the k-subsets that are t-stable on average.

    The k-subsets are filtered first and the disjointness hypergraph is
    built on the survivors alone: the same vertices, canonically ordered,
    and the same edges in lexicographic order as KG^r(n,k) restricted to
    them, without building the rest of KG^r(n,k).
    """
    if k < 2:
        raise ValueError("average stability needs k >= 2")
    if n < k:
        raise ValueError("need 1 <= k <= n")
    return Hypergraph.from_sets(
        r, [c for c in combinations(range(1, n + 1), k) if is_t_stable_on_average(c, n, t)]
    )


def width(K: SimplicialComplex, r: int) -> int:
    """Ground size minus the largest total size of r pairwise disjoint faces.

    Empty faces are allowed, so fewer than r genuinely used parts is
    fine; the result is between 0 and K.n.
    """
    if r < 2:
        raise ValueError("width needs r >= 2")
    masks = [m for m in K.face_masks() if m]
    masks.sort(key=lambda m: -m.bit_count())
    sizes = [m.bit_count() for m in masks]
    best = 0

    def rec(start: int, parts_left: int, union: int, total: int):
        nonlocal best
        if total > best:
            best = total
        if parts_left == 0 or start >= len(masks):
            return
        if total + parts_left * sizes[start] <= best:
            return
        for i in range(start, len(masks)):
            if total + parts_left * sizes[i] <= best:
                break
            if masks[i] & union == 0:
                rec(i + 1, parts_left - 1, union | masks[i], total + sizes[i])

    try:
        rec(0, r, 0, 0)
    finally:
        del rec  # rec refers to itself; break the cycle so what it closes over is freed on return
    return K.n - best
