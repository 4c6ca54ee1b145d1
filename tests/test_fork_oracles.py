"""The one-path kernels against the second paths they replaced.

Copied verbatim below (renamed; method calls routed to the copies, so
each oracle uses only old code):

- `submask_face_masks`: `SimplicialComplex.face_masks` with its submask
  branch for the uncapped enumeration.
- `walked_minimal_nonfaces`: `SimplicialComplex.minimal_nonfaces`
  walking subsets of every size up to n.
- `capped_minimal_nonfaces`: the same walk with its sizes capped at
  dim + 2, which the minimal-transversal kernel replaced.
- `marked_complex_from_forbidden`: `complex_from_forbidden` marking
  the supersets of every forbidden set among all 2^n subsets, then
  keeping the unmarked subsets with no unmarked one-element extension.
- `forked_generalized_kneser` with `_minimal_outside`: the minimal faces
  of L outside K found by walking every face of L, except when L is the
  simplex on K's ground set.
- `descending_intertwined_pair`: `intertwined_pair` with its full-pair
  LP and greedy descent, on the `Fraction`-keyed `_on_moment_curve` and
  `_blocks_by_side` it called (the membership test no longer caches its
  answer on P, and the pairs no longer carry an `alternating` flag).
- `lp_intertwined_pair`: `intertwined_pair` as it was before the
  closed-form dependence, the block count on the parameter table and
  then one `conv_intersect` on the picks.

The new paths must give the same face lists, antichains and
hypergraphs on seeded random K ⊆ L pairs (including K.n < L.n and
K = L), the same minimal nonfaces and forbidden-family complexes on
random antichains, skeletons, Schrijver and average-stability families,
cyclic polytope boundaries and the degenerate cases, and the same pair or the same error on every pair of disjoint
subsets of up to 7 moment-curve points in R^1..R^4 and on seeded pairs
at random rational parameters. Against the LP, the same pair, witness
point and weights included, on those small pairs and on seeded pairs in
R^1..R^6 at negative, non-integer parameters with shuffled labels.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import pytest

from kneser_tverberg import geometry
from kneser_tverberg.experiments import _random_antichain
from kneser_tverberg.geometry import (
    IntertwinedPair,
    PointConfiguration,
    conv_intersect,
    gale_facets,
    intertwined_pair,
    moment_points,
)
from kneser_tverberg.hypergraphs import (
    Hypergraph,
    generalized_kneser,
    is_t_stable_on_average,
    s_stable_subsets,
)
from kneser_tverberg.simplicial import (
    GROUND_LIMIT,
    SimplicialComplex,
    Simplex,
    _face_key,
    _mask,
    _unmask,
    complex_from_forbidden,
    simplex_complex,
)


def submask_face_masks(self, max_size: int | None = None) -> list[int]:
    """All face bitmasks, optionally capped in cardinality, sorted by (size, lex)."""
    if self.n > GROUND_LIMIT:
        raise ValueError(f"face enumeration refused for ground sets above {GROUND_LIMIT}")
    seen: set[int] = set()
    if max_size is None:
        for fm in self._facet_masks:
            sub = fm
            while True:
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & fm
    else:
        for f in self.facets:
            elems = sorted(f)
            top = min(max_size, len(elems))
            for size in range(0, top + 1):
                for combo in combinations(elems, size):
                    seen.add(_mask(combo))
    return sorted(seen, key=lambda m: (m.bit_count(), _face_key(_unmask(m))))


def walked_minimal_nonfaces(self) -> tuple[Simplex, ...]:
    """Inclusion-minimal subsets of 1..n that are not faces.

    Enumerated in increasing cardinality; any candidate containing an
    already-found nonface is skipped, so the result is an antichain.
    Returned in the canonical lexicographic order shared by every
    face family in this package.
    """
    if self.n > GROUND_LIMIT:
        raise ValueError(f"nonface enumeration refused for ground sets above {GROUND_LIMIT}")
    found: list[Simplex] = []
    found_masks: list[int] = []
    labels = range(1, self.n + 1)
    for size in range(1, self.n + 1):
        for combo in combinations(labels, size):
            m = _mask(combo)
            if any(fm & m == fm for fm in found_masks):
                continue
            if not any(m & fm == m for fm in self._facet_masks):
                found.append(frozenset(combo))
                found_masks.append(m)
    return tuple(sorted(found, key=_face_key))


def capped_minimal_nonfaces(self) -> tuple[Simplex, ...]:
    """Inclusion-minimal subsets of 1..n that are not faces.

    Enumerated in increasing cardinality; any candidate containing an
    already-found nonface is skipped, so the result is an antichain.
    Returned in the canonical lexicographic order shared by every
    face family in this package.

    No minimal nonface has more than dim + 2 elements: removing one
    element leaves a face, which has at most dim + 1. So the sizes
    stop at min(n, dim + 2), and nothing larger is walked.
    """
    if self.n > GROUND_LIMIT:
        raise ValueError(f"nonface enumeration refused for ground sets above {GROUND_LIMIT}")
    found: list[Simplex] = []
    found_masks: list[int] = []
    labels = range(1, self.n + 1)
    for size in range(1, min(self.n, self.dim + 2) + 1):
        for combo in combinations(labels, size):
            m = _mask(combo)
            if any(fm & m == fm for fm in found_masks):
                continue
            if not any(m & fm == m for fm in self._facet_masks):
                found.append(frozenset(combo))
                found_masks.append(m)
    return tuple(sorted(found, key=_face_key))


def marked_complex_from_forbidden(forbidden: Iterable[Iterable[int]], n: int) -> SimplicialComplex:
    """Largest complex on 1..n none of whose faces contains a forbidden set.

    The forbidden family must be an antichain of nonempty subsets of
    1..n; it then comes back verbatim as the minimal nonfaces of the
    result. Runs over all 2^n subsets via superset marking, so the same
    ground-set cap applies as elsewhere.
    """
    if n < 0:
        raise ValueError("ground set size must be nonnegative")
    if n > GROUND_LIMIT:
        raise ValueError(f"forbidden-family construction refused for ground sets above {GROUND_LIMIT}")
    fam = {frozenset(g) for g in forbidden}
    for g in fam:
        if not g:
            raise ValueError("forbidden sets must be nonempty")
        if min(g) < 1 or max(g) > n:
            raise ValueError(f"forbidden set {sorted(g)} is not a subset of 1..{n}")
    for g in fam:
        if any(h < g for h in fam):
            raise ValueError("forbidden family must be an antichain")

    total = 1 << n
    is_face = bytearray([1]) * total
    full = total - 1
    for g in fam:
        gm = _mask(g)
        rest = full & ~gm
        # mark every superset of gm
        sub = rest
        while True:
            is_face[gm | sub] = 0
            if sub == 0:
                break
            sub = (sub - 1) & rest

    bit_of = [1 << i for i in range(n)]
    facets = []
    for m in range(total):
        if not is_face[m]:
            continue
        if all((m & b) or not is_face[m | b] for b in bit_of):
            facets.append(_unmask(m))
    return SimplicialComplex(n, facets)


def forked_generalized_kneser(K: SimplicialComplex, L: SimplicialComplex, r: int) -> Hypergraph:
    """Vertices: minimal faces of L outside K. Edges: r pairwise disjoint ones.

    K must be a subcomplex of L (every facet of K a face of L, on a
    ground set no larger than L's).
    """
    if r < 2:
        raise ValueError("edge arity must be at least 2")
    if K.n > L.n or not all(L.is_face(f) for f in K.facets):
        raise ValueError("first complex must be a subcomplex of the second")
    if L == simplex_complex(L.n - 1):
        verts: Iterable[Simplex] = walked_minimal_nonfaces(K) if K.n == L.n else _minimal_outside(K, L)
    else:
        verts = _minimal_outside(K, L)
    return Hypergraph.from_sets(r, verts)


def _minimal_outside(K: SimplicialComplex, L: SimplicialComplex) -> list[Simplex]:
    found: list[Simplex] = []
    found_masks: list[int] = []
    for fm in submask_face_masks(L):
        if any(g & fm == g for g in found_masks):
            continue
        face = _unmask(fm)
        if not K.is_face(face):
            found.append(face)
            found_masks.append(fm)
    return found


def _on_moment_curve(P: PointConfiguration) -> bool:
    """Whether the points are (t, t^2, ..., t^d) at pairwise distinct parameters t.

    Distinct parameters are part of the test: the moment-curve routines
    read alternation blocks off the parameter order, which two labels on
    one parameter leave undefined.
    """
    ts = {c[0] for c in P._coords}
    return len(ts) == len(P._coords) and all(
        c[j] == c[j - 1] * c[0] for c in P._coords for j in range(1, P.d)
    )


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


def descending_intertwined_pair(
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

    d = P.d
    blocks = _blocks_by_side(P, A, B)
    if len(blocks) >= d + 2:
        picks = [blk[0] for blk in blocks[: d + 2]]
        Y1 = frozenset(lab for lab in picks if lab in A)
        Y2 = frozenset(lab for lab in picks if lab in B)
        # a witness for Y1 in A and Y2 in B already shows that A and B meet
        witness = conv_intersect([P.subset(Y1), P.subset(Y2)])
        if witness is not None:
            return IntertwinedPair(Y1, Y2, witness)
    if conv_intersect([P.subset(A), P.subset(B)]) is None:
        raise ValueError("hulls do not intersect")

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
    return IntertwinedPair(Y1f, Y2f, witness)


def lp_intertwined_pair(
    P: PointConfiguration, X1: Iterable[int], X2: Iterable[int]
) -> IntertwinedPair:
    """Shrink two intersecting hulls on the moment curve to a minimal pair.

    The number of alternation blocks in the merged parameter order
    decides. With at most d+1 blocks, a polynomial of degree at most d
    with one root between each pair of consecutive blocks separates the
    parts (this is separating_polynomial), so the hulls are disjoint and
    ValueError is raised without an LP. Otherwise the first points of
    the first d+2 blocks alternate along the curve, and d+2 alternating
    points on the moment curve always have meeting hulls, so one exact
    feasibility check returns the witness; a witness for subsets of the
    parts shows that the parts meet. The pair is minimal because fewer
    than d+2 points on the curve are affinely independent. A check that
    finds no witness contradicts this and raises ArithmeticError.
    """
    A, B, _, u = geometry._moment_parts(P, X1, X2)
    d = P.d
    blocks = geometry._blocks_by_side(u, A, B)
    if len(blocks) <= d + 1:
        raise ValueError("hulls do not intersect")
    picks = [blk[0] for blk in blocks[: d + 2]]
    Y1 = frozenset(lab for lab in picks if lab in A)
    Y2 = frozenset(lab for lab in picks if lab in B)
    witness = conv_intersect([P.subset(Y1), P.subset(Y2)])
    if witness is None:
        raise ArithmeticError("alternating points on the moment curve found no common point")
    return IntertwinedPair(Y1, Y2, witness)


# -- random complexes ---------------------------------------------------


def _random_complex(rng: random.Random, n: int, labels: list[int]) -> SimplicialComplex:
    """A complex on 1..n generated by a few random subsets of the given labels."""
    if not labels:
        return SimplicialComplex(n)
    gens = [
        rng.sample(labels, rng.randint(1, min(len(labels), 5)))
        for _ in range(rng.randint(1, 6))
    ]
    return SimplicialComplex(n, gens)


def _random_pair(rng: random.Random) -> tuple[SimplicialComplex, SimplicialComplex]:
    """K ⊆ L: L on 1..m (sometimes the full simplex), K on 1..n, n <= m, generated by faces of L."""
    m = rng.randint(1, 9)
    if rng.random() < 0.2:
        L = simplex_complex(m - 1)
    else:
        L = _random_complex(rng, m, rng.sample(range(1, m + 1), rng.randint(1, m)))
    if rng.random() < 0.15:
        return L, L
    n = rng.randint(0, m) if rng.random() < 0.5 else m
    faces = [f for f in L.faces() if f and max(f) <= n]
    K = SimplicialComplex(n, rng.sample(faces, min(len(faces), rng.randint(0, 5))))
    return K, L


def test_face_and_nonface_walks_match_their_oracles():
    rng = random.Random(20261018)
    for _ in range(250):
        K, L = _random_pair(rng)
        for C in (K, L):
            assert C.minimal_nonfaces() == walked_minimal_nonfaces(C)
            for cap in (None, *range(-1, C.n + 2)):
                assert C.face_masks(cap) == submask_face_masks(C, cap)


def test_generalized_kneser_matches_the_forked_construction():
    rng = random.Random(7)
    shapes = set()
    for _ in range(800):
        K, L = _random_pair(rng)
        shapes.add((K.n < L.n, K == L, L == simplex_complex(L.n - 1)))
        for r in (2, 3):
            assert generalized_kneser(K, L, r) == forked_generalized_kneser(K, L, r)
    # K.n < L.n, K = L and neither, each with L the full simplex and not
    assert len(shapes) == 6


# -- minimal nonfaces and forbidden families -------------------------------


def _avg_stable_family(r: int, k: int, n: int) -> list[tuple[int, ...]]:
    """The k-subsets avg_stable_placement(r, k, d, n) forbids."""
    t = Fraction(r * (k - 3), 2 * (k - 1)) + 1
    return [c for c in combinations(range(1, n + 1), k) if is_t_stable_on_average(c, n, t)]


def _forbidden_families():
    """(family, n) pairs: seeded random antichains, then the structured families."""
    rng = random.Random(20261019)
    for n in range(13):
        for _ in range(12):
            yield (_random_antichain(rng, n) if n else []), n
    for n in range(1, 13):
        for k in range(1, min(n, 4) + 1):
            yield list(combinations(range(1, n + 1), k)), n  # the (k-2)-skeleton
    for k, n in ((2, 5), (2, 6), (3, 7), (2, 9), (3, 10), (4, 12)):
        yield s_stable_subsets(k, n, 2), n
    for r in (2, 3):
        for n in (10, 12):
            yield _avg_stable_family(r, 4, n), n


def test_transversal_kernel_matches_the_walks():
    families = 0
    for G, n in _forbidden_families():
        families += 1
        K = complex_from_forbidden(G, n)
        assert K == marked_complex_from_forbidden(G, n), (G, n)
        assert K.minimal_nonfaces() == capped_minimal_nonfaces(K), (G, n)
        assert set(K.minimal_nonfaces()) == {frozenset(g) for g in G}
    assert families == 13 * 12 + 42 + 6 + 4
    for n, d in ((5, 2), (8, 2), (7, 4), (10, 4), (9, 6)):  # cyclic polytope boundaries
        K = SimplicialComplex(n, gale_facets(n, d))
        mnf = K.minimal_nonfaces()
        assert mnf == capped_minimal_nonfaces(K), (n, d)
        assert complex_from_forbidden(mnf, n) == marked_complex_from_forbidden(mnf, n) == K


def test_transversal_kernel_degenerate_cases():
    singletons = [(v,) for v in range(1, 5)]
    for G, n, K in (
        ([], 0, SimplicialComplex(0)),
        ([], 5, simplex_complex(4)),
        (singletons, 4, SimplicialComplex(4, [()])),  # the empty simplex is the only facet
    ):
        assert complex_from_forbidden(G, n) == marked_complex_from_forbidden(G, n) == K
    for K, mnf in (
        (SimplicialComplex(0), []),
        (simplex_complex(6), []),
        (SimplicialComplex(4, [()]), singletons),
        (SimplicialComplex(9, [(1, 2), (2, 3, 4)]), [(1, 3), (1, 4)] + [(v,) for v in range(5, 10)]),
    ):
        assert K.minimal_nonfaces() == capped_minimal_nonfaces(K) == tuple(map(frozenset, mnf))


# -- intertwined pairs ----------------------------------------------------


def _outcome(fn, P, A, B):
    try:
        return fn(P, A, B)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _disjoint_pairs(labels: list[int]):
    n = len(labels)
    for amask in range(1, 1 << n):
        A = frozenset(labels[i] for i in range(n) if amask >> i & 1)
        rest = [lab for lab in labels if lab not in A]
        for bmask in range(1, 1 << len(rest)):
            B = frozenset(rest[i] for i in range(len(rest)) if bmask >> i & 1)
            if min(A) < min(B):
                yield A, B


def test_intertwined_pair_matches_the_descent_on_every_small_moment_pair():
    pairs = 0
    for d in range(1, 5):
        for n in range(2, 8):
            P = moment_points(range(1, n + 1), d)
            for A, B in _disjoint_pairs(list(range(1, n + 1))):
                pairs += 1
                got = _outcome(intertwined_pair, P, A, B)
                assert got == _outcome(descending_intertwined_pair, P, A, B), (d, A, B)
    assert pairs == 5556


@pytest.mark.parametrize("seed", range(3))
def test_intertwined_pair_matches_the_descent_at_random_parameters(seed):
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(2, 7)
        d = rng.randint(1, 4)
        params: set[Fraction] = set()
        while len(params) < n:
            params.add(Fraction(rng.randint(-64, 64), rng.randint(1, 8)))
        P = moment_points(sorted(params), d)
        labels = list(P.labels)
        A = frozenset(rng.sample(labels, rng.randint(1, n - 1)))
        rest = [lab for lab in labels if lab not in A]
        B = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
        got = _outcome(intertwined_pair, P, A, B)
        assert got == _outcome(descending_intertwined_pair, P, A, B), (sorted(params), d, A, B)


def test_intertwined_pair_matches_the_lp_on_every_small_moment_pair():
    pairs = found = 0
    for d in range(1, 5):
        for n in range(2, 8):
            P = moment_points(range(1, n + 1), d)
            for A, B in _disjoint_pairs(list(range(1, n + 1))):
                pairs += 1
                got = _outcome(intertwined_pair, P, A, B)
                assert got == _outcome(lp_intertwined_pair, P, A, B), (d, A, B)
                found += isinstance(got, IntertwinedPair)
    assert (pairs, found) == (5556, 1346)


@pytest.mark.parametrize("seed", range(3))
def test_intertwined_pair_matches_the_lp_at_fractional_parameters(seed):
    """Negative, non-integer parameters (q > 1), d up to 6, labels not in parameter order."""
    rng = random.Random(seed)
    found = 0
    for _ in range(200):
        d = rng.randint(1, 6)
        n = rng.randint(d + 2, d + 5)
        params = {Fraction(-rng.randint(1, 48), rng.randint(2, 9))}
        while len(params) < n:
            params.add(Fraction(rng.randint(-48, 48), rng.randint(2, 9)))
        ts = sorted(params)
        assert ts[0] < 0 and any(t.denominator > 1 for t in ts)
        labels = rng.sample(range(1, 2 * n + 1), n)
        P = PointConfiguration(d, [(lab, [t**j for j in range(1, d + 1)]) for lab, t in zip(labels, ts)])
        # sides flip along the curve more often than not, so most draws intersect
        A: set[int] = set()
        B: set[int] = set()
        side = rng.random() < 0.5
        for lab in labels:
            if rng.random() < 0.1:
                continue
            if rng.random() < 0.85:
                side = not side
            (A if side else B).add(lab)
        if not A or not B:
            continue
        got = _outcome(intertwined_pair, P, frozenset(A), frozenset(B))
        assert got == _outcome(lp_intertwined_pair, P, frozenset(A), frozenset(B)), (ts, d, A, B)
        found += isinstance(got, IntertwinedPair)
    assert found >= 100
