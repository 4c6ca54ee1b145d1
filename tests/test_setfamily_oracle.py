"""The set-family kernels against the versions they replaced.

Copied verbatim below (renamed; calls routed to the copies, so each
oracle uses only old code), except that the three complex builders
check their members in `_face_key` order, so their first `ValueError`
is the one the package raises whatever the member order:

- `berge_minimal_transversals`: `_minimal_transversals` testing every
  candidate against every transversal that meets the new edge.
- `MaximalFilterComplex`: `SimplicialComplex` whose constructor
  compares every generating set with every other.
- `pairwise_complex_from_forbidden`: `complex_from_forbidden` checking
  the antichain condition on every ordered pair of members.
- `hash_order_complex_from_forbidden`: `complex_from_forbidden`
  dualizing the family in the set's hash order, not the caller's.
- `induced_stable_avg_hypergraph`: `stable_avg_hypergraph` building
  KG^r(n,k) in full and then inducing it on the stable vertices.
- `fraction_is_t_stable_on_average`: `is_t_stable_on_average` comparing
  t with the bound as `Fraction`s.
- `gap_vector_is_t_stable_on_average`: `is_t_stable_on_average` reading
  the largest gap off a `GapVector` record.

The new kernels must give the same transversal lists, order included,
on seeded random edge lists with repeated edges, empty edges and edges
that are not an antichain; the same complexes or the same `ValueError`
on random families, shuffled and with repeats too; the same hypergraph for every (r, k, n) that
`verify_avg_stable` accepts with n <= 12; and the same stability verdict
on every subset of 1..n, n <= 12, at integer, fractional and float t,
at each subset's own bound and just above it, and the same `ValueError`s
in the same order on empty, out-of-range, singleton and repeated input.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import pytest

from kneser_tverberg import simplicial
from kneser_tverberg.experiments import AVG_STABLE_INSTANCES, _is_prime_power
from kneser_tverberg.hypergraphs import (
    Hypergraph,
    avg_stability_parameter,
    gap_vector,
    is_t_stable_on_average,
    kneser_hypergraph,
    stable_avg_hypergraph,
)
from kneser_tverberg.simplicial import (
    GROUND_LIMIT,
    SimplicialComplex,
    _face_key,
    _mask,
    _maximal,
    _minimal_transversals,
    _unmask,
    complex_from_forbidden,
)


def berge_minimal_transversals(edges: list[int]) -> list[int]:
    """Inclusion-minimal bitmasks that meet every edge (Berge's incremental algorithm).

    Adds the edges one at a time to [0]: of the minimal transversals so
    far, those meeting the new edge e stay (`hit`), and each t missing it
    gives a candidate t|v per bit v of e, kept unless a member of `hit`
    lies below it. That check is the only one needed. For misses t != t',
    t|v <= t'|v' would put t below t' (v' is in e, t misses e), and t, t'
    are incomparable; one t's candidates differ in their bit of e. And
    t|v <= h in `hit` would force t = h, yet h meets e and t does not.
    """
    trans = [0]
    for e in edges:
        hit = [t for t in trans if t & e]
        bits = [1 << i for i in range(e.bit_length()) if e >> i & 1]
        out = hit[:]
        for t in trans:
            if t & e:
                continue
            for v in bits:
                c = t | v
                if not any(h & c == h for h in hit):
                    out.append(c)
        trans = out
    return trans


class MaximalFilterComplex(SimplicialComplex):
    """`SimplicialComplex` with the constructor's all-pairs maximality filter."""

    __slots__ = ()

    def __init__(self, n: int, facets: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValueError("ground set size must be nonnegative")
        sets = {frozenset(f) for f in facets}
        sets.add(frozenset())
        for f in sorted(sets, key=_face_key):
            if f and (min(f) < 1 or max(f) > n):
                raise ValueError(f"facet {sorted(f)} is not a subset of 1..{n}")
        maximal = [f for f in sets if not any(f < g for g in sets)]
        self.n = n
        self.facets = tuple(sorted(maximal, key=_face_key))
        # A list first: a tuple grown from a generator is reallocated as it
        # grows, which fragments the heap, and peak RSS creeps up call after call.
        self._facet_masks = tuple([_mask(f) for f in self.facets])


def pairwise_complex_from_forbidden(forbidden: Iterable[Iterable[int]], n: int) -> SimplicialComplex:
    """Largest complex on 1..n none of whose faces contains a forbidden set.

    The forbidden family must be an antichain of nonempty subsets of
    1..n; it then comes back verbatim as the minimal nonfaces of the
    result. A set is a face exactly when its complement meets every
    forbidden set, so the facets are the complements of the minimal
    transversals of the family. The ground-set cap applies as elsewhere.
    """
    if n < 0:
        raise ValueError("ground set size must be nonnegative")
    if n > GROUND_LIMIT:
        raise ValueError(f"forbidden-family construction refused for ground sets above {GROUND_LIMIT}")
    fam = {frozenset(g) for g in forbidden}
    for g in sorted(fam, key=_face_key):
        if not g:
            raise ValueError("forbidden sets must be nonempty")
        if min(g) < 1 or max(g) > n:
            raise ValueError(f"forbidden set {sorted(g)} is not a subset of 1..{n}")
    for g in fam:
        if any(h < g for h in fam):
            raise ValueError("forbidden family must be an antichain")
    full = (1 << n) - 1
    transversals = berge_minimal_transversals([_mask(g) for g in fam])
    return MaximalFilterComplex(n, [_unmask(full & ~t) for t in transversals])


def hash_order_complex_from_forbidden(forbidden: Iterable[Iterable[int]], n: int) -> SimplicialComplex:
    """Largest complex on 1..n none of whose faces contains a forbidden set.

    The forbidden family must be an antichain of nonempty subsets of
    1..n; it then comes back verbatim as the minimal nonfaces of the
    result. A set is a face exactly when its complement meets every
    forbidden set, so the facets are the complements of the minimal
    transversals of the family. The ground-set cap applies as elsewhere.
    """
    if n < 0:
        raise ValueError("ground set size must be nonnegative")
    if n > GROUND_LIMIT:
        raise ValueError(f"forbidden-family construction refused for ground sets above {GROUND_LIMIT}")
    fam = {frozenset(g) for g in forbidden}
    for g in sorted(fam, key=_face_key):
        if not g:
            raise ValueError("forbidden sets must be nonempty")
        if min(g) < 1 or max(g) > n:
            raise ValueError(f"forbidden set {sorted(g)} is not a subset of 1..{n}")
    if len(_maximal(fam)) < len(fam):
        raise ValueError("forbidden family must be an antichain")
    full = (1 << n) - 1
    transversals = _minimal_transversals([_mask(g) for g in fam])
    return SimplicialComplex(n, [_unmask(full & ~t) for t in transversals])


def fraction_is_t_stable_on_average(subset: Iterable[int], n: int, t: Fraction | int) -> bool:
    """Average-stability test via the largest cyclic gap.

    A k-subset, k >= 2, qualifies iff after deleting its widest gap the
    remaining k-1 gaps average at least t-1, equivalently
    t <= (n - k - max gap)/(k - 1) + 1. Exact rational comparison.
    """
    gv = gap_vector(subset, n)
    k = len(gv.set)
    if k < 2:
        raise ValueError("average stability needs subsets of size at least 2")
    bound = Fraction(n - k - max(gv.gaps), k - 1) + 1
    return Fraction(t) <= bound


def gap_vector_is_t_stable_on_average(subset: Iterable[int], n: int, t: Fraction | int) -> bool:
    """Average-stability test via the largest cyclic gap.

    A k-subset, k >= 2, qualifies iff after deleting its widest gap the
    remaining k-1 gaps average at least t-1, equivalently
    t <= (n - k - max gap)/(k - 1) + 1. With t = p/q, q > 0, that is
    (p - q)(k - 1) <= (n - k - max gap) q: exact, with the denominators
    cleared, so no Fraction is built per subset.
    """
    gv = gap_vector(subset, n)
    k = len(gv.set)
    if k < 2:
        raise ValueError("average stability needs subsets of size at least 2")
    p, q = t.as_integer_ratio()
    return (p - q) * (k - 1) <= (n - k - max(gv.gaps)) * q


def induced_stable_avg_hypergraph(r: int, k: int, n: int, t: Fraction | int) -> Hypergraph:
    """Kneser hypergraph induced on the k-subsets that are t-stable on average."""
    if k < 2:
        raise ValueError("average stability needs k >= 2")
    H = kneser_hypergraph(r, k, n)
    keep = [i for i, v in enumerate(H.vertices) if fraction_is_t_stable_on_average(v, n, t)]
    return H.induced(keep)


def _outcome(f, *args):
    """f's result, or the message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _same_complex(a, b) -> bool:
    if isinstance(a, SimplicialComplex) and isinstance(b, SimplicialComplex):
        return (a.n, a.facets, a._facet_masks) == (b.n, b.facets, b._facet_masks)
    return a == b


# -- the transversal kernel -------------------------------------------------


def _random_edges(rng: random.Random) -> list[int]:
    """Random bitmask edges, with repeats, empty edges, subsets and supersets mixed in."""
    m = rng.randint(1, 10)
    edges: list[int] = []
    for _ in range(rng.randint(0, 10)):
        roll = rng.random()
        if edges and roll < 0.15:
            edges.append(rng.choice(edges))  # a repeated edge
        elif edges and roll < 0.35:
            base = rng.choice(edges)
            other = rng.getrandbits(m)
            edges.append(base | other if rng.random() < 0.5 else base & other)  # comparable to base
        elif roll < 0.38:
            edges.append(0)
        else:
            edges.append(rng.getrandbits(m) or 1)
    return edges


def test_keyed_transversals_match_berge_on_random_edge_lists():
    rng = random.Random(20261019)
    repeated = comparable = 0
    for _ in range(3000):
        edges = _random_edges(rng)
        assert _minimal_transversals(edges) == berge_minimal_transversals(edges), edges
        repeated += len(set(edges)) < len(edges)
        comparable += any(a != b and a & b == a for a in edges for b in edges)
    # the lists the kernel must survive are really there
    assert repeated > 300 and comparable > 300


def test_keyed_transversals_match_berge_on_facet_complements():
    """The lists minimal_nonfaces passes: complements of a complex's facets."""
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 10)
        gens = [rng.sample(range(1, n + 1), rng.randint(0, n)) for _ in range(rng.randint(1, 8))]
        full = (1 << n) - 1
        edges = [full & ~fm for fm in SimplicialComplex(n, gens)._facet_masks]
        assert _minimal_transversals(edges) == berge_minimal_transversals(edges), (n, gens)


# -- the size-bucketed inclusion tests --------------------------------------


def _random_family(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Mixed sizes, with duplicates and comparable members; sometimes empty or out of range."""
    fam: list[tuple[int, ...]] = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        roll = rng.random()
        if fam and roll < 0.15:
            fam.append(rng.choice(fam))  # a duplicate
        elif fam and roll < 0.3:
            base = set(rng.choice(fam))
            if base and rng.random() < 0.5:
                base.discard(rng.choice(sorted(base)))  # a subset of a member
            else:
                base.add(rng.randint(1, n))  # a superset of a member
            fam.append(tuple(sorted(base)))
        elif roll < 0.32:
            fam.append(())
        elif roll < 0.34:
            fam.append((n + 1,))
        else:
            fam.append(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))))
    return fam


def _families():
    """(family, n): seeded random families, then the structured ones."""
    rng = random.Random(20261020)
    for n in range(1, 11):
        for _ in range(60):
            yield _random_family(rng, n), n
    for n in range(0, 6):
        yield [], n
    for n in range(1, 11):
        for k in range(1, n + 1):
            yield list(combinations(range(1, n + 1), k)), n  # complete k-uniform
    for r, k, n in AVG_STABLE_INSTANCES:
        t = avg_stability_parameter(r, k)
        yield [c for c in combinations(range(1, n + 1), k) if is_t_stable_on_average(c, n, t)], n


def test_bucketed_checks_match_the_all_pairs_checks():
    outcomes = {"complex": 0, "antichain": 0, "other": 0}
    for fam, n in _families():
        new = _outcome(complex_from_forbidden, fam, n)
        old = _outcome(pairwise_complex_from_forbidden, fam, n)
        assert _same_complex(new, old), (fam, n)
        if isinstance(new, SimplicialComplex):
            outcomes["complex"] += 1
        else:
            outcomes["antichain" if "antichain" in new[1] else "other"] += 1
        assert _same_complex(_outcome(SimplicialComplex, n, fam), _outcome(MaximalFilterComplex, n, fam))
    # every branch is reached often
    assert min(outcomes.values()) > 50, outcomes


def _reorderings(rng: random.Random, fam: list) -> list[list]:
    """The family shuffled, with repeats added, and with each member's own order reversed."""
    shuffled = rng.sample(fam, len(fam))
    repeated = shuffled + rng.choices(fam, k=rng.randint(1, 3)) if fam else []
    return [shuffled, rng.sample(repeated, len(repeated)), [sorted(g, reverse=True) for g in repeated]]


def test_forbidden_complex_ignores_the_order_and_repeats_of_its_members(monkeypatch):
    """The same complex whatever the member order, and the hash-order version's first ValueError.

    The transversal kernel sees the members in the caller's order, each
    once: the order the callers' canonical lists already have.
    """
    seen = []

    def recording(edges):
        seen.append(edges)
        return _minimal_transversals(edges)

    monkeypatch.setattr(simplicial, "_minimal_transversals", recording)
    rng = random.Random("member-order")
    outcomes = {"complex": 0, "error": 0}
    for fam, n in _families():
        want = _outcome(hash_order_complex_from_forbidden, fam, n)
        assert _same_complex(_outcome(complex_from_forbidden, fam, n), want), (fam, n)
        if isinstance(want, SimplicialComplex):
            outcomes["complex"] += 1
            assert seen[-1] == list(dict.fromkeys(_mask(g) for g in fam))
        else:
            outcomes["error"] += 1
        for members in _reorderings(rng, fam):
            got = _outcome(complex_from_forbidden, members, n)
            assert _same_complex(got, _outcome(hash_order_complex_from_forbidden, members, n)), (members, n)
            assert _same_complex(got, want) or not isinstance(want, SimplicialComplex)
            # a one-shot iterator is read once, for the checks and the kernel alike
            assert _same_complex(_outcome(complex_from_forbidden, iter(members), n), got)
    assert min(outcomes.values()) > 100, outcomes


BAD_FAMILY = [
    (2, 5), (2, 5), (3, 4, 8), (1, 3, 4, 8), (2, 3, 6, 7, 8), (2, 4, 5), (5, 6, 7),
    (5, 6, 7), (10,), (1, 2, 9), (2, 9), (1, 2, 5, 6, 7, 9), (),
]


@pytest.mark.parametrize(
    "build, members, message",
    [
        (complex_from_forbidden, BAD_FAMILY, "forbidden sets must be nonempty"),
        (
            complex_from_forbidden,
            [g for g in BAD_FAMILY if g] + [(0, 3), (2, 11), (-1, 4, 12)],
            "forbidden set [-1, 4, 12] is not a subset of 1..9",
        ),
        (
            lambda fam, n: SimplicialComplex(n, fam),
            BAD_FAMILY + [(0, 3), (2, 11), (9, 10), (1, 10)],
            "facet [0, 3] is not a subset of 1..9",
        ),
    ],
    ids=["empty-first", "least-out-of-range", "constructor"],
)
def test_a_bad_family_raises_the_same_error_in_any_order(build, members, message):
    """The empty member first, then the least member outside 1..n by _face_key, however listed."""
    rng = random.Random(1)
    for _ in range(40):
        members = rng.sample(members, len(members))
        assert _outcome(build, members, 9) == ("ValueError", message)


# -- the average-stability hypergraph and test ------------------------------


def _accepted_instances():
    """(r, k, n), n <= 12, that verify_avg_stable's own checks accept, plus one n < k per n.

    verify_avg_stable needs r a prime power, (r-1) | (n-1) and k >= 4.
    Above r = 13 only n = 1 qualifies, which r <= 13 already covers.
    """
    for n in range(1, 13):
        for r in range(2, 14):
            if _is_prime_power(r) and (n - 1) % (r - 1) == 0:
                for k in range(4, n + 2):
                    yield r, k, n


def test_filtered_hypergraph_matches_the_induced_kneser_hypergraph():
    errors = with_vertices = with_edges = 0
    for r, k, n in _accepted_instances():
        t = avg_stability_parameter(r, k)
        new = _outcome(stable_avg_hypergraph, r, k, n, t)
        old = _outcome(induced_stable_avg_hypergraph, r, k, n, t)
        assert new == old, (r, k, n)
        if isinstance(new, Hypergraph):
            with_vertices += new.n_vertices > 0
            with_edges += new.n_edges > 0
        else:
            errors += 1
    # 132 instances: the n < k errors, the empty hypergraphs and the
    # ones with edges (all at r = 2; three disjoint 4-sets need n >= 12)
    assert (errors, with_vertices, with_edges) == (24, 25, 9)


@pytest.mark.parametrize("n", range(1, 13))
def test_cleared_stability_test_matches_the_fraction_test(n):
    fixed = [-1, 0, 1, 2, 3, Fraction(4, 3), Fraction(7, 3), Fraction(5, 2), 1.5, 1.25]
    at_bound = 0
    for k in range(1, n + 1):
        for c in combinations(range(1, n + 1), k):
            if k < 2:
                assert _outcome(is_t_stable_on_average, c, n, 1) == _outcome(
                    fraction_is_t_stable_on_average, c, n, 1
                )
                continue
            bound = Fraction(n - k - max(gap_vector(c, n).gaps), k - 1) + 1
            for t in fixed + [bound, bound + Fraction(1, 1000), bound - Fraction(1, 1000)]:
                assert is_t_stable_on_average(c, n, t) == fraction_is_t_stable_on_average(c, n, t), (c, t)
            assert is_t_stable_on_average(c, n, bound)
            assert not is_t_stable_on_average(c, n, bound + Fraction(1, 1000))
            at_bound += 1
    assert at_bound == 2**n - 1 - n


@pytest.mark.parametrize("n", range(1, 13))
def test_direct_largest_gap_matches_the_gap_vector_test(n):
    ts = [-1, 0, 1, 2, 3, Fraction(4, 3), Fraction(7, 3), Fraction(5, 2), 1.5]
    for k in range(n + 1):
        for c in combinations(range(1, n + 1), k):
            inputs = [c, c[::-1], c + c[:1]] if c else [c]
            for subset in inputs:
                for t in ts:
                    assert _outcome(is_t_stable_on_average, subset, n, t) == _outcome(
                        gap_vector_is_t_stable_on_average, subset, n, t
                    ), (subset, n, t)
    # out of range on either side, with the range error taking precedence
    # over the size error as in gap_vector
    for bad in [(0,), (n + 1,), (0, 1), (1, n + 1), (-3, n + 5)]:
        got = _outcome(is_t_stable_on_average, bad, n, 1)
        assert got == _outcome(gap_vector_is_t_stable_on_average, bad, n, 1)
        assert got == ("ValueError", f"subset must lie in 1..{n}")
    assert _outcome(is_t_stable_on_average, (), n, 1) == (
        "ValueError",
        "gap vector of the empty set is undefined",
    )
