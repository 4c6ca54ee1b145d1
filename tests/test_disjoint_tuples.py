"""The streamed walk over pairwise disjoint face tuples, against the enumeration it replaced.

The oracle is the code `tverberg_search` ran before the walk: a DFS that
materializes every disjoint r-tuple, filters by the total-size threshold
and sorts by (total, tuple). The walk must yield the same sequence.
"""

import gc
import random
from fractions import Fraction
from itertools import combinations, islice

import pytest

from kneser_tverberg import geometry
from kneser_tverberg.coloring import (
    certified_lower_bound,
    chromatic_number,
    verify_constraint_property,
)
from kneser_tverberg.geometry import (
    AbsenceReport,
    PointConfiguration,
    TverbergCertificate,
    avg_stable_placement,
    conv_intersect,
    moment_points,
    separating_polynomial,
    tverberg_search,
)
from kneser_tverberg.hypergraphs import generalized_kneser, kneser_hypergraph
from kneser_tverberg.simplicial import SimplicialComplex, _disjoint_tuples, simplex_complex


def admitted_oracle(masks, sizes, r, threshold):
    """The admitted-tuple enumeration of the old tverberg_search, annotations dropped."""
    nf = len(masks)
    admitted = []
    chosen = []
    max_size = max(sizes) if sizes else 0

    def rec(start, union, total):
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
        del rec
    admitted = [t for t in admitted if sum(sizes[i] for i in t) >= threshold]
    admitted.sort(key=lambda t: (sum(sizes[i] for i in t), t))
    return admitted


def walk(masks, sizes, r, threshold):
    """Every total from the threshold up, one past r times the heaviest weight."""
    top = r * sizes[-1] if sizes else 0
    return [t for total in range(threshold, top + 2) for t in _disjoint_tuples(masks, sizes, r, total)]


def random_lists(rng):
    """Random masks with random nondecreasing weights, unrelated to the masks."""
    m = rng.randint(0, 14)
    bits = rng.randint(2, 9)
    masks = [rng.randrange(1, 1 << bits) for _ in range(m)]
    sizes = sorted(rng.randint(1, 4) for _ in range(m))
    return masks, sizes


def face_lists(rng):
    """Face masks of a random complex in (size, lex) order, weighted by size."""
    n = rng.randint(2, 8)
    facets = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 5))]
    K = SimplicialComplex(n, facets)
    masks = [fm for fm in K.face_masks(max_size=rng.randint(1, 4)) if fm]
    return masks, [fm.bit_count() for fm in masks]


def light_prefix_lists(rng):
    """A long run of vertices and edges, then a few heavy faces, weighted by size."""
    n = rng.randint(4, 10)
    light = [1 << v for v in range(n)] + [(1 << a) | (1 << b) for a, b in combinations(range(n), 2)]
    masks = rng.sample(light, rng.randint(min(8, len(light)), len(light)))
    masks += [sum(1 << v for v in rng.sample(range(n), rng.randint(3, min(n, 5)))) for _ in range(rng.randint(0, 3))]
    masks.sort(key=int.bit_count)
    return masks, [fm.bit_count() for fm in masks]


def union_size(masks):
    """How many labels the masks hold between them."""
    union = 0
    for m in masks:
        union |= m
    return union.bit_count()


@pytest.mark.parametrize(
    "make", [random_lists, face_lists, light_prefix_lists], ids=["random", "faces", "light-prefix"]
)
def test_walk_matches_the_sorted_enumeration(make):
    rng = random.Random(2024)
    beyond_union = 0
    for _ in range(250):
        masks, sizes = make(rng)
        r = rng.randint(2, 4)
        d = rng.randint(1, 3)
        # no pruning, codimension pruning's (r-1)(d+1)+1, a threshold beyond
        # reach, and one just above the labels the masks hold between them
        labels = union_size(masks)
        for threshold in (r, (r - 1) * (d + 1) + 1, r * 4 + 1, labels + 1):
            assert walk(masks, sizes, r, threshold) == admitted_oracle(masks, sizes, r, threshold)
        if make is not random_lists:
            # weights are sizes: no disjoint tuple holds more labels than the union
            assert walk(masks, sizes, r, labels + 1) == []
            beyond_union += bool(sizes) and r * sizes[-1] > labels
    if make is not random_lists:
        assert beyond_union >= 50


def weight_lists(rng, m):
    """All zero; a zero prefix of random length before a constant heavier tail; random steps."""
    p = rng.randint(0, m)
    w = rng.randint(1, 3)
    return [[0] * m, [0] * p + [w] * (m - p), sorted(rng.randint(0, 3) for _ in range(m))]


def test_zero_weights_give_every_disjoint_tuple_in_lex_order():
    """Per total, the walk is the lex-ordered disjoint tuples of that weight, totals beyond reach included."""
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(0, 12)
        masks = [rng.randrange(0, 1 << rng.randint(1, 8)) for _ in range(m)]
        for r in (2, 3, 4):
            disjoint = [
                t for t in combinations(range(m), r)
                if all(masks[a] & masks[b] == 0 for a, b in combinations(t, 2))
            ]
            assert list(_disjoint_tuples(masks, [0] * m, r, 0)) == disjoint
            for weights in weight_lists(rng, m):
                top = r * weights[-1] if weights else 0
                for total in range(0, top + 3):
                    want = [t for t in disjoint if sum(weights[i] for i in t) == total]
                    assert list(_disjoint_tuples(masks, weights, r, total)) == want


def test_walk_refuses_fewer_than_two_parts():
    """r < 2 is refused, as its callers refuse it, with or without faces to walk."""
    for r in (-1, 0, 1):
        for masks in ([1, 2, 4], []):
            with pytest.raises(ValueError, match="r >= 2"):
                next(_disjoint_tuples(masks, [0] * len(masks), r, 0))


def test_pair_level_with_ties_at_half_the_total_and_a_heavy_tail():
    """r = 2: light faces, a run of faces at exactly total / 2, then heavier faces.

    A light first face's partner loop starts by bisection past the tied
    run, among the heavy faces; a pair inside the tied run is admitted;
    the first face past total / 2 ends the outer loop; and each partner
    loop ends at the first face heavier than the rest of the total.
    """
    rng = random.Random(31)
    tied = crossed = 0
    for _ in range(300):
        half = rng.randint(1, 4)
        total = 2 * half
        light = sorted(rng.randint(0, half - 1) for _ in range(rng.randint(0, 4)))
        heavy = sorted(rng.randint(half + 1, total + 3) for _ in range(rng.randint(1, 5)))
        weights = light + [half] * rng.randint(2, 6) + heavy
        m = len(weights)
        masks = [rng.randrange(0, 1 << rng.randint(2, 7)) for _ in range(m)]
        for t in (total - 1, total, total + 1):
            want = [
                p for p in combinations(range(m), 2)
                if not masks[p[0]] & masks[p[1]] and weights[p[0]] + weights[p[1]] == t
            ]
            assert list(_disjoint_tuples(masks, weights, 2, t)) == want
            tied += t == total and any(weights[i] == half for i, _ in want)
            crossed += any(weights[i] < half < weights[j] for i, j in want)
    assert tied >= 100 and crossed >= 100


def boxes_overlap(parts):
    """Whether the parts' coordinate intervals, in Fractions, overlap in every coordinate."""
    return all(
        max(min(p[j] for p in part) for part in parts) <= min(max(p[j] for p in part) for part in parts)
        for j in range(len(parts[0][0]))
    )


def on_moment_curve(P):
    """Whether every point is (t, t^2, ..., t^d), at pairwise distinct t, by taking powers."""
    ts = [P.point(lab)[0] for lab in P.labels]
    return len(set(ts)) == len(ts) and all(
        P.point(lab) == tuple(t**j for j in range(1, P.d + 1)) for lab, t in zip(P.labels, ts)
    )


def block_count(P, X1, X2):
    """Side changes along the merged labels sorted by their first coordinate, plus one."""
    merged = sorted(X1 | X2, key=lambda lab: P.point(lab)[0])
    return 1 + sum((a in X1) != (b in X1) for a, b in zip(merged, merged[1:]))


def covered(P, r, restricted):
    """Whether a theorem covers codim_pruning on this input, restated from the parameters.

    (a) no complex and at least (r-1)(d+1)+1 points; (b) two parts at
    distinct moment-curve parameters; (c) three or more parts at
    distinct moment-curve parameters with 2n < 3(d+2).
    """
    n, d = len(P), P.d
    if not restricted and n >= (r - 1) * (d + 1) + 1:
        return True
    return on_moment_curve(P) and (r == 2 or 2 * n < 3 * (d + 2))


def oracle_search(P, r, restrict_to=None, codim_pruning=False):
    """(tuples examined, tuples hull-tested, pairs rejected on blocks, {part: {label: weight}}, point).

    Tuples go in the old search order, up to and including the first
    one whose hulls meet; the last two are None on absence. A tuple is
    hull-tested when its boxes overlap, unless it is a pair on the
    moment curve with at most d+1 alternation blocks: such a pair is
    among the block rejections. Both lists hold tuples of label sets.
    """
    d = P.d
    pos = {lab: i for i, lab in enumerate(P.labels)}
    if restrict_to is not None:
        face_sets = [f for f in restrict_to.faces(max_size=d + 1) if f]
    else:
        face_sets = [
            frozenset(c) for size in range(1, min(d + 1, len(P.labels)) + 1)
            for c in combinations(P.labels, size)
        ]
    face_sets.sort(key=lambda f: (len(f), tuple(sorted(f))))
    masks = [sum(1 << pos[lab] for lab in f) for f in face_sets]
    sizes = [len(f) for f in face_sets]
    threshold = max(r, (r - 1) * (d + 1) + 1) if codim_pruning else r
    admitted = admitted_oracle(masks, sizes, r, threshold)
    curve = r == 2 and on_moment_curve(P)
    tested = []
    rejected = []
    for examined, t in enumerate(admitted, 1):
        points = [P.subset(face_sets[i]) for i in t]
        if not boxes_overlap(points):
            continue
        if curve and block_count(P, face_sets[t[0]], face_sets[t[1]]) <= d + 1:
            rejected.append((face_sets[t[0]], face_sets[t[1]]))
            continue
        tested.append(tuple(face_sets[i] for i in t))
        w = conv_intersect(points)
        if w is not None:
            parts = {face_sets[i]: dict(zip(sorted(face_sets[i]), wi)) for i, wi in zip(t, w.weights)}
            return examined, tested, rejected, parts, w.point
    return len(admitted), tested, rejected, None, None


def watch_hull_tests(monkeypatch):
    """Record every tuple that reaches geometry._hull_weights, the search's hull test.

    The search hands it the faces' integer points and the search-wide
    scale L; each tuple is recorded as lists of rational points, p / L,
    so it reads like the P.subset lists the oracle tests. Returns the
    list, which grows as the search runs.
    """
    sent = []
    real = geometry._hull_weights

    def recording(parts, scale):
        sent.append([[tuple(Fraction(x, scale) for x in p) for p in part] for part in parts])
        return real(parts, scale)

    monkeypatch.setattr(geometry, "_hull_weights", recording)
    return sent


def fixtures():
    """The configurations the geometry tests search, plus seeded random ones."""
    hexagon = PointConfiguration(
        2, {1: (2, 0), 2: (1, 2), 3: (-1, 2), 4: (-2, 0), 5: (-1, -2), 6: (1, -2), 7: (0, 0)}
    )
    cone = SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)]).cone()
    out = [
        (moment_points([1, 2, 3, 4, 5], 1), 3, None, False),
        (PointConfiguration(2, {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)}), 2, None, False),
        (PointConfiguration(2, {1: (0, 0), 2: (1, 0), 3: (0, 1)}), 2, None, False),
        (hexagon, 2, cone, False),
        (hexagon, 2, None, False),
        (moment_points(range(1, 8), 2), 3, None, False),
        (moment_points([1, 2, 3, 4], 1), 2, None, False),
        (moment_points(range(1, 7), 4), 2, None, False),
        (moment_points(range(1, 8), 2), 3, None, True),
        (moment_points(range(1, 6), 3), 2, None, True),
        # an absence whose sweep reaches the top total, r faces of d+1 points
        (moment_points([1, 2, 3, 4], 1), 2, SimplicialComplex(4, [(1, 2), (3, 4)]), False),
    ]
    rng = random.Random(11)
    for _ in range(30):
        d = rng.randint(1, 3)
        r = rng.randint(2, 3)
        n = rng.randint(r, (r - 1) * (d + 1) + 2)
        pts = {
            i: tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
            for i in range(1, n + 1)
        }
        out.append((PointConfiguration(d, pts), r, None, rng.random() < 0.3))
    return out


def test_search_matches_the_old_order_on_every_fixture(monkeypatch):
    calls = watch_hull_tests(monkeypatch)
    seen = {"certificate": 0, "absence": 0}
    for P, r, restrict, pruning in fixtures():
        calls.clear()
        out = tverberg_search(P, r, restrict, codim_pruning=pruning)
        hull_tests = len(calls)  # the oracle's conv_intersect calls land in the hook too
        examined, tested, _, parts, point = oracle_search(
            P, r, restrict, pruning and covered(P, r, restrict is not None)
        )
        # one hull test per tuple whose bounding boxes meet and that no block count rejects
        assert hull_tests == len(tested)
        if isinstance(out, AbsenceReport):
            seen["absence"] += 1
            assert parts is None and out.tuples_examined == examined
        else:
            seen["certificate"] += 1
            assert isinstance(out, TverbergCertificate) and out.verify(P)
            assert out.point == point
            assert {p: dict(w) for p, w in zip(out.parts, out.weights)} == parts
    assert seen["certificate"] >= 10 and seen["absence"] >= 3


def moment_fixtures():
    """The two-part fixtures on the moment curve, as (P, restrict_to, codim_pruning)."""
    return [(P, restrict, pruning) for P, r, restrict, pruning in fixtures() if r == 2 and on_moment_curve(P)]


def jittered_moment_draws():
    """Seeded moment-curve configurations at negative and non-integer parameters, d = 1..5."""
    rng = random.Random(16)
    out = []
    for d in range(1, 6):
        for _ in range(4):
            n = rng.randint(d + 1, d + 3)  # d+1 points have no Radon partition: an absence
            params = set()
            while len(params) < n:
                params.add(Fraction(rng.randint(-40, 40), rng.randint(1, 7)))
            out.append((moment_points(sorted(params), d), None, rng.random() < 0.5))
    return out


@pytest.mark.parametrize("configs", [moment_fixtures, jittered_moment_draws], ids=["fixtures", "jittered"])
def test_block_count_rejects_only_pairs_the_lp_separates(monkeypatch, configs):
    """Each pair rejected on its block count is LP-infeasible and has a separating polynomial.

    The search's hull tests must be exactly the oracle's, in order, and
    every pair it hands to the hull test has d+2 or more blocks.
    """
    sent = watch_hull_tests(monkeypatch)
    rejections = 0
    for P, restrict, pruning in configs():
        sent.clear()
        out = tverberg_search(P, 2, restrict, codim_pruning=pruning)
        searched = list(sent)
        _, tested, rejected, parts, _ = oracle_search(
            P, 2, restrict, pruning and covered(P, 2, restrict is not None)
        )
        assert (parts is None) == isinstance(out, AbsenceReport)
        by_point = {P.point(lab): lab for lab in P.labels}
        assert [tuple(frozenset(by_point[p] for p in part) for part in call) for call in searched] == tested
        for X1, X2 in tested:
            assert block_count(P, X1, X2) >= P.d + 2
        for X1, X2 in rejected:
            assert conv_intersect([P.subset(X1), P.subset(X2)]) is None
            assert separating_polynomial(P, X1, X2) is not None
        rejections += len(rejected)
    assert rejections > 0


def test_a_nudged_moment_point_gets_no_block_count_rejection(monkeypatch):
    """Off the curve by one coordinate, every pair whose boxes meet goes to the LP."""
    calls = watch_hull_tests(monkeypatch)
    on = moment_points(range(1, 7), 3)
    nudged = PointConfiguration(
        3, {lab: (4, 16, 64 + Fraction(1, 1000)) if lab == 4 else on.point(lab) for lab in on.labels}
    )
    assert not on_moment_curve(nudged)
    for P in (on, nudged):
        calls.clear()
        out = tverberg_search(P, 2)
        hull_tests = len(calls)
        _, tested, rejected, parts, point = oracle_search(P, 2)
        assert isinstance(out, TverbergCertificate) and out.point == point
        assert {p: dict(w) for p, w in zip(out.parts, out.weights)} == parts
        # off the curve the oracle hull-tests every tuple whose boxes overlap
        assert hull_tests == len(tested)
        assert (rejected != []) == (P is on)


@pytest.mark.parametrize(
    "r, d, count", [(2, 1, 25), (2, 2, 25), (3, 1, 25), (3, 2, 10), (2, 3, 10), (4, 1, 10)]
)
def test_size_floor_finds_the_unpruned_certificate_on_random_draws(r, d, count):
    """verify_tverberg_random's seed-0 draws: the search from (r-1)(d+1)+1 ends where the full one does.

    The unpruned search is the oracle. Below the floor it finds nothing,
    so both return the same certificate, point and weights included.
    """
    from kneser_tverberg.experiments import _random_draws

    for P in islice(_random_draws(r, d, 0), count):
        want = tverberg_search(P, r)
        assert isinstance(want, TverbergCertificate)
        assert sum(map(len, want.parts)) == (r - 1) * (d + 1) + 1
        assert tverberg_search(P, r, codim_pruning=True) == want


def _check_floor_search(P, r):
    """The search from n = (r-1)(d+1)+1 certifies P, with the unpruned search as the oracle.

    Tverberg's theorem, Caratheodory's theorem and adding the unused
    points back give a meeting tuple of total exactly n, so the floor
    hides no partition whatever P is. Where the oracle's first
    certificate already has total n, both walks reach it first.
    """
    n = (r - 1) * (P.d + 1) + 1
    want = tverberg_search(P, r)
    got = tverberg_search(P, r, codim_pruning=True)
    assert isinstance(want, TverbergCertificate) and want.verify(P)
    assert isinstance(got, TverbergCertificate) and got.verify(P)
    assert sum(map(len, got.parts)) == n
    if sum(map(len, want.parts)) == n:
        assert got == want


@pytest.mark.parametrize("r, d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_size_floor_certifies_degenerate_grid_draws(r, d, s):
    """Seeded draws on the grid [-s, s]^d, where repeated and collinear points are common."""
    from kneser_tverberg.geometry import strong_general_position_report

    rng = random.Random(f"floor-{r}-{d}-{s}")
    n = (r - 1) * (d + 1) + 1
    degenerate = 0
    for _ in range(20):
        P = PointConfiguration(
            d, {lab: tuple(rng.randint(-s, s) for _ in range(d)) for lab in range(1, n + 1)}
        )
        degenerate += not strong_general_position_report(P, r)[0]
        _check_floor_search(P, r)
    assert degenerate > 0


@pytest.mark.parametrize(
    "r, points",
    [
        (2, {1: (0, 0), 2: (1, 1), 3: (2, 2), 4: (3, 3)}),  # collinear in the plane
        (2, {1: (0, 0, 0), 2: (0, 0, 0), 3: (1, 0, 0), 4: (0, 1, 0), 5: (0, 0, 1)}),
        (3, {lab: (0,) for lab in range(1, 6)}),  # one point five times
    ],
)
def test_size_floor_certifies_configurations_off_strong_general_position(r, points):
    from kneser_tverberg.geometry import strong_general_position_report

    P = PointConfiguration(len(points[1]), points)
    assert not strong_general_position_report(P, r)[0]
    _check_floor_search(P, r)


def test_codim_pruning_applies_exactly_where_a_theorem_covers_it(monkeypatch):
    """Three covered inputs prune and end as the full walk does; three uncovered ones walk unpruned.

    The walk's first total is read off the tuple walk itself: the floor
    (r-1)(d+1)+1 where the prune applies, r where it does not. Case (c)
    has a floor of 11 above its 7 labels, which no r disjoint faces can
    hold, so the pruned search reports its absence without a walk.
    """
    starts = []
    real = geometry._disjoint_tuples

    def recording(masks, sizes, r, total):
        starts.append(total)
        return real(masks, sizes, r, total)

    monkeypatch.setattr(geometry, "_disjoint_tuples", recording)
    curve = moment_points(range(1, 8), 3)
    K347, P347 = avg_stable_placement(3, 4, 4, 7, seed=0)
    hexagon = PointConfiguration(
        2, {1: (2, 0), 2: (1, 2), 3: (-1, 2), 4: (-2, 0), 5: (-1, -2), 6: (1, -2)}
    )
    cases = [
        # (a) no complex, off the curve, n = 5 >= 4 points
        (PointConfiguration(2, {1: (0, 0), 2: (5, 1), 3: (2, 7), 4: (-3, 4), 5: (1, 2)}), 2, None, True),
        # (b) two parts on the curve, restricted to the triangles
        (curve, 2, simplex_complex(6).skeleton(2), True),
        # (c) three parts on the curve, 2n = 14 < 18
        (P347, 3, K347, True),
        # a restricted input off the curve: the hexagon's boundary cycle
        (hexagon, 2, SimplicialComplex(6, [(i, i % 6 + 1) for i in range(1, 7)]), False),
        # three parts on the curve with 2n = 3(d+2) exactly
        (moment_points(range(1, 7), 2), 3, None, False),
        # no complex, off the curve, n = 3 below the floor 4
        (PointConfiguration(2, {1: (0, 0), 2: (1, 0), 3: (0, 1)}), 2, None, False),
    ]
    for P, r, K, want in cases:
        assert covered(P, r, K is not None) == want
        full = tverberg_search(P, r, K)
        starts.clear()
        pruned = tverberg_search(P, r, K, codim_pruning=True)
        floor = (r - 1) * (P.d + 1) + 1
        if want and floor > len(P):
            assert (r, len(P), starts) == (3, 7, [])
            assert pruned.min_total_size == 11 and pruned.tuples_examined == 0
        else:
            assert starts[0] == (floor if want else r)
        if not want:
            assert pruned == full and not pruned.codim_pruning
        elif isinstance(full, TverbergCertificate):
            assert pruned == full
        else:
            assert isinstance(pruned, AbsenceReport) and pruned.codim_pruning
            assert pruned.min_total_size == floor and not full.codim_pruning
    outcomes = [isinstance(tverberg_search(P, r, K), AbsenceReport) for P, r, K, _ in cases]
    assert outcomes == [False, False, True, True, True, True]


def test_pruned_search_never_hides_a_certificate():
    """codim_pruning=True returns an absence only where the full walk does."""
    collinear = PointConfiguration(3, {1: (0, 0, 0), 2: (1, 1, 1), 3: (2, 2, 2)})
    chords = PointConfiguration(
        2, {1: (-1, -3), 2: (3, 9), 3: (6, 8), 4: (-9, -12), 5: (-12, -12), 6: (16, 16)}
    )
    inputs = [(P, r, restrict) for P, r, restrict, _ in fixtures()]
    inputs += [(collinear, 2, None), (chords, 3, None)]
    uncovered_certificates = 0
    for P, r, restrict in inputs:
        full = tverberg_search(P, r, restrict)
        pruned = tverberg_search(P, r, restrict, codim_pruning=True)
        assert isinstance(pruned, AbsenceReport) == isinstance(full, AbsenceReport)
        uncovered_certificates += isinstance(full, TverbergCertificate) and not covered(P, r, restrict is not None)
    assert uncovered_certificates >= 3


def test_avg_stable_two_part_sweep_makes_no_hull_test(monkeypatch):
    """avg-stable-2-4-10: the restricted r = 2 sweep is decided by boxes and block counts alone."""
    from kneser_tverberg import experiments
    from kneser_tverberg.experiments import verify_avg_stable

    lowers = []

    def keeping(*args, **kwargs):
        lowers.append(certified_lower_bound(*args, **kwargs))
        return lowers[-1]

    calls = watch_hull_tests(monkeypatch)
    monkeypatch.setattr(experiments, "certified_lower_bound", keeping)
    rep = verify_avg_stable(2, 4, 10, 0, max_vertices=64)
    assert rep.verdict == "match"
    assert calls == []
    # the report the sweep gave when every pair whose boxes meet went to the LP (139 of them)
    assert [lower.absence for lower in lowers] == [
        AbsenceReport(
            r=2, n_faces=185, tuples_examined=215, min_total_size=7, restricted=True, codim_pruning=True
        )
    ]


def test_kneser_bound_sweep_rejects_every_pair_on_its_boxes(monkeypatch):
    """KG(11,2)'s certified bound: 55 pairs of distinct points on a line, no hull test."""
    calls = watch_hull_tests(monkeypatch)
    lower = certified_lower_bound(simplex_complex(10).skeleton(0), moment_points(range(1, 12), 1), 2)
    assert lower.absence.tuples_examined == 55
    assert calls == []


def test_walk_and_its_callers_leave_no_reference_cycles():
    """The walk is a plain generator; nothing it or its callers run forms a cycle."""
    K, L = simplex_complex(4).skeleton(0), simplex_complex(4)
    coloring = chromatic_number(generalized_kneser(K, L, 2)).coloring
    P = moment_points(range(1, 7), 4)
    gc.collect()
    gc.disable()
    try:
        tverberg_search(P, 2)
        assert gc.collect() == 0
        kneser_hypergraph(3, 2, 7)
        assert gc.collect() == 0
        verify_constraint_property(K, L, 2, coloring)
        assert gc.collect() == 0
        walker = _disjoint_tuples([1, 2, 4, 8], [0] * 4, 2, 0)
        next(walker)
        del walker  # abandoned mid-walk
        assert gc.collect() == 0
    finally:
        gc.enable()
