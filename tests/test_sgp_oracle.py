"""Differential tests of the strong general position scan.

Two earlier scans are kept here as oracles. The first, kept verbatim in
substance, builds for every tuple the combined barycentric system of
the parts (_mu_system) and reads the intersection's dimension off two
ranks, one without and one with the right-hand side, minus the fibre of
affine dependencies inside each part. The second, kept verbatim, stacks
the annihilators of the lifted points in homogeneous coordinates and
eliminates the whole stack once per tuple (pivot_columns). The scan in
geometry carries an echelon basis of that stack down its search
instead; all three must return the same (holds, violating tuple, tuples
checked) triple, DFS order and all, and must stop at the same count
when the cap is exceeded.

On configurations in general position the scan must also pass after
exactly the number of pairs a closed form counts (pair_count), at two
parts and, below 2(d+1) points, where no three parts fit under the
codimension bound, at three.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional, Sequence

import pytest

from kneser_tverberg.geometry import (
    DEFAULT_SEARCH_CAP,
    PointConfiguration,
    SearchSpaceError,
    _scaled_integer_points,
    avg_stable_placement,
    moment_points,
    strong_general_position_report,
)
from kneser_tverberg.linalg import nullspace, pivot_columns, rank
from kneser_tverberg.simplicial import Simplex


def _affine_dim(pts: Sequence[tuple[int, ...]]) -> int:
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return rank([[x - y for x, y in zip(p, base)] for p in pts[1:]])


def _mu_system(parts_pts: list[list[tuple[int, ...]]], d: int) -> tuple[int, int]:
    """Ranks of the combined barycentric system, without and with its rhs."""
    sizes = [len(p) for p in parts_pts]
    nvar = sum(sizes)
    offs = [0] * len(parts_pts)
    for i in range(1, len(parts_pts)):
        offs[i] = offs[i - 1] + sizes[i - 1]
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in range(1, len(parts_pts)):
        for j in range(d):
            row = [0] * nvar
            for p_idx, p in enumerate(parts_pts[0]):
                row[offs[0] + p_idx] = p[j]
            for p_idx, p in enumerate(parts_pts[i]):
                row[offs[i] + p_idx] = -p[j]
            rows.append(row)
            rhs.append(0)
    for i in range(len(parts_pts)):
        row = [0] * nvar
        for p_idx in range(sizes[i]):
            row[offs[i] + p_idx] = 1
        rows.append(row)
        rhs.append(1)
    r_plain = rank(rows)
    r_aug = rank([row + [b] for row, b in zip(rows, rhs)])
    return r_plain, r_aug


def oracle_report(P: PointConfiguration, r: int, *, cap: int = DEFAULT_SEARCH_CAP):
    d = P.d
    ipts = _scaled_integer_points(P)
    labels = P.labels
    pos = {lab: i for i, lab in enumerate(labels)}

    subsets = [
        frozenset(c)
        for size in range(1, min(d + 1, len(labels)) + 1)
        for c in combinations(labels, size)
    ]
    subsets.sort(key=lambda f: (len(f), tuple(sorted(f))))
    smasks = [sum(1 << pos[lab] for lab in f) for f in subsets]
    sdims = [_affine_dim([ipts[lab] for lab in sorted(f)]) for f in subsets]
    scodims = [d - dim for dim in sdims]

    checked = 0
    chosen: list[int] = []

    def rec(start: int, union: int, codim_sum: int) -> Optional[tuple]:
        nonlocal checked
        if len(chosen) >= 2:
            checked += 1
            if checked > cap:
                raise SearchSpaceError("cap", checked, cap)
            parts = [subsets[i] for i in chosen]
            parts_pts = [[ipts[lab] for lab in sorted(pt)] for pt in parts]
            r_plain, r_aug = _mu_system(parts_pts, d)
            sizes = [len(p) for p in parts]
            fiber = sum(m - 1 - sdims[i] for m, i in zip(sizes, chosen))
            if r_aug > r_plain:
                actual_codim = d + 1
            else:
                actual_codim = d - ((sum(sizes) - r_plain) - fiber)
            if actual_codim != codim_sum:
                return tuple(parts)
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

    bad = rec(0, 0, 0)
    return bad is None, bad, checked


def elimination_report(
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


def _random_configuration(rng: random.Random, d: int, n: int) -> PointConfiguration:
    """Random small rational points, with planted degeneracies.

    Besides generic points the generator repeats earlier points and takes
    affine combinations of two or three earlier points (so points land on
    a line or plane through earlier ones); some configurations are drawn
    from the grid {-1, 0, 1}^d so that coincidences happen by chance.
    """
    pts: list[tuple[Fraction, ...]] = []
    tiny = rng.random() < 0.15
    for _ in range(n):
        kind = rng.random() if pts else 1.0
        if kind < 0.04:
            p = rng.choice(pts)
        elif kind < 0.16 and len(pts) >= 2:
            base = rng.sample(pts, min(len(pts), rng.choice((2, 2, 3))))
            w = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in base[1:]]
            w.insert(0, 1 - sum(w))
            p = tuple(sum((wi * q[j] for wi, q in zip(w, base)), Fraction(0)) for j in range(d))
        elif tiny:
            p = tuple(Fraction(rng.randint(-1, 1)) for _ in range(d))
        else:
            p = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
        pts.append(p)
    return PointConfiguration(d, {i + 1: p for i, p in enumerate(pts)})


def _jittered_moment_points(rng: random.Random, n: int, d: int) -> PointConfiguration:
    """Moment-curve points at i + eps_i, jittered as avg_stable_placement draws them."""
    return moment_points([Fraction(i) + Fraction(rng.randrange(0, 2048), 4096) for i in range(1, n + 1)], d)


def test_scan_matches_barycentric_oracle_on_random_configurations():
    rng = random.Random(20)
    violating = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        r = rng.randint(2, 3)
        n = rng.randint(2, d + 3)
        P = _random_configuration(rng, d, n)
        got = strong_general_position_report(P, r)
        want = oracle_report(P, r)
        assert got == want, (P.to_json_dict(), r)
        violating += not got[0]
    # the generator must exercise both outcomes
    assert 50 < violating < 200


def test_scan_matches_oracle_on_moment_curves():
    for d, n, r in ((2, 6, 3), (3, 6, 2), (4, 6, 2), (4, 7, 2)):
        P = moment_points(range(1, n + 1), d)
        want = oracle_report(P, r)
        assert strong_general_position_report(P, r) == want


def _same_outcome(P: PointConfiguration, r: int, cap: int = DEFAULT_SEARCH_CAP):
    """The scan and the per-tuple elimination agree, cap overruns included."""
    try:
        want = elimination_report(P, r, cap=cap)
    except SearchSpaceError as exc:
        with pytest.raises(SearchSpaceError) as got:
            strong_general_position_report(P, r, cap=cap)
        assert (got.value.estimate, got.value.cap) == (exc.estimate, exc.cap)
        return None
    assert strong_general_position_report(P, r, cap=cap) == want, (P.to_json_dict(), r)
    return want


def test_scan_matches_elimination_oracle_on_random_configurations():
    rng = random.Random(9)
    violating = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        r = rng.randint(2, 4)
        n = rng.randint(2, d + 3)
        got = _same_outcome(_random_configuration(rng, d, n), r)
        violating += not got[0]
    assert 50 < violating < 200


def test_scan_matches_elimination_oracle_on_avg_stable_draws():
    """The draw avg_stable_placement(2, 4, 5, 10) keeps, then two smaller jittered draws.

    The smaller draws (8 points in R^3, jittered as the placement's are)
    keep the full-size scan to one run while the scan and the oracle
    still walk every tuple.
    """
    rng = random.Random(0)
    P = _jittered_moment_points(rng, 10, 5)
    assert avg_stable_placement(2, 4, 5, 10, seed=0)[1] == P
    assert _same_outcome(P, 2) == (True, None, 21861)
    for _ in range(2):
        assert _same_outcome(_jittered_moment_points(rng, 8, 3), 2) == (True, None, 2345)


def test_scan_stops_at_the_elimination_oracles_cap():
    P = moment_points(range(1, 8), 4)
    full = elimination_report(P, 2)[2]
    for cap in (-1, 0, 1, 5, full - 1):
        assert _same_outcome(P, 2, cap=cap) is None
    assert _same_outcome(P, 2, cap=full) == strong_general_position_report(P, 2)


# -- pair counts in general position ----------------------------------


def pair_count(n: int, d: int) -> int:
    """Unordered pairs of disjoint subsets, each of 1 to d+1 points, of total size d+1 to n.

    These are the pairs the scan checks when every subset of at most d+1
    of the n points has its expected codimension d+1 minus its size.
    """
    top = min(d + 1, n)
    ordered = sum(
        comb(n, a) * comb(n - a, b)
        for a in range(1, top + 1)
        for b in range(1, top + 1)
        if d + 1 <= a + b <= n
    )
    return ordered // 2


def _random_generic_points(rng: random.Random, n: int, d: int) -> PointConfiguration:
    """Random points with coordinates k/64, |k| <= 4096, as verify_tverberg_random draws them."""
    return PointConfiguration(
        d,
        {
            lab: tuple(Fraction(rng.randrange(-4096, 4097), 64) for _ in range(d))
            for lab in range(1, n + 1)
        },
    )


def test_scan_passes_after_every_pair_in_general_position():
    """Jittered moment-curve and random draws pass after exactly pair_count(n, d) tuples.

    Below 2(d+1) points three parts check the same pairs and nothing
    more. Equally spaced parameters on the curve are not all in general
    position: some of them fail.
    """
    rng = random.Random(3)
    assert pair_count(0, 3) == pair_count(1, 3) == 0
    assert pair_count(3, 2) == 3
    sizes = [(n, d) for d in range(1, 6) for n in range(1, 13) if pair_count(n, d) <= 3000]
    assert (12, 1) in sizes and (8, 5) in sizes
    spaced_holds = []
    for n, d in sizes:
        want = (True, None, pair_count(n, d))
        draws = (_jittered_moment_points(rng, n, d), _random_generic_points(rng, n, d))
        for P in draws:
            assert strong_general_position_report(P, 2) == want, (P.to_json_dict(), n, d)
            if n < 2 * (d + 1):
                assert strong_general_position_report(P, 3) == want, (P.to_json_dict(), n, d)
        if n >= d + 2:
            spaced = moment_points(range(1, n + 1), d)
            spaced_holds.append(strong_general_position_report(spaced, 2)[0])
    assert 0 < sum(spaced_holds) < len(spaced_holds)
