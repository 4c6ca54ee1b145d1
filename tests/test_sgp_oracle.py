"""Differential test of the strong general position scan.

The oracle below is the earlier scan, kept here verbatim in substance:
for every tuple it builds the combined barycentric system of the parts
(_mu_system) and reads the intersection's dimension off two ranks, one
without and one with the right-hand side, minus the fibre of affine
dependencies inside each part. The scan in geometry works instead with
stacked annihilators in homogeneous coordinates; both must return the
same (holds, violating tuple, tuples checked) triple, DFS order and all.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from kneser_tverberg.geometry import (
    DEFAULT_SEARCH_CAP,
    PointConfiguration,
    SearchSpaceError,
    _scaled_integer_points,
    moment_points,
    strong_general_position_report,
)
from kneser_tverberg.linalg import rank


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


def test_scan_matches_barycentric_oracle_on_random_configurations():
    rng = random.Random(20)
    violating = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        r = rng.randint(2, 3)
        n = rng.randint(2, d + 3)
        P = _random_configuration(rng, d, n)
        got = strong_general_position_report(P, r)
        assert got == oracle_report(P, r), (P.to_json_dict(), r)
        violating += not got[0]
    # the generator must exercise both outcomes
    assert 50 < violating < 200


def test_scan_matches_oracle_on_moment_curves():
    for d, n, r in ((2, 6, 3), (3, 6, 2), (4, 6, 2), (4, 7, 2)):
        P = moment_points(range(1, n + 1), d)
        assert strong_general_position_report(P, r) == oracle_report(P, r)
