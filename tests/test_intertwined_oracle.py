"""The intertwined sweep and integer kernel against the code they replaced.

Copied verbatim below (renamed; in the first two the kernel call is
routed to the copy):

- `fraction_intertwined_from_blocks`: `_intertwined_from_blocks` as it
  was when it built the `Fraction` witness itself and returned the
  `IntertwinedPair`; `fraction_intertwined_pair` is `intertwined_pair`'s
  body around it.
- `layered_verify_intertwined`: `verify_intertwined` as a loop over the
  dimensions, each enumerating every pair again with its own block split
  and its own separating polynomial.
- `one_pass_verify_intertwined`: `verify_intertwined` as one pass per
  size n = 2..max_points, each pair on the labels 1..n taken again at
  every n, and the integer kernel called on every pair and dimension.

The sweep must give the same names, parameters, claims, verdicts and
`computed` dicts as the per-dimension loop at (7, 4), (7, 6) and (6, 8),
and as the per-size pass at every 2 <= max_points <= 8 and
1 <= max_d <= 6 and at (9, 4); only `runtime_s` may differ.
`intertwined_pair` must return the same pair, witness point and weights
included, or raise the same error, on every ordered pair of disjoint
subsets of up to 7 moment-curve points in R^1..R^5, and on corrupted
parameter tables.
"""

import time
from dataclasses import replace
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

import pytest

from kneser_tverberg.experiments import ExperimentReport, _finish, verify_intertwined
from kneser_tverberg.geometry import (
    ConvexWitness,
    IntertwinedPair,
    PointConfiguration,
    _blocks_by_side,
    _curve_table,
    _intertwined_from_blocks,
    _moment_parts,
    _separating_from_blocks,
    intertwined_pair,
    moment_points,
)


def fraction_intertwined_pair(
    P: PointConfiguration, X1: Iterable[int], X2: Iterable[int]
) -> IntertwinedPair:
    A, B, q, u = _moment_parts(P, X1, X2)
    return fraction_intertwined_from_blocks(P, A, q, u, _blocks_by_side(u, A, B))


def fraction_intertwined_from_blocks(
    P: PointConfiguration,
    A: frozenset[int],
    q: int,
    u: Mapping[int, int],
    blocks: list[list[int]],
) -> IntertwinedPair:
    """intertwined_pair on parts already split: _moment_parts, then _blocks_by_side."""
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
    moments = []  # sum over Y1 of w_i u_i^j, for j = 0..d
    terms = w
    for _ in range(d + 1):
        if sum(terms):
            raise ArithmeticError("divided-difference dependence failed substitution")
        moments.append(sum(t for t, side in zip(terms, sides) if side))
        terms = [t * x for t, x in zip(terms, us)]

    S = moments[0]
    by_label = sorted(zip(picks, w))
    witness = ConvexWitness(
        tuple(Fraction(m, S * q**j) for j, m in enumerate(moments[1:], 1)),
        (
            tuple(Fraction(wi, S) for _, wi in by_label if wi > 0),
            tuple(Fraction(-wi, S) for _, wi in by_label if wi < 0),
        ),
    )
    Y1 = frozenset(lab for lab, side in zip(picks, sides) if side)
    return IntertwinedPair(Y1, frozenset(picks) - Y1, witness)


def layered_verify_intertwined(max_points: int = 9, max_d: int = 4) -> list[ExperimentReport]:
    """Minimal intertwined pairs, exhaustively per dimension.

    For every pair of disjoint nonempty subsets of up to max_points
    moment-curve points: either a separating polynomial of degree at
    most d certifies the hulls apart, or the minimal pair must come back
    alternating with part sizes floor(d/2)+1 and ceil(d/2)+1. Only the
    order of the curve parameters matters, so parameters 1..n cover all
    configurations. A pair counts as alternating when its parts lie in
    the input parts, in the same roles, and their merged order has
    len(Y1) + len(Y2) blocks, one label each. Labels of moment_points
    follow the parameter order, so the merged order is the sorted labels.

    Each pair is split into alternation blocks once, and that split
    feeds both separating_polynomial's kernel and, when it finds no
    polynomial, intertwined_pair's. The first kernel hands back the
    verified integer polynomial, and the sweep reads only whether there
    is one, so no Fraction coefficient is built.
    """
    out = []
    for d in range(1, max_d + 1):
        t0 = time.perf_counter()
        pairs = 0
        intersecting = 0
        separated = 0
        good_sizes = 0
        alternating = 0
        want = {d // 2 + 1, (d + 1) // 2 + 1}
        for n in range(2, max_points + 1):
            P = moment_points(range(1, n + 1), d)
            q, u = _curve_table(P)
            labels = list(range(1, n + 1))
            for amask in range(1, 1 << n):
                A = frozenset(labels[i] for i in range(n) if amask >> i & 1)
                rest = [lab for lab in labels if lab not in A]
                rn = len(rest)
                for bmask in range(1, 1 << rn):
                    B = frozenset(rest[i] for i in range(rn) if bmask >> i & 1)
                    if min(A) > min(B):
                        continue
                    pairs += 1
                    blocks = _blocks_by_side(u, A, B)
                    if _separating_from_blocks(P, A, B, u, blocks) is not None:
                        separated += 1
                        continue
                    intersecting += 1
                    pair = fraction_intertwined_from_blocks(P, A, q, u, blocks)
                    # the two sizes in want sum to d + 2; for even d both parts take the one size
                    if {len(pair.part1), len(pair.part2)} == want:
                        good_sizes += 1
                    Y1, Y2 = pair.part1, pair.part2
                    merged = sorted(Y1 | Y2)
                    switches = sum((a in Y1) != (b in Y1) for a, b in zip(merged, merged[1:]))
                    if Y1 <= A and Y2 <= B and switches + 1 == len(Y1) + len(Y2):
                        alternating += 1
        claimed = {
            "alternating": intersecting,
            "good_sizes": intersecting,
            "accounted": pairs,
        }
        computed = {
            "alternating": alternating,
            "good_sizes": good_sizes,
            "accounted": separated + intersecting,
            "pairs": pairs,
            "intersecting": intersecting,
            "separated": separated,
        }
        out.append(
            _finish(
                f"intertwined-d{d}",
                {"d": d, "max_points": max_points},
                claimed,
                computed,
                t0,
                provenance="alternating minimal pair criterion",
            )
        )
    return out


def one_pass_verify_intertwined(max_points: int = 9, max_d: int = 4) -> list[ExperimentReport]:
    """Minimal intertwined pairs, exhaustively, one report per dimension 1..max_d.

    For every pair of disjoint nonempty subsets of up to max_points
    moment-curve points: either a separating polynomial of degree at
    most d certifies the hulls apart, or the minimal pair must come back
    alternating with part sizes floor(d/2)+1 and ceil(d/2)+1. Only the
    order of the curve parameters matters, so parameters 1..n cover all
    configurations. A pair counts as alternating when its parts lie in
    the input parts, in the same roles, and their merged order has
    len(Y1) + len(Y2) blocks, one label each. Labels of moment_points
    follow the parameter order, so the merged order is the sorted labels.
    Each unordered pair is taken once, as (A, B) with the smallest label
    in A: B is drawn from the labels above min(A) alone.

    One pass over the pairs serves every dimension. moment_points(1..n, d)
    has the table q = 1, u = label for every d, so a pair's block split
    does not depend on d: it is made once. With m blocks, m <= max_d + 1,
    separating_polynomial's kernel builds and verifies the one integer
    polynomial of degree m - 1, which separates the parts in every
    dimension d >= m - 1; each d <= m - 2 gets intertwined_pair's integer
    kernel on that dimension's configuration, and the sweep reads Y1 and
    Y2 off the signs of the verified dependence, with no Fraction built.
    No split is kept past its pair; the pass holds only the current n's
    configurations, one per dimension. The reports share the pass's wall
    time: each runtime_s is the elapsed time of the whole sweep divided
    by max_d.
    """
    if max_d < 1 or max_points < 2:
        raise ValueError(f"need max_points >= 2 and max_d >= 1, got {max_points} and {max_d}")
    t0 = time.perf_counter()
    dims = range(1, max_d + 1)
    pairs = 0
    intersecting = [0] * (max_d + 1)
    separated = [0] * (max_d + 1)
    good_sizes = [0] * (max_d + 1)
    alternating = [0] * (max_d + 1)
    want = [{d // 2 + 1, (d + 1) // 2 + 1} for d in range(max_d + 1)]
    for n in range(2, max_points + 1):
        Ps = [None] + [moment_points(range(1, n + 1), d) for d in dims]
        top = Ps[max_d]
        q, u = _curve_table(top)
        labels = list(range(1, n + 1))
        for amask in range(1, 1 << n):
            A = frozenset(labels[i] for i in range(n) if amask >> i & 1)
            low = min(A)
            rest = [lab for lab in labels if lab > low and lab not in A]
            rn = len(rest)
            for bmask in range(1, 1 << rn):
                B = frozenset(rest[i] for i in range(rn) if bmask >> i & 1)
                pairs += 1
                blocks = _blocks_by_side(u, A, B)
                m = len(blocks)
                if m <= max_d + 1 and _separating_from_blocks(top, A, B, u, blocks) is not None:
                    for d in range(m - 1, max_d + 1):
                        separated[d] += 1
                for d in range(1, min(m - 2, max_d) + 1):
                    intersecting[d] += 1
                    picks, w = _intertwined_from_blocks(Ps[d], A, q, u, blocks)
                    Y1 = frozenset(lab for lab, wi in zip(picks, w) if wi > 0)
                    Y2 = frozenset(picks) - Y1
                    # the two sizes in want sum to d + 2; for even d both parts take the one size
                    if {len(Y1), len(Y2)} == want[d]:
                        good_sizes[d] += 1
                    merged = sorted(Y1 | Y2)
                    switches = sum((a in Y1) != (b in Y1) for a, b in zip(merged, merged[1:]))
                    if Y1 <= A and Y2 <= B and switches + 1 == len(Y1) + len(Y2):
                        alternating[d] += 1
    out = []
    for d in dims:
        claimed = {
            "alternating": intersecting[d],
            "good_sizes": intersecting[d],
            "accounted": pairs,
        }
        computed = {
            "alternating": alternating[d],
            "good_sizes": good_sizes[d],
            "accounted": separated[d] + intersecting[d],
            "pairs": pairs,
            "intersecting": intersecting[d],
            "separated": separated[d],
        }
        out.append(
            _finish(
                f"intertwined-d{d}",
                {"d": d, "max_points": max_points},
                claimed,
                computed,
                t0,
                provenance="alternating minimal pair criterion",
            )
        )
    share = (time.perf_counter() - t0) / max_d
    return [replace(rep, runtime_s=share) for rep in out]


def _without_runtime(rep: ExperimentReport) -> dict:
    return rep.to_json_dict(include_runtime=False)


@pytest.mark.parametrize("max_points, max_d", [(7, 4), (7, 6), (6, 8)])
def test_one_pass_sweep_matches_the_per_dimension_loop(max_points, max_d):
    got = verify_intertwined(max_points, max_d)
    want = layered_verify_intertwined(max_points, max_d)
    assert [rep.verdict for rep in got] == [rep.verdict for rep in want] == ["match"] * max_d
    assert [rep.computed for rep in got] == [rep.computed for rep in want]
    assert list(map(_without_runtime, got)) == list(map(_without_runtime, want))


@pytest.mark.parametrize(
    "sizes",
    [[(n, d) for d in range(1, 7)] for n in range(2, 9)] + [[(9, 4)]],
    ids=lambda sizes: f"n{sizes[0][0]}",
)
def test_weighted_sweep_matches_the_per_size_sweep(sizes):
    for max_points, max_d in sizes:
        got = verify_intertwined(max_points, max_d)
        want = one_pass_verify_intertwined(max_points, max_d)
        assert [rep.verdict for rep in got] == [rep.verdict for rep in want] == ["match"] * max_d
        assert [rep.computed for rep in got] == [rep.computed for rep in want]
        assert list(map(_without_runtime, got)) == list(map(_without_runtime, want))


def _outcome(fn, P, A, B):
    try:
        return fn(P, A, B)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _ordered_disjoint_pairs(n: int):
    """Every ordered pair of disjoint nonempty subsets of 1..n."""
    for amask in range(1, 1 << n):
        for bmask in range(1, 1 << n):
            if not amask & bmask:
                yield (
                    frozenset(i + 1 for i in range(n) if amask >> i & 1),
                    frozenset(i + 1 for i in range(n) if bmask >> i & 1),
                )


def test_intertwined_pair_matches_the_fraction_kernel_on_every_small_moment_pair():
    pairs = found = 0
    for d in range(1, 6):
        for n in range(2, 8):
            P = moment_points(range(1, n + 1), d)
            for A, B in _ordered_disjoint_pairs(n):
                pairs += 1
                got = _outcome(intertwined_pair, P, A, B)
                want = _outcome(fraction_intertwined_pair, P, A, B)
                assert got == want and repr(got) == repr(want), (d, A, B)
                found += isinstance(got, IntertwinedPair)
    # 3^n - 2^(n+1) + 1 ordered pairs per n; each unordered intersecting pair twice
    assert (pairs, found) == (5 * 2778, 2 * (867 + 366 + 98 + 15 + 1))


def test_intertwined_pair_fails_like_the_fraction_kernel_on_corrupted_tables(monkeypatch):
    for table in (
        (2, {1: 1, 2: 2, 3: 3, 4: 4}),
        (1, {1: 1, 2: 2, 3: 3, 4: 5}),
        (1, {1: 0, 2: 1, 3: 2, 4: 3}),
        (1, {1: 1, 2: 3, 3: 2, 4: 4}),
    ):
        P = moment_points(range(1, 5), 2)
        monkeypatch.setattr(P, "_curve", table)
        for A, B in _ordered_disjoint_pairs(4):
            got = _outcome(intertwined_pair, P, A, B)
            assert got == _outcome(fraction_intertwined_pair, P, A, B), (table, A, B)
