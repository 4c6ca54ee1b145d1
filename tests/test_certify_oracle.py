"""The integer separating polynomial against the Fraction construction it replaced.

`separating_polynomial` builds the product of 2u - (u_lo + u_hi) over the
integers u = q*t and converts to `Fraction` coefficients only on return.
`fraction_separating_polynomial` below is the replaced kernel, copied
verbatim (renamed): the product of (t - midpoint) factors and its
evaluation, all in `Fraction`s. The membership test and the block cut
it calls are the replaced `Fraction`-keyed helpers, copied verbatim
too, except that the membership test no longer caches its answer on P.
Both must give the same tuple, the same None or the same error on every
ordered pair of disjoint subsets of up to 7 moment-curve points in
R^1..R^4, on seeded pairs at negative and non-integer parameters (where
q > 1), and on malformed input.
"""

import random
from fractions import Fraction
from typing import Iterable, Optional

import pytest

from kneser_tverberg.geometry import (
    PointConfiguration,
    moment_points,
    separating_polynomial,
)


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


def fraction_separating_polynomial(
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
        raise ValueError("configuration must lie on the moment curve at distinct parameters")
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
        v = Fraction(0)
        for c in reversed(coeffs):
            v = v * t + c
        return v

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


def _outcome(fn, P, A, B):
    try:
        return fn(P, A, B)
    except (ValueError, ArithmeticError, KeyError) as exc:
        return type(exc), str(exc)


def _ordered_disjoint_pairs(labels: list[int]):
    n = len(labels)
    for amask in range(1, 1 << n):
        A = frozenset(labels[i] for i in range(n) if amask >> i & 1)
        rest = [lab for lab in labels if lab not in A]
        for bmask in range(1, 1 << len(rest)):
            yield A, frozenset(rest[i] for i in range(len(rest)) if bmask >> i & 1)


def test_polynomial_matches_the_fraction_kernel_on_every_small_moment_pair():
    pairs = separated = 0
    for d in range(1, 5):
        for n in range(2, 8):
            P = moment_points(range(1, n + 1), d)
            for A, B in _ordered_disjoint_pairs(list(range(1, n + 1))):
                pairs += 1
                got = separating_polynomial(P, A, B)
                assert got == fraction_separating_polynomial(P, A, B), (d, A, B)
                separated += got is not None
    # 3^n - 2^(n+1) + 1 ordered pairs for each n, in each of four dimensions
    assert pairs == 4 * sum(3**n - 2 ** (n + 1) + 1 for n in range(2, 8)) == 11112
    assert 0 < separated < pairs


@pytest.mark.parametrize("seed", range(3))
def test_polynomial_matches_the_fraction_kernel_at_rational_parameters(seed):
    rng = random.Random(seed)
    fractional = 0
    for _ in range(300):
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
        got = _outcome(separating_polynomial, P, A, B)
        assert got == _outcome(fraction_separating_polynomial, P, A, B), (sorted(params), d, A, B)
        if got is not None and any(P.point(lab)[0].denominator > 1 for lab in A | B):
            fractional += 1
    assert fractional >= 50


def test_polynomial_raises_what_the_fraction_kernel_raises():
    P = moment_points([Fraction(-3, 2), 0, Fraction(1, 3), 2], 2)
    off_curve = PointConfiguration(2, {1: (1, 1), 2: (2, 5), 3: (3, 9)})
    twice = PointConfiguration(2, {1: (1, 1), 2: (1, 1), 3: (2, 4)})
    cases = [
        (P, set(), {1}),
        (P, {1, 2}, {2, 3}),
        (off_curve, {1}, {2}),
        (twice, {1}, {3}),
    ]
    for Q, A, B in cases:
        want = _outcome(fraction_separating_polynomial, Q, A, B)
        assert isinstance(want, tuple) and isinstance(want[0], type)
        assert _outcome(separating_polynomial, Q, A, B) == want, (A, B)
