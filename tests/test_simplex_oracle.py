"""Differential test of the integer-pivoting phase-1 simplex.

The oracle below is the earlier Fraction tableau of
linalg.feasible_nonneg, kept here verbatim: Bland's rule for entering
and leaving, artificials free to re-enter, every entry a Fraction. The
integer tableau in linalg must take the same pivot steps and so return
the same x (or None) on every system; so must the elimination that
decides systems with at most one solution. conv_intersect, which now
builds its system in integers, must return the same witness as the
earlier rational construction solved by the oracle.
"""

import random
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from kneser_tverberg import geometry
from kneser_tverberg.geometry import (
    ConvexWitness,
    PointConfiguration,
    TverbergCertificate,
    moment_points,
    tverberg_search,
)
from kneser_tverberg.linalg import feasible_nonneg, rank

Number = Fraction | int
Row = Sequence[Number]


def oracle_feasible_nonneg(rows: Sequence[Row], rhs: Sequence[Number]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or None if the system is infeasible.

    Phase-1 simplex over the rationals. One artificial variable per
    equation; Bland's smallest-index rule for both the entering and the
    leaving choice, which guarantees termination without any notion of
    tolerance. The artificial variables are allowed to re-enter the
    basis, so the method stops exactly when the artificial objective is
    minimal; the system is feasible iff that minimum is zero.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    if m == 0:
        return []
    if n == 0:
        return [] if all(Fraction(b) == 0 for b in rhs) else None

    # Tableau columns: n structural, m artificial, then the rhs.
    tab: list[list[Fraction]] = []
    for i in range(m):
        b = Fraction(rhs[i])
        row = [Fraction(x) for x in rows[i]]
        if b < 0:
            b = -b
            row = [-x for x in row]
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        row.append(b)
        tab.append(row)
    basis = list(range(n, n + m))

    total = n + m
    # Objective: minimize the sum of artificials. Reduced cost of column j
    # is (column sum) - cost_j, so structural columns start at their column
    # sums and the basic artificial columns start at 1 - 1 = 0.
    z = [sum(tab[i][j] for i in range(m)) for j in range(n)] + [Fraction(0)] * m
    zval = sum(tab[i][total] for i in range(m))

    while True:
        enter = -1
        for j in range(total):
            if z[j] > 0 and j not in basis:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][total] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # The artificial objective is bounded below by zero, so an
            # unbounded column cannot occur; guard anyway.
            raise ArithmeticError("phase-1 objective unbounded")
        piv = tab[leave][enter]
        prow = tab[leave]
        for j in range(total + 1):
            prow[j] /= piv
        for i in range(m):
            if i == leave:
                continue
            f = tab[i][enter]
            if not f:
                continue
            row_i = tab[i]
            for j in range(total + 1):
                row_i[j] -= f * prow[j]
        f = z[enter]
        for j in range(total):
            z[j] -= f * prow[j]
        zval -= f * prow[total]
        basis[leave] = enter

    if zval != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][total]
        elif tab[i][total] != 0:
            # Degenerate artificial stuck in the basis at a nonzero level
            # cannot happen when zval == 0.
            raise ArithmeticError("inconsistent basis state")
    return x


def oracle_conv_intersect(parts) -> Optional[ConvexWitness]:
    """The earlier conv_intersect: the rational barycentric system, solved by the oracle."""
    pts = [[tuple(Fraction(x) for x in p) for p in part] for part in parts]
    d = len(pts[0][0])
    for j in range(d):
        lo = max(min(p[j] for p in part) for part in pts)
        hi = min(max(p[j] for p in part) for part in pts)
        if lo > hi:
            return None
    sizes = [len(part) for part in pts]
    nvar = sum(sizes)
    offs = [sum(sizes[:i]) for i in range(len(pts))]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    zero = Fraction(0)
    for i in range(1, len(pts)):
        for j in range(d):
            row = [zero] * nvar
            for p_idx, p in enumerate(pts[0]):
                row[offs[0] + p_idx] = p[j]
            for p_idx, p in enumerate(pts[i]):
                row[offs[i] + p_idx] = -p[j]
            rows.append(row)
            rhs.append(zero)
    for i in range(len(pts)):
        row = [zero] * nvar
        for p_idx in range(sizes[i]):
            row[offs[i] + p_idx] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))
    x = oracle_feasible_nonneg(rows, rhs)
    if x is None:
        return None
    weights = tuple(
        tuple(x[offs[i] + p_idx] for p_idx in range(sizes[i])) for i in range(len(pts))
    )
    point = tuple(
        sum((w * p[j] for w, p in zip(weights[0], pts[0])), zero) for j in range(d)
    )
    return ConvexWitness(point, weights)


def _random_entry(rng: random.Random, integral: bool) -> Number:
    num = rng.randint(-4, 4)
    if integral or rng.random() < 0.5:
        return num
    return Fraction(num, rng.choice((2, 3, 4, 6, 7)))


def _random_system(rng: random.Random) -> tuple[list[list[Number]], list[Number]]:
    """A small system with planted degeneracies.

    Half of the right-hand sides are A x0 for a sparse x0 >= 0, so that
    feasible systems are common; the rest are random, negative entries
    included. Rows may be zero or repeat an earlier row (with or without
    the same rhs), and columns may be zero. A third of the systems have
    entries in {-1, 0, 1, 2} and a 0/1 vector x0, so that ratio ties, and
    with them the leaving rule's tie-break, decide which vertex comes
    back.
    """
    m = min(rng.randint(1, 7), rng.randint(1, 7))
    n = min(rng.randint(1, 10), rng.randint(1, 10))
    if rng.random() < 1 / 3:
        A = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(m)]
        x0 = [rng.choice((0, 0, 1)) for _ in range(n)]
        return A, [sum(a * x for a, x in zip(row, x0)) for row in A]
    integral = rng.random() < 0.3
    A = [[_random_entry(rng, integral) for _ in range(n)] for _ in range(m)]
    for j in range(n):
        if rng.random() < 0.1:
            for row in A:
                row[j] = 0
    for i in range(m):
        roll = rng.random()
        if roll < 0.08:
            A[i] = [0] * n
        elif roll < 0.2 and i:
            A[i] = list(A[rng.randrange(i)])
    if rng.random() < 0.5:
        x0 = [rng.choice((0, 0, 1, 2, Fraction(1, 3))) for _ in range(n)]
        b = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in A]
        if rng.random() < 0.2:
            b[rng.randrange(m)] += rng.choice((-1, 1))
    else:
        b = [_random_entry(rng, integral) for _ in range(m)]
    return A, b


def test_matches_oracle_on_random_systems():
    """Every branch of feasible_nonneg is hit, the elimination's and the simplex's.

    With no more columns than rows and full column rank, one elimination
    decides, feasible or not; rank-deficient square-or-tall systems and
    wide ones reach the simplex unless the elimination finds no solution.
    """
    rng = random.Random(40)
    feasible = 0
    branches = Counter()
    for _ in range(2000):
        A, b = _random_system(rng)
        got = feasible_nonneg(A, b)
        assert got == oracle_feasible_nonneg(A, b), (A, b)
        feasible += got is not None
        n = len(A[0])
        if n > len(A):
            branches["wide"] += 1
        elif rank(A) < n:
            branches["deficient"] += 1
        else:
            branches["full rank, feasible" if got is not None else "full rank, infeasible"] += 1
    # the generator must exercise both outcomes and every branch
    assert 500 < feasible < 1500
    assert len(branches) == 4 and min(branches.values()) > 150, branches


def test_int_and_fraction_copies_agree():
    """An integer system, its Fraction copy and a positive multiple give one x."""
    rng = random.Random(41)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        want = oracle_feasible_nonneg(A, b)
        assert feasible_nonneg(A, b) == want
        assert feasible_nonneg([[Fraction(a) for a in row] for row in A], [Fraction(v) for v in b]) == want
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert feasible_nonneg([[c * a for a in row] for row in A], [c * v for v in b]) == want


def _checked_conv_intersect(monkeypatch):
    """Patch geometry.conv_intersect to compare it with the oracle's construction.

    The weights of a witness are the whole x that feasible_nonneg found
    on the integer system, so equal witnesses mean equal solutions.
    Returns the list of compared results.
    """
    calls = []
    real_conv, real_lp = geometry.conv_intersect, geometry.feasible_nonneg

    def lp(rows, rhs):
        assert all(type(v) is int for row in rows for v in row)
        return real_lp(rows, rhs)

    def conv(parts):
        got = real_conv(parts)
        assert got == oracle_conv_intersect(parts), parts
        calls.append(got)
        return got

    monkeypatch.setattr(geometry, "feasible_nonneg", lp)
    monkeypatch.setattr(geometry, "conv_intersect", conv)
    return calls


def _checked_hull_weights(monkeypatch):
    """Patch geometry._hull_weights, the search's hull test, to compare it with the oracle's construction.

    The search passes the faces' integer points and its own scale L, one
    multiple of every denominator of P; the oracle gets the rational
    points p / L and builds the rational system. Equal weights mean
    equal solutions, so this checks that the search-wide L gives what
    the oracle's system gives. Returns the list of compared results.
    """
    calls = []
    real_core, real_lp = geometry._hull_weights, geometry.feasible_nonneg

    def lp(rows, rhs):
        assert all(type(v) is int for row in rows for v in row)
        return real_lp(rows, rhs)

    def core(parts, scale):
        got = real_core(parts, scale)
        rational = [[tuple(Fraction(x, scale) for x in p) for p in part] for part in parts]
        want = oracle_conv_intersect(rational)
        assert got == (None if want is None else want.weights), rational
        calls.append(got)
        return got

    monkeypatch.setattr(geometry, "feasible_nonneg", lp)
    monkeypatch.setattr(geometry, "_hull_weights", core)
    return calls


def test_conv_intersect_matches_oracle_on_moment_curves(monkeypatch):
    calls = _checked_conv_intersect(monkeypatch)
    labels = range(1, 7)
    for d in range(1, 5):
        P = moment_points(labels, d)
        for mask in range(1, 3**6):
            digits = [(mask // 3**i) % 3 for i in range(6)]
            A = [lab for lab, s in zip(labels, digits) if s == 1]
            B = [lab for lab, s in zip(labels, digits) if s == 2]
            if A and B and A[0] < B[0]:
                geometry.conv_intersect([P.subset(A), P.subset(B)])
    assert len(calls) == 4 * 301
    assert sum(w is not None for w in calls) > 100


def test_conv_intersect_matches_oracle_on_random_parts(monkeypatch):
    """Rational points, so the common scale L is not 1.

    A per-row scaling of the barycentric rows changes Bland's entering
    choice on some of these. Some coordinates are given as strings,
    which conv_intersect reads as Fraction() does.
    """
    calls = _checked_conv_intersect(monkeypatch)
    rng = random.Random(43)
    for _ in range(600):
        d = rng.randint(1, 3)
        parts = [
            [
                tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))) for _ in range(d))
                for _ in range(rng.randint(1, d + 2))
            ]
            for _ in range(rng.randint(2, 3))
        ]
        if rng.random() < 0.2:
            parts[0] = [tuple(str(x) for x in p) for p in parts[0]]
        geometry.conv_intersect(parts)
    assert 100 < sum(w is not None for w in calls) < 500


def test_tverberg_search_matches_oracle_on_random_configurations(monkeypatch):
    calls = _checked_hull_weights(monkeypatch)
    rng = random.Random(42)
    for r, d in ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2)):
        for _ in range(2):
            n = (r - 1) * (d + 1) + 1
            pts = {
                lab: tuple(Fraction(rng.randrange(-4096, 4097), 64) for _ in range(d))
                for lab in range(1, n + 1)
            }
            out = tverberg_search(PointConfiguration(d, pts), r)
            assert isinstance(out, TverbergCertificate)
    assert any(w is not None for w in calls) and any(w is None for w in calls)
