"""Exact linear algebra, with the replaced elimination as its oracle.

rank, pivot_columns and nullspace read the echelon basis that
extend_echelon grows. Before that they ran a fraction-free Bareiss
elimination, which also gave det, and hull_facets_oracle decided sides
by det. That kernel and the det-based hull oracle are kept verbatim at
the end of this module; the differential tests below check that the new
kernel returns exactly what they returned.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

import pytest

from kneser_tverberg.geometry import PointConfiguration, hull_facets_oracle, moment_points
from kneser_tverberg.linalg import extend_echelon, feasible_nonneg, nullspace, pivot_columns, rank


def test_rank_hand_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_pivot_columns_hand_cases():
    assert pivot_columns([]) == []
    assert pivot_columns([[0, 1, 2], [0, 2, 4]]) == [1]
    assert pivot_columns([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == [0, 1]
    # e_3 lies in the row space exactly when a pivot lands in the last column
    assert pivot_columns([[1, 1, 0], [1, 1, 1]]) == [0, 2]
    assert pivot_columns([[1, 1, 1], [2, 2, 2]]) == [0]


def test_nullspace_hand_cases():
    assert nullspace([[1, 2], [2, 4]]) == [[-2, 1]]
    assert nullspace([[1, 0], [0, 1]]) == []
    assert nullspace([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([[Fraction(1, 2), Fraction(1, 3), 1]]) == [[-2, 3, 0], [-2, 0, 1]]
    with pytest.raises(ValueError):
        nullspace([])


def test_nullspace_is_a_primitive_integer_basis():
    """width = rank + basis size, and every basis row kills every input row."""
    rng = random.Random(5)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        if rng.random() < 0.5:
            A = _random_matrix(rng, m, n)
        else:
            # low rank: combinations of a few random rows
            base = _random_matrix(rng, rng.randint(1, 2), n)
            A = [
                [sum(c * row[j] for c, row in zip(coefs, base)) for j in range(n)]
                for coefs in ([rng.randint(-2, 2) for _ in base] for _ in range(m))
            ]
        basis = nullspace(A)
        assert rank(A) + len(basis) == n
        assert rank(basis) == len(basis)
        for v in basis:
            assert all(type(x) is int for x in v)
            assert gcd(*v) == 1
            for row in A:
                assert sum(a * x for a, x in zip(row, v)) == 0


def test_pivot_columns_match_prefix_ranks():
    """Column c is a pivot iff it raises the rank of the columns before it."""
    rng = random.Random(6)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
        prefix = [rank([row[:c] for row in A]) for c in range(n + 1)]
        assert pivot_columns(A) == [c for c in range(n) if prefix[c + 1] > prefix[c]]


def test_extend_echelon_matches_pivot_columns():
    """Row by row and chunk by chunk, the leading columns are the pivot columns.

    The reference is the Bareiss oracle's pivot_columns, since
    pivot_columns itself now reads extend_echelon. Stacks are random
    integer rows, low-rank combinations of a few base rows, zero rows
    and repeats, so that many extensions add nothing. Every basis row is
    primitive, zero before its leading column and in the row space of
    the stack, and the basis handed in is left as it was.
    """
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 6)
        base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, n + 1))]
        pool = base + [[0] * n]
        if rng.random() < 0.6:
            few = base[: rng.randint(1, 2)]
            pool = [
                [sum(c * row[j] for c, row in zip(coefs, few)) for j in range(n)]
                for coefs in ([rng.randint(-2, 2) for _ in few] for _ in range(n + 2))
            ]
        stack: list[list[int]] = []
        basis: list = []
        for _ in range(rng.randint(1, 4)):
            chunk = [list(rng.choice(pool)) for _ in range(rng.randint(0, 3))]
            before = [(c, list(row)) for c, row in basis]
            grown = extend_echelon(basis, chunk)
            assert basis == before
            stack += chunk
            assert [c for c, _ in grown] == oracle_pivot_columns(stack)
            for c, row in grown:
                assert row[c] and not any(row[:c]) and gcd(*row) == 1
            assert rank(stack + [row for _, row in grown]) == len(grown)
            basis = grown


def _random_matrix(rng, m, n):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(m)
    ]


def laplace(A):
    """Determinant by cofactor expansion along the first row."""
    if not A:
        return Fraction(1)
    return sum(
        (-1) ** j * A[0][j] * laplace([row[:j] + row[j + 1:] for row in A[1:]])
        for j in range(len(A))
        if A[0][j]
    )


def test_rank_matches_minor_oracle():
    """Rank equals the largest k with a nonzero k x k minor."""
    rng = random.Random(1)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = _random_matrix(rng, m, n)
        best = 0
        for k in range(1, min(m, n) + 1):
            for ris in combinations(range(m), k):
                for cis in combinations(range(n), k):
                    if laplace([[A[i][j] for j in cis] for i in ris]) != 0:
                        best = max(best, k)
        assert rank(A) == best


def test_feasible_simple_system():
    # x + y = 1, x - y = 0 has the nonnegative solution (1/2, 1/2)
    sol = feasible_nonneg([[1, 1], [1, -1]], [1, 0])
    assert sol == [Fraction(1, 2), Fraction(1, 2)]


def test_infeasible_by_sign():
    # x + y = -1 has no nonnegative solution
    assert feasible_nonneg([[1, 1]], [-1]) is None


def test_infeasible_inconsistent():
    assert feasible_nonneg([[1, 1], [1, 1]], [1, 2]) is None


def test_feasible_solutions_verify():
    """Any returned solution satisfies the system exactly and is nonnegative."""
    rng = random.Random(3)
    found = 0
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 3) for _ in range(m)]
        sol = feasible_nonneg(A, b)
        if sol is None:
            continue
        found += 1
        assert all(x >= 0 for x in sol)
        for row, rhs in zip(A, b):
            assert sum(c * x for c, x in zip(row, sol)) == rhs
    assert found > 20


def test_feasible_agrees_with_vertex_enumeration():
    """Cross-check feasibility against brute force over basic solutions."""
    rng = random.Random(4)

    def brute(A, b, m, n):
        # all candidate supports of size <= m
        for k in range(0, m + 1):
            for cols in combinations(range(n), k):
                sub = [[A[i][j] for j in cols] for i in range(m)]
                sol = _solve_exact(sub, b)
                if sol is not None and all(x >= 0 for x in sol):
                    return True
        return False

    def _solve_exact(A, b):
        m = len(A)
        n = len(A[0]) if A else 0
        aug = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            aug[r] = [x / aug[r][c] for x in aug[r]]
            for i in range(m):
                if i != r and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            r += 1
            if r == m:
                break
        for i in range(m):
            if all(aug[i][j] == 0 for j in range(n)) and aug[i][n] != 0:
                return None
        sol = [Fraction(0)] * n
        row = 0
        for c in range(n):
            if row < m and aug[row][c] == 1 and all(aug[i][c] == 0 for i in range(m) if i != row):
                sol[c] = aug[row][n]
                row += 1
        for i in range(m):
            if sum(Fraction(A[i][j]) * sol[j] for j in range(n)) != b[i]:
                return None
        return sol

    for _ in range(80):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-2, 2) for _ in range(m)]
        got = feasible_nonneg(A, b) is not None
        assert got == brute(A, b, m, n)


# -- the replaced Bareiss elimination, kept verbatim as an oracle ---------

Number = Fraction | int
Row = Sequence[Number]


def oracle_integer_rows(rows: Sequence[Row]) -> tuple[list[list[int]], int]:
    """Fresh integer copies of the rows, denominators cleared row by row.

    Scaling a row by a positive integer changes neither the rank, the
    pivot columns, the null space nor the sign pattern questions we ask
    downstream. Rows that are already integers are copied as they are.
    Also returns the product of the row multipliers, by which the
    determinant of a square matrix grows.
    """
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    out: list[list[int]] = []
    scale = 1
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        mult = lcm(*[f.denominator for f in fracs])
        scale *= mult
        out.append([f.numerator * (mult // f.denominator) for f in fracs])
    return out, scale


def oracle_echelon(mat: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free row echelon form of an integer matrix, in place.

    Eliminates column by column and returns the pivot columns in order
    and the sign of the row permutation the pivoting applied. Afterwards
    row i < len(pivots) has its leading entry in column pivots[i]; the
    rows below the pivot rows are zero. This is Bareiss's elimination
    (Bareiss 1968) on plain Python integers: every division is exact by
    the Sylvester determinant identity, and the last pivot of a square
    matrix of full rank is its determinant up to that sign. A nonzero
    remainder raises rather than silently flooring.
    """
    m = len(mat)
    width = len(mat[0]) if m else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, m) if mat[i][c]), -1)
        if piv < 0:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        lead = mat[r]
        p = lead[c]
        for i in range(r + 1, m):
            cur = mat[i]
            f = cur[c]
            for j in range(c, width):
                q, rem = divmod(p * cur[j] - f * lead[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination produced a non-integer")
                cur[j] = q
        prev = p
        pivots.append(c)
        if r + 1 == m:
            break
    return pivots, sign


def oracle_rank(rows: Sequence[Row]) -> int:
    """Rank of a matrix given as a sequence of equal-length rows."""
    return len(oracle_echelon(oracle_integer_rows(rows)[0])[0])


def oracle_pivot_columns(rows: Sequence[Row]) -> list[int]:
    """Indices of the columns that are not combinations of earlier columns.

    These are the pivot columns of the row echelon form; there are
    rank(rows) of them. A pivot in the last column says that the last
    unit vector lies in the row space.
    """
    return oracle_echelon(oracle_integer_rows(rows)[0])[0]


def oracle_nullspace(rows: Sequence[Row]) -> list[list[int]]:
    """Integer basis of {x : A x = 0}, one primitive vector per free column.

    The basis vector for free column f has a positive entry at f, zeros
    at the other free columns and gcd 1; together they number width -
    rank(rows). Each is found by integer back substitution through the
    echelon form of rank().
    """
    if not rows:
        raise ValueError("a null space needs at least one row to fix its width")
    mat, _ = oracle_integer_rows(rows)
    pivots, _ = oracle_echelon(mat)
    width = len(rows[0])
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for f in range(width):
        if f in pivot_set:
            continue
        x = [0] * width
        x[f] = 1
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            row = mat[i]
            s = sum(row[j] * x[j] for j in range(c + 1, width))
            if s:
                # scale x so that row[c] * x[c] = -s has an integer solution
                g = gcd(s, row[c])
                scale = row[c] // g
                if scale != 1:
                    x = [v * scale for v in x]
                x[c] = -s // g
        g = gcd(*x)
        if x[f] < 0:
            g = -g
        basis.append([v // g for v in x])
    return basis


def oracle_det(rows: Sequence[Row]) -> Fraction:
    """Determinant of a square matrix, exact.

    Clears denominators row by row, runs the fraction-free elimination
    and divides its signed last pivot by the product of the row
    multipliers.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    mat, scale = oracle_integer_rows(rows)
    pivots, sign = oracle_echelon(mat)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * mat[-1][-1], scale)


def oracle_hull_facets_oracle(P: PointConfiguration) -> tuple[frozenset[int], ...]:
    """Facets of the convex hull by definition, for simplicial hulls.

    A d-subset spans a facet iff every remaining point lies strictly on
    one common side of its affine hull, decided by exact determinant
    signs. Subsets whose hull is degenerate or that have points on both
    sides (or on the hyperplane) are rejected, so for configurations in
    general position this is the full facet list.
    """
    d = P.d
    labels = P.labels
    if len(labels) < d + 1:
        raise ValueError("need at least d+1 points")
    out = []
    for S in combinations(labels, d):
        base = P.point(S[0])
        rows = [tuple(x - y for x, y in zip(P.point(lab), base)) for lab in S[1:]]
        sign = 0
        good = True
        for lab in labels:
            if lab in S:
                continue
            dval = oracle_det(rows + [tuple(x - y for x, y in zip(P.point(lab), base))])
            s = (dval > 0) - (dval < 0)
            if s == 0 or (sign and s != sign):
                good = False
                break
            sign = s
        if good:
            out.append(frozenset(S))
    return tuple(sorted(out, key=lambda f: tuple(sorted(f))))


# -- differential tests against the oracle --------------------------------


def _assert_kernels_agree(A):
    """rank, pivot_columns and nullspace equal the oracle's, and A is left as it was."""
    before = [list(row) for row in A]
    assert rank(A) == oracle_rank(A)
    assert pivot_columns(A) == oracle_pivot_columns(A)
    assert nullspace(A) == oracle_nullspace(A)
    assert [list(row) for row in A] == before


def _differential_matrix(rng: random.Random, shape: int) -> list:
    """A seeded tall (0), wide (1) or square (2) matrix, int or Fraction.

    Dense, sparse or a low-rank product, with zero rows and repeated or
    scaled rows planted now and then; some rows are tuples, as the
    geometry passes them.
    """
    small, large = rng.randint(1, 4), rng.randint(2, 7)
    m, n = [(large, small), (small, large), (small, small)][shape]
    integral = rng.random() < 0.5

    def entry():
        return rng.randint(-5, 5) if integral else Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    kind = rng.randrange(3)
    if kind == 0:
        A = [[entry() for _ in range(n)] for _ in range(m)]
    elif kind == 1:
        A = [[entry() if rng.random() < 0.35 else 0 for _ in range(n)] for _ in range(m)]
    else:
        k = rng.randint(1, min(m, n))
        left = [[entry() for _ in range(k)] for _ in range(m)]
        right = [[entry() for _ in range(n)] for _ in range(k)]
        A = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    if rng.random() < 0.3:
        A.insert(rng.randint(0, len(A)), [0] * n)
    if rng.random() < 0.3:
        A.insert(rng.randint(0, len(A)), [rng.choice((1, -2, 3)) * x for x in rng.choice(A)])
    return [tuple(row) if rng.random() < 0.3 else row for row in A]


def test_kernels_match_the_bareiss_oracle():
    """1,200 seeded matrices: int and Fraction, tall, wide and square, low rank, zero and repeated rows."""
    rng = random.Random(19)
    deficient = 0
    for i in range(1200):
        A = _differential_matrix(rng, i % 3)
        _assert_kernels_agree(A)
        deficient += oracle_rank(A) < min(len(A), len(A[0]))
    assert deficient > 300


def test_kernels_match_the_bareiss_oracle_on_lifted_moment_curves():
    """Lifted points (p, 1) of moment-curve subsets, as rows and as columns.

    Rows are what hull_facets_oracle and the SGP annihilators eliminate;
    columns are the Radon systems of the two-part SGP certificate.
    """
    rng = random.Random(20)
    for d in range(1, 5):
        for _ in range(6):
            params = sorted(rng.sample(range(-8, 9), d + 3))
            if rng.random() < 0.5:
                params = [Fraction(t, rng.randint(1, 3)) for t in params]
                params = sorted(set(params))
            P = moment_points(params, d)
            lifted = [(*P.point(lab), 1) for lab in P.labels]
            for k in range(1, min(len(lifted), d + 2) + 1):
                subsets = list(combinations(lifted, k))
                for U in rng.sample(subsets, min(3, len(subsets))):
                    _assert_kernels_agree(list(U))
                    _assert_kernels_agree(list(zip(*U)))


def _hull_configurations(rng: random.Random, d: int):
    """Seeded point sets in R^d on which facet tests are delicate.

    Small boxes (many coincident, collinear and coplanar points), a
    simplex with a point planted on a facet hyperplane and a repeated
    vertex, points on a line and moment-curve points.
    """
    sets = []
    for _ in range(8):
        n = rng.randint(d + 1, d + 4)
        sets.append([tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(n)])
    for _ in range(4):
        simplex = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 1)]
        facet = rng.sample(simplex, d)
        weights = [Fraction(rng.randint(-2, 3)) for _ in range(d - 1)]
        weights.append(1 - sum(weights))
        on_plane = tuple(sum(w * p[j] for w, p in zip(weights, facet)) for j in range(d))
        sets.append(simplex + [on_plane, rng.choice(simplex)])
    direction = tuple(rng.randint(-2, 2) for _ in range(d))
    sets.append([tuple(t * x for x in direction) for t in range(d + 2)] + [(1,) * d])
    configurations = [PointConfiguration(d, dict(enumerate(pts, 1))) for pts in sets]
    return configurations + [moment_points(sorted(rng.sample(range(-5, 6), d + 3)), d)]


def test_hull_oracle_matches_the_determinant_oracle():
    """The null-space side test rejects and accepts exactly the d-subsets det did."""
    rng = random.Random(21)
    facets = 0
    for d in range(2, 5):
        for P in _hull_configurations(rng, d):
            got = hull_facets_oracle(P)
            assert got == oracle_hull_facets_oracle(P)
            facets += len(got)
    assert facets > 0
