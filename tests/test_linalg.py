import random
from fractions import Fraction

import pytest

from kneser_tverberg.linalg import det, feasible_nonneg, nullspace, pivot_columns, rank


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
    from math import gcd

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


def test_det_hand_cases():
    assert det([[2]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def _random_matrix(rng, m, n):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(m)
    ]


def test_rank_matches_minor_oracle():
    """Rank equals the largest k with a nonzero k x k minor."""
    from itertools import combinations

    rng = random.Random(1)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = _random_matrix(rng, m, n)
        best = 0
        for k in range(1, min(m, n) + 1):
            for ris in combinations(range(m), k):
                for cis in combinations(range(n), k):
                    if det([[A[i][j] for j in cis] for i in ris]) != 0:
                        best = max(best, k)
        assert rank(A) == best


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 4)
        A = _random_matrix(rng, n, n)
        B = _random_matrix(rng, n, n)
        AB = [
            [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert det(AB) == det(A) * det(B)


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
    from itertools import combinations

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
