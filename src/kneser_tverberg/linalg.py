"""Exact linear algebra over the rationals.

Everything here works on fractions.Fraction (or int) entries and returns
exact results. The matrices that show up in this package are small and
dense, typically fewer than fifteen rows, so the implementations favor
clarity and exactness over asymptotics: one fraction-free elimination
on integers behind ranks, pivot columns and integer null spaces,
Fraction Gaussian elimination for determinants, and a phase-1 simplex
with Bland's rule for nonnegative feasibility.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Number = Fraction | int
Row = Sequence[Number]


def _integer_rows(rows: Sequence[Row]) -> list[list[int]]:
    """Fresh integer copies of the rows, denominators cleared row by row.

    Scaling a row by a positive integer changes neither the rank, the
    pivot columns, the null space nor the sign pattern questions we ask
    downstream. Rows that are already integers are copied as they are.
    """
    out: list[list[int]] = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        mult = 1
        for f in fracs:
            mult = lcm(mult, f.denominator)
        out.append([f.numerator * (mult // f.denominator) for f in fracs])
    return out


def _echelon(rows: Sequence[Row]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form, eliminating column by column.

    Returns the integer matrix and its pivot columns in order.
    Row i < len(pivots) has its leading entry in column pivots[i]; the
    rows below the pivot rows are zero. Denominators are cleared per row,
    after which a Bareiss elimination (Bareiss 1968) runs on plain Python
    integers. Every division is exact by the Sylvester determinant
    identity; a nonzero remainder raises rather than silently flooring.
    """
    if not rows:
        return [], []
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    mat = _integer_rows(rows)
    m = len(mat)
    pivots: list[int] = []
    prev = 1
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, m) if mat[i][c]), -1)
        if piv < 0:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
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
    return mat, pivots


def rank(rows: Sequence[Row]) -> int:
    """Rank of a matrix given as a sequence of equal-length rows."""
    return len(_echelon(rows)[1])


def pivot_columns(rows: Sequence[Row]) -> list[int]:
    """Indices of the columns that are not combinations of earlier columns.

    These are the pivot columns of the row echelon form; there are
    rank(rows) of them. A pivot in the last column says that the last
    unit vector lies in the row space.
    """
    return _echelon(rows)[1]


def nullspace(rows: Sequence[Row]) -> list[list[int]]:
    """Integer basis of {x : A x = 0}, one primitive vector per free column.

    The basis vector for free column f has a positive entry at f, zeros
    at the other free columns and gcd 1; together they number width -
    rank(rows). Each is found by integer back substitution through the
    echelon form of rank().
    """
    if not rows:
        raise ValueError("a null space needs at least one row to fix its width")
    mat, pivots = _echelon(rows)
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


def det(rows: Sequence[Row]) -> Fraction:
    """Determinant of a square matrix, exact."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    mat = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if mat[i][c]), -1)
        if piv < 0:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            sign = -sign
        pivot = mat[c][c]
        result *= pivot
        for i in range(c + 1, n):
            f = mat[i][c] / pivot
            if not f:
                continue
            row_i = mat[i]
            row_c = mat[c]
            for j in range(c, n):
                row_i[j] -= f * row_c[j]
    return result * sign


def feasible_nonneg(rows: Sequence[Row], rhs: Sequence[Number]) -> Optional[list[Fraction]]:
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
