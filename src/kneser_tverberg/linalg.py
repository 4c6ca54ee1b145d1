"""Exact linear algebra over the rationals.

Everything here works on fractions.Fraction (or int) entries and returns
exact results. The matrices that show up in this package are small and
dense, typically fewer than fifteen rows, so the implementations favor
clarity and exactness over asymptotics. There is one elimination: an
echelon basis of primitive integer rows that grows a few rows at a
time. Searches that stack rows level by level extend it directly;
ranks and pivot columns are its leading columns, and integer null
spaces are read from it by back substitution. Nonnegative feasibility
is decided by one null space when the system has at most one solution
and otherwise by a phase-1 simplex with Bland's rule, pivoting on an
integer tableau. Denominators are cleared before any of these loops
runs; Fractions appear only in what is returned.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Number = Fraction | int
Row = Sequence[Number]


def _integer_rows(rows: Sequence[Row]) -> list[Sequence[int]]:
    """The rows with denominators cleared row by row.

    Scaling a row by a positive integer changes neither the rank, the
    pivot columns, the null space nor the sign pattern questions we ask
    downstream. Rows that are already integers are kept as they are.
    """
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    out: list[Sequence[int]] = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(row)
            continue
        fracs = [Fraction(x) for x in row]
        mult = lcm(*[f.denominator for f in fracs])
        out.append([f.numerator * (mult // f.denominator) for f in fracs])
    return out


Echelon = list[tuple[int, list[int]]]


def extend_echelon(basis: Echelon, rows: Sequence[Sequence[int]]) -> Echelon:
    """Echelon basis of the row space of basis plus some integer rows.

    A basis is a list of (leading column, primitive integer row) pairs
    in increasing order of leading column, each row zero before its
    leading column. Each new row is reduced against the basis in that
    order (a basis row is zero before its leading column, so clearing
    one leading column leaves the earlier ones clear), divided by the
    gcd of its entries and, if anything is left, inserted at its own
    leading column. Neither the input basis nor the rows are modified,
    so a search can hand one basis to many extensions.

    The leading columns depend only on the row space: column c leads
    iff column c of the stacked rows is not a combination of the
    columns before it. So they are the pivot columns, their number is
    the rank, and the last unit vector lies in the row space iff the
    last column leads.
    """
    out = list(basis)
    for row in rows:
        cur = row
        for c, b in out:
            f = cur[c]
            if f:
                p = b[c]
                cur = [p * x - f * y for x, y in zip(cur, b)]
        for lead, v in enumerate(cur):
            if v:
                g = gcd(*cur)
                insort(out, (lead, [x // g for x in cur]))
                break
    return out


def rank(rows: Sequence[Row]) -> int:
    """Rank of a matrix given as a sequence of equal-length rows."""
    return len(extend_echelon([], _integer_rows(rows)))


def pivot_columns(rows: Sequence[Row]) -> list[int]:
    """Indices of the columns that are not combinations of earlier columns.

    These are the leading columns of extend_echelon; there are
    rank(rows) of them. A pivot in the last column says that the last
    unit vector lies in the row space.
    """
    return [c for c, _ in extend_echelon([], _integer_rows(rows))]


def nullspace(rows: Sequence[Row]) -> list[list[int]]:
    """Integer basis of {x : A x = 0}, one primitive vector per free column.

    The free columns are those that are not pivot columns; there are
    width - rank(rows) of them. The basis vector for free column f has
    a positive entry at f, zeros at the other free columns and gcd 1.
    That vector is canonical: the pivot columns are a basis of the
    column space, so fixing the free entries fixes the pivot entries,
    and the solution with x[f] = 1 and the other free entries 0 is
    unique; scaling it to a primitive integer vector, positive at f, is
    unique too. Any exact elimination returns the same basis. Each is
    found by integer back substitution through the echelon basis of
    extend_echelon.
    """
    if not rows:
        raise ValueError("a null space needs at least one row to fix its width")
    echelon = extend_echelon([], _integer_rows(rows))
    width = len(rows[0])
    pivot_set = {c for c, _ in echelon}
    basis: list[list[int]] = []
    for f in range(width):
        if f in pivot_set:
            continue
        x = [0] * width
        x[f] = 1
        for c, row in reversed(echelon):
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


def _pivot_row(row: list[int], prow: list[int], p: int, f: int, div: int) -> list[int]:
    """(p * row - f * prow) / div, entry by entry; every division must be exact."""
    out = []
    for a, b in zip(row, prow):
        q, rem = divmod(p * a - f * b, div)
        if rem:
            raise ArithmeticError("integer pivoting produced a non-integer")
        out.append(q)
    return out


def feasible_nonneg(rows: Sequence[Row], rhs: Sequence[Number]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or None if the system is infeasible.

    A system with no more columns than rows (n <= m) is first decided
    by the canonical null space basis of [A | -b], which nullspace reads
    from one echelon basis. That null space is {(x, t) : A x = t b}. If A x = b has a solution x0,
    then (x0, 1) lies in it, and so does (y, 0) for every y in the null
    space of A: a solution means a dimension of at least 1 + dim ker A.
    So when the basis has at most one vector:
    - no vector, or one vector v with v[n] = 0: A x = b has no solution,
      and the answer is None;
    - one vector with v[n] != 0: ker A = 0, so the first n columns are
      pivot columns, the one free column is n, and nullspace makes v
      positive there, v[n] > 0. The unique solution is x0 = v[:n] /
      v[n], returned when it is nonnegative; otherwise the answer is
      None.
    Either way the feasible set has at most one point, and the simplex
    below would return exactly that point or None, so the answer is the
    same. With two or more basis vectors, and whenever n > m (the null
    space then has at least n + 1 - m >= 2 vectors), the simplex decides.

    The simplex is phase 1 over the rationals. One artificial variable per
    equation; Bland's smallest-index rule for both the entering and the
    leaving choice, which guarantees termination without any notion of
    tolerance. The artificial variables are allowed to re-enter the
    basis, so the method stops exactly when the artificial objective is
    minimal; the system is feasible iff that minimum is zero.

    The tableau is kept in integers (Edmonds' integer pivoting). The
    whole system is scaled by one common multiple L of its denominators,
    which scales every phase-1 reduced cost of a structural column and
    the objective by L and leaves the artificial ones as they are, so
    Bland's choices do not move; a row-by-row scaling would change the
    column sums and with them the entering choice. The integer tableau
    is D times the rational one, D being the determinant of the current
    basis, positive because every pivot is. A pivot on p updates every
    other row, the reduced costs and the objective to
    (p * entry - entry_in_pivot_column * pivot_row_entry) / D, which
    divides exactly, and sets D to p; the pivot row stays as it is.
    Signs and ratio orders are those of the rational tableau, so every
    pivot step is the same, and x is read out as the basic values
    over D.
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
    if n <= m:
        null = nullspace([[*row, -b] for row, b in zip(rows, rhs)])
        if len(null) <= 1:
            if not null or not null[0][n]:
                return None
            v = null[0]
            if min(v[:n]) < 0:
                return None
            return [Fraction(x, v[n]) for x in v[:n]]

    aug = [[*row, b] for row, b in zip(rows, rhs)]
    if not all(type(x) is int for row in aug for x in row):
        fracs = [[Fraction(x) for x in row] for row in aug]
        common = lcm(*[x.denominator for row in fracs for x in row])
        aug = [[x.numerator * (common // x.denominator) for x in row] for row in fracs]

    # Tableau columns: n structural, m artificial, then the rhs.
    total = n + m
    tab: list[list[int]] = []
    for i, row in enumerate(aug):
        if row[n] < 0:
            row = [-x for x in row]
        t = row[:n] + [0] * m + [row[n]]
        t[n + i] = 1
        tab.append(t)
    basis = list(range(n, total))

    # Objective: minimize the sum of artificials. Reduced cost of column j
    # is (column sum) - cost_j, so structural columns start at their column
    # sums and the basic artificial columns start at 1 - 1 = 0. The last
    # entry is the objective value, the sum of the rhs. Basic columns keep
    # a reduced cost of exactly zero, so only nonbasic ones can enter.
    z = [sum(t[j] for t in tab) for j in range(n)] + [0] * m + [sum(t[total] for t in tab)]
    D = 1

    while True:
        enter = next((j for j in range(total) if z[j] > 0), -1)
        if enter < 0:
            break
        # Ratio test by cross-multiplication, ties to the smaller basic index.
        leave = -1
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][total] * tab[leave][enter]
                rhs_best = tab[leave][total] * coef
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # The artificial objective is bounded below by zero, so an
            # unbounded column cannot occur; guard anyway.
            raise ArithmeticError("phase-1 objective unbounded")
        prow = tab[leave]
        p = prow[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and (f or p != D):
                tab[i] = _pivot_row(tab[i], prow, p, f, D)
        z = _pivot_row(z, prow, p, z[enter], D)
        D = p
        basis[leave] = enter

    if z[total] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tab[i][total], D)
        elif tab[i][total] != 0:
            # Degenerate artificial stuck in the basis at a nonzero level
            # cannot happen when the objective is zero.
            raise ArithmeticError("inconsistent basis state")
    return x
