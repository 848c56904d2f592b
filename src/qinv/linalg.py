"""Small exact linear algebra over Gaussian rationals.

Used for rank / independence checks on families of polynomials (viewed as
coefficient vectors over their monomials) and for exact determinants.

Independence works on sparse Gaussian-integer rows, dicts column ->
(re, im): scaling a row by a nonzero rational leaves the independence of a
family unchanged, so each row is cleared of its denominator and the
elimination runs fraction-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .gaussian import GR_ZERO, GaussianRational


def _scaled_row(row) -> tuple:
    """(den, sparse Gaussian-integer row): a row of exact scalars times den,
    the lcm of its denominators."""
    den = lcm(*(d for x in row for d in (x.re.denominator, x.im.denominator)))
    return den, {j: (int(x.re * den), int(x.im * den))
                 for j, x in enumerate(row) if x}


def matrix_rows(matrix):
    """Sparse Gaussian-integer rows of a matrix of exact scalars, each row
    scaled by the lcm of its denominators."""
    return [_scaled_row(row)[1] for row in matrix]


def _reduce(row: dict, pivot_row: dict, col) -> dict:
    """pivot * row - row[col] * pivot_row, with the column `col` cleared and
    the integer content divided out."""
    pr, pi = pivot_row[col]
    cr, ci = row[col]
    out = {m: (pr * r - pi * i, pr * i + pi * r) for m, (r, i) in row.items()}
    for m, (r, i) in pivot_row.items():
        r, i = cr * r - ci * i, cr * i + ci * r
        o = out.get(m)
        if o is None:
            out[m] = (-r, -i)
        elif o[0] == r and o[1] == i:
            del out[m]
        else:
            out[m] = (o[0] - r, o[1] - i)
    g = gcd(*(x for c in out.values() for x in c))
    if g > 1:
        out = {m: (r // g, i // g) for m, (r, i) in out.items()}
    return out


def independent_rows(rows):
    """Indices of a maximal linearly independent subset of sparse
    Gaussian-integer rows, greedy in input order."""
    basis = []       # (pivot column, reduced row)
    chosen = []
    for idx, row in enumerate(rows):
        for col, brow in basis:
            if col in row:
                row = _reduce(row, brow, col)
        if row:
            basis.append((min(row), row))
            chosen.append(idx)
    return chosen


def independent_subset(polys):
    """Indices of a maximal linearly independent subset, greedy in input
    order; a polynomial's row is its dict of Gaussian-integer numerators."""
    return independent_rows([p.numerators() for p in polys])


def rank(polys) -> int:
    return len(independent_subset(polys))


def det(matrix) -> GaussianRational:
    """Exact determinant by fraction-free (Bareiss) elimination on the
    Gaussian-integer rows of `matrix_rows`, divided by the row scales at
    the end."""
    n = len(matrix)
    scale = 1
    a = []
    for row in matrix:
        den, sparse = _scaled_row(row)
        scale *= den
        a.append([sparse.get(j, (0, 0)) for j in range(n)])
    sign = 1
    prev = (1, 0)    # the previous pivot, which divides every update exactly
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != (0, 0)),
                         None)
        if pivot_row is None:
            return GR_ZERO
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        (pr, pi), top = a[col][col], a[col]
        qr, qi = prev
        q2 = qr * qr + qi * qi
        for r in range(col + 1, n):
            row = a[r]
            cr, ci = row[col]
            for c in range(col + 1, n):
                (xr, xi), (yr, yi) = row[c], top[c]
                # (pivot * x - lead * y) / prev
                tr = pr * xr - pi * xi - cr * yr + ci * yi
                ti = pr * xi + pi * xr - cr * yi - ci * yr
                row[c] = ((tr * qr + ti * qi) // q2, (ti * qr - tr * qi) // q2)
        prev = (pr, pi)
    return GaussianRational(Fraction(sign * prev[0], scale),
                            Fraction(sign * prev[1], scale))
