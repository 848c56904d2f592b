"""Small exact linear algebra over Gaussian rationals.

Independence and rank treat a family of polynomials as vectors over their
monomials and eliminate over the polynomials themselves: every row
operation is one `Polynomial.sum_of_products`, the one exact kernel.  Each
chosen row is scaled to coefficient 1 at its least packed key, its pivot,
and reduced by the polynomial's gcd like every other result.

Determinants run fraction-free (Bareiss) on Gaussian-integer rows: each
row of exact scalars is cleared of its denominators, and the product of
the row scales divides the result at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .gaussian import GR_ZERO, GaussianRational
from .poly import Polynomial, _scalar
from .state import DimensionError


def _scaled_row(row) -> tuple:
    """(den, sparse Gaussian-integer row): a row of exact scalars times den,
    the lcm of its denominators."""
    row = [_scalar(x) for x in row]
    den = lcm(*(d for _, _, d in row))
    return den, {j: (re * (den // d), im * (den // d))
                 for j, (re, im, d) in enumerate(row) if re or im}


def independent_subset(polys) -> list:
    """Indices of a maximal linearly independent subset, greedy in input
    order: each polynomial is reduced by the chosen ones, pivot by pivot,
    and chosen if anything is left."""
    basis, chosen = [], []    # (pivot key, row with coefficient 1 there)
    for idx, p in enumerate(polys):
        for key, row in basis:
            if c := p.coefficient(key):
                p = Polynomial.sum_of_products(p.k, [(1, (p,)), (-c, (row,))])
        if p:
            key = min(p.keys())
            basis.append((key, p * (1 / p.coefficient(key))))
            chosen.append(idx)
    return chosen


def rank(polys) -> int:
    return len(independent_subset(polys))


def det(matrix) -> GaussianRational:
    """Exact determinant of a square matrix of exact scalars by
    fraction-free (Bareiss) elimination on its scaled Gaussian-integer
    rows, divided by the row scales at the end."""
    n = len(matrix)
    widths = {len(row) for row in matrix}
    if widths - {n}:
        raise DimensionError(f"det needs a square matrix, got {n} rows of "
                             f"{'/'.join(map(str, sorted(widths)))} entries")
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
