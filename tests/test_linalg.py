"""Exact rank, independence and determinants against two references: the
fraction-free sparse elimination over Gaussian-integer rows that
`independent_subset` ran before it eliminated over polynomials, and sympy."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from qinv.gaussian import GaussianRational
from qinv.invariants import jacobian_matrix, lsut_degree4_basis
from qinv.linalg import det, independent_subset, rank
from qinv.poly import Polynomial, amp, amp_conj
from qinv.state import DimensionError

# -- reference: fraction-free elimination on {key: (re, im)} rows ----------


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


def _rows(polys):
    """The Gaussian-integer numerator rows of polynomials (scaling a row
    leaves the independence of a family unchanged)."""
    return [{m: (r, i) for m, r, i in zip(*p._columns())} for p in polys]


def _sympy(x: GaussianRational):
    return (sympy.Rational(x.re.numerator, x.re.denominator)
            + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator))


def _sympy_matrix(polys):
    keys = sorted(set().union(*(p.keys() for p in polys)))
    return sympy.Matrix([[_sympy(p.coefficient(m)) for m in keys]
                         for p in polys])


def _differentials(matrix):
    """The rows of a 7x16 Jacobian as linear polynomials sum_v J[v] v."""
    variables = ([amp(i) for i in range(8)] + [amp_conj(i) for i in range(8)])
    return [Polynomial.sum_of_products(3, [
        (c, (Polynomial.variable(3, v),)) for c, v in zip(row, variables)])
        for row in matrix]


# -- seeded families --------------------------------------------------------


def _scalar(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return GaussianRational(0)
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 9)),
                            Fraction(rng.randint(-6, 6), rng.randint(1, 9)))


def _family(seed: int) -> list:
    """Random polynomials in a few k=2 monomials with imaginary parts and
    mixed denominators, then zero, repeated and scaled rows and sums of
    earlier rows, shuffled into the family."""
    rng = random.Random(seed)
    names = [amp(i) for i in range(4)] + [amp_conj(i) for i in range(4)]
    monos = list({tuple(sorted(dict(
        (rng.choice(names), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))
    ).items())) for _ in range(rng.randint(3, 9))})
    fam = [Polynomial(2, {m: _scalar(rng, 0.4) for m in monos})
           for _ in range(rng.randint(1, 8))]
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(4)
        if kind == 0:
            fam.append(Polynomial.zero(2))
        elif kind == 1:
            fam.append(rng.choice(fam))
        elif kind == 2:
            fam.append(rng.choice(fam) * _scalar(rng))
        else:
            fam.append(rng.choice(fam) * _scalar(rng)
                       + rng.choice(fam) * _scalar(rng))
    rng.shuffle(fam)
    return fam


@pytest.mark.parametrize("seed", range(40))
def test_independent_subset_matches_the_reference_and_sympy(seed):
    fam = _family(seed)
    chosen = independent_subset(fam)
    assert chosen == independent_rows(_rows(fam))
    assert rank(fam) == len(chosen) == _sympy_matrix(fam).rank()
    # The chosen polynomials are independent and span every other one.
    assert rank([fam[i] for i in chosen]) == len(chosen)


def test_independent_subset_of_the_lsut_pairings_with_dependent_rows():
    basis = [b.poly for b in lsut_degree4_basis(4)]
    g = GaussianRational(Fraction(2, 3), Fraction(-1, 5))
    fam = []
    for i, p in enumerate(basis):
        fam.append(p)
        if i % 3 == 2:
            fam += [p * g, basis[i - 1] - basis[i - 2] * g, Polynomial.zero(4)]
    chosen = independent_subset(fam)
    assert chosen == independent_rows(_rows(fam))
    assert [fam[i] for i in chosen] == basis
    assert rank(fam) == 20 == _sympy_matrix(fam).rank()


def test_rank_of_the_jacobian_differentials():
    matrix = jacobian_matrix()
    rows = _differentials(matrix)
    assert independent_subset(rows) == independent_rows(_rows(rows))
    assert rank(rows) == 7 == sympy.Matrix(
        [[_sympy(x) for x in row] for row in matrix]).rank()
    # A dependent eighth row, the sum of two others, adds nothing.
    assert rank(rows + [rows[1] + rows[5]]) == 7


# -- determinants -----------------------------------------------------------


def _matrix(rng, n, zero_share):
    return [[_scalar(rng, zero_share) for _ in range(n)] for _ in range(n)]


def _sympy_det(matrix) -> GaussianRational:
    d = sympy.expand(sympy.Matrix(
        [[_sympy(x) for x in row] for row in matrix]).det())
    re, im = sympy.re(d), sympy.im(d)
    return GaussianRational(Fraction(int(re.p), int(re.q)),
                            Fraction(int(im.p), int(im.q)))


@pytest.mark.parametrize("seed", range(30))
def test_det_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    matrix = _matrix(rng, n, rng.choice([0.0, 0.3, 0.6]))
    kind = seed % 3
    if kind == 1 and n > 1:
        # Singular: one row a combination of two others (or of one).
        target = rng.randrange(n)
        a, b = (rng.choice([i for i in range(n) if i != target])
                for _ in range(2))
        s, t = _scalar(rng), _scalar(rng)
        matrix[target] = [s * x + t * y for x, y in zip(matrix[a], matrix[b])]
    elif kind == 2 and n > 1:
        # A zero leading entry forces a row swap at the first pivot.
        matrix[0][0] = GaussianRational(0)
    assert det(matrix) == _sympy_det(matrix)


def test_det_with_row_swaps_and_a_singular_block():
    g = GaussianRational
    swap = [[g(0), g(1, 2)], [g(Fraction(1, 3)), g(5)]]
    assert det(swap) == _sympy_det(swap) == g(Fraction(-1, 3), Fraction(-2, 3))
    singular = [[g(1), g(2), g(3)], [g(2), g(4), g(6)], [g(0, 1), g(1), g(0)]]
    assert det(singular) == 0 == _sympy_det(singular)


def test_det_takes_int_and_fraction_entries():
    # Every exact scalar type, mixed within a row too; a float is no
    # exact scalar.
    f = Fraction
    for matrix in ([[1, 2], [3, 4]],
                   [[f(1, 2), 2, 0], [3, f(-4, 3), 1], [f(5, 7), 0, 6]],
                   [[f(2, 3), GaussianRational(1, 1)], [5, f(1, 9)]]):
        assert det(matrix) == _sympy_det(
            [[GaussianRational(0) + x for x in row] for row in matrix])
    assert det([[1, 2], [3, 4]]) == -2
    with pytest.raises(TypeError, match="float"):
        det([[1.0, 2], [3, 4]])


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_det_rejects_a_non_square_matrix(shape):
    rows, cols = shape
    matrix = [[GaussianRational(r * cols + c + 1) for c in range(cols)]
              for r in range(rows)]
    with pytest.raises(DimensionError, match=f"{rows} rows of {cols} entries"):
        det(matrix)
