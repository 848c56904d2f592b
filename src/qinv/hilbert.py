"""Dimension formulas and Hilbert series of the invariant algebras.

Two independent routes are provided for the unitary and SLOCC Hilbert series:

* the character route, summing over conjugacy classes of the symmetric
  group products of two-row characters, one per qubit (`characters`), and
* truncated constant-term extraction of the rational-series formulas
  (geometric expansion in z and exact Laurent bookkeeping in the compact
  torus variables), in place of a full partial-fraction algorithm.

Each route solves one problem, the LSUT bidegree table t[n1][n2]: an LUT
invariant of degree 2n is an LSUT invariant of bidegree (n, n), and a
SLOCC invariant of degree n one of bidegree (n, 0).  So the LUT series is
the table's diagonal and the SLOCC series its column 0.

Closed forms quoted from the literature (3-qubit LUT/LSUT, 4-qubit tables)
are expanded for cross-validation; the 4-qubit numerator tables ship as
JSON data files, and `CLOSED_FORMS` lists every shipped (group, k).

One truncated-series engine serves both the constant-term route and the
closed forms: `_geometric_step` multiplies a series graded by the expansion
variables, each coefficient a Laurent polynomial in the compact variables,
by one factor 1/(1 - z^g u^v).  A closed form is the case with no compact
variables; `_dense` lays either result out as a list or a bidegree table.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import product
from math import prod
from operator import add, sub

from .characters import (_integer, dim_cov, partitions, two_row_characters,
                         z_lambda)


# -- character-route dimensions -------------------------------------------


def dim_inv_slocc(degree: int, k: int) -> int:
    """Dimension of the degree-d SLOCC invariants, the LSUT table's column
    0 (0 in odd degree)."""
    return _lsut_dim(k, degree, 0)


@lru_cache(maxsize=None)
def dim_cov_total(d: int, k: int) -> int:
    """Total covariant dimension in amplitude degree d, all multidegrees:
    each slot's sum over its two-row shapes, to the k-th power."""
    return _integer(sum(
        Fraction(sum(two_row_characters(mu).values()) ** k, z_lambda(mu))
        for mu in partitions(d)))


def hilbert_slocc_coeffs(k: int, nmax: int):
    """Coefficients of z^0..z^nmax of the SLOCC Hilbert series, character
    route."""
    return [dim_inv_slocc(d, k) for d in range(nmax + 1)]


def _lsut_dim(k: int, n1: int, n2: int) -> int:
    """Dimension of the LSUT invariants of bidegree (n1, n2): the hermitian
    pairings of covariants of degrees n1 and n2 with a common multidegree.

    Summed over the multidegrees d, dim_cov(n1, k, d) dim_cov(n2, k, d) is
    a sum over class pairs (mu, nu) of a product of one factor per slot, so
    the sum over d is the k-th power of the one-slot sum S(mu, nu) over the
    slot degrees x of the parity of n1 up to min(n1, n2).
    """
    if (n1 - n2) % 2:
        return 0
    xs = range(n1 % 2, min(n1, n2) + 1, 2)
    nus = [(two_row_characters(nu), z_lambda(nu)) for nu in partitions(n2)]
    total = Fraction(0)
    for mu in partitions(n1):
        chi, z = two_row_characters(mu), z_lambda(mu)
        for psi, w in nus:
            s = sum(chi[(n1 + x) // 2] * psi[(n2 + x) // 2] for x in xs)
            total += Fraction(s ** k, z * w)
    return _integer(total)


def hilbert_lut_coeffs(k: int, nmax: int):
    """Coefficients of z^0..z^nmax of the LUT Hilbert series, character
    route: the LSUT diagonal, dim LUT(2n) = dim LSUT(n, n)."""
    return [0 if deg % 2 else _lsut_dim(k, deg // 2, deg // 2)
            for deg in range(nmax + 1)]


def hilbert_lsut_coeffs(k: int, n1max: int, n2max: int):
    """Bidegree table t[n1][n2] of LSUT invariant dimensions, character route."""
    return [[_lsut_dim(k, n1, n2) for n2 in range(n2max + 1)]
            for n1 in range(n1max + 1)]


# -- truncated series engine ----------------------------------------------


def _geometric_step(series, g, v, bounds, prune=None):
    """Multiply a graded series {grading tuple: {compact exponents: coeff}}
    by 1/(1 - z^g u^v), truncated at the grading bounds.

    The product N = P/(1 - z^g u^v) satisfies N = P + z^g u^v N, so
    N[x] = P[x] + u^v N[x - g], filled in increasing grading order (x - g
    precedes x lexicographically because g >= 0 and g != 0).  `prune(x,
    coeffs)`, if given, filters each grading's coefficients as they are
    made, before later gradings read them.
    """
    if all(x == 0 for x in g):
        raise ValueError("denominator factor with zero grading order")
    if any(x < 0 for x in g):
        raise ValueError("denominator factor with negative grading order")
    if any(x > b for x, b in zip(g, bounds)):
        # Only the factor's 1 fits within the bounds.
        return series
    new: dict = {}
    for x in product(*(range(b + 1) for b in bounds)):
        tgt = dict(series.get(x, ()))
        below = new.get(tuple(map(sub, x, g)))
        if below:
            for e, c in below.items():
                ne = tuple(map(add, e, v))
                tgt[ne] = tgt.get(ne, 0) + c
        if prune is not None:
            tgt = prune(x, tgt)
        if tgt:
            new[x] = tgt
    return new


def _dense(series, bounds):
    """{grading tuple: coeff} as a coefficient list (one grading variable)
    or a table t[n1][n2] (two); every coefficient must be an integer."""
    if len(bounds) == 1:
        out = [0] * (bounds[0] + 1)
    else:
        out = [[0] * (bounds[1] + 1) for _ in range(bounds[0] + 1)]
    for (i, *j), c in series.items():
        if j:
            out[i][j[0]] = _integer(c)
        else:
            out[i] = _integer(c)
    return out


def _u_prefactor(k: int):
    """Expansion of prod_i (1 - u_i^2)(1 - u_i^-2) over the k compact vars.

    This is the Weyl-measure factor over both roots of each SL(2); the
    printed source shows (1 - u_i^-2)^2, which fails the z^0 = 1
    normalization check, while this form reproduces the character route.
    """
    base = {2: -1, 0: 2, -2: -1}
    return {e: prod(base[x] for x in e) for e in product(base, repeat=k)}


def hilbert_lsut_ct(k: int, n1max: int, n2max: int):
    """LSUT bidegree table t[n1][n2] by constant-term extraction of the
    Weyl-integration formula: the prefactor over the product over alpha in
    {+-1}^k of (1 - z u^alpha)(1 - zbar u^alpha), expanded in z and zbar;
    constant term in u, divided by 2^k.
    """
    bounds = (n1max, n2max)
    budget = n1max + n2max

    @lru_cache(maxsize=None)
    def reach(e):
        # The degree needed before every exponent can be cancelled by the
        # prefactor.  Every factor moves each exponent by exactly 1 per unit
        # of degree, so no pruned exponent could have come back.
        return max(min(abs(x - fin) for fin in (-2, 0, 2)) for x in e)

    def prune(x, coeffs):
        rem = budget - sum(x)
        return {e: c for e, c in coeffs.items() if c and reach(e) <= rem}

    series = {(0, 0): {(0,) * k: 1}}
    for alpha in product((1, -1), repeat=k):
        for g in ((1, 0), (0, 1)):
            series = _geometric_step(series, g, alpha, bounds, prune)
    prefactor = _u_prefactor(k)
    return _dense({
        x: Fraction(sum(pc * coeffs.get(tuple(-y for y in pe), 0)
                        for pe, pc in prefactor.items()), 2 ** k)
        for x, coeffs in series.items()
    }, bounds)


def hilbert_lut_ct(k: int, nmax: int):
    """LUT Hilbert series coefficients z^0..z^nmax by constant-term
    extraction: the LSUT diagonal, dim LUT(2n) = dim LSUT(n, n).

    The LUT integrand has the factors (1 - t^a z u^alpha), a = +-1, and
    takes the constant term in t too.  Substituting z1 = tz, z2 = z/t turns
    it into the LSUT integrand in (z1, z2), and z1^i z2^j = t^(i-j) z^(i+j),
    so its t^0 part is the diagonal i = j.
    """
    t = hilbert_lsut_ct(k, nmax // 2, nmax // 2)
    return [0 if deg % 2 else t[deg // 2][deg // 2] for deg in range(nmax + 1)]


def hilbert_slocc_ct(k: int, nmax: int):
    """SLOCC Hilbert series coefficients z^0..z^nmax by constant-term
    extraction: column 0 of the LSUT table, the integrand with no zbar."""
    return [row[0] for row in hilbert_lsut_ct(k, nmax, 0)]


def expand_closed_form(numerator: dict, denominator, bounds):
    """Truncated coefficients of P/Q.

    numerator: dict exponent-tuple -> int; denominator: list of
    (exponent-tuple, multiplicity) meaning (1 - z^e)^mult; bounds: max
    order per variable.  Returns a coefficient list (one variable) or a
    table (two), as `_dense` lays them out.
    """
    series = {e: {(): c} for e, c in numerator.items()
              if all(x <= bnd for x, bnd in zip(e, bounds))}
    for evec, mult in denominator:
        for _ in range(mult):
            series = _geometric_step(series, evec, (), bounds)
    return _dense({e: c[()] for e, c in series.items()}, bounds)


# -- shipped closed forms -------------------------------------------------

LUT3_NUMERATOR = {(0,): 1, (24,): -1}
LUT3_DENOMINATOR = [((2,), 1), ((4,), 3), ((6,), 1), ((8,), 1), ((12,), 1)]

SLOCC4_NUMERATOR = {(0,): 1}
SLOCC4_DENOMINATOR = [((2,), 1), ((4,), 2), ((6,), 1)]

LSUT3_NUMERATOR = {(0, 0): 1, (2, 2): 1, (3, 3): 1, (5, 5): 1}
LSUT3_DENOMINATOR = [
    ((1, 1), 1), ((4, 0), 1), ((2, 2), 2), ((0, 4), 1), ((1, 3), 1), ((3, 1), 1),
]

LUT4_DENOMINATOR = [((10,), 1), ((8,), 4), ((6,), 6), ((4,), 7), ((2,), 1)]
LSUT4_DENOMINATOR = [
    ((1, 1), 1), ((2, 2), 4), ((3, 3), 1),
    ((2, 0), 1), ((4, 0), 2), ((6, 0), 1),
    ((0, 2), 1), ((0, 4), 2), ((0, 6), 1),
    ((3, 1), 3), ((1, 3), 3),
    ((2, 4), 1), ((4, 2), 1), ((1, 5), 1), ((5, 1), 1),
]


def _load_data(name: str) -> dict:
    with resources.files("qinv.data").joinpath(name).open() as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def lut4_numerator() -> dict:
    """P(z) = 1 + sum a_i z^i from the shipped 4-qubit LUT table."""
    raw = _load_data("table_lu4.json")
    num = {(0,): 1}
    for key, val in raw.items():
        if val:
            num[(int(key),)] = val
    return num


@lru_cache(maxsize=None)
def lsut4_numerator() -> dict:
    """P(z, zbar) = sum a_ij z^i zbar^j, symmetric completion a_ji = a_ij."""
    raw = _load_data("table_lsu4.json")
    num = {}
    for key, val in raw.items():
        i, j = (int(x) for x in key.split(","))
        num[(i, j)] = val
        num[(j, i)] = val
    return num


def lut4_closed_form_coeffs(nmax: int):
    return expand_closed_form(lut4_numerator(), LUT4_DENOMINATOR, (nmax,))


def lut3_closed_form_coeffs(nmax: int):
    return expand_closed_form(LUT3_NUMERATOR, LUT3_DENOMINATOR, (nmax,))


def slocc4_closed_form_coeffs(nmax: int):
    return expand_closed_form(SLOCC4_NUMERATOR, SLOCC4_DENOMINATOR, (nmax,))


def lsut3_closed_form_table(n1max: int, n2max: int):
    return expand_closed_form(LSUT3_NUMERATOR, LSUT3_DENOMINATOR, (n1max, n2max))


def lsut4_closed_form_table(n1max: int, n2max: int):
    return expand_closed_form(lsut4_numerator(), LSUT4_DENOMINATOR, (n1max, n2max))


# The shipped closed forms by (group, k).  The lut and slocc entries take
# nmax and return a coefficient list; the lsut entries take (n1max, n2max)
# and return a bidegree table.
CLOSED_FORMS = {
    ("lut", 3): lut3_closed_form_coeffs,
    ("lut", 4): lut4_closed_form_coeffs,
    ("lsut", 3): lsut3_closed_form_table,
    ("lsut", 4): lsut4_closed_form_table,
    ("slocc", 4): slocc4_closed_form_coeffs,
}

# The series routes by (group, method), each taking k and the sizes of the
# matching closed form.
ROUTES = {
    ("slocc", "character"): hilbert_slocc_coeffs,
    ("slocc", "ct"): hilbert_slocc_ct,
    ("lut", "character"): hilbert_lut_coeffs,
    ("lut", "ct"): hilbert_lut_ct,
    ("lsut", "character"): hilbert_lsut_coeffs,
    ("lsut", "ct"): hilbert_lsut_ct,
}
