"""Dimension formulas and Hilbert series of the invariant algebras.

Two independent routes are provided for the unitary and SLOCC Hilbert series:

* the character route, summing squares/products of covariant-space
  dimensions obtained from symmetric-group characters, and
* truncated constant-term extraction of the rational-series formulas
  (geometric expansion in z and exact Laurent bookkeeping in the compact
  torus variables), in place of a full partial-fraction algorithm.

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

from .characters import mn_character, partitions, z_lambda


# -- character-route dimensions -------------------------------------------


@lru_cache(maxsize=None)
def dim_cov(n: int, k: int, d: tuple) -> int:
    """Dimension of the space of covariants of amplitude degree n and
    auxiliary multidegree d, as a product of two-row characters paired with
    the trivial character."""
    if len(d) != k:
        raise ValueError("multidegree length must equal k")
    if any(x < 0 or x > n or (n - x) % 2 for x in d):
        return 0
    shapes = tuple(((n + x) // 2, (n - x) // 2) if x < n else (n,) for x in d)
    total = Fraction(0)
    for mu in partitions(n):
        prod_val = 1
        for shape in shapes:
            prod_val *= mn_character(shape, mu)
            if prod_val == 0:
                break
        if prod_val:
            total += Fraction(prod_val, z_lambda(mu))
    assert total.denominator == 1
    return int(total)


def dim_inv_slocc(degree: int, k: int) -> int:
    """Dimension of the degree-d SLOCC invariants (0 in odd degree)."""
    if degree % 2:
        return 0
    return dim_cov(degree, k, (0,) * k)


@lru_cache(maxsize=None)
def dim_cov_total(d: int, k: int) -> int:
    """Total covariant dimension in amplitude degree d, all multidegrees."""
    if d == 0:
        return 1
    total = Fraction(0)
    two_row = [lam for lam in partitions(d) if len(lam) <= 2]
    for mu in partitions(d):
        s = sum(mn_character(lam, mu) for lam in two_row)
        total += Fraction(s ** k, z_lambda(mu))
    assert total.denominator == 1
    return int(total)


def _multidegrees(n: int, k: int):
    vals = range(n % 2, n + 1, 2)
    return product(vals, repeat=k)


def hilbert_slocc_coeffs(k: int, nmax: int):
    """Coefficients of z^0..z^nmax of the SLOCC Hilbert series, character
    route."""
    return [dim_inv_slocc(d, k) for d in range(nmax + 1)]


def hilbert_lut_coeffs(k: int, nmax: int):
    """Coefficients of z^0..z^nmax of the LUT Hilbert series, character route."""
    out = [0] * (nmax + 1)
    out[0] = 1
    for deg in range(2, nmax + 1, 2):
        n = deg // 2
        out[deg] = sum(dim_cov(n, k, d) ** 2 for d in _multidegrees(n, k))
    return out


def hilbert_lsut_coeffs(k: int, n1max: int, n2max: int):
    """Bidegree table t[n1][n2] of LSUT invariant dimensions, character route."""
    table = [[0] * (n2max + 1) for _ in range(n1max + 1)]
    table[0][0] = 1
    for n1 in range(n1max + 1):
        for n2 in range(n2max + 1):
            if n1 == n2 == 0:
                continue
            if (n1 - n2) % 2:
                continue
            table[n1][n2] = sum(
                dim_cov(n1, k, d) * dim_cov(n2, k, d)
                for d in _multidegrees(min(n1, n2), k)
            )
    return table


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
        assert c.denominator == 1, (i, *j, c)
        if j:
            out[i][j[0]] = int(c)
        else:
            out[i] = int(c)
    return out


def ct_series(factors, grading_bounds, prefactor, allowed_final, divisor=1):
    """Constant-term extraction of prefactor / prod(1 - z^g * m) by truncated
    geometric expansion.

    factors: list of (g, v) where g is the tuple of grading exponents (the
        variables the series is expanded in; every factor must have g != 0)
        and v the tuple of compact-variable exponents carried per expansion
        step.
    grading_bounds: max order per grading variable.
    prefactor: dict mapping compact-exponent tuples to int coefficients.
    allowed_final: per compact variable, the tuple of exponents that can
        still be cancelled by the prefactor (used both for the final
        extraction and for pruning).
    divisor: final rational division (e.g. 2^k for the Weyl integration
        normalization).

    Returns a dict mapping grading tuples to Fractions.
    """
    if any(abs(y) > sum(g) for g, v in factors for y in v):
        # Pruning is exact only if no step moves a compact exponent further
        # than it raises the total grading.
        raise ValueError("compact exponent step larger than its grading step")
    budget = sum(grading_bounds)

    @lru_cache(maxsize=None)
    def reach(e):
        # The grading needed before every exponent is cancellable.
        return max(min(abs(x - fin) for fin in fins)
                   for x, fins in zip(e, allowed_final))

    def prune(gvec, coeffs):
        rem = budget - sum(gvec)
        return {e: c for e, c in coeffs.items() if c and reach(e) <= rem}

    series = {(0,) * len(grading_bounds): {(0,) * len(allowed_final): 1}}
    for g, v in factors:
        series = _geometric_step(series, g, v, grading_bounds, prune)

    result = {}
    for gvec, coeffs in series.items():
        total = 0
        for pe, pc in prefactor.items():
            me = tuple(-x for x in pe)
            total += pc * coeffs.get(me, 0)
        if total:
            result[gvec] = Fraction(total, divisor)
    return result


def _u_prefactor(k: int, extra_vars: int = 0):
    """Expansion of prod_i (1 - u_i^2)(1 - u_i^-2) over (extra_vars + k)
    compact vars, the extra leading variables (e.g. t) untouched.

    This is the Weyl-measure factor over both roots of each SL(2); the
    printed source shows (1 - u_i^-2)^2, which fails the z^0 = 1
    normalization check, while this form reproduces the character route.
    """
    base = {2: -1, 0: 2, -2: -1}
    return {
        (0,) * extra_vars + e: prod(base[x] for x in e)
        for e in product(base, repeat=k)
    }


def hilbert_lut_ct(k: int, nmax: int):
    """LUT Hilbert series coefficients z^0..z^nmax by constant-term
    extraction of the Weyl-integration formula.

    Denominator: product over a = +-1 and alpha in {+-1}^k of
    (1 - t^a z u^alpha); constant term in t and u, divided by 2^k.
    """
    factors = []
    for a in (1, -1):
        for alpha in product((1, -1), repeat=k):
            factors.append(((1,), (a,) + alpha))
    prefactor = _u_prefactor(k, extra_vars=1)
    allowed = [(0,)] + [(-2, 0, 2)] * k
    res = ct_series(factors, (nmax,), prefactor, allowed, divisor=2 ** k)
    return _dense(res, (nmax,))


def hilbert_slocc_ct(k: int, nmax: int):
    """SLOCC Hilbert series coefficients z^0..z^nmax by constant-term
    extraction: denominator product over alpha in {+-1}^k of
    (1 - z u^alpha); constant term in u, divided by 2^k."""
    factors = [((1,), alpha) for alpha in product((1, -1), repeat=k)]
    allowed = [(-2, 0, 2)] * k
    res = ct_series(factors, (nmax,), _u_prefactor(k), allowed,
                    divisor=2 ** k)
    return _dense(res, (nmax,))


def hilbert_lsut_ct(k: int, n1max: int, n2max: int):
    """LSUT bidegree table by constant-term extraction: denominator
    product over alpha in {+-1}^k of (1 - z u^alpha)(1 - zbar u^alpha)."""
    factors = []
    for alpha in product((1, -1), repeat=k):
        factors.append(((1, 0), alpha))
        factors.append(((0, 1), alpha))
    prefactor = _u_prefactor(k)
    allowed = [(-2, 0, 2)] * k
    bounds = (n1max, n2max)
    res = ct_series(factors, bounds, prefactor, allowed, divisor=2 ** k)
    return _dense(res, bounds)


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
