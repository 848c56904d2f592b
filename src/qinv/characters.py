"""Integer partitions and the two-row characters of the symmetric group.

The Hilbert series need only the characters of two-row shapes (a, n - a).
By Jacobi-Trudi, chi^(a, b) = h_a h_b - h_(a+1) h_(b-1), and by Young's
rule h_a h_b(mu) is the number of b-subsets of {1..n} that a permutation of
cycle type mu fixes: the sets of its cycles of total length b (Macdonald,
Symmetric Functions and Hall Polynomials, I.3 and I.7).  Those counts are
the coefficients c_j of prod_i (1 + x^mu_i), and c_j = c_(n-j).

`dim_cov`, the dimension of a covariant space, is their first use: the
Hilbert layer sums it, and `catalog.covariant_basis` checks each basis
against it without loading that layer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None):
    """All partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def z_lambda(mu: tuple) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    z = 1
    mult: dict = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part ** m * factorial(m)
    return z


@lru_cache(maxsize=None)
def two_row_characters(mu: tuple) -> MappingProxyType:
    """{a: chi^(a, n - a)(mu)} for ceil(n/2) <= a <= n, n = |mu|: the
    characters of the two-row shapes on the class of cycle type mu, as a
    read-only mapping, since every caller shares the cached one."""
    n = sum(mu)
    # c[j] counts the sets of cycles of total length j: one subset-sum pass.
    c = [1] + [0] * (n + 1)
    for part in mu:
        for j in range(n, part - 1, -1):
            c[j] += c[j - part]
    return MappingProxyType(
        {a: c[a] - c[a + 1] for a in range((n + 1) // 2, n + 1)})


def _integer(q) -> int:
    """An exact count as an int; a fraction here means a wrong formula."""
    if q.denominator != 1:
        raise ArithmeticError(f"dimension {q} is not an integer")
    return int(q)


@lru_cache(maxsize=None)
def dim_cov(n: int, k: int, d: tuple) -> int:
    """Dimension of the space of covariants of amplitude degree n and
    auxiliary multidegree d: the product over the slots of the two-row
    characters chi^((n + d_j)/2, (n - d_j)/2), paired with the trivial
    character."""
    if len(d) != k:
        raise ValueError("multidegree length must equal k")
    if any(x < 0 or x > n or (n - x) % 2 for x in d):
        return 0
    rows = [(n + x) // 2 for x in d]
    total = Fraction(0)
    for mu in partitions(n):
        chi = two_row_characters(mu)
        total += Fraction(prod(chi[a] for a in rows), z_lambda(mu))
    return _integer(total)
