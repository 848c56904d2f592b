"""Named covariants and covariant bases: the ground form, the degree-2 B
family, the 3-qubit system (f, Hx, Hy, Hz, T, Delta), the 4-qubit B/C/D/E
chains, and `covariant_basis`, which builds a basis of every (degree,
multidegree) space by transvecting f onto the basis one degree lower.
`degree3_multilinear_basis` and `degree4_invariants` name two of its
outputs.

Slot numbering for k = 3 follows x = slot 1, y = slot 2, z = slot 3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .linalg import independent_subset
from .poly import Polynomial, amp, aux
from .transvection import Covariant, transvect


@lru_cache(maxsize=None)
def ground_form(k: int) -> Covariant:
    """f = sum_a a_{i1...ik} x^(1)_{i1} ... x^(k)_{ik}; 2^k terms."""
    if k < 1:
        raise ValueError("k must be positive")
    terms = {}
    for idx in range(2 ** k):
        mono = [(amp(idx), 1)]
        for j in range(1, k + 1):
            bit = (idx >> (k - j)) & 1
            mono.append((aux(j, bit), 1))
        terms[tuple(sorted(mono))] = 1
    return Covariant(Polynomial(k, terms), 1, (1,) * k, "f")


def b_multidegrees(k: int):
    """Multidegrees d in {0,2}^k with an even number of zeros, sorted."""
    out = []
    for mask in range(2 ** k):
        d = tuple(0 if (mask >> (k - 1 - j)) & 1 else 2 for j in range(k))
        if d.count(0) % 2 == 0:
            out.append(d)
    return sorted(out, reverse=True)


@lru_cache(maxsize=None)
def b_family(k: int, d: tuple) -> Covariant:
    """B_d = (f, f)^((2-d_1)/2, ..., (2-d_k)/2) for d in {0,2}^k, |d|_0 even."""
    if any(x not in (0, 2) for x in d) or len(d) != k:
        raise ValueError(f"multidegree must lie in {{0,2}}^{k}, got {d}")
    if d.count(0) % 2 != 0:
        raise ValueError(
            f"no degree-2 covariant of multidegree {d}: the zero count must be even"
        )
    f = ground_form(k)
    eps = tuple((2 - x) // 2 for x in d)
    return transvect(f, f, eps).named("B_" + _dstr(d))


def b_family_all(k: int):
    """The spanning family {f^2} + {B_d} of the degree-2 covariant space."""
    f = ground_form(k)
    out = [(f * f).named("f^2")]
    for d in b_multidegrees(k):
        out.append(b_family(k, d))
    return out


def _dstr(d: tuple) -> str:
    return "".join(str(x) for x in d)


# -- 3-qubit catalog ------------------------------------------------------


@lru_cache(maxsize=None)
def catalog_3(name: str) -> Covariant:
    """The generators of the 3-qubit covariant algebra, by name."""
    f = ground_form(3)
    if name == "f":
        return f
    if name in ("Hx", "Hy", "Hz"):
        # The Hessian in the two slots other than the named one, the
        # determinant of second partials, is half of (f, f) over them.
        alpha = tuple(2 if s == name[1] else 0 for s in "xyz")
        return (b_family(3, alpha) * Fraction(1, 2)).named(name)
    if name == "T":
        return transvect(f, catalog_3("Hx"), (1, 0, 0)).named("T")
    if name == "Delta":
        return transvect(catalog_3("T"), f, (1, 1, 1)).named("Delta")
    raise KeyError(f"unknown 3-qubit covariant {name!r}")


@lru_cache(maxsize=None)
def cayley_hyperdet() -> Polynomial:
    """The classical 2x2x2 hyperdeterminant, entered term by term."""
    a = {bits: amp(int(bits, 2)) for bits in
         ["000", "001", "010", "011", "100", "101", "110", "111"]}

    def term(coeff, *bits):
        mono: dict = {}
        for b in bits:
            mono[a[b]] = mono.get(a[b], 0) + 1
        return Polynomial(3, {tuple(sorted(mono.items())): coeff})

    p = Polynomial.zero(3)
    for b1, b2 in [("000", "111"), ("001", "110"), ("010", "101"), ("011", "100")]:
        p = p + term(1, b1, b1, b2, b2)
    for quad in [
        ("000", "001", "110", "111"),
        ("000", "010", "101", "111"),
        ("000", "011", "100", "111"),
        ("001", "010", "101", "110"),
        ("001", "011", "100", "110"),
        ("010", "011", "100", "101"),
    ]:
        p = p + term(-2, *quad)
    for quad in [("000", "011", "101", "110"), ("001", "010", "100", "111")]:
        p = p + term(4, *quad)
    return p


# -- 4-qubit catalog ------------------------------------------------------

_CHAINS_4 = {
    # name: (left, right, eps); left/right resolve recursively, "f" is the
    # ground form.  The subscripts are the resulting auxiliary multidegrees.
    "C1_1111": ("f", "B_2200", (1, 1, 0, 0)),
    "C2_1111": ("f", "B_2020", (1, 0, 1, 0)),
    "C_3111": ("f", "B_2200", (0, 1, 0, 0)),
    "C_1311": ("f", "B_2200", (1, 0, 0, 0)),
    "C_1131": ("f", "B_2020", (1, 0, 0, 0)),
    "C_1113": ("f", "B_2002", (1, 0, 0, 0)),
    "D_4000": ("f", "C_3111", (0, 1, 1, 1)),
    "D_0400": ("f", "C_1311", (1, 0, 1, 1)),
    "D_0040": ("f", "C_1131", (1, 1, 0, 1)),
    "D_0004": ("f", "C_1113", (1, 1, 1, 0)),
    "D_2200": ("f", "C_3111", (1, 0, 1, 1)),
    # The source lists (f, D_2200)^1100 here, which would have multidegree
    # (1,1,1,1); the order (0,1,0,0) is the one matching the name.
    "E_3111": ("f", "D_2200", (0, 1, 0, 0)),
}


@lru_cache(maxsize=None)
def catalog_4(name: str) -> Covariant:
    """4-qubit covariants built by their transvection chains."""
    k = 4
    if name == "f":
        return ground_form(k)
    if name.startswith("B_"):
        return b_family(k, _b_degree(name))
    if name not in _CHAINS_4:
        raise KeyError(f"unknown 4-qubit covariant {name!r}")
    left, right, eps = _CHAINS_4[name]
    return transvect(catalog_4(left), catalog_4(right), eps).named(name)


def _b_degree(name: str) -> tuple:
    """The multidegree named by "B_<digits>"; KeyError if malformed."""
    digits = name[2:]
    if not digits or not set(digits) <= set("0123456789"):
        raise KeyError(f"malformed covariant name {name!r}")
    return tuple(int(c) for c in digits)


def covariant_by_name(k: int, name: str) -> Covariant:
    if name == "f":
        return ground_form(k)
    if k == 3 and name in ("Hx", "Hy", "Hz", "T", "Delta"):
        return catalog_3(name)
    if name.startswith("B_"):
        d = _b_degree(name)
        if len(d) != k:
            raise KeyError(f"{name} does not match k={k}")
        return b_family(k, d)
    if k == 4:
        return catalog_4(name)
    raise KeyError(f"unknown covariant {name!r} for k={k}")


# -- bases ----------------------------------------------------------------


@lru_cache(maxsize=None)
def covariant_basis(k: int, d: int, alpha: tuple) -> tuple:
    """A basis of the covariants of amplitude degree d and auxiliary
    multidegree alpha.

    Degree 1 is the ground form and degree 2 the B family.  Degree d >= 3
    transvects f onto the degree-(d-1) bases: the candidates (f, C)^eps for
    eps in {0,1}^k in decreasing order and C in the basis of multidegree
    alpha - 1 + 2 eps.  They span, because V (x) S^(d-1)V maps onto S^dV.
    The first independent candidates by exact rank form the basis, whose
    size must equal the character-formula dimension dim_cov(d, k, alpha).
    """
    if len(alpha) != k or d < 1:
        raise ValueError(
            f"no degree-{d} covariants of multidegree {alpha} at k={k}")
    if any(x < 0 or x > d or (d - x) % 2 for x in alpha):
        return ()
    if d == 1:
        return (ground_form(k),)
    if d == 2:
        return (b_family(k, alpha),) if alpha.count(0) % 2 == 0 else ()
    # Imported here, so that degrees 1 and 2 never load the Hilbert layer.
    from .hilbert import dim_cov

    f = ground_form(k)
    candidates = []
    for eps in product((1, 0), repeat=k):
        lower = tuple(a - 1 + 2 * e for a, e in zip(alpha, eps))
        for c in covariant_basis(k, d - 1, lower):
            cov = transvect(f, c, eps)
            if cov.poly:
                candidates.append(cov)
    idx = independent_subset([c.poly for c in candidates])
    expected = dim_cov(d, k, alpha)
    if len(idx) != expected:
        raise RuntimeError(f"degree-{d} basis of multidegree {alpha} has rank "
                           f"{len(idx)}, expected {expected}")
    return tuple(candidates[i] for i in idx)


def _named_basis(k: int, d: int, alpha: tuple, letter: str) -> tuple:
    if k < 2:
        raise ValueError("k must be at least 2")
    return tuple(c.named(f"{letter}{n}")
                 for n, c in enumerate(covariant_basis(k, d, alpha), start=1))


@lru_cache(maxsize=None)
def degree3_multilinear_basis(k: int):
    """Basis C1.. of the multilinear ((1,...,1)-multidegree) degree-3
    covariants, (2^(k-1) + (-1)^k) / 3 of them."""
    return _named_basis(k, 3, (1,) * k, "C")


@lru_cache(maxsize=None)
def degree4_invariants(k: int):
    """Basis D1.. of the degree-4 SLOCC invariants."""
    return _named_basis(k, 4, (0,) * k, "D")
