"""Named covariants: ground form, degree-2 B family, the 3-qubit system
(f, Hx, Hy, Hz, T, Delta), the 4-qubit B/C/D/E families, and bases of
multilinear degree-3 covariants and degree-4 invariants.

Slot numbering for k = 3 follows x = slot 1, y = slot 2, z = slot 3.
"""

from __future__ import annotations

from functools import lru_cache

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


def _det2(rows) -> Polynomial:
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


@lru_cache(maxsize=None)
def catalog_3(name: str) -> Covariant:
    """The generators of the 3-qubit covariant algebra, by name."""
    k = 3
    f = ground_form(k)
    fp = f.poly
    if name == "f":
        return f
    if name in ("Hx", "Hy", "Hz"):
        # Determinant of second partials in the two slots other than the named one.
        slot = {"Hx": 1, "Hy": 2, "Hz": 3}[name]
        s1, s2 = [j for j in (1, 2, 3) if j != slot]
        h = _det2(
            [
                [fp.partial(aux(s1, 0)).partial(aux(s2, 0)),
                 fp.partial(aux(s1, 1)).partial(aux(s2, 0))],
                [fp.partial(aux(s1, 0)).partial(aux(s2, 1)),
                 fp.partial(aux(s1, 1)).partial(aux(s2, 1))],
            ]
        )
        alpha = tuple(2 if j == slot else 0 for j in (1, 2, 3))
        return Covariant(h, 2, alpha, name)
    if name == "T":
        hx = catalog_3("Hx").poly
        t = _det2(
            [
                [fp.partial(aux(1, 0)), fp.partial(aux(1, 1))],
                [hx.partial(aux(1, 0)), hx.partial(aux(1, 1))],
            ]
        )
        return Covariant(t, 3, (1, 1, 1), "T")
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
def degree3_multilinear_basis(k: int):
    """Basis of the multilinear ((1,...,1)-multidegree) degree-3 covariants.

    Candidates (f, B)^e over the degree-2 family, selected down to a basis by
    exact rank; the count must match the character-formula dimension
    (2^(k-1) + (-1)^k) / 3.
    """
    from .hilbert import dim_cov

    if k < 2:
        raise ValueError("k must be at least 2")
    f = ground_form(k)
    candidates = []
    for b in b_family_all(k):
        eps = tuple(x // 2 for x in b.multidegree)
        cov = transvect(f, b, eps)
        if cov.poly:
            candidates.append(cov)
    idx = independent_subset([c.poly for c in candidates])
    basis = [candidates[i].named(f"C{n + 1}") for n, i in enumerate(idx)]
    expected = dim_cov(3, k, (1,) * k)
    if len(basis) != expected:
        raise RuntimeError(
            f"multilinear degree-3 basis has rank {len(basis)}, expected {expected}"
        )
    return tuple(basis)


@lru_cache(maxsize=None)
def degree4_invariants(k: int):
    """Basis of degree-4 SLOCC invariants: transvect the ground form onto the
    multilinear degree-3 covariants."""
    from .hilbert import dim_cov

    f = ground_form(k)
    candidates = []
    for c in degree3_multilinear_basis(k):
        cov = transvect(f, c, (1,) * k)
        if cov.poly:
            candidates.append(cov)
    idx = independent_subset([c.poly for c in candidates])
    basis = [candidates[i].named(f"D{n + 1}") for n, i in enumerate(idx)]
    expected = dim_cov(4, k, (0,) * k)
    if len(basis) != expected:
        raise RuntimeError(
            f"degree-4 invariant basis has rank {len(basis)}, expected {expected}"
        )
    return tuple(basis)
