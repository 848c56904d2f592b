"""Hermitian pairing of covariants and the unitary invariants built from it.

The pairing contracts the auxiliary variables of two covariants of equal
multidegree.  Writing phi = sum_m c_m(a) m(x) over auxiliary monomials m,

    <phi|psi> = sum_m w(m) c_m(a) conj(d_m)(abar),
    w(m) = prod_j p_j! q_j!   for slot-j exponents (p_j, q_j),

the weight being the permanent of the Gram matrix of the monomial under
<x_i|y_j> = delta.  The first argument stays holomorphic, the second is
conjugated, so the result has bidegree (deg phi, deg psi).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm

from .catalog import (
    b_family,
    b_multidegrees,
    catalog_3,
    catalog_4,
    degree3_multilinear_basis,
    degree4_invariants,
    ground_form,
)
from .gaussian import GaussianRational
from .linalg import det, independent_rows, matrix_rows
from .poly import Polynomial, amp, amp_conj, exponents, layout
from .transvection import Covariant, unchecked


@dataclass(frozen=True)
class InvariantExpr:
    """A polynomial in amplitudes and conjugate amplitudes with fixed bidegree.

    The constructor validates every term; arithmetic results take their
    bidegree from the operands and skip it.
    """

    poly: Polynomial
    bidegree: tuple
    name: str = ""

    def __post_init__(self):
        lay = layout(self.poly.k)
        n = lay.n
        for m in self.poly.packed:
            if m >> lay.aux_shift:
                raise ValueError("invariants must not contain auxiliary variables")
            e = lay.fields(m)
            n1, n2 = sum(e[:n]), sum(e[n:2 * n])
            if (n1, n2) != tuple(self.bidegree):
                raise ValueError(
                    f"term of bidegree ({n1},{n2}) in invariant of "
                    f"bidegree {self.bidegree}"
                )

    @property
    def k(self) -> int:
        return self.poly.k

    def __add__(self, other):
        if isinstance(other, InvariantExpr):
            return unchecked(InvariantExpr, self.poly + other.poly,
                             self._sum_bidegree(other))
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, InvariantExpr):
            return unchecked(InvariantExpr, self.poly - other.poly,
                             self._sum_bidegree(other))
        return NotImplemented

    def _sum_bidegree(self, other) -> tuple:
        if self.poly and other.poly and self.bidegree != other.bidegree:
            raise ValueError("cannot add invariants of different bidegrees")
        return self.bidegree if self.poly else other.bidegree

    def __mul__(self, other):
        if isinstance(other, InvariantExpr):
            return unchecked(
                InvariantExpr,
                self.poly * other.poly,
                (self.bidegree[0] + other.bidegree[0],
                 self.bidegree[1] + other.bidegree[1]),
            )
        if isinstance(other, (int, Fraction, GaussianRational)):
            return unchecked(InvariantExpr, self.poly * other, self.bidegree)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return unchecked(
            InvariantExpr,
            self.poly ** n, (self.bidegree[0] * n, self.bidegree[1] * n)
        )

    @classmethod
    def sum_of_products(cls, summands) -> "InvariantExpr":
        """sum c * X_1 * ... * X_m over the (c, (X_1, ..., X_m)) summands,
        as one `Polynomial.sum_of_products`; the bidegree is that of the
        first summand's product."""
        first = summands[0][1]
        return unchecked(
            cls,
            Polynomial.sum_of_products(
                first[0].k,
                [(c, tuple(x.poly for x in xs)) for c, xs in summands]),
            tuple(map(sum, zip(*(x.bidegree for x in first)))),
        )

    def conjugate(self) -> "InvariantExpr":
        return unchecked(
            InvariantExpr,
            self.poly.conjugate(), (self.bidegree[1], self.bidegree[0]), self.name
        )

    def evaluate(self, state) -> complex:
        return self.poly.evaluate(state)

    def is_zero(self) -> bool:
        return not self.poly


def aux_decompose(poly: Polynomial) -> dict:
    """Split a covariant polynomial by auxiliary monomial: m(x) -> c_m(a),
    both packed."""
    aux_mask = -1 << layout(poly.k).aux_shift
    buckets: dict = defaultdict(dict)
    for m, c in poly.packed.items():
        buckets[m & aux_mask][m & ~aux_mask] = c
    return {
        m: Polynomial.from_packed(poly.k, bucket, poly.den, poly.degree_bound)
        for m, bucket in buckets.items()
    }


def _weight(aux_key: int) -> int:
    w = 1
    for _f, e in exponents(aux_key):
        w *= factorial(e)
    return w


def pairing(phi: Covariant, psi: Covariant, name: str = "") -> InvariantExpr:
    """Hermitian scalar product over the auxiliary variables.

    Mismatched multidegrees are legal and give the zero invariant.
    """
    bidegree = (phi.amp_degree, psi.amp_degree)
    if phi.multidegree != psi.multidegree:
        return unchecked(InvariantExpr, Polynomial.zero(phi.k), bidegree, name)
    left = aux_decompose(phi.poly)
    right = aux_decompose(psi.poly)
    total = Polynomial.sum_of_products(phi.k, [
        (_weight(m), (cpoly, right[m].conjugate()))
        for m, cpoly in left.items() if m in right
    ])
    return unchecked(InvariantExpr, total, bidegree, name)


# -- degree-4 bases for arbitrary k ---------------------------------------


@lru_cache(maxsize=None)
def norm_invariant(k: int) -> InvariantExpr:
    """<f|f> = sum_i a_i conj(a_i); equals 1 on normalized states."""
    f = ground_form(k)
    return pairing(f, f, "A")


@lru_cache(maxsize=None)
def b_pairing(k: int, d: tuple) -> InvariantExpr:
    """The LUT invariant <B_d|B_d>."""
    b = b_family(k, d)
    return pairing(b, b, "B_" + "".join(map(str, d)))


def lut_degree4_basis(k: int):
    """{<f|f>^2} plus the <B_d|B_d> with d != (2,...,2); 2^(k-1) elements."""
    a = norm_invariant(k)
    out = [unchecked(InvariantExpr, (a * a).poly, (2, 2), "A^2")]
    for d in b_multidegrees(k):
        if d == (2,) * k:
            continue
        out.append(b_pairing(k, d))
    return out


def lsut_degree4_basis(k: int):
    """Degree-4 LSUT basis: SLOCC invariants D_i of bidegree (4,0), the
    pairings <C_i|f> of bidegree (3,1), the (2,2) LUT basis, and the
    conjugates of the first two groups."""
    f = ground_form(k)
    d40 = [
        InvariantExpr(cov.poly, (4, 0), cov.name) for cov in degree4_invariants(k)
    ]
    c31 = [
        pairing(c, f, f"<{c.name}|f>") for c in degree3_multilinear_basis(k)
    ]
    b22 = lut_degree4_basis(k)
    return d40 + c31 + b22 + [x.conjugate() for x in c31] + [x.conjugate() for x in d40]


def f_squared_relation_check(k: int):
    """<f^2|f^2> = 2^k <f|f>^2 - sum_{d != (2..2)} <B_d|B_d>, symbolically.

    Returns (holds, difference_polynomial).
    """
    f = ground_form(k)
    f2 = f * f
    a = norm_invariant(k)
    diff = InvariantExpr.sum_of_products(
        [(1, (pairing(f2, f2),)), (-(2 ** k), (a, a))]
        + [(1, (b_pairing(k, d),)) for d in b_multidegrees(k)
           if d != (2,) * k]).poly
    return (not diff, diff)


# -- 3-qubit LUT generator algebra --------------------------------------------


@lru_cache(maxsize=None)
def lut3_pairing(name: str) -> InvariantExpr:
    """The 3-qubit pairings the generators are built from: B_200, B_020,
    B_002 (of the Hessians Hx, Hy, Hz), C_111 = <T|T>, D_000 = <Delta|Delta>
    and F_222 = <Delta f^2|T^2>."""
    hessians = {"B_200": "Hx", "B_020": "Hy", "B_002": "Hz"}
    if name in hessians:
        h = catalog_3(hessians[name])
        return pairing(h, h, name)
    t, d, f = catalog_3("T"), catalog_3("Delta"), ground_form(3)
    if name == "C_111":
        return pairing(t, t, name)
    if name == "D_000":
        return pairing(d, d, name)
    if name == "F_222":
        return pairing(d * (f * f), t * t, name)
    raise KeyError(f"unknown 3-qubit pairing {name!r}")


@lru_cache(maxsize=None)
def lut3_generator(i: int) -> InvariantExpr:
    """The seven generators of the 3-qubit LUT invariant algebra, expressed
    through covariant pairings."""
    if i not in range(1, 8):
        raise ValueError("generator index must be in 1..7")
    a = norm_invariant(3)
    if i == 1:
        return a
    if i == 6:
        return lut3_pairing("D_000")
    b200, b020, b002 = (lut3_pairing(n) for n in ("B_200", "B_020", "B_002"))
    if i == 2:
        return a * a - b200 - b020
    if i == 3:
        return a * a - b200 - b002
    if i == 4:
        return a * a - b020 - b002
    c111 = lut3_pairing("C_111")
    if i == 5:
        return (
            a ** 3
            + Fraction(3, 2) * c111
            - Fraction(3, 2) * (a * (b200 + b020 + b002))
        )
    # i == 7.  The inner sum stays one factor: spread over its four
    # products, d000 would be multiplied four times.
    inner = Fraction(3, 2) * (b200 + b020 + b002) - a * a
    return InvariantExpr.sum_of_products([
        (Fraction(1, 2), (lut3_pairing("D_000"), inner)),
        (2, (c111, c111)),
        (-4, (b200, b020, b002)),
        (Fraction(1, 8), (lut3_pairing("F_222"),)),
    ])


def lut3_generator_sum(sigma: tuple, tau: tuple, rho: tuple) -> InvariantExpr:
    """f_{sigma,tau,rho} = sum a_ijk conj(a)_{i^sigma j^tau k^rho} for 3 qubits.

    The permutations act on the n tensor positions and are given as 0-based
    image tuples of equal length n; the bidegree is (n, n).
    """
    n = len(sigma)
    if not (len(tau) == len(rho) == n):
        raise ValueError("permutations must have equal sizes")
    terms: dict = {}
    for i in product((0, 1), repeat=n):
        for j in product((0, 1), repeat=n):
            for kk in product((0, 1), repeat=n):
                mono: dict = {}
                for t in range(n):
                    v = amp(i[t] * 4 + j[t] * 2 + kk[t])
                    mono[v] = mono.get(v, 0) + 1
                for t in range(n):
                    v = amp_conj(i[sigma[t]] * 4 + j[tau[t]] * 2 + kk[rho[t]])
                    mono[v] = mono.get(v, 0) + 1
                key = tuple(sorted(mono.items()))
                terms[key] = terms.get(key, 0) + 1
    poly = Polynomial(3, {m: c for m, c in terms.items() if c})
    return InvariantExpr(poly, (n, n))


# -- f7 from the bracket/brace display ------------------------------------


def _bracket(i1, i2, j1, j2) -> Polynomial:
    """[i1i2, j1j2] = a_{i1i2 0} a_{j1j2 1} - a_{i1i2 1} a_{j1j2 0}."""
    def v(x, y, z):
        return Polynomial.variable(3, amp(x * 4 + y * 2 + z))

    return v(i1, i2, 0) * v(j1, j2, 1) - v(i1, i2, 1) * v(j1, j2, 0)


def _brace(i1, i2, j1, j2, corrected: bool = False) -> Polynomial:
    """{i1i2, j1j2}.

    The printed definition is a_{i1i2 0} conj(a_{j1j2 1}) +
    a_{i1i2 1} conj(a_{j1j2 0}).  With it, the parenthesized sum below is not
    even invariant under the local group, so the squared expression cannot
    reproduce an invariant.  Pairing equal last indices instead,

        {i1i2, j1j2} = a_{i1i2 0} conj(a_{j1j2 0}) + a_{i1i2 1} conj(a_{j1j2 1}),

    makes the sum equal exactly -s2; `corrected=True` selects this reading.
    """
    def v(x, y, z):
        return Polynomial.variable(3, amp(x * 4 + y * 2 + z))

    def vc(x, y, z):
        return Polynomial.variable(3, amp_conj(x * 4 + y * 2 + z))

    if corrected:
        return v(i1, i2, 0) * vc(j1, j2, 0) + v(i1, i2, 1) * vc(j1, j2, 1)
    return v(i1, i2, 0) * vc(j1, j2, 1) + v(i1, i2, 1) * vc(j1, j2, 0)


def bracket_sum(corrected: bool = False) -> Polynomial:
    """The parenthesized 12-term bracket/brace sum of the degree-12 generator."""
    def br(*ix):
        return _brace(*ix, corrected=corrected)

    return (
        _bracket(1, 1, 0, 0) * br(0, 0, 0, 0)
        - _bracket(1, 1, 0, 0) * br(1, 1, 1, 1)
        + _bracket(1, 1, 0, 1) * br(0, 0, 0, 1)
        + _bracket(1, 1, 1, 0) * br(0, 0, 1, 0)
        + 2 * (_bracket(1, 1, 1, 0) * br(0, 1, 1, 1))
        - 2 * (_bracket(0, 1, 0, 0) * br(1, 0, 0, 0))
        - _bracket(0, 1, 0, 0) * br(1, 1, 0, 1)
        - _bracket(1, 0, 0, 0) * br(1, 1, 1, 0)
        - _bracket(1, 0, 0, 1) * br(0, 0, 0, 0)
        - _bracket(1, 0, 0, 1) * br(0, 1, 0, 1)
        + _bracket(1, 0, 0, 1) * br(1, 0, 1, 0)
        + _bracket(1, 0, 0, 1) * br(1, 1, 1, 1)
    )


def f7_bracket_form(corrected: bool = True) -> InvariantExpr:
    """The degree-12 generator from the bracket/brace expansion: conj(Delta)
    times the squared bracket sum."""
    s = bracket_sum(corrected=corrected)
    delta_bar = catalog_3("Delta").poly.conjugate()
    return InvariantExpr(delta_bar * s * s, (6, 6), "f7_bracket")


def f7_check() -> dict:
    """Reconcile the two printed forms of the degree-12 generator.

    Established exactly:
      * the literal bracket sum is not proportional to s2 (it is not even
        group invariant), so the literal displays cannot agree;
      * with the equal-last-index brace, the bracket sum equals -s2, hence
        the bracket form equals conj(Delta) * s2^2;
      * conj(Delta) * s2^2 = -1/2 D_000 (3/2 (B_200+B_020+B_002) - A^2)
        + 2 C_111^2 - 4 B_200 B_020 B_002 - 1/8 F_222, so it differs from
        the printed covariant display by 4 C_111^2 - 8 B_200 B_020 B_002
        plus sign flips on the D_000 and F_222 terms; the two candidates
        agree modulo the subalgebra generated by f1..f6.

    Returns the individual findings plus the literal discrepancy polynomial.
    """
    s2 = s2_invariant()
    s_literal = bracket_sum(corrected=False)
    s_corr = bracket_sum(corrected=True)
    literal_sum_is_s2 = _proportional(s_literal, s2.poly) is not None
    corr_ratio = _proportional(s_corr, s2.poly)

    lhs = f7_bracket_form(corrected=True)
    delta = delta_invariant()
    bracket_is_dbar_s2sq = lhs.poly == (delta.conjugate() * (s2 * s2)).poly

    a = norm_invariant(3)
    b200, b020, b002, c111, d000, f222 = (
        lut3_pairing(n)
        for n in ("B_200", "B_020", "B_002", "C_111", "D_000", "F_222"))
    f7 = lut3_generator(7)
    inner = Fraction(3, 2) * (b200 + b020 + b002) - a * a
    decomposition = InvariantExpr.sum_of_products([
        (1, (lhs,)),
        (Fraction(1, 2), (d000, inner)),
        (-2, (c111, c111)),
        (4, (b200, b020, b002)),
        (Fraction(1, 8), (f222,)),
    ]).poly
    printed_gap = InvariantExpr.sum_of_products([
        (1, (f7,)), (1, (lhs,)), (-4, (c111, c111)), (8, (b200, b020, b002)),
    ]).poly
    literal_residual = Polynomial.sum_of_products(3, [
        (1, (s_literal, s_literal, delta.conjugate().poly)), (-1, (f7.poly,)),
    ])
    return {
        "literal_equal": not literal_residual,
        "literal_sum_is_s2": literal_sum_is_s2,
        "corrected_sum_ratio_on_s2": corr_ratio,
        "bracket_equals_conj_delta_s2_squared": bracket_is_dbar_s2sq,
        "decomposition_residual_zero": not decomposition,
        "printed_display_gap_zero": not printed_gap,
        "literal_residual_terms": len(literal_residual.terms),
    }


def _proportional(p: Polynomial, q: Polynomial):
    """The scalar r with p == r*q, or None."""
    if not q.packed:
        return None
    m = next(iter(q.packed))
    if m not in p.packed:
        return None
    (pr, pi), (qr, qi) = p.packed[m], q.packed[m]
    r = GaussianRational(Fraction(pr, p.den), Fraction(pi, p.den)) / (
        GaussianRational(Fraction(qr, q.den), Fraction(qi, q.den)))
    return r if p == q * r else None


# -- LSUT structure for 3 qubits ------------------------------------------


@lru_cache(maxsize=None)
def s2_invariant() -> InvariantExpr:
    """s2 = <T|f>, bidegree (3,1)."""
    return pairing(catalog_3("T"), ground_form(3), "s2")


def delta_invariant() -> InvariantExpr:
    """The 3-qubit discriminant as a bidegree-(4,0) invariant."""
    return InvariantExpr(catalog_3("Delta").poly, (4, 0), "Delta")


def syzygy_residuals():
    """The two degree-(4,4) and degree-(6,6) relations among the 3-qubit
    LSUT generators; both residuals must be the zero polynomial.

    The first relation holds with Delta = (T,f)^(1,1,1) and s2 = <T|f>
    exactly as constructed.  The second holds only after flipping the sign
    of the two cross terms conj(Delta) s2^2 and Delta conj(s2)^2, which is
    the same as reading the discriminant as (f,T)^(1,1,1) = -Delta; with
    the printed +18 coefficients the residual equals exactly
    36 (conj(Delta) s2^2 + Delta conj(s2)^2).  The sign-flipped reading is
    used here so that both residuals vanish identically.
    """
    f1 = lut3_generator(1)
    f2 = lut3_generator(2)
    f3 = lut3_generator(3)
    f4 = lut3_generator(4)
    f5 = lut3_generator(5)
    delta = delta_invariant()
    dbar = delta.conjugate()
    mod_delta = delta * dbar          # |Delta|^2
    s2 = s2_invariant()
    s2bar = s2.conjugate()
    mod_s2 = s2 * s2bar               # |s2|^2

    f1sq = f1 * f1
    f1q = f1sq * f1sq
    r1 = InvariantExpr.sum_of_products([
        (8, (f1, f5)), (-6, (f4, f2)), (3, (f4, f4)), (-3, (mod_delta,)),
        (3, (f2, f2)), (-6, (f4, f3)), (1, (f1q,)), (3, (f3, f3)),
        (-6, (f3, f2)), (-12, (mod_s2,)),
    ])
    r2 = InvariantExpr.sum_of_products([
        (-18, (f4, f1q)), (-18, (f3, f1q)), (-18, (f2, f1q)),
        (11, (f1q, f1sq)), (-18, (s2, s2, dbar)), (-36, (mod_s2, f3)),
        (-18, (s2bar, s2bar, delta)), (-72, (f4, f3, f2)),
        (30, (f4, f2, f1sq)), (30, (f4, f3, f1sq)), (-36, (mod_s2, f2)),
        (60, (mod_s2, f1sq)), (3, (f4, f4, f1sq)), (3, (f3, f3, f1sq)),
        (30, (f3, f2, f1sq)), (-36, (mod_s2, f4)), (3, (f2, f2, f1sq)),
        (-3, (mod_delta, f1sq)), (16, (f5, f5)),
    ])
    return r1.poly, r2.poly


def syzygy_checks():
    """(first_holds, second_holds) as exact booleans."""
    r1, r2 = syzygy_residuals()
    return (not r1, not r2)


# -- Jacobian independence of the LSUT primaries --------------------------

JACOBIAN_POINT = {
    0: GaussianRational(3, 3),   # a_000
    1: GaussianRational(3, 3),   # a_001
    2: GaussianRational(3, 3),   # a_010
    3: GaussianRational(2, 1),   # a_011
    4: GaussianRational(3, 2),   # a_100
    5: GaussianRational(1, 2),   # a_101
    6: GaussianRational(2, 3),   # a_110
    7: GaussianRational(3, 1),   # a_111
}

JACOBIAN_REFERENCE = GaussianRational(-53279560564736, -243669580382208)


def evaluate_exact(poly: Polynomial, values: dict) -> GaussianRational:
    """Evaluate a polynomial at an exact amplitude assignment; conjugate
    amplitudes take the conjugate values.

    The values are put over one common denominator D, so every term is a
    Gaussian-integer product; terms of total degree d share the denominator
    den * D^d of the result.
    """
    n = layout(poly.k).n
    scale = lcm(*(d for v in values.values()
                  for d in (v.re.denominator, v.im.denominator)))
    base = {}
    for idx, v in values.items():
        re, im = int(v.re * scale), int(v.im * scale)
        base[idx], base[n + idx] = (re, im), (re, -im)
    powers: dict = {}
    sums: dict = defaultdict(lambda: [0, 0])
    for m, (r, i) in poly.packed.items():
        deg = 0
        for f, e in exponents(m):
            if f >= 2 * n:
                raise ValueError("auxiliary variable in exact evaluation")
            p = powers.get((f, e))
            if p is None:
                p = powers[f, e] = _gauss_pow(base[f], e)
            r, i = r * p[0] - i * p[1], r * p[1] + i * p[0]
            deg += e
        acc = sums[deg]
        acc[0] += r
        acc[1] += i
    total = GaussianRational(0)
    for deg, (r, i) in sums.items():
        d = poly.den * scale ** deg
        total = total + GaussianRational(Fraction(r, d), Fraction(i, d))
    return total


def _gauss_pow(z: tuple, e: int) -> tuple:
    r, i = 1, 0
    for _ in range(e):
        r, i = r * z[0] - i * z[1], r * z[1] + i * z[0]
    return r, i


_JACOBIAN_VARIABLES = tuple([amp(i) for i in range(8)]
                            + [amp_conj(i) for i in range(8)])


@lru_cache(maxsize=None)
def jacobian_matrix() -> tuple:
    """Exact 7x16 Jacobian of (A, f2, f3, Delta, conj Delta, s2, conj s2)
    in the variables (a_000..a_111, conj a_000..conj a_111) at the reference
    point, as a tuple of row tuples; built once and shared by the rank and
    both determinants."""
    funcs = [
        norm_invariant(3).poly,
        lut3_generator(2).poly,
        lut3_generator(3).poly,
        delta_invariant().poly,
        delta_invariant().conjugate().poly,
        s2_invariant().poly,
        s2_invariant().conjugate().poly,
    ]
    return tuple(
        tuple(evaluate_exact(fn.partial(v), JACOBIAN_POINT)
              for v in _JACOBIAN_VARIABLES)
        for fn in funcs
    )


def jacobian_rank() -> int:
    """Exact rank of the 7x16 Jacobian; 7 proves the seven primary
    invariants algebraically independent."""
    return len(independent_rows(matrix_rows(jacobian_matrix())))


def jacobian_determinant(literal: bool = False) -> GaussianRational:
    """Exact 16x16 Jacobian determinant at the reference point.

    With `literal=True` the sixteen functions are the seven primary
    invariants plus the coordinate functions a_000..a_111 and conj a_000.
    That determinant is identically zero for structural reasons: Delta is
    holomorphic, so its row is a linear combination of the eight coordinate
    rows a_000..a_111 (with coefficients dDelta/da_i), whatever the
    evaluation point.  The nonzero value printed alongside the reference
    point cannot arise from this matrix; an exhaustive scan of all 11440
    seven-column minors of the invariant Jacobian found none proportional
    to it, so its provenance could not be reconstructed.

    The default uses the coordinate completion a_001..a_111, conj a_000,
    conj a_111 instead, whose determinant reduces (up to sign) to a minor
    mixing holomorphic and antiholomorphic columns and is nonzero, which is
    what the algebraic-independence argument needs.
    """
    if literal:
        coord = [amp(i) for i in range(8)] + [amp_conj(0)]
    else:
        coord = [amp(i) for i in range(1, 8)] + [amp_conj(0), amp_conj(7)]
    # The gradient of a coordinate function is a unit row.
    return det(list(jacobian_matrix()) + [
        [GaussianRational(int(u == v)) for u in _JACOBIAN_VARIABLES]
        for v in coord])


# -- 4-qubit degree-6 LUT invariants --------------------------------------


# The twenty degree-6 generators by name: A^3, A*B with B = |B_0000|^2, A
# times each mixed <B_d|B_d>, every pairing among C1, C2 and fB = f*B_0000
# except <fB|fB>, and the four <C|C> of the cubic covariants.
_DEGREE6_FACTORS = ("C1", "C2", "fB")
DEGREE6_NAMES_4 = (
    "A^3",
    "A*B",
    *("A*B_" + "".join(map(str, d)) for d in b_multidegrees(4)
      if d not in ((2,) * 4, (0,) * 4)),
    *(f"<{left}|{right}>" for left in _DEGREE6_FACTORS
      for right in _DEGREE6_FACTORS if (left, right) != ("fB", "fB")),
    *(f"<{c}|{c}>" for c in ("C_3111", "C_1311", "C_1131", "C_1113")),
)


@lru_cache(maxsize=None)
def _degree6_factor(name: str) -> Covariant:
    if name == "fB":
        return ground_form(4) * catalog_4("B_0000")
    return catalog_4(name + "_1111" if name in ("C1", "C2") else name)


@lru_cache(maxsize=None)
def degree6_invariant_4(name: str) -> InvariantExpr:
    """One degree-6 LUT generator for 4 qubits, named as in
    `DEGREE6_NAMES_4`; only the covariants it needs are built."""
    if name not in DEGREE6_NAMES_4:
        raise KeyError(f"unknown degree-6 4-qubit invariant {name!r}")
    a = norm_invariant(4)
    if name == "A^3":
        return a ** 3
    if name == "A*B":
        b = catalog_4("B_0000").poly
        return a * InvariantExpr(b * b.conjugate(), (2, 2), "B")
    if name.startswith("A*"):
        return a * b_pairing(4, tuple(map(int, name[4:])))
    left, right = name[1:-1].split("|")
    return pairing(_degree6_factor(left), _degree6_factor(right))


@lru_cache(maxsize=None)
def degree6_invariants_4() -> tuple:
    """The twenty degree-6 LUT generators for 4 qubits, as (name,
    invariant) pairs."""
    return tuple((name, degree6_invariant_4(name)) for name in DEGREE6_NAMES_4)
