"""Hermitian pairing of covariants and the unitary invariants built from it.

The pairing contracts the auxiliary variables of two covariants of equal
multidegree.  Writing phi = sum_m c_m(a) m(x) over auxiliary monomials m,

    <phi|psi> = sum_m w(m) c_m(a) conj(d_m)(abar),
    w(m) = prod_j p_j! q_j!   for slot-j exponents (p_j, q_j),

the weight being the permanent of the Gram matrix of the monomial under
<x_i|y_j> = delta.  The first argument stays holomorphic, the second is
conjugated, so the result has bidegree (deg phi, deg psi).

An `InvariantExpr` stores the polynomial in pairings it is built as: exact
coefficients on products of leaves, where a leaf is a pairing <Phi|Psi> or a
plain polynomial, one leaf per (Phi, Psi) pair.  Its exact polynomial is
formed from the leaf expansions on first access, grouped by last leaf
(Horner's rule on one level).  A numeric value needs only the values of
the aux-coefficients c_m(a), so `numeric_form` hands the stored forms to
`numeric.NumericForm`, which stacks the distinct covariants of the leaves
into one kernel call and evaluates the stored polynomials in the pairings:
the 47 named invariants of the CLI at k = 3 and 4 rest on about 3,100
covariant terms, against 66,764 expanded.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import lcm

from .catalog import (
    b_family,
    b_multidegrees,
    catalog_3,
    catalog_4,
    covariant_basis,
    ground_form,
)
from .gaussian import GaussianRational, _coerce
from .linalg import det, rank
from .poly import (DimensionError, EvaluationError, Polynomial, _weight, amp,
                   amp_conj)
from .transvection import Covariant

_CREATED = count()
_LEAVES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _leaf(a, b, poly=None) -> "_Leaf":
    """The one live leaf <a|b> of the polynomial objects a and b, made on
    first request with the expansion `poly`, if known.  A leaf holds both
    of its sides, so no id in a live key can be reused; it dies with the
    last invariant that stores it or its conjugate."""
    leaf = _LEAVES.get(key := (id(a), id(b)))
    if leaf is None:
        leaf = _LEAVES[key] = _Leaf(a, b, poly)
    return leaf


class _Leaf:
    """The pairing <a|b> of two polynomials, one factor of a stored
    invariant; None stands for the constant 1, so a plain polynomial P is
    the leaf <P|1> = P and its conjugate the leaf <1|P>.  `_leaf` makes
    each, one per pair of polynomial objects.

    Leaves sort by creation, so a product of leaves is a tuple whose order
    does not depend on memory addresses.  The conjugate is the swapped
    leaf, linked both ways on first use; a later-made leaf expands as the
    conjugate of its twin's expansion, and <C|C> is its own conjugate.
    A leaf expands on first access and keeps the result.  It unpacks as
    (a, b), the leaf that `numeric.NumericForm` reads.
    """

    __slots__ = ("a", "b", "order", "_poly", "_conj", "__weakref__")

    def __init__(self, a, b, poly):
        self.a, self.b, self._poly, self._conj = a, b, poly, None
        self.order = next(_CREATED)

    def __lt__(self, other):
        return self.order < other.order

    def __iter__(self):
        return iter((self.a, self.b))

    def conjugate(self) -> "_Leaf":
        if self._conj is None:
            self._conj = _leaf(self.b, self.a)
            self._conj._conj = self
        return self._conj

    @property
    def poly(self) -> Polynomial:
        if self._poly is None:
            twin = self._conj
            if twin is not None and twin < self:
                self._poly = twin.poly.conjugate()
            else:
                self._poly = _pairing_poly(self.a, self.b)
        return self._poly


def _combine(summands) -> dict:
    """The stored form of sum c * X_1 * ... * X_m over the (c, (X_1, ...,
    X_m)) summands of invariants: {sorted tuple of leaves: exact
    coefficient}, without zero entries."""
    out: dict = {}
    for c, xs in summands:
        term = {(): c}
        for x in xs:
            times: dict = {}
            for m1, c1 in term.items():
                for m2, c2 in x.top.items():
                    m = tuple(sorted(m1 + m2))
                    times[m] = times.get(m, 0) + c1 * c2
            term = times
        for m, c1 in term.items():
            out[m] = out.get(m, 0) + c1
    return {m: c for m, c in out.items() if c}


class InvariantExpr:
    """A polynomial in amplitudes and conjugate amplitudes with fixed
    bidegree, stored as a polynomial in pairings.

    `top` maps each product of leaves (`_Leaf`, a tuple in creation order)
    to its exact coefficient.  The constructor takes a plain polynomial,
    validated, as one leaf; `pairing` makes the leaf <Phi|Psi>.  `+`, `-`,
    `*` by a scalar, `*`, `**`, `conjugate` and `sum_of_products` multiply
    and add the stored forms of their operands.

    The exact polynomial `poly` is formed on first access and kept, grouped
    by last leaf: the products of `top` that end in one leaf, usually the
    latest built and largest, become one summand (sum c * rest) * last, the
    inner sum one `Polynomial.sum_of_products`, and one outer call adds the
    summands.  A single leaf with coefficient 1 is its expansion.  Numeric
    evaluation expands no leaf: `numeric()` evaluates the stored form
    through its covariants (`numeric.NumericForm`).  Equality and hashing
    compare (poly, bidegree, name), so they expand.
    """

    __slots__ = ("k", "bidegree", "name", "top", "_poly", "_numeric")

    def __init__(self, poly: Polynomial, bidegree: tuple, name: str = ""):
        self.k, self.bidegree, self.name = poly.k, tuple(bidegree), name
        self.top = {(_leaf(poly, None, poly),): 1} if poly else {}
        self._poly, self._numeric = poly, None
        self.__post_init__()

    def __post_init__(self):
        # Named as when this class was a dataclass: perfbench's span table
        # wraps the validation under this name.
        degrees = self.poly.degrees()
        if any(any(slots) for _, _, *slots in degrees):
            raise ValueError("invariants must not contain auxiliary variables")
        for n1, n2, *_ in degrees:
            if (n1, n2) != self.bidegree:
                raise ValueError(
                    f"term of bidegree ({n1},{n2}) in invariant of "
                    f"bidegree {self.bidegree}"
                )

    @classmethod
    def _stored(cls, k, bidegree, top, name="", poly=None):
        """The invariant of a stored form, without validation."""
        x = object.__new__(cls)
        x.k, x.bidegree, x.name, x.top = k, tuple(bidegree), name, top
        x._poly, x._numeric = poly, None
        return x

    def named(self, name: str) -> "InvariantExpr":
        """The same stored form under another name."""
        return self._stored(self.k, self.bidegree, self.top, name, self._poly)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.poly, self.bidegree, self.name)
                == (other.poly, other.bidegree, other.name))

    def __hash__(self):
        return hash((self.poly, self.bidegree, self.name))

    def __repr__(self):
        return (f"InvariantExpr({self.name!r}, k={self.k}, "
                f"bidegree={self.bidegree})")

    @property
    def poly(self) -> Polynomial:
        if self._poly is None:
            top = self.top
            if list(top.values()) == [1] and len(m := next(iter(top))) == 1:
                self._poly = m[0].poly
            else:
                groups: dict = {}
                for m, c in top.items():
                    groups.setdefault(m[-1:], []).append(
                        (c, tuple(leaf.poly for leaf in m)))
                self._poly = Polynomial.sum_of_products(self.k, [
                    g[0] if len(g) == 1 else (1, (Polynomial.sum_of_products(
                        self.k, [(c, ps[:-1]) for c, ps in g]), last[0].poly))
                    for last, g in groups.items()])
        return self._poly

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, InvariantExpr):
            return self.sum_of_products([(1, (self,)), (1, (other,))])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, InvariantExpr):
            return self.sum_of_products([(1, (self,)), (-1, (other,))])
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, InvariantExpr):
            return self.sum_of_products([(1, (self, other))])
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.sum_of_products([(other, (self,))])
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return self._stored(self.k,
                            (self.bidegree[0] * n, self.bidegree[1] * n),
                            _combine([(1, (self,) * n)]))

    @classmethod
    def sum_of_products(cls, summands) -> "InvariantExpr":
        """sum c * X_1 * ... * X_m over the (c, (X_1, ..., X_m)) summands.

        All products must share the first one's k and one bidegree, except
        zero products: a zero coefficient, or a factor whose stored form is
        empty or, when the bidegrees differ, expands to zero.  The sum has
        the bidegree of its nonzero products, else that of the first.
        """
        summands = [(c, tuple(xs)) for c, xs in summands]
        k = summands[0][1][0].k
        for _, xs in summands:
            _same_k(k, xs)
        live = [xs for c, xs in summands if c and all(x.top for x in xs)]
        if len({_bidegree(xs) for xs in live}) > 1:
            # A nonempty form expands to see whether it is zero.
            live = [xs for xs in live if all(x.poly for x in xs)]
            if len({_bidegree(xs) for xs in live}) > 1:
                raise ValueError(
                    "cannot add invariants of different bidegrees")
        return cls._stored(k, _bidegree((live or [summands[0][1]])[0]),
                           _combine(summands))

    def conjugate(self) -> "InvariantExpr":
        top = {tuple(sorted(leaf.conjugate() for leaf in m)): c.conjugate()
               for m, c in self.top.items()}
        return self._stored(self.k, (self.bidegree[1], self.bidegree[0]),
                            top, self.name)

    # -- numeric evaluation -----------------------------------------------

    def numeric(self) -> "NumericForm":
        """The one-output numeric form, built once."""
        if self._numeric is None:
            self._numeric = numeric_form((self,))
        return self._numeric

    def evaluate(self, state) -> complex:
        return self.numeric().evaluate(state)

    def is_zero(self) -> bool:
        return not self.poly


def _bidegree(xs) -> tuple:
    """The bidegree of the product of the invariants xs."""
    return tuple(map(sum, zip(*(x.bidegree for x in xs))))


def _same_k(k: int, operands):
    for x in operands:
        if x.k != k:
            raise DimensionError(f"ambient k mismatch: {k} vs {x.k}")


def numeric_form(exprs) -> "NumericForm":
    """One `numeric.NumericForm` whose outputs are the stored forms of the
    given invariants (a leaf unpacks as its two sides)."""
    from .numeric import NumericForm

    return NumericForm(exprs[0].k, [x.top for x in exprs])


def pairing(phi: Covariant, psi: Covariant, name: str = "") -> InvariantExpr:
    """Hermitian scalar product over the auxiliary variables, kept
    unexpanded: the invariant of one leaf, shared by every pairing of the
    same two polynomials.

    Mismatched multidegrees are legal and give the zero invariant;
    mismatched k raise DimensionError.
    """
    _same_k(phi.k, (psi,))
    top = {}
    if phi.multidegree == psi.multidegree:
        top = {(_leaf(phi.poly, psi.poly),): 1}
    return InvariantExpr._stored(phi.k, (phi.amp_degree, psi.amp_degree),
                                 top, name)


def _pairing_poly(a: Polynomial, b: Polynomial) -> Polynomial:
    """The expanded pairing <a|b>, as one `Polynomial.sum_of_products`."""
    left = a.aux_parts()
    right = b.aux_parts()
    return Polynomial.sum_of_products(a.k, [
        (_weight(m), (cpoly, right[m].conjugate()))
        for m, cpoly in left.items() if m in right
    ])


# -- bases for arbitrary k ------------------------------------------------


@lru_cache(maxsize=None)
def norm_invariant(k: int) -> InvariantExpr:
    """<f|f> = sum_i a_i conj(a_i); equals 1 on normalized states."""
    f = ground_form(k)
    return pairing(f, f, "A")


@lru_cache(maxsize=None)
def b_pairing(k: int, d: tuple) -> InvariantExpr:
    """The LUT invariant <B_d|B_d>.  It shares its leaf with its element of
    `lsut_basis(k, 2, 2)`, which pairs the same cached B_d."""
    b = b_family(k, d)
    return pairing(b, b, "B_" + "".join(map(str, d)))


@lru_cache(maxsize=None)
def lsut_basis(k: int, n1: int, n2: int) -> tuple:
    """A basis of the LSUT invariants of bidegree (n1, n2): the pairings
    <C|C'> of C in `covariant_basis(k, n1, alpha)` and C' in
    `covariant_basis(k, n2, alpha)`, alpha in decreasing lexicographic order.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError(f"no invariants of bidegree ({n1}, {n2})")
    return tuple(pairing(c, d)
                 for alpha in product(range(min(n1, n2), -1, -1), repeat=k)
                 for c in covariant_basis(k, n1, alpha)
                 for d in covariant_basis(k, n2, alpha))


def lut_degree4_basis(k: int):
    """The 2^(k-1) B pairings <B_d|B_d>, the (2,2) block of `lsut_basis`."""
    return list(lsut_basis(k, 2, 2))


def lsut_degree4_basis(k: int):
    """Degree-4 LSUT basis: the `lsut_basis` blocks of bidegrees (4,0),
    (3,1), (2,2), (1,3) and (0,4), in that order."""
    return [x for n1 in range(4, -1, -1) for x in lsut_basis(k, n1, 4 - n1)]


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
    c111 = lut3_pairing("C_111")
    if i == 2:
        expr = a * a - b200 - b020
    elif i == 3:
        expr = a * a - b200 - b002
    elif i == 4:
        expr = a * a - b020 - b002
    elif i == 5:
        expr = (
            a ** 3
            + Fraction(3, 2) * c111
            - Fraction(3, 2) * (a * (b200 + b020 + b002))
        )
    else:
        inner = Fraction(3, 2) * (b200 + b020 + b002) - a * a
        expr = (Fraction(1, 2) * lut3_pairing("D_000") * inner
                + 2 * c111 * c111 - 4 * b200 * b020 * b002
                + Fraction(1, 8) * lut3_pairing("F_222"))
    return expr.named(f"f{i}")


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


@lru_cache(maxsize=None)
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


def f7_bracket_form() -> InvariantExpr:
    """The degree-12 generator from the bracket/brace expansion, with the
    equal-last-index brace: conj(Delta) times the squared bracket sum."""
    s = bracket_sum(corrected=True)
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

    lhs = f7_bracket_form()
    delta_bar = delta_invariant().conjugate()
    bracket_is_dbar_s2sq = lhs.poly == (delta_bar * (s2 * s2)).poly

    a = norm_invariant(3)
    b200, b020, b002, c111, d000, f222 = (
        lut3_pairing(n)
        for n in ("B_200", "B_020", "B_002", "C_111", "D_000", "F_222"))
    f7 = lut3_generator(7)
    inner = Fraction(3, 2) * (b200 + b020 + b002) - a * a
    dec = (lhs + Fraction(1, 2) * d000 * inner - 2 * c111 * c111
           + 4 * b200 * b020 * b002 + Fraction(1, 8) * f222)
    gap = f7 + lhs - 4 * c111 * c111 + 8 * b200 * b020 * b002
    decomposition = dec.poly
    # The two store equal forms: the gap costs no second expansion.
    printed_gap = decomposition + (gap - dec).poly
    literal_residual = Polynomial.sum_of_products(3, [
        (1, (s_literal, s_literal, delta_bar.poly)), (-1, (f7.poly,)),
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
    m = next(iter(q.terms), None)
    if m not in p.terms:
        return None
    r = p.terms[m] / q.terms[m]
    return r if p == q * r else None


# -- LSUT structure for 3 qubits ------------------------------------------


@lru_cache(maxsize=None)
def s2_invariant() -> InvariantExpr:
    """s2 = <T|f>, bidegree (3,1)."""
    return pairing(catalog_3("T"), ground_form(3), "s2")


@lru_cache(maxsize=None)
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
    """Evaluate an auxiliary-free polynomial at an exact amplitude
    assignment {index: int, Fraction or GaussianRational}; conjugate
    amplitudes take the conjugate values.

    The values are put over one common denominator D.  One loop reads the
    tuple monomials of `poly.terms`, decoded once without their values and
    kept on the polynomial, beside its integer numerators.  Each (variable,
    exponent) power it meets is formed once per call, as a Gaussian integer
    over D^exponent, and the terms of each total degree are summed over
    den * D^degree.  An index outside range(2**k) or an auxiliary variable
    raises ValueError, a value of another type TypeError, and an amplitude
    missing from the assignment EvaluationError.
    """
    k = poly.k
    exact = {}
    for idx, v in values.items():
        if not (isinstance(idx, int) and 0 <= idx < 2 ** k):
            raise ValueError(
                f"amplitude index {idx!r} outside range(2**{k})")
        if (z := _coerce(v)) is None:
            raise TypeError(f"value of amplitude {idx}: cannot coerce "
                            f"{type(v).__name__} to GaussianRational")
        exact[idx] = z
    scale = lcm(*(d for z in exact.values()
                  for d in (z.re.denominator, z.im.denominator)))
    base = {idx: (z.re.numerator * (scale // z.re.denominator),
                  z.im.numerator * (scale // z.im.denominator))
            for idx, z in exact.items()}
    powers: dict = {}
    sums: dict = {}
    _, re, im = poly._columns()
    for mono, r, i in zip(poly.terms.monomials(), re, im):
        deg = 0
        for factor in mono:
            z = powers.get(factor)
            if z is None:
                (kind, idx, *_), e = factor
                if kind == "x":
                    raise ValueError("auxiliary variable in exact evaluation")
                if idx not in base:
                    raise EvaluationError(
                        f"no value for amplitude {idx} (a[{idx:0{k}b}])")
                x, y = base[idx]
                if kind == "ac":
                    y = -y
                zr, zi = 1, 0
                for _ in range(e):
                    zr, zi = zr * x - zi * y, zr * y + zi * x
                z = powers[factor] = zr, zi
            r, i = r * z[0] - i * z[1], r * z[1] + i * z[0]
            deg += factor[1]
        s = sums.setdefault(deg, [0, 0])
        s[0] += r
        s[1] += i
    total = GaussianRational(0)
    for deg, (r, i) in sums.items():
        d = poly.den * scale ** deg
        total += GaussianRational(Fraction(r, d), Fraction(i, d))
    return total


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
    """Exact rank of the 7x16 Jacobian, as the rank of the differentials
    sum_v df/dv(P) v, linear polynomials in the sixteen variables; 7 proves
    the seven primary invariants algebraically independent."""
    return rank([Polynomial.sum_of_products(3, [
        (c, (Polynomial.variable(3, v),))
        for c, v in zip(row, _JACOBIAN_VARIABLES)])
        for row in jacobian_matrix()])


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


# The twenty degree-6 generators by name: A^3, A*B with B = <B_0000|B_0000>,
# A times each mixed <B_d|B_d>, every pairing among C1, C2 and fB = f*B_0000
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
        return (a ** 3).named(name)
    if name.startswith("A*"):
        d = tuple(map(int, name[4:])) or (0,) * 4
        return (a * b_pairing(4, d)).named(name)
    left, right = name[1:-1].split("|")
    return pairing(_degree6_factor(left), _degree6_factor(right), name)


@lru_cache(maxsize=None)
def degree6_invariants_4() -> tuple:
    """The twenty degree-6 LUT generators for 4 qubits, as (name,
    invariant) pairs."""
    return tuple((name, degree6_invariant_4(name)) for name in DEGREE6_NAMES_4)
