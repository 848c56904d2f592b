"""Sparse multivariate polynomials over Gaussian rationals.

Variable universe (all variables are plain tuples, which gives a fixed
total order for free: amplitude < conjugate amplitude < auxiliary):

  ('a', idx)            amplitude a_{i1...ik}, idx = int of the bitstring,
                        i1 most significant
  ('ac', idx)           conjugate amplitude
  ('x', slot, comp, 0)  auxiliary variable x^{(slot)}_comp; slot in 1..k,
                        comp in {0,1}; the trailing 0 is fixed

Representation.  Each monomial is packed into one Python int with an 8-bit
exponent field per variable, so multiplying two monomials is integer
addition (the packed monomials of Monagan & Pearce, "Parallel sparse
polynomial multiplication using heaps", ISSAC 2009).  `layout(k)` fixes the
fields, from the least significant: the 2^k amplitudes, the 2^k conjugate
amplitudes, then the 2k auxiliary fields (slot-major, component-minor).
A polynomial is a dict packed monomial -> (re, im) Gaussian-integer
numerator, with no zero entries, over one positive integer denominator;
every result is reduced so that the numerators and the denominator have
gcd 1.  Equal polynomials therefore have equal dicts and
denominators, and == and hash are plain dict and int comparisons.

All exact arithmetic runs through one multiply-accumulate,
`Polynomial.sum_of_products`: sum c * P_1 * ... * P_m over a list of
summands.  Each summand's last product is accumulated, term pair by term
pair, into one real and one imaginary dict over the common denominator of
all summands, and the result is reduced once.  `+`, `-`, `*` by a scalar
and `*` are its one- and two-summand cases; transvection, the pairing and
the identity residuals pass it their whole sum at once.

Each polynomial carries a bound on its total degree.  A monomial's total
degree bounds every exponent in it, so a product whose bound would exceed
the field width raises OverflowError instead of carrying into the next
field.

At the boundary a monomial is a sorted tuple of (variable, exponent) pairs
with positive exponents and a coefficient is a GaussianRational: the
constructor takes that form, validated, and `terms` gives it back.
Numeric evaluation, scalar and batched, runs one kernel on one compiled
form per polynomial, built from the packed keys on first use.  The form
is split (sesquilinear): each key is cut into its amplitude part and the
rest (conjugates and auxiliaries), the distinct parts are numbered, and
each term keeps (coefficient, left part, right part).  A pairing <Phi|Psi>
has far fewer distinct parts than terms (f7: 8,412 terms over 504 + 504
parts), so the kernel takes the value of every part once, from a table of
powers, and then sums c * left * right over the terms, in blocks of a
fixed number of elements so that its temporaries stay small.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

import numpy as np

from .gaussian import GaussianRational
from .state import DimensionError, State

FIELD_BITS = 8
FIELD_MAX = (1 << FIELD_BITS) - 1
# Elements in one temporary array of the numeric kernel (128 KiB of
# complex).  Larger blocks come back from the allocator as fresh pages: on
# a 2-vCPU Linux host (glibc malloc), f7 on 33 rows took 4.5 page faults
# and 1.3 ms per call at 2^13 elements, 226 and 2.2 ms at 2^14, and 2,008
# and 5.2 ms at 2^15.
_BLOCK = 1 << 13


def amp(idx: int) -> tuple:
    return ("a", idx)


def amp_conj(idx: int) -> tuple:
    return ("ac", idx)


def aux(slot: int, comp: int) -> tuple:
    return ("x", slot, comp, 0)


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Merge two sorted monomials, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


class EvaluationError(KeyError):
    """A variable could not be resolved during numeric evaluation."""


class _Compiled(NamedTuple):
    """The split form of a polynomial (see `Polynomial._compile`)."""

    coeffs: np.ndarray    # complex coefficient per term
    left: np.ndarray      # per term, the number of its amplitude part
    right: np.ndarray     # per term, the number of its other part
    index: np.ndarray     # width-by-part rows of the power table whose
                          # product is each part's value; row 0 pads
    sources: np.ndarray   # the amplitude of each used amplitude or
                          # conjugate field
    conj: int             # how many of those are amplitudes, not conjugates
    aux_vars: tuple       # the variable of each used auxiliary field
    top: int              # the largest exponent


class Layout:
    """Exponent fields of the variables over k qubits, and the masks that
    select the amplitude, conjugate and auxiliary blocks of a packed key."""

    def __init__(self, k: int):
        n = 2 ** k
        self.k, self.n = k, n
        self.var = (
            [amp(i) for i in range(n)]
            + [amp_conj(i) for i in range(n)]
            + [aux(slot, comp) for slot in range(1, k + 1) for comp in (0, 1)]
        )
        self.field = {v: f for f, v in enumerate(self.var)}
        # Fields in the order of their variable tuples, with printed names.
        self.order = sorted(range(len(self.var)), key=self.var.__getitem__)
        self.names = [_name(self.var[f], k) for f in self.order]
        block = FIELD_BITS * n
        self.conj_shift = block
        self.aux_shift = 2 * block
        self.amp_mask = (1 << block) - 1
        self.conj_mask = self.amp_mask << block

    def encode(self, mono) -> tuple:
        """(packed key, total degree) of a tuple monomial."""
        key = deg = 0
        for v, e in mono:
            f = self.field.get(v)
            if f is None:
                raise ValueError(f"unknown variable {v!r} for k={self.k}")
            if not isinstance(e, int) or e < 1:
                raise ValueError(f"exponent of {v!r} must be a positive int")
            key += e << (FIELD_BITS * f)
            deg += e
        if deg > FIELD_MAX:
            raise OverflowError(f"total degree {deg} exceeds {FIELD_MAX}")
        return key, deg

    def decode(self, key: int) -> tuple:
        """The sorted tuple monomial of a packed key."""
        return tuple(sorted((self.var[f], e) for f, e in exponents(key)))

    def fields(self, key: int) -> bytes:
        """The exponent of every field of a packed key, one byte each."""
        return key.to_bytes(len(self.var), "little")

    def exponent_matrix(self, keys) -> np.ndarray:
        """Key-by-field uint8 exponent matrix of a list of packed keys."""
        return np.frombuffer(
            b"".join(self.fields(m) for m in keys), dtype=np.uint8
        ).reshape(len(keys), len(self.var))


def _name(v: tuple, k: int) -> str:
    if v[0] == "x":
        return f"x{v[1]}_{v[2]}"
    return f"{v[0]}[{format(v[1], f'0{k}b')}]"


@lru_cache(maxsize=None)
def layout(k: int) -> Layout:
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return Layout(k)


def exponents(key: int):
    """Yield (field, exponent) for the nonzero fields of a packed key."""
    while key:
        shift = ((key & -key).bit_length() - 1) // FIELD_BITS * FIELD_BITS
        e = (key >> shift) & FIELD_MAX
        yield shift // FIELD_BITS, e
        key ^= e << shift


def _scalar(c) -> tuple:
    """(re, im, den) integers of an exact scalar, den > 0."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    if isinstance(c, GaussianRational):
        den = lcm(c.re.denominator, c.im.denominator)
        return (c.re.numerator * (den // c.re.denominator),
                c.im.numerator * (den // c.im.denominator), den)
    raise TypeError(f"cannot coerce {type(c).__name__} to GaussianRational")


_SCALARS = (int, Fraction, GaussianRational)


class Polynomial:
    """Exact sparse polynomial in packed form; immutable (its value never
    changes, see `_share_coefficients`)."""

    __slots__ = ("k", "packed", "den", "degree_bound", "_terms", "_compiled")

    def __init__(self, k: int, terms: Mapping | None = None):
        """Build from {tuple monomial: coefficient}, validating both."""
        lay = layout(k)
        entries = []
        den = 1
        for mono, c in (terms or {}).items():
            key, deg = lay.encode(mono)
            r, i, d = _scalar(c)
            if r or i:
                entries.append((key, deg, r, i, d))
                den = lcm(den, d)
        packed: dict = {}
        for key, _, r, i, d in entries:
            s = den // d
            r0, i0 = packed.get(key, (0, 0))
            packed[key] = (r0 + r * s, i0 + i * s)
        self._set(k, {m: c for m, c in packed.items() if c != (0, 0)}, den,
                  max((e[1] for e in entries), default=0))

    def _set(self, k, packed, den, degree_bound):
        if den != 1:
            g = gcd(den, *chain.from_iterable(packed.values()))
            if g != 1:
                den //= g
                packed = {m: (r // g, i // g) for m, (r, i) in packed.items()}
        self.k = k
        self.packed = packed
        self.den = den
        self.degree_bound = degree_bound if packed else 0
        self._terms = self._compiled = None

    @classmethod
    def from_packed(cls, k: int, packed: dict, den: int = 1,
                    degree_bound: int = 0) -> "Polynomial":
        """Wrap a packed dict without zero entries; reduces it by the gcd."""
        p = object.__new__(cls)
        p._set(k, packed, den, degree_bound)
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, k: int) -> "Polynomial":
        return cls.from_packed(k, {})

    @classmethod
    def constant(cls, k: int, c) -> "Polynomial":
        r, i, d = _scalar(c)
        return cls.from_packed(k, {0: (r, i)} if r or i else {}, d)

    @classmethod
    def variable(cls, k: int, var: tuple, coeff=1) -> "Polynomial":
        r, i, d = _scalar(coeff)
        key, deg = layout(k).encode(((var, 1),))
        return cls.from_packed(k, {key: (r, i)} if r or i else {}, d, deg)

    # -- ring operations --------------------------------------------------

    def _operand(self, other):
        if isinstance(other, _SCALARS):
            return Polynomial.constant(self.k, other)
        return other if isinstance(other, Polynomial) else None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return Polynomial.sum_of_products(self.k,
                                          [(1, (self,)), (1, (other,))])

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return Polynomial.sum_of_products(self.k,
                                          [(1, (self,)), (-1, (other,))])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Polynomial.sum_of_products(self.k, [(other, (self,))])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.sum_of_products(self.k, [(1, (self, other))])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.k, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(self.k, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.k == other.k and self.den == other.den
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.k, self.den, frozenset(self.packed.items())))

    def __bool__(self):
        return bool(self.packed)

    @classmethod
    def sum_of_products(cls, k: int, summands) -> "Polynomial":
        """sum c * P_1 * ... * P_m over the (c, (P_1, ..., P_m)) summands,
        with c an exact scalar and m >= 0 (no factors: the constant c).

        The leading factors of each summand are multiplied by `*`.  The last
        product of every summand then runs through `_accumulate` into one
        real and one imaginary dict over the common denominator D of all
        summands, with c * D / (the summand's denominator) folded into the
        smaller operand's coefficients.  The result is zero-filtered and
        reduced once, so an identity residual of many products costs one
        dict build, not one per `+`.
        """
        one = cls.constant(k, 1)
        products, den, bound = [], 1, 0
        for c, factors in summands:
            for f in factors:
                if f.k != k:
                    raise DimensionError(f"ambient k mismatch: {k} vs {f.k}")
            deg = sum(f.degree_bound for f in factors)
            if deg > FIELD_MAX:
                raise OverflowError(
                    f"product degree {deg} exceeds the exponent field "
                    f"({FIELD_MAX})")
            cr, ci, d = _scalar(c)
            if (cr or ci) and all(factors):
                left = reduce(mul, factors[:-1]) if len(factors) > 1 else one
                last = factors[-1] if factors else one
                d *= left.den * last.den
                products.append((cr, ci, d, left.packed, last.packed))
                den, bound = lcm(den, d), max(bound, deg)
        re: dict = {}
        im: dict = {}
        for cr, ci, d, a, b in products:
            if len(a) > len(b):
                a, b = b, a
            cr, ci = cr * den // d, ci * den // d
            if (cr, ci) != (1, 0):
                a = {m: (r * cr - i * ci, r * ci + i * cr)
                     for m, (r, i) in a.items()}
            a_re, a_im = _parts(a)
            b_re, b_im = _parts(b)
            _accumulate(re, a_re, b_re, 1)
            _accumulate(re, a_im, b_im, -1)
            _accumulate(im, a_re, b_im, 1)
            _accumulate(im, a_im, b_re, 1)
        out = {m: (r, 0) for m, r in re.items() if r}
        for m, i in im.items():
            if i:
                out[m] = (out.get(m, (0, 0))[0], i)
        return cls.from_packed(k, out, den, bound)

    # -- calculus / conjugation -------------------------------------------

    def partial(self, var: tuple) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        f = layout(self.k).field.get(var)
        if f is None:
            raise ValueError(f"unknown variable {var!r} for k={self.k}")
        shift = FIELD_BITS * f
        unit = 1 << shift
        out = {}
        for m, (r, i) in self.packed.items():
            e = (m >> shift) & FIELD_MAX
            if e:
                out[m - unit] = (r * e, i * e)
        return Polynomial.from_packed(self.k, out, self.den,
                                      max(self.degree_bound - 1, 0))

    def conjugate(self) -> "Polynomial":
        """Swap a <-> conj(a) and conjugate coefficients; aux vars unchanged."""
        lay = layout(self.k)
        amp_mask, shift, top = lay.amp_mask, lay.conj_shift, lay.aux_shift
        out = {
            ((m & amp_mask) << shift) | ((m >> shift) & amp_mask)
            | (m >> top << top):
            (r, -i)
            for m, (r, i) in self.packed.items()
        }
        return Polynomial.from_packed(self.k, out, self.den,
                                      self.degree_bound)

    # -- boundary form ----------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """Read-only {tuple monomial: GaussianRational}, decoded on first
        use and cached."""
        if self._terms is None:
            self._terms = _Terms(self.k, self.packed, self.den)
        return self._terms

    # -- numeric evaluation -----------------------------------------------

    def _share_coefficients(self):
        """Make equal coefficients of the packed dict one tuple object.

        No value changes, so `==`, `hash`, `terms` and `pretty()` do not
        either.  A pairing's thousands of terms carry a few dozen distinct
        coefficients (the 47 k=3 and k=4 registry invariants: 66,764 terms,
        51 distinct), and sharing them frees about 4 MB once those are
        compiled.  It runs when a polynomial is first evaluated, not where
        packed dicts are built: doing it in `_set`, for every intermediate,
        made a pass of exact checks about 45% slower.  Returns the distinct
        coefficients.
        """
        packed = self.packed
        shared: dict = {}
        for key, c in list(packed.items()):
            packed[key] = shared.setdefault(c, c)
        return shared

    def _compile(self) -> "_Compiled":
        """The split form shared by `evaluate` and `batch_evaluator`, built
        from the packed keys on first use.

        Each key is cut into its amplitude part (the low 2^k fields) and
        the rest (conjugate and auxiliary fields), and the distinct parts of
        both sides are numbered together, amplitude parts first.  With v
        the values of the parts the polynomial is
        sum_t coeffs[t] * v[left[t]] * v[right[t]]; the fields of
        `_Compiled` say what each array holds.  The power table has a row
        of ones, then row 1 + (e - 1) * fields + u holds the e-th power of
        the u-th used field.

        Each distinct coefficient is converted to complex once.
        """
        if self._compiled is None:
            distinct = self._share_coefficients()
            lay = layout(self.k)
            lows: dict = {}
            highs: dict = {}
            left, right = [], []
            for key in self.packed:
                low = key & lay.amp_mask
                left.append(lows.setdefault(low, len(lows)))
                right.append(highs.setdefault(key - low, len(highs)))
            exps = lay.exponent_matrix(list(lows) + list(highs))
            used = np.flatnonzero(exps.any(axis=0))
            exps = exps[:, used]
            rows, cols = np.nonzero(exps)
            counts = np.count_nonzero(exps, axis=1)
            index = np.zeros((int(counts.max(initial=1)), len(exps)),
                             dtype=np.intp)
            # np.nonzero walks the parts in order, so a factor's rank within
            # its part is its position minus the part's first position.  The
            # exponents are uint8: widen them before the row arithmetic.
            index[np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows],
                  rows] = (1 + (exps[rows, cols].astype(np.intp) - 1)
                           * len(used) + cols)
            den = self.den
            as_complex = {c: complex(c[0] / den, c[1] / den)
                          for c in distinct}
            n = lay.n
            self._compiled = _Compiled(
                coeffs=np.array([as_complex[c] for c in self.packed.values()],
                                dtype=complex),
                left=np.array(left, dtype=np.intp),
                right=np.array(right, dtype=np.intp) + len(lows),
                index=index,
                sources=used[used < 2 * n] % n,
                conj=int(np.count_nonzero(used < n)),
                aux_vars=tuple(lay.var[f] for f in used[used >= 2 * n]),
                top=int(exps.max(initial=0)),
            )
        return self._compiled

    def _kernel(self, amplitudes: np.ndarray, aux_assignment=None) -> np.ndarray:
        """Values at the rows of an (n, 2^k) complex amplitude array, with
        one aux assignment for every row.  Parts and terms are walked in
        blocks of at most _BLOCK elements per temporary array.  Overflow
        gives inf or nan without a warning: callers check finiteness."""
        form = self._compile()
        n = len(amplitudes)
        amps = len(form.sources)
        fields = amps + len(form.aux_vars)
        top = form.top
        table = np.empty((1 + top * fields, n), dtype=complex)
        table[0] = 1
        x = table[1:1 + fields]
        x[:amps] = amplitudes.T[form.sources]
        np.conjugate(x[form.conj:amps], out=x[form.conj:amps])
        for row, v in enumerate(form.aux_vars, amps):
            try:
                x[row] = aux_assignment[v[1:3]]
            except (KeyError, TypeError):
                raise EvaluationError(
                    f"unresolved auxiliary variable {v}") from None
        with np.errstate(over="ignore", invalid="ignore"):
            for e in range(1, top):
                np.multiply(table[1 + (e - 1) * fields:1 + e * fields], x,
                            out=table[1 + e * fields:1 + (e + 1) * fields])
            width, parts = form.index.shape
            values = np.empty((parts, n), dtype=complex)
            step = max(_BLOCK // (n * width), 1)
            for s in range(0, parts, step):
                np.multiply.reduce(table[form.index[:, s:s + step]], axis=0,
                                   out=values[s:s + step])
            coeffs, left, right = form.coeffs, form.left, form.right
            out = np.zeros(n, dtype=complex)
            step = max(_BLOCK // n, 1)
            for s in range(0, len(coeffs), step):
                out += coeffs[s:s + step] @ (values[left[s:s + step]]
                                             * values[right[s:s + step]])
            return out

    def evaluate(self, state: "State", aux_assignment: Mapping | None = None) -> complex:
        """Evaluate at a numeric state; aux_assignment maps (slot, comp) -> complex."""
        if state.k != self.k:
            raise DimensionError(f"ambient k mismatch: {self.k} vs {state.k}")
        a = np.asarray(state.amplitudes, dtype=complex)[None, :]
        return complex(self._kernel(a, aux_assignment)[0])

    def batch_evaluator(self):
        """Compile an auxiliary-free polynomial into a vectorized evaluator.

        Returns a callable mapping an (n, 2^k) complex amplitude array to an
        n-vector of values (a (2^k,) array to one value); the same kernel
        as `evaluate`, run on all rows at once.
        """
        dim = 2 ** self.k
        if self._compile().aux_vars:
            raise EvaluationError(
                "batch evaluation requires an auxiliary-free polynomial"
            )
        expected_k = self.k

        def run(amps: np.ndarray) -> np.ndarray:
            a = np.asarray(amps, dtype=complex)
            single = a.ndim == 1
            if single:
                a = a[None, :]
            if a.shape[1] != dim:
                raise DimensionError(
                    f"expected {dim} amplitudes (k={expected_k}), got {a.shape[1]}"
                )
            out = self._kernel(a)
            return out[0] if single else out

        return run

    # -- printing ---------------------------------------------------------

    def __repr__(self):
        return f"Polynomial(k={self.k}, {len(self.packed)} terms)"

    def pretty(self) -> str:
        """Deterministic human-readable form: sorted monomials, exact coefficients."""
        if not self.packed:
            return "0"
        lay, den = layout(self.k), self.den
        exps = lay.exponent_matrix(list(self.packed))[:, lay.order]
        # Sort the terms as their tuple monomials sort.  Comparing the
        # sparse (variable, exponent) lists is comparing the dense rows
        # with each zero read as 256 when a later variable occurs (it loses
        # to any exponent there) and as -1 when none does (a prefix).
        present = exps > 0
        later = np.cumsum(present[:, ::-1], axis=1)[:, ::-1] > present
        rank = np.where(present, exps, np.where(later, 256, -1))
        order = np.lexsort(rank.T[::-1])
        exps = exps[order]
        rows, cols = np.nonzero(exps)
        names = lay.names
        factors = [names[c] if e == 1 else f"{names[c]}^{e}"
                   for c, e in zip(cols.tolist(), exps[rows, cols].tolist())]
        ends = np.cumsum(np.count_nonzero(exps, axis=1)).tolist()
        coeffs = list(self.packed.values())
        shown: dict = {}
        parts = []
        start = 0
        for t, end in zip(order.tolist(), ends):
            c = coeffs[t]
            if c not in shown:
                shown[c] = repr(GaussianRational(Fraction(c[0], den),
                                                 Fraction(c[1], den)))
            parts.append(f"({shown[c]})*{'*'.join(factors[start:end]) or '1'}")
            start = end
        return " + ".join(parts)


def _parts(packed: dict) -> tuple:
    """The nonzero real and imaginary coefficients, as (key, int) lists."""
    return ([(m, r) for m, (r, _) in packed.items() if r],
            [(m, i) for m, (_, i) in packed.items() if i])


def _accumulate(acc: dict, left: list, right: list, sign: int):
    """acc += sign * left * right over packed monomials."""
    if len(left) > len(right):
        left, right = right, left
    get = acc.get
    for m1, c1 in left:
        c1 *= sign
        for m2, c2 in right:
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2


class _Terms(Mapping):
    """A polynomial as {tuple monomial: GaussianRational}: read-only,
    decoded from the packed form on first access; its length needs no
    decoding."""

    __slots__ = ("_k", "_packed", "_den", "_dict")

    def __init__(self, k, packed, den):
        self._k, self._packed, self._den = k, packed, den
        self._dict = None

    def _decoded(self) -> dict:
        if self._dict is None:
            lay, den = layout(self._k), self._den
            self._dict = {
                lay.decode(m): GaussianRational(Fraction(r, den),
                                                Fraction(i, den))
                for m, (r, i) in self._packed.items()
            }
        return self._dict

    def __len__(self):
        return len(self._packed)

    def __iter__(self):
        return iter(self._decoded())

    def __getitem__(self, mono):
        return self._decoded()[mono]

    def __repr__(self):
        return repr(self._decoded())


def ghz(k: int, normalized: bool = True) -> State:
    amps = [0j] * 2 ** k
    c = 1 / np.sqrt(2) if normalized else 1.0
    amps[0] = c
    amps[-1] = c
    return State(k, tuple(amps))


def w_state(k: int, normalized: bool = True) -> State:
    amps = [0j] * 2 ** k
    c = 1 / np.sqrt(k) if normalized else 1.0
    for j in range(k):
        amps[1 << j] = c
    return State(k, tuple(amps))


def basis_state(k: int, index: int) -> State:
    amps = [0j] * 2 ** k
    amps[index] = 1.0
    return State(k, tuple(amps))


def random_state(k: int, rng: np.random.Generator, normalized: bool = True) -> State:
    vec = rng.normal(size=2 ** k) + 1j * rng.normal(size=2 ** k)
    if normalized:
        vec = vec / np.linalg.norm(vec)
    return State(k, tuple(vec))
