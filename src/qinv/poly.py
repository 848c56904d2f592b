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
A polynomial is two dicts packed monomial -> int, its nonzero real and its
nonzero imaginary numerators, over one positive integer denominator; every
result is reduced so that the numerators and the denominator have gcd 1.
Equal polynomials therefore have equal dicts and denominators, and == and
hash are plain dict and int comparisons.  Its terms run in term order: the
real keys, then the imaginary-only ones.  Every polynomial the exact
checks and the numeric forms build is real, with an empty imaginary dict.

All exact arithmetic runs through one multiply-accumulate,
`Polynomial.sum_of_products`: sum c * P_1 * ... * P_m over a list of
summands.  The term pairs of each summand's last product form one real
and one imaginary stream over the common denominator of all summands,
read straight from the numerator dicts (a product of real polynomials has
only re x re pairs), and the result is reduced once.  A sum of fewer than
_PAIRS pairs is accumulated pair by pair into a dict (`_accumulate`); a
larger one is sorted and summed in numpy, _CHUNK pairs at a time
(`_sort_reduce`), and gives the same dicts in the same order, the order in
which the dict loop first meets each key.  Only numeric evaluation reads
that order (`numeric.NumericForm` adds terms in term order), but it reads
it to the last bit.  `+`, `-`, `*` by a scalar and `*` are its one- and
two-summand cases; the constructor, transvection, the pairing and the
identity residuals pass it their whole sum at once.

Each polynomial carries a bound on its total degree.  A monomial's total
degree bounds every exponent in it, so a product whose bound would exceed
the field width raises OverflowError instead of carrying into the next
field.

At the boundary a monomial is a sorted tuple of (variable, exponent) pairs
with positive exponents and a coefficient is a GaussianRational: the
constructor takes that form, validated, and `terms` gives it back.  The
fields run in the order of their variables, so a key's nonzero fields, read
from the least significant, are its tuple monomial.  `pretty()` reads the
keys of a polynomial once as (term, field, exponent) triples and lists the
terms as their tuple monomials sort: by their (field, exponent) sequences,
a prefix first, packed into int64 words and lexsorted.

Numeric evaluation is the `numeric` module's: `Polynomial.numeric`,
`evaluate` and `batch_evaluator` import it on first use, so exact work
never loads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, repeat
from math import factorial, gcd, lcm
from operator import mul

import numpy as np

from .gaussian import GaussianRational
from .state import (DimensionError, State, basis_state, ghz,
                    random_state, w_state)

FIELD_BITS = 8
FIELD_MAX = (1 << FIELD_BITS) - 1
# Term pairs from which `sum_of_products` sums in numpy (`_sort_reduce`)
# rather than in a dict (`_accumulate`).  On a 2-vCPU host, the 299 sums of
# 2^11 or more pairs met by the invariant, catalog, transvection and
# acceptance tests took 875 ms in dicts, and 571, 543, 552, 579 and 593 ms
# with the numpy path from 2^11, 2^12, 2^13, 2^14 and 2^15 pairs on (514
# and 515 ms at 2^12 and 2^13 in an earlier run).  Of the two, 2^13 sends
# fewer sums whose results are about as many as their pairs to numpy,
# which pays per result what the dict pays per pair.
_PAIRS = 1 << 13
# Term pairs formed and sorted at once by `_sort_reduce`.  At 2^12, 2^13,
# 2^14, 2^15 and 2^16, the six numpy sums of an exact-identities benchmark
# pass took 60.6, 52.9, 51.6, 45.1 and 50.5 ms (best of 7), and the
# 417k-pair syzygy residual peaked at 3.8, 4.1, 4.7, 7.0 and 8.1 MB of
# traced memory; the whole pass peaked at 60.1, 60.0 and 60.4 MB of RSS
# at 2^13, 2^14 and 2^15.
_CHUNK = 1 << 14


def amp(idx: int) -> tuple:
    return ("a", idx)


def amp_conj(idx: int) -> tuple:
    return ("ac", idx)


def aux(slot: int, comp: int) -> tuple:
    return ("x", slot, comp, 0)


class EvaluationError(KeyError):
    """A variable could not be resolved during numeric evaluation."""


class Layout:
    """Exponent fields of the variables over k qubits, and the shifts and
    mask that select the amplitude, conjugate and auxiliary blocks of a
    packed key."""

    def __init__(self, k: int):
        n = 2 ** k
        self.k, self.n = k, n
        self.var = (
            [amp(i) for i in range(n)]
            + [amp_conj(i) for i in range(n)]
            + [aux(slot, comp) for slot in range(1, k + 1) for comp in (0, 1)]
        )
        self.field = {v: f for f, v in enumerate(self.var)}
        # The fields already run in the order of their variable tuples.
        self.names = [_name(v, k) for v in self.var]
        block = FIELD_BITS * n
        self.conj_shift = block
        self.aux_shift = 2 * block
        self.amp_mask = (1 << block) - 1

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
        return tuple([(self.var[f], e) for f, e in exponents(key)])

    def exponent_matrix(self, keys) -> np.ndarray:
        """Key-by-field uint8 exponent matrix of a list of packed keys."""
        width = len(self.var)
        return np.frombuffer(
            b"".join([m.to_bytes(width, "little") for m in keys]),
            dtype=np.uint8).reshape(len(keys), width)


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
    """Exact sparse polynomial in packed form; immutable."""

    __slots__ = ("k", "_re", "_im", "den", "degree_bound", "_terms",
                 "_numeric")

    def __init__(self, k: int, terms: Mapping | None = None):
        """Build from {tuple monomial: coefficient}, validating both."""
        terms = terms or {}
        p = Polynomial.sum_of_products(k, [
            (c, (Polynomial.from_packed(k, {key: 1}, {}, 1, deg),))
            for (key, deg), c in zip(map(layout(k).encode, terms),
                                     terms.values())])
        self._set(k, p._re, p._im, p.den, p.degree_bound)

    def _set(self, k, re, im, den, degree_bound):
        if den != 1:
            g = gcd(den, *re.values(), *im.values())
            if g != 1:
                den //= g
                re = {m: c // g for m, c in re.items()}
                im = {m: c // g for m, c in im.items()}
        self.k, self._re, self._im, self.den = k, re, im, den
        self.degree_bound = degree_bound if re or im else 0
        self._terms = self._numeric = None

    @classmethod
    def from_packed(cls, k: int, re: dict, im: dict, den: int = 1,
                    degree_bound: int = 0) -> "Polynomial":
        """Wrap the dicts {packed key: numerator} of the nonzero real and
        imaginary numerators over `den`; reduces them by the gcd."""
        p = object.__new__(cls)
        p._set(k, re, im, den, degree_bound)
        return p

    def keys(self) -> list:
        """The packed keys in term order: the real, then imaginary-only."""
        re = self._re
        return [*re, *(m for m in self._im if m not in re)]

    def _columns(self) -> tuple:
        """(keys, real numerators, imaginary numerators), in term order."""
        re, im = self._re, self._im
        keys = self.keys()
        return (keys, [*re.values()] + [0] * (len(keys) - len(re)),
                list(map(im.get, keys, repeat(0))) if im else [0] * len(keys))

    def coefficient(self, key: int) -> GaussianRational:
        """The coefficient at a packed key, zero if it has no term."""
        return GaussianRational(Fraction(self._re.get(key, 0), self.den),
                                Fraction(self._im.get(key, 0), self.den))

    def degrees(self) -> list:
        """The distinct (amplitude, conjugate, slot 1, ..., slot k) degrees
        of the terms, in term order."""
        lay = layout(self.k)
        cuts = [0, lay.n, *range(2 * lay.n, len(lay.var), 2)]
        return list(dict.fromkeys(map(tuple, np.add.reduceat(
            lay.exponent_matrix(self.keys()), cuts, axis=1).tolist())))

    def aux_parts(self) -> dict:
        """A covariant split by auxiliary monomial: {aux key of m: the
        polynomial c_m(a) of its terms with aux monomial m}."""
        mask = -1 << layout(self.k).aux_shift
        parts: dict = {}
        for side, numerators in enumerate((self._re, self._im)):
            for m, c in numerators.items():
                parts.setdefault(m & mask, ({}, {}))[side][m & ~mask] = c
        return {m: Polynomial.from_packed(self.k, *part, self.den,
                                          self.degree_bound)
                for m, part in parts.items()}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, k: int) -> "Polynomial":
        return cls.from_packed(k, {}, {})

    @classmethod
    def constant(cls, k: int, c) -> "Polynomial":
        r, i, d = _scalar(c)
        return cls.from_packed(k, {0: r} if r else {}, {0: i} if i else {}, d)

    @classmethod
    def variable(cls, k: int, var: tuple, coeff=1) -> "Polynomial":
        r, i, d = _scalar(coeff)
        key, deg = layout(k).encode(((var, 1),))
        return cls.from_packed(k, {key: r} if r else {},
                               {key: i} if i else {}, d, deg)

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
                and self._re == other._re and self._im == other._im)

    def __hash__(self):
        return hash((self.k, self.den, frozenset(self._re.items()),
                     frozenset(self._im.items())))

    def __bool__(self):
        return bool(self._re or self._im)

    @classmethod
    def sum_of_products(cls, k: int, summands) -> "Polynomial":
        """sum c * P_1 * ... * P_m over the (c, (P_1, ..., P_m)) summands,
        with c an exact scalar and m >= 0 (no factors: the constant c).

        The leading factors of each summand are multiplied by `*`.  The last
        product of every summand then makes blocks of term pairs over the
        common denominator D of all summands, with c * D / (the summand's
        denominator) folded into the operand with fewer numerators: the real
        stream takes re x re, then -im x im, the imaginary stream re x im,
        then im x re, each block the pairs of two nonempty numerator dicts,
        left-major with the shorter on the left.  The streams are summed by
        `_accumulate` or, from _PAIRS pairs on, by `_sort_reduce`, to the
        same dicts in the same order, and the result is reduced once, so an
        identity residual of many products costs one reduction, not one
        per `+`.
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
                products.append((cr, ci, d, left, last))
                den, bound = lcm(den, d), max(bound, deg)
        blocks, pairs = ([], []), 0
        for cr, ci, d, a, b in products:
            if len(a._re) + len(a._im) > len(b._re) + len(b._im):
                a, b = b, a
            (a_re, a_im), b_re, b_im = _times(a, cr * den // d,
                                              ci * den // d), b._re, b._im
            neg = {m: -c for m, c in a_im.items()} if b_im else {}
            for s, x, y in ((0, a_re, b_re), (0, neg, b_im), (1, a_re, b_im),
                            (1, a_im, b_re)):
                if x and y:
                    blocks[s].append((x, y) if len(x) <= len(y) else (y, x))
                    pairs += len(x) * len(y)
        re, im = (_sort_reduce(k, s) if s and pairs >= _PAIRS
                  else _accumulate(s) for s in blocks)
        return cls.from_packed(k, re, im, den, bound)

    # -- calculus / conjugation -------------------------------------------

    def partial(self, var: tuple) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        f = layout(self.k).field.get(var)
        if f is None:
            raise ValueError(f"unknown variable {var!r} for k={self.k}")
        shift = FIELD_BITS * f
        unit = 1 << shift
        re, im = {}, {}
        for out, numerators in ((re, self._re), (im, self._im)):
            for m, c in numerators.items():
                if e := (m >> shift) & FIELD_MAX:
                    out[m - unit] = c * e
        return Polynomial.from_packed(self.k, re, im, self.den,
                                      max(self.degree_bound - 1, 0))

    def conjugate(self) -> "Polynomial":
        """Swap a <-> conj(a) and conjugate coefficients; aux vars unchanged."""
        lay = layout(self.k)
        amp_mask, shift, top = lay.amp_mask, lay.conj_shift, lay.aux_shift
        re, im = ({((m & amp_mask) << shift) | ((m >> shift) & amp_mask)
                   | (m >> top << top): c for m, c in numerators.items()}
                  for numerators in (self._re,
                                     {m: -c for m, c in self._im.items()}))
        return Polynomial.from_packed(self.k, re, im, self.den,
                                      self.degree_bound)

    # -- boundary form ----------------------------------------------------

    @property
    def terms(self) -> Mapping:
        """Read-only {tuple monomial: GaussianRational}, decoded on first
        use and cached."""
        if self._terms is None:
            self._terms = _Terms(self)
        return self._terms

    # -- numeric evaluation -----------------------------------------------

    def _form(self) -> "NumericForm":
        """The one-output form {<self|1>: 1}, built once."""
        if self._numeric is None:
            from .numeric import NumericForm

            self._numeric = NumericForm(self.k, [{((self, None),): 1}])
        return self._numeric

    def numeric(self) -> "NumericForm":
        """The numeric form of an auxiliary-free polynomial.  A polynomial
        with auxiliary variables raises EvaluationError: its leaf <self|1>
        would read only its aux-free part."""
        # The aux fields are the top ones of a key.
        if max(self.keys(), default=0) >> layout(self.k).aux_shift:
            raise EvaluationError(
                "numeric evaluation requires an auxiliary-free polynomial")
        return self._form()

    def evaluate(self, state: "State", aux_assignment: Mapping | None = None) -> complex:
        """Evaluate at a numeric state; aux_assignment maps (slot, comp) ->
        complex.  The value is the sum of the polynomial's aux-coefficients
        at the state, each times the value of its aux monomial."""
        var = layout(self.k).var
        total = 0j
        for m, value in self._form().aux_coefficients(self, state).items():
            for f, e in exponents(m):
                v = var[f]
                try:
                    x = complex(aux_assignment[v[1:3]])
                except (KeyError, TypeError):
                    raise EvaluationError(
                        f"unresolved auxiliary variable {v}") from None
                # A product gives inf where complex ** raises OverflowError.
                for _ in range(e):
                    value *= x
            total += value
        return total

    def batch_evaluator(self):
        """The vectorized evaluator of an auxiliary-free polynomial (see
        `NumericForm.batch_evaluator`)."""
        return self.numeric().batch_evaluator()

    # -- printing ---------------------------------------------------------

    def __repr__(self):
        return f"Polynomial(k={self.k}, {len(self.keys())} terms)"

    def pretty(self) -> str:
        """Deterministic human-readable form: sorted monomials, exact coefficients."""
        if not self:
            return "0"
        lay, den = layout(self.k), self.den
        keys, re, im = self._columns()
        terms, width = len(keys), len(lay.var)
        # One (term, code) pair per nonzero field of a key, term-major and by
        # field within a term, with code = field * 256 + exponent; the codes
        # are then renumbered 1, 2, ... in their order.
        exps = lay.exponent_matrix(keys).ravel()
        at = np.flatnonzero(exps != 0)
        term, code = np.divmod(at.astype(np.int32), width)
        code <<= FIELD_BITS
        code |= exps[at]
        del exps, at
        used = np.bincount(code) > 0
        code = np.cumsum(used, dtype=np.int32)[code]
        used = np.flatnonzero(used).tolist()
        counts = np.bincount(term, minlength=terms)
        rank = np.arange(len(term)) - (np.cumsum(counts) - counts)[term]
        # The fields run in the order of their variables, so the terms sort
        # as their tuple monomials when their code sequences sort, a prefix
        # first.  Each int64 word packs `per` codes, the first in the high
        # bits, and a missing code reads 0.
        bits = len(used).bit_length() or 1
        per = 63 // bits
        dense = np.zeros((terms, max(1, -(-int(counts.max()) // per)) * per),
                         dtype=np.int64)
        dense[term, rank] = code
        keys = np.zeros((dense.shape[1] // per, terms), dtype=np.int64)
        for i, column in enumerate(dense.T):
            keys[i // per] <<= bits
            keys[i // per] |= column
        del dense
        order = np.lexsort(keys[::-1])
        # The string is one token per term, " + (coefficient)", then one per
        # factor, "*name" or "*name^e": each is an index into the strings of
        # the distinct coefficients, then of the distinct codes.
        counts = counts[order]
        spot = np.empty(terms, dtype=np.intp)
        spot[order] = np.arange(terms) + np.cumsum(counts) - counts
        ids = {c: i for i, c in enumerate(set(zip(re, im)))}
        names = lay.names
        strings = [" + (" + repr(GaussianRational(Fraction(r, den),
                                                  Fraction(i, den))) + ")"
                   for r, i in ids]
        strings += [f"*{names[c >> FIELD_BITS]}^{c & FIELD_MAX}"
                    if c & FIELD_MAX > 1 else f"*{names[c >> FIELD_BITS]}"
                    for c in used]
        index = np.empty(terms + len(term), dtype=np.intp)
        index[spot] = list(map(ids.__getitem__, zip(re, im)))
        index[spot[term] + 1 + rank] = code + (len(ids) - 1)
        tokens = np.array(strings, dtype=object)[index].tolist()
        # Only the first term can be the constant, shown as "(c)*1".
        tokens[0] = tokens[0][3:] + ("" if counts[0] else "*1")
        return "".join(tokens)


def _times(p: Polynomial, cr: int, ci: int) -> tuple:
    """The real and imaginary numerator dicts of (cr + i ci) * p; a complex
    factor gives them in the term order of p."""
    re, im = p._re, p._im
    if not ci:
        return (re, im) if cr == 1 else ({m: c * cr for m, c in re.items()},
                                        {m: c * cr for m, c in im.items()})
    items = list(zip(*p._columns()))
    return ({m: x for m, r, i in items if (x := r * cr - i * ci)},
            {m: x for m, r, i in items if (x := r * ci + i * cr)})


def _accumulate(blocks) -> dict:
    """The nonzero sums of left * right over the (left, right) blocks of
    {key: int} dicts, keyed in order of first appearance, left-major."""
    acc: dict = {}
    get = acc.get
    for left, right in blocks:
        right = right.items()
        for m1, c1 in left.items():
            for m2, c2 in right:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c} if 0 in acc.values() else acc


def _sort_reduce(k: int, blocks) -> dict:
    """`_accumulate(blocks)`, in its order, formed in numpy.

    Pair p of the stream is (left i, right j) of its block, left-major.
    The keys of the distinct dicts are numbered once and become
    mixed-radix codes: a field's radix is 1 + the largest exponent sum a
    block reaches there, and the fields are split into as many int64 words
    as keep every code below 2^(63 - bits), bits = bit length of the pair
    count, so a pair's code is the sum of its terms' codes and a sort
    position fits beside it.  The pairs are formed in pieces of at most
    _CHUNK pairs (a longer row is one piece); once the pieces hold
    _CHUNK pairs and as many as the partial sums, `_reduce` merges them
    all.  Coefficients are int64 when the sum over blocks of
    (sum |left|) * (sum |right|), a bound on every partial sum, is below
    2^63, and Python ints otherwise.  Each nonzero sum is keyed by the sum
    of the keys of its least p, in order of that p."""
    dicts = list({id(x): x for x in chain.from_iterable(blocks)}.values())
    number = {id(x): n for n, x in enumerate(dicts)}
    keys = list(chain.from_iterable(dicts))
    exps = layout(k).exponent_matrix(keys)
    sizes = np.array([len(x) for x in dicts], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    left, right = (np.array([number[id(b[i])] for b in blocks]) for i in (0, 1))
    lo, rows, ro, cols = starts[left], sizes[left], starts[right], sizes[right]
    first = np.cumsum(rows * cols) - rows * cols
    total = int(first[-1] + rows[-1] * cols[-1])
    bits = total.bit_length()
    top = np.maximum.reduceat(exps, starts).astype(np.int64)
    reach = (top[left] + top[right]).max(axis=0)
    weights, place = [np.zeros_like(reach)], 1
    for f in np.flatnonzero(reach).tolist():
        if place * (int(reach[f]) + 1) > 1 << (63 - bits):
            weights, place = weights + [np.zeros_like(reach)], 1
        weights[-1][f] = place
        place *= int(reach[f]) + 1
    codes = np.array(weights) @ exps.T
    norm = np.array([sum(map(abs, x.values())) for x in dicts], dtype=object)
    val = np.array([c for x in dicts for c in x.values()], dtype=object
                   if (norm[left] * norm[right]).sum() >> 63 else np.int64)

    def pieces():
        for i, m, j, n in zip(*(a.tolist() for a in (lo, rows, ro, cols))):
            step = max(1, _CHUNK // n)
            for r in range(i, i + m, step):
                e = min(r + step, i + m)
                yield ((codes[:, r:e, None] + codes[:, None, j:j + n])
                       .reshape(len(codes), -1),
                       (val[r:e, None] * val[j:j + n]).ravel())

    merged, pending, done = (codes[:, :0], first[:0], val[:0]), [], 0
    for c, v in pieces():
        pending.append((c, np.arange(done, done + len(v)), v))
        done += len(v)
        if done == total or (done - pending[0][1][0]
                             >= max(_CHUNK, len(merged[1]))):
            merged = _reduce(*(np.concatenate(x, axis=-1)
                               for x in zip(merged, *pending)), bits)
            pending = []
    _, least, sums = merged
    keep = np.flatnonzero(sums != 0)
    keep = keep[np.argsort(least[keep])]
    b = np.searchsorted(first, least[keep], "right") - 1
    i, j = np.divmod(least[keep] - first[b], cols[b])
    keys = np.array(keys, dtype=object)
    return dict(zip((keys[lo[b] + i] + keys[ro[b] + j]).tolist(),
                    sums[keep].tolist()))


def _reduce(codes, least, sums, bits: int) -> tuple:
    """(codes, least, sums) with one column per distinct code (a column of
    `codes`): its first `least` and the total of its `sums`.  The sort is
    stable: each word, below 2^(63 - bits), is sorted with the position of
    its column in the low `bits` bits, last word first."""
    order = index = np.arange(codes.shape[1])
    for word in codes[::-1]:
        order = order[np.sort(word[order] << bits | index)
                      & ((1 << bits) - 1)]
    codes = codes[:, order]
    runs = np.flatnonzero(np.r_[True, (codes[:, 1:] != codes[:, :-1]).any(0)])
    return (codes[:, runs], least[order[runs]],
            np.add.reduceat(sums[order], runs))


class _Terms(Mapping):
    """A polynomial as {tuple monomial: GaussianRational}, in term order:
    read-only.  The monomials are decoded from the packed keys once, on
    first access, and the values only when one is looked up; its length
    needs no decoding."""

    __slots__ = ("_poly", "_monomials", "_dict")

    def __init__(self, poly):
        self._poly, self._monomials, self._dict = poly, None, None

    def monomials(self) -> list:
        """The tuple monomials, in term order."""
        if self._monomials is None:
            self._monomials = list(map(layout(self._poly.k).decode,
                                       self._poly.keys()))
        return self._monomials

    def _decoded(self) -> dict:
        if self._dict is None:
            (_, re, im), den = self._poly._columns(), self._poly.den
            self._dict = {
                m: GaussianRational(Fraction(r, den), Fraction(i, den))
                for m, r, i in zip(self.monomials(), re, im)
            }
        return self._dict

    def __len__(self):
        return len(self._poly.keys())

    def __iter__(self):
        return iter(self.monomials())

    def __getitem__(self, mono):
        return self._decoded()[mono]

    def __repr__(self):
        return repr(self._decoded())


def _weight(aux_key: int) -> int:
    """w(m) = prod_j p_j! q_j! for the slot-j exponents (p_j, q_j) of an aux
    monomial: the permanent of its Gram matrix under <x_i|y_j> = delta."""
    w = 1
    for _f, e in exponents(aux_key):
        w *= factorial(e)
    return w

