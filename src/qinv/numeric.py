"""Numeric evaluation, scalar and batched, through one class.

`NumericForm` evaluates polynomials in pairings <A|B> of polynomials, where
a plain polynomial P is the one leaf <P|1> (`Polynomial.numeric`).  The form
stacks the distinct polynomials of its leaves into one set of term arrays
and runs one kernel on them.  Each term adds c times the product of its
amplitude and conjugate factors, read from a table of powers, to its
(polynomial, aux monomial) slot.  So the kernel gives the value of every
aux-coefficient c_m(a, abar) of every stacked polynomial: a pairing is
sum_m w(m) c_m conj(d_m) over them, formed without expanding it, a plain
leaf <P|1> is P's aux-free slot, and `Polynomial.evaluate` multiplies each
aux-coefficient (`NumericForm.aux_coefficients`) by the value of its aux
monomial.  No numeric path expands a pairing, so the stacked polynomials
are holomorphic covariants, whose terms share few amplitude parts (the k=4
registry: 4,648 terms over 3,717); each term is therefore valued on its
own, and the terms are walked in blocks of a fixed number of elements so
that the temporaries stay small.
"""

from __future__ import annotations

import numpy as np

from .poly import _weight, layout
from .state import DimensionError, State

# Elements in the term values of one block of the numeric kernel: a block
# is _BLOCK // n terms at n rows, 128 KiB of complex, and its gathered
# factors are `width` times as many.  Each slot's terms are summed block by
# block, so the block edges fix where a slot's partial sums split, and
# another size moves the last bits of the values.  On a 2-vCPU Linux host,
# expanded f7 on 33 rows took 4.2, 4.7 and 4.6 ms per call at 2^13, 2^14
# and 2^15 elements.
_BLOCK = 1 << 13


class NumericForm:
    """The numeric evaluator: polynomials in pairings of polynomials,
    evaluated without expanding a pairing.

    `outputs` is a list of dicts, each mapping a product of leaves (a tuple
    of pairs (A, B) of polynomials, None standing for 1 on one side) to an
    exact coefficient.  With A = sum_m c_m(a) m(x) over aux monomials m, and
    B likewise with aux-coefficients d_m, a leaf is the pairing
    <A|B> = sum_m w(m) c_m conj(d_m), so <P|1> is the aux-free part of P.
    The distinct polynomials of all leaves are stacked, in order of first
    appearance, into one set of term arrays (`_stack`) whose slots are the
    (polynomial, aux monomial) pairs, so one `_kernel` call gives every
    slot value U.  A leaf <A|B> then sums w(m) U[A, m] conj(U[B, m]); a
    plain leaf <P|1> is the row U[P, 0] itself and <1|P> its conjugate.
    Each output multiplies the leaf values along its products, padded to
    one width with a row of ones, and sums them with the coefficients.

    `values` maps an (n, 2^k) amplitude array to the (outputs, n) array of
    values; `evaluate` and `batch_evaluator` give the first output.
    """

    def __init__(self, k: int, outputs):
        self.k = k
        outputs = list(outputs)
        sides: dict = {}

        def leaf(a, b):
            """The number of the leaf <a|b>."""
            return sides.setdefault((id(a), id(b)), (len(sides), a, b))[0]

        products = [(i, [leaf(a, b) for a, b in m], c)
                    for i, out in enumerate(outputs) for m, c in out.items()]
        polys = {id(p): p for _, a, b in sides.values() for p in (a, b)
                 if p is not None}
        slots = self._slots = dict(zip(polys, self._stack(polys.values())))
        # The rows of the leaf values: the pairings, then the plain leaves
        # <P|1>, then the <1|P>, then (row -1) the row of ones.  The
        # (weight, slot in A, slot in B) pairs of each pairing lie leaf
        # after leaf; a leaf whose sides share no aux monomial is zero and
        # gets no row.
        pairs, starts, direct, conj, row = [], [], [], [], {}
        for j, a, b in sides.values():
            if a is None or b is None:
                r = slots[id(b if a is None else a)].get(0)
                if r is not None:
                    (conj if a is None else direct).append((j, r))
                continue
            sa, sb = slots[id(a)], slots[id(b)]
            common = [(_weight(m), r, sb[m]) for m, r in sa.items()
                      if m in sb]
            if common:
                row[j] = len(starts)
                starts.append(len(pairs))
                pairs += common
        plain = direct + conj
        row.update((j, len(starts) + i) for i, (j, _) in enumerate(plain))
        self._weights = np.array([w for w, _, _ in pairs],
                                 dtype=float)[:, None]
        self._pa = np.array([r for _, r, _ in pairs], dtype=np.intp)
        self._pb = np.array([r for _, _, r in pairs], dtype=np.intp)
        self._starts = np.array(starts, dtype=np.intp)
        self._plain = np.array([r for _, r in plain], dtype=np.intp)
        self._direct = len(direct)
        # Column q of gamma holds the coefficients of the q-th distinct
        # product of leaves in each output, and column q of `_products` the
        # rows of its leaves.
        width = max([1] + [len(m) for _, m, _ in products])
        cols: dict = {}
        entries = [(i, cols.setdefault(tuple(row[j] for j in m), len(cols)), c)
                   for i, m, c in products if all(j in row for j in m)]
        self._gamma = np.zeros((len(outputs), len(cols)), dtype=complex)
        for i, q, c in entries:
            self._gamma[i, q] += complex(c)
        self._products = np.array(
            [list(m) + [-1] * (width - len(m)) for m in cols],
            dtype=np.intp).reshape(len(cols), width).T

    def _stack(self, polys) -> list:
        """Stack the terms of the polynomials into the kernel's arrays and
        return, for each polynomial, the dict aux monomial -> slot.

        The terms are grouped by (polynomial, aux monomial) slot: `_slot`
        holds each term's slot and `_slot_starts` the first term of each.
        Column t of `_factors` names the rows of the power table whose
        product is the value of term t's amplitude and conjugate factors,
        padded with row 0, a row of ones.  Row 1 + (e - 1) * fields + u
        holds the e-th power of the u-th used field (`_sources` gives its
        amplitude; the first `_conj` are amplitudes, the rest conjugates),
        up to the power `_top`.  Each distinct coefficient of a polynomial
        is converted to complex once.
        """
        lay = layout(self.k)
        aux_mask = -1 << lay.aux_shift
        keys, coeffs, starts, slots = [], [], [], []
        for p in polys:
            own, re, im = p._columns()
            as_complex = {c: complex(c[0] / p.den, c[1] / p.den)
                          for c in set(zip(re, im))}
            values = list(map(as_complex.__getitem__, zip(re, im)))
            groups: dict = {}
            for n, key in enumerate(own):
                groups.setdefault(key & aux_mask, []).append(n)
            rows = {}
            for m, group in groups.items():
                rows[m] = len(starts)
                starts.append(len(keys))
                keys += [own[n] for n in group]
                coeffs += [values[n] for n in group]
            slots.append(rows)
        exps = lay.exponent_matrix(keys)[:, :2 * lay.n]
        used = np.flatnonzero(exps.any(axis=0))
        exps = exps[:, used]
        rows, cols = np.nonzero(exps)
        counts = np.count_nonzero(exps, axis=1)
        factors = np.zeros((int(counts.max(initial=1)), len(exps)),
                           dtype=np.intp)
        # np.nonzero walks the terms in order, so a factor's rank within its
        # term is its position minus the term's first position.  The
        # exponents are uint8: widen them before the row arithmetic.
        factors[np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows],
                rows] = (1 + (exps[rows, cols].astype(np.intp) - 1) * len(used)
                         + cols)
        self._coeffs = np.array(coeffs, dtype=complex)
        self._slot = np.repeat(np.arange(len(starts)),
                               np.diff(starts + [len(keys)]))
        self._slot_starts = np.array(starts, dtype=np.intp)
        self._factors = factors
        self._sources = used % lay.n
        self._conj = int(np.count_nonzero(used < lay.n))
        self._top = int(exps.max(initial=0))
        return slots

    def _kernel(self, amplitudes: np.ndarray) -> np.ndarray:
        """The values of every slot at the rows of an (n, 2^k) complex
        amplitude array: the (slots, n) array whose row r is the sum over
        the terms t of slot r of c_t times the product of t's factors.

        The terms are walked in blocks of _BLOCK // n.  Overflow gives inf
        or nan without a warning: callers check finiteness."""
        n = len(amplitudes)
        fields = len(self._sources)
        top = self._top
        table = np.empty((1 + top * fields, n), dtype=complex)
        table[0] = 1
        x = table[1:1 + fields]
        x[:] = amplitudes.T[self._sources]
        np.conjugate(x[self._conj:], out=x[self._conj:])
        with np.errstate(over="ignore", invalid="ignore"):
            for e in range(1, top):
                np.multiply(table[1 + (e - 1) * fields:1 + e * fields], x,
                            out=table[1 + e * fields:1 + (e + 1) * fields])
            coeffs, factors = self._coeffs, self._factors
            slot, starts = self._slot, self._slot_starts
            out = np.zeros((len(starts), n), dtype=complex)
            step = max(_BLOCK // max(n, 1), 1)
            for s in range(0, len(coeffs), step):
                # The slots whose runs of terms meet this block; the first
                # may have begun in an earlier block.
                e = min(s + step, len(coeffs))
                lo, hi = slot[s], slot[e - 1] + 1
                runs = starts[lo:hi] - s
                runs[0] = 0
                terms = np.multiply.reduce(table[factors[:, s:e]], axis=0)
                terms *= coeffs[s:e, None]
                out[lo:hi] += np.add.reduceat(terms, runs, axis=0)
            return out

    def values(self, amplitudes: np.ndarray) -> np.ndarray:
        """The (outputs, n) values at the rows of an (n, 2^k) complex
        amplitude array: one kernel call, then the leaves and the tops."""
        u = self._kernel(amplitudes)
        pairs = len(self._starts)
        leaves = np.empty((pairs + len(self._plain) + 1, len(amplitudes)),
                          dtype=complex)
        leaves[-1] = 1
        with np.errstate(over="ignore", invalid="ignore"):
            if pairs:
                p = u[self._pa]
                p *= np.conjugate(u[self._pb])
                p *= self._weights
                np.add.reduceat(p, self._starts, axis=0, out=leaves[:pairs])
            if len(self._plain):
                plain = leaves[pairs:-1]
                np.take(u, self._plain, axis=0, out=plain)
                np.conjugate(plain[self._direct:], out=plain[self._direct:])
            prod = leaves[self._products[0]]
            for rows in self._products[1:]:
                prod *= leaves[rows]
            return self._gamma @ prod

    def aux_coefficients(self, poly, state: State) -> dict:
        """{aux key m: c_m at the state} for a polynomial of this form's
        leaves, m in term order: the values of its (poly, m) slots, from
        one kernel call."""
        u = self._kernel(self._row(state))[:, 0].tolist()
        return {m: u[r] for m, r in self._slots[id(poly)].items()}

    def _row(self, state: State) -> np.ndarray:
        """The (1, 2^k) amplitude array of a state over k qubits."""
        if state.k != self.k:
            raise DimensionError(f"ambient k mismatch: {self.k} vs {state.k}")
        return np.asarray(state.amplitudes, dtype=complex)[None, :]

    def evaluate(self, state: State) -> complex:
        return complex(self.values(self._row(state))[0, 0])

    def batch_evaluator(self):
        """The vectorized evaluator of the first output: it takes an
        (n, 2^k) complex amplitude array to an n-vector and a (2^k,) array
        to one value, and raises DimensionError for any other shape."""
        dim = 2 ** self.k

        def run(amps: np.ndarray) -> np.ndarray:
            a = np.asarray(amps, dtype=complex)
            if a.ndim not in (1, 2) or a.shape[-1] != dim:
                raise DimensionError(
                    f"expected a row or rows of {dim} amplitudes "
                    f"(k={self.k}), got shape {a.shape}")
            out = self.values(np.atleast_2d(a))[0]
            return out[0] if a.ndim == 1 else out

        return run
