"""Covariants and the transvection (Omega-process) operation.

A covariant is a polynomial in the amplitudes a and the plain auxiliary
variables x^(j)_b that is homogeneous of degree d in the amplitudes and of
degree alpha_j in each auxiliary slot.  Transvection

    (phi, psi)^(e1...ek)

copies phi onto primed and psi onto double-primed auxiliary variables,
applies the determinant operator

    Omega_j = d/dx'_{j,0} d/dx''_{j,1} - d/dx'_{j,1} d/dx''_{j,0}

e_j times per slot, then identifies primed and double-primed variables with
the plain ones.  No normalization factor is applied beyond the literal
operator, so catalog identities against the literature hold up to a single
rational scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .gaussian import GaussianRational
from .poly import DimensionError, Polynomial, State, aux, layout


@dataclass(frozen=True)
class Covariant:
    """A polynomial covariant with its degree bookkeeping.

    The constructor validates every term; results of `transvect`, `*`, `**`
    and `named` carry degrees that follow from their operands and skip it.
    """

    poly: Polynomial
    amp_degree: int
    multidegree: tuple
    name: str = ""

    def __post_init__(self):
        if len(self.multidegree) != self.poly.k:
            raise DimensionError("multidegree length must equal ambient k")
        _check_homogeneous(self.poly, self.amp_degree, self.multidegree)

    @property
    def k(self) -> int:
        return self.poly.k

    def named(self, name: str) -> "Covariant":
        """The same covariant under another name."""
        return unchecked(Covariant, self.poly, self.amp_degree,
                         self.multidegree, name)

    def __mul__(self, other):
        if isinstance(other, Covariant):
            return unchecked(
                Covariant,
                self.poly * other.poly,
                self.amp_degree + other.amp_degree,
                tuple(a + b for a, b in zip(self.multidegree, other.multidegree)),
            )
        if isinstance(other, (int, Fraction, GaussianRational)):
            return unchecked(Covariant, self.poly * other, self.amp_degree,
                             self.multidegree)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return unchecked(
            Covariant,
            self.poly ** n,
            self.amp_degree * n,
            tuple(a * n for a in self.multidegree),
        )

    def evaluate(self, state: State, aux_assignment=None) -> complex:
        return self.poly.evaluate(state, aux_assignment)

    def is_invariant(self) -> bool:
        return all(a == 0 for a in self.multidegree)


def unchecked(cls, *values):
    """An instance of a frozen dataclass built from `values` in field order,
    without running its validating __post_init__."""
    obj = object.__new__(cls)
    for i, f in enumerate(fields(cls)):
        object.__setattr__(obj, f.name, values[i] if i < len(values) else f.default)
    return obj


def _check_homogeneous(poly: Polynomial, d: int, alpha: tuple):
    lay = layout(poly.k)
    n, k = lay.n, poly.k
    for m in poly.packed:
        if m & lay.conj_mask:
            raise ValueError("covariants must not contain conjugate amplitudes")
        if m & lay.primed_mask:
            raise ValueError("covariants must not contain primed variables")
        e = lay.fields(m)
        amp_deg = sum(e[:n])
        slot = tuple(e[2 * n + 2 * j] + e[2 * n + 2 * j + 1] for j in range(k))
        if amp_deg != d or slot != alpha:
            raise ValueError(
                f"non-homogeneous term: amp degree {amp_deg} (want {d}), "
                f"slots {slot} (want {alpha})"
            )


def _recopy(poly: Polynomial, copy: int) -> Polynomial:
    """Move every plain auxiliary variable to the given copy index."""
    lay = layout(poly.k)
    plain, shift = lay.plain_mask, copy * lay.copy_shift
    out = {(m & ~plain) | ((m & plain) << shift): c
           for m, c in poly.packed.items()}
    return Polynomial.from_packed(poly.k, out, poly.den, poly.degree_bound)


def _identify_copies(poly: Polynomial) -> Polynomial:
    """Rename primed and double-primed variables back to plain ones."""
    lay = layout(poly.k)
    shift, width = lay.aux_shift, lay.copy_shift
    low = (1 << width) - 1
    amps = (1 << shift) - 1
    out: dict = {}
    for m, (r, i) in poly.packed.items():
        x = m >> shift
        key = (m & amps) | (
            ((x & low) + ((x >> width) & low) + (x >> 2 * width)) << shift)
        old = out.get(key)
        if old is None:
            out[key] = (r, i)
        else:
            r, i = old[0] + r, old[1] + i
            if r or i:
                out[key] = (r, i)
            else:
                del out[key]
    return Polynomial.from_packed(poly.k, out, poly.den, poly.degree_bound)


def transvect(phi: Covariant, psi: Covariant, eps: tuple) -> Covariant:
    """Multi-slot transvection (phi, psi)^eps; literal operator, no rescaling."""
    if phi.k != psi.k:
        raise DimensionError(f"ambient k mismatch: {phi.k} vs {psi.k}")
    k = phi.k
    if len(eps) != k:
        raise DimensionError("epsilon length must equal ambient k")
    for j, e in enumerate(eps):
        if e < 0 or e > min(phi.multidegree[j], psi.multidegree[j]):
            raise ValueError(
                f"inadmissible epsilon: slot {j + 1} order {e} exceeds "
                f"min({phi.multidegree[j]}, {psi.multidegree[j]})"
            )
    work = _recopy(phi.poly, 1) * _recopy(psi.poly, 2)
    for j in range(k):
        for _ in range(eps[j]):
            work = (
                work.partial(aux(j + 1, 0, 1)).partial(aux(j + 1, 1, 2))
                - work.partial(aux(j + 1, 1, 1)).partial(aux(j + 1, 0, 2))
            )
    result = _identify_copies(work)
    d = phi.amp_degree + psi.amp_degree
    alpha = tuple(
        phi.multidegree[j] + psi.multidegree[j] - 2 * eps[j] for j in range(k)
    )
    return unchecked(Covariant, result, d, alpha)


# -- numeric group actions ------------------------------------------------


def act_on_state(g, s: State) -> State:
    """Apply a k-tuple of invertible 2x2 matrices to the amplitude tensor.

    The transformed amplitudes a' are defined by
    sum a x = sum a' x' with x'^(j) = g^(j) x^(j), which works out to
    a' = (tensor_j (g^(j))^-T) a.
    """
    mats = [np.asarray(m, dtype=complex) for m in g]
    if len(mats) != s.k:
        raise DimensionError(f"expected {s.k} matrices, got {len(mats)}")
    for m in mats:
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("singular local matrix")
    arr = np.array(s.amplitudes, dtype=complex).reshape((2,) * s.k)
    for j, m in enumerate(mats):
        t = np.linalg.inv(m).T
        arr = np.moveaxis(np.tensordot(t, arr, axes=([1], [j])), 0, j)
    return State(s.k, tuple(arr.reshape(-1)))


def transformed_aux(g, vectors) -> dict:
    """Aux assignment x^(j) <- (g^(j))^-1 v^(j), matching act_on_state.

    With this substitution, evaluate(Phi, g.s, v) == evaluate(Phi, s, g^-1 v)
    for every covariant Phi and det-1 tuples g.
    """
    out = {}
    for j, (m, v) in enumerate(zip(g, vectors), start=1):
        w = np.linalg.inv(np.asarray(m, dtype=complex)) @ np.asarray(v, dtype=complex)
        out[(j, 0)] = complex(w[0])
        out[(j, 1)] = complex(w[1])
    return out


def plain_aux(vectors) -> dict:
    """Aux assignment from a list of k 2-vectors."""
    out = {}
    for j, v in enumerate(vectors, start=1):
        out[(j, 0)] = complex(v[0])
        out[(j, 1)] = complex(v[1])
    return out


def all_ones_aux(k: int) -> dict:
    return {(j, b): 1.0 + 0j for j in range(1, k + 1) for b in (0, 1)}


def random_sl2(rng: np.random.Generator):
    """Random SL(2, C) matrix with moderate entries."""
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = np.linalg.det(m)
        if abs(d) > 1e-3:
            return m / np.sqrt(d)


def random_su2(rng: np.random.Generator):
    """Haar-ish random SU(2) via a unit quaternion."""
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    a = q[0] + 1j * q[1]
    b = q[2] + 1j * q[3]
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def random_u2(rng: np.random.Generator):
    """Random U(2): random SU(2) times a random phase."""
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return phase * random_su2(rng)


def random_tuple(k: int, rng: np.random.Generator, kind: str = "sl2"):
    sampler = {"sl2": random_sl2, "su2": random_su2, "u2": random_u2}[kind]
    return [sampler(rng) for _ in range(k)]
