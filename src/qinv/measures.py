"""Entanglement measures and the 3-qubit SLOCC orbit classifier.

The Meyer-Wallach measure is computed two ways: directly from its
determinant definition and through the degree-2 covariant pairings B_d;
their agreement is the identity expressing each single-qubit linear entropy
in covariant terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import b_multidegrees, catalog_3, cayley_hyperdet
from .invariants import b_pairing
from .poly import DimensionError, State


def hyperdet3(s: State) -> complex:
    """The 2x2x2 Cayley hyperdeterminant of the amplitude tensor."""
    if s.k != 3:
        raise DimensionError(f"hyperdet3 needs a 3-qubit state, got k={s.k}")
    return cayley_hyperdet().evaluate(s)


def d1(i: int, s: State) -> float:
    """Single-qubit linear entropy D_1^(i), from the determinant definition.

    The definition sums 2 |a_{e,0} a_{e',1} - a_{e,1} a_{e',0}|^2 over
    ordered pairs of distinct (k-1)-bit contexts e, e' for the remaining
    qubits; the source display's pair ordering is ambiguous, and this
    reading is the one under which the covariant route agrees and GHZ
    states reach the maximum 1 on normalized input.  Those determinants are
    the 2x2 minors of the 2 x 2^(k-1) matricization M at qubit i, so by
    Cauchy-Binet the sum is 4 det(M M^+) = 2((tr rho)^2 - tr rho^2) with
    rho = M M^+ the unnormalized reduced density matrix, which is the purity
    form 2(1 - tr rho^2) on normalized states (Brennen, QIC 3, 619 (2003)).
    It reads the amplitudes alone, independently of the covariant route.
    """
    k = s.k
    # Checked here because np.moveaxis would take i=0 as the last axis.
    if not 1 <= i <= k:
        raise IndexError(f"qubit index {i} out of range 1..{k}")
    amps = np.asarray(s.amplitudes, dtype=complex).reshape((2,) * k)
    m = np.moveaxis(amps, i - 1, 0).reshape(2, -1)
    rho = m @ m.conj().T
    return 4.0 * float((rho[0, 0] * rho[1, 1]).real - abs(rho[0, 1]) ** 2)


@dataclass(frozen=True)
class MeasureReport:
    """Meyer-Wallach measure Q with the per-qubit linear entropies."""

    q: float
    d1: tuple

    def __post_init__(self):
        object.__setattr__(self, "d1", tuple(self.d1))


def meyer_wallach(s: State, route: str = "direct") -> MeasureReport:
    """Meyer-Wallach Q and per-qubit D_1 values.

    route="direct" uses the determinant definition; route="covariant"
    evaluates D_1^(i) = 2^-(k-2) * sum of B_d pairings over d with d_i = 0,
    and Q = (1 / (2^(k-2) k)) * sum of |d|_0 B_d.
    """
    k = s.k
    if route == "direct":
        values = tuple(d1(i, s) for i in range(1, k + 1))
        return MeasureReport(sum(values) / k, values)
    if route != "covariant":
        raise ValueError(f"unknown route {route!r}")
    bvals = {}
    for d in b_multidegrees(k):
        bvals[d] = b_pairing(k, d).evaluate(s).real
    scale = 2.0 ** (k - 2)
    values = tuple(
        sum(v for d, v in bvals.items() if d[i] == 0) / scale for i in range(k)
    )
    q = sum(d.count(0) * v for d, v in bvals.items()) / (scale * k)
    return MeasureReport(q, values)


# -- 3-qubit orbit classification -----------------------------------------

_ORBIT_TABLE = {
    (True, True, True, True): "GHZ",
    (True, True, True, False): "W",
    (True, False, False, False): "B1",
    (False, True, False, False): "B2",
    (False, False, True, False): "B3",
    (False, False, False, False): "SEPARABLE",
}

# The onion hierarchy: closure containment of the SLOCC orbits.
_ONION_RANK = {"SEPARABLE": 0, "B1": 1, "B2": 1, "B3": 1, "W": 2, "GHZ": 3}


@dataclass(frozen=True)
class OrbitLabel:
    """Classification of a 3-qubit state by the vanishing pattern of
    (B_200, B_020, B_002, D_000)."""

    label: str
    flags: tuple
    invariants: dict

    def __bool__(self):
        return self.label != "UNCLASSIFIED"


def onion_leq(a: str, b: str) -> bool:
    """Closure containment: is the orbit labeled `a` in the closure of `b`?"""
    if a not in _ONION_RANK or b not in _ONION_RANK:
        raise KeyError(f"unknown labels {a!r}, {b!r}")
    if a == b:
        return True
    ra, rb = _ONION_RANK[a], _ONION_RANK[b]
    if ra == rb:
        return False
    return ra < rb


def classify3(s: State, tol: float = 1e-9) -> OrbitLabel:
    """Table lookup on the vanishing pattern of the four invariants,
    evaluated on the unit-normalized state."""
    if s.k != 3:
        raise DimensionError(f"classification needs k=3, got k={s.k}")
    if s.norm() <= tol:
        raise ValueError("cannot classify the zero state")
    normalized = s.normalized()
    values = {
        "B_200": b_pairing(3, (2, 0, 0)).evaluate(normalized).real,
        "B_020": b_pairing(3, (0, 2, 0)).evaluate(normalized).real,
        "B_002": b_pairing(3, (0, 0, 2)).evaluate(normalized).real,
        "D_000": abs(
            catalog_3("Delta").evaluate(normalized, {})
        ) ** 2,
    }
    flags = tuple(abs(v) > tol for v in values.values())
    label = _ORBIT_TABLE.get(flags, "UNCLASSIFIED")
    return OrbitLabel(label, flags, values)
