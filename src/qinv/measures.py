"""Entanglement measures and the 3-qubit SLOCC orbit classifier.

The Meyer-Wallach measure is computed two ways: directly from its
determinant definition and through the degree-2 covariant pairings B_d;
their agreement is the identity expressing each single-qubit linear entropy
in covariant terms.

The direct route runs on the amplitude tuple in plain Python.  numpy and
the exact layers are imported inside the covariant route, the classifier
and `hyperdet3`, so `qinv measure --route direct` loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, mul

from .state import DimensionError, State


def hyperdet3(s: State) -> complex:
    """The 2x2x2 Cayley hyperdeterminant of the amplitude tensor."""
    from .catalog import cayley_hyperdet

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
    if not 1 <= i <= s.k:
        raise IndexError(f"qubit index {i} out of range 1..{s.k}")
    return _linear_entropies(s, (i,))[0]


def _linear_entropies(s: State, qubits) -> tuple:
    """D_1^(i) for each qubit i of `qubits`: 4 (r00 r11 - |r01|^2) from the
    entries r_bc = sum_e a_{b,e} conj(a_{c,e}) of rho at qubit i, summed in
    plain Python over the two halves of the amplitude tuple."""
    amps = s.amplitudes
    conj = tuple(map(complex.conjugate, amps))
    squares = [a.real * a.real + a.imag * a.imag for a in amps]
    out = []
    for i in qubits:
        zeros, ones = _halves(s.k, i)
        r00 = sum(zeros(squares))
        r11 = sum(ones(squares))
        r01 = sum(map(mul, zeros(amps), ones(conj)))
        # Products, not ** or abs: on huge amplitudes they give inf, not
        # OverflowError.
        out.append(4.0 * (r00 * r11 - (r01.real * r01.real
                                       + r01.imag * r01.imag)))
    return tuple(out)


@lru_cache(maxsize=None)
def _halves(k: int, i: int) -> tuple:
    """Getters of the entries whose qubit-i bit is 0, and of their partners
    with that bit 1, both in context order."""
    bit = 1 << (k - i)
    zeros = [j for j in range(2 ** k) if not j & bit]
    if k == 1:
        # itemgetter of one index returns the entry itself, not a 1-tuple.
        return itemgetter(slice(0, 1)), itemgetter(slice(1, 2))
    return itemgetter(*zeros), itemgetter(*[j | bit for j in zeros])


@lru_cache(maxsize=None)
def _b_pairings(k: int) -> tuple:
    """The B_d multidegrees and one numeric form of all the <B_d|B_d>."""
    from .catalog import b_multidegrees
    from .invariants import b_pairing, numeric_form

    degrees = tuple(b_multidegrees(k))
    return degrees, numeric_form([b_pairing(k, d) for d in degrees])


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
        values = _linear_entropies(s, range(1, k + 1))
        return MeasureReport(sum(values) / k, values)
    if route != "covariant":
        raise ValueError(f"unknown route {route!r}")
    import numpy as np

    degrees, form = _b_pairings(k)
    a = np.array([s.amplitudes], dtype=complex)
    bvals = dict(zip(degrees, form.values(a)[:, 0].real.tolist()))
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
    evaluated on the unit-normalized state: the one-row case of
    `classify3_batch`."""
    if s.k != 3:
        raise DimensionError(f"classification needs k=3, got k={s.k}")
    return classify3_batch([s.amplitudes], tol)[0]


def classify3_batch(amplitudes, tol: float = 1e-9) -> list:
    """The `OrbitLabel` of each row of an (n, 8) amplitude array.  Each row
    is scaled to unit norm, and B_200, B_020, B_002 and |Delta|^2 are taken
    on all rows at once by one numeric form."""
    import numpy as np

    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 2 or a.shape[1] != 8:
        raise DimensionError(
            f"classification needs rows of 8 amplitudes, got shape {a.shape}")
    norms = np.linalg.norm(a, axis=1)
    if np.isnan(norms).any():
        raise ValueError("cannot classify a state with a NaN amplitude")
    if not np.all(norms > tol):
        raise ValueError("cannot classify the zero state")
    if not np.all(np.isfinite(norms)):
        raise ValueError("cannot classify a state whose norm overflows")
    a = a / norms[:, None]
    b200, b020, b002, delta = _classifier_form().values(a)
    columns = (b200.real, b020.real, b002.real, np.abs(delta) ** 2)
    out = []
    for values in zip(*(c.tolist() for c in columns)):
        flags = tuple(abs(v) > tol for v in values)
        out.append(OrbitLabel(_ORBIT_TABLE.get(flags, "UNCLASSIFIED"), flags,
                              dict(zip(_CLASSIFIER_NAMES, values))))
    return out


_CLASSIFIER_NAMES = ("B_200", "B_020", "B_002", "D_000")


@lru_cache(maxsize=None)
def _classifier_form():
    """One numeric form of B_200, B_020, B_002 and Delta."""
    from .invariants import b_pairing, delta_invariant, numeric_form

    return numeric_form([b_pairing(3, d) for d in
                         ((2, 0, 0), (0, 2, 0), (0, 0, 2))]
                        + [delta_invariant()])
