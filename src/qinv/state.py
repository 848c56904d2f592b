"""Numeric pure states and the ambient-size error, free of numpy at import.

The command line loads, validates and rejects state files through this
module alone, so a `qinv` command that never evaluates anything does not
pay for importing numpy.  `qinv.poly` re-exports both names.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass


class DimensionError(ValueError):
    """Operands live over different ambient qubit counts."""


@dataclass(frozen=True)
class State:
    """Numeric pure k-qubit state: 2^k amplitudes in bitstring order (i1 MSB).

    The amplitudes must be finite, and so must their squared norm, which is
    the norm invariant A: every invariant has degree 2 or more, so a state
    whose squared norm overflows has no finite invariants to report.
    """

    k: int
    amplitudes: tuple

    def __post_init__(self):
        k = operator.index(self.k)
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        n = len(self.amplitudes)
        # 2^k is formed only once it is known to be at most n: a huge k
        # read from a state file must not build a huge integer.
        if n.bit_length() - 1 != k or n != 2 ** k:
            size = 2 ** k if k < 64 else f"2^{k}"
            raise DimensionError(
                f"expected {size} amplitudes for k={k}, got {n}"
            )
        amps = tuple(complex(a) for a in self.amplitudes)
        if not all(cmath.isfinite(a) for a in amps):
            raise ValueError("amplitudes must be finite")
        if not math.isfinite(_squared_norm(amps)):
            raise ValueError("the squared norm of the amplitudes overflows")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return math.sqrt(_squared_norm(self.amplitudes))

    def normalized(self) -> "State":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return State(self.k, tuple(a / n for a in self.amplitudes))

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "amplitudes": [[a.real, a.imag] for a in self.amplitudes],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "State":
        amps = [complex(re, im) for re, im in obj["amplitudes"]]
        return cls(obj["k"], tuple(amps))

    @classmethod
    def load(cls, path: str) -> "State":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh)


def _squared_norm(amps) -> float:
    """sum |a|^2, the norm invariant A; inf once it overflows (math.fsum
    would raise OverflowError instead)."""
    return sum(a.real * a.real + a.imag * a.imag for a in amps)
