"""Numeric pure states and the ambient-size error, free of numpy at import.

The command line loads, validates and rejects state files through this
module alone, so a `qinv` command that never evaluates anything does not
pay for importing numpy.  `qinv.poly` re-exports both names.
"""

from __future__ import annotations

import cmath
import json
import operator
from dataclasses import dataclass


class DimensionError(ValueError):
    """Operands live over different ambient qubit counts."""


@dataclass(frozen=True)
class State:
    """Numeric pure k-qubit state: 2^k amplitudes in bitstring order (i1 MSB)."""

    k: int
    amplitudes: tuple

    def __post_init__(self):
        k = operator.index(self.k)
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if len(self.amplitudes) != 2 ** k:
            raise DimensionError(
                f"expected {2 ** k} amplitudes for k={k}, "
                f"got {len(self.amplitudes)}"
            )
        amps = tuple(complex(a) for a in self.amplitudes)
        if not all(cmath.isfinite(a) for a in amps):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        import numpy as np

        return float(np.linalg.norm(self.amplitudes))

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
        k = int(obj["k"])
        amps = [complex(re, im) for re, im in obj["amplitudes"]]
        return cls(k, tuple(amps))

    @classmethod
    def load(cls, path: str) -> "State":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh)
