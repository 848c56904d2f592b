"""Exact Gaussian-rational numbers: a + b*i with a, b rational.

All symbolic computations in this package run over this field, so every
polynomial identity can be checked by exact equality.  Inside a polynomial
the coefficients are Gaussian integers over one shared denominator (see
poly.py); this class is the scalar at the boundary: polynomial coefficients
as read through ``Polynomial.terms``, exact evaluations and determinants.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """Immutable exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates / conversions -----------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re, self.im)

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*I"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*I)"


def _coerce(x) -> GaussianRational | None:
    """x as a GaussianRational, or None for an operand of another type, so
    that the arithmetic methods return NotImplemented and Python tries the
    other operand's reflected method."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
