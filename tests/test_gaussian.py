from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qinv.gaussian import GR_I, GR_ONE, GR_ZERO, GaussianRational

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_additive_inverse(a):
    assert a + (-a) == GR_ZERO
    assert a - a == GR_ZERO


@given(gaussians)
def test_units(a):
    assert a * GR_ONE == a
    assert a + GR_ZERO == a


@given(gaussians)
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.im == 0
    assert norm.re >= 0


@given(gaussians, gaussians)
def test_division(a, b):
    if not b:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


def test_i_squared():
    assert GR_I * GR_I == GaussianRational(-1)


@given(gaussians)
def test_complex_round_trip(a):
    z = complex(a)
    assert z.real == pytest.approx(float(a.re))
    assert z.imag == pytest.approx(float(a.im))


def test_exact_fractions():
    x = GaussianRational(Fraction(1, 3), Fraction(1, 7))
    y = x * 21
    assert y == GaussianRational(7, 3)


def test_reflected_arithmetic_with_polynomials_and_invariants():
    # A GaussianRational on the left hands an operand it does not know to
    # that operand's reflected method.
    from qinv.invariants import norm_invariant
    from qinv.poly import Polynomial, amp, amp_conj

    half = GaussianRational(1, 2)
    p = Polynomial.variable(2, amp(0)) + Polynomial.variable(2, amp_conj(1))
    c = Polynomial.constant(2, half)
    assert half + p == p + half == c + p
    assert half - p == c - p
    assert p - half == p - c
    assert half * p == p * half == c * p
    expr = norm_invariant(3)
    assert (half * expr).poly == (expr * half).poly == expr.poly * half
    with pytest.raises(TypeError):
        GaussianRational(1) * "x"
    with pytest.raises(TypeError):
        "x" * GaussianRational(1)
