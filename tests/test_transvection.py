"""Transvection checked against an independent sympy differential-operator
oracle, plus its algebraic symmetries and numeric equivariance."""

import numpy as np
import pytest
import sympy as sp

from qinv.catalog import b_family, ground_form
from qinv.gaussian import GaussianRational
from qinv.poly import Polynomial, amp, aux, random_state
from qinv.transvection import (
    Covariant,
    act_on_state,
    all_ones_aux,
    plain_aux,
    random_sl2,
    random_tuple,
    transformed_aux,
    transvect,
)


def _sym(v):
    if v[0] == "a":
        return sp.Symbol(f"a{v[1]}")
    if v[0] == "ac":
        return sp.Symbol(f"c{v[1]}")
    return sp.Symbol(f"x{v[1]}_{v[2]}_{v[3]}")


def _to_sympy(poly: Polynomial):
    total = sp.Integer(0)
    for m, c in poly.terms.items():
        term = sp.Rational(c.re) + sp.I * sp.Rational(c.im)
        for v, e in m:
            term *= _sym(v) ** e
        total += term
    return sp.expand(total)


def _to_fraction(x):
    from fractions import Fraction

    r = sp.Rational(sp.nsimplify(x))
    return Fraction(int(r.p), int(r.q))


def _from_sympy(expr, k: int) -> Polynomial:
    """Convert a sympy polynomial back; only plain aux and amplitudes."""
    expr = sp.expand(expr)
    table = {}
    for i in range(2 ** k):
        table[sp.Symbol(f"a{i}")] = amp(i)
    for j in range(1, k + 1):
        for b in (0, 1):
            table[sp.Symbol(f"x{j}_{b}_0")] = aux(j, b)
    terms = {}
    poly = sp.Poly(expr, *table.keys()) if expr != 0 else None
    if poly is None:
        return Polynomial.zero(k)
    for monom, coeff in poly.terms():
        mono = []
        for sym, e in zip(table.keys(), monom):
            if e:
                mono.append((table[sym], int(e)))
        re, im = coeff.as_real_imag()
        terms[tuple(sorted(mono))] = GaussianRational(
            _to_fraction(re), _to_fraction(im)
        )
    return Polynomial(k, {m: c for m, c in terms.items() if c})


def oracle_transvect(phi: Covariant, psi: Covariant, eps: tuple) -> Polynomial:
    """Literal Omega-process in sympy: prime the copies, differentiate,
    identify."""
    k = phi.k
    f = _to_sympy(phi.poly)
    g = _to_sympy(psi.poly)
    for j in range(1, k + 1):
        for b in (0, 1):
            f = f.subs(sp.Symbol(f"x{j}_{b}_0"), sp.Symbol(f"x{j}_{b}_1"))
            g = g.subs(sp.Symbol(f"x{j}_{b}_0"), sp.Symbol(f"x{j}_{b}_2"))
    work = sp.expand(f * g)
    for j in range(1, k + 1):
        for _ in range(eps[j - 1]):
            work = sp.expand(
                sp.diff(work, sp.Symbol(f"x{j}_0_1"), sp.Symbol(f"x{j}_1_2"))
                - sp.diff(work, sp.Symbol(f"x{j}_1_1"), sp.Symbol(f"x{j}_0_2"))
            )
    for j in range(1, k + 1):
        for b in (0, 1):
            for copy in (1, 2):
                work = work.subs(
                    sp.Symbol(f"x{j}_{b}_{copy}"), sp.Symbol(f"x{j}_{b}_0")
                )
    return _from_sympy(sp.expand(work), k)


@pytest.mark.parametrize("eps", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_oracle_ground_form_k2(eps):
    f = ground_form(2)
    got = transvect(f, f, eps)
    assert got.poly == oracle_transvect(f, f, eps)


@pytest.mark.parametrize("eps", [(1, 1, 0), (1, 1, 1)])
def test_oracle_ground_form_k3(eps):
    f = ground_form(3)
    got = transvect(f, f, eps)
    assert got.poly == oracle_transvect(f, f, eps)


def test_oracle_second_order():
    b = b_family(2, (2, 2))  # = f^2 as a covariant of multidegree (2,2)
    f = ground_form(2)
    got = transvect(f, b, (1, 1))
    assert got.poly == oracle_transvect(f, b, (1, 1))


@pytest.mark.parametrize("eps", [(2, 1), (2, 2)])
def test_oracle_order_two_k2(eps):
    # Order 2 in a slot exercises the signs and binomials of Omega^2.
    b = b_family(2, (2, 2))
    got = transvect(b, b, eps)
    assert got.poly == oracle_transvect(b, b, eps)


def test_oracle_order_two_k3():
    b = b_family(3, (2, 0, 0))
    got = transvect(b, b, (2, 0, 0))
    assert got.poly
    assert got.poly == oracle_transvect(b, b, (2, 0, 0))


def test_sign_symmetry():
    f = ground_form(3)
    cases = [
        (b_family(3, (2, 0, 0)), (1, 0, 0)),
        (b_family(3, (0, 2, 0)), (0, 1, 0)),
        (b_family(3, (2, 2, 2)), (1, 1, 0)),
        (b_family(3, (2, 2, 2)), (1, 1, 1)),
    ]
    for b, eps in cases:
        lhs = transvect(f, b, eps).poly
        rhs = transvect(b, f, eps).poly
        sign = (-1) ** sum(eps)
        assert lhs == rhs * sign


def test_k1_transvection_of_form_with_itself_vanishes():
    f = ground_form(1)
    assert not transvect(f, f, (1,)).poly.terms


def test_b00_is_twice_determinant():
    b = b_family(2, (0, 0))
    expect = 2 * (
        Polynomial.variable(2, amp(0)) * Polynomial.variable(2, amp(3))
        - Polynomial.variable(2, amp(1)) * Polynomial.variable(2, amp(2))
    )
    assert b.poly == expect


def test_transvection_multidegree_bookkeeping():
    f = ground_form(3)
    b = b_family(3, (2, 2, 2))
    t = transvect(f, b, (1, 0, 1))
    assert t.amp_degree == 3
    assert t.multidegree == (1, 3, 1)


def test_inadmissible_epsilon_rejected():
    f = ground_form(2)
    with pytest.raises(ValueError):
        transvect(f, f, (2, 0))


def test_equivariance_under_local_action(rng):
    """evaluate(Phi, g.s, v) == evaluate(Phi, s, g^-1 v) for det-1 g."""
    from qinv.catalog import catalog_3

    t = catalog_3("T")
    s = random_state(3, rng)
    for _ in range(5):
        g = random_tuple(3, rng, "sl2")
        v = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
        lhs = t.evaluate(act_on_state(g, s), plain_aux(v))
        rhs = t.evaluate(s, transformed_aux(g, v))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_action_matches_reference_example():
    # One-qubit basis swap: x0 <-> x1 forces a0 <-> a1 (up to the inverse
    # transpose convention).
    from qinv.poly import State

    swap = np.array([[0, 1], [1, 0]])
    s = State(1, (2 + 1j, -3 + 0j))
    out = act_on_state([swap], s)
    assert out.amplitudes == pytest.approx((-3 + 0j, 2 + 1j))


def test_covariant_validation():
    p = Polynomial.variable(2, amp(0))
    with pytest.raises(ValueError):
        Covariant(p, 2, (0, 0))  # wrong amplitude degree
    with pytest.raises(Exception):
        Covariant(p, 1, (0,))  # multidegree length mismatch


def test_all_ones_aux_shape():
    assert set(all_ones_aux(2)) == {(1, 0), (1, 1), (2, 0), (2, 1)}


def test_random_sl2_determinant(rng):
    for _ in range(10):
        m = random_sl2(rng)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)
