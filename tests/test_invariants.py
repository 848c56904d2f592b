"""Hermitian pairings, the 3-qubit generator identities, syzygies and the
Jacobian independence certificate."""

import json
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinv.catalog import (b_family, b_multidegrees, catalog_3,
                          cayley_hyperdet, degree3_multilinear_basis,
                          degree4_invariants, ground_form)
from qinv.gaussian import GaussianRational
from qinv.hilbert import hilbert_lsut_coeffs
from qinv.invariants import (
    JACOBIAN_POINT,
    InvariantExpr,
    b_pairing,
    degree6_invariants_4,
    delta_invariant,
    evaluate_exact,
    f7_bracket_form,
    f7_check,
    f_squared_relation_check,
    lut3_generator,
    lut3_generator_sum,
    lut3_pairing,
    jacobian_determinant,
    jacobian_matrix,
    jacobian_rank,
    lsut_basis,
    lsut_degree4_basis,
    lut_degree4_basis,
    norm_invariant,
    pairing,
    s2_invariant,
    syzygy_checks,
)
from qinv.linalg import rank
from qinv.poly import (DimensionError, EvaluationError, Polynomial, amp,
                       amp_conj, exponents)


def test_pairing_bidegree_and_name():
    f = ground_form(3)
    t = catalog_3("T")
    inv = pairing(t, f, "s2")
    assert inv.bidegree == (3, 1)
    assert inv.name == "s2"
    assert inv.conjugate().bidegree == (1, 3)


def test_pairing_multidegree_mismatch_is_zero():
    hx = catalog_3("Hx")
    hy = catalog_3("Hy")
    assert pairing(hx, hy).is_zero()


def test_pairing_of_norm_form():
    # <f|f> = sum_i a_i conj(a_i): 2^k terms, all coefficient 1.
    a = norm_invariant(3)
    assert len(a.poly.terms) == 8
    assert all(c == GaussianRational(1) for c in a.poly.terms.values())


def test_pairing_weight_counts_repeated_aux():
    # <f^2|f^2> at k=1 has weight 2 on the squared auxiliary monomials.
    f = ground_form(1)
    inv = pairing(f * f, f * f)
    # Evaluate at a_0=1, a_1=0: only the x_0^2 monomial contributes, with
    # coefficient a_0^2 conj(a_0)^2 and weight 2! = 2.
    val = evaluate_exact(inv.poly, {0: GaussianRational(1), 1: GaussianRational(0)})
    assert val == GaussianRational(2)


def test_invariant_expr_rejects_aux_and_mixed_bidegree():
    from qinv.poly import aux

    with pytest.raises(ValueError):
        InvariantExpr(Polynomial.variable(2, aux(1, 0)), (1, 0))
    p = Polynomial.variable(2, amp(0))
    with pytest.raises(ValueError):
        InvariantExpr(p, (2, 0))


def test_invariant_expr_validation_messages():
    from qinv.poly import aux

    a0, c1 = Polynomial.variable(2, amp(0)), Polynomial.variable(2, amp_conj(1))
    with pytest.raises(ValueError,
                       match="invariants must not contain auxiliary variables"):
        InvariantExpr(a0 * c1 + a0 * Polynomial.variable(2, aux(2, 1)), (1, 1))
    with pytest.raises(ValueError, match=r"term of bidegree \(2,1\) in "
                       r"invariant of bidegree \(1, 1\)"):
        InvariantExpr(a0 * c1 + a0 * a0 * c1, (1, 1))
    assert InvariantExpr(a0 * c1, [1, 1]).bidegree == (1, 1)
    # The zero polynomial has no terms, so every bidegree fits it.
    for bidegree in ((0, 0), (1, 1), (4, 0)):
        assert InvariantExpr(Polynomial.zero(2), bidegree).bidegree == bidegree


def test_invariant_arithmetic_bidegrees():
    a = norm_invariant(2)
    assert (a * a).bidegree == (2, 2)
    assert (a ** 3).bidegree == (3, 3)
    with pytest.raises(ValueError):
        a + a * a


def test_sum_of_products_checks_every_bidegree():
    # The bidegree of every product is checked, not only the first's; a
    # product may differ only when it is zero.
    a = norm_invariant(3)
    with pytest.raises(ValueError, match="different bidegrees"):
        InvariantExpr.sum_of_products([(1, (a,)), (1, (a, a))])
    # A plain leaf minus the pairing that expands to it stores two leaves
    # whose difference expands to zero.
    zero = InvariantExpr(a.poly, (1, 1)) - a
    assert zero.top and not zero.poly
    for summands in ([(1, (a,)), (0, (a, a))], [(1, (a,)), (1, (zero, a))],
                     [(1, (zero, a)), (1, (a,))]):
        assert InvariantExpr.sum_of_products(summands).bidegree == (1, 1)


def test_invariant_arithmetic_rejects_mixed_k():
    # Without the check the sum kept k=2 and failed only on evaluation,
    # and the pairing silently gave the zero invariant.
    a2, a3 = norm_invariant(2), norm_invariant(3)
    for op in (lambda: a2 + a3, lambda: a3 - a2, lambda: a2 * a3,
               lambda: InvariantExpr.sum_of_products(
                   [(1, (a2,)), (1, (a3,))]),
               lambda: pairing(ground_form(2), ground_form(3))):
        with pytest.raises(DimensionError, match="ambient k mismatch"):
            op()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_f_squared_relation(k):
    ok, diff = f_squared_relation_check(k)
    assert ok, f"residual has {len(diff.terms)} terms"


@pytest.mark.parametrize("k,size", [(2, 2), (3, 4), (4, 8)])
def test_lut_degree4_basis_counts_and_rank(k, size):
    basis = lut_degree4_basis(k)
    assert len(basis) == size
    assert rank([b.poly for b in basis]) == size


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_lut_degree4_basis_spans_the_space_of_a_squared_and_mixed_b(k):
    # The B pairings span what {A^2} plus the mixed <B_d|B_d> span.
    a = norm_invariant(k)
    old = [a * a] + [b_pairing(k, d) for d in b_multidegrees(k)
                     if d != (2,) * k]
    new = lut_degree4_basis(k)
    assert rank([x.poly for x in old + new]) == 2 ** (k - 1)


@pytest.mark.parametrize("k,size", [(2, 6), (3, 8), (4, 20)])
def test_lsut_degree4_basis_counts_and_rank(k, size):
    basis = lsut_degree4_basis(k)
    assert len(basis) == size
    assert rank([b.poly for b in basis]) == size


def _hand_assembled_lsut_degree4_basis(k):
    """The degree-4 LSUT basis as it was assembled by hand before it became
    a view of `lsut_basis`: the SLOCC invariants D_i as (4,0), the pairings
    <C_i|f>, the B pairings, and the conjugates of the first two groups."""
    f = ground_form(k)
    d40 = [InvariantExpr(cov.poly, (4, 0), cov.name)
           for cov in degree4_invariants(k)]
    c31 = [pairing(c, f, f"<{c.name}|f>")
           for c in degree3_multilinear_basis(k)]
    b22 = [b_pairing(k, d) for d in b_multidegrees(k)]
    return (d40 + c31 + b22 + [x.conjugate() for x in c31]
            + [x.conjugate() for x in d40])


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_degree4_bases_are_views_of_lsut_basis(k):
    view = lsut_degree4_basis(k)
    reference = _hand_assembled_lsut_degree4_basis(k)
    assert [x.bidegree for x in view] == [x.bidegree for x in reference]
    assert [x.poly for x in view] == [x.poly for x in reference]
    assert [x.poly for x in lut_degree4_basis(k)] == [
        b_pairing(k, d).poly for d in b_multidegrees(k)]


def test_lsut_basis_edge_cases():
    with pytest.raises(ValueError):
        lsut_basis(3, -1, 1)
    with pytest.raises(ValueError):
        lsut_basis(3, 1, -1)
    (one,) = lsut_basis(3, 0, 0)
    assert one.bidegree == (0, 0)
    assert one.poly == Polynomial.constant(3, 1)
    assert lsut_basis(3, 2, 1) == () and lsut_basis(3, 0, 3) == ()


def test_b_pairing_shares_the_leaf_of_its_lsut_basis_element():
    for k in (2, 3, 4):
        for d, x in zip(b_multidegrees(k), lsut_basis(k, 2, 2), strict=True):
            assert list(b_pairing(k, d).top) == list(x.top)
            assert b_pairing(k, d).name == "B_" + "".join(map(str, d))
    for bad in ((2, 2, 0), (2, 0), (1, 1, 0)):
        with pytest.raises(ValueError):
            b_pairing(3, bad)


def test_pairings_of_one_pair_of_polynomials_store_one_leaf():
    f = ground_form(3) * 1
    (first,), = pairing(f, f).top
    (second,), = pairing(f, f).top
    assert first is second


def test_the_conjugate_of_a_pairing_is_the_swapped_pairings_leaf():
    f, t = ground_form(3), catalog_3("T") * 1
    (swapped,), = pairing(f, t).top
    (conjugate,), = pairing(t, f).conjugate().top
    assert conjugate is swapped


def test_a_self_pairing_is_its_own_conjugate_leaf():
    (leaf,), = norm_invariant(3).top
    assert list(norm_invariant(3).conjugate().top) == [(leaf,)]


_ONE_B_COVARIANT = """
import json
from qinv import catalog
from qinv.invariants import b_pairing

b_pairing(7, (2,) * 7)
print(catalog.b_family.cache_info().currsize)
"""


def test_b_pairing_builds_only_its_own_b_covariant():
    assert _run_fresh(_ONE_B_COVARIANT).split() == ["1"]


def test_lsut_degree4_basis_of_one_qubit_is_f_squared_paired():
    f2 = ground_form(1) * ground_form(1)
    basis = lsut_degree4_basis(1)
    assert [x.poly for x in basis] == [pairing(f2, f2).poly]
    assert rank([x.poly for x in basis]) == 1 == hilbert_lsut_coeffs(
        1, 2, 2)[2][2]


def test_lut3_generator_index_validation():
    with pytest.raises(ValueError):
        lut3_generator(0)
    with pytest.raises(ValueError):
        lut3_generator(8)


def test_lut3_generator1_is_norm():
    assert lut3_generator(1).poly == norm_invariant(3).poly


@pytest.mark.parametrize(
    "idx,perms",
    [
        (2, ((1, 0), (1, 0), (0, 1))),
        (3, ((1, 0), (0, 1), (1, 0))),
        (4, ((0, 1), (1, 0), (1, 0))),
        (5, ((1, 0, 2), (0, 2, 1), (2, 1, 0))),
    ],
)
def test_lut3_generator_permutation_sums(idx, perms):
    assert lut3_generator_sum(*perms).poly == lut3_generator(idx).poly


def test_lut3_generator_sum_size_mismatch():
    with pytest.raises(ValueError):
        lut3_generator_sum((0, 1), (0, 1), (0,))


def test_f7_reconciliation():
    report = f7_check()
    # The literal brace reading produces a non-invariant sum, so the literal
    # displays disagree; the equal-last-index reading gives the sum -s2 and
    # reconciles everything exactly.
    assert not report["literal_equal"]
    assert not report["literal_sum_is_s2"]
    assert report["corrected_sum_ratio_on_s2"] == GaussianRational(-1)
    assert report["bracket_equals_conj_delta_s2_squared"]
    assert report["decomposition_residual_zero"]
    assert report["printed_display_gap_zero"]
    assert report["literal_residual_terms"] > 0


def test_f7_printed_gap_and_decomposition_store_one_form():
    # f7_check expands the printed-display gap as the decomposition plus
    # their difference, which is the empty stored form.
    a = norm_invariant(3)
    b200, b020, b002, c111, d000, f222 = (
        lut3_pairing(n)
        for n in ("B_200", "B_020", "B_002", "C_111", "D_000", "F_222"))
    lhs = f7_bracket_form()
    inner = Fraction(3, 2) * (b200 + b020 + b002) - a * a
    dec = (lhs + Fraction(1, 2) * d000 * inner - 2 * c111 * c111
           + 4 * b200 * b020 * b002 + Fraction(1, 8) * f222)
    gap = lut3_generator(7) + lhs - 4 * c111 * c111 + 8 * b200 * b020 * b002
    assert gap.top == dec.top
    assert (gap - dec).top == {}


def test_adding_a_zero_pairing_expands_neither_operand():
    # A fresh T: pairing the cached one would return C_111's leaf, which
    # other tests expand.
    t = catalog_3("T") * 1
    c111 = pairing(t, t, "C_111")
    zero = pairing(catalog_3("Hx"), catalog_3("Hy"))
    assert zero.top == {} and zero.bidegree == (2, 2)
    for total in (c111 + zero, zero + c111, c111 - zero):
        assert total.bidegree == (3, 3)
    (leaf,), = c111.top
    assert leaf._poly is None
    with pytest.raises(ValueError, match="different bidegrees"):
        c111 + s2_invariant()


def test_f7_bracket_form_bidegree():
    assert f7_bracket_form().bidegree == (6, 6)


def test_s2_and_delta():
    assert s2_invariant().bidegree == (3, 1)
    assert delta_invariant().bidegree == (4, 0)
    assert delta_invariant().poly == catalog_3("Delta").poly


def test_delta_invariant_is_built_once():
    # One leaf, so Delta - Delta cancels in the stored form.
    assert delta_invariant() is delta_invariant()
    assert (delta_invariant() - delta_invariant()).top == {}


def test_syzygies_hold():
    assert syzygy_checks() == (True, True)


def test_jacobian_rank_is_seven():
    assert jacobian_rank() == 7


def test_jacobian_matrix_shape():
    j = jacobian_matrix()
    assert len(j) == 7 and all(len(row) == 16 for row in j)


def test_jacobian_literal_determinant_vanishes():
    # Structural: the Delta row is a linear combination of the eight
    # holomorphic coordinate rows, so the literal 16x16 determinant is zero.
    assert jacobian_determinant(literal=True) == GaussianRational(0)


def test_jacobian_completion_determinant_nonzero():
    d = jacobian_determinant()
    assert d == GaussianRational(4834273876992, 8517530164224)


def test_degree6_invariants_4_count_and_rank():
    pairs = degree6_invariants_4()
    assert len(pairs) == 20
    assert rank([expr.poly for _, expr in pairs]) == 20


def test_degree6_invariants_4_span_the_33_space():
    named = [expr.poly for _, expr in degree6_invariants_4()]
    paired = [x.poly for x in lsut_basis(4, 3, 3)]
    assert rank(named) == rank(paired) == 20
    assert rank(named + paired) == 20


def test_evaluate_exact_simple():
    p = Polynomial.variable(3, amp(0)) * Polynomial.variable(3, amp(0))
    z = GaussianRational(3, 3)
    assert evaluate_exact(p, JACOBIAN_POINT) == z * z


def _reference_evaluate_exact(poly, values):
    """evaluate_exact() spelled out term by term: each term decodes its
    fields and multiplies their powers, and the terms of one total degree
    share the denominator den * D^degree."""
    n = 2 ** poly.k
    scale = lcm(*(d for v in values.values()
                  for d in (v.re.denominator, v.im.denominator)))
    base = {}
    for idx, v in values.items():
        re, im = int(v.re * scale), int(v.im * scale)
        base[idx], base[n + idx] = (re, im), (re, -im)
    sums = defaultdict(lambda: [0, 0])
    for m, r, i in zip(*poly._columns()):
        deg = 0
        for f, e in exponents(m):
            if f >= 2 * n:
                raise ValueError("auxiliary variable in exact evaluation")
            if f not in base:
                raise EvaluationError(f"no value for amplitude {f % n}")
            p = (1, 0)
            for _ in range(e):
                p = (p[0] * base[f][0] - p[1] * base[f][1],
                     p[0] * base[f][1] + p[1] * base[f][0])
            r, i = r * p[0] - i * p[1], r * p[1] + i * p[0]
            deg += e
        sums[deg][0] += r
        sums[deg][1] += i
    total = GaussianRational(0)
    for deg, (r, i) in sums.items():
        d = poly.den * scale ** deg
        total = total + GaussianRational(Fraction(r, d), Fraction(i, d))
    return total


def _reference_expand(top, k):
    """A stored form expanded flat: one `sum_of_products` over the products
    of the leaf expansions, each product multiplied out on its own."""
    return Polynomial.sum_of_products(k, [
        (c, tuple(leaf.poly for leaf in m)) for m, c in top.items()])


def _assert_expands_as_reference(expr):
    fresh = InvariantExpr._stored(expr.k, expr.bidegree, expr.top)
    want = _reference_expand(expr.top, expr.k)
    assert fresh.poly == want
    assert fresh.poly.den == want.den


@pytest.mark.parametrize("i", range(1, 8))
def test_grouped_expansion_matches_the_flat_one_on_the_generators(i):
    _assert_expands_as_reference(lut3_generator(i))


def test_grouped_expansion_matches_the_flat_one_on_every_node_kind():
    for expr in _node_kind_exprs():
        _assert_expands_as_reference(expr)


def test_grouped_expansion_factors_a_shared_last_leaf():
    # Fresh leaves made in the order A, B, C, s2, so C closes (A, A, A, C),
    # (A, B, C) and (C, C), and the conjugate leaf of s2, made last, closes
    # the two products with complex coefficients.  The covariants are fresh
    # copies: the cached ones would return leaves that earlier tests may
    # have made in another order.
    f, t, hx = ground_form(3) * 1, catalog_3("T") * 1, catalog_3("Hx") * 1
    a = pairing(f, f)
    b = pairing(hx, hx)
    c = pairing(t, t)
    s2 = pairing(t, f)
    s2bar = s2.conjugate()
    expr = InvariantExpr.sum_of_products([
        (1, (a, a, a, c)), (Fraction(-3, 2), (a, b, c)), (2, (c, c)),
        (5, (a, a, b, b)), (GaussianRational(1, 2), (s2, s2bar, a, a)),
        (GaussianRational(0, -3), (s2, s2bar, b)),
    ])
    lasts = [m[-1] for m in expr.top]
    assert max(lasts.count(leaf) for leaf in lasts) >= 3
    _assert_expands_as_reference(expr)


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_gaussian = st.builds(GaussianRational, _fractions, _fractions)


@st.composite
def _exact_cases(draw):
    """(polynomial, points): amplitude, conjugate and constant terms at
    k = 1, 2 or 3, single powers up to 255, and three points whose values
    have mixed denominators."""
    k = draw(st.sampled_from([1, 2, 3]))
    names = ([amp(i) for i in range(2 ** k)]
             + [amp_conj(i) for i in range(2 ** k)])
    mono = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 3)),
                    max_size=4).map(lambda m: tuple(sorted(dict(m).items())))
    power = st.tuples(st.tuples(st.sampled_from(names),
                                st.sampled_from([10, 254, 255])))
    terms = draw(st.dictionaries(mono | power, _gaussian, max_size=10))
    points = draw(st.lists(
        st.lists(_gaussian, min_size=2 ** k, max_size=2 ** k)
        .map(lambda v: dict(enumerate(v))), min_size=3, max_size=3))
    return Polynomial(k, terms), points


@given(_exact_cases())
@settings(max_examples=40, deadline=None)
def test_evaluate_exact_matches_term_loop(case):
    p, points = case
    items, twin = list(zip(*p._columns())), Polynomial.from_packed(
        p.k, dict(p._re), dict(p._im), p.den, p.degree_bound)
    got = [evaluate_exact(p, point) for point in points]
    assert got == [_reference_evaluate_exact(p, point) for point in points]
    # A second evaluation gives the same value; the polynomial does not
    # change.
    assert evaluate_exact(p, points[0]) == got[0]
    assert list(zip(*p._columns())) == items
    assert p == twin and hash(p) == hash(twin)
    assert p.pretty() == twin.pretty()


def test_failed_exact_evaluation_leaves_the_polynomial_usable():
    # The aux term comes after amplitude terms, so the loop meets it with
    # part of the sum formed.
    k = 2
    a0, a1 = Polynomial.variable(k, amp(0)), Polynomial.variable(k, amp(1))
    x = Polynomial.variable(k, ("x", 1, 0, 0))
    p = Polynomial.sum_of_products(k, [(1, (a0, a1)), (2, (a0,)), (1, (x,))])
    point = {i: GaussianRational(i + 1, -i) for i in range(4)}
    for _ in range(2):
        with pytest.raises(ValueError, match="auxiliary"):
            evaluate_exact(p, point)
    # A missing amplitude is named, and the next evaluation of the same
    # polynomial, or of a fresh equal one, gives the reference value.
    q = a0 * a1 * Polynomial.variable(k, amp_conj(3)) + a0
    with pytest.raises(EvaluationError, match=r"amplitude 3 \(a\[11\]\)"):
        evaluate_exact(q, {0: point[0], 1: point[1]})
    fresh = Polynomial.from_packed(k, dict(q._re), dict(q._im), q.den,
                                   q.degree_bound)
    assert evaluate_exact(fresh, point) == _reference_evaluate_exact(q, point)
    assert evaluate_exact(q, point) == _reference_evaluate_exact(q, point)


@pytest.mark.parametrize("key", [2, -2])
def test_evaluate_exact_rejects_an_index_outside_the_amplitudes(key):
    # At k=1, keys 2 and -2 once overwrote the conjugate fields: |a0|^2 at
    # a0 = 1 + i read 5+5i and 7-7i instead of 2.
    p = Polynomial.variable(1, amp(0)) * Polynomial.variable(1, amp_conj(0))
    values = {0: GaussianRational(1, 1), key: GaussianRational(2, 3)}
    with pytest.raises(ValueError, match=rf"index {key} outside range"):
        evaluate_exact(p, values)
    assert evaluate_exact(p, {0: GaussianRational(1, 1)}) == 2


def test_evaluate_exact_names_a_missing_amplitude():
    # a[00] * conj(a[01]) needs amplitude 1, which the assignment lacks; its
    # conjugate sits in field 5, which is not an amplitude number.
    p = Polynomial.variable(2, amp(0)) * Polynomial.variable(2, amp_conj(1))
    with pytest.raises(EvaluationError, match=r"amplitude 1 \(a\[01\]\)"):
        evaluate_exact(p, {0: GaussianRational(1)})
    full = {0: GaussianRational(2), 1: GaussianRational(0, 1)}
    assert evaluate_exact(p, full) == GaussianRational(0, -2)


def test_evaluate_exact_takes_int_and_fraction_values():
    # An int or Fraction value is the Gaussian rational it names; a float
    # or complex value is rejected with its amplitude index.
    a0, a1 = Polynomial.variable(2, amp(0)), Polynomial.variable(2, amp(1))
    p = a0 * a0 * Polynomial.variable(2, amp_conj(1)) + 3 * a1 + 1
    for plain in ({0: 3, 1: Fraction(1, 2)}, {0: Fraction(-2, 3), 1: 0},
                  {0: 5, 1: -4}):
        exact = {i: GaussianRational(v) for i, v in plain.items()}
        assert evaluate_exact(p, plain) == evaluate_exact(p, exact)
        assert evaluate_exact(p, plain) == _reference_evaluate_exact(p, exact)
    assert evaluate_exact(a0, {0: 3}) == 3
    assert evaluate_exact(a0, {0: Fraction(1, 2)}) == Fraction(1, 2)
    for bad in (1.5, 1j):
        with pytest.raises(TypeError, match="amplitude 0"):
            evaluate_exact(a0, {0: bad})
    with pytest.raises(TypeError, match="amplitude 1: .* float"):
        evaluate_exact(p, {0: 1, 1: 1.5})


# Exact group moves.  An SU(2) matrix [[a, -conj b], [b, conj a]] with
# a = (p + qi)/5, b = (s + ti)/5 and p^2 + q^2 + s^2 + t^2 = 25, and an
# SL(2) matrix [[1 + ts, t], [s, 1]] with t, s Gaussian rationals of
# denominator 2.
_FOUR_SQUARES_25 = [v for v in product(range(-5, 6), repeat=4)
                    if sum(x * x for x in v) == 25]
_HALF_STEPS = [GaussianRational(Fraction(x, 2), Fraction(y, 2))
               for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y]


def _exact_su2(p, q, s, t):
    a = GaussianRational(Fraction(p, 5), Fraction(q, 5))
    b = GaussianRational(Fraction(s, 5), Fraction(t, 5))
    return ((a, -b.conjugate()), (b, a.conjugate()))


def _exact_sl2(t, s):
    return ((1 + t * s, t), (s, GaussianRational(1)))


def _act_exact(mats, amps):
    """(g_1 x ... x g_k) a in exact arithmetic, slot 1 most significant."""
    k = len(mats)
    a = list(amps)
    for j, g in enumerate(mats):
        bit = 1 << (k - 1 - j)
        a = [g[1 if idx & bit else 0][0] * a[idx & ~bit]
             + g[1 if idx & bit else 0][1] * a[idx | bit]
             for idx in range(len(a))]
    return a


def _gaussian_integer_points(k):
    return st.lists(st.builds(GaussianRational, st.integers(-3, 3),
                              st.integers(-3, 3)),
                    min_size=2 ** k, max_size=2 ** k).filter(any)


def _assert_exactly_invariant(polys, mats, point):
    before = dict(enumerate(point))
    after = dict(enumerate(_act_exact(mats, point)))
    for p in polys:
        assert evaluate_exact(p, before) == evaluate_exact(p, after)


@given(st.lists(st.sampled_from(_FOUR_SQUARES_25), min_size=3, max_size=3),
       _gaussian_integer_points(3))
@settings(max_examples=25, deadline=None)
def test_lsut_invariants_are_exactly_su2_invariant(moves, point):
    # s2 is an LSUT invariant and f5 a LUT one: both are equal, with zero
    # tolerance, before and after an exact SU(2)^3 move.
    polys = [s2_invariant().poly, lut3_generator(5).poly]
    _assert_exactly_invariant(polys, [_exact_su2(*m) for m in moves], point)


@pytest.mark.parametrize("k", [3, 4])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_slocc_invariants_are_exactly_sl2_invariant(k, data):
    # Delta, the Cayley hyperdeterminant and the degree-4 k=4 invariants
    # are equal, with zero tolerance, before and after an exact SL(2)^k move
    # whose entries have denominator 2.
    if k == 3:
        polys = [catalog_3("Delta").poly, cayley_hyperdet()]
    else:
        polys = [c.poly for c in degree4_invariants(4)]
    steps = st.sampled_from(_HALF_STEPS)
    mats = [_exact_sl2(data.draw(steps), data.draw(steps)) for _ in range(k)]
    _assert_exactly_invariant(polys, mats, data.draw(
        _gaussian_integer_points(k)))


def test_pairing_sesquilinearity_numeric(rng):
    # <phi|psi> evaluated on a state equals conj(<psi|phi>) evaluated there.
    from qinv.poly import random_state

    t = catalog_3("T")
    f3 = ground_form(3)
    fwd = pairing(t, f3)
    bwd = pairing(f3, t)
    for _ in range(5):
        s = random_state(3, rng)
        assert fwd.evaluate(s) == pytest.approx(
            bwd.evaluate(s).conjugate(), rel=1e-10, abs=1e-12
        )


# -- lazy expansion -------------------------------------------------------


def _run_fresh(script: str) -> str:
    """stdout of `script` run in a fresh interpreter on this source tree."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, check=False)
    assert out.returncode == 0, out.stderr
    return out.stdout


_NUMERIC_PATHS = """
import gc, json
import numpy as np
from qinv.cli import invariant_registry
from qinv.invariants import InvariantExpr
from qinv.measures import classify3, meyer_wallach
from qinv.numeric import NumericForm
from qinv.poly import random_state
from qinv.verify import lut_invariant_registry, suite_invariance

rng = np.random.default_rng(0)
for k in (3, 4):
    s = random_state(k, rng)
    rows = np.array([random_state(k, rng).amplitudes for _ in range(3)])
    for fn in invariant_registry(k).values():
        fn(s)
        fn.__self__.batch_evaluator()(rows)
    for form in lut_invariant_registry(k).values():
        form.evaluate(s)
        form.batch_evaluator()(rows)
    meyer_wallach(s, "covariant")
classify3(random_state(3, rng))
suite_invariance(k=3)
# Every leaf of every invariant alive; only a plain polynomial's own leaf
# <P|1> is made with its expansion.
leaves = {leaf for x in gc.get_objects() if isinstance(x, InvariantExpr)
          for m in x.top for leaf in m}
# Every numeric form alive; a form that stacks only holomorphic polynomials
# uses no conjugate field.
forms = [x for x in gc.get_objects() if isinstance(x, NumericForm)]
print(json.dumps({
    "pairings": sum(leaf.a is not None and leaf.b is not None
                    for leaf in leaves),
    "expanded": sorted(leaf.order for leaf in leaves
                       if leaf.b is not None and leaf._poly is not None),
    "forms": len(forms),
    "conjugate_forms": sum(form._conj != len(form._sources)
                           for form in forms),
}))
"""


def test_numeric_paths_expand_no_pairing():
    doc = json.loads(_run_fresh(_NUMERIC_PATHS))
    assert doc["pairings"] >= 30
    assert doc["expanded"] == []
    assert doc["forms"] >= 30
    assert doc["conjugate_forms"] == 0


_LIVE_LEAVES = _NUMERIC_PATHS + """
from qinv.invariants import _LEAVES, _Leaf

gc.collect()
live = [x for x in gc.get_objects() if isinstance(x, _Leaf)]
print(json.dumps([len(live), len({(id(x.a), id(x.b)) for x in live}),
                  all(_LEAVES[id(x.a), id(x.b)] is x for x in live)]))
"""


def test_live_leaves_of_the_numeric_paths_have_distinct_pairs():
    # Each pair of polynomial objects has one live leaf, the one `_leaf`
    # hands out.
    last = _run_fresh(_LIVE_LEAVES).splitlines()[-1]
    live, distinct, tabled = json.loads(last)
    assert live >= 30 and distinct == live and tabled


_EXACT_ONLY = """
import contextlib, io, json, os, sys, tempfile
from qinv import invariants
from qinv.cli import run
from qinv.state import ghz

invariants.f7_check()
invariants.syzygy_checks()
invariants.lut3_generator(7).poly.pretty()
with contextlib.redirect_stdout(io.StringIO()):
    run(["covariant", "--k", "4", "--name", "E_3111", "--print"])
before = "qinv.numeric" in sys.modules
with tempfile.TemporaryDirectory() as tmp, \\
        contextlib.redirect_stdout(io.StringIO()):
    path = os.path.join(tmp, "ghz3.json")
    ghz(3).save(path)
    run(["eval", "--state", path, "--invariant", "f7"])
print(json.dumps([before, "qinv.numeric" in sys.modules]))
"""


def test_exact_work_never_loads_the_evaluator():
    # The exact identities and the printed covariants never build a numeric
    # form; the first evaluation imports the evaluator.
    assert json.loads(_run_fresh(_EXACT_ONLY)) == [False, True]


_EXPANSIONS = """
import json
from qinv import invariants

expanded = []
expand = invariants._pairing_poly


def counted(a, b):
    expanded.append((a, b))
    return expand(a, b)


invariants._pairing_poly = counted
repeats = {}
for k in (2, 3, 4):
    del expanded[:]
    [x.poly for x in invariants.lsut_degree4_basis(k)]
    assert invariants.f_squared_relation_check(k)[0]
    pairs = [(id(a), id(b)) for a, b in expanded]
    repeats[k] = len(pairs) - len(set(pairs))
print(json.dumps(repeats))
"""


def test_f_squared_relation_reuses_the_basis_expansions():
    # b_pairing shares the leaf of its lsut_basis(k, 2, 2) element, so the
    # relation expands no B pairing that the degree-4 basis expanded.
    assert json.loads(_run_fresh(_EXPANSIONS)) == {"2": 0, "3": 0, "4": 0}


# sha256 of pretty() of f7, the k=4 covariant E_3111, Delta, and the
# degree-6 k=4 family (one "name<TAB>pretty()" line each), and their
# denominators; the same digests as perfbench/pins.json.
PINNED_EXACT = {
    "f7": ["c705c6cded8e7e86d98b3f6dbb7131f5647dc820d55fcd764104b80f9df9419c",
           [1]],
    "E_3111": [
        "50cf743cd5b710d3233f4f50627d41329582a51aa725e2d6b0de109b792734fa",
        [1]],
    "Delta": [
        "d5eeb9b69c508d7b19273797dea2423532a9dab6adcd1b833dd447b58712eedd",
        [1]],
    "degree6_4": [
        "e1d31a501629d65341c9c6ecf41d86e0c798971fc3abc31f583cfdbc715a7cf3",
        [1] * 20],
}

_PINS_AROUND_EVALUATION = """
import hashlib, json
import numpy as np
from qinv.catalog import catalog_3, catalog_4
from qinv.invariants import degree6_invariants_4, delta_invariant, lut3_generator
from qinv.poly import State, random_state

def pins():
    def pin(*named):
        text = "\\n".join(f"{n}\\t{p.pretty()}" if n else p.pretty()
                         for n, p in named)
        return [hashlib.sha256(text.encode()).hexdigest(),
                [p.den for _, p in named]]
    return {
        "f7": pin(("", lut3_generator(7).poly)),
        "E_3111": pin(("", catalog_4("E_3111").poly)),
        "Delta": pin(("", catalog_3("Delta").poly)),
        "degree6_4": pin(*((n, e.poly) for n, e in degree6_invariants_4())),
    }

before = pins()
rng = np.random.default_rng(1)
for k, exprs in ((3, [lut3_generator(7), delta_invariant()]),
                 (4, [e for _, e in degree6_invariants_4()])):
    s = random_state(k, rng)
    rows = np.array([random_state(k, rng).amplitudes for _ in range(3)])
    for e in exprs:
        e.evaluate(s)
        e.numeric().batch_evaluator()(rows)
        e.poly.evaluate(s)
        e.poly.batch_evaluator()(rows)
catalog_4("E_3111").evaluate(random_state(4, rng), {
    (j, b): 1j + j + b for j in range(1, 5) for b in (0, 1)})
print(json.dumps([before, pins()]))
"""


def test_exact_outputs_are_pinned_around_numeric_evaluation():
    before, after = json.loads(_run_fresh(_PINS_AROUND_EVALUATION))
    assert before == PINNED_EXACT
    assert after == PINNED_EXACT


def _node_kind_exprs():
    """One invariant of every node kind: conjugates, products, powers,
    sums, zero pairings and complex coefficients."""
    a, s2, delta = norm_invariant(3), s2_invariant(), delta_invariant()
    mixed = lut3_generator_sum((1, 0), (1, 0), (0, 1))
    zero = pairing(catalog_3("Hx"), catalog_3("Hy"))
    return [
        s2.conjugate(), delta.conjugate() * s2 * s2, a ** 0, a ** 3,
        mixed * a - Fraction(1, 3) * (a * mixed), (mixed * s2).conjugate(),
        zero + zero, zero * a, zero ** 0, s2 * GaussianRational(1, 2) - s2,
        (s2 * GaussianRational(1, 2)).conjugate(),
    ]


def test_numeric_form_matches_the_expansion_on_every_node_kind(rng):
    import numpy as np

    from qinv.invariants import numeric_form
    from qinv.poly import random_state

    exprs = _node_kind_exprs()
    rows = np.array([random_state(3, rng).amplitudes for _ in range(5)])
    # The expansion evaluated exactly at a Gaussian-integer point is a
    # reference outside the numeric kernel.
    point = rng.integers(-3, 4, size=(2, 8))
    exact_point = {i: GaussianRational(int(r), int(m))
                   for i, (r, m) in enumerate(point.T)}
    at_point = numeric_form(exprs).values(
        np.array([point[0] + 1j * point[1]]))[:, 0]
    together = numeric_form(exprs).values(rows)
    for expr, joint, numeric in zip(exprs, together, at_point):
        want = expr.poly.batch_evaluator()(rows)
        got = expr.numeric().batch_evaluator()(rows)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        assert np.allclose(joint, want, rtol=1e-12, atol=1e-12)
        exact = complex(evaluate_exact(expr.poly, exact_point))
        assert abs(numeric - exact) <= 1e-12 * max(1, abs(exact))


def test_invariants_compare_and_hash_by_value():
    # Two separately built invariants of one polynomial are equal and hash
    # alike; the name takes part in both.
    f = ground_form(3)
    x, y = pairing(f, f, "A"), pairing(f, f, "A")
    assert x is not y
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
    assert x != pairing(f, f, "B")
    assert (x * x).named("A^2") == (y ** 2).named("A^2")
    assert x != x.poly
