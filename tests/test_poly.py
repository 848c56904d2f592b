import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinv.gaussian import GaussianRational
from qinv.poly import (
    DimensionError,
    EvaluationError,
    Polynomial,
    State,
    amp,
    amp_conj,
    aux,
    basis_state,
    ghz,
    mono_mul,
    random_state,
    w_state,
)

K = 2
VARS = [amp(i) for i in range(4)] + [amp_conj(i) for i in range(4)]

coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
monomials = st.lists(
    st.tuples(st.sampled_from(VARS), st.integers(1, 3)),
    max_size=3,
).map(lambda pairs: tuple(sorted(dict(pairs).items())))
polys = st.dictionaries(monomials, coeffs, max_size=5).map(
    lambda d: Polynomial(K, {m: c for m, c in d.items() if c})
)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys)
@settings(max_examples=60, deadline=None)
def test_zero_and_negation(p):
    z = Polynomial.zero(K)
    assert p + z == p
    assert p - p == z
    assert p * z == z


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_evaluate_is_homomorphism(p, q):
    gen = np.random.default_rng(0)
    s = random_state(K, gen)
    assert (p + q).evaluate(s) == pytest.approx(
        p.evaluate(s) + q.evaluate(s), abs=1e-9
    )
    assert (p * q).evaluate(s) == pytest.approx(
        p.evaluate(s) * q.evaluate(s), abs=1e-9
    )


@given(polys)
@settings(max_examples=40, deadline=None)
def test_conjugate_evaluation(p):
    gen = np.random.default_rng(1)
    s = random_state(K, gen)
    assert p.conjugate().evaluate(s) == pytest.approx(
        p.evaluate(s).conjugate(), abs=1e-9
    )


@given(polys)
@settings(max_examples=40, deadline=None)
def test_batch_evaluator_matches_evaluate(p):
    gen = np.random.default_rng(2)
    states = [random_state(K, gen) for _ in range(3)]
    run = p.batch_evaluator()
    got = run(np.array([s.amplitudes for s in states]))
    want = [p.evaluate(s) for s in states]
    assert np.allclose(got, want, atol=1e-9)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_terms_round_trip(p):
    assert Polynomial(K, p.terms) == p


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_equal_polynomials_hash_equal(p, q):
    # The same polynomial reached two ways has one canonical form.
    lhs, rhs = (p + q) * q, p * q + q * q
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_rational_scaling_is_reduced(p):
    assert p * Fraction(1, 3) * 3 == p


@given(polys)
@settings(max_examples=60, deadline=None)
def test_conjugate_is_an_involution(p):
    assert p.conjugate().conjugate() == p


def _reference_pretty(p):
    """pretty() spelled out over the decoded terms."""
    if not p.terms:
        return "0"
    parts = []
    for m in sorted(p.terms):
        factors = []
        for v, e in m:
            if v[0] == "x":
                name = f"x{v[1]}{chr(39) * v[3]}_{v[2]}"
            else:
                name = f"{v[0]}[{format(v[1], f'0{p.k}b')}]"
            factors.append(name if e == 1 else f"{name}^{e}")
        parts.append(f"({p.terms[m]!r})*{'*'.join(factors) or '1'}")
    return " + ".join(parts)


ALL_VARS = VARS + [aux(s, c, copy) for s in (1, 2) for c in (0, 1)
                   for copy in (0, 1, 2)]
mixed_polys = st.dictionaries(
    st.lists(st.tuples(st.sampled_from(ALL_VARS), st.integers(1, 3)),
             max_size=4).map(lambda pairs: tuple(sorted(dict(pairs).items()))),
    coeffs, max_size=8,
).map(lambda d: Polynomial(K, d))


@given(mixed_polys)
@settings(max_examples=80, deadline=None)
def test_pretty_matches_sorted_tuple_monomials(p):
    assert p.pretty() == _reference_pretty(p)


def _reference_evaluate(p, s, aux_values):
    """evaluate() spelled out as a loop over the decoded terms."""
    total = 0j
    for m, c in p.terms.items():
        val = complex(c)
        for v, e in m:
            if v[0] == "a":
                base = s.amplitudes[v[1]]
            elif v[0] == "ac":
                base = s.amplitudes[v[1]].conjugate()
            else:
                base = aux_values[(v[1], v[2])]
            val *= base ** e
        total += val
    return total


@given(mixed_polys)
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_term_loop(p):
    gen = np.random.default_rng(3)
    s = random_state(K, gen)
    aux_values = {(j, b): complex(*gen.normal(size=2))
                  for j in (1, 2) for b in (0, 1)}
    want = _reference_evaluate(p, s, aux_values)
    assert p.evaluate(s, aux_values) == pytest.approx(want, abs=1e-9)


def test_product_past_field_width_raises():
    x = Polynomial.variable(K, amp(0))
    big = x ** 200
    assert big.terms == {((amp(0), 200),): GaussianRational(1)}
    with pytest.raises(OverflowError):
        big * (x ** 56)
    with pytest.raises(OverflowError):
        Polynomial(K, {((amp(0), 200), (amp(1), 100)): GaussianRational(1)})


def _reference_sum_of_products(summands):
    """sum c * P_1 * ... * P_m spelled out over the decoded terms."""
    total = {}
    for c, factors in summands:
        prod = {(): GaussianRational(1)}
        for f in factors:
            step = {}
            for m1, c1 in prod.items():
                for m2, c2 in f.terms.items():
                    m = mono_mul(m1, m2)
                    step[m] = step.get(m, GaussianRational(0)) + c1 * c2
            prod = step
        for m, v in prod.items():
            total[m] = total.get(m, GaussianRational(0)) + v * c
    return Polynomial(K, total)


scalars = st.one_of(
    coeffs,
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(-3, 3),
    st.just(0),
)
summand_lists = st.lists(
    st.tuples(scalars, st.lists(polys, max_size=3).map(tuple)), max_size=4)


@given(summand_lists)
@settings(max_examples=30, deadline=None)
def test_sum_of_products_matches_term_loop(summands):
    got = Polynomial.sum_of_products(K, summands)
    want = _reference_sum_of_products(summands)
    assert got == want
    assert got.den == want.den
    assert hash(got) == hash(want)
    by_mul = Polynomial.zero(K)
    for c, factors in summands:
        prod = Polynomial.constant(K, 1)
        for f in factors:
            prod = prod * f
        by_mul = by_mul + prod * c
    assert got == by_mul


@given(polys, polys, polys, coeffs)
@settings(max_examples=30, deadline=None)
def test_sum_of_products_cancels_to_zero(p, q, r, c):
    z = Polynomial.sum_of_products(K, [
        (c, (p, q, r)), (Fraction(1, 3), (r, p)), (-c, (r, q, p)),
        (Fraction(-1, 3), (p, r))])
    assert z == Polynomial.zero(K)
    assert z.den == 1 and not z.packed


def test_sum_of_products_edge_cases():
    x = Polynomial.variable(K, amp(0), Fraction(1, 2))
    y = Polynomial.variable(K, amp_conj(1), GaussianRational(0, Fraction(1, 3)))
    zero = Polynomial.zero(K)
    # Unequal denominators meet over their lcm.
    s = Polynomial.sum_of_products(K, [(1, (x,)), (1, (y,))])
    assert s == x + y and s.den == 6
    # A zero scalar or a zero factor drops the summand; no factors is c.
    assert Polynomial.sum_of_products(K, [(0, (x, y)), (2, (y, zero))]) == zero
    assert Polynomial.sum_of_products(K, [(Fraction(5, 4), ())]) == Fraction(5, 4)
    assert Polynomial.sum_of_products(K, []) == zero
    assert Polynomial.sum_of_products(K, [(3, (x, y, x))]) == 3 * (x * y * x)


def test_sum_of_products_checks_degree_and_dimension():
    x = Polynomial.variable(K, amp(0))
    with pytest.raises(OverflowError):
        Polynomial.sum_of_products(K, [(1, (x,)), (1, (x ** 100, x ** 100, x ** 56))])
    with pytest.raises(DimensionError):
        Polynomial.sum_of_products(K, [(1, (x, Polynomial.variable(3, amp(0))))])


def test_constructor_validates_monomials():
    with pytest.raises(ValueError):
        Polynomial(K, {((amp(4), 1),): 1})  # no amplitude 4 at k=2
    with pytest.raises(ValueError):
        Polynomial(K, {((amp(0), 0),): 1})
    with pytest.raises(TypeError):
        Polynomial(K, {((amp(0), 1),): 0.5})


def test_partial_derivative_product_rule():
    x = Polynomial.variable(K, amp(0))
    y = Polynomial.variable(K, amp(1))
    p = (x + y) * (x * x + y)
    v = amp(0)
    lhs = p.partial(v)
    rhs = (x + y).partial(v) * (x * x + y) + (x + y) * (x * x + y).partial(v)
    assert lhs == rhs


def test_partial_lowers_degree():
    x = Polynomial.variable(K, amp(0))
    p = x * x * x
    assert p.partial(amp(0)) == 3 * (x * x)
    assert p.partial(amp(1)) == Polynomial.zero(K)


def test_mono_mul_merges_sorted():
    m1 = ((amp(0), 1), (amp(2), 2))
    m2 = ((amp(0), 1), (amp(1), 1))
    assert mono_mul(m1, m2) == ((amp(0), 2), (amp(1), 1), (amp(2), 2))


def test_dimension_mismatch_raises():
    p2 = Polynomial.variable(2, amp(0))
    p3 = Polynomial.variable(3, amp(0))
    with pytest.raises(DimensionError):
        p2 + p3
    with pytest.raises(DimensionError):
        p2 * p3


def test_conjugate_rejects_transvection_intermediates():
    p = Polynomial.variable(K, aux(1, 0, copy=1))
    with pytest.raises(ValueError):
        p.conjugate()


def test_unresolved_aux_raises():
    p = Polynomial.variable(K, aux(1, 0))
    s = basis_state(K, 0)
    with pytest.raises(EvaluationError):
        p.evaluate(s)


def test_state_json_round_trip(tmp_path):
    s = State(3, tuple(complex(i, -i) / 10 for i in range(8)))
    path = tmp_path / "s.json"
    s.save(path)
    with open(path) as fh:
        raw = json.load(fh)
    assert raw["k"] == 3
    assert len(raw["amplitudes"]) == 8
    assert raw["amplitudes"][1] == [0.1, -0.1]
    assert State.load(path) == s


def test_state_validation():
    with pytest.raises(ValueError):
        State(2, (1, 0, 0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 complex(0, float("-inf"))])
def test_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError):
        State(3, (bad,) + (0,) * 7)


@pytest.mark.parametrize("k", [0, -1])
def test_state_rejects_k_below_one(k):
    with pytest.raises(ValueError):
        State(k, (1,))


def test_named_states():
    g = ghz(3)
    assert g.amplitudes[0] == pytest.approx(2 ** -0.5)
    assert g.amplitudes[7] == pytest.approx(2 ** -0.5)
    w = w_state(3)
    assert sum(abs(a) ** 2 for a in w.amplitudes) == pytest.approx(1.0)
    assert w.amplitudes[1] == pytest.approx(3 ** -0.5)
    assert basis_state(2, 3).amplitudes == (0, 0, 0, 1)


# -- the numeric kernel ---------------------------------------------------


def _registry_polys(k):
    from qinv.cli import invariant_registry

    for name, fn in invariant_registry(k).items():
        owner = fn.__self__
        yield name, getattr(owner, "poly", owner)


@pytest.mark.parametrize("k", [3, 4])
def test_registry_scalar_batch_and_exact_agree(k):
    from qinv.invariants import evaluate_exact

    gen = np.random.default_rng(k)
    point = gen.integers(-3, 4, size=(2, 2 ** k))
    exact_point = {i: GaussianRational(int(r), int(m))
                   for i, (r, m) in enumerate(point.T)}
    rows = np.array([point[0] + 1j * point[1]]
                    + [random_state(k, gen).amplitudes for _ in range(4)])
    for name, p in _registry_polys(k):
        batch = p.batch_evaluator()(rows)
        for row, want in zip(rows, batch):
            got = p.evaluate(State(k, tuple(row)))
            assert abs(got - want) <= 1e-12 * abs(want), name
        exact = complex(evaluate_exact(p, exact_point))
        assert abs(batch[0] - exact) <= 1e-12 * abs(exact), name


@pytest.mark.parametrize("p", [Polynomial.zero(3),
                               Polynomial.constant(3, GaussianRational(2, -1))],
                         ids=["zero", "constant"])
def test_zero_and_constant_evaluate_on_both_paths(p):
    gen = np.random.default_rng(4)
    rows = np.array([random_state(3, gen).amplitudes for _ in range(3)])
    want = complex(p.terms.get((), 0))
    assert p.evaluate(State(3, tuple(rows[0]))) == want
    assert p.batch_evaluator()(rows).tolist() == [want] * 3
    assert p.batch_evaluator()(rows[0]) == want


def test_aux_covariant_evaluates_with_an_assignment():
    from qinv.catalog import catalog_3

    cov = catalog_3("T")
    gen = np.random.default_rng(5)
    s = random_state(3, gen)
    aux_values = {(j, b): complex(*gen.normal(size=2))
                  for j in (1, 2, 3) for b in (0, 1)}
    want = _reference_evaluate(cov.poly, s, aux_values)
    assert abs(cov.poly.evaluate(s, aux_values) - want) <= 1e-12 * abs(want)
    with pytest.raises(EvaluationError):
        cov.poly.evaluate(s, {(1, 0): 1})
    with pytest.raises(EvaluationError):
        cov.poly.batch_evaluator()


@pytest.mark.parametrize("k, power", [(3, 17), (7, 1)])
def test_power_table_rows_past_a_byte(k, power):
    # Each used field's power e sits at table row 1 + (e - 1) * fields +
    # field; here that passes 255 (k=3: 16 fields, a_0^18) or the field
    # count itself is 256 (k=7).
    fields = [Polynomial.variable(k, v)
              for i in range(2 ** k) for v in (amp(i), amp_conj(i))]
    p = sum(fields, Polynomial.zero(k)) * Polynomial.variable(k, amp(0)) ** power
    gen = np.random.default_rng(7)
    rows = np.array([random_state(k, gen).amplitudes for _ in range(2)])
    batch = p.batch_evaluator()(rows)
    for row, got in zip(rows, batch):
        s = State(k, tuple(row))
        want = _reference_evaluate(p, s, {})
        assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(p.evaluate(s) - want) <= 1e-12 * abs(want)


def test_batch_evaluation_memory_is_bounded():
    # f7 has 8,412 terms; evaluated on 101 rows, three full rows-by-terms
    # temporaries would be about 13.6 MB each.
    import tracemalloc

    from qinv.invariants import lut3_generator

    gen = np.random.default_rng(6)
    rows = np.array([random_state(3, gen).amplitudes for _ in range(101)])
    run = lut3_generator(7).poly.batch_evaluator()
    tracemalloc.start()
    try:
        run(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
