import json
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinv import poly
from qinv.catalog import catalog_3
from qinv.gaussian import GaussianRational
from qinv.poly import (
    DimensionError,
    EvaluationError,
    Polynomial,
    _scalar,
    State,
    amp,
    amp_conj,
    aux,
    basis_state,
    ghz,
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


def _reference_monomial(m, k):
    factors = []
    for v, e in m:
        if v[0] == "x":
            name = f"x{v[1]}_{v[2]}"
        else:
            name = f"{v[0]}[{format(v[1], f'0{k}b')}]"
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors) or "1"


def _reference_pretty(p):
    """pretty() spelled out over the decoded terms."""
    if not p.terms:
        return "0"
    return " + ".join(f"({p.terms[m]!r})*{_reference_monomial(m, p.k)}"
                      for m in sorted(p.terms))


ALL_VARS = VARS + [aux(s, c) for s in (1, 2) for c in (0, 1)]
mixed_polys = st.dictionaries(
    st.lists(st.tuples(st.sampled_from(ALL_VARS), st.integers(1, 3)),
             max_size=4).map(lambda pairs: tuple(sorted(dict(pairs).items()))),
    coeffs, max_size=8,
).map(lambda d: Polynomial(K, d))


@given(mixed_polys)
@settings(max_examples=80, deadline=None)
def test_pretty_matches_sorted_tuple_monomials(p):
    assert p.pretty() == _reference_pretty(p)


@st.composite
def wide_polys(draw):
    """Polynomials at k = 1, 3 or 4 over every variable kind, with
    exponents up to 255."""
    k = draw(st.sampled_from([1, 3, 4]))
    names = ([amp(i) for i in range(2 ** k)]
             + [amp_conj(i) for i in range(2 ** k)]
             + [aux(j, b) for j in range(1, k + 1) for b in (0, 1)])
    mono = st.lists(st.tuples(st.sampled_from(names),
                              st.sampled_from([1, 2, 3, 85])), max_size=3)
    mono = mono.map(lambda m: tuple(sorted(dict(m).items())))
    terms = draw(st.dictionaries(mono, coeffs, max_size=12))
    if draw(st.booleans()):
        terms[((names[-1], 255),)] = GaussianRational(1)
    return Polynomial(k, terms)


@given(wide_polys())
@settings(max_examples=60, deadline=None)
def test_pretty_lists_terms_in_sorted_order(p):
    assert p.pretty() == _reference_pretty(p)
    if p.terms:
        shown = [t.split(")*", 1)[1] for t in p.pretty().split(" + ")]
        assert shown == [_reference_monomial(m, p.k) for m in sorted(p.terms)]


@pytest.mark.parametrize("k", range(1, 9))
def test_fields_run_in_the_order_of_their_variables(k):
    # pretty() sorts terms by their (field, exponent) sequences and decode()
    # lists factors by field; both are the tuple order only because of this.
    lay = poly.layout(k)
    assert sorted(range(len(lay.var)), key=lay.var.__getitem__) == list(
        range(len(lay.var)))


def test_pretty_edge_cases():
    g = GaussianRational
    # A factor list that is a prefix of another's sorts first, and the
    # constant term, first of all, is shown as "(c)*1".
    p = Polynomial(1, {
        ((amp(0), 1), (amp(1), 1)): g(2),
        ((amp(0), 1),): g(0, -1),
        (): g(Fraction(1, 3), 1),
        ((amp(0), 1), (amp(1), 1), (amp_conj(0), 10)): g(-1),
        ((amp(0), 2),): g(5),
        ((aux(1, 1), 255),): g(1),
    })
    assert p.pretty() == (
        "((1/3+1*I))*1 + (-1*I)*a[0] + (2)*a[0]*a[1]"
        " + (-1)*a[0]*a[1]*ac[0]^10 + (5)*a[0]^2 + (1)*x1_1^255")
    assert p.pretty() == _reference_pretty(p)
    assert Polynomial.constant(1, Fraction(-2, 7)).pretty() == "(-2/7)*1"
    assert Polynomial.variable(1, aux(1, 0)).pretty() == "(1)*x1_0"
    # k = 5, 74 fields.
    q = Polynomial(5, {
        ((amp(31), 10), (amp_conj(0), 1), (aux(5, 1), 3)): g(1, 1),
        ((amp(31), 10), (amp_conj(0), 1)): g(-3),
        ((amp(3), 1), (amp(7), 1), (amp(9), 1), (amp(11), 1), (amp(13), 1),
         (amp(31), 2)): g(1),
        ((amp(3), 1), (amp(7), 1), (amp(9), 1), (amp(11), 1), (amp(13), 1),
         (amp(31), 1)): g(1),
        ((amp_conj(31), 255),): g(Fraction(1, 2)),
    })
    assert q.pretty() == (
        "(1)*a[00011]*a[00111]*a[01001]*a[01011]*a[01101]*a[11111]"
        " + (1)*a[00011]*a[00111]*a[01001]*a[01011]*a[01101]*a[11111]^2"
        " + (-3)*a[11111]^10*ac[00000]"
        " + ((1+1*I))*a[11111]^10*ac[00000]*x5_1^3 + (1/2)*ac[11111]^255")
    assert q.pretty() == _reference_pretty(q)
    # 20 distinct factors take 5 bits each, so a word holds 12 of them and
    # the longer terms need a second word.
    ones = [(amp(i), 1) for i in range(20)]
    r = Polynomial(5, {tuple(ones[:13]): g(1), tuple(ones[:12]): g(2),
                       tuple(ones[:12] + ones[19:]): g(3),
                       tuple(ones[:11] + ones[13:14] + ones[19:]): g(4),
                       tuple(ones[1:13]): g(5), tuple(ones): g(6)})
    assert r.pretty() == _reference_pretty(r)
    assert [t.split(")")[0] for t in r.pretty().split(" + ")] == [
        "(2", "(1", "(6", "(3", "(4", "(5"]


@given(mixed_polys)
@settings(max_examples=60, deadline=None)
def test_identity_does_not_depend_on_insertion_order(p):
    # Only numeric evaluation reads the order of the numerator dicts.
    q = Polynomial.from_packed(K, dict(reversed(p._re.items())),
                               dict(reversed(p._im.items())), p.den,
                               p.degree_bound)
    assert q == p and hash(q) == hash(p)
    assert q.pretty() == p.pretty()
    assert list(q._re) == list(reversed(p._re))
    assert list(q._im) == list(reversed(p._im))


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


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Merge two sorted monomials, adding exponents: the reference product
    of two tuple monomials."""
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


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
    assert z.den == 1 and not z._re and not z._im


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


def _dict_loop_sum_of_products(k, summands):
    """Polynomial.sum_of_products as one real and one imaginary dict filled
    term pair by term pair: the reference for the order of the numerator
    dicts as well as for their items."""
    one = Polynomial.constant(k, 1)
    products, den, bound = [], 1, 0
    for c, factors in summands:
        cr, ci, d = _scalar(c)
        if (cr or ci) and all(factors):
            left = reduce(
                lambda x, y: _dict_loop_sum_of_products(k, [(1, (x, y))]),
                factors[:-1]) if len(factors) > 1 else one
            last = factors[-1] if factors else one
            d *= left.den * last.den
            products.append((cr, ci, d, left, last))
            den = lcm(den, d)
            bound = max(bound, sum(f.degree_bound for f in factors))

    def accumulate(acc, left, right, sign):
        if len(left) > len(right):
            left, right = right, left
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                acc[m1 + m2] = acc.get(m1 + m2, 0) + sign * c1 * c2

    re, im = {}, {}
    for cr, ci, d, a, b in products:
        if len(a._re) + len(a._im) > len(b._re) + len(b._im):
            a, b = b, a
        cr, ci = cr * den // d, ci * den // d
        # A real factor scales each dict in its own order; a complex one
        # mixes them, in the term order of a.
        if ci:
            items = list(zip(*a._columns()))
            a_re = {m: r * cr - i * ci for m, r, i in items
                    if r * cr - i * ci}
            a_im = {m: r * ci + i * cr for m, r, i in items
                    if r * ci + i * cr}
        else:
            a_re = {m: r * cr for m, r in a._re.items()}
            a_im = {m: i * cr for m, i in a._im.items()}
        accumulate(re, a_re, b._re, 1)
        accumulate(re, a_im, b._im, -1)
        accumulate(im, a_re, b._im, 1)
        accumulate(im, a_im, b._re, 1)
    return Polynomial.from_packed(k, {m: r for m, r in re.items() if r},
                                  {m: i for m, i in im.items() if i}, den,
                                  bound)


@pytest.fixture
def sort_reduce(monkeypatch):
    """Records the words and the sums dtype of every `_reduce` call, so a
    test can see that the numpy path ran and how it stored codes and sums.
    Every word must leave the low `bits` bits free for the sort position."""
    seen = []
    reduce_ = poly._reduce

    def spy(codes, least, sums, bits):
        assert codes.min(initial=0) >= 0
        assert codes.max(initial=0) < 1 << (63 - bits)
        seen.append((len(codes), sums.dtype))
        return reduce_(codes, least, sums, bits)

    monkeypatch.setattr(poly, "_reduce", spy)
    return seen


def _assert_same_dict(k, summands):
    got = Polynomial.sum_of_products(k, summands)
    want = _dict_loop_sum_of_products(k, summands)
    assert got.den == want.den
    assert list(got._re.items()) == list(want._re.items())
    assert list(got._im.items()) == list(want._im.items())
    return got


def _seeded(k, seed, terms, big=0, aux_vars=False):
    """A seeded polynomial: `terms` monomials of up to three variables with
    exponents up to 2 and Gaussian-integer coefficients shifted by `big`."""
    gen = np.random.default_rng(seed)
    names = ([amp(i) for i in range(2 ** k)]
             + [amp_conj(i) for i in range(2 ** k)])
    if aux_vars:
        names += [aux(j, b) for j in range(1, k + 1) for b in (0, 1)]
    out = {}
    for _ in range(terms):
        mono = dict(zip((names[i] for i in gen.integers(0, len(names), 3)),
                        gen.integers(1, 3, 3).tolist()))
        out[tuple(sorted(mono.items()))] = GaussianRational(
            int(gen.integers(-9, 10)) << big, int(gen.integers(-9, 10)) << big)
    return Polynomial(k, out)


def test_numpy_sum_keeps_the_dict_order_with_complex_coefficients(sort_reduce):
    p, q, r = _seeded(3, 1, 120), _seeded(3, 2, 110), _seeded(3, 3, 20)
    _assert_same_dict(3, [(GaussianRational(2, -1), (p, q)),
                          (Fraction(1, 3), (q, r)), (1, (r, r, q)),
                          (-2, (q,))])
    assert sort_reduce


def test_numpy_sum_past_int64_runs_on_python_ints(sort_reduce):
    p, q = _seeded(3, 4, 100, big=40), _seeded(3, 5, 100, big=40)
    got = _assert_same_dict(3, [(3, (p, q)), ((1 << 70) + 1, (q, p))])
    assert max(map(abs, chain(got._re.values(), got._im.values()))) >> 63
    assert any(dtype == object for _, dtype in sort_reduce)


def test_numpy_sum_of_k4_aux_polynomials_in_two_words(sort_reduce):
    p, q = _seeded(4, 6, 100, aux_vars=True), _seeded(4, 7, 100, aux_vars=True)
    _assert_same_dict(4, [(1, (p, q.conjugate())),
                          (GaussianRational(0, 1), (q, q))])
    assert max(words for words, _ in sort_reduce) >= 2


def test_numpy_sum_with_an_aux_covariant(sort_reduce):
    t = catalog_3("T").poly
    p = _seeded(3, 8, 250)
    _assert_same_dict(3, [(1, (t, p)), (Fraction(-1, 2), (p, t.conjugate()))])
    assert sort_reduce


def test_numpy_sum_that_cancels_to_zero(sort_reduce):
    p, q = _seeded(3, 9, 120), _seeded(3, 10, 120)
    c = GaussianRational(Fraction(1, 2), 3)
    z = _assert_same_dict(3, [(c, (p, q)), (-c, (q, p))])
    assert not z._re and not z._im and z.den == 1
    assert sort_reduce


def test_times_one_keeps_the_term_order_and_the_value():
    # The imaginary-only terms are given first; the terms of p, as of every
    # product, run the real keys first, so p * 1 iterates and evaluates
    # like p to the last bit.
    seeded = list(_seeded(3, 11, 120).terms.items())
    p = Polynomial(3, {**{m: GaussianRational(0, c.im or 1)
                          for m, c in seeded[:60]},
                       **{m: GaussianRational(c.re or 1, c.im)
                          for m, c in seeded[60:]}})
    assert list((p * 1).terms) == list(p.terms)
    gen = np.random.default_rng(12)
    states = [random_state(3, gen) for _ in range(200)]
    values = [np.array([q.evaluate(s) for s in states]).tobytes()
              for q in (p, p * 1)]
    assert values[0] == values[1]


@given(summand_lists)
@settings(max_examples=25, deadline=None)
def test_numpy_sum_in_tiny_chunks_matches_dict_loop(summands):
    # Every sum takes the numpy path, four pairs to a chunk, so that the
    # merges run many times.
    with mock.patch.object(poly, "_PAIRS", 0), \
            mock.patch.object(poly, "_CHUNK", 4):
        _assert_same_dict(K, summands)


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


def test_conjugate_keeps_aux_and_primed_copies_are_not_variables():
    x = Polynomial.variable(K, aux(1, 0))
    a = Polynomial.variable(K, amp(1))
    ac = Polynomial.variable(K, amp_conj(1))
    assert x.conjugate() == x
    assert (x * a).conjugate() == x * ac
    for var in (("x", 1, 0, 1), ("x", 1, 0, 2)):
        with pytest.raises(ValueError, match="unknown variable"):
            Polynomial.variable(K, var)


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


def _numeric_forms(k):
    """(name, numeric form, expanded polynomial) for every name of
    `invariant_registry(k)` and of both `verify` registries."""
    from qinv.catalog import catalog_4, cayley_hyperdet, degree4_invariants
    from qinv.cli import invariant_registry
    from qinv.verify import lut_invariant_registry, slocc_invariant_registry

    reg = invariant_registry(k)
    expanded = {name: build().poly for name, build in reg._builders.items()}
    for name, fn in reg.items():
        yield name, fn.__self__, expanded[name]
    for name, form in lut_invariant_registry(k).items():
        yield f"LUT:{name}", form, expanded[name.removeprefix("deg6:")]
    slocc = {cov.name: cov.poly for cov in degree4_invariants(k)}
    if k == 3:
        slocc["Det"] = cayley_hyperdet()
    if k == 4:
        slocc["B_0000"] = catalog_4("B_0000").poly
    for name, form in slocc_invariant_registry(k).items():
        yield f"SLOCC:{name}", form, slocc[name]


@pytest.mark.parametrize("k", [3, 4])
def test_registry_scalar_batch_and_exact_agree(k):
    # The numeric forms evaluate pairings through their covariants.  The
    # references lie outside the numeric kernel: `evaluate_exact` on the
    # expansion at a Gaussian-integer point, and the term loop
    # `_reference_evaluate` on two random states; the expansion through
    # the kernel is compared to 1e-12 on all rows.
    from qinv.invariants import evaluate_exact

    gen = np.random.default_rng(k)
    point = gen.integers(-3, 4, size=(2, 2 ** k))
    exact_point = {i: GaussianRational(int(r), int(m))
                   for i, (r, m) in enumerate(point.T)}
    rows = np.array([point[0] + 1j * point[1]]
                    + [random_state(k, gen).amplitudes for _ in range(32)])
    for name, form, poly in _numeric_forms(k):
        batch = form.batch_evaluator()(rows)
        ref = poly.batch_evaluator()(rows)
        assert np.all(np.abs(batch - ref)
                      <= 1e-12 * np.maximum(1, np.abs(ref))), name
        for row, want in zip(rows, batch):
            got = form.evaluate(State(k, tuple(row)))
            assert abs(got - want) <= 1e-12 * abs(want), name
        exact = complex(evaluate_exact(poly, exact_point))
        assert abs(batch[0] - exact) <= 1e-12 * abs(exact), name
        for row, got in zip(rows[1:3], batch[1:3]):
            want = _reference_evaluate(poly, State(k, tuple(row)), {})
            assert abs(got - want) <= 1e-12 * max(1, abs(want)), name


@pytest.mark.parametrize("k", [3, 4])
def test_registry_evaluation_takes_one_kernel_call(k, monkeypatch):
    # Every numeric path, scalar or batched, single- or multi-output, runs
    # the kernel once.
    from qinv.cli import invariant_registry
    from qinv.measures import classify3_batch, hyperdet3, meyer_wallach
    from qinv.numeric import NumericForm
    from qinv.verify import lut_invariant_registry, slocc_invariant_registry

    gen = np.random.default_rng(k)
    s = random_state(k, gen)
    rows = np.array([random_state(k, gen).amplitudes for _ in range(3)])
    forms = [(name, fn.__self__) for name, fn in invariant_registry(k).items()]
    forms += [(f"LUT:{name}", form)
              for name, form in lut_invariant_registry(k).items()]
    forms += [(f"SLOCC:{name}", form)
              for name, form in slocc_invariant_registry(k).items()]
    paths = [("meyer_wallach", lambda: meyer_wallach(s, route="covariant"))]
    if k == 3:
        paths += [("hyperdet3", lambda: hyperdet3(s)),
                  ("classify3_batch", lambda: classify3_batch(rows))]
    for name, form in forms:
        run = form.batch_evaluator()
        paths += [(name, lambda form=form: form.evaluate(s)),
                  (name, lambda run=run: run(rows))]
    calls = []
    kernel = NumericForm._kernel

    def counted(self, amplitudes):
        calls.append(1)
        return kernel(self, amplitudes)

    monkeypatch.setattr(NumericForm, "_kernel", counted)
    for name, path in paths:
        calls.clear()
        path()
        assert len(calls) == 1, name


def test_plain_leaves_read_the_kernel_row():
    # A plain polynomial is the leaf <P|1>: its form stacks P alone, in one
    # slot, with no unit polynomial and no pair stage, and its value is
    # P's kernel row itself; <1|P> is the conjugate row.
    from qinv.catalog import cayley_hyperdet
    from qinv.invariants import InvariantExpr, delta_invariant

    det, delta = cayley_hyperdet(), delta_invariant()
    gen = np.random.default_rng(8)
    rows = np.array([random_state(3, gen).amplitudes for _ in range(4)])
    for poly, form, conj in (
            (det, det.numeric(), False),
            (det, InvariantExpr(det, (4, 0), "Det").numeric(), False),
            (delta.poly, delta.conjugate().numeric(), True)):
        assert len(form._coeffs) == len(poly.terms)
        assert len(form._slot_starts) == 1
        assert len(form._pa) == 0
        row = form._kernel(rows)[0]
        want = np.conjugate(row) if conj else row
        assert form.values(rows)[0].tolist() == want.tolist()


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


def test_empty_batch_gives_an_empty_vector():
    from qinv.catalog import cayley_hyperdet
    from qinv.invariants import lut3_generator

    for run in (cayley_hyperdet().batch_evaluator(),
                lut3_generator(7).numeric().batch_evaluator()):
        out = run(np.zeros((0, 8), dtype=complex))
        assert out.shape == (0,)


def test_batch_shapes_other_than_rows_raise_dimension_error():
    from qinv.catalog import cayley_hyperdet
    from qinv.invariants import lut3_generator

    for run in (cayley_hyperdet().batch_evaluator(),
                lut3_generator(7).numeric().batch_evaluator()):
        for shape in [(2, 8, 3), (1, 2, 8), (), (2, 7), (8, 3), (7,)]:
            with pytest.raises(DimensionError):
                run(np.zeros(shape, dtype=complex))


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
    # Its form's one leaf <P|1> would read only the aux-free part.
    with pytest.raises(EvaluationError):
        cov.poly.numeric()


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


def _memory_case(name):
    from qinv.invariants import degree6_invariant_4, lut3_generator

    if name == "f7-expanded":
        return 3, lut3_generator(7).poly
    if name == "f7-numeric":
        return 3, lut3_generator(7).numeric()
    return 4, degree6_invariant_4("<C_3111|C_3111>").numeric()


@pytest.mark.parametrize("name", ["f7-expanded", "f7-numeric",
                                  "C_3111-numeric"])
def test_batch_evaluation_memory_is_bounded(name):
    # Expanded f7 has 8,412 terms; evaluated on 101 rows, three full
    # rows-by-terms temporaries would be about 13.6 MB each.  The numeric
    # forms run the same kernel over their covariants' terms.
    import tracemalloc

    k, form = _memory_case(name)
    gen = np.random.default_rng(6)
    rows = np.array([random_state(k, gen).amplitudes for _ in range(101)])
    run = form.batch_evaluator()
    tracemalloc.start()
    try:
        run(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
