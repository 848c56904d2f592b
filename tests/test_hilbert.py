from fractions import Fraction
from itertools import product

import pytest

from qinv.hilbert import (
    _dense,
    _lsut_dim,
    dim_cov,
    dim_cov_total,
    dim_inv_slocc,
    hilbert_lsut_coeffs,
    hilbert_lsut_ct,
    hilbert_lut_coeffs,
    hilbert_lut_ct,
    hilbert_slocc_coeffs,
    hilbert_slocc_ct,
    lsut3_closed_form_table,
    lsut4_closed_form_table,
    lut3_closed_form_coeffs,
    lut4_closed_form_coeffs,
    slocc4_closed_form_coeffs,
)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_degree2_and_degree3_dimension_formulas(k):
    assert dim_cov_total(2, k) == 2 ** (k - 1)
    assert 2 * dim_cov_total(3, k) == 3 ** (k - 1) + 1
    expected_multilinear = (2 ** (k - 1) + (-1) ** k) // 3
    assert dim_cov(3, k, (1,) * k) == expected_multilinear


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_quadratic_slocc_invariants_exist_iff_even(k):
    assert dim_inv_slocc(2, k) == (1 if k % 2 == 0 else 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_slocc_dimensions_count_the_multidegree_zero_covariants(k):
    # The SLOCC series is read as the LSUT table's column 0; in even degree
    # it counts the covariants of multidegree zero.
    assert [dim_inv_slocc(d, k) for d in range(13)] == [
        0 if d % 2 else dim_cov(d, k, (0,) * k) for d in range(13)]


def test_odd_degrees_vanish():
    assert dim_inv_slocc(3, 4) == 0
    assert dim_cov(2, 3, (1, 0, 0)) == 0  # parity-inadmissible multidegree


@pytest.mark.parametrize("k", [2, 3])
def test_lut_character_equals_constant_term(k):
    assert hilbert_lut_coeffs(k, 10) == hilbert_lut_ct(k, 10)


@pytest.mark.parametrize("k,n", [(2, 8), (3, 8), (4, 8),
                                 (1, 0), (1, 6), (5, 0), (5, 6)])
def test_slocc_character_equals_constant_term(k, n):
    assert hilbert_slocc_ct(k, n) == hilbert_slocc_coeffs(k, n)


def test_lut4_and_lsut3_constant_term_agree_at_larger_sizes():
    assert hilbert_lut_ct(4, 8) == hilbert_lut_coeffs(4, 8)
    assert hilbert_lsut_ct(3, 7, 7) == hilbert_lsut_coeffs(3, 7, 7)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("nmax", [0, 1, 7])
def test_lut_constant_term_at_the_edges_of_the_diagonal(k, nmax):
    # nmax = 0 and odd nmax cut the LSUT diagonal at nmax // 2.
    assert hilbert_lut_ct(k, nmax) == hilbert_lut_coeffs(k, nmax)


def test_lut5_constant_term():
    assert hilbert_lut_ct(5, 6) == [1, 0, 1, 0, 16, 0, 91]


def test_non_integer_coefficient_is_an_error():
    # An explicit raise, not an assert, so `python -O` cannot print a
    # truncated coefficient.
    with pytest.raises(ArithmeticError):
        _dense({(0,): Fraction(1, 2)}, (0,))


def test_lut3_closed_form_agrees():
    char = hilbert_lut_coeffs(3, 12)
    closed = lut3_closed_form_coeffs(12)
    assert char == closed
    assert char[:7] == [1, 0, 1, 0, 4, 0, 5]


def test_lut4_low_degrees_and_table():
    # The shipped numerator starts at z^6, so n=12 exercises more than one
    # of its terms.
    char = hilbert_lut_coeffs(4, 12)
    assert char == [1, 0, 1, 0, 8, 0, 20, 0, 98, 0, 293, 0, 1128]
    closed = lut4_closed_form_coeffs(12)
    assert closed == char


def test_lsut3_character_ct_and_closed_form_agree():
    char = hilbert_lsut_coeffs(3, 4, 4)
    ct = hilbert_lsut_ct(3, 4, 4)
    closed = lsut3_closed_form_table(4, 4)
    assert char == ct == closed


def test_lsut_diagonal_matches_lut():
    # The diagonal of the LSUT table is the LUT series in even degree,
    # dim LUT(2n) = table[n][n], and LUT vanishes in odd degree; checked on
    # the shipped closed forms, which share no code with either route.
    for lsut, lut in ((lsut3_closed_form_table, lut3_closed_form_coeffs),
                      (lsut4_closed_form_table, lut4_closed_form_coeffs)):
        t = lsut(12, 12)
        coeffs = lut(24)
        assert [t[n][n] for n in range(13)] == coeffs[::2]
        assert not any(coeffs[1::2])


def test_lsut4_closed_form_low_orders():
    t = lsut4_closed_form_table(3, 3)
    char = hilbert_lsut_coeffs(4, 3, 3)
    assert t == char


def test_slocc4_corrected_closed_form():
    char = [dim_inv_slocc(d, 4) for d in range(0, 9)]
    closed = slocc4_closed_form_coeffs(8)
    assert char == closed
    assert char[::2] == [1, 1, 3, 4, 7]


def test_slocc3_series_is_hyperdeterminant_only():
    # For 3 qubits the invariant ring is generated by the quartic
    # hyperdeterminant: dimensions 1,0,1,0,1,... in even degrees 0,2,4,...
    vals = [dim_inv_slocc(d, 3) for d in range(0, 13)]
    assert vals == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_consistency_total_vs_multidegree_sum():
    # dim_cov_total must equal the sum over admissible multidegrees.
    for k in (2, 3):
        for n in (2, 3, 4):
            total = 0
            for d in product(range(n + 1), repeat=k):
                total += dim_cov(n, k, d)
            assert total == dim_cov_total(n, k)


@pytest.mark.parametrize("k,nmax", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 4)])
def test_lsut_dim_is_the_multidegree_sum(k, nmax):
    # The pairings of covariants with a common multidegree d, summed over d.
    for n1 in range(nmax + 1):
        for n2 in range(nmax + 1):
            m = min(n1, n2)
            expected = 0 if (n1 - n2) % 2 else sum(
                dim_cov(n1, k, d) * dim_cov(n2, k, d)
                for d in product(range(m % 2, m + 1, 2), repeat=k))
            assert _lsut_dim(k, n1, n2) == expected
