"""Acceptance suite: eleven numbered criteria, one pass/fail line each,
and the exact checks of criteria 5 and 7 carried to k = 5.

Each test prints "PASS criterion N: ..." when its assertions hold; a failing
assertion leaves the criterion visibly red in the pytest report.  Run with
`pytest -v -s tests/test_acceptance.py` to see the lines as they print.
"""

import numpy as np
import pytest

from qinv.catalog import b_family_all
from qinv.gaussian import GaussianRational
from qinv.hilbert import (
    dim_cov,
    dim_cov_total,
    dim_inv_slocc,
    hilbert_lut_coeffs,
    hilbert_lut_ct,
    lut3_closed_form_coeffs,
    lut4_closed_form_coeffs,
    slocc4_closed_form_coeffs,
)
from qinv.invariants import (
    f7_check,
    f_squared_relation_check,
    lut3_generator,
    lut3_generator_sum,
    jacobian_determinant,
    jacobian_rank,
    lsut_degree4_basis,
    syzygy_checks,
)
from qinv.linalg import rank
from qinv.measures import classify3, meyer_wallach
from qinv.poly import State, basis_state, ghz, random_state, w_state
from qinv.transvection import act_on_state, random_sl2
from qinv.verify import suite_invariance


def _ok(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_degree2_covariant_count():
    for k in (2, 3, 4, 5):
        # The family lists f^2 alongside the B_d (B_{2..2} duplicates f^2),
        # so it has 2^(k-1) + 1 members and exact rank 2^(k-1).
        fam = b_family_all(k)
        assert len(fam) == 2 ** (k - 1) + 1
        assert rank([c.poly for c in fam]) == 2 ** (k - 1)
    _ok(1, "degree-2 family has exact rank 2^(k-1) for k = 2..5")


def test_criterion_02_dimension_formulas():
    for k in (2, 3, 4, 5, 6):
        assert dim_cov_total(2, k) == 2 ** (k - 1)
        assert 2 * dim_cov_total(3, k) == 3 ** (k - 1) + 1
        assert 3 * dim_cov(3, k, (1,) * k) == 2 ** (k - 1) + (-1) ** k
        assert dim_inv_slocc(2, k) == (1 if k % 2 == 0 else 0)
    _ok(2, "covariant dimension formulas reproduced exactly for k = 2..6")


def test_criterion_03_hilbert_cross_validation():
    for k in (2, 3):
        assert hilbert_lut_coeffs(k, 10) == hilbert_lut_ct(k, 10)
    char = hilbert_lut_coeffs(3, 10)
    assert char == lut3_closed_form_coeffs(10)
    assert char[:7] == [1, 0, 1, 0, 4, 0, 5]
    _ok(3, "character route == constant-term route == closed form (k = 2, 3)")


def test_criterion_04_lut4_series():
    char = hilbert_lut_coeffs(4, 6)
    assert char[2] == 1 and char[4] == 8 and char[6] == 20
    assert lut4_closed_form_coeffs(6) == char
    _ok(4, "4-qubit LUT coefficients 1, 8, 20 match the shipped table expansion")


def test_criterion_05_lsut_degree4_dimension():
    # Closed form 7/3 * 2^(k-1) - 4/3 * (-1)^(k-1); at k = 4 this is 20
    # (the printed triple lists 22, an arithmetic slip in the source).
    for k in (2, 3, 4):
        expected = (7 * 2 ** (k - 1) - 4 * (-1) ** (k - 1)) // 3
        basis = lsut_degree4_basis(k)
        assert len(basis) == expected
        assert rank([b.poly for b in basis]) == expected
    assert [len(lsut_degree4_basis(k)) for k in (2, 3, 4)] == [6, 8, 20]
    _ok(5, "LSUT degree-4 basis sizes 6, 8, 20 with exact independence")


def test_lsut_degree4_dimension_and_squared_form_k5():
    # Criterion 5 and the squared-form relation of criterion 7, one qubit
    # further: (7 * 2^4 - 4) / 3 = 36 basis elements with exact rank 36.
    ok, diff = f_squared_relation_check(5)
    assert ok, f"k=5 residual {len(diff.terms)} terms"
    basis = lsut_degree4_basis(5)
    assert len(basis) == (7 * 2 ** 4 - 4) // 3 == 36
    assert rank([b.poly for b in basis]) == 36


def test_criterion_06_unitary_invariance_suite():
    for k in (2, 3, 4):
        report = suite_invariance(k=k, trials=100, seed=0)
        bad = [i["name"] for i in report["items"] if not i["passed"]]
        assert report["passed"], f"k={k} failures: {bad}"
    _ok(6, "all registered invariants stable over 100 random U(2)^k "
           "(<=1e-9) and SL(2,C)^k (<=1e-8) transformations, k = 2..4")


def test_criterion_07_identity_suite():
    for k in (2, 3, 4):
        ok, diff = f_squared_relation_check(k)
        assert ok, f"k={k} residual {len(diff.terms)} terms"
    perm = {
        2: ((1, 0), (1, 0), (0, 1)),
        3: ((1, 0), (0, 1), (1, 0)),
        4: ((0, 1), (1, 0), (1, 0)),
        5: ((1, 0, 2), (0, 2, 1), (2, 1, 0)),
    }
    for idx, (sg, tu, rh) in perm.items():
        assert lut3_generator_sum(sg, tu, rh).poly == lut3_generator(idx).poly
    f7 = f7_check()
    assert f7["corrected_sum_ratio_on_s2"] == GaussianRational(-1)
    assert f7["bracket_equals_conj_delta_s2_squared"]
    assert f7["decomposition_residual_zero"]
    assert f7["printed_display_gap_zero"]
    assert syzygy_checks() == (True, True)
    _ok(7, "squared-form relation (k = 2..4), generator permutation sums, "
           "degree-12 reconciliation and both syzygies hold exactly")


def test_criterion_08_meyer_wallach():
    rng = np.random.default_rng(0)
    for k in (2, 3, 4):
        for _ in range(100):
            s = random_state(k, rng)
            a = meyer_wallach(s, "direct")
            b = meyer_wallach(s, "covariant")
            assert abs(a.q - b.q) <= 1e-10
            assert max(abs(x - y) for x, y in zip(a.d1, b.d1)) <= 1e-10
    assert meyer_wallach(basis_state(3, 0)).q == 0.0
    assert abs(meyer_wallach(ghz(3)).q - 1.0) <= 1e-10
    _ok(8, "Meyer-Wallach routes agree to 1e-10 on 100 states per k = 2..4; "
           "Q(|0...0>) = 0, Q(GHZ_3) = 1")


def test_criterion_09_orbit_table():
    reps = {
        "GHZ": ghz(3),
        "W": w_state(3),
        "B1": State(3, (0, 1, 1, 0, 0, 0, 0, 0)),
        "B2": State(3, (0, 1, 0, 0, 1, 0, 0, 0)),
        "B3": State(3, (0, 0, 1, 0, 1, 0, 0, 0)),
        "SEPARABLE": basis_state(3, 0),
    }
    rng = np.random.default_rng(1)

    def moderate_sl2():
        while True:
            g = random_sl2(rng)
            if np.linalg.norm(g, 2) < 2.0:
                return g

    for label, s in reps.items():
        assert classify3(s, tol=1e-9).label == label
        for _ in range(50):
            moved = act_on_state(tuple(moderate_sl2() for _ in range(3)), s)
            assert classify3(moved, tol=1e-7).label == label
    _ok(9, "all six orbit representatives classify correctly and stay "
           "labeled under 50 random SL(2,C)^3 moves each")


def test_criterion_10_jacobian_nondegeneracy():
    # The literal coordinate completion (a_000..a_111, conj a_000) has an
    # identically zero determinant for structural reasons: the holomorphic
    # discriminant row is a combination of the eight holomorphic coordinate
    # rows.  The printed reference value could not be reproduced from any
    # 7-column minor (stretch goal honestly unattained).  Nondegeneracy is
    # certified by the exact rank and a mixed coordinate completion.
    assert jacobian_rank() == 7
    assert jacobian_determinant(literal=True) == GaussianRational(0)
    d = jacobian_determinant()
    assert d == GaussianRational(4834273876992, 8517530164224)
    _ok(10, "seven primary invariants have exact Jacobian rank 7; a mixed "
            "coordinate completion gives the nonzero determinant "
            "4834273876992 + 8517530164224i (literal completion vanishes "
            "identically; printed reference value unreproducible)")


def test_criterion_11_slocc4_series():
    char = [dim_inv_slocc(d, 4) for d in range(0, 9)]
    assert char == slocc4_closed_form_coeffs(8)
    assert char[::2] == [1, 1, 3, 4, 7]
    _ok(11, "4-qubit SLOCC dimensions 1, 1, 3, 4, 7 at d = 0..8 match the "
            "corrected closed-form series")
