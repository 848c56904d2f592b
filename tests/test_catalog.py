import os
import subprocess
import sys
from itertools import product

import pytest

from qinv.catalog import (
    b_family,
    b_family_all,
    b_multidegrees,
    catalog_3,
    catalog_4,
    cayley_hyperdet,
    covariant_basis,
    covariant_by_name,
    degree3_multilinear_basis,
    degree4_invariants,
    ground_form,
)
from qinv.hilbert import (dim_cov, hilbert_lsut_coeffs, hilbert_lut_coeffs,
                          hilbert_lut_ct)
from qinv.invariants import lsut_basis
from qinv.linalg import independent_subset, rank
from qinv.poly import Polynomial, amp, aux
from qinv.transvection import transvect


def test_ground_form_shape():
    f = ground_form(3)
    assert len(f.poly.terms) == 8
    assert f.amp_degree == 1
    assert f.multidegree == (1, 1, 1)


def test_b_multidegrees_even_zero_count():
    for k in (2, 3, 4):
        ds = b_multidegrees(k)
        assert len(ds) == 2 ** (k - 1)
        assert all(d.count(0) % 2 == 0 for d in ds)


def test_b_family_rejects_odd_zero_count():
    with pytest.raises(ValueError):
        b_family(3, (2, 2, 0))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_degree2_family_rank(k):
    fam = b_family_all(k)
    assert rank([c.poly for c in fam]) == 2 ** (k - 1)


def test_b_222_equals_f_squared():
    f = ground_form(3)
    assert b_family(3, (2, 2, 2)).poly == (f * f).poly


def test_hessian_proportional_to_b():
    # B_200 = (f,f)^(0,1,1) equals 2 H_x with the literal Omega operator.
    hx = catalog_3("Hx")
    b = b_family(3, (2, 0, 0))
    assert b.poly == hx.poly * 2


def _hand_entered_hyperdet() -> Polynomial:
    """The classical 2x2x2 hyperdeterminant, entered term by term: the
    oracle that `cayley_hyperdet()`, a view of Delta, is checked against."""
    a = {bits: amp(int(bits, 2)) for bits in
         ["000", "001", "010", "011", "100", "101", "110", "111"]}

    def term(coeff, *bits):
        mono: dict = {}
        for b in bits:
            mono[a[b]] = mono.get(a[b], 0) + 1
        return Polynomial(3, {tuple(sorted(mono.items())): coeff})

    p = Polynomial.zero(3)
    for b1, b2 in [("000", "111"), ("001", "110"), ("010", "101"), ("011", "100")]:
        p = p + term(1, b1, b1, b2, b2)
    for quad in [
        ("000", "001", "110", "111"),
        ("000", "010", "101", "111"),
        ("000", "011", "100", "111"),
        ("001", "010", "101", "110"),
        ("001", "011", "100", "110"),
        ("010", "011", "100", "101"),
    ]:
        p = p + term(-2, *quad)
    for quad in [("000", "011", "101", "110"), ("001", "010", "100", "111")]:
        p = p + term(4, *quad)
    return p


def test_delta_is_twice_cayley_hyperdet():
    oracle = _hand_entered_hyperdet()
    assert catalog_3("Delta").poly == oracle * 2
    assert cayley_hyperdet() == oracle
    assert cayley_hyperdet().pretty() == oracle.pretty()


def test_cayley_hyperdet_term_count():
    # 4 squared-pair terms, 6 with coefficient -2, 2 with coefficient 4.
    p = cayley_hyperdet()
    assert len(p.terms) == 12
    from collections import Counter

    counts = Counter(complex(c) for c in p.terms.values())
    assert counts == {1 + 0j: 4, -2 + 0j: 6, 4 + 0j: 2}


def test_t_multidegree():
    t = catalog_3("T")
    assert t.amp_degree == 3
    assert t.multidegree == (1, 1, 1)


@pytest.mark.parametrize("k,count", [(2, 1), (3, 1), (4, 3)])
def test_degree3_multilinear_basis_counts(k, count):
    basis = degree3_multilinear_basis(k)
    assert len(basis) == count
    assert len(basis) == dim_cov(3, k, (1,) * k)


@pytest.mark.parametrize("k,count", [(2, 1), (3, 1), (4, 3)])
def test_degree4_invariant_counts(k, count):
    basis = degree4_invariants(k)
    assert len(basis) == count
    assert all(c.multidegree == (0,) * k for c in basis)


def test_catalog_4_multidegrees_match_names():
    for name in ("C1_1111", "C2_1111", "C_3111", "C_1311", "C_1131",
                 "C_1113", "D_4000", "D_0400", "D_0040", "D_0004",
                 "D_2200", "E_3111"):
        cov = catalog_4(name)
        digits = tuple(int(c) for c in name.split("_")[1])
        assert cov.multidegree == digits, name


def test_catalog_4_chain_reproduces_direct_transvection():
    f = ground_form(4)
    b = b_family(4, (2, 2, 0, 0))
    direct = transvect(f, b, (1, 1, 0, 0))
    assert catalog_4("C1_1111").poly == direct.poly


def test_covariant_by_name_dispatch():
    assert covariant_by_name(3, "Delta").name == "Delta"
    assert covariant_by_name(4, "B_2200").multidegree == (2, 2, 0, 0)
    assert covariant_by_name(2, "f").k == 2
    with pytest.raises(KeyError):
        covariant_by_name(3, "nonsense")
    with pytest.raises(KeyError):
        covariant_by_name(2, "B_200")


def _second_partial(p, *variables):
    for v in variables:
        p = p.partial(v)
    return p


def test_catalog_3_matches_determinants_of_partials():
    # The Hessians and T as the hand-written Omega process: 2x2
    # determinants of partial derivatives of f and Hx.
    f = ground_form(3).poly
    for name, slot in (("Hx", 1), ("Hy", 2), ("Hz", 3)):
        s1, s2 = [j for j in (1, 2, 3) if j != slot]
        det = (_second_partial(f, aux(s1, 0), aux(s2, 0))
               * _second_partial(f, aux(s1, 1), aux(s2, 1))
               - _second_partial(f, aux(s1, 1), aux(s2, 0))
               * _second_partial(f, aux(s1, 0), aux(s2, 1)))
        h = catalog_3(name)
        assert h.poly == det and h.poly.den == det.den
        assert (h.name, h.amp_degree) == (name, 2)
        assert h.multidegree == tuple(2 if j == slot else 0 for j in (1, 2, 3))
    hx = catalog_3("Hx").poly
    det = (f.partial(aux(1, 0)) * hx.partial(aux(1, 1))
           - f.partial(aux(1, 1)) * hx.partial(aux(1, 0)))
    t = catalog_3("T")
    assert t.poly == det and t.poly.den == det.den
    assert t.name == "T"


def _first_independent(candidates):
    polys = [c.poly for c in candidates if c.poly]
    return [polys[i] for i in independent_subset(polys)]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_basis_views_keep_the_bespoke_constructions(k):
    # The degree-3 basis transvected f onto f^2 and the B family in
    # b_family_all order, and the degree-4 basis f onto the degree-3 one;
    # the engine's views must pick the same polynomials in the same order.
    f = ground_form(k)
    c = degree3_multilinear_basis(k)
    d = degree4_invariants(k)
    assert [x.name for x in c] == [f"C{n}" for n in range(1, len(c) + 1)]
    assert [x.name for x in d] == [f"D{n}" for n in range(1, len(d) + 1)]
    assert [x.poly for x in c] == _first_independent(
        transvect(f, b, tuple(x // 2 for x in b.multidegree))
        for b in b_family_all(k))
    assert [x.poly for x in d] == _first_independent(
        transvect(f, x, (1,) * k) for x in c)


def test_covariant_basis_low_degrees():
    assert covariant_basis(3, 1, (1, 1, 1)) == (ground_form(3),)
    assert covariant_basis(3, 2, (2, 0, 0)) == (b_family(3, (2, 0, 0)),)
    assert covariant_basis(3, 2, (2, 2, 0)) == ()
    assert covariant_basis(3, 3, (2, 1, 1)) == ()
    with pytest.raises(ValueError):
        covariant_basis(3, 2, (2, 0))


def test_covariant_basis_of_degree_zero_is_the_constant():
    (one,) = covariant_basis(3, 0, (0, 0, 0))
    assert one.poly == Polynomial.constant(3, 1)
    assert (one.amp_degree, one.multidegree) == (0, (0, 0, 0))
    assert covariant_basis(3, 0, (2, 0, 0)) == ()
    assert covariant_basis(3, 0, (1, 1, 1)) == ()
    with pytest.raises(ValueError):
        covariant_basis(3, -1, (0, 0, 0))


_NO_HILBERT = """
import sys
from qinv.catalog import catalog_3
from qinv.invariants import b_pairing
b_pairing(3, (2, 0, 0))
catalog_3("T")
catalog_3("Delta")
print("qinv.hilbert" in sys.modules)
"""


def test_b_pairing_and_catalog_3_do_not_import_hilbert():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _NO_HILBERT],
                         capture_output=True, text=True, env=env, check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


_DEGREE3_BASIS = """
import sys
from qinv.catalog import degree3_multilinear_basis
assert len(degree3_multilinear_basis(4)) == 3
print("qinv.hilbert" in sys.modules)
"""


def test_degree3_basis_checks_dim_cov_without_the_hilbert_layer():
    # covariant_basis checks each basis against `characters.dim_cov`.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _DEGREE3_BASIS],
                         capture_output=True, text=True, env=env, check=False)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_dim_cov_is_one_function_under_both_names():
    import qinv
    from qinv import characters, hilbert

    assert qinv.dim_cov is characters.dim_cov is hilbert.dim_cov


@pytest.mark.parametrize("k,d", [(2, d) for d in range(1, 7)]
                         + [(3, d) for d in range(1, 6)]
                         + [(4, d) for d in range(1, 4)])
def test_pairings_of_the_covariant_bases_count_the_lut_invariants(k, d):
    # A third, constructive Hilbert route: the pairings <C_i|C_j> inside
    # each multidegree are independent, and there are as many as both the
    # character and the constant-term routes count in degree 2d.
    pairings = [x.poly for x in lsut_basis(k, d, d)]
    assert rank(pairings) == len(pairings)
    assert len(pairings) == hilbert_lut_coeffs(k, 2 * d)[2 * d]
    assert len(pairings) == hilbert_lut_ct(k, 2 * d)[2 * d]


@pytest.mark.parametrize("k,top", [(1, 12), (2, 12), (3, 10), (4, 6), (5, 4)])
def test_lsut_basis_matches_the_hilbert_table_off_the_diagonal(k, top):
    # The count is the character route's sum over alpha of
    # dim_cov(n1, alpha) dim_cov(n2, alpha), since each covariant basis has
    # that size, so it is no independent check.  The exact rank is: it
    # checks the paper's claim that the pairings are linearly independent.
    table = hilbert_lsut_coeffs(k, top, top)
    for n1 in range(top + 1):
        for n2 in range(top + 1 - n1):
            basis = [x.poly for x in lsut_basis(k, n1, n2)]
            assert len(basis) == rank(basis) == table[n1][n2], (n1, n2)


@pytest.mark.parametrize("k,d", [(4, 4), (5, 3)])
def test_covariant_basis_sizes_match_the_character_formula(k, d):
    for alpha in product(range(d + 1), repeat=k):
        assert len(covariant_basis(k, d, alpha)) == dim_cov(d, k, alpha)
