"""A tour of covariant construction by transvection.

The ground form of a k-qubit state is the multilinear polynomial
f = sum_i a_i x_{1,i_1} ... x_{k,i_k} in one auxiliary binary variable pair
per qubit.  Transvection applies the omega operator (the polarized 2x2
determinant of partial derivatives) once per selected slot and then
identifies the copies again; iterating it generates the whole covariant
algebra.  This script builds the small catalog by hand and prints what each
step produces.
"""

from fractions import Fraction

from qinv.catalog import b_family, catalog_3, ground_form
from qinv.invariants import evaluate_exact
from qinv.transvection import transvect


def show(title, cov):
    print(f"{title}:")
    print(f"  amplitude degree {cov.amp_degree}, multidegree {cov.multidegree},"
          f" {len(cov.poly.terms)} terms")


def main():
    print("== two qubits ==")
    f = ground_form(2)
    show("ground form f", f)

    # One transvection in both slots kills all auxiliary variables and
    # leaves twice the 2x2 determinant of the amplitude matrix.
    b00 = transvect(f, f, (1, 1))
    show("(f,f)^(1,1) = B_00", b00)
    print(f"  B_00 = {b00.poly.pretty()}")

    print("\n== three qubits ==")
    f = ground_form(3)
    show("ground form f", f)

    # Transvecting in two of three slots gives a quadratic covariant that
    # still depends on the auxiliary pair of the remaining slot: twice the
    # Hessian-type form of that slot.
    b200 = b_family(3, (2, 0, 0))
    show("(f,f)^(0,1,1) = B_200", b200)
    assert b200.poly == catalog_3("Hx").poly * 2

    # The degree-3 covariant T = (f, B_200)^(1,0,0) is again multilinear.
    t = catalog_3("T")
    show("T = (f,B_200)^(1,0,0)", t)

    # One more transvection in all three slots produces the quartic
    # invariant Delta, twice the Cayley hyperdeterminant.  The classical
    # formula, written out on the eight amplitudes, checks this at a fixed
    # integer point in exact arithmetic.
    delta = catalog_3("Delta")
    show("Delta = (T,f)^(1,1,1)", delta)
    point = [Fraction(x) for x in (2, -1, 3, 1, -2, 5, 1, 4)]
    a000, a001, a010, a011, a100, a101, a110, a111 = point
    det = (a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2
           + a011**2 * a100**2
           - 2 * (a000 * a001 * a110 * a111 + a000 * a010 * a101 * a111
                  + a000 * a011 * a100 * a111 + a001 * a010 * a101 * a110
                  + a001 * a011 * a100 * a110 + a010 * a011 * a100 * a101)
           + 4 * (a000 * a011 * a101 * a110 + a001 * a010 * a100 * a111))
    assert det and evaluate_exact(delta.poly, dict(enumerate(point))) / 2 == det
    print(f"  Delta / 2 = {det}, the 2x2x2 hyperdeterminant at "
          f"a = {tuple(map(int, point))} (exact check passed)")

    # The sign rule (phi,psi)^eps = (-1)^|eps| (psi,phi)^eps.
    lhs = transvect(f, b200, (1, 0, 0)).poly
    rhs = transvect(b200, f, (1, 0, 0)).poly
    assert lhs == rhs * (-1)
    print("  sign symmetry (f,B)^eps = -(B,f)^eps verified exactly")


if __name__ == "__main__":
    main()
