"""Hilbert series of the invariant rings, computed two independent ways.

The character route sums squared Kronecker-type multiplicities built from
the two-row characters of the symmetric group, which count the sets of
cycles of a permutation of each total length; the constant-term route
extracts the same coefficients from a truncated Laurent-series residue.
Both must agree with each other and with the published closed forms, which
is a strong end-to-end check on the combinatorics.
"""

from qinv.hilbert import (
    dim_cov_total,
    dim_inv_slocc,
    hilbert_lut_coeffs,
    hilbert_lut_ct,
    lut3_closed_form_coeffs,
    lut4_closed_form_coeffs,
    slocc4_closed_form_coeffs,
)


def main():
    print("== local-unitary invariants of 3 qubits ==")
    char = hilbert_lut_coeffs(3, 10)
    ct = hilbert_lut_ct(3, 10)
    closed = lut3_closed_form_coeffs(10)
    print(f"character route:     {char}")
    print(f"constant-term route: {ct}")
    print(f"closed form:         {closed}")
    print(f"all three agree: {char == ct == closed}")

    print("\n== 4 qubits ==")
    char4 = hilbert_lut_coeffs(4, 6)
    table4 = lut4_closed_form_coeffs(6)
    print(f"degrees 2, 4, 6: {char4[2]}, {char4[4]}, {char4[6]} "
          "(20 independent degree-6 generators)")
    print(f"shipped table expansion matches: {char4 == table4}")

    print("\n== SLOCC invariants of 4 qubits ==")
    series = [dim_inv_slocc(d, 4) for d in range(9)]
    closed4 = slocc4_closed_form_coeffs(8)
    print(f"character route: {series}")
    print(f"closed form:     {closed4}")
    print(f"even-degree dimensions 1, 1, 3, 4, 7: {series[::2]}")

    print("\n== covariant dimension formulas ==")
    for k in range(2, 7):
        d2 = dim_cov_total(2, k)
        d3 = dim_cov_total(3, k)
        print(f"k={k}: dim degree-2 covariants = {d2} (= 2^{k - 1}), "
              f"degree-3 = {d3} (= (3^{k - 1} + 1)/2)")


if __name__ == "__main__":
    main()
