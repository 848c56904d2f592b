"""Exact covariants and local-unitary invariants of pure qubit states.

The package constructs SLOCC covariants by transvection over exact Gaussian
rational coefficients, derives unitary invariants through a hermitian
pairing, computes Hilbert series of the invariant algebras by two
independent routes, and evaluates entanglement measures and the 3-qubit
orbit classification.

The public names below are imported on first access (PEP 562), so that
`import qinv` and a `qinv` command load only the layers they use.
"""

from importlib import import_module

_EXPORTS = {
    "gaussian": ("GaussianRational",),
    "state": ("DimensionError", "State", "basis_state", "ghz", "random_state",
              "w_state"),
    "poly": ("EvaluationError", "Polynomial", "amp", "amp_conj", "aux"),
    "transvection": ("Covariant", "act_on_state", "random_sl2", "random_su2",
                     "random_u2", "transvect"),
    "catalog": ("b_family", "b_family_all", "b_multidegrees", "catalog_3",
                "catalog_4", "cayley_hyperdet", "covariant_basis",
                "covariant_by_name", "degree3_multilinear_basis",
                "degree4_invariants", "ground_form"),
    "invariants": ("InvariantExpr", "b_pairing", "degree6_invariants_4",
                   "f7_check", "f_squared_relation_check", "lut3_generator",
                   "lut3_generator_sum", "jacobian_determinant",
                   "jacobian_rank", "lsut_basis", "lsut_degree4_basis",
                   "lut_degree4_basis", "norm_invariant", "pairing",
                   "s2_invariant", "syzygy_checks"),
    "characters": ("dim_cov",),
    "hilbert": ("dim_cov_total", "dim_inv_slocc",
                "hilbert_lsut_coeffs", "hilbert_lsut_ct",
                "hilbert_lut_coeffs", "hilbert_lut_ct"),
    "measures": ("MeasureReport", "OrbitLabel", "classify3", "d1",
                 "hyperdet3", "meyer_wallach", "onion_leq"),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value
