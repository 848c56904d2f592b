"""Randomized and exact verification suites.

Each suite returns a report dict with one entry per named check; reports are
deterministic for a fixed seed and sorted by item name.

Each suite imports the layers it runs, so `qinv verify --suite hilbert`
loads the Hilbert-series layer alone and no numpy.
"""

from __future__ import annotations


def _batch_invariance(form, amps_matrix, tol):
    import numpy as np

    values = form.batch_evaluator()(amps_matrix)
    base = values[0]
    worst = float(np.max(np.abs(values - base)) / max(1.0, abs(base)))
    return worst <= tol, worst


def lut_invariant_registry(k: int):
    """Named LUT invariants used by the invariance suite, as numeric forms
    (see `InvariantExpr.numeric`)."""
    from .catalog import b_multidegrees
    from .invariants import (b_pairing, degree6_invariants_4, lut3_generator,
                             norm_invariant)

    out = {"A": norm_invariant(k)}
    for d in b_multidegrees(k):
        if d == (2,) * k:
            continue
        out["B_" + "".join(map(str, d))] = b_pairing(k, d)
    if k == 3:
        for i in range(1, 8):
            out[f"f{i}"] = lut3_generator(i)
    if k == 4:
        for name, expr in degree6_invariants_4():
            out[f"deg6:{name}"] = expr
    return {name: expr.numeric() for name, expr in out.items()}


def slocc_invariant_registry(k: int):
    """Named SLOCC invariant polynomials, as numeric forms (see
    `Polynomial.numeric`): the hyperdeterminant (k=3), B_0000 (k=4), and
    the degree-4 D family."""
    from .catalog import catalog_4, cayley_hyperdet, degree4_invariants

    out = {}
    if k == 3:
        out["Det"] = cayley_hyperdet()
    if k == 4:
        out["B_0000"] = catalog_4("B_0000").poly
    for cov in degree4_invariants(k):
        out[cov.name] = cov.poly
    return {name: p.numeric() for name, p in out.items()}


def suite_identities(k: int = 3, trials: int = 0, seed: int = 0) -> dict:
    """Exact symbolic identities; `trials`/`seed` are accepted for interface
    uniformity but unused."""
    from .invariants import (f7_check, f_squared_relation_check,
                             jacobian_determinant, jacobian_rank,
                             lut3_generator, lut3_generator_sum, syzygy_checks)

    items = []
    for kk in (2, 3, 4):
        ok, _ = f_squared_relation_check(kk)
        items.append((f"f_squared_relation_k{kk}", ok, None))
    pairs = {
        "f2": ((1, 0), (1, 0), (0, 1)),
        "f3": ((1, 0), (0, 1), (1, 0)),
        "f4": ((0, 1), (1, 0), (1, 0)),
        "f5": ((1, 0, 2), (0, 2, 1), (2, 1, 0)),
    }
    for name, (sg, tu, rh) in pairs.items():
        idx = int(name[1])
        ok = lut3_generator_sum(sg, tu, rh).poly == lut3_generator(idx).poly
        items.append((f"{name}_permutation_sum", ok, None))
    f7 = f7_check()
    items.append(
        ("f7_bracket_reconciliation",
         f7["bracket_equals_conj_delta_s2_squared"]
         and f7["decomposition_residual_zero"]
         and f7["printed_display_gap_zero"],
         {k2: (v if isinstance(v, (bool, int, float)) else str(v))
          for k2, v in f7.items() if not hasattr(v, "terms")})
    )
    s1, s2 = syzygy_checks()
    items.append(("syzygy_degree_4_4", s1, None))
    items.append(("syzygy_degree_6_6", s2, None))
    items.append(("jacobian_rank_7", jacobian_rank() == 7, None))
    items.append(
        ("jacobian_completion_nonzero", bool(jacobian_determinant()), None)
    )
    return _report("identities", items)


def suite_invariance(k: int = 3, trials: int = 100, seed: int = 0) -> dict:
    import numpy as np

    from .poly import random_state
    from .transvection import act_on_state_batch, random_tuple

    rng = np.random.default_rng(seed)
    items = []
    s = random_state(k, rng)

    def moved(kind):
        """s and its images under `trials` random tuples of `kind`."""
        gs = [random_tuple(k, rng, kind) for _ in range(trials)]
        return np.vstack([s.amplitudes, act_on_state_batch(gs, s)])

    u_amps = moved("u2")
    lut = lut_invariant_registry(k)
    for name in sorted(lut):
        ok, worst = _batch_invariance(lut[name], u_amps, 1e-9)
        items.append((f"LUT:{name}", ok, worst))
    sl_amps = moved("sl2")
    slocc = slocc_invariant_registry(k)
    for name in sorted(slocc):
        ok, worst = _batch_invariance(slocc[name], sl_amps, 1e-8)
        items.append((f"SLOCC:{name}", ok, worst))
    return _report("invariance", items)


def suite_hilbert(k: int = 3, trials: int = 0, seed: int = 0) -> dict:
    from .hilbert import (dim_cov_total, hilbert_lut_coeffs, hilbert_lut_ct,
                          hilbert_slocc_coeffs, lut3_closed_form_coeffs,
                          slocc4_closed_form_coeffs)

    items = []
    for kk in (2, 3):
        char = hilbert_lut_coeffs(kk, 10)
        ct = hilbert_lut_ct(kk, 10)
        items.append((f"lut_character_vs_ct_k{kk}", char == ct, None))
    items.append(
        ("lut3_vs_closed_form",
         hilbert_lut_coeffs(3, 10) == lut3_closed_form_coeffs(10), None)
    )
    lut4 = hilbert_lut_coeffs(4, 6)
    items.append(("lut4_degree_2_4_6", lut4[2:7:2] == [1, 8, 20], None))
    slocc4 = hilbert_slocc_coeffs(4, 8)
    closed = slocc4_closed_form_coeffs(8)
    items.append(("slocc4_vs_corrected_closed_form",
                  slocc4 == closed[: len(slocc4)], None))
    dims = all(
        dim_cov_total(2, kk) == 2 ** (kk - 1)
        and 2 * dim_cov_total(3, kk) == 3 ** (kk - 1) + 1
        for kk in (2, 3, 4, 5, 6)
    )
    items.append(("dimension_formulas", dims, None))
    return _report("hilbert", items)


def suite_classification(k: int = 3, trials: int = 100, seed: int = 0) -> dict:
    """The 3-qubit orbit classifier on moved representatives, and the two
    Meyer-Wallach routes; `k` is accepted for interface uniformity and must
    be 3."""
    from .state import DimensionError

    if k != 3:
        raise DimensionError(f"classification needs k=3, got k={k}")
    import numpy as np

    from .measures import classify3_batch, meyer_wallach
    from .poly import State, basis_state, ghz, random_state, w_state
    from .transvection import act_on_state_batch, random_tuple

    rng = np.random.default_rng(seed)
    reps = {
        "GHZ": ghz(3),
        "W": w_state(3),
        "B1": State(3, (0, 1, 1, 0, 0, 0, 0, 0)),
        "B2": State(3, (0, 1, 0, 0, 1, 0, 0, 0)),
        "B3": State(3, (0, 0, 1, 0, 1, 0, 0, 0)),
        "SEPARABLE": basis_state(3, 0),
    }
    # All moves are drawn, representative by representative, before any
    # state is labelled, so the draws do not depend on where one failed.
    moved = np.vstack([
        act_on_state_batch([random_tuple(3, rng) for _ in range(trials)], s)
        for s in reps.values()
    ])
    plain = classify3_batch([s.amplitudes for s in reps.values()])
    stable = classify3_batch(moved, tol=1e-7)
    items = []
    for r, label in enumerate(reps):
        ok = plain[r].label == label and all(
            o.label == label for o in stable[r * trials:(r + 1) * trials])
        items.append((f"classify:{label}", ok, None))
    qerr = 0.0
    for kk in (2, 3, 4):
        for _ in range(max(trials // 5, 1)):
            s = random_state(kk, rng)
            a = meyer_wallach(s, "direct")
            b = meyer_wallach(s, "covariant")
            qerr = max(
                qerr,
                abs(a.q - b.q),
                max(abs(x - y) for x, y in zip(a.d1, b.d1)),
            )
    items.append(("meyer_wallach_routes", qerr <= 1e-10, qerr))
    return _report("classification", items)


SUITES = {
    "identities": suite_identities,
    "invariance": suite_invariance,
    "hilbert": suite_hilbert,
    "classification": suite_classification,
}


def _report(suite: str, items) -> dict:
    entries = [
        {"name": n, "passed": bool(ok), "detail": detail}
        for n, ok, detail in sorted(items, key=lambda t: t[0])
    ]
    return {
        "suite": suite,
        "passed": all(e["passed"] for e in entries),
        "items": entries,
    }
