"""Per-layer metrics: timed calls into each qinv module's public functions.

Runs in one fresh interpreter, bottom-up, timed in CPU time: every cached
builder is timed after the builders it depends on, so its time is that
layer's own increment.  Sizes follow the names: f5, f7 are the 3-qubit
LUT generators, E_3111 and D_2200 the 4-qubit covariants, k3n8 the LSUT
series at k=3 with an 8x8 table, and so on.  The CLI cold starts are
measured by run.py, in processes of their own.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import CATALOG4_CHAINS, PINS, reps3, su2_move

# CPU time of this process, as in the end-to-end metrics.
clock = time.process_time


def timed(fn):
    start = clock()
    result = fn()
    return clock() - start, result


def per_call(fn, items, repeats=5):
    """Median over `repeats` of the mean time of fn(item) over `items`."""
    runs = []
    for _ in range(repeats):
        start = clock()
        for item in items:
            fn(item)
        runs.append((clock() - start) / len(items))
    return statistics.median(runs)


def run(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    from qinv import catalog as cat
    from qinv import hilbert as h
    from qinv import invariants as inv
    from qinv import linalg, verify
    from qinv.gaussian import GaussianRational
    from qinv.measures import classify3, hyperdet3, meyer_wallach
    from qinv.poly import Polynomial, aux, random_state
    from qinv.transvection import act_on_state, random_sl2

    m = {}
    m["characters.lut_char_s"] = timed(lambda: [
        h.hilbert_lut_coeffs(k, 12 if k <= 5 else 10) for k in range(3, 9)])[0]

    chain = {}
    for name in CATALOG4_CHAINS:
        chain[name], _ = timed(lambda name=name: cat.catalog_4(name))
    m["transvection.catalog4_s"] = sum(chain.values())
    m["transvection.transvect_ms.D_2200"] = chain["D_2200"] * 1e3
    m["transvection.transvect_ms.E_3111"] = chain["E_3111"] * 1e3
    e3111 = cat.catalog_4("E_3111").poly
    m["transvection.terms.E_3111"] = len(e3111.terms)
    m["catalog.degree3_basis4_s"] = timed(
        lambda: cat.degree3_multilinear_basis(4))[0]
    m["catalog.degree4_inv4_s"] = timed(lambda: cat.degree4_invariants(4))[0]

    for k in (3, 4):
        degrees = cat.b_multidegrees(k)
        for d in degrees:
            cat.b_family(k, d)
        m[f"invariants.pairing_s.b_k{k}"] = timed(
            lambda: [inv.b_pairing(k, d) for d in degrees])[0]
    for i in range(1, 7):
        inv.lut3_generator(i)
    m["invariants.lut3_gen_s.f7"], f7 = timed(lambda: inv.lut3_generator(7))
    f7 = f7.poly
    m["invariants.terms.f7"] = len(f7.terms)
    m["invariants.expr_validate_ms.f7"] = 1e3 * per_call(
        lambda p: inv.InvariantExpr(p, (6, 6)), [f7], repeats=3)
    m["invariants.jacobian_s"] = timed(
        lambda: (inv.jacobian_rank(), inv.jacobian_determinant()))[0]
    m["invariants.deg6_k4_s"] = timed(inv.degree6_invariants_4)[0]

    polys = [b.poly for b in inv.lsut_degree4_basis(4)]
    dt, subset = timed(lambda: linalg.independent_subset(polys))
    m["linalg.independent_subset_ms"] = 1e3 * dt
    matrix = _jacobian_matrix()
    m["linalg.det_ms"] = 1e3 * per_call(linalg.det, [matrix], repeats=5)

    f1 = inv.lut3_generator(1).poly
    f5 = inv.lut3_generator(5).poly
    s2 = inv.s2_invariant()
    products = {"f5xf5": (f5, f5), "f7xf1": (f7, f1),
                "conjDelta_s2sq": (inv.delta_invariant().conjugate().poly,
                                   (s2 * s2).poly)}
    pairs = out = busy = 0
    for name, (a, b) in products.items():
        dt, prod = timed(lambda: a * b)
        m[f"poly.mul_ms.{name}"] = dt * 1e3
        pairs += len(a.terms) * len(b.terms)
        out += len(prod.terms)
        busy += dt
        if name == "f5xf5":
            f5sq = prod
    m["poly.mul.pairs_per_s"] = pairs / busy
    m["poly.mul.out_per_pair"] = out / pairs
    aux_vars = [aux(j, b) for j in range(1, 5) for b in (0, 1)]
    m["poly.partial_us"] = 1e6 * per_call(e3111.partial, aux_vars, repeats=3)
    m["poly.conjugate_ms"] = 1e3 * per_call(Polynomial.conjugate, [f7],
                                            repeats=3)
    states3 = [random_state(3, rng) for _ in range(8)]
    m["poly.evaluate_us.f7"] = 1e6 * per_call(f7.evaluate, states3, repeats=1)
    m["poly.batch_compile_ms.f7"] = 1e3 * per_call(
        Polynomial.batch_evaluator, [f7], repeats=3)
    batch = f7.batch_evaluator()
    amps = np.array([random_state(3, rng).amplitudes for _ in range(64)])
    m["poly.batch_ns_per_state_term"] = 1e9 * per_call(
        batch, [amps], repeats=3) / (len(amps) * len(f7.terms))

    c7 = list(f7.terms.values())
    c55 = list(f5sq.terms.values())
    coeff_pairs = [(c7[i % len(c7)], c55[(i * 7919) % len(c55)])
                   for i in range(4000)]
    m["gaussian.mul_ns"] = 1e9 * per_call(
        lambda ab: ab[0] * ab[1], coeff_pairs)
    m["gaussian.add_ns"] = 1e9 * per_call(
        lambda ab: ab[0] + ab[1], coeff_pairs)

    s4 = random_state(4, rng)
    moves = [[random_sl2(rng) for _ in range(4)] for _ in range(32)]
    m["transvection.act_on_state_us"] = 1e6 * per_call(
        lambda g: act_on_state(g, s4), moves)

    reps = [su2_move(s, rng) for s in reps3().values()] + states3
    m["measures.classify3_us"] = 1e6 * per_call(classify3, reps)
    m["measures.hyperdet3_us"] = 1e6 * per_call(hyperdet3, reps)
    states4 = [random_state(4, rng) for _ in range(8)]
    m["measures.mw_direct_ms.k4"] = 1e3 * per_call(
        lambda s: meyer_wallach(s, "direct"), states4)
    m["measures.mw_covariant_ms.k4"] = 1e3 * per_call(
        lambda s: meyer_wallach(s, "covariant"), states4)
    m["measures.mw_direct_ms.k8"] = 1e3 * per_call(
        lambda s: meyer_wallach(s, "direct"), [random_state(8, rng)],
        repeats=1)

    m["hilbert.ct_lsut_s.k3n8"] = timed(lambda: h.hilbert_lsut_ct(3, 7, 7))[0]
    m["hilbert.ct_lsut_s.k4n4"] = timed(lambda: h.hilbert_lsut_ct(4, 3, 3))[0]
    m["hilbert.closed_form_ms"] = 1e3 * timed(lambda: (
        h.lut3_closed_form_coeffs(12), h.lut4_closed_form_coeffs(10),
        h.lsut3_closed_form_table(7, 7), h.lsut4_closed_form_table(3, 3),
        h.slocc4_closed_form_coeffs(12)))[0]

    for suite in ("invariance", "hilbert", "classification"):
        m[f"verify.suite_s.{suite}"] = timed(
            lambda: verify.SUITES[suite](k=3, trials=100, seed=0))[0]

    checks = {
        "E_3111 terms": m["transvection.terms.E_3111"]
        == PINS["catalog4_terms"]["E_3111"],
        "f7 terms": m["invariants.terms.f7"] == PINS["lut3_terms"]["7"],
        "lsut rank": len(subset) == 20,
        "jacobian det": linalg.det(matrix) == GaussianRational(
            *map(int, PINS["jacobian_determinant"])),
    }
    return {"metrics": m,
            "failed": [name for name, ok in checks.items() if not ok]}


def _jacobian_matrix():
    """The 16x16 matrix behind `jacobian_determinant()`: the seven primary
    invariants and the coordinates a_001..a_111, conj a_000, conj a_111,
    differentiated by every amplitude at the reference point."""
    from qinv import invariants as inv
    from qinv.poly import Polynomial, amp, amp_conj

    delta, s2 = inv.delta_invariant(), inv.s2_invariant()
    funcs = [inv.norm_invariant(3).poly, inv.lut3_generator(2).poly,
             inv.lut3_generator(3).poly, delta.poly, delta.conjugate().poly,
             s2.poly, s2.conjugate().poly]
    funcs += [Polynomial.variable(3, v) for v in
              [amp(i) for i in range(1, 8)] + [amp_conj(0), amp_conj(7)]]
    variables = [amp(i) for i in range(8)] + [amp_conj(i) for i in range(8)]
    return [[inv.evaluate_exact(fn.partial(v), inv.JACOBIAN_POINT)
             for v in variables] for fn in funcs]
