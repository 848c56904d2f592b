"""Op lists of the four workloads, with the exact-output guard of each op.

An op is a (name, call, check) triple: `call()` does the work that is
timed, `check(result)` returns None or a one-line reason the output is
wrong.  The inputs are made from the seed passed in; the program sees only
those inputs.  Every expected output is pinned in pins.json, recorded from
the program before any optimisation: digests of printed polynomials,
Hilbert coefficient lists (constant-term route == character route ==
closed form), the exact Jacobian determinant, invariant values on the orbit
representatives, and digests of deterministic CLI output.

The numeric tolerances are the contracts of tests/test_acceptance.py:
1e-9 for local-unitary invariance, 1e-8 for SLOCC invariance and 1e-10 for
the two Meyer-Wallach routes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "pins.json")) as _fh:
    PINS = json.load(_fh)

LU_TOL = 1e-9
SLOCC_TOL = 1e-8
MW_TOL = 1e-10

CATALOG4_CHAINS = ("C1_1111", "C2_1111", "C_3111", "C_1311", "C_1131",
                   "C_1113", "D_4000", "D_0400", "D_0040", "D_0004",
                   "D_2200", "E_3111")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _expect(ok: bool, why: str):
    return None if ok else why


def _close(value: complex, ref: complex, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


# -- orbit representatives and states -------------------------------------


def reps3():
    from qinv.poly import State, basis_state, ghz, w_state

    return {
        "GHZ": ghz(3),
        "W": w_state(3),
        "B1": State(3, (0, 1, 1, 0, 0, 0, 0, 0)),
        "B2": State(3, (0, 1, 0, 0, 1, 0, 0, 0)),
        "B3": State(3, (0, 0, 1, 0, 1, 0, 0, 0)),
        "SEPARABLE": basis_state(3, 0),
    }


def reps4():
    from qinv.poly import State, ghz, w_state

    cluster = [0.0] * 16
    cluster[0] = cluster[3] = cluster[12] = 0.5
    cluster[15] = -0.5
    return {"GHZ4": ghz(4), "W4": w_state(4), "CLUSTER4": State(4, cluster)}


def su2_move(state, rng):
    """The state moved by a random SU(2)^k, under which every registry
    invariant is unchanged."""
    from qinv.transvection import act_on_state, random_su2

    return act_on_state(tuple(random_su2(rng) for _ in range(state.k)), state)


def purity_mw(amplitudes, k: int):
    """Meyer-Wallach Q and D_1 values from one-qubit purities,
    D_1 = 2 (1 - tr rho_i^2), with numpy; an independent reference."""
    psi = np.asarray(amplitudes, dtype=complex).reshape((2,) * k)
    d1 = []
    for i in range(k):
        m = np.moveaxis(psi, i, 0).reshape(2, -1)
        rho = m @ m.conj().T
        d1.append(2.0 * float((np.trace(rho) ** 2 - np.trace(rho @ rho)).real))
    return sum(d1) / k, d1


def mw_check(report, ref):
    q, d1 = ref
    err = max([abs(report.q - q)] + [abs(a - b) for a, b in zip(report.d1, d1)])
    return _expect(err <= MW_TOL, f"Meyer-Wallach off by {err:.3g}")


# -- exact-identities -----------------------------------------------------


# Integer solutions of p^2 + q^2 + s^2 + t^2 = 25.
_FOUR_SQUARES_25 = [v for v in itertools.product(range(-5, 6), repeat=4)
                    if sum(x * x for x in v) == 25]


def _exact_su2(rng):
    """An exact SU(2) matrix [[a, -conj b], [b, conj a]] with
    a = (p + qi)/5, b = (s + ti)/5 and p^2 + q^2 + s^2 + t^2 = 25."""
    from fractions import Fraction

    from qinv.gaussian import GaussianRational as G

    p, q, s, t = _FOUR_SQUARES_25[rng.integers(len(_FOUR_SQUARES_25))]
    a = G(Fraction(p, 5), Fraction(q, 5))
    b = G(Fraction(s, 5), Fraction(t, 5))
    return ((a, -b.conjugate()), (b, a.conjugate()))


def _exact_sl2(rng):
    """An exact SL(2) matrix [[1 + ts, t], [s, 1]], t and s Gaussian
    rationals with denominator 2."""
    from fractions import Fraction

    from qinv.gaussian import GaussianRational as G

    steps = [G(Fraction(x, 2), Fraction(y, 2))
             for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y]
    t = steps[rng.integers(len(steps))]
    s = steps[rng.integers(len(steps))]
    return ((1 + t * s, t), (s, G(1)))


def _exact_point(k: int, rng):
    from qinv.gaussian import GaussianRational as G

    while True:
        pts = [G(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
               for _ in range(2 ** k)]
        if any(pts):
            return pts


def _act_exact(mats, amps):
    """(g_1 x ... x g_k) a in exact arithmetic, slot 1 most significant."""
    k = len(mats)
    a = list(amps)
    for j, g in enumerate(mats):
        bit = 1 << (k - 1 - j)
        a = [g[1 if idx & bit else 0][0] * a[idx & ~bit]
             + g[1 if idx & bit else 0][1] * a[idx | bit]
             for idx in range(len(a))]
    return a


def _exact_invariance(polys, k, move, rng):
    """Op call: evaluate each polynomial exactly at a seeded Gaussian-integer
    point and at its exact group move; returns the pairs of values."""
    from qinv.invariants import evaluate_exact

    point = _exact_point(k, rng)
    mats = [move(rng) for _ in range(k)]
    moved = _act_exact(mats, point)

    def call():
        before = dict(enumerate(point))
        after = dict(enumerate(moved))
        return [(evaluate_exact(p, before), evaluate_exact(p, after))
                for p in polys()]

    return call


def _same_pairs(pairs):
    return _expect(all(a == b for a, b in pairs), "exact invariance broken")


def exact_ops(rng):
    """The exact checks that the acceptance suite and `verify --suite
    identities` rest on, bottom-up, and exact invariance at seeded points:
    s2 under SU(2)^3, Delta, the hyperdeterminant and the k=4 degree-4
    invariants under SL(2)^k, and f5 under SU(2)^3 at sixteen points."""
    from qinv import catalog as cat
    from qinv import invariants as inv
    from qinv import linalg
    from qinv.gaussian import GaussianRational

    def generator(i):
        def check(r):
            if len(r.poly.terms) != PINS["lut3_terms"][str(i)]:
                return f"f{i} term count changed"
            if i == 7:
                return _expect(sha256(r.poly.pretty()) == PINS["digests"]["f7"],
                               "f7 changed")
            return None
        return (f"lut3_generator:{i}", lambda: inv.lut3_generator(i), check)

    ops = []
    for k in (2, 3, 4):
        ops.append((f"b_family_rank:{k}",
                    lambda k=k: (lambda fam: (len(fam), linalg.rank(
                        [c.poly for c in fam])))(cat.b_family_all(k)),
                    lambda r, k=k: _expect(r == (2 ** (k - 1) + 1, 2 ** (k - 1)),
                                           f"size/rank {r}")))
    c3 = PINS["catalog3_terms"]
    ops.append(("catalog_3",
                lambda: {n: cat.catalog_3(n) for n in ("Hx", "Hy", "Hz", "T",
                                                       "Delta")},
                lambda r: _expect(
                    {n: len(c.poly.terms) for n, c in r.items()} == c3
                    and sha256(r["Delta"].poly.pretty())
                    == PINS["digests"]["Delta"], "catalog_3 chain changed")))
    ops += [generator(i) for i in range(1, 7)]
    plateau_from = len(ops)
    for name in CATALOG4_CHAINS:
        def check(r, name=name):
            if len(r.poly.terms) != PINS["catalog4_terms"][name]:
                return f"{name} term count changed"
            if name == "E_3111":
                return _expect(sha256(r.poly.pretty())
                               == PINS["digests"]["E_3111"], "E_3111 changed")
            return None
        ops.append((f"catalog_4:{name}",
                    lambda name=name: cat.catalog_4(name), check))
    ops.append(("degree3_multilinear_basis:4",
                lambda: cat.degree3_multilinear_basis(4),
                lambda r: _expect(len(r) == PINS["deg3_basis_len"]["4"],
                                  "basis size changed")))
    ops.append(("degree4_invariants:4", lambda: cat.degree4_invariants(4),
                lambda r: _expect(len(r) == PINS["deg4_inv_len"]["4"],
                                  "basis size changed")))
    for k, size in ((2, 6), (3, 8), (4, 20)):
        ops.append((f"lsut_degree4_basis:{k}",
                    lambda k=k: (lambda b: (len(b), linalg.rank(
                        [x.poly for x in b])))(inv.lsut_degree4_basis(k)),
                    lambda r, size=size: _expect(r == (size, size),
                                                 f"size/rank {r}")))
    for k in (2, 3, 4):
        ops.append((f"f_squared_relation_check:{k}",
                    lambda k=k: inv.f_squared_relation_check(k)[0],
                    lambda r: _expect(r is True, "relation fails")))
    ops.append(generator(7))
    perms = {2: ((1, 0), (1, 0), (0, 1)), 3: ((1, 0), (0, 1), (1, 0)),
             4: ((0, 1), (1, 0), (1, 0)),
             5: ((1, 0, 2), (0, 2, 1), (2, 1, 0))}
    for i, (sg, tu, rh) in perms.items():
        ops.append((f"permutation_sum:f{i}",
                    lambda i=i, p=(sg, tu, rh): inv.lut3_generator_sum(*p).poly
                    == inv.lut3_generator(i).poly,
                    lambda r: _expect(r is True, "sum differs")))
    ops.append(("f7_check", inv.f7_check, lambda r: _expect(
        r["corrected_sum_ratio_on_s2"] == GaussianRational(-1)
        and r["bracket_equals_conj_delta_s2_squared"]
        and r["decomposition_residual_zero"]
        and r["printed_display_gap_zero"], "f7 reconciliation fails")))
    ops.append(("syzygy_checks", inv.syzygy_checks,
                lambda r: _expect(r == (True, True), f"syzygies {r}")))
    ops.append(("jacobian_rank", inv.jacobian_rank,
                lambda r: _expect(r == 7, f"rank {r}")))
    re, im = PINS["jacobian_determinant"]
    ops.append(("jacobian_determinant", inv.jacobian_determinant,
                lambda r: _expect(r == GaussianRational(int(re), int(im)),
                                  f"determinant {r!r}")))
    ops.append(("jacobian_determinant:literal",
                lambda: inv.jacobian_determinant(literal=True),
                lambda r: _expect(r == GaussianRational(0), "nonzero")))
    ops.append(("degree6_invariants_4", inv.degree6_invariants_4,
                lambda r: _expect(sha256("\n".join(
                    f"{n}\t{e.poly.pretty()}" for n, e in r))
                    == PINS["digests"]["degree6_4"], "degree-6 family changed")))
    ops.append(("exact_lsu:s2", _exact_invariance(
        lambda: [inv.s2_invariant().poly], 3, _exact_su2, rng), _same_pairs))
    ops.append(("exact_sl:Delta", _exact_invariance(
        lambda: [cat.catalog_3("Delta").poly], 3, _exact_sl2, rng),
        _same_pairs))
    ops.append(("exact_sl:Det", _exact_invariance(
        lambda: [cat.cayley_hyperdet()], 3, _exact_sl2, rng), _same_pairs))
    ops.append(("exact_sl:D4", _exact_invariance(
        lambda: [c.poly for c in cat.degree4_invariants(4)], 4, _exact_sl2,
        rng), _same_pairs))
    # Sixteen like-sized checks at distinct seeded points, spread over the
    # pass once f5 is built, put a plateau of similar latencies around the
    # median op, measured across the whole pass; this keeps op_p50_ms steady.
    f5_checks = [("exact_lu:f5", _exact_invariance(
        lambda: [inv.lut3_generator(5).poly], 3, _exact_su2, rng), _same_pairs)
        for _ in range(16)]
    return ops[:plateau_from] + _interleave(ops[plateau_from:], f5_checks)


def _interleave(ops, extra):
    """`ops` with the ops of `extra` spread evenly among them."""
    out = []
    for i, op in enumerate(ops):
        out += extra[len(extra) * i // len(ops):len(extra) * (i + 1) // len(ops)]
        out.append(op)
    return out


# -- hilbert-series -------------------------------------------------------


def hilbert_ops(rng):
    """The ct route at the sizes below, the character route up to k=8 and
    the shipped closed forms, each checked against one pinned table, so
    ct == character == closed form.

    The inputs are sizes, fixed by the workload, so `rng` is unused; the
    order is fixed too, because the character route's caches and the heap
    left by earlier ops move the time of later ones.  The character ops run
    in order of k, as their caches build on each other.
    """
    from qinv import hilbert as h

    lut = {int(k): v for k, v in PINS["lut"].items()}
    lsut = {int(k): v for k, v in PINS["lsut"].items()}

    def against(ref):
        return lambda r: _expect(r == ref, "coefficients changed")

    ct = [(f"lut_ct:k{k}n{n}", lambda k=k, n=n: h.hilbert_lut_ct(k, n),
           against(lut[k][:n + 1])) for k, n in ((3, 12), (4, 10), (5, 6))]
    ct += [(f"lsut_ct:k{k}n{n}", lambda k=k, n=n: h.hilbert_lsut_ct(k, n, n),
            against(lsut[k])) for k, n in ((3, 7), (4, 3))]
    ops = []
    for k in range(2, 9):
        n = 12 if k <= 5 else 10
        ops.append((f"lut_character:k{k}n{n}",
                    lambda k=k, n=n: h.hilbert_lut_coeffs(k, n),
                    against(lut[k][:n + 1])))
    for k, n in ((3, 7), (4, 3)):
        ops.append((f"lsut_character:k{k}n{n}",
                    lambda k=k, n=n: h.hilbert_lsut_coeffs(k, n, n),
                    against(lsut[k])))
    ops.append(("slocc_character:k4n12",
                lambda: [h.dim_inv_slocc(d, 4) for d in range(13)],
                against(PINS["slocc4"])))
    ops.append(("lut_closed_form:k3n12", lambda: h.lut3_closed_form_coeffs(12),
                against(lut[3])))
    ops.append(("lut_closed_form:k4n10", lambda: h.lut4_closed_form_coeffs(10),
                against(lut[4][:11])))
    ops.append(("lsut_closed_form:k3n7",
                lambda: h.lsut3_closed_form_table(7, 7), against(lsut[3])))
    ops.append(("lsut_closed_form:k4n3",
                lambda: h.lsut4_closed_form_table(3, 3), against(lsut[4])))
    ops.append(("slocc_closed_form:k4n12",
                lambda: h.slocc4_closed_form_coeffs(12),
                against(PINS["slocc4"])))
    # The costly ct problems are spread among the cheap checks.  The k=2
    # series is short and uncached; twelve repeats of it, spread over the
    # pass, put a plateau of like latencies around the median op, measured
    # across the whole pass, which keeps op_p50_ms steady.
    k2 = [("lut_ct:k2n12", lambda: h.hilbert_lut_ct(2, 12),
           against(lut[2]))] * 12
    return _interleave(_interleave(ops, ct), k2)


# -- numeric-states -------------------------------------------------------


class NumericSetup:
    """Registries, batch evaluators, seeded state pools and reference values.

    Everything here is built before timing starts: the registries and batch
    evaluators are the compile work, the references are the guard.
    """

    def __init__(self, rng):
        from qinv.cli import invariant_registry
        from qinv.poly import random_state
        from qinv.transvection import act_on_state, random_sl2, random_u2

        self.rng = rng
        self.registry = {3: invariant_registry(3), 4: invariant_registry(4)}
        self.batch = {k: {name: _poly_of(fn).batch_evaluator()
                          for name, fn in reg.items()}
                      for k, reg in self.registry.items()}
        self.pool = {}
        self.moves = {}
        for k in (3, 4):
            base = [random_state(k, rng) for _ in range(8)]
            lu = [act_on_state([random_u2(rng) for _ in range(k)], s)
                  for s in base]
            sl = [act_on_state([random_sl2(rng) for _ in range(k)],
                               s).normalized() for s in base]
            reps = reps3() if k == 3 else reps4()
            self.pool[k] = base + lu + sl + [su2_move(s, rng)
                                             for s in reps.values()]
            s = base[0]
            self.moves[k] = {
                "LU": np.array([s.amplitudes] + [
                    act_on_state([random_u2(rng) for _ in range(k)],
                                 s).amplitudes for _ in range(32)]),
                "SLOCC": np.array([s.amplitudes] + [
                    act_on_state([random_sl2(rng) for _ in range(k)],
                                 s).amplitudes for _ in range(32)]),
            }
        for k in (6, 7, 8):
            self.pool[k] = [random_state(k, rng) for _ in range(2)]
        self.ref = {k: {name: be(np.array([s.amplitudes
                                            for s in self.pool[k]]))
                        for name, be in self.batch[k].items()}
                    for k in (3, 4)}
        self.mw_ref = {k: [purity_mw(s.amplitudes, k) for s in self.pool[k]]
                       for k in self.pool}
        self.reps = [(label, su2_move(s, rng)) for label, s in reps3().items()]

    def pass_ops(self):
        """One pass: every registry name evaluated once per k, classify3,
        hyperdet3, both Meyer-Wallach routes at k=3,4, the direct route at
        k=6,7,8, and batched invariance checks; states drawn from the pools."""
        from qinv.measures import classify3, hyperdet3, meyer_wallach

        rng = self.rng
        ops = []
        for k in (3, 4):
            for name, fn in self.registry[k].items():
                i = int(rng.integers(len(self.pool[k])))
                ref = self.ref[k][name][i]
                ops.append((f"evaluate:{name}",
                            lambda fn=fn, s=self.pool[k][i]: fn(s),
                            lambda r, ref=ref: _expect(
                                _close(r, ref, LU_TOL), "scalar != batch")))
        for _ in range(4):
            label, s = self.reps[int(rng.integers(len(self.reps)))]
            ops.append(("classify3", lambda s=s: classify3(s),
                        lambda r, label=label: _expect(
                            r.label == label, f"{r.label} != {label}")))
        for _ in range(2):
            i = int(rng.integers(len(self.pool[3])))
            ref = self.ref[3]["Det"][i]
            ops.append(("hyperdet3", lambda s=self.pool[3][i]: hyperdet3(s),
                        lambda r, ref=ref: _expect(_close(r, ref, LU_TOL),
                                                   "hyperdet differs")))
        for k, routes in ((3, ("direct", "covariant")),
                          (4, ("direct", "covariant")),
                          (6, ("direct",)), (7, ("direct", "direct")),
                          (8, ("direct",))):
            for route in routes:
                i = int(rng.integers(len(self.pool[k])))
                ops.append((f"meyer_wallach:{route}:k{k}",
                            lambda s=self.pool[k][i], route=route:
                            meyer_wallach(s, route),
                            lambda r, ref=self.mw_ref[k][i]: mw_check(r, ref)))
        lut3 = [n for n in self.registry[3]
                if n not in ("Delta", "Det", "s2")]
        picks = ((3, rng.choice(lut3), "LU", LU_TOL),
                 (3, "f7", "LU", LU_TOL),
                 (3, "Det", "SLOCC", SLOCC_TOL),
                 (4, rng.choice(sorted(self.registry[4])), "LU", LU_TOL))
        for k, name, group, tol in picks:
            ops.append((f"batch_invariance:{group}:{name}",
                        lambda be=self.batch[k][name], m=self.moves[k][group]:
                        be(m),
                        lambda r, tol=tol: _expect(
                            float(np.max(np.abs(r - r[0])))
                            <= tol * max(1.0, abs(r[0])), "not invariant")))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


def _poly_of(evaluate):
    """The polynomial behind a registry entry (a bound `evaluate`)."""
    obj = evaluate.__self__
    return getattr(obj, "poly", obj)


# -- cli-session ----------------------------------------------------------

MALFORMED = {
    "missing.json": None,
    "not_json.json": "{amplitudes: oops",
    "short.json": json.dumps({"k": 3, "amplitudes": [[1, 0]] * 7}),
    "k4.json": json.dumps({"k": 4, "amplitudes": [[0.25, 0]] * 16}),
}


def cli_ops(rng, workdir):
    """One pass of CLI invocations over state files written to `workdir`.

    Each op is (name, argv, expected exit code, check(stdout)).  Outputs of
    deterministic commands are checked against pinned digests; outputs on
    seeded states against pinned values on the orbit representatives (the
    states are SU(2)-moved representatives) or the purity reference.
    """
    from qinv.poly import random_state

    ops = []

    def state_file(state, tag):
        path = os.path.join(workdir, f"{tag}.json")
        state.save(path)
        return path

    r3, r4 = reps3(), reps4()
    for k, reps, count in ((3, r3, 1), (4, r4, 1)):
        values = PINS[f"values{k}"]
        for j in range(count):
            rep = sorted(reps)[int(rng.integers(len(reps)))]
            name = sorted(values[rep])[int(rng.integers(len(values[rep])))]
            path = state_file(su2_move(reps[rep], rng), f"eval{k}_{j}")
            ref = complex(*values[rep][name])
            ops.append((f"eval:k{k}", ["eval", "--state", path, "--invariant",
                                      name], 0,
                        lambda out, ref=ref: _expect(_close(
                            complex(*json.loads(out)["value"]), ref, LU_TOL),
                            "value differs from the representative")))
    for j in range(4):
        rep = sorted(r3)[int(rng.integers(len(r3)))]
        path = state_file(su2_move(r3[rep], rng), f"classify_{j}")
        ops.append(("classify", ["classify", "--state", path], 0,
                    lambda out, rep=rep: _expect(
                        json.loads(out)["label"] == rep, "wrong orbit")))
    for k in (2, 3, 4):
        s = random_state(k, rng)
        path = state_file(s, f"measure{k}")
        ref = purity_mw(s.amplitudes, k)
        for route in ("direct", "covariant"):
            ops.append((f"measure:{route}",
                        ["measure", "--state", path, "--route", route], 0,
                        lambda out, ref=ref: mw_check(_Report(out), ref)))
    digests = PINS["cli_stdout"]
    for argv in (["hilbert", "--group", "lut", "--k", "4", "--max-degree", "10",
                  "--method", "character"],
                 ["hilbert", "--group", "lsut", "--k", "4", "--max-degree",
                  "3", "--method", "closed-form"],
                 ["hilbert", "--group", "lut", "--k", "3", "--max-degree", "10",
                  "--method", "ct"],
                 ["covariant", "--k", "4", "--name", "E_3111", "--print"],
                 ["verify", "--suite", "hilbert"]):
        key = " ".join(argv)
        ops.append((argv[0], argv, 0,
                    lambda out, key=key: _expect(sha256(out) == digests[key],
                                                 "stdout changed")))
    for argv, expected in ((["verify", "--suite", "invariance", "--k", "3"],
                            PINS["verify_items"]["invariance"]),
                           (["verify", "--suite", "classification"],
                            PINS["verify_items"]["classification"])):
        ops.append(("verify", argv, 0,
                    lambda out, expected=expected: _verify_check(out,
                                                                 expected)))
    for fname, content in MALFORMED.items():
        path = os.path.join(workdir, fname)
        if content is not None:
            with open(path, "w") as fh:
                fh.write(content)
        command = "eval" if fname == "missing.json" else "classify"
        argv = [command, "--state", path]
        if command == "eval":
            argv += ["--invariant", "A"]
        ops.append((f"malformed:{fname}", argv, 1, _error_document))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


class _Report:
    def __init__(self, out):
        doc = json.loads(out)
        self.q, self.d1 = doc["Q"], doc["d1"]


def _verify_check(out, expected):
    """Item names must match; numeric details must meet the contract
    tolerance of their group.  Pass/fail verdicts show in the exit code."""
    items = json.loads(out)["items"]
    if [i["name"] for i in items] != expected:
        return "verify items changed"
    for i in items:
        tol = SLOCC_TOL if i["name"].startswith("SLOCC:") else (
            MW_TOL if i["name"] == "meyer_wallach_routes" else LU_TOL)
        if isinstance(i["detail"], float) and i["detail"] > tol:
            return f"{i['name']} off by {i['detail']:.3g}"
    return None


def _error_document(out):
    """Exactly one JSON document, an object with only an "error" string."""
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    return _expect(isinstance(doc, dict) and list(doc) == ["error"]
                   and isinstance(doc["error"], str), "not an error document")
