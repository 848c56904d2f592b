"""Command-line interface.

Subcommands: eval, classify, measure, hilbert, covariant, verify.  All
output is a single JSON document on stdout.  Exit codes: 0 success, 1 bad
input, 2 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import covariant_by_name
from .hilbert import (
    CLOSED_FORMS,
    dim_inv_slocc,
    hilbert_lsut_coeffs,
    hilbert_lsut_ct,
    hilbert_lut_coeffs,
    hilbert_lut_ct,
)
from .measures import classify3, hyperdet3, meyer_wallach
from .poly import DimensionError, State
from .verify import SUITES


class CliError(Exception):
    pass


def _load_state(path: str) -> State:
    try:
        return State.load(path)
    except FileNotFoundError:
        raise CliError(f"state file not found: {path}")
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise CliError(f"malformed state file {path}: {exc}")


def _complex_json(z: complex):
    return [z.real, z.imag]


def invariant_registry(k: int):
    """Named invariants evaluable on a k-qubit state."""
    from .catalog import b_multidegrees, cayley_hyperdet
    from .invariants import (
        b_pairing,
        degree6_invariants_4,
        lut3_generator,
        lut3_pairing,
        norm_invariant,
        s2_invariant,
        delta_invariant,
    )

    reg = {"A": norm_invariant(k).evaluate}
    for d in b_multidegrees(k):
        reg["B_" + "".join(map(str, d))] = b_pairing(k, d).evaluate
    if k == 3:
        for i in range(1, 8):
            reg[f"f{i}"] = lut3_generator(i).evaluate
        for name in ("C_111", "D_000", "F_222"):
            reg[name] = lut3_pairing(name).evaluate
        reg["s2"] = s2_invariant().evaluate
        reg["Delta"] = delta_invariant().evaluate
        reg["Det"] = cayley_hyperdet().evaluate
    if k == 4:
        for name, expr in degree6_invariants_4():
            reg[name] = expr.evaluate
    return reg


def cmd_eval(args) -> dict:
    s = _load_state(args.state)
    reg = invariant_registry(s.k)
    if args.invariant not in reg:
        raise CliError(
            f"unknown invariant {args.invariant!r} for k={s.k}; "
            f"known: {', '.join(sorted(reg))}"
        )
    value = reg[args.invariant](s)
    return {"name": args.invariant, "value": _complex_json(complex(value))}


def cmd_classify(args) -> dict:
    s = _load_state(args.state)
    result = classify3(s, tol=args.tol)
    return {
        "label": result.label,
        "flags": list(result.flags),
        "invariants": {n: v for n, v in result.invariants.items()},
    }


def cmd_measure(args) -> dict:
    s = _load_state(args.state)
    report = meyer_wallach(s, route=args.route)
    return {"Q": report.q, "d1": list(report.d1)}


def _closed_form(group: str, k: int):
    if (group, k) not in CLOSED_FORMS:
        ks = ",".join(str(kk) for g, kk in sorted(CLOSED_FORMS) if g == group)
        # The SLOCC wording differs; both messages are kept byte for byte.
        verb = "is shipped" if group == "slocc" else "shipped"
        raise CliError(
            f"closed-form {group.upper()} series {verb} for k={ks} only"
        )
    return CLOSED_FORMS[group, k]


def cmd_hilbert(args) -> dict:
    k, n = args.k, args.max_degree
    group, method = args.group, args.method
    if k < 1:
        raise CliError(f"--k must be at least 1, got {k}")
    if n < 0 or (args.max_conj_degree is not None and args.max_conj_degree < 0):
        raise CliError("degrees must be non-negative")
    m = args.max_conj_degree if args.max_conj_degree is not None else n
    sizes = (n, m) if group == "lsut" else (n,)
    if method == "closed-form":
        series = _closed_form(group, k)(*sizes)
    elif group == "slocc":
        series = [dim_inv_slocc(d, k) for d in range(n + 1)]
    elif group == "lut":
        route = hilbert_lut_coeffs if method == "character" else hilbert_lut_ct
        series = route(k, n)
    else:
        route = hilbert_lsut_coeffs if method == "character" else hilbert_lsut_ct
        series = route(k, n, m)
    if group == "lsut":
        series = [[i, j, series[i][j]]
                  for i in range(n + 1) for j in range(m + 1)]
    return {"group": group, "k": k, "coefficients": series}


def cmd_covariant(args) -> dict:
    try:
        cov = covariant_by_name(args.k, args.name)
    except (KeyError, ValueError) as exc:
        raise CliError(exc.args[0] if exc.args else str(exc))
    out = {
        "name": cov.name,
        "k": args.k,
        "amplitude_degree": cov.amp_degree,
        "multidegree": list(cov.multidegree),
        "terms": len(cov.poly.terms),
    }
    if args.print:
        out["polynomial"] = cov.poly.pretty()
    return out


def cmd_verify(args) -> dict:
    suite = SUITES[args.suite]
    return suite(k=args.k, trials=args.trials, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qinv",
        description="Local unitary / SLOCC invariants of pure qubit states",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a named invariant on a state")
    pe.add_argument("--state", required=True)
    pe.add_argument("--invariant", required=True)
    pe.set_defaults(fn=cmd_eval)

    pc = sub.add_parser("classify", help="3-qubit SLOCC orbit classification")
    pc.add_argument("--state", required=True)
    pc.add_argument("--tol", type=float, default=1e-9)
    pc.set_defaults(fn=cmd_classify)

    pm = sub.add_parser("measure", help="Meyer-Wallach measure report")
    pm.add_argument("--state", required=True)
    pm.add_argument("--route", choices=["direct", "covariant"],
                    default="direct")
    pm.set_defaults(fn=cmd_measure)

    ph = sub.add_parser("hilbert", help="Hilbert series coefficients")
    ph.add_argument("--group", choices=["slocc", "lut", "lsut"],
                    required=True)
    ph.add_argument("--k", type=int, required=True)
    ph.add_argument("--max-degree", type=int, required=True)
    ph.add_argument("--max-conj-degree", type=int, default=None)
    ph.add_argument("--method", choices=["character", "ct", "closed-form"],
                    default="character")
    ph.set_defaults(fn=cmd_hilbert)

    pv = sub.add_parser("covariant", help="construct a named covariant")
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--name", required=True)
    pv.add_argument("--print", action="store_true")
    pv.set_defaults(fn=cmd_covariant)

    pf = sub.add_parser("verify", help="run a verification suite")
    pf.add_argument("--suite", choices=sorted(SUITES), required=True)
    pf.add_argument("--k", type=int, default=3)
    pf.add_argument("--trials", type=int, default=100)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(fn=cmd_verify)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        result = args.fn(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except DimensionError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    print(json.dumps(result, indent=2))
    if args.command == "verify" and not result.get("passed", False):
        return 2
    return 0


def main() -> None:
    sys.exit(run())
