"""Command-line interface.

Subcommands: eval, classify, measure, hilbert, covariant, verify.  All
output is a single JSON document on stdout.  Exit codes: 0 success, 1 bad
input, 2 verification-suite failure.

Each subcommand imports the layers it runs inside its handler, after its
state file (if any) has loaded, so a `hilbert` command or a rejected state
file never imports numpy or builds an invariant.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping
from functools import partial

from .state import DimensionError, State

# The keys of `verify.SUITES`, spelled out so that building the parser does
# not import the verify layer.
SUITE_NAMES = ("classification", "hilbert", "identities", "invariance")


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


class _Registry(Mapping):
    """Read-only map from invariant name to its bound `evaluate`.  The keys
    come from a table of builders; an invariant is built on first access
    and then kept."""

    def __init__(self, builders: dict):
        self._builders = builders
        self._built = {}

    def __getitem__(self, name):
        fn = self._built.get(name)
        if fn is None:
            fn = self._built[name] = self._builders[name]().evaluate
        return fn

    def __contains__(self, name):
        return name in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self):
        return len(self._builders)


def invariant_registry(k: int) -> Mapping:
    """Named invariants evaluable on a k-qubit state."""
    from .catalog import b_multidegrees, cayley_hyperdet
    from .invariants import (
        DEGREE6_NAMES_4,
        b_pairing,
        degree6_invariant_4,
        delta_invariant,
        lut3_generator,
        lut3_pairing,
        norm_invariant,
        s2_invariant,
    )

    reg = {"A": partial(norm_invariant, k)}
    for d in b_multidegrees(k):
        reg["B_" + "".join(map(str, d))] = partial(b_pairing, k, d)
    if k == 3:
        for i in range(1, 8):
            reg[f"f{i}"] = partial(lut3_generator, i)
        for name in ("C_111", "D_000", "F_222"):
            reg[name] = partial(lut3_pairing, name)
        reg["s2"] = s2_invariant
        reg["Delta"] = delta_invariant
        reg["Det"] = cayley_hyperdet
    if k == 4:
        for name in DEGREE6_NAMES_4:
            reg[name] = partial(degree6_invariant_4, name)
    return _Registry(reg)


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
    # Checked before the import, so a rejected k costs no numpy import.
    if s.k != 3:
        raise DimensionError(f"classification needs k=3, got k={s.k}")
    from .measures import classify3

    result = classify3(s, tol=args.tol)
    return {
        "label": result.label,
        "flags": list(result.flags),
        "invariants": {n: v for n, v in result.invariants.items()},
    }


def cmd_measure(args) -> dict:
    s = _load_state(args.state)
    from .measures import meyer_wallach

    report = meyer_wallach(s, route=args.route)
    return {"Q": report.q, "d1": list(report.d1)}


def _closed_form(group: str, k: int):
    from .hilbert import CLOSED_FORMS

    if (group, k) not in CLOSED_FORMS:
        ks = ",".join(str(kk) for g, kk in sorted(CLOSED_FORMS) if g == group)
        # The SLOCC wording differs; both messages are kept byte for byte.
        verb = "is shipped" if group == "slocc" else "shipped"
        raise CliError(
            f"closed-form {group.upper()} series {verb} for k={ks} only"
        )
    return CLOSED_FORMS[group, k]


def cmd_hilbert(args) -> dict:
    from .hilbert import ROUTES

    k, n = args.k, args.max_degree
    group, method = args.group, args.method
    if k < 1:
        raise CliError(f"--k must be at least 1, got {k}")
    if n < 0 or (args.max_conj_degree is not None and args.max_conj_degree < 0):
        raise CliError("degrees must be non-negative")
    if args.max_conj_degree is not None and group != "lsut":
        raise CliError("--max-conj-degree applies to --group lsut only")
    m = args.max_conj_degree if args.max_conj_degree is not None else n
    sizes = (n, m) if group == "lsut" else (n,)
    if method == "closed-form":
        series = _closed_form(group, k)(*sizes)
    else:
        series = ROUTES[group, method](k, *sizes)
    if group == "lsut":
        series = [[i, j, series[i][j]]
                  for i in range(n + 1) for j in range(m + 1)]
    return {"group": group, "k": k, "coefficients": series}


def cmd_covariant(args) -> dict:
    from .catalog import covariant_by_name

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
    from .verify import SUITES

    if args.k < 1:
        raise CliError(f"--k must be at least 1, got {args.k}")
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
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
    pf.add_argument("--suite", choices=SUITE_NAMES, required=True)
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
