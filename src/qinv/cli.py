"""Command-line interface.

Subcommands: eval, classify, measure, hilbert, covariant, verify.  All
output is a single JSON document on stdout.  Exit codes: 0 success, 1 bad
input, 2 verification-suite failure, and 141 (128 + SIGPIPE, as a shell
reports a process that signal ended) when the reader closed stdout before
the document was written, which ends without a traceback.  Bad input,
including bad arguments, a state whose squared norm overflows and a result
that is not finite, prints {"error": message}.

The commands that build covariants for a given k accept k up to `MAX_K`:
7 for `eval`, 6 for `measure --route covariant` and for `verify --suite
invariance` (which needs k >= 2), and 8 for `covariant`.  `verify` accepts
up to `MAX_TRIALS` trials and a non-negative seed, and `hilbert` the sizes
in `HILBERT_MAX`.  `verify` takes only the flags its suite reads
(`SUITE_FLAGS`); any other of --k, --trials and --seed is bad input.

Each subcommand imports the layers it runs inside its handler, after its
state file (if any) has loaded, so `hilbert`, `measure --route direct`,
`verify --suite hilbert` and a rejected state file never import numpy or
build an invariant.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Mapping
from functools import partial

from .state import DimensionError, State

# The flags each `verify.SUITES` entry reads, with the values it gets when
# they are left out; spelled out so that building the parser does not import
# the verify layer.
SUITE_FLAGS = {
    "classification": {"trials": 100, "seed": 0},
    "hilbert": {},
    "identities": {},
    "invariance": {"k": 3, "trials": 100, "seed": 0},
}
SUITE_NAMES = tuple(SUITE_FLAGS)


# The largest k for which each command builds covariants, so that no
# command runs for minutes or exhausts memory.  Cold CPU time of the costliest
# case on a 2-vCPU host, with pairings evaluated through their covariants:
# `measure --route covariant` took 0.37 s at k=6 and 0.75 s (72 MB) at k=7;
# `eval --invariant B_2...2` took 0.28 s (41 MB) at k=7, and its form took
# 0.55 s (96 MB) at k=8;
# `covariant --name B_2...2 --print` took 1.7 s at k=8 and 12 s (2.8 GB) at
# k=9; `verify --suite invariance --trials 3` took 3.9 s (102 MB) at k=6 and
# 134 s (1.0 GB) at k=7.
MAX_K = {"eval": 7, "measure --route covariant": 6, "covariant": 8,
         "verify --suite invariance": 6}

# The largest `verify --trials`.  The suites draw the trials' group elements
# one by one and stack (trials + 1) x 2^k amplitude arrays.  At 10,000
# trials, wall time and peak memory on a 2-vCPU host: `--suite invariance`
# 1.9 s (159 MB) at k=3, 3.6 s (103 MB) at k=4 and 17 s (443 MB) at k=6,
# the costliest allowed call; `--suite classification` 4.9 s (123 MB).
MAX_TRIALS = 10_000

# The largest k and degree of `qinv hilbert` per (group, method), checked
# before any work; for lsut the degree bound holds for both degrees.  The
# closed forms have no k bound here: they exist for the shipped k only.
# Cold CPU time at each (k, degree) corner, best of 3 on a 2-vCPU host: lut
# ct 0.54 s and lsut ct 0.54 s (the costliest allowed calls; lut ct at k=5
# took 0.97 s at degree 8), slocc ct 0.51 s, lsut character 0.13 s, slocc
# character 0.09 s, lut character 0.05 s, and 0.2 s at most for the closed
# forms at degree 100.
HILBERT_MAX = {
    ("lut", "character"): (6, 16),
    ("lut", "ct"): (4, 12),
    ("lsut", "character"): (4, 12),
    ("lsut", "ct"): (4, 6),
    ("slocc", "character"): (8, 24),
    ("slocc", "ct"): (4, 20),
    ("lut", "closed-form"): (None, 100),
    ("lsut", "closed-form"): (None, 100),
    ("slocc", "closed-form"): (None, 100),
}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CliError, which ends in the JSON error
    document like every other bad input."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _check_k(command: str, k: int):
    if k > MAX_K[command]:
        raise CliError(
            f"{command} supports k <= {MAX_K[command]}, got k={k}")


def _load_state(path: str) -> State:
    try:
        return State.load(path)
    except FileNotFoundError:
        raise CliError(f"state file not found: {path}")
    except OSError as exc:
        raise CliError(f"cannot read state file {path}: {exc.strerror or exc}")
    except (json.JSONDecodeError, KeyError, ValueError, TypeError,
            OverflowError, RecursionError) as exc:
        raise CliError(f"malformed state file {path}: {exc}")


def _complex_json(z: complex):
    return [z.real, z.imag]


class _Registry(Mapping):
    """Read-only map from invariant name to the bound `evaluate` of its
    numeric form.  The keys come from a table of builders; an invariant is
    built on first access and then kept."""

    def __init__(self, builders: dict):
        self._builders = builders
        self._built = {}

    def __getitem__(self, name):
        fn = self._built.get(name)
        if fn is None:
            # Bound to the numeric form, not the InvariantExpr: a caller
            # that reads `fn.__self__.poly` would expand the pairings.
            form = self._builders[name]().numeric()
            fn = self._built[name] = form.evaluate
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
        InvariantExpr,
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
        reg["Det"] = lambda: InvariantExpr(cayley_hyperdet(), (4, 0), "Det")
    if k == 4:
        for name in DEGREE6_NAMES_4:
            reg[name] = partial(degree6_invariant_4, name)
    return _Registry(reg)


def cmd_eval(args) -> dict:
    s = _load_state(args.state)
    _check_k("eval", s.k)
    reg = invariant_registry(s.k)
    if args.invariant not in reg:
        raise CliError(
            f"unknown invariant {args.invariant!r} for k={s.k}; "
            f"known: {', '.join(sorted(reg))}"
        )
    value = reg[args.invariant](s)
    return {"name": args.invariant, "value": _complex_json(complex(value))}


def cmd_classify(args) -> dict:
    if not 0 < args.tol < math.inf:
        raise CliError(f"--tol must be positive and finite, got {args.tol}")
    s = _load_state(args.state)
    # Checked before the import, so a rejected k costs no numpy import.
    if s.k != 3:
        raise DimensionError(f"classification needs k=3, got k={s.k}")
    from .measures import classify3

    try:
        result = classify3(s, tol=args.tol)
    except ValueError as exc:  # a state of norm at most tol
        raise CliError(str(exc))
    return {
        "label": result.label,
        "flags": list(result.flags),
        "invariants": {n: v for n, v in result.invariants.items()},
    }


def cmd_measure(args) -> dict:
    s = _load_state(args.state)
    if args.route == "covariant":
        _check_k("measure --route covariant", s.k)
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
    max_k, max_degree = HILBERT_MAX[group, method]
    command = f"hilbert --group {group} --method {method}"
    if max_k is not None and k > max_k:
        raise CliError(f"{command} supports k <= {max_k}, got k={k}")
    if max(sizes) > max_degree:
        raise CliError(f"{command} supports degrees <= {max_degree}, "
                       f"got {max(sizes)}")
    from .hilbert import ROUTES

    if method == "closed-form":
        series = _closed_form(group, k)(*sizes)
    else:
        series = ROUTES[group, method](k, *sizes)
    if group == "lsut":
        series = [[i, j, series[i][j]]
                  for i in range(n + 1) for j in range(m + 1)]
    return {"group": group, "k": k, "coefficients": series}


def cmd_covariant(args) -> dict:
    _check_k("covariant", args.k)
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
    opts = dict(SUITE_FLAGS[args.suite])
    for flag in ("k", "trials", "seed"):
        value = getattr(args, flag)
        if value is not None:
            if flag not in opts:
                raise CliError(
                    f"verify --suite {args.suite} does not read --{flag}")
            opts[flag] = value
    k, trials, seed = (opts.get(flag) for flag in ("k", "trials", "seed"))
    if k is not None:
        if k < 1:
            raise CliError(f"--k must be at least 1, got {k}")
        # The SLOCC half of the invariance suite needs the degree-4 family,
        # k >= 2.
        if k < 2:
            raise CliError(
                f"verify --suite invariance needs k >= 2, got k={k}")
        _check_k("verify --suite invariance", k)
    if trials is not None and trials < 1:
        raise CliError(f"--trials must be at least 1, got {trials}")
    if trials is not None and trials > MAX_TRIALS:
        raise CliError(
            f"--trials must be at most {MAX_TRIALS}, got {trials}")
    if seed is not None and seed < 0:
        raise CliError(f"--seed must be non-negative, got {seed}")
    from .verify import SUITES

    return SUITES[args.suite](**opts)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
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
    pf.add_argument("--k", type=int)
    pf.add_argument("--trials", type=int)
    pf.add_argument("--seed", type=int)
    pf.set_defaults(fn=cmd_verify)
    return p


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.fn(args)
        try:
            text = json.dumps(result, indent=2, allow_nan=False)
        except ValueError:
            raise CliError(f"{args.command}: the result is not finite")
    except SystemExit as exc:  # --help
        return 1 if exc.code not in (0, None) else 0
    except (CliError, DimensionError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    print(text)
    if args.command == "verify" and not result.get("passed", False):
        return 2
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`qinv ... | head`).  What is still
        # buffered goes to devnull, so the flush at exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
