"""Work done in a fresh interpreter; run.py starts one per repetition.

    python3 perfbench/child.py setup <workload> <seed> <rep>
    python3 perfbench/child.py pass <workload> <seed> <rep> <seconds> [<span file>]
    python3 perfbench/child.py cli <span file> <trace id> <parent span> <argv>...
    python3 perfbench/child.py cold <timings file> <argv>...
    python3 perfbench/child.py probe <seed>
    python3 perfbench/child.py suite <verify suite>

`setup` and `pass` print one JSON line: the clock reading and the
process CPU time when set-up was done and, for `pass`, each pass with its
CPU time and each op's start, end, guard verdict and CPU time.  `cli`
runs `qinv.cli.main` on <argv> with spans recorded, for the traced
cli-session run; `cold` runs it timing the import and the
registry build.  `probe` prints the per-layer metrics of probe.py;
`suite` times one verify suite in process.
The clock is CLOCK_MONOTONIC, shared with the parent process.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# CLOCK_MONOTONIC, the clock of spans.py; that module is imported only where
# spans are recorded, so that a cold CLI start pays for nothing else.
clock = time.monotonic
# CPU time of this process, counted from its start; the timings reported
# end to end use it, so time the process waits for a core is left out.
cpu = time.process_time


def _setup(workload: str, seed: int, rep: int, tracer=None):
    """Imports and seeded inputs; returns a function giving one pass's ops."""
    if workload == "cli-session":
        import qinv.cli  # noqa: F401

        return None
    import numpy as np

    import qinv  # noqa: F401

    if tracer is not None:
        from spans import instrument

        instrument(tracer)
    import workloads

    rng = np.random.default_rng([seed, rep])
    if workload == "exact-identities":
        ops = workloads.exact_ops(rng)
        return lambda: ops
    if workload == "hilbert-series":
        ops = workloads.hilbert_ops(rng)
        return lambda: ops
    if workload == "numeric-states":
        return workloads.NumericSetup(rng).pass_ops
    raise SystemExit(f"unknown workload {workload!r}")


def _run_op(name, call, check):
    start, cpu_start = clock(), cpu()
    try:
        result = call()
        end, cpu_end = clock(), cpu()
        error = check(result)
    except Exception as exc:  # an op that raises is a failed op
        end, cpu_end = clock(), cpu()
        error = f"raised {type(exc).__name__}: {exc}"
    return [name, start, end, error, error is None, cpu_end - cpu_start]


def cmd_pass(workload, seed, rep, seconds, span_file=None):
    tracer = None
    if span_file:
        from spans import Tracer

        tracer = Tracer()
    next_ops = _setup(workload, seed, rep, tracer)
    ready, ready_cpu = clock(), cpu()
    passes = []
    # exact-identities and hilbert-series run one pass per interpreter, so
    # every repetition pays the lru_cache builds again, as a user does.
    repeat = workload == "numeric-states"
    while True:
        ops = next_ops()
        start, start_cpu = clock(), cpu()
        done = []
        for i, (name, call, check) in enumerate(ops):
            if tracer is None:
                done.append(_run_op(name, call, check))
            else:
                trace_id = f"{workload}.{seed}.{rep}.{len(passes)}.{i}"
                with tracer.root(f"op:{name}", trace_id):
                    done.append(_run_op(name, call, check))
        passes.append({"start": start, "end": clock(),
                       "cpu": cpu() - start_cpu, "ops": done})
        # CPU time, not the clock, decides when to stop, so the number of
        # passes does not depend on how busy the host is.
        if not repeat or cpu() - ready_cpu >= seconds:
            break
    if tracer is not None:
        tracer.write(span_file)
    print(json.dumps({"ready": ready, "ready_cpu": ready_cpu,
                      "passes": passes}))


def cmd_cli(span_file, trace_id, parent, argv):
    from spans import Tracer, instrument

    tracer = Tracer(trace_id, parent)
    start = clock()
    import qinv.cli

    tracer.record("cli.import", "cli", start, clock(), parent)
    instrument(tracer)
    try:
        sys.argv = ["qinv", *argv]
        qinv.cli.main()
    finally:
        tracer.write(span_file)


def cmd_cold(timings_file, argv):
    """A cold CLI start, timing the import and the registry build in CPU
    time."""
    start = cpu()
    import qinv.cli

    timings = {"import_s": cpu() - start, "registry_s": {}}
    build = qinv.cli.invariant_registry

    def timed_registry(k):
        t = cpu()
        reg = build(k)
        timings["registry_s"][str(k)] = cpu() - t
        return reg

    qinv.cli.invariant_registry = timed_registry
    try:
        sys.argv = ["qinv", *argv]
        qinv.cli.main()
    finally:
        with open(timings_file, "w") as fh:
            json.dump(timings, fh)


def main(argv):
    role = argv[0]
    if role == "setup":
        _setup(argv[1], int(argv[2]), int(argv[3]))
        print(json.dumps({"ready": clock(), "ready_cpu": cpu()}))
    elif role == "pass":
        cmd_pass(argv[1], int(argv[2]), int(argv[3]), float(argv[4]),
                 argv[5] if len(argv) > 5 else None)
    elif role == "cli":
        cmd_cli(argv[1], argv[2], argv[3], argv[4:])
    elif role == "cold":
        cmd_cold(argv[1], argv[2:])
    elif role == "suite":
        from qinv.verify import SUITES

        start = cpu()
        report = SUITES[argv[1]]()
        print(json.dumps({"seconds": cpu() - start,
                          "passed": report["passed"]}))
    elif role == "probe":
        import probe

        print(json.dumps(probe.run(int(argv[1]))))
    else:
        raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(3)
