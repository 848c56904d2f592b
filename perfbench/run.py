"""The qinv benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --report [--seed <n>] [--seconds <s>]

Run from the repository root; the program is imported from src/ of the
current directory.  With --trace 0 the last line of stdout is one JSON
object with the end-to-end metrics of the workload; with --trace 1 the
workload runs again with spans recorded around every public qinv call
(written to .perfbench/), then the layer probe runs, and the last line
holds the per-layer metrics.  --report runs every workload both ways and
prints every metric by name and unit, the tracing overhead of each
workload, the interaction map and the run metadata.

Every timing reported end to end is CPU time of the process doing the
work (user plus system), not clock time: on a shared host the clock also
counts the time a process waits for a core, which belongs to the host, not
to the program.  The clock times are kept in the record.

Workloads are closed loops: one client, one process doing the work at a
time.  exact-identities and hilbert-series start a fresh interpreter for
each repetition, so each pays every lru_cache build, as a user's `qinv
verify` does; cli-session starts one process per op; in numeric-states
each of three processes does the registry and compile work in set-up and
then runs a third of the op stream.  A run repeats passes over its
workload's op list until --seconds have passed (of CPU time, in
numeric-states), finishing the pass under way, so a pass longer than
--seconds is measured once.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("exact-identities", "numeric-states", "cli-session",
             "hilbert-series")
# Set-up samples per untraced run.  In exact-identities, hilbert-series and
# cli-session a set-up costs well under a second, and the samples are taken
# before and after the timed passes, so their median does not rest on one
# stretch of the run.  numeric-states takes a sample from each of its
# working processes; a set-up there builds both registries, some 8 s, so it
# takes three, and their timed passes lie in three stretches of the run.
SETUP_SAMPLES = 5
NUMERIC_PROCESSES = 3
CHILD_TIMEOUT = 170
CLI_MAIN = "from qinv.cli import main; main()"
clock = time.monotonic


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # numpy must not start more threads than the machine has cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, env, cwd, run=None):
    """Run one child to completion; returns (exit code, stdout, start, end,
    CPU seconds of the child).

    Output goes through files under .perfbench/, so a large output cannot
    block the child, and os.wait4 gives the child's own CPU time and peak
    RSS; the RSS is added to `run`.  A child that outlives CHILD_TIMEOUT is
    killed and waited for."""
    io_dir = os.path.join(cwd, ".perfbench", "io")
    os.makedirs(io_dir, exist_ok=True)
    with open(os.path.join(io_dir, "stdout"), "w+") as out, \
            open(os.path.join(io_dir, "stderr"), "w+") as err:
        start = clock()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = clock()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if rc < 0:
        raise BenchError(f"killed by signal {-rc}: {' '.join(argv[1:4])}")
    if stderr.strip() and rc not in (0, 1, 2):
        sys.stderr.write(stderr)
    if run is not None:
        run.peak_kb = max(run.peak_kb, usage.ru_maxrss)
    return rc, stdout, start, end, usage.ru_utime + usage.ru_stime


def child_json(argv, env, cwd, run=None):
    rc, out, start, end, _ = spawn([sys.executable, CHILD, *argv], env, cwd,
                                   run)
    if rc != 0:
        raise BenchError(f"child {argv[0]} {argv[1:2]} exited {rc}")
    return json.loads(out.strip().splitlines()[-1]), start, end


# -- workloads ------------------------------------------------------------


class Run:
    """Everything one workload run measured."""

    def __init__(self):
        self.setups = []          # CPU seconds from process start to ready
        self.setup_walls = []     # the same, by the clock
        # {"start", "end", "cpu",
        #  "ops": [[name, start, end, error, output ok, cpu seconds]]}
        self.passes = []
        self.root_spans = []      # parent-side spans (cli-session roots)
        self.peak_kb = 0          # largest RSS of any child, in KiB

    def add_setup(self, doc, start):
        """One set-up sample from a child's `ready` line."""
        self.setups.append(doc["ready_cpu"])
        self.setup_walls.append(doc["ready"] - start)


def run_children(workload, seed, seconds, root, env, span_file, run):
    """exact-identities, hilbert-series and numeric-states."""

    def one(rep, share):
        argv = ["pass", workload, str(seed), str(rep), str(share)]
        doc, start, _ = child_json(argv + ([span_file] if span_file else []),
                                   env, root, run)
        run.add_setup(doc, start)
        run.passes.extend(doc["passes"])

    if workload == "numeric-states":
        # Each set-up sample is a process that then runs its share of the
        # timed passes, so the passes are spread over the whole run.
        reps = 1 if span_file else NUMERIC_PROCESSES
        for rep in range(reps):
            one(rep, seconds / reps)
        return
    if span_file is None:
        setup_samples(workload, seed, SETUP_SAMPLES // 2, env, root, run)
    began = clock()
    rep = 0
    while rep == 0 or clock() - began < seconds:
        one(rep, seconds)
        rep += 1
    if span_file is None:
        setup_samples(workload, seed, SETUP_SAMPLES - len(run.setups), env,
                      root, run)


def setup_samples(workload, seed, n, env, root, run):
    """n set-up samples, each a process that sets up and exits."""
    for _ in range(n):
        rep = 100 + len(run.setups)
        doc, start, _ = child_json(["setup", workload, str(seed), str(rep)],
                                   env, root, run)
        run.add_setup(doc, start)


def run_cli(seed, seconds, root, env, span_file, run, workdir):
    import numpy as np

    import workloads

    if span_file is None:
        setup_samples("cli-session", seed, SETUP_SAMPLES // 2, env, root, run)
    rng = np.random.default_rng([seed, 0])
    began = clock()
    n = 0
    while True:
        passdir = os.path.join(workdir, f"pass{len(run.passes)}")
        os.makedirs(passdir)
        ops = workloads.cli_ops(rng, passdir)
        start = clock()
        done = []
        for name, argv, expected_rc, check in ops:
            n += 1
            if span_file is None:
                cmd = [sys.executable, "-c", CLI_MAIN, *argv]
            else:
                root_id = f"root.{n}"
                trace_id = f"cli-session.{seed}.{n}"
                cmd = [sys.executable, CHILD, "cli", span_file, trace_id,
                       root_id, *argv]
            rc, out, t0, t1, used = spawn(cmd, env, root, run)
            if span_file is not None:
                run.root_spans.append({
                    "trace": trace_id, "id": root_id, "parent": None,
                    "name": f"op:{name}", "layer": "bench", "start": t0,
                    "end": t1, "counts": None})
            try:
                error = check(out)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable output: {type(exc).__name__}"
            output_ok = error is None
            if rc != expected_rc:
                error = f"exit code {rc}, expected {expected_rc}" + (
                    f"; {error}" if error else "")
            done.append([name, t0, t1, error, output_ok, used])
        run.passes.append({"start": start, "end": clock(),
                           "cpu": sum(op[5] for op in done), "ops": done})
        if clock() - began >= seconds:
            break
    if span_file is None:
        setup_samples("cli-session", seed, SETUP_SAMPLES - len(run.setups),
                      env, root, run)


def run_workload(workload, seed, seconds, root, span_file=None):
    env = child_env(root)
    workdir = os.path.join(root, ".perfbench", "work",
                           f"{workload}-{seed}-{int(span_file is not None)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    run = Run()
    if workload == "cli-session":
        run_cli(seed, seconds, root, env, span_file, run, workdir)
    else:
        run_children(workload, seed, seconds, root, env, span_file, run)
    shutil.rmtree(workdir, ignore_errors=True)
    return run


# -- metrics --------------------------------------------------------------


def tail(latencies):
    """(value, percentile): the latency with exactly ten samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


# Every end-to-end metric with its unit.  BENCHMARK.json bounds those whose
# run-to-run spread fits a bound.  op_p50_ms and op_tail_ms rest on single
# op samples from a stretch of the run; on a shared host their spread over
# ten seeds exceeded the largest bound allowed, 0.25, so they are reported
# in each run's record and by --report without a bound.
END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "ops_per_s": "1/s",
                    "op_p50_ms": "ms", "op_tail_ms": "ms", "ok_share": "ratio",
                    "peak_rss_mb": "MB"}


def end_to_end(run):
    """The end-to-end metrics, in CPU time; the record keeps clock times."""
    ops = [op for p in run.passes for op in p["ops"]]
    lat = [op[5] for op in ops]
    durations = [p["cpu"] for p in run.passes]
    walls = [p["end"] - p["start"] for p in run.passes]
    failed = [op for op in ops if op[3]]
    tail_s, pct = tail(lat)
    metrics = {
        # Traced cli-session runs skip the set-up samples.
        "setup_s": statistics.median(run.setups) if run.setups else None,
        "cpu_s": statistics.median(durations),
        # Like cpu_s, a median over passes, so one slow stretch of the
        # host does not move it.
        "ops_per_s": statistics.median(
            len(p["ops"]) / p["cpu"] for p in run.passes),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "ok_share": 1.0 - len(failed) / len(ops),
        "peak_rss_mb": run.peak_kb / 1024.0,
    }
    detail = {
        "passes": len(durations),
        "ops": len(ops),
        "op_samples": len(lat),
        "op_tail_percentile": pct,
        "setup_samples": len(run.setups),
        "failed_ops": [[op[0], op[3]] for op in failed],
        "pass_wall_s": statistics.median(walls),
        "setup_wall_s": (statistics.median(run.setup_walls)
                         if run.setup_walls else None),
        "op_median_ms": _by_name(ops, cpu=True),
        "op_median_wall_ms": _by_name(ops, cpu=False),
    }
    return metrics, detail, len(ops), len(failed)


def _by_name(ops, cpu):
    """Median CPU time, or clock time, of each op, in ms."""
    by = {}
    for op in ops:
        by.setdefault(op[0], []).append(op[5] if cpu else op[2] - op[1])
    return {k: 1e3 * statistics.median(v) for k, v in sorted(by.items())}


COLD_COMMANDS = {
    "eval": ["eval", "--state", "{s3}", "--invariant", "A"],
    "eval_k4": ["eval", "--state", "{s4}", "--invariant", "A"],
    "classify": ["classify", "--state", "{s3}"],
    "measure": ["measure", "--state", "{s3}"],
    "hilbert": ["hilbert", "--group", "lut", "--k", "4", "--max-degree", "10"],
    "covariant": ["covariant", "--k", "3", "--name", "Delta", "--print"],
    "verify": ["verify", "--suite", "hilbert"],
}
# The eval cold starts build a registry, 3 to 6 s each, so only --report
# runs them.
REPORT_ONLY_COLD = ("eval", "eval_k4")


def cli_cold(seed, root, commands):
    """cli.* per-layer metrics: one cold process per distinct command."""
    import numpy as np

    from qinv.poly import random_state

    env = child_env(root)
    workdir = os.path.join(root, ".perfbench", "work", "cold")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rng = np.random.default_rng([seed, 1])
    paths = {}
    for k in (3, 4):
        paths[f"s{k}"] = os.path.join(workdir, f"s{k}.json")
        random_state(k, rng).save(paths[f"s{k}"])
    m, imports, failed = {}, [], []
    for command in commands:
        argv = COLD_COMMANDS[command]
        timings = os.path.join(workdir, f"{command}.timings.json")
        argv = [a.format(**paths) for a in argv]
        rc, _, _, _, used = spawn([sys.executable, CHILD, "cold", timings,
                                   *argv], env, root)
        if rc != 0:
            failed.append(f"cold {command}: exit {rc}")
        with open(timings) as fh:
            t = json.load(fh)
        imports.append(t["import_s"])
        if command == "eval_k4":
            m["cli.registry_s.k4"] = t["registry_s"]["4"]
        else:
            m[f"cli.cold_s.{command}"] = used
            if command == "eval":
                m["cli.registry_s.k3"] = t["registry_s"]["3"]
    m["cli.import_s"] = statistics.median(imports)
    shutil.rmtree(workdir, ignore_errors=True)
    return m, failed


def per_layer(seed, root, report=False):
    doc, _, _ = child_json(["probe", str(seed)], child_env(root), root)
    cold, failed = cli_cold(seed, root, [
        c for c in COLD_COMMANDS if report or c not in REPORT_ONLY_COLD])
    return {**doc["metrics"], **cold}, doc["failed"] + failed


def collect_spans(span_file, run):
    spans = list(run.root_spans)
    if os.path.exists(span_file):
        with open(span_file) as fh:
            spans.extend(json.loads(line) for line in fh)
    with open(span_file, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return spans


# -- metadata -------------------------------------------------------------


def git_sha(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root):
    import numpy

    src = os.path.join(root, "src", "qinv")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "git_sha": git_sha(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_qinv_lines": lines,
    }


# -- entry points ---------------------------------------------------------


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "interactions.json")) as fh:
        moves = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    if sorted(names) != sorted(moves["per_layer"]):
        raise BenchError("interactions.json and BENCHMARK.json disagree")
    return spec, moves


def select(values, specs):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def measure(workload, seed, seconds, trace, root, spec, probe=True):
    """One run; returns (result line, record).  A traced run without the
    probe records spans only and reports no metrics."""
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "metadata": metadata(root)}
    span_file = None
    if trace:
        span_file = os.path.join(root, ".perfbench",
                                 f"trace-{workload}-seed{seed}.jsonl")
        if os.path.exists(span_file):
            os.remove(span_file)
    run = run_workload(workload, seed, seconds, root, span_file)
    values, detail, attempted, failed = end_to_end(run)
    record["detail"] = detail
    record["end_to_end"] = {name: {"value": values[name], "unit": unit}
                            for name, unit in END_TO_END_UNITS.items()}
    correct = all(op[4] for p in run.passes for op in p["ops"])
    if not trace:
        metrics = select(values, spec["end_to_end"])
    else:
        from spans import summarize

        record["traced_cpu_s"] = values["cpu_s"]
        record["traced_wall_s"] = detail["pass_wall_s"]
        record["trace_file"] = os.path.relpath(span_file, root)
        record["spans"] = summarize(collect_spans(span_file, run))
        metrics = {}
        if probe:
            layer_values, probe_failed = per_layer(seed, root)
            metrics = select(layer_values, spec["per_layer"])
            attempted += len(layer_values)
            failed += len(probe_failed)
            record["probe_failed"] = probe_failed
            correct = correct and not probe_failed
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    path = os.path.join(root, ".perfbench", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


# Per-layer metrics too costly to repeat in every traced run's layer probe;
# --report takes them from the spans of the workload that runs them.
SPAN_METRICS = {
    "invariants.f7_check_s": ("exact-identities", "invariants.f7_check",
                              "total_s", "s"),
    "invariants.syzygy_s": ("exact-identities", "invariants.syzygy_checks",
                            "total_s", "s"),
    "invariants.syzygy_residual_terms": (
        "exact-identities", "invariants.syzygy_residuals", "terms", "count"),
    "hilbert.ct_lut_s.k4n10": ("hilbert-series", "op:lut_ct:k4n10",
                               "total_s", "s"),
    "hilbert.ct_lut_s.k5n6": ("hilbert-series", "op:lut_ct:k5n6",
                              "total_s", "s"),
}


def report(seed, seconds, root, spec, moves):
    """Every workload untraced and traced; the probe runs once."""
    print("metadata " + json.dumps(metadata(root)))
    rows = {}
    for workload in WORKLOADS:
        plain, record = measure(workload, seed, seconds, 0, root, spec)
        plain["all"] = record["end_to_end"]
        _, record = measure(workload, seed, seconds, 1, root, spec,
                            probe=False)
        rows[workload] = (plain, record["traced_cpu_s"],
                          record["traced_wall_s"], record["spans"])
    layer, probe_failed = per_layer(seed, root, report=True)
    print("\nend-to-end (tracing off; * has no bound in BENCHMARK.json)")
    for workload, (plain, _, _, _) in rows.items():
        print(f"  {workload}: correct={plain['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for name, m in plain["all"].items():
            mark = " " if name in plain["metrics"] else "*"
            print(f"   {mark}{name:14s} {m['value']:14.6g} {m['unit']}")
    print("\ntracing overhead (median pass CPU time, traced - untraced)")
    for workload, (plain, traced, _, summary) in rows.items():
        base = plain["metrics"]["cpu_s"]["value"]
        print(f"  {workload:18s} {traced - base:+9.3f} s "
              f"({(traced - base) / base:+.1%}), "
              f"{summary['spans']} spans in {summary['traces']} traces")
    _, _, traced, summary = rows["exact-identities"]
    print(f"\nexact-identities: span self times sum to "
          f"{summary['self_s_total']:.3f} s; traced pass {traced:.3f} s "
          f"by the clock, which the spans use")
    print("\nself time by layer (traced runs)")
    for workload, (_, _, _, summary) in rows.items():
        parts = ", ".join(f"{k} {v['self_s']:.3f}"
                          for k, v in summary["layers"].items())
        print(f"  {workload}: {parts}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for metric, (workload, span, field, unit) in SPAN_METRICS.items():
        names = rows[workload][3]["names"]
        layer[metric] = names.get(span, {}).get(field, float("nan"))
        units[metric] = unit
    doc, _, _ = child_json(["suite", "identities"], child_env(root), root)
    layer["verify.suite_s.identities"] = doc["seconds"]
    for name in layer:
        units.setdefault(name, "s")
    if not doc["passed"]:
        probe_failed.append("verify --suite identities")
    print("\nper-layer (probe; the report-only metrics of interactions.json "
          "from traced spans and one in-process identities suite call)")
    for name, unit in units.items():
        targets = "; ".join(
            f"{t['metric']} on {t['workload']}"
            for t in moves["per_layer"].get(name)
            or moves["report_only"].get(name, []))
        print(f"  {name:36s} {layer[name]:14.6g} {unit:6s}"
              f" -> {targets or 'must repeat exactly'}")
    if probe_failed:
        print(f"probe checks failed: {probe_failed}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qinv", "__init__.py")):
        sys.exit("perfbench: no src/qinv under the current directory; "
                 "run from the repository root")
    # The parent makes the cli-session inputs with the program's own state
    # helpers, imported from the same source tree as the children.
    sys.path.insert(1, os.path.join(root, "src"))
    spec, moves = load_spec(root)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.report:
        return report(args.seed, seconds, root, spec, moves)
    if args.workload is None:
        p.error("--workload or --report is required")
    result, record = measure(args.workload, args.seed, seconds, args.trace,
                             root, spec)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.exit(f"perfbench: {exc}")
