#!/usr/bin/env python3
"""The qrationals benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Workloads (see BENCHMARK.json for why each exists):

  qrat-large    q_rational, theorem_pair and q_markoff on tall and long inputs
  stats-words   the three statistics, prefix/suffix tables and Markoff rows
  cli-mix       cli.main over every subcommand but verify, stdout captured
  verify-parts  six of verify's desk checks, the brute-force oracles and
                polytope's hull tests

The loop is closed: one thread, each operation starts when the previous
one returns.  A pass runs one input set of generated operations in a
fresh interpreter, so no input repeats within a process and no result
can be reused from an earlier pass; input set k of seed n is drawn from
(workload, n, k).  Passes cycle over INPUT_SETS sets until the run has
taken --seconds.  Output checks run outside the timed calls.  The end-to-
end times are measured against gauge.py's kernel, timed between the
operations, so that they hardly depend on how busy a shared host is.
With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
runs input set 0 twice plain and once traced, and prints the per-layer
metrics.  The last line of standard output is the result object.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
from spans import MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("qrat-large", "stats-words", "cli-mix", "verify-parts")
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = [%r, %r]\n"
    "import gauge\n"
    "before = [gauge.seconds() for _ in range(3)]\n"
    "t = time.perf_counter()\n"
    "import " + ", ".join("qrationals." + m for m in MODULES) + "\n"
    "t = time.perf_counter() - t\n"
    "print(t, gauge.median(before + [gauge.seconds() for _ in range(3)]))\n"
)
CHILD_TIMEOUT_S = 150
# Passes cycle over this many input sets of a seed, each pass in a fresh
# process; more than one set keeps a seed's few costliest inputs from
# setting op_p90_ms alone.
INPUT_SETS = 2
# The gauge's kernel runs before the first operation of a pass, again once
# the operations since its last run have taken GAUGE_EVERY_S, and after
# the last one.
GAUGE_EVERY_S = 0.05
# setup_s is the median of one import before each pass; a run makes at
# least this many passes.
SETUP_SAMPLES = 5


def import_seconds():
    """Time to import every qrationals module in a fresh interpreter, in
    gauge units converted to time at the gauge's nominal speed (the gauge
    is timed in the same interpreter, three times before the import and
    three times after it)."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE % (str(SRC), str(BENCH))],
        capture_output=True, text=True, timeout=60, check=True,
    )
    t, g = map(float, proc.stdout.split())
    return gauge.NOMINAL_S * t / g, t


def line_counts():
    counts = {}
    for path in sorted((SRC / "qrationals").glob("*.py")):
        counts[path.stem] = sum(1 for line in path.read_text().splitlines() if line.strip())
    return counts


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "qrationals").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def generate(workload, seed, index, scale):
    """The operations of input set `index` and a digest of their inputs;
    an operation whose inputs repeat within the set is kept once."""
    import workloads

    ops = workloads.GENERATORS[workload](random.Random("%s/%s/%s" % (workload, seed, index)), scale)
    ops = list({op.desc: op for op in ops}.values())
    digest = hashlib.sha256(json.dumps([op.desc for op in ops], default=str).encode()).hexdigest()[:16]
    return ops, digest


def verdict(op, output, error):
    """None if the operation succeeded, else what went wrong."""
    if error:
        return error
    try:
        return op.check(output)
    except Exception as exc:  # a malformed output fails its operation, not the run
        return "%s: check raised %s: %s" % (op.desc, type(exc).__name__, exc)


def one_pass(workload, seed, index, scale, trace):
    """Run input set `index` in this process, each output checked outside
    its timed call; return its record (times, kinds, failures, and with
    `trace` the per-layer metrics).  A traced pass checks its outputs
    after the tracer is removed, so that checks are not traced."""
    import workloads
    from spans import Tracer

    ops, digest = generate(workload, seed, index, scale)
    tracer = Tracer() if trace else None
    clock = time.perf_counter
    times, problems, held = [], [], []
    gauges, gauge_index, since = [], [], math.inf
    if tracer:
        tracer.install()
    try:
        for op in ops:
            if since >= GAUGE_EVERY_S:
                gauges.append(gauge.seconds())
                since = 0.0
            gauge_index.append(len(gauges) - 1)
            t0 = clock()
            try:
                output = tracer.run_op(op.kind, op.call) if tracer else op.call()
                error = None
            except Exception as exc:  # an operation that raises is a failed operation
                output, error = None, "%s raised %s: %s" % (op.desc, type(exc).__name__, exc)
            times.append(clock() - t0)
            since += times[-1]
            if tracer:
                held.append((op, output, error))
            else:
                problems.append(verdict(op, output, error))
    finally:
        if tracer:
            tracer.uninstall()
    gauges.append(gauge.seconds())
    problems += [verdict(*item) for item in held]
    problems = [p for p in problems if p]
    record = {
        "digest": digest,
        "set": index,
        "kinds": [op.kind for op in ops],
        "times": times,
        "gauged": gauged(times, gauge_index, gauges),
        "gauge_ms": 1000 * gauge.median(gauges),
        "failed": len(problems),
        "problems": problems[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / ("spans-%s-%s.json.gz" % (workload, seed)))
        metrics = tracer.metrics()
        metrics["cli.out_bytes"] = (sum(workloads.cli_out_bytes(op, out) for op, out, _ in held), "count")
        record["metrics"] = metrics
        record["spans"] = len(tracer.span_start)
    return record


def child_pass(workload, seed, index, scale, trace):
    """one_pass in a fresh interpreter."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(int(trace)), "--scale", repr(scale), "--pass-index", str(index)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("pass %d of %s exited %d: %s" % (index, workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def gauged(times, gauge_index, gauges):
    """Each operation's time in gauge units: over the median time of the
    gauge runs around it (the one before it, the one after, and one more
    on each side).  A shared host slows the gauge and the package alike,
    so the ratio keeps what the package costs and drops most of how busy
    the host was."""
    return [t / gauge.median(gauges[max(0, k - 1) : k + 3]) for t, k in zip(times, gauge_index)]


def end_to_end(passes):
    """The time figures are in gauge units converted back to time at the
    gauge's nominal speed (gauge.NOMINAL_S).  An operation's latency is
    the median of its gauged times over the processes that ran its input
    set, each of which ran it once, cold.  The percentiles are over the
    operations of every set, and wall_s is one pass at those latencies,
    averaged over the sets."""
    runs = {}
    for p in passes:
        runs.setdefault(p["set"], []).append(p["gauged"])
    latencies = [gauge.NOMINAL_S * statistics.median(column) for sets in runs.values() for column in zip(*sets)]
    wall = sum(latencies) / len(runs)
    return {
        "ops_per_s": (len(latencies) / len(runs) / wall, "1/s"),
        "op_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def raw_end_to_end(passes):
    """Wall-clock figures of the same passes, for the metadata: the
    median over the sets of their median pass time, and the median of
    every operation's time."""
    runs = {}
    for p in passes:
        runs.setdefault(p["set"], []).append(sum(p["times"]))
    return {
        "pass_s_median": statistics.median(statistics.median(v) for v in runs.values()),
        "op_ms_median": 1000 * statistics.median(t for p in passes for t in p["times"]),
    }


def per_layer(plain, traced):
    """The traced pass's layer metrics, verify.<check>.s from the faster
    plain pass, the trace overhead (gauged, as wall_s is), and the module
    line counts."""
    import workloads

    metrics = dict(traced["metrics"])
    fast = min(plain, key=lambda p: sum(p["times"]))
    for slug in workloads.VERIFY_PARTS:
        kind = "verify " + slug
        metrics["verify.%s.s" % slug] = (sum(t for k, t in zip(fast["kinds"], fast["times"]) if k == kind), "s")
    plain_gauged = min(sum(p["gauged"]) for p in plain)
    metrics["trace.overhead_s"] = (gauge.NOMINAL_S * (sum(traced["gauged"]) - plain_gauged), "s")
    lines = line_counts()
    for module in MODULES:
        metrics[module + ".lines"] = (lines.get(module, 0), "lines")
    metrics["src.lines"] = (sum(lines.values()), "lines")
    return metrics


def run(workload, seed, seconds, trace, scale=1.0, runner=child_pass):
    """One benchmark run; returns (result object, metadata, failure
    messages).  `runner` runs one pass (tests run passes in-process)."""
    if trace:
        plain = [runner(workload, seed, 0, scale, False) for _ in range(2)]
        traced = runner(workload, seed, 0, scale, True)
        passes = plain + [traced]
        metrics = per_layer(plain, traced)
    else:
        import_seconds()  # compiles the bytecode; an installed package ships it compiled
        passes, setups, start = [], [], time.perf_counter()
        while len(passes) < SETUP_SAMPLES or time.perf_counter() - start < seconds:
            setups.append(import_seconds())
            passes.append(runner(workload, seed, len(passes) % INPUT_SETS, scale, False))
        metrics = end_to_end(passes)
        metrics["setup_s"] = (statistics.median(g for g, _ in setups), "s")
    wall_clock = raw_end_to_end(passes)
    if not trace:
        wall_clock["setup_s"] = statistics.median(t for _, t in setups)
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "input_digest": {p["set"]: p["digest"] for p in passes},
        "passes": len(passes),
        "operations_per_pass": [len(p["times"]) for p in passes],
        "pass_s": [sum(p["times"]) for p in passes],
        "gauge_ms": [p["gauge_ms"] for p in passes],
        "wall_clock": wall_clock,
        "fail_ratio": failed / attempted,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "lines": line_counts(),
    }
    if trace:
        meta["spans"] = traced["spans"]
    messages = [m for p in passes for m in p["problems"]][:10]
    return result, meta, messages


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="pass size factor (smoke tests use less than 1)")
    parser.add_argument("--out", type=Path, help="also write the result and its metadata to this JSON file")
    parser.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if not (SRC / "qrationals" / "__init__.py").is_file():
        print("error: no package source at %s; run from the root of a qrationals checkout" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.pass_index is not None:
        print(json.dumps(one_pass(args.workload, args.seed, args.pass_index, args.scale, args.trace)))
        return 0
    result, meta, messages = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    for message in messages:
        print("FAIL %s" % message, file=sys.stderr)
    print("# meta %s" % json.dumps(meta, sort_keys=True))
    for name, metric in result["metrics"].items():
        print("# %-44s %.6g %s" % (name, metric["value"], metric["unit"]))
    print("# attempted %d failed %d fail_ratio %.6g" % (result["attempted"], result["failed"], meta["fail_ratio"]))
    if args.out:
        args.out.write_text(json.dumps({"meta": meta, "result": result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
