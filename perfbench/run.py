"""Benchmark for bolext's exact verdicts, driven from outside the package.

    python3 perfbench/run.py --workload exactness-h3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20          # every workload

One client, closed loop: one driver call at a time in this process.  With
`--trace 0` the run times untraced calls for `--seconds` seconds (at least one
call, and at least 1000 commands on corpus-mix) and reports the end-to-end
metrics, the loop's timings in reference seconds (see refclock.py); with
`--trace 1` it makes one untraced and one traced pass and reports the
per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
when every output was correct, 1 when one was not, and 2 when the benchmark
could not run (for example, the checkout holds no bolext sources).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(SRC, "bolext", "corpus")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
MIX_TRACE_BLOCKS = 10

UNITS = {"wall_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
         "failed_ratio": "ratio"}
END_TO_END = ("wall_s", "ops_per_s", "latency_p50_ms", "latency_p99_ms",
              "setup_s", "peak_rss_mb")


def cap_threads():
    """Cap BLAS and OpenMP threads at nproc before numpy loads; the cap used."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < cap:
            cap = int(value)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def code_fingerprint():
    """sha256 over the bolext and benchmark sources, for the count record."""
    import hashlib
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "bolext"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def ready_seconds(argv):
    """Seconds from starting `argv` until it prints 'ready'."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} did not get ready: {err.strip()}")
    return elapsed


def setup_seconds(workload, seed):
    """Median set-up time of a fresh interpreter, in reference and in wall
    seconds; each set-up is followed by a reference start-up to time it by."""
    from refclock import REFERENCE_STARTUP, REFERENCE_STARTUP_S
    setup = [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"]
    pairs = [(ready_seconds(setup), ready_seconds([sys.executable, "-c",
                                                   REFERENCE_STARTUP]))
             for _ in range(SETUP_SAMPLES)]
    return (statistics.median(s / r for s, r in pairs) * REFERENCE_STARTUP_S,
            statistics.median(s for s, _ in pairs))


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op, rc, text):
        self.attempted += 1
        found = op.problems(rc, text)
        if found:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.label}: {'; '.join(found)}")


def timed_block(block, tally, spans):
    """Run one block; each op's (start, end) goes to spans.  Returns seconds."""
    total = 0.0
    for op in block:
        start = time.perf_counter()
        rc, text = op.call()
        end = time.perf_counter()
        spans.append((start, end))
        total += end - start
        tally.record(op, rc, text)
    return total


def measure(wl, seconds, tally):
    """Closed loop for `seconds` seconds: op (start, end) times per block, and
    the (start, end) of the whole loop."""
    if wl.is_mix:
        timed_block(wl.next_block(), tally, [])          # warm-up, checked
    blocks, durations = [], []
    start = time.perf_counter()
    while True:
        blocks.append([])
        durations.append(timed_block(wl.next_block(), tally, blocks[-1]))
        elapsed = time.perf_counter() - start
        if wl.is_mix:
            if elapsed >= seconds and sum(map(len, blocks)) >= wl.min_ops:
                break
        elif elapsed + statistics.median(durations) > seconds:
            break
    return blocks, (start, time.perf_counter())


def timing_metrics(blocks, loop, seconds):
    """The timings of the measured loop, with `seconds(a, b)` measuring each
    interval."""
    ops = [seconds(a, b) for block in blocks for a, b in block]
    return {
        "wall_s": statistics.median(
            sum(seconds(a, b) for a, b in block) for block in blocks),
        "ops_per_s": len(ops) / seconds(*loop),
        "latency_p50_ms": statistics.median(ops) * 1e3,
        "latency_p99_ms": percentile(ops, 99) * 1e3,
    }


def run_untraced(wl, seconds, tally):
    """End-to-end metrics, timings in reference seconds; and the timings in
    wall seconds."""
    import resource
    from refclock import RefClock
    setup = setup_seconds(wl.name, wl.seed)
    with RefClock() as clock:
        blocks, loop = measure(wl, seconds, tally)
    metrics = timing_metrics(blocks, loop, clock.seconds)
    raw = timing_metrics(blocks, loop, clock.wall)
    metrics["setup_s"], raw["setup_s"] = setup
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, {"blocks": len(blocks), "ops": sum(map(len, blocks)),
                     "setup_samples": SETUP_SAMPLES, "probe_ms": clock.probe_ms(),
                     "wall_clock": raw}


def run_traced(wl, tally, seed):
    """One untraced and one traced pass; per-layer metrics and count check."""
    from tracer import COUNT_STATS, Tracer
    n_blocks = MIX_TRACE_BLOCKS if wl.is_mix else 1
    orders = [wl.next_block() for _ in range(n_blocks)]
    if wl.is_mix:
        timed_block(wl.next_block(), tally, [])          # warm-up, checked
    untraced = [timed_block(block, tally, []) for block in orders]
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        start = time.perf_counter()
        for op_id, block in enumerate(orders):
            tracer.op = op_id
            traced.append(timed_block(block, tally, []))
        traced_total = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    covered = tracer.covered_seconds()
    metrics["unattributed.self_s"] = traced_total - covered
    metrics["trace.covered_share"] = covered / traced_total
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]

    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.jsonl"))
    counts = {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNT_STATS}
    record = os.path.join(OUT, f"counts-{wl.name}-{wl.fingerprint()[:12]}-"
                               f"{code_fingerprint()[:12]}.json")
    mismatches = []
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            previous = json.load(fh)
        mismatches = sorted(k for k in set(previous) | set(counts)
                            if previous.get(k) != counts.get(k))
    else:
        with open(record, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
    return metrics, tracer.absent, mismatches


def run_one(args):
    import numpy
    import bolext.cli  # noqa: F401  (loads every bolext module for the guard)
    import tracer
    import workloads

    nproc, cap = args.thread_cap
    print("machine " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_omp_threads": cap}), flush=True)

    absent, wrapped = tracer.check_originals()
    if wrapped:
        print("error: bindings are still wrapped: " + ", ".join(wrapped), file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        wl = workloads.setup(args.workload, args.seed, CORPUS, workdir)
        tally = Tally()
        if args.trace:
            metrics, absent, mismatches = run_traced(wl, tally, args.seed)
            info = {"absent": absent, "count_mismatches": mismatches}
        else:
            metrics, info = run_untraced(wl, args.seconds, tally)
            info["absent"] = absent
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print("failed " + problem)
    wall_clock = info.pop("wall_clock", {})
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in wall_clock.items():
        print(f"wall-clock {name} {value:.6g} {UNITS[name]}")
    if args.trace:
        units = dict(tracer.metric_names())
        for name in info["count_mismatches"]:
            print(f"failed count {name} differs from the earlier traced run")
    else:
        units = {name: UNITS[name] for name in END_TO_END}
        print(f"metric failed_ratio {tally.failed / tally.attempted:.6g} ratio")
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"metric {name} {shown} {units[name]}")
    correct = tally.failed == 0 and not (args.trace and info["count_mismatches"])
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own interpreter; one table of all metrics."""
    import workloads
    rows, ok = [], True
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode not in (0, 1) or not lines:
            print(f"[{name}] error: {proc.stderr.strip()}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    if not args.trace:
        print()
        header = ["workload"] + [f"{m} ({UNITS[m]})" for m in END_TO_END + ("failed_ratio",)]
        print(" | ".join(header))
        for name, result in rows:
            m = result["metrics"]
            cells = [f"{m[k]['value']:.4g}" for k in END_TO_END]
            cells.append(f"{result['failed'] / result['attempted']:.4g}")
            print(" | ".join([name] + cells))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="exactness-h3, classify-z2, census-21, corpus-mix or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.thread_cap = cap_threads()

    if not os.path.isfile(os.path.join(SRC, "bolext", "__init__.py")):
        print(f"error: no bolext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload != "all" and args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            workloads.setup(args.workload, args.seed, CORPUS, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
