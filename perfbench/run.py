#!/usr/bin/env python3
"""Benchmark of the ahsabr pricer and five-quote calibration.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ed_surface --seed 1 --seconds 20 --trace 0

One client runs one operation after another (a closed loop) in this process,
or, for cli_cold, in one fresh `ahsabr` process per operation.  Every output
is checked.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1.  The
lines above it give sample counts and the failed checks.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# before numpy loads, here and in every child process
BLAS_THREADS = {
    name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

# fixed per workload so that runs stay comparable (see README.md)
TAIL_PERCENTILE = {"cli_cold": 75.0, "ed_surface": 90.0, "draw_sweep": 90.0,
                   "recal_scan": 90.0}
# median time of reference_kernel on the 2-core box of the baseline; every
# end-to-end time is reported at the host speed where the kernel takes this
REFERENCE_MS = 0.27
# the same for a fresh `python -c "import numpy"`, the reference of cli_cold
CHILD_REFERENCE_MS = 190.0
WARMUP_OPS = {"cli_cold": 0, "ed_surface": 2, "draw_sweep": 2, "recal_scan": 16}
SETUP_RUNS = 5
IMPORT_RUNS = 3
TRACE_MAX_OPS = 2048  # bounds the spans held in memory


def load_program():
    """Import ahsabr from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ahsabr", "__init__.py")):
        raise SystemExit(
            f"perfbench: no ahsabr sources under {SRC}; run from a checkout root"
        )
    sys.path.insert(0, SRC)
    import ahsabr

    if os.path.dirname(os.path.dirname(os.path.abspath(ahsabr.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported ahsabr from {ahsabr.__file__}")
    return ahsabr


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


def reference_kernel():
    """Fixed interpreter and small-array work that touches no ahsabr code.
    Timed next to every operation, it tracks how fast the host is running
    at that moment."""
    x = 0.0
    for i in range(1000):
        x += math.sqrt(i + 1.0) * 0.5
    a = np.arange(241.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 0.5
    return x + float(a[0])


def reference_ns():
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def child_reference_ns():
    """A fresh interpreter that imports numpy and no ahsabr code: the
    reference for fresh-process operations, whose start-up, page faults and
    file reads drift apart from the speed of in-process work."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(),
                   check=True, timeout=170)
    return time.perf_counter_ns() - start


def at_reference_speed(latency_ns, reference, nominal_ms=REFERENCE_MS):
    """Latencies in ms at the speed where the reference takes nominal_ms:
    each over the median of the five reference times measured nearest it.
    The host's speed drifts by a third over minutes, and this cancels most
    of that drift."""
    ref = np.asarray(reference, dtype=float)
    local = np.array([np.median(ref[max(0, i - 2):i + 3]) for i in range(len(ref))])
    return np.asarray(latency_ns, dtype=float) / local * nominal_ms


def setup_seconds(args):
    """Fresh process to the point where inputs are ready: `import ahsabr`
    plus input generation, timed from here until the child says so.

    Returns the time as measured and at reference speed, scaled by five
    reference times taken before the probe and five after it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe", "setup"]
    reference = [reference_ns() for _ in range(5)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit("perfbench: set-up probe failed")
    reference += [reference_ns() for _ in range(5)]
    return elapsed, elapsed * 1e6 * REFERENCE_MS / statistics.median(reference)


def import_seconds():
    """`import ahsabr` in a fresh process under -X importtime: the whole
    import, and the self time of every numpy and scipy module in it."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ahsabr"],
        env=child_env(), capture_output=True, text=True, timeout=170, check=True,
    )
    totals = {"numpy": 0, "scipy": 0, "ahsabr": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in ("numpy", "scipy"):
            totals[package] += int(self_us)
        if name.strip() == "ahsabr":
            totals["ahsabr"] = int(cumulative_us)
    return {f"import.{k}_s": v * 1e-6 for k, v in totals.items()}


def run_op(workload, item):
    """One operation: (latency ns, failed check or None)."""
    start = time.perf_counter_ns()
    try:
        result = workload.run(item)
    except Exception as exc:  # any raise is a failed operation, not a crash
        return time.perf_counter_ns() - start, f"raise:{type(exc).__name__}"
    latency = time.perf_counter_ns() - start
    try:
        return latency, workload.check(item, result)
    except Exception as exc:
        return latency, f"check:{type(exc).__name__}"


def timed_loop(workload, seconds, whole_passes=False, max_ops=math.inf,
               reference_fn=reference_ns):
    """Cycle through the pool for `seconds`, or in whole passes of at most
    max_ops operations, timing the reference before each operation.

    Returns (pool entry, latency ns, reference ns) per operation, and the
    failed checks.
    """
    items = workload.items
    timings, failures = [], []
    start = time.perf_counter()
    while True:
        n = len(timings)
        at_boundary = n % len(items) == 0 or not whole_passes
        if n and at_boundary and (time.perf_counter() - start >= seconds
                                  or n + len(items) > max_ops):
            break
        reference = reference_fn()
        latency, failure = run_op(workload, items[n % len(items)])
        timings.append((n % len(items), latency, reference))
        if failure:
            failures.append(failure)
    return timings, failures


def pass_rate(entries, ms):
    """Operations per second over one pass of the pool, each entry at its
    median latency: where the run cuts the cycle does not matter."""
    by_entry = {}
    for entry, value in zip(entries, ms):
        by_entry.setdefault(entry, []).append(value)
    return len(by_entry) / (sum(map(statistics.median, by_entry.values())) * 1e-3)


def peak_rss_mb(with_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(args, ah, workdir):
    workload = bench_workloads.prepare(args.workload, ah, args.seed, workdir, SRC)
    setups = [setup_seconds(args) for _ in range(SETUP_RUNS)]
    for item in workload.items[:WARMUP_OPS[args.workload]]:
        workload.run(item)
    if args.workload == "cli_cold":
        reference_fn, nominal_ms = child_reference_ns, CHILD_REFERENCE_MS
    else:
        reference_fn, nominal_ms = reference_ns, REFERENCE_MS
    timings, failures = timed_loop(workload, args.seconds, reference_fn=reference_fn)
    entries, latency_ns, reference = zip(*timings)
    ms = at_reference_speed(latency_ns, reference, nominal_ms)
    raw_ms = np.array(latency_ns) * 1e-6
    q = TAIL_PERCENTILE[args.workload]
    n = len(ms)
    metrics = {
        "ops_per_s": (pass_rate(entries, ms), "1/s"),
        "latency_ms.p50": (float(np.median(ms)), "ms"),
        "latency_ms.tail": (float(np.percentile(ms, q)), "ms"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (peak_rss_mb(args.workload == "cli_cold"), "MB"),
    }
    print(f"samples: {n} operations over {len(set(entries))} pool entries, "
          f"{SETUP_RUNS} set-ups; tail = p{q:g} ({int(n * (1 - q / 100))} beyond it)")
    print(f"as timed on this host: ops_per_s={pass_rate(entries, raw_ms):.6g} "
          f"latency_ms.p50={np.median(raw_ms):.6g} "
          f"setup_s={statistics.median(e for e, _ in setups):.6g}; "
          f"{reference_fn.__name__} median {np.median(reference) * 1e-6:.4g} ms "
          f"(nominal {nominal_ms} ms)")
    return metrics, n, failures


def traced(args, ah, workdir):
    """Spans around every public call into the package: first the module
    pass (bench_workloads.module_pass), which measures the layers the
    workload never calls, then whole passes over the workload's pool until
    --seconds have gone by or TRACE_MAX_OPS would be passed."""
    imports = [import_seconds() for _ in range(IMPORT_RUNS)]
    workload = bench_workloads.prepare(args.workload, ah, args.seed, workdir,
                                       SRC, traced=True)
    module = bench_workloads.module_pass(ah, os.path.join(workdir, "module"), SRC)
    for item in workload.items[:WARMUP_OPS[args.workload]]:
        workload.run(item)

    tracer = bench_trace.Tracer()
    restore, absent = bench_trace.instrument(tracer)
    tracer.enabled = False  # checks are not the program's work

    class InSpan:
        """The target's run inside a root span; its check untraced."""

        def __init__(self, root, target):
            self.root, self.target, self.items = root, target, target.items

        def run(self, item):
            tracer.enabled = True
            try:
                return tracer.call(self.root, self.target.run, item)
            finally:
                tracer.enabled = False

        def check(self, item, result):
            return self.target.check(item, result)

    try:
        module_failures = [run_op(InSpan("module", target), item)[1]
                           for target, item in module]
        timings, failures = timed_loop(InSpan("op", workload), args.seconds,
                                       whole_passes=True, max_ops=TRACE_MAX_OPS)
    finally:
        restore()
    entries, latency_ns, reference = zip(*timings)
    ops = len(timings)
    # whole passes: the share of the pool's draws with the defect
    mass_miss_ratio = failures.count(bench_workloads.KNOWN_DEFECT) / ops
    failures += [f for f in module_failures if f]

    metrics, source = bench_trace.layer_metrics(tracer, absent)
    for name in ("import.ahsabr_s", "import.numpy_s", "import.scipy_s"):
        metrics[name] = {"value": statistics.median(r[name] for r in imports),
                         "unit": "s"}
    metrics["trace.ops_per_s"] = {
        "value": pass_rate(entries, at_reference_speed(latency_ns, reference)),
        "unit": "1/s",
    }
    metrics["ah_engine.mass_miss_ratio"] = {"value": mass_miss_ratio, "unit": "ratio"}
    os.makedirs(WORK, exist_ok=True)
    spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
    tracer.write(spans)
    from_module = sorted(k for k, v in source.items() if v == "module")
    print(f"samples: {ops} operations + {len(module)} module-pass operations, "
          f"{IMPORT_RUNS} import probes; spans in {os.path.relpath(spans, ROOT)}")
    print("measured on the module pass: " + (", ".join(from_module) or "none"))
    print("absent: " + (", ".join(sorted(absent)) or "none"))
    return {k: (v["value"], v["unit"]) for k, v in metrics.items()}, \
        ops + len(module), failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    ah = load_program()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.probe == "setup":
            bench_workloads.prepare(args.workload, ah, args.seed, workdir, SRC)
            print("ready", flush=True)
            return 0
        measure = traced if args.trace else end_to_end
        metrics, attempted, failures = measure(args, ah, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    known = failures.count(bench_workloads.KNOWN_DEFECT)
    failed = [f for f in failures if f != bench_workloads.KNOWN_DEFECT]
    counts = {}
    for failure in failed:
        counts[failure] = counts.get(failure, 0) + 1
    print(f"known defect (ROADMAP item 1, unit mass at beta = 1): "
          f"{known} of {attempted} operations miss it")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"failed={len(failed)}/{attempted} "
          f"failed_ratio={len(failed) / attempted:.6g} checks={counts or 'none'}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
