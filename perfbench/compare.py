#!/usr/bin/env python3
"""Run the benchmark over many seeds and compare two sets of runs.

    # ten seeds of every workload, appended to runs.jsonl
    python3 perfbench/compare.py run --out runs.jsonl --seeds 1-10

    # parent against change: pairs alternate which checkout runs first
    python3 perfbench/compare.py run --root ../parent --out parent.jsonl \\
        --root . --out change.jsonl --seeds 1-10

    # medians, quartiles and spread against each metric's bound
    python3 perfbench/compare.py summary runs.jsonl

    # verdict per workload and metric: improved, within bound, worse, unresolved
    python3 perfbench/compare.py diff parent.jsonl change.jsonl

The verdicts follow the rule for a small sandbox: a gain needs the change to
win at least nine tenths of the pairs (same workload and seed, ties count for
neither) and the medians to differ by more than the parent's quartile
distance; a metric whose spread exceeds its bound is unresolved unless every
change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(root=BENCH_ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(root, workload, seed, trace):
    spec = load_spec(root)
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    record = {"workload": workload, "seed": seed,
              "trace": trace, "exit": proc.returncode,
              "wall_s": time.perf_counter() - start}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def cmd_run(args):
    roots = args.root or [BENCH_ROOT]
    if len(roots) != len(args.out):
        sys.exit("give one --out per --root")
    names = [w["name"] for w in load_spec(roots[0])["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    for i, seed in enumerate(seed_range(args.seeds)):
        for workload in workloads:
            order = list(zip(roots, args.out))
            if i % 2:
                order.reverse()
            for root, out in order:
                record = run_once(root, workload, seed, args.trace)
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                result = record.get("result", {})
                print(f"{workload} seed={seed} exit={record['exit']} "
                      f"wall={record['wall_s']:.1f}s correct={result.get('correct')} "
                      f"failed={result.get('failed')}/{result.get('attempted')} "
                      f"root={root}", flush=True)


def load_runs(path, failed=None):
    """{(workload, metric): {seed: value}} and the records that failed;
    `failed` collects [failed, attempted] per workload."""
    values, bad = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            result = record.get("result")
            if result is None or not result["correct"]:
                bad.append(record)
                continue
            if failed is not None:
                tally = failed.setdefault(record["workload"], [0, 0])
                tally[0] += result["failed"]
                tally[1] += result["attempted"]
            for name, metric in result["metrics"].items():
                key = (record["workload"], name)
                values.setdefault(key, {})[record["seed"]] = metric["value"]
    return values, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs():
    spec = load_spec()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def cmd_summary(args):
    specs = metric_specs()
    failed = {}
    values, bad = load_runs(args.runs, failed)
    print(f"{'workload':12s} {'metric':38s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  steady")
    for (workload, name), by_seed in sorted(values.items()):
        vals = list(by_seed.values())
        q1, q2, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(q2) if q2 else 0.0
        bound = specs.get(name, {}).get("bound")
        steady = "-" if bound is None else ("yes" if spread < bound / 3 else "NO")
        if name == "setup_s":
            steady = "-"  # its spread is not held to the bound
        print(f"{workload:12s} {name:38s} {len(vals):3d} {q2:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} {bound if bound else '':>6}  {steady}")
    for workload, (n_failed, attempted) in sorted(failed.items()):
        print(f"{workload:12s} failed_ratio {n_failed}/{attempted} = "
              f"{n_failed / attempted:.4g}")
    for record in bad:
        print(f"not correct: {record['workload']} seed={record['seed']} "
              f"exit={record['exit']}")


def verdict(parent, change, better, bound):
    """Verdict for one workload and metric, from values keyed by seed."""
    sign = 1.0 if better == "higher" else -1.0
    pv, cv = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved"
    if bound is None:
        return "no bound"
    spread = max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm))
    all_better = all(sign * (c - p) > 0 for c in cv for p in pv)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "within bound"


def cmd_diff(args):
    specs = metric_specs()
    parent, bad_p = load_runs(args.parent)
    change, bad_c = load_runs(args.change)
    print(f"{'workload':12s} {'metric':38s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s}  verdict")
    for key in sorted(set(parent) & set(change)):
        spec = specs.get(key[1], {"better": "lower"})
        p1, pm, p3 = quartiles(list(parent[key].values()))
        c1, cm, c3 = quartiles(list(change[key].values()))
        v = verdict(parent[key], change[key], spec["better"], spec.get("bound"))
        print(f"{key[0]:12s} {key[1]:38s} {pm:12.6g} [{p1:.4g}, {p3:.4g}]"
              f"{'':4s}{cm:12.6g} [{c1:.4g}, {c3:.4g}]  {v}")
    for side, bad in (("parent", bad_p), ("change", bad_c)):
        for record in bad:
            print(f"{side} run not correct: {record['workload']} "
                  f"seed={record['seed']} exit={record['exit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run seeds and append results as JSON lines")
    run.add_argument("--root", action="append", help="checkout to run (repeatable)")
    run.add_argument("--out", action="append", required=True)
    run.add_argument("--workloads", help="comma-separated; default all")
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    summary = sub.add_parser("summary", help="quartiles of one set of runs")
    summary.add_argument("runs")
    diff = sub.add_parser("diff", help="verdicts of change against parent")
    diff.add_argument("parent")
    diff.add_argument("change")
    args = parser.parse_args(argv)
    {"run": cmd_run, "summary": cmd_summary, "diff": cmd_diff}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
