"""Smoke test of the benchmark itself: tiny runs of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
the traced run's span tree is well formed, that traced counts repeat exactly
for a seed, that a removed target is reported as absent, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_trace  # noqa: E402
import compare  # noqa: E402

SPEC = compare.load_spec(ROOT)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
COUNTS = ("ah_engine.fixed_point_solves", "numerics.thomas_calls",
          "hagan_ref.hagan_price_calls", "numerics.bachelier_implied_vol_calls")

_runs = {}


def bench(workload, trace, repeat=0):
    """Output of one tiny run, cached by its arguments."""
    key = (workload, trace, repeat)
    if key not in _runs:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
               "--trace", str(trace)]
        _runs[key] = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                    text=True, timeout=300)
    return _runs[key]


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_span_tree_well_formed():
    result_of(bench("ed_surface", 1))
    path = os.path.join(ROOT, ".bench_build", "perfbench", f"spans-ed_surface-{SEED}.jsonl")
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans
    names = {s["name"] for s in spans}
    assert {"module", "op", "ah_engine.solve_one_step", "cli.price"} <= names
    for s in spans:
        assert s["end_ns"] >= s["start_ns"]
        assert s["self_ns"] >= 0, s
        if s["parent"] == bench_trace.ROOT:
            assert s["name"] in ("module", "op")
            continue
        parent = spans[s["parent"]]
        assert s["parent"] < s["id"]
        assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]


def test_traced_counts_repeat_for_a_seed():
    first = result_of(bench("ed_surface", 1))["metrics"]
    again = result_of(bench("ed_surface", 1, repeat=1))["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == again[name]["value"], name
    assert 18.0 <= first["ah_engine.fixed_point_solves"]["value"] <= 21.0


def test_removed_target_reported_absent():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ahsabr.numerics

    original = ahsabr.numerics.thomas_solve
    tracer = bench_trace.Tracer()
    targets = bench_trace.TARGETS + (
        ("numerics", "no_such_solver", "numerics.no_such_solver", None),
        ("no_such_module", "f", "no_such_module.f", None),
    )
    restore, absent = bench_trace.instrument(tracer, targets=targets)
    try:
        assert ahsabr.numerics.thomas_solve is not original
    finally:
        restore()
    assert ahsabr.numerics.thomas_solve is original
    assert absent == ["numerics.no_such_solver", "no_such_module.f"]
    _, source = bench_trace.layer_metrics(tracer, ["numerics.thomas_solve"])
    assert source["numerics.thomas_calls"] == "absent"


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "recal_scan", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_verdicts():
    parent = {s: 100.0 + s % 3 for s in range(10)}
    faster = {s: 80.0 + s % 3 for s in range(10)}
    slower = {s: 130.0 + s % 3 for s in range(10)}
    noisy = {s: 100.0 + 40.0 * (s % 2) for s in range(10)}
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, parent, "lower", 0.1) == "within bound"
    assert compare.verdict(parent, slower, "lower", 0.1) == "worse"
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1) == "worse"
