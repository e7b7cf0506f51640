"""Spans and counters around the public calls into each ahsabr module.

Used by the traced run only.  `instrument` replaces each target function,
wherever a module of the package binds it, by a wrapper that records a span
(name, parent, start, end, raised) in memory.  A target a later refactor has
removed is reported as absent instead of failing the run.  `layer_metrics`
turns the spans into the per-layer metrics: mean self time per call, calls
per operation and the useful-over-attempted ratios.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

NAME, PARENT, START, END, ERROR, NOTE = range(6)
ROOT = -1
FIXED_POINT = "ah_engine.self_consistent_slice"
SURFACE = "ah_engine.price_self_consistent"
SOLVE = "ah_engine.solve_one_step"


class Tracer:
    """Spans of one thread, kept in memory as [name, parent, start_ns,
    end_ns, raised, note]; the parent is an index into `spans` or ROOT, and
    the note is what an observer made of the call's result."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._stack = [ROOT]

    def begin(self, name):
        self.spans.append([name, self._stack[-1], time.perf_counter_ns(), 0, False, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, raised=False):
        span = self.spans[self._stack.pop()]
        span[END] = time.perf_counter_ns()
        span[ERROR] = raised

    def call(self, name, fn, *args, observe=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.end(raised=True)
            raise
        self.end()
        if observe is not None:
            span[NOTE] = observe(result)
        return result

    def wrap(self, name, fn, observe=None):
        """fn with a span around every call made while the tracer is
        enabled; `name` may be a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            return self.call(label, fn, *args, observe=observe, **kwargs)

        return traced

    def write(self, path):
        """One JSON object per span, in start order."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, raised, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name, "start_ns": start,
                    "end_ns": end, "self_ns": selfs[i], "raised": raised,
                }) + "\n")


def _solved(vols):
    return sum(1 for v in vols if not math.isnan(v)), len(vols)


def _cli_command(argv=None, *args, **kwargs):
    return f"cli.{argv[0]}" if argv else "cli.main"


# (module, attribute, span name, observer) for every wrapped public call
TARGETS = (
    ("cli", "main", _cli_command, None),
    ("market_io", "parse_quotes", "market_io.parse_quotes", None),
    ("market_io", "assemble_quote_set", "market_io.assemble_quote_set", None),
    ("market_io", "write_report", "market_io.write_report", None),
    ("ah_engine", "build_uniform_grid", "ah_engine.build_uniform_grid", None),
    ("ah_engine", "price_self_consistent", "ah_engine.price_self_consistent", None),
    ("ah_engine", "self_consistent_slice", "ah_engine.self_consistent_slice", None),
    ("ah_engine", "solve_one_step", "ah_engine.solve_one_step", None),
    ("ah_engine", "implied_vol_curve", "ah_engine.implied_vol_curve", _solved),
    ("ah_engine", "extract_quote_set", "ah_engine.extract_quote_set", None),
    ("numerics", "thomas_solve", "numerics.thomas_solve", None),
    ("numerics", "bachelier_implied_vol", "numerics.bachelier_implied_vol", None),
    ("analytic_calib", "calibrate", "analytic_calib.calibrate", None),
    ("analytic_calib", "recalibrate", "analytic_calib.recalibrate", None),
    ("hagan_ref", "hagan_price", "hagan_ref.hagan_price", None),
)


def instrument(tracer, package="ahsabr", targets=TARGETS):
    """Wrap every target wherever a loaded module of `package` binds it.

    Returns (restore, absent): a function that puts the originals back, and
    the span names of targets that could not be found.
    """
    absent, patches = [], []
    for module, attr, name, observe in targets:
        label = name if isinstance(name, str) else f"{module}.{attr}"
        try:
            fn = getattr(importlib.import_module(f"{package}.{module}"), attr)
        except (ImportError, AttributeError):
            absent.append(label)
            continue
        if not callable(fn):
            absent.append(label)
            continue
        wrapper = tracer.wrap(name, fn, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)

    def restore():
        for mod, key, fn in reversed(patches):
            setattr(mod, key, fn)

    return restore, absent


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] != ROOT:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def roots(spans):
    """Index of the root span above each span."""
    top = []
    for i, s in enumerate(spans):
        top.append(i if s[PARENT] == ROOT else top[s[PARENT]])
    return top


# per-layer metric: (name, unit, span, statistic, scale)
#   self: mean self time per call times scale; per_op: calls per root span
LAYER_METRICS = (
    ("cli.price_ms", "ms", "cli.price", "self", 1e-6),
    ("cli.density_ms", "ms", "cli.density", "self", 1e-6),
    ("cli.calibrate_ms", "ms", "cli.calibrate", "self", 1e-6),
    ("cli.recalibrate_ms", "ms", "cli.recalibrate", "self", 1e-6),
    ("market_io.parse_quotes_us", "us", "market_io.parse_quotes", "self", 1e-3),
    ("market_io.assemble_quote_set_us", "us", "market_io.assemble_quote_set", "self", 1e-3),
    ("market_io.write_report_us", "us", "market_io.write_report", "self", 1e-3),
    ("ah_engine.build_uniform_grid_us", "us", "ah_engine.build_uniform_grid", "self", 1e-3),
    ("ah_engine.self_consistent_slice_ms", "ms", "ah_engine.self_consistent_slice", "self", 1e-6),
    ("ah_engine.fixed_point_solves", "solves", "ah_engine.self_consistent_slice", "fixed_point", 1.0),
    ("ah_engine.solves_per_surface", "ratio", "ah_engine.price_self_consistent", "useful_solves", 1.0),
    ("ah_engine.solve_one_step_us", "us", "ah_engine.solve_one_step", "self", 1e-3),
    ("ah_engine.implied_vol_curve_ms", "ms", "ah_engine.implied_vol_curve", "self", 1e-6),
    ("ah_engine.iv_solved_ratio", "ratio", "ah_engine.implied_vol_curve", "iv_solved", 1.0),
    ("ah_engine.extract_quote_set_us", "us", "ah_engine.extract_quote_set", "self", 1e-3),
    ("numerics.thomas_solve_us", "us", "numerics.thomas_solve", "self", 1e-3),
    ("numerics.thomas_calls", "calls/op", "numerics.thomas_solve", "per_op", 1.0),
    ("numerics.bachelier_implied_vol_us", "us", "numerics.bachelier_implied_vol", "self", 1e-3),
    ("numerics.bachelier_implied_vol_calls", "calls/op", "numerics.bachelier_implied_vol", "per_op", 1.0),
    ("analytic_calib.calibrate_us", "us", "analytic_calib.calibrate", "self", 1e-3),
    ("analytic_calib.recalibrate_us", "us", "analytic_calib.recalibrate", "self", 1e-3),
    ("analytic_calib.error_ratio", "ratio", "analytic_calib.calibrate", "errors", 1.0),
    ("hagan_ref.hagan_price_us", "us", "hagan_ref.hagan_price", "self", 1e-3),
    ("hagan_ref.hagan_price_calls", "calls/op", "hagan_ref.hagan_price", "per_op", 1.0),
)


def layer_metrics(tracer, absent, primary="op", fallback="module"):
    """Per-layer metrics from the spans under `primary` root spans; a layer
    those never call is measured under the `fallback` roots instead.

    Returns ({name: {"value", "unit"}}, {name: source}) where source is the
    root name used, or "absent" for a target that no longer exists.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    top = roots(spans)
    # (root name, span name) -> [calls, self_ns, raised, solves, solved, strikes]
    stats = {}
    n_roots = {}

    def entry(root_name, name):
        return stats.setdefault((root_name, name), [0, 0, 0, 0, 0, 0])

    for i, s in enumerate(spans):
        root_name = spans[top[i]][NAME]
        if s[PARENT] == ROOT:
            n_roots[root_name] = n_roots.get(root_name, 0) + 1
            continue
        e = entry(root_name, s[NAME])
        e[0] += 1
        e[1] += selfs[i]
        e[2] += s[ERROR]
        if s[NOTE] is not None:
            e[4] += s[NOTE][0]
            e[5] += s[NOTE][1]
        if s[NAME] == SOLVE:
            # credit the solve to the fixed point and the surface above it
            if spans[s[PARENT]][NAME] == FIXED_POINT:
                entry(root_name, FIXED_POINT)[3] += 1
            parent = s[PARENT]
            while parent != ROOT and spans[parent][NAME] != SURFACE:
                parent = spans[parent][PARENT]
            if parent != ROOT:
                entry(root_name, SURFACE)[3] += 1

    metrics, source = {}, {}
    for name, unit, span, statistic, scale in LAYER_METRICS:
        if span in absent or (span.startswith("cli.") and "cli.main" in absent):
            metrics[name] = {"value": 0.0, "unit": unit}
            source[name] = "absent"
            continue
        root_name = primary if (primary, span) in stats else fallback
        calls, self_ns, raised, solves, solved, strikes = stats.get(
            (root_name, span), [0] * 6
        )
        if statistic == "self":
            value = self_ns / calls * scale if calls else 0.0
        elif statistic == "per_op":
            value = calls / n_roots.get(root_name, 1)
        elif statistic == "fixed_point":
            value = solves / calls if calls else 0.0
        elif statistic == "useful_solves":
            value = calls / solves if solves else 0.0
        elif statistic == "iv_solved":
            value = solved / strikes if strikes else 0.0
        else:  # errors
            value = raised / calls if calls else 0.0
        metrics[name] = {"value": value, "unit": unit}
        source[name] = root_name if calls else "none"
    return metrics, source
