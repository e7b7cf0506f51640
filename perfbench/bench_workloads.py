"""Workload inputs, operations and output checks for the ahsabr benchmark.

Every workload is built from a seed alone.  The program is reached only
through the names `ahsabr/__init__.py` exports, `ahsabr.cli.main` and the
`ahsabr` console script (run here as its `ahsabr.cli:main` target, since the
benchmark runs from a source checkout).  Grid construction for the sweep
workload is the benchmark's own code.

An operation is run by `Workload.run(item)`, which is the timed call, and
judged by `Workload.check(item, result)`, which is not timed and returns
None or the name of the check that failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np

# Eurodollar (ED) fixture: the published parameters and quoting grid, in the
# percent units of the CLI config
ED_CONFIG = {
    "grid": {"lo_pct": -5.0, "hi_pct": 25.0, "count": 241},
    "market": {"forward_pct": 0.25, "expiry_years": 2.186},
    "model": {"alpha_pct": 0.2079, "beta_pct": 5.0, "rho_pct": 35.71,
              "nu_pct": 108.62, "shift_pct": 6.0},
}
PCT = 0.01
RECAL_TARGET_BETA_PCT = 60.0

# published Hagan source smile of the recalibration cases
HAGAN_SOURCE = dict(alpha=0.0217, beta=0.40, rho=-0.2378, nu=0.2612, shift=0.03)
HAGAN_FORWARD = 0.003
HAGAN_EXPIRY = 10.0

SWEEP_FORWARD = 0.02
SWEEP_BETAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

# tolerances of the acceptance criteria the checks reproduce
ROUND_TRIP_TOL = 1e-8  # A1/A4: alpha relative, nu and rho absolute
DENSITY_TOL = 1e-12  # A6 positivity and convexity
PARITY_TOL = 1e-10  # A6 put-call parity on interior nodes
MASS_TOL = 1e-3  # A6 unit mass
EQUIVALENCE_TOL = 1e-15  # A3 general against uniform-grid calibration
ATM_VOL_TOL = 1e-10  # implied vol at the forward against the slice vol

# the known lower-wing defect (ROADMAP item 1): at beta = 1 no grid the
# program can represent holds the unit mass (A6's docstring).  A miss there
# is reported as this defect, apart from the failed operations; a mass miss
# at any other beta is a failed operation.
KNOWN_DEFECT = "mass_beta1"

def latin_hypercube(rng, n, bounds):
    """n draws, one per equal-width stratum of every coordinate, so the pool
    covers each range evenly whatever the seed."""
    cols = []
    for lo, hi in bounds:
        u = (rng.permutation(n) + rng.uniform(size=n)) / n
        cols.append(lo + (hi - lo) * u)
    return np.column_stack(cols)


def round_trip_miss(got, alpha, rho, nu):
    return (
        abs(got.alpha - alpha) > ROUND_TRIP_TOL * alpha
        or abs(got.nu - nu) > ROUND_TRIP_TOL
        or abs(got.rho - rho) > ROUND_TRIP_TOL
    )


class Workload:
    """Base: `items` is the seeded pool the loop cycles through."""

    items: list

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result):
        raise NotImplementedError


# ---------------------------------------------------------------- cli_cold


def ed_params(ah):
    model = ED_CONFIG["model"]
    return ah.SabrParams(
        **{k: model[f"{k}_pct"] * PCT for k in ("alpha", "beta", "rho", "nu", "shift")}
    )


def ed_grid(ah):
    g, m = ED_CONFIG["grid"], ED_CONFIG["market"]
    return ah.build_uniform_grid(
        g["lo_pct"] * PCT, g["hi_pct"] * PCT, g["count"], m["forward_pct"] * PCT
    )


def write_ed_inputs(ah, workdir):
    """ED config and a quote CSV taken from the solved ED surface through
    extract_quote_set; returns {command: argv}."""
    import json

    os.makedirs(workdir, exist_ok=True)
    params = ed_params(ah)
    expiry = ED_CONFIG["market"]["expiry_years"]
    surface = ah.price_self_consistent(ed_grid(ah), params, expiry)
    q = ah.extract_quote_set(surface)
    F = q.forward
    k_m1 = F - q.h_minus_n
    k_p1 = F + q.h_plus_n
    rows = [
        ("put", k_m1 - q.h_minus_nm1, q.p_minus2),
        ("put", k_m1, q.p_minus1),
        ("call", F, q.atm),
        ("put", F, q.atm),
        ("call", k_p1, q.c_plus1),
        ("call", k_p1 + q.h_plus_np1, q.c_plus2),
    ]
    quotes = os.path.join(workdir, "quotes.csv")
    ah.write_quotes(quotes, [
        ah.to_price_space(ah.RateQuote("EDH3", "2021-01-04", kind, k, price))
        for kind, k, price in rows
    ])
    config = os.path.join(workdir, "ed.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(ED_CONFIG, fh)
    out = lambda name: os.path.join(workdir, name)
    return {
        "price": ["price", "--config", config, "--out", out("surface.csv")],
        "density": ["density", "--config", config, "--out", out("density.csv")],
        "calibrate": ["calibrate", "--config", config, "--quotes", quotes,
                      "--out", out("report.json")],
        "recalibrate": ["recalibrate", "--config", config,
                        "--beta", str(RECAL_TARGET_BETA_PCT),
                        "--out", out("recal.json")],
    }


def check_cli_output(ah, command, stdout, text):
    """Semantic check of the first run of each command; None when correct."""
    import json

    if command == "price":
        lines = text.splitlines()
        ok = lines[0] == "strike,call,put,density,normal_vol_bp" and len(lines) == 242
        return None if ok else "output"
    if command == "density":
        fields = dict(line.split("=", 1) for line in stdout.splitlines())
        return None if abs(float(fields["mass"]) - 1.0) <= MASS_TOL else "output"
    doc = json.loads(text)
    if command == "calibrate":
        p, want = doc["params"], ed_params(ah)
        miss = (
            abs(p["alpha"] - want.alpha) > ROUND_TRIP_TOL * want.alpha
            or abs(p["nu"] - want.nu) > ROUND_TRIP_TOL
            or abs(p["rho"] - want.rho) > ROUND_TRIP_TOL
        )
        return "round_trip" if miss else None
    ok = doc["target"]["beta"] == RECAL_TARGET_BETA_PCT * PCT and doc["smile"]
    return None if ok else "output"


class CliCold(Workload):
    """Fresh-process CLI runs of the four subcommands on the ED config."""

    def __init__(self, ah, rng, workdir, src):
        self.ah = ah
        self.argv = write_ed_inputs(ah, workdir)
        self.out_path = {name: argv[-1] for name, argv in self.argv.items()}
        # every command once, in a seeded order
        self.items = [str(c) for c in rng.permutation(list(self.argv))]
        self.env = dict(os.environ, PYTHONPATH=src)
        self.reference = {}

    def run(self, command):
        # the console script's body: ahsabr = "ahsabr.cli:main"
        return subprocess.run(
            [sys.executable, "-c",
             "import sys; from ahsabr.cli import main; sys.exit(main())",
             *self.argv[command]],
            env=self.env, capture_output=True, text=True, timeout=170,
        )

    def check(self, command, proc):
        if proc.returncode != 0:
            return "exit"
        with open(self.out_path[command], encoding="utf-8") as fh:
            output = (proc.stdout, fh.read())
        if command not in self.reference:
            failure = check_cli_output(self.ah, command, *output)
            if failure is not None:
                return failure
            self.reference[command] = output
        return None if output == self.reference[command] else "drift"


class CliInProcess(CliCold):
    """The same commands through ahsabr.cli.main(argv), for the traced run."""

    def run(self, command):
        from ahsabr.cli import main

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(self.argv[command])
        return subprocess.CompletedProcess(command, code, stdout.getvalue(), "")


# ---------------------------------------------------------------- ed_surface


class EdSurface(Workload):
    """Library pricing path: surface, implied-vol curve, quotes, calibration."""

    def __init__(self, ah, rng, n=48):
        self.ah = ah
        base = ed_params(ah)
        self.grid = ed_grid(ah)
        self.expiry = ED_CONFIG["market"]["expiry_years"]
        draws = latin_hypercube(rng, n, [
            (0.8 * base.alpha, 1.25 * base.alpha),
            (base.rho - 0.15, base.rho + 0.15),
            (0.8 * base.nu, 1.25 * base.nu),
        ])
        self.items = [
            ah.SabrParams(alpha=float(a), beta=base.beta, rho=float(r),
                          nu=float(v), shift=base.shift)
            for a, r, v in draws
        ]

    def run(self, params):
        ah = self.ah
        surface = ah.price_self_consistent(self.grid, params, self.expiry)
        vols = ah.implied_vol_curve(surface)
        got = ah.calibrate(ah.extract_quote_set(surface), params.beta, params.shift)
        return surface, vols, got.params

    def check(self, params, result):
        surface, vols, got = result
        if round_trip_miss(got, params.alpha, params.rho, params.nu):
            return "round_trip"
        atm = vols[self.grid.forward_index]
        want = surface.slice.atm_normal_vol
        if not abs(atm - want) <= ATM_VOL_TOL * want:
            return "implied_vol"
        return None


# ---------------------------------------------------------------- draw_sweep


def inversion_grid(ah, F, alpha, beta, rho, nu, T, b0=0.03, width=12.0, per_sd=2.0):
    """Uniform grid of 2*width steps of half an ATM standard deviation; the
    shift grows until the lower wing clears -shift, and where it cannot
    (beta = 1 at large alpha*sqrt(T)) the lower wing narrows instead."""
    for width_lo in np.arange(width, 4.0, -1.0):
        b = b0
        for _ in range(60):
            h = alpha * (F + b) ** beta * math.sqrt(T) / per_sd
            need = (width_lo + 1.5) * h - F
            if need <= b:
                lo, hi = F - width_lo * h, F + width * h
                count = max(int(round((hi - lo) / h)) + 1, 7)
                params = ah.SabrParams(alpha=alpha, beta=beta, rho=rho, nu=nu, shift=b)
                return params, ah.build_uniform_grid(lo, hi, count, F)
            b = need * 1.01
    raise RuntimeError("no feasible inversion grid for this draw")


def _decay_length(ah, k, F, params, T, sigma):
    theta2 = ah.local_vol(k, F, params) ** 2 * ah.kappa(k, F, sigma, T)
    return math.sqrt(0.5 * T * theta2)


def graded_grid(ah, F, params, T, sigma, inner_sds=8.0, per_sd=2.0, target=18.0,
                max_wing=600):
    """Uniform over inner_sds ATM standard deviations, then each wing steps by
    half the local decay length (growing by at most 1.35x a step) until the
    decay exponent reaches `target`.  Returns (grid, lower wing reached)."""
    b = params.shift
    s = sigma * math.sqrt(T)
    h = s / per_sd
    floor = 1e-13 * (F + b)  # below this k + shift is lost to rounding
    lo = max(F - inner_sds * s, -b + max(0.5 * h, 4.0 * floor))
    n_lo = int(math.floor((F - lo) / h))
    inner = list(F + h * np.arange(-n_lo, int(round(inner_sds * per_sd)) + 1))

    def march(k, sign, min_step, limit):
        nodes, step, exponent = [], h, 0.0
        for _ in range(max_wing):
            if limit(k):
                return nodes, False
            length = _decay_length(ah, k, F, params, T, sigma)
            step = min(max(min_step, 0.5 * length), 1.35 * step)
            if sign < 0:
                step = min(step, 0.5 * (k + b))
            k_new = k + sign * step
            if sign < 0 and not -b < k_new < k:
                return nodes, False
            k = k_new
            exponent += step / max(length, 1e-300)
            nodes.append(k)
            if exponent >= target:
                return nodes, True
        return nodes, False

    upper, _ = march(inner[-1], 1.0, h, lambda k: False)
    lower, reached = march(inner[0], -1.0, floor, lambda k: k + b <= 4.0 * floor)
    strikes = np.array(lower[::-1] + inner + upper)
    return ah.Grid(strikes=strikes, forward_index=len(lower) + n_lo), reached


def mass_grid(ah, F, alpha, beta, rho, nu, T, b0=0.03):
    """Graded grid for the unit-mass check, sized in two passes: first with
    the local-vol ATM estimate, then with the self-consistent ATM vol."""

    def at_shift(sigma_mult, target):
        b, found = b0, None
        for _ in range(40):
            params = ah.SabrParams(alpha=alpha, beta=beta, rho=rho, nu=nu, shift=b)
            sigma = sigma_mult * alpha * (F + b) ** beta
            try:
                grid, reached = graded_grid(ah, F, params, T, sigma, target=target)
            except (ValueError, ah.errors.ForwardTooCloseToBoundary):
                grid, reached = None, False
            if grid is not None:
                found = params, grid
                # at beta = 1 the span scales with the shift: growing it is futile
                if reached or beta >= 1.0:
                    break
            b *= 4.0
        if found is None:
            raise RuntimeError("no feasible mass grid for this draw")
        return found

    params, grid = at_shift(1.0, 18.0)
    surface = ah.price_self_consistent(grid, params, T)
    mult = surface.slice.atm_normal_vol / (alpha * (F + params.shift) ** beta)
    return at_shift(mult, 25.0)


class DrawSweep(Workload):
    """A1/A6 draws over the documented range: a ~25-node inversion grid with
    an exact round trip and surface checks, and a graded mass grid."""

    def __init__(self, ah, rng, n=48):
        self.ah = ah
        F = SWEEP_FORWARD
        draws = latin_hypercube(rng, n, [
            (0.001, 0.05), (-0.9, 0.9), (0.01, 1.5), (0.25, 30.0),
        ])
        betas = rng.permutation(np.resize(SWEEP_BETAS, n))
        self.items = []
        for (alpha, rho, nu, T), beta in zip(draws, betas):
            d = tuple(float(x) for x in (alpha, beta, rho, nu, T))
            self.items.append(
                (d, inversion_grid(ah, F, *d), mass_grid(ah, F, *d))
            )

    def run(self, item):
        ah = self.ah
        (alpha, beta, rho, nu, T), (params, grid), (mparams, mgrid) = item
        surface = ah.price_self_consistent(grid, params, T)
        got = ah.calibrate(ah.extract_quote_set(surface), beta, params.shift)
        msurface = ah.price_self_consistent(mgrid, mparams, T)
        return surface, got.params, msurface

    def check(self, item, result):
        (alpha, beta, rho, nu, T), _, _ = item
        surface, got, msurface = result
        if round_trip_miss(got, alpha, rho, nu):
            return "round_trip"
        if surface.density.min() < -DENSITY_TOL:
            return "positivity"
        if np.diff(surface.calls, 2).min() < -DENSITY_TOL:
            return "convexity"
        gap = surface.calls - surface.puts - (SWEEP_FORWARD - surface.grid.strikes)
        if np.max(np.abs(gap[1:-1])) > PARITY_TOL:
            return "parity"
        if abs(msurface.density_mass() - 1.0) > MASS_TOL:
            return KNOWN_DEFECT if beta == 1.0 else "mass"
        return None


# ---------------------------------------------------------------- recal_scan


class RecalScan(Workload):
    """Hagan-source recalibration over a scan of target (beta, shift, h)."""

    def __init__(self, ah, rng, n=256):
        self.ah = ah
        self.source = ah.hagan_price_fn(
            ah.SabrParams(**HAGAN_SOURCE), HAGAN_FORWARD, HAGAN_EXPIRY
        )
        draws = latin_hypercube(rng, n, [(0.0, 1.0), (0.01, 0.06), (5e-4, 2.5e-3)])
        self.items = [tuple(float(x) for x in row) for row in draws]

    def run(self, item):
        beta, b, h = item
        return self.ah.recalibrate(
            self.source, HAGAN_FORWARD, HAGAN_EXPIRY, target_beta=beta,
            target_b=b, h=h,
        ).params

    def check(self, item, got):
        # A3: the uniform-grid formula path must agree with the general one
        ah = self.ah
        beta, b, h = item
        q = ah.quote_set_from_curve(self.source, HAGAN_FORWARD, HAGAN_EXPIRY, h)
        other = ah.calibrate_uniform(q, beta, b).params
        for name in ("alpha", "nu", "rho"):
            g, u = getattr(got, name), getattr(other, name)
            if not abs(u - g) <= EQUIVALENCE_TOL * max(abs(g), 1e-300):
                return "equivalence"
        return None


WORKLOADS = ("cli_cold", "ed_surface", "draw_sweep", "recal_scan")
CLI_COMMANDS = ("price", "density", "calibrate", "recalibrate")


def module_pass(ah, workdir, src):
    """(workload, item) pairs that call into every module once: the four CLI
    commands on the ED config and the library path on the exact ED fixture."""
    cli = CliInProcess(ah, np.random.default_rng(0), workdir, src)
    lib = EdSurface(ah, np.random.default_rng(0), n=1)
    lib.items = [ed_params(ah)]
    return [(cli, command) for command in CLI_COMMANDS] + [(lib, lib.items[0])]


def prepare(name, ah, seed, workdir, src, traced=False):
    """Generate the seeded inputs of one workload."""
    rng = np.random.default_rng(seed)
    if name == "cli_cold":
        cls = CliInProcess if traced else CliCold
        return cls(ah, rng, workdir, src)
    if name == "ed_surface":
        return EdSurface(ah, rng)
    if name == "draw_sweep":
        return DrawSweep(ah, rng)
    if name == "recal_scan":
        return RecalScan(ah, rng)
    raise ValueError(f"unknown workload {name!r}")
