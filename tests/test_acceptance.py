"""Acceptance suite: one test per criterion, one pass/fail line per criterion.

Criteria:
  A1 exact inversion over randomized draws, < 10 s
  A2 published recalibration cases
  A3 uniform-grid equivalence of the two calibration forms
  A4 Eurodollar fixture round trip
  A5 limiting behavior of the calibration as the quote spacing shrinks
  A6 arbitrage-free surface properties over the A1 draws
  A7 numerics oracles
"""

import math
import time

import numpy as np
import pytest

import ahsabr as ah
from ahsabr.ah_engine import extract_quote_set, price_self_consistent
from ahsabr.analytic_calib import (
    calibrate,
    calibrate_uniform,
    limiting_params,
    quote_set_from_curve,
    recalibrate,
)
from ahsabr.hagan_ref import hagan_price_fn
from ahsabr.numerics import (
    bachelier_implied_vol,
    bachelier_price,
    norm_cdf,
    thomas_solve,
)

from conftest import (
    ED_EXPIRY,
    ED_FORWARD,
    ED_GRID,
    ED_PARAMS,
    HAGAN_CASES,
    HAGAN_EXPIRY,
    HAGAN_FORWARD,
    HAGAN_SOURCE,
    HAGAN_STEP,
    draw_parameters,
    inversion_setup,
    mass_setup,
)

SEED = 20260825
N_DRAWS = 200
FORWARD = 0.02


def _report(name: str, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: {status}{suffix}")
    assert not failures, (
        f"{name}: {len(failures)} failures: " + "; ".join(failures)
    )


@pytest.fixture(scope="module")
def a1_draws():
    rng = np.random.default_rng(SEED)
    return [draw_parameters(rng) for _ in range(N_DRAWS)]


def test_a1_exact_inversion(a1_draws):
    failures = []
    start = time.perf_counter()
    for i, d in enumerate(a1_draws):
        params, grid = inversion_setup(
            FORWARD, d["alpha"], d["beta"], d["rho"], d["nu"], d["T"]
        )
        surface = price_self_consistent(grid, params, d["T"])
        got = calibrate(
            extract_quote_set(surface), d["beta"], params.shift
        ).params
        if abs(got.alpha - d["alpha"]) > 1e-8 * d["alpha"]:
            failures.append(f"draw {i}: alpha {got.alpha} vs {d['alpha']}")
        if abs(got.nu - d["nu"]) > 1e-8:
            failures.append(f"draw {i}: nu {got.nu} vs {d['nu']}")
        if abs(got.rho - d["rho"]) > 1e-8:
            failures.append(f"draw {i}: rho {got.rho} vs {d['rho']}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report("A1", failures, f"{N_DRAWS} draws in {elapsed:.2f}s")


def test_a2_published_recalibrations():
    src = ah.SabrParams(**HAGAN_SOURCE)
    price = hagan_price_fn(src, HAGAN_FORWARD, HAGAN_EXPIRY)
    failures = []
    for tbeta, tshift, ealpha, erho, enu in HAGAN_CASES:
        got = recalibrate(
            price, HAGAN_FORWARD, HAGAN_EXPIRY, tbeta, tshift, HAGAN_STEP
        ).params
        case = f"beta={tbeta} shift={tshift}"
        if abs(got.alpha - ealpha) > 0.0010:
            failures.append(f"{case}: alpha {got.alpha:.4f} vs {ealpha}")
        if abs(got.rho - erho) > 0.020:
            failures.append(f"{case}: rho {got.rho:.4f} vs {erho}")
        if abs(got.nu - enu) > 0.020:
            failures.append(f"{case}: nu {got.nu:.4f} vs {enu}")
    _report("A2", failures, f"{len(HAGAN_CASES)} published cases")


def test_a3_uniform_grid_equivalence():
    rng = np.random.default_rng(SEED + 3)
    failures = []
    done = 0
    attempts = 0
    while done < 50 and attempts < 500:
        attempts += 1
        F = rng.uniform(0.005, 0.04)
        b = rng.uniform(0.02, 0.06)
        beta = float(rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]))
        params = ah.SabrParams(
            alpha=rng.uniform(0.005, 0.03), beta=beta,
            rho=rng.uniform(-0.7, 0.7), nu=rng.uniform(0.1, 1.0), shift=b,
        )
        T = rng.uniform(0.5, 10.0)
        sd = params.alpha * (F + b) ** beta * math.sqrt(T)
        h = sd * rng.uniform(0.4, 1.0)
        if F - 2.0 * h <= -b + 1e-6:
            continue
        price = hagan_price_fn(params, F, T)
        try:
            q = quote_set_from_curve(price, F, T, h)
            general = calibrate(q, beta, b).params
            uniform = calibrate_uniform(q, beta, b).params
        except ah.errors.AhSabrError:
            continue
        except ValueError:
            continue
        done += 1
        for name in ("alpha", "nu", "rho"):
            g, u = getattr(general, name), getattr(uniform, name)
            scale = max(abs(g), 1e-300)
            if abs(u - g) > 1e-15 * scale:
                failures.append(
                    f"case {done}: {name} rel diff {abs(u - g) / scale:.2e}"
                )
    if done < 50:
        failures.append(f"only {done} valid cases generated")
    _report("A3", failures, f"{done} uniform-grid cases")


def test_a4_eurodollar_round_trip(ed_surface):
    q = extract_quote_set(ed_surface)
    got = calibrate(q, ED_PARAMS["beta"], ED_PARAMS["shift"]).params
    failures = []
    if abs(got.alpha - ED_PARAMS["alpha"]) > 1e-8 * ED_PARAMS["alpha"]:
        failures.append(f"alpha {got.alpha} vs {ED_PARAMS['alpha']}")
    if abs(got.nu - ED_PARAMS["nu"]) > 1e-8:
        failures.append(f"nu {got.nu} vs {ED_PARAMS['nu']}")
    if abs(got.rho - ED_PARAMS["rho"]) > 1e-8:
        failures.append(f"rho {got.rho} vs {ED_PARAMS['rho']}")
    _report("A4", failures, "241-point Eurodollar grid")


def test_a5_limiting_convergence():
    # short maturity so the discrete calibration limit coincides with the
    # limiting formulas; the smile is the published Hagan source
    src = ah.SabrParams(**HAGAN_SOURCE)
    F, T, beta, b = FORWARD, 0.5, 0.40, 0.03
    price = hagan_price_fn(src, F, T)
    h0 = 1.25e-3

    curve = lambda k: price(k, "call")
    limit = limiting_params(curve, F, T, beta, b, h0 / 8.0).params

    levels = []
    for div in (1, 2, 4, 8):
        q = quote_set_from_curve(price, F, T, h0 / div)
        levels.append(calibrate(q, beta, b).params)

    failures = []
    for name in ("alpha", "nu", "rho"):
        gaps = [abs(getattr(p, name) - getattr(limit, name)) for p in levels]
        # once a gap falls below the limiting evaluation's own bias the
        # sequence stalls there; monotone within half the final tolerance
        slack = 0.5e-5 * abs(limit.alpha) if name == "alpha" else 0.5e-3
        if not all(gaps[i + 1] <= gaps[i] + slack for i in range(3)):
            failures.append(f"{name} gaps not monotone: {gaps}")
    # Richardson extrapolation from the two finest levels (O(h^2) error)
    for name, tol, relative in (
        ("alpha", 1e-5, True), ("nu", 1e-3, False), ("rho", 1e-3, False),
    ):
        fine = getattr(levels[3], name)
        coarse = getattr(levels[2], name)
        extrap = (4.0 * fine - coarse) / 3.0
        gap = abs(extrap - getattr(limit, name))
        if relative:
            gap /= abs(getattr(limit, name))
        if gap > tol:
            failures.append(f"{name} extrapolated gap {gap:.2e} > {tol}")
    _report("A5", failures, "steps h, h/2, h/4, h/8")


def test_a6_arbitrage_free_surface(a1_draws):
    """Density positivity, convexity, parity and unit mass over the draws.

    Known limitation: for beta = 1 with large nu*alpha*T the lower tail of
    the one-step density decays algebraically in L = log((F+b)/(k+b)), not
    in k + b: the mass per unit L falls like L^-2, so the mass beyond L is
    about A/L.  Even a grid in k + b down to the smallest normal double
    (L ~ 706) would leave 8 of the 12 failing draws short of unit mass, and
    growing the shift rescales the problem onto itself.  No grid in k + b
    holds the full unit mass for those draws, so this criterion reports them
    as failures rather than widening the tolerance.
    """
    failures = []
    for i, d in enumerate(a1_draws):
        params, grid = inversion_setup(
            FORWARD, d["alpha"], d["beta"], d["rho"], d["nu"], d["T"]
        )
        surface = price_self_consistent(grid, params, d["T"])
        if surface.density.min() < -1e-12:
            failures.append(f"draw {i}: density {surface.density.min():.2e}")
        second = np.diff(surface.calls, 2)
        if second.min() < -1e-12:
            failures.append(f"draw {i}: convexity {second.min():.2e}")
        gap = surface.calls - surface.puts - (FORWARD - grid.strikes)
        if np.max(np.abs(gap[1:-1])) > 1e-10:
            failures.append(f"draw {i}: parity {np.max(np.abs(gap)):.2e}")

        mparams, mgrid, _ = mass_setup(
            FORWARD, d["alpha"], d["beta"], d["rho"], d["nu"], d["T"]
        )
        msurface = price_self_consistent(mgrid, mparams, d["T"])
        if msurface.density.min() < -1e-12:
            failures.append(
                f"draw {i}: mass-grid density {msurface.density.min():.2e}"
            )
        mass = msurface.density_mass()
        if abs(mass - 1.0) > 1e-3:
            failures.append(
                f"draw {i}: mass {mass:.6f} "
                f"(beta={d['beta']}, nu={d['nu']:.3f}, T={d['T']:.2f})"
            )
    _report("A6", failures, f"{len(a1_draws)} draws")


def test_a7_numerics_oracles():
    failures = []

    rng = np.random.default_rng(SEED + 7)
    for n in (2, 5, 13, 27, 50):
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        diag = 2.5 + rng.uniform(0.0, 1.0, n)
        rhs = rng.uniform(-1.0, 1.0, n)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        (got,) = thomas_solve(lower, diag, upper, rhs)
        err = np.max(np.abs(got - np.linalg.solve(dense, rhs)))
        if err > 1e-12:
            failures.append(f"tridiagonal n={n}: {err:.2e}")

    for _ in range(50):
        F = 0.02
        sigma = rng.uniform(1e-3, 0.03)
        T = rng.uniform(0.25, 30.0)
        k = F + rng.uniform(-3.0, 3.0) * sigma * math.sqrt(T)
        kind = "call" if k >= F else "put"
        price = bachelier_price(F, k, sigma, T, kind)
        vol = bachelier_implied_vol(price, F, k, T, kind)
        if abs(vol - sigma) > 1e-12 * sigma:
            failures.append(f"implied vol sigma={sigma:.4f} k={k:.4f}")

    # 40-digit mpmath values, frozen
    cdf_cases = [
        (0.0, 0.5),
        (1.0, 0.84134474606854294859),
        (2.0, 0.9772498680518207928),
        (-1.5, 0.066807201268858066004),
        (-8.0, 6.2209605742717841235e-16),
    ]
    for x, expected in cdf_cases:
        err = abs(norm_cdf(x) - expected)
        if err > 1e-14 * max(expected, 1e-16):
            failures.append(f"norm_cdf({x}): err {err:.2e}")

    _report("A7", failures, "tridiagonal, Bachelier, norm_cdf")
