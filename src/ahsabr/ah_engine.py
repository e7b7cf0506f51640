"""One-step arbitrage-free pricing of the shifted-SABR smile.

Builds the strike grid, assembles the single-step finite-difference systems
for calls and puts, solves them through the tridiagonal solver and extracts
the discrete density and the implied normal-vol curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    ConvergenceError,
    ForwardTooCloseToBoundary,
    NonpositiveShiftedStrike,
    NumericalError,
)
from .numerics import mills_ratio, thomas_solve

FIXED_POINT_TOL = 1e-13  # relative change of sigma that ends the ATM fixed point
FIXED_POINT_MAX_ITER = 200


@dataclass(frozen=True)
class SabrParams:
    """Shifted-SABR model constants: level alpha, exponent beta, correlation
    rho, vol-of-vol nu and shift b applied to rates."""

    alpha: float
    beta: float
    rho: float
    nu: float
    shift: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if not self.nu >= 0.0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")
        if not self.shift >= 0.0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")


@dataclass(frozen=True)
class MarketSlice:
    """Expiry and the ATM normal vol; the ATM price follows from the vol
    through the one-step ATM identity price = vol * sqrt(T / (2*pi))."""

    expiry: float
    atm_normal_vol: float

    def __post_init__(self):
        if not self.expiry > 0.0:
            raise ValueError("expiry must be positive")
        if not self.atm_normal_vol > 0.0:
            raise ValueError("atm_normal_vol must be positive")

    @property
    def atm_price(self) -> float:
        return self.atm_normal_vol * math.sqrt(self.expiry / (2.0 * math.pi))


@dataclass(frozen=True)
class Grid:
    """Strictly increasing strike mesh containing the forward as a node."""

    strikes: np.ndarray
    forward_index: int

    def __post_init__(self):
        strikes = np.asarray(self.strikes, dtype=float)
        object.__setattr__(self, "strikes", strikes)
        if strikes.ndim != 1 or len(strikes) < 5:
            raise ValueError("grid needs at least five strikes")
        if not np.all(np.diff(strikes) > 0.0):
            raise ValueError("strikes must be strictly increasing")
        n = self.forward_index
        if n < 2 or n > len(strikes) - 3:
            raise ForwardTooCloseToBoundary(
                "forward needs at least two grid nodes on each side"
            )

    @property
    def forward(self) -> float:
        return float(self.strikes[self.forward_index])

    @property
    def size(self) -> int:
        return len(self.strikes)

    def steps(self):
        """(h_minus, h_plus) arrays over interior nodes 1..N-1."""
        d = np.diff(self.strikes)
        return d[:-1], d[1:]


def build_uniform_grid(lo, hi, count, F) -> Grid:
    """Uniform mesh of `count` nodes on [lo, hi], translated minimally
    (by at most half a step) so the forward lies exactly on a node."""
    if not lo < F < hi:
        raise ValueError(f"need lo < F < hi, got {lo}, {F}, {hi}")
    if count < 5:
        raise ForwardTooCloseToBoundary(
            f"count {count} cannot give the forward two nodes on each side"
        )
    h = (hi - lo) / (count - 1)
    j = int(round((F - lo) / h))
    if j < 2 or j > count - 3:
        raise ForwardTooCloseToBoundary(
            f"forward {F} leaves fewer than two nodes on one side of [{lo}, {hi}]"
        )
    shift = F - (lo + j * h)
    strikes = lo + shift + h * np.arange(count)
    strikes[j] = F  # exact, not just up to roundoff
    return Grid(strikes=strikes, forward_index=j)


def y_of_k(k, F, params: SabrParams):
    """Local-volatility diffusion distance from forward to strike:
    y(k) = (1/alpha) * integral_k^F (u+b)^(-beta) du.

    Strictly decreasing in k with y(F) = 0.  Accepts scalars or arrays.
    """
    b = params.shift
    kb = np.asarray(k, dtype=float) + b
    if np.any(kb <= 0.0) or F + b <= 0.0:
        raise NonpositiveShiftedStrike(f"strike plus shift must be positive")
    # beta within 1e-12 of 1 is routed to the log branch to avoid cancellation
    if abs(1.0 - params.beta) < 1e-12:
        y = np.log((F + b) / kb) / params.alpha
    else:
        om = 1.0 - params.beta
        y = ((F + b) ** om - kb**om) / (params.alpha * om)
    return float(y) if np.ndim(k) == 0 else y


def local_vol(k, F, params: SabrParams):
    """Shifted-SABR local volatility alpha * J(y(k)) * (k+b)^beta with
    J(y) = sqrt(1 - 2*rho*nu*y + nu^2*y^2)."""
    y = y_of_k(k, F, params)
    j2 = 1.0 - 2.0 * params.rho * params.nu * y + (params.nu * y) ** 2
    kb = np.asarray(k, dtype=float) + params.shift
    out = params.alpha * np.sqrt(j2) * kb**params.beta
    return float(out) if np.ndim(k) == 0 else out


def kappa(k, F, sigma, T):
    """One-step local-volatility adjustment 2*(1 - xi*Phi(-xi)/phi(xi)).

    xi = |F-k| / (sigma*sqrt(T)): in these units Bachelier prices at vol sigma
    satisfy the one-step row c - (F-k)^+ = (T/2) sigma^2 kappa c'' exactly, at
    every strike and expiry; xi in annual vols would break it for T != 1.
    Value lies in (0, 2] with kappa(F) = 2, strictly decreasing in |F-k|.
    """
    if not sigma > 0.0:
        raise ValueError("kappa requires sigma > 0")
    s = sigma * math.sqrt(T)
    xi = np.abs(np.asarray(k, dtype=float) - F) / s
    core = 1.0 - xi * mills_ratio(xi)
    # direct evaluation cancels catastrophically for large xi; switch to the
    # Mills-ratio asymptotic series there (both branches ~1e-13 relative at 50)
    big = xi >= 50.0
    if np.any(big):
        # powers of x2 past the double range go to inf, their terms to 0
        with np.errstate(over="ignore"):
            x2 = np.square(np.where(big, xi, 1.0))
            series = (1.0 / x2) * (1.0 - 3.0 / x2 + 15.0 / x2**2 - 105.0 / x2**3 + 945.0 / x2**4)
        core = np.where(big, series, core)
    out = 2.0 * core
    return float(out) if np.ndim(k) == 0 else out


@dataclass(frozen=True)
class PriceSurface:
    """One-step call/put prices on a grid plus the implied discrete density.

    density covers interior nodes 1..N-1 only; the second difference is not
    defined at the boundary nodes.
    """

    grid: Grid
    slice: MarketSlice
    calls: np.ndarray
    puts: np.ndarray
    density: np.ndarray

    def density_mass(self) -> float:
        """Midpoint-rule mass of the interior density."""
        h_minus, h_plus = self.grid.steps()
        return float(np.sum(self.density * 0.5 * (h_minus + h_plus)))


def _assemble_z(grid: Grid, slice_: MarketSlice, params: SabrParams) -> np.ndarray:
    """z_j = T * theta(k_j)^2 / (h+_j h-_j) over interior nodes, with
    theta^2 = local_vol^2 * kappa.  Values past the double range come out as
    inf or NaN, without warnings; solve_one_step rejects them."""
    k = grid.strikes[1:-1]
    F = grid.forward
    h_minus, h_plus = grid.steps()
    with np.errstate(all="ignore"):
        theta2 = local_vol(k, F, params) ** 2 * kappa(
            k, F, slice_.atm_normal_vol, slice_.expiry
        )
        return slice_.expiry * theta2 / (h_plus * h_minus)


def solve_one_step(grid: Grid, slice_: MarketSlice, params: SabrParams) -> PriceSurface:
    """Price calls and puts on the grid with the one-step method and extract
    the discrete density from the second differences of the out-of-the-money
    side: puts below the forward, calls at and above it.

    Calls and puts share one matrix.  Its boundary conditions c_kk = 0 are
    imposed as linear extrapolation through the two adjacent nodes and
    folded into the first and last interior rows, keeping the solve strictly
    tridiagonal.
    """
    if grid.strikes[0] + params.shift <= 0.0:
        raise NonpositiveShiftedStrike(
            f"lowest strike {grid.strikes[0]} violates k + shift > 0"
        )
    F = grid.forward
    z = _assemble_z(grid, slice_, params)
    if not np.all(np.isfinite(z)):
        raise NumericalError("one-step coefficients left the double range")
    k = grid.strikes
    h_minus, h_plus = grid.steps()
    w = z / (h_plus + h_minus)
    lower = -w * h_plus  # multiplies value at node j-1
    diag = 1.0 + z
    upper = -w * h_minus  # multiplies value at node j+1
    r_lo = (k[1] - k[0]) / (k[2] - k[1])
    r_hi = (k[-1] - k[-2]) / (k[-2] - k[-3])
    # v_0 = (1+r_lo) v_1 - r_lo v_2 folded into the first interior row
    diag[0] += lower[0] * (1.0 + r_lo)
    upper[0] -= lower[0] * r_lo
    # v_N = (1+r_hi) v_{N-1} - r_hi v_{N-2} folded into the last interior row
    diag[-1] += upper[-1] * (1.0 + r_hi)
    lower[-1] -= upper[-1] * r_hi

    values = np.empty((2, grid.size))  # one row per payoff: calls, then puts
    values[:, 1:-1] = thomas_solve(
        lower[1:], diag, upper[:-1],
        np.maximum(F - k[1:-1], 0.0), np.maximum(k[1:-1] - F, 0.0),
    )
    values[:, 0] = (1.0 + r_lo) * values[:, 1] - r_lo * values[:, 2]
    values[:, -1] = (1.0 + r_hi) * values[:, -2] - r_hi * values[:, -3]
    calls, puts = values

    # below the forward the calls are deep in the money and their second
    # difference is cancellation noise on a fine grid; the puts there are not
    slopes = np.diff(values) / np.diff(k)
    second = np.diff(slopes) * 2.0 / (h_plus + h_minus)
    density = np.where(k[1:-1] < F, second[1], second[0])
    # the boundary rows force a zero second difference at the first and last
    # interior nodes; write the exact value rather than its roundoff residue
    density[0] = 0.0
    density[-1] = 0.0
    return PriceSurface(
        grid=grid, slice=slice_, calls=calls, puts=puts, density=density,
    )


def self_consistent_slice(grid: Grid, params: SabrParams, expiry: float) -> MarketSlice:
    """Fixed point of sigma -> implied ATM normal vol of the solved surface.

    At the fixed point the solved ATM price satisfies the ATM identity with
    the slice vol, which is what the analytic calibration assumes.
    """
    F = grid.forward
    sigma = params.alpha * (F + params.shift) ** params.beta
    damping = 1.0
    for it in range(FIXED_POINT_MAX_ITER):
        slice_ = MarketSlice(expiry, sigma)
        surface = solve_one_step(grid, slice_, params)
        atm = 0.5 * (surface.calls[grid.forward_index] + surface.puts[grid.forward_index])
        new_sigma = atm * math.sqrt(2.0 * math.pi / expiry)
        if new_sigma <= 0.0 or not math.isfinite(new_sigma):
            raise ConvergenceError("ATM fixed point left the positive domain")
        if abs(new_sigma - sigma) <= FIXED_POINT_TOL * sigma:
            return MarketSlice(expiry, new_sigma)
        if it > 50:
            damping = 0.5
        sigma = sigma + damping * (new_sigma - sigma)
        if not sigma > 0.0:  # a new_sigma far below sigma cancels the update
            raise ConvergenceError("ATM fixed point left the positive domain")
    raise ConvergenceError(
        f"ATM vol fixed point did not converge in {FIXED_POINT_MAX_ITER} iterations"
    )


def price_self_consistent(grid, params, expiry) -> PriceSurface:
    """solve_one_step at the self-consistent ATM volatility."""
    slice_ = self_consistent_slice(grid, params, expiry)
    return solve_one_step(grid, slice_, params)


def implied_vol_curve(surface: PriceSurface) -> np.ndarray:
    """Bachelier normal vol per strike, inverted from the OTM-side price.

    Strikes whose price is at or below intrinsic within tolerance, or not
    finite, are marked absent (NaN).  All other strikes off the forward are
    inverted together in one call.
    """
    grid = surface.grid
    F = grid.forward
    T = surface.slice.expiry
    k = grid.strikes
    prices = np.where(k < F, surface.puts, surface.calls)
    priced = np.isfinite(prices) & (prices > 1e-16 * (1.0 + abs(F)))
    out = np.full(grid.size, np.nan)
    wing = priced & (k != F)
    out[wing] = numerics.bachelier_otm_vols(prices[wing], np.abs(k[wing] - F), T)
    n = grid.forward_index
    if priced[n]:
        out[n] = numerics.bachelier_implied_vol(prices[n], F, F, T)
    return out


def extract_quote_set(surface: PriceSurface):
    """Project the five near-ATM prices and their step geometry out of a
    solved surface (put side below the forward, call side above)."""
    from .analytic_calib import QuoteSet

    grid = surface.grid
    n = grid.forward_index
    atm = 0.5 * (surface.calls[n] + surface.puts[n])
    prices = [*surface.puts[n - 2:n], atm, *surface.calls[n + 1:n + 3]]
    return QuoteSet.from_nodes(
        [float(p) for p in prices], np.diff(grid.strikes[n - 2:n + 3]).tolist(),
        grid.forward, surface.slice.expiry,
    )
