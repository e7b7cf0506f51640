"""One-step arbitrage-free pricing of the shifted-SABR smile.

Builds the strike grid, assembles the single-step finite-difference systems
for calls and puts, solves them through the tridiagonal solver and extracts
the discrete density and the implied normal-vol curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    ConvergenceError,
    ForwardTooCloseToBoundary,
    NonpositiveShiftedStrike,
)
from .numerics import TridiagonalSystem, mills_ratio, thomas_solve

KAPPA_CONVENTIONS = ("total", "annualized")


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
        if self.nu < 0.0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")
        if self.shift < 0.0:
            raise ValueError(f"shift must be nonnegative, got {self.shift}")


@dataclass(frozen=True)
class MarketSlice:
    """Forward, expiry and the ATM quote in both price and normal-vol form.

    atm_price and atm_normal_vol are linked through the one-step ATM identity
    price = vol * sqrt(T / (2*pi)); use the from_vol / from_price constructors
    so one field is always derived from the other.
    """

    forward: float
    expiry: float
    atm_normal_vol: float
    atm_price: float
    kappa_sigma: str = "total"

    def __post_init__(self):
        if self.expiry <= 0.0:
            raise ValueError("expiry must be positive")
        if self.atm_normal_vol <= 0.0:
            raise ValueError("atm_normal_vol must be positive")
        if self.kappa_sigma not in KAPPA_CONVENTIONS:
            raise ValueError(f"kappa_sigma must be one of {KAPPA_CONVENTIONS}")
        implied = self.atm_normal_vol * math.sqrt(self.expiry / (2.0 * math.pi))
        if abs(self.atm_price - implied) > 1e-12 * max(implied, 1e-300):
            raise ValueError(
                "atm_price and atm_normal_vol violate the ATM identity; "
                "use MarketSlice.from_vol or MarketSlice.from_price"
            )

    @classmethod
    def from_vol(cls, forward, expiry, atm_normal_vol, kappa_sigma="total"):
        price = atm_normal_vol * math.sqrt(expiry / (2.0 * math.pi))
        return cls(forward, expiry, atm_normal_vol, price, kappa_sigma)

    @classmethod
    def from_price(cls, forward, expiry, atm_price, kappa_sigma="total"):
        vol = atm_price * math.sqrt(2.0 * math.pi / expiry)
        return cls(forward, expiry, vol, atm_price, kappa_sigma)


@dataclass(frozen=True)
class Grid:
    """Strictly increasing strike mesh containing the forward as a node."""

    strikes: np.ndarray
    forward_index: int
    shift_applied: float = 0.0

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
    return Grid(strikes=strikes, forward_index=j, shift_applied=shift)


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


def kappa(k, F, sigma, T, convention="total"):
    """One-step local-volatility adjustment 2*(1 - xi*Phi(-xi)/phi(xi)).

    xi = |F-k| / s where s is the ATM standard deviation sigma*sqrt(T) under
    the default 'total' convention, or the annualized vol sigma under
    'annualized'.  Value lies in (0, 2] with kappa(F) = 2, strictly
    decreasing in |F-k|.
    """
    if sigma <= 0.0:
        raise ValueError("kappa requires sigma > 0")
    if convention not in KAPPA_CONVENTIONS:
        raise ValueError(f"convention must be one of {KAPPA_CONVENTIONS}")
    s = sigma * math.sqrt(T) if convention == "total" else sigma
    xi = np.abs(np.asarray(k, dtype=float) - F) / s
    core = 1.0 - xi * mills_ratio(xi)
    # direct evaluation cancels catastrophically for large xi; switch to the
    # Mills-ratio asymptotic series there (both branches ~1e-13 relative at 50)
    big = xi >= 50.0
    if np.any(big):
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
    params: SabrParams
    calls: np.ndarray
    puts: np.ndarray
    density: np.ndarray
    z: np.ndarray = field(repr=False, default=None)

    def density_mass(self) -> float:
        """Midpoint-rule mass of the interior density."""
        h_minus, h_plus = self.grid.steps()
        return float(np.sum(self.density * 0.5 * (h_minus + h_plus)))


def _assemble_z(grid: Grid, slice_: MarketSlice, params: SabrParams) -> np.ndarray:
    """z_j = T * theta(k_j)^2 / (h+_j h-_j) over interior nodes, with
    theta^2 = local_vol^2 * kappa."""
    k = grid.strikes[1:-1]
    F = grid.forward
    theta2 = local_vol(k, F, params) ** 2 * kappa(
        k, F, slice_.atm_normal_vol, slice_.expiry, slice_.kappa_sigma
    )
    h_minus, h_plus = grid.steps()
    return slice_.expiry * theta2 / (h_plus * h_minus)


def solve_one_step(grid: Grid, slice_: MarketSlice, params: SabrParams) -> PriceSurface:
    """Price calls and puts on the grid with the one-step method and extract
    the discrete density from the call second differences.

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
    if abs(F - slice_.forward) > 1e-12 * (1.0 + abs(F)):
        raise ValueError("grid forward node and slice forward disagree")
    z = _assemble_z(grid, slice_, params)
    k = grid.strikes
    h_minus, h_plus = grid.steps()
    w = z / (h_plus + h_minus)
    lower = -w * h_plus  # multiplies value at node j-1
    diag = 1.0 + z
    upper = -w * h_minus  # multiplies value at node j+1
    r_lo = (k[1] - k[0]) / (k[2] - k[1])
    r_hi = (k[-1] - k[-2]) / (k[-2] - k[-3])
    # v_0 = (1+r_lo) v_1 - r_lo v_2 folded into the first interior row
    d = diag.copy()
    d[0] = diag[0] + lower[0] * (1.0 + r_lo)
    up = upper[:-1].copy()
    up[0] = upper[0] - lower[0] * r_lo
    # v_N = (1+r_hi) v_{N-1} - r_hi v_{N-2} folded into the last interior row
    d[-1] = diag[-1] + upper[-1] * (1.0 + r_hi)
    lo = lower[1:].copy()
    lo[-1] = lower[-1] - upper[-1] * r_hi

    calls, puts = np.empty(grid.size), np.empty(grid.size)
    for out, payoff in ((calls, np.maximum(F - k, 0.0)),
                        (puts, np.maximum(k - F, 0.0))):
        interior = thomas_solve(
            TridiagonalSystem(lower=lo, diag=d, upper=up, rhs=payoff[1:-1])
        )
        out[1:-1] = interior
        out[0] = (1.0 + r_lo) * interior[0] - r_lo * interior[1]
        out[-1] = (1.0 + r_hi) * interior[-1] - r_hi * interior[-2]

    density = (
        (calls[2:] - calls[1:-1]) / h_plus - (calls[1:-1] - calls[:-2]) / h_minus
    ) * 2.0 / (h_plus + h_minus)
    # the boundary rows force a zero second difference at the first and last
    # interior nodes; write the exact value rather than its roundoff residue
    density[0] = 0.0
    density[-1] = 0.0
    return PriceSurface(
        grid=grid, slice=slice_, params=params, calls=calls, puts=puts,
        density=density, z=z,
    )


def self_consistent_slice(
    grid: Grid,
    params: SabrParams,
    expiry: float,
    kappa_sigma: str = "total",
    tol: float = 1e-13,
    max_iter: int = 200,
) -> MarketSlice:
    """Fixed point of sigma -> implied ATM normal vol of the solved surface.

    At the fixed point the solved ATM price satisfies the ATM identity with
    the slice vol, which is what the analytic calibration assumes.
    """
    F = grid.forward
    sigma = params.alpha * (F + params.shift) ** params.beta
    damping = 1.0
    for it in range(max_iter):
        slice_ = MarketSlice.from_vol(F, expiry, sigma, kappa_sigma)
        surface = solve_one_step(grid, slice_, params)
        atm = 0.5 * (surface.calls[grid.forward_index] + surface.puts[grid.forward_index])
        new_sigma = atm * math.sqrt(2.0 * math.pi / expiry)
        if new_sigma <= 0.0 or not math.isfinite(new_sigma):
            raise ConvergenceError("ATM fixed point left the positive domain")
        if abs(new_sigma - sigma) <= tol * sigma:
            return MarketSlice.from_vol(F, expiry, new_sigma, kappa_sigma)
        if it > 50:
            damping = 0.5
        sigma = sigma + damping * (new_sigma - sigma)
    raise ConvergenceError(
        f"ATM vol fixed point did not converge in {max_iter} iterations"
    )


def price_self_consistent(grid, params, expiry, kappa_sigma="total") -> PriceSurface:
    """solve_one_step at the self-consistent ATM volatility."""
    slice_ = self_consistent_slice(grid, params, expiry, kappa_sigma)
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
    k = grid.strikes
    atm = 0.5 * (surface.calls[n] + surface.puts[n])
    return QuoteSet(
        p_minus2=float(surface.puts[n - 2]),
        p_minus1=float(surface.puts[n - 1]),
        atm=float(atm),
        c_plus1=float(surface.calls[n + 1]),
        c_plus2=float(surface.calls[n + 2]),
        h_minus_nm1=float(k[n - 1] - k[n - 2]),
        h_plus_nm1=float(k[n] - k[n - 1]),
        h_minus_n=float(k[n] - k[n - 1]),
        h_plus_n=float(k[n + 1] - k[n]),
        h_minus_np1=float(k[n + 1] - k[n]),
        h_plus_np1=float(k[n + 2] - k[n + 1]),
        forward=grid.forward,
        expiry=surface.slice.expiry,
        kappa_sigma=surface.slice.kappa_sigma,
    )
