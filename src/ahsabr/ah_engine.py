"""One-step arbitrage-free pricing of the shifted-SABR smile.

Builds the strike grid, assembles the single-step finite-difference system,
solves it for the time value shared by calls and puts, and reads off the
discrete density and the implied normal-vol curve.  Only the forward's row
has a source, so one elimination towards it from each end gives the time
value there: the self-consistent ATM vol is a secant iteration on it, and
the surface carries it outward with the same elimination's ratios.
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
    SingularPivot,
)
from .numerics import is_scalar, one_minus_x_mills

FIXED_POINT_TOL = 1e-13  # relative change of sigma that ends the ATM fixed point
FIXED_POINT_MAX_ITER = 50  # evaluations; the secant takes 6 or 7 on ED and A1 grids


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

    Strictly decreasing in k with y(F) = 0.  Accepts scalars or arrays; a
    scalar runs on Python floats and returns a float.
    """
    b = params.shift
    if is_scalar(k):
        kb, Fb = float(k) + b, float(F) + b
        if kb <= 0.0 or Fb <= 0.0:
            raise NonpositiveShiftedStrike(
                f"smallest k + shift {min(kb, Fb)} is not positive"
            )
        # beta within 1e-12 of 1 is routed to the log branch to avoid cancellation
        if abs(1.0 - params.beta) < 1e-12:
            ratio = Fb / kb  # 0.0 only by underflow, where numpy's log is -inf
            return (math.log(ratio) if ratio > 0.0 else -math.inf) / params.alpha
        om = 1.0 - params.beta
        num, den = Fb**om - kb**om, params.alpha * om
        # alpha * om can underflow to 0.0; numpy then divides to inf or NaN
        return num / den if den > 0.0 else num * math.inf
    kb = np.asarray(k, dtype=float) + b
    if np.any(kb <= 0.0) or F + b <= 0.0:
        raise NonpositiveShiftedStrike(
            f"smallest k + shift {min(np.min(kb), F + b)} is not positive"
        )
    if abs(1.0 - params.beta) < 1e-12:
        return np.log((F + b) / kb) / params.alpha
    om = 1.0 - params.beta
    return ((F + b) ** om - kb**om) / (params.alpha * om)


def local_vol(k, F, params: SabrParams):
    """Shifted-SABR local volatility alpha * J(y(k)) * (k+b)^beta with
    J(y) = sqrt(1 - 2*rho*nu*y + nu^2*y^2)."""
    y = y_of_k(k, F, params)
    ny = params.nu * y
    j2 = 1.0 - 2.0 * params.rho * params.nu * y + ny * ny
    if is_scalar(k):
        # math.sqrt passes NaN through; J^2 >= 1 - rho^2 > 0 keeps it from
        # the negative numbers on which it would raise
        return params.alpha * math.sqrt(j2) * (float(k) + params.shift) ** params.beta
    kb = np.asarray(k, dtype=float) + params.shift
    return params.alpha * np.sqrt(j2) * kb**params.beta


def kappa(k, F, sigma, T):
    """One-step local-volatility adjustment 2*(1 - xi*Phi(-xi)/phi(xi)).

    xi = |F-k| / (sigma*sqrt(T)): in these units Bachelier prices at vol sigma
    satisfy the one-step row c - (F-k)^+ = (T/2) sigma^2 kappa c'' exactly, at
    every strike and expiry; xi in annual vols would break it for T != 1.
    Value lies in (0, 2] with kappa(F) = 2, strictly decreasing in |F-k|.
    numerics.one_minus_x_mills forms 1 - xi*M(xi) without cancellation in the
    wings; a scalar strike stays on floats at every xi.
    """
    if not sigma > 0.0:
        raise ValueError("kappa requires sigma > 0")
    s = sigma * math.sqrt(T)
    if is_scalar(k):
        d = abs(float(k) - float(F))
        # sigma sqrt(T) can underflow to 0.0; numpy then divides to inf or NaN
        return 2.0 * one_minus_x_mills(d / s if s > 0.0 else d * math.inf)
    return 2.0 * one_minus_x_mills(np.abs(np.asarray(k, dtype=float) - F) / s)


@dataclass(frozen=True)
class PriceSurface:
    """One-step time value on a grid plus the implied discrete density.

    The time value is the out-of-the-money price (the put below the forward,
    the call at and above it); calls and puts add their intrinsic to it.
    density covers interior nodes 1..N-1 only, read off the one-step rows
    there; the boundary nodes have no row.  The boundary rows absorb: tv is
    zero at the first and last two nodes, so the mass beyond each edge is the
    slope of tv over the second cell, tv_2 / (k_2 - k_1) below and
    tv_{N-3} / (k_{N-2} - k_{N-3}) above.
    """

    grid: Grid
    slice: MarketSlice
    time_value: np.ndarray
    density: np.ndarray

    @property
    def calls(self) -> np.ndarray:
        return self.time_value + np.maximum(self.grid.forward - self.grid.strikes, 0.0)

    @property
    def puts(self) -> np.ndarray:
        return self.time_value + np.maximum(self.grid.strikes - self.grid.forward, 0.0)

    def density_mass(self) -> float:
        """Midpoint-rule mass of the interior density."""
        h_minus, h_plus = self.grid.steps()
        return float(np.sum(self.density * 0.5 * (h_minus + h_plus)))


class _OneStepRows:
    """The one-step rows of a slice over interior nodes 1..N-1.  Only kappa
    depends on the ATM vol, so local_vol^2, the step products and sums and
    the forward's row n are computed once per slice."""

    def __init__(self, grid: Grid, params: SabrParams, expiry: float):
        k = grid.strikes
        if k[0] + params.shift <= 0.0:
            raise NonpositiveShiftedStrike(f"lowest strike {k[0]} violates k + shift > 0")
        self.k, self.F, self.expiry = k[1:-1], grid.forward, expiry
        self.h_minus, self.h_plus = grid.steps()
        self.hh, self.hs = self.h_plus * self.h_minus, self.h_plus + self.h_minus
        with np.errstate(all="ignore"):
            self.lv2 = local_vol(self.k, self.F, params) ** 2
        self.n = grid.forward_index - 1
        self.hp_n, self.hm_n = self.h_plus.item(self.n), self.h_minus.item(self.n)

    def at(self, sigma: float):
        """(z, lower, diag, upper, source) at ATM vol sigma, with
        z_j = T theta(k_j)^2 / (h+_j h-_j) and theta^2 = local_vol^2 * kappa.
        The first and last rows state the boundary condition c_kk = 0, which
        in the row c - (T/2) theta^2 c'' = (F - k)^+ is tv = 0: an absorbing
        boundary.  The source, at row n, is the row operator applied to the
        intrinsic's kink.  z is an array; the rows are lists and the source a
        float, which the elimination runs on at a fraction of numpy scalars'
        cost."""
        with np.errstate(all="ignore"):
            theta2 = self.lv2 * kappa(self.k, self.F, sigma, self.expiry)
            z = self.expiry * theta2 / self.hh
        # the density divides by z, so an underflow to 0 fails as an overflow
        # does; a NaN fails both comparisons
        if not (z.min() > 0.0 and z.max() < math.inf):
            raise NumericalError("one-step coefficients left the double range")
        w = z / self.hs
        lower = (-w * self.h_plus).tolist()  # multiplies value at node j-1
        diag = (1.0 + z).tolist()
        upper = (-w * self.h_minus).tolist()  # multiplies value at node j+1
        diag[0] = diag[-1] = 1.0
        upper[0] = lower[-1] = 0.0
        return z, lower, diag, upper, w.item(self.n) * self.hp_n * self.hm_n

    def eliminate(self, sigma: float):
        """(z, tv_n, f, g) at ATM vol sigma.  Eliminating towards row n from
        each end leaves tv_j = f_j tv_{j+1} below it (f from row 0 up) and
        tv_j = g_j tv_{j-1} above it (g from the last row down), so
        tv_n = s / (d_n + l_n f_{n-1} + u_n g_{n+1})."""
        z, lower, diag, upper, source = self.at(sigma)
        n = self.n
        f = _eliminate_towards(diag[:n], lower[:n], upper[:n])
        g = _eliminate_towards(diag[:n:-1], upper[:n:-1], lower[:n:-1])
        piv = diag[n] + lower[n] * f[-1] + upper[n] * g[-1]
        if abs(piv) < 1e-300:
            raise SingularPivot("zero pivot at the forward's row")
        return z, source / piv, f, g

    def atm_time_value(self, sigma: float) -> float:
        """tv_n alone, with no back substitution."""
        return self.eliminate(sigma)[1]


def _eliminate_towards(diag, outer, inner) -> list:
    """Eliminate rows without a source in turn, on Python floats;
    `outer` couples a row to the one before it and `inner` to the one after.
    Returns the ratio f of each row, in order, with v_row = f v_next."""
    ratios, f = [], 0.0
    for b, a, u in zip(diag, outer, inner):
        piv = b + a * f
        if -1e-300 < piv < 1e-300:  # abs(piv) < 1e-300 without a call, per row
            raise SingularPivot("zero pivot eliminating towards the forward's row")
        f = -u / piv
        ratios.append(f)
    return ratios


def solve_one_step(grid: Grid, slice_: MarketSlice, params: SabrParams) -> PriceSurface:
    """Price calls and puts on the grid with the one-step method
    c - (T/2) theta^2 c'' = (F - k)^+ and read the density off its rows.

    Calls and puts are their intrinsic plus one time value tv.  The intrinsic
    is linear on the grid except at its kink at the forward, so tv solves the
    one-step matrix with a single source, at the forward's row, and every
    row gives the density exactly: c''_j = 2 tv_j / (z_j h+_j h-_j).  The
    boundary rows give tv = 0 at the first and last interior nodes, and the
    end nodes, which have no row, stay at intrinsic too.  The elimination of
    the fixed point gives tv at the forward, and its ratios carry it outward
    to every other interior node.
    """
    rows = _OneStepRows(grid, params, slice_.expiry)
    z, tv_n, f, g = rows.eliminate(slice_.atm_normal_vol)
    m = rows.n + 1  # the forward's node
    tv = np.zeros(grid.size)
    tv[1:m + 1] = np.cumprod([tv_n, *f[::-1]])[::-1]
    tv[m + 1:-1] = np.cumprod([tv_n, *g[::-1]])[1:]

    density = 2.0 * tv[1:-1] / (z * rows.hh)
    # tv is zero at the first and last interior nodes, where the elimination
    # leaves it as -0.0; write +0.0 so that no density reads as -0
    density[0] = density[-1] = 0.0
    return PriceSurface(grid=grid, slice=slice_, time_value=tv, density=density)


def self_consistent_slice(grid: Grid, params: SabrParams, expiry: float) -> MarketSlice:
    """Fixed point of sigma -> implied ATM normal vol of the one-step surface,
    where the ATM price satisfies the ATM identity that the analytic
    calibration assumes.  After the local-vol guess and one plain fixed-point
    step come secant steps on g(sigma) = ATM vol - sigma, or the plain step
    where a secant one is not positive and finite.  Each evaluation reads
    tv at the forward alone (_OneStepRows.atm_time_value)."""
    # the rows reject k_0 + b <= 0 first, and k_0 < F, so the guess is real
    rows = _OneStepRows(grid, params, expiry)
    sigma = params.alpha * (grid.forward + params.shift) ** params.beta
    MarketSlice(expiry, sigma)  # rejects an expiry that is not positive
    to_vol = math.sqrt(2.0 * math.pi / expiry)
    last = None  # (sigma, g) of the evaluation before
    for _ in range(FIXED_POINT_MAX_ITER):
        vol = rows.atm_time_value(sigma) * to_vol
        if not 0.0 < vol < math.inf:
            raise ConvergenceError("ATM fixed point left the positive domain")
        g = vol - sigma
        if abs(g) <= FIXED_POINT_TOL * sigma:
            return MarketSlice(expiry, vol)
        step = vol  # the plain step, unless a secant step is positive and finite
        if last is not None and g != last[1]:
            step = sigma - g * (sigma - last[0]) / (g - last[1])
        last, sigma = (sigma, g), step if 0.0 < step < math.inf else vol
    raise ConvergenceError(
        f"ATM vol fixed point did not converge in {FIXED_POINT_MAX_ITER} evaluations"
    )


def price_self_consistent(grid, params, expiry) -> PriceSurface:
    """solve_one_step at the self-consistent ATM volatility: the fixed point
    solves nothing in full, so this is the surface's one full solve."""
    slice_ = self_consistent_slice(grid, params, expiry)
    return solve_one_step(grid, slice_, params)


def otm_vol_curve(strikes, prices, F, T) -> np.ndarray:
    """Bachelier normal vol per strike, inverted from out-of-the-money prices
    (puts below the forward F, calls at and above it).

    Strikes whose price is at or below intrinsic within tolerance, or not
    finite, are marked absent (NaN).  All other strikes off the forward are
    inverted together in one call.
    """
    k, prices = np.asarray(strikes, dtype=float), np.asarray(prices, dtype=float)
    priced = np.isfinite(prices) & (prices > 1e-16 * (1.0 + abs(F)))
    out = np.full(k.size, np.nan)
    wing = priced & (k != F)
    out[wing] = numerics.bachelier_otm_vols(prices[wing], np.abs(k[wing] - F), T)
    for n in np.flatnonzero(priced & (k == F)):
        out[n] = numerics.bachelier_implied_vol(prices[n], F, F, T)
    return out


def implied_vol_curve(surface: PriceSurface) -> np.ndarray:
    """otm_vol_curve over the grid of a solved surface."""
    grid, T = surface.grid, surface.slice.expiry
    return otm_vol_curve(grid.strikes, surface.time_value, grid.forward, T)


def extract_quote_set(surface: PriceSurface):
    """Project the five near-ATM time values and their step geometry out of
    a solved surface."""
    from .analytic_calib import QuoteSet

    grid = surface.grid
    n = grid.forward_index
    return QuoteSet(
        *surface.time_value[n - 2:n + 3].tolist(),
        *np.diff(grid.strikes[n - 2:n + 3]).tolist(),
        grid.forward, surface.slice.expiry,
    )
