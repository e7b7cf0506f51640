"""One-step arbitrage-free pricing of the shifted-SABR smile.

Builds the strike grid, assembles the single-step finite-difference system,
solves it for the time value shared by calls and puts, and reads off the
discrete density and the implied normal-vol curve.  Only the forward's row
has a source, so one pivot sweep towards it from each end gives the time
value there: the self-consistent ATM vol is a secant iteration on it, and
the surface carries it outward with the ratios of the same pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    ConvergenceError,
    ForwardTooCloseToBoundary,
    NonpositiveShiftedStrike,
    NumericalError,
    SingularPivot,
)
from .numerics import (_A_ONE, _A_TWO, atm_normal_vol, bachelier_otm_vols,
                       is_scalar, one_minus_x_mills, one_minus_x_mills_1d)

FIXED_POINT_TOL = 1e-13  # relative change of sigma that ends the ATM fixed point
FIXED_POINT_MAX_ITER = 50  # evaluations: 6 on ED, 4 to 6 on A1 grids; the surface adds none


@dataclass(frozen=True, init=False)
class SabrParams:
    """Shifted-SABR model constants: level alpha, exponent beta, correlation
    rho, vol-of-vol nu and shift b applied to rates, checked when built."""

    alpha: float
    beta: float
    rho: float
    nu: float
    shift: float = 0.0

    def __init__(self, alpha, beta, rho, nu, shift=0.0):
        if not alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta}")
        if not abs(rho) < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {rho}")
        if not nu >= 0.0:
            raise ValueError(f"nu must be nonnegative, got {nu}")
        if not shift >= 0.0:
            raise ValueError(f"shift must be nonnegative, got {shift}")
        # frozen: the fields are written once, in one call past __setattr__
        self.__dict__.update(alpha=alpha, beta=beta, rho=rho, nu=nu, shift=shift)


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing strike mesh containing the forward as a node.
    strikes is a read-only copy of the input, so the one-step geometry, which
    the grid computes once, cannot go stale.  A grid, like a surface, equals
    and hashes as itself only: its fields are arrays."""

    strikes: np.ndarray
    forward_index: int

    def __post_init__(self):
        strikes = np.array(self.strikes, dtype=float)
        strikes.flags.writeable = False
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

    @cached_property
    def row_geometry(self) -> tuple:
        """The part of the one-step rows (_OneStepRows) that depends on the
        grid alone, computed on first use and read-only: the interior strikes
        k, h+ h-, the couplings lo and up, the products c_left and c_right
        that the pivot sweeps subtract, the forward's row n, its source and
        the distances |k - F|.  The first and last rows absorb: no outer
        coupling.  A sweep subtracts c_j / p_{j-1} from row j's diagonal:
        c_j is lo_j up_{j-1} up to row n, up_j lo_{j+1} from the last row down."""
        h_minus, h_plus = self.steps()
        hh, hs = h_plus * h_minus, h_plus + h_minus
        lo, up = h_plus / hs, h_minus / hs
        up[0] = lo[-1] = 0.0
        n = self.forward_index - 1
        c_left = (0.0, *(lo[1:n + 1] * up[:n]).tolist())
        c_right = (0.0, *(up[-2:n - 1:-1] * lo[:n:-1]).tolist())
        distance = np.abs(self.strikes[1:-1] - self.forward)
        for a in (hh, lo, up, distance):
            a.flags.writeable = False
        return (self.strikes[1:-1], hh, lo, up, c_left, c_right, n,
                hh.item(n) / hs.item(n), distance)


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
    if is_scalar(k):
        return _y(float(k), float(F), params.alpha, params.beta, params.shift)
    return _y_at(_shifted(k, F, params.shift), F + params.shift, params)


def _shifted(k, F, b) -> np.ndarray:
    """k + b as a float array, checked with F + b to be positive."""
    kb = np.asarray(k, dtype=float) + b
    if np.any(kb <= 0.0) or F + b <= 0.0:
        raise NonpositiveShiftedStrike(
            f"smallest k + shift {min(np.min(kb), F + b)} is not positive"
        )
    return kb


def _y(k: float, F: float, alpha: float, beta: float, b: float) -> float:
    """y_of_k's scalar form on Python floats; calibrate reads it at the two
    neighbours without building a SabrParams, and local_vol's scalar path
    calls it directly."""
    kb, Fb = k + b, F + b
    if kb <= 0.0 or Fb <= 0.0:
        raise NonpositiveShiftedStrike(
            f"smallest k + shift {min(kb, Fb)} is not positive"
        )
    # beta within 1e-12 of 1 is routed to the log branch to avoid cancellation
    if abs(1.0 - beta) < 1e-12:
        ratio = Fb / kb  # 0.0 only by underflow, where numpy's log is -inf
        return (math.log(ratio) if ratio > 0.0 else -math.inf) / alpha
    om = 1.0 - beta
    num, den = Fb**om - kb**om, alpha * om
    # alpha * om can underflow to 0.0; numpy then divides to inf or NaN
    return num / den if den > 0.0 else num * math.inf


def _y_at(kb: np.ndarray, Fb: float, params: SabrParams) -> np.ndarray:
    """y_of_k's array form at kb = k + b and Fb = F + b, unchecked."""
    if abs(1.0 - params.beta) < 1e-12:
        return np.log(Fb / kb) / params.alpha
    om = 1.0 - params.beta
    return (Fb**om - kb**om) / (params.alpha * om)


def local_vol(k, F, params: SabrParams):
    """Shifted-SABR local volatility alpha * J(y(k)) * (k+b)^beta with
    J(y) = sqrt(1 - 2*rho*nu*y + nu^2*y^2)."""
    if is_scalar(k):
        k, b = float(k), params.shift
        y = _y(k, float(F), params.alpha, params.beta, b)
        # math.sqrt passes NaN through; J^2 >= 1 - rho^2 > 0 keeps it from
        # the negative numbers on which it would raise
        j2 = _j_squared(y, params)
        return params.alpha * math.sqrt(j2) * (k + b) ** params.beta
    kb = _shifted(k, F, params.shift)
    return _local_vol_at(kb, _y_at(kb, F + params.shift, params), params)


def _local_vol_at(kb: np.ndarray, y: np.ndarray, params: SabrParams) -> np.ndarray:
    """local_vol's array form at kb = k + b and y = y(k), unchecked: the
    one-step rows call it, and _y_at, on their grid's strikes."""
    return params.alpha * np.sqrt(_j_squared(y, params)) * kb**params.beta


def _j_squared(y, params: SabrParams):
    """J(y)^2 = 1 - 2*rho*nu*y + nu^2*y^2 at a float or an array."""
    ny = params.nu * y
    return 1.0 - 2.0 * params.rho * params.nu * y + ny * ny


def kappa(k, F, sigma, T):
    """One-step local-volatility adjustment 2*(1 - xi*Phi(-xi)/phi(xi)).

    xi = |F-k| / (sigma*sqrt(T)): in these units Bachelier prices at vol sigma
    satisfy the one-step row c - (F-k)^+ = (T/2) sigma^2 kappa c'' exactly, at
    every strike and expiry; xi in annual vols would break it for T != 1.
    Value lies in (0, 2] with kappa(F) = 2, strictly decreasing in |F-k|.
    numerics.one_minus_x_mills forms 1 - xi*M(xi) without cancellation in the
    wings; a scalar strike stays on floats at every xi.
    """
    s = _kappa_scale(sigma, T)
    if is_scalar(k):
        return _kappa_scalar(float(k), float(F), s)
    k = np.asarray(k, dtype=float)
    return _kappa_at(np.abs(k.ravel() - F), s).reshape(k.shape)


def _kappa_scale(sigma: float, T: float) -> float:
    """s = sigma sqrt(T), the unit of kappa's xi, for a positive sigma."""
    if not sigma > 0.0:
        raise ValueError("kappa requires sigma > 0")
    return sigma * math.sqrt(T)


def _kappa_scalar(k: float, F: float, s: float) -> float:
    """kappa's scalar form on Python floats at s = _kappa_scale(sigma, T):
    calibrate takes both neighbours' kappas from one s."""
    d = abs(k - F)
    # sigma sqrt(T) can underflow to 0.0; numpy then divides to inf or NaN
    return 2.0 * one_minus_x_mills(d / s if s > 0.0 else d * math.inf)


def _kappa_at(distance: np.ndarray, s: float) -> np.ndarray:
    """kappa at a 1-d array of distances |k - F|, s = sigma sqrt(T): the array
    form, which the one-step rows call on their grid's distances."""
    return _A_TWO * one_minus_x_mills_1d(distance / s)


@dataclass(frozen=True, eq=False)
class PriceSurface:
    """One-step time value on a grid plus the implied discrete density.

    The time value is the out-of-the-money price (the put below the forward,
    the call at and above it); calls and puts add their intrinsic to it.
    density covers interior nodes 1..N-1 only, read off the one-step rows
    there; the boundary nodes have no row.  The boundary rows absorb: tv is
    zero at the first and last two nodes.
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

    def edge_masses(self) -> tuple:
        """(below, above): the mass beyond each edge, the slope of tv over
        the second cell, tv_2 / (k_2 - k_1) and tv_{N-3} / (k_{N-2} - k_{N-3})."""
        tv, k = self.time_value, self.grid.strikes
        return float(tv[2] / (k[2] - k[1])), float(tv[-3] / (k[-2] - k[-3]))


class _OneStepRows:
    """The one-step rows of a slice over interior nodes 1..N-1, each divided
    by its z_j = T theta(k_j)^2 / (h+_j h-_j), with theta^2 = local_vol^2 kappa.
    Row j reads (1 + r_j) tv_j - lo_j tv_{j-1} - up_j tv_{j+1} = s_j, with
    r = 1/z, lo_j = h+_j / (h+_j + h-_j), up_j = h-_j / (h+_j + h-_j) and the
    source s = h+_n h-_n / (h+_n + h-_n) at the forward's row n alone.  The
    first and last rows state the boundary condition c_kk = 0, which in the
    row c - (T/2) theta^2 c'' = (F - k)^+ is tv = 0 (an absorbing boundary):
    their outer couplings are zero.  The couplings and the source depend on
    the grid alone and come from Grid.row_geometry, computed once per grid.
    Only r depends on the ATM vol, as a / kappa with
    a = h+ h- / (T local_vol^2), so a is the one array built per set of rows.
    They keep no result and die with the fixed point.  Their callers hold
    one np.errstate(all="ignore") around the build and every evaluation:
    diagonal's range check, not a warning, catches z."""

    def __init__(self, grid: Grid, params: SabrParams, expiry: float):
        if grid.strikes[0] + params.shift <= 0.0:
            raise NonpositiveShiftedStrike(
                f"lowest strike {grid.strikes[0]} violates k + shift > 0"
            )
        if not expiry > 0.0:
            raise ValueError("expiry must be positive")
        (k, hh, _, _, self.c_left, self.c_right,
         self.n, self.source, self.distance) = grid.row_geometry
        self.expiry = expiry
        # k_0 + b > 0 and increasing strikes give k + b, F + b > 0: rounding is monotone
        kb = k + params.shift
        lv = _local_vol_at(kb, _y_at(kb, grid.forward + params.shift, params), params)
        self.a = hh / (expiry * lv**2)

    def diagonal(self, sigma: float):
        """(r, 1 + r) at ATM vol sigma, as arrays."""
        r = self.a / _kappa_at(self.distance, sigma * math.sqrt(self.expiry))
        # the density multiplies by r, so z past the double range fails at
        # either end, as r = 0 or inf; a NaN fails both comparisons
        if not (r.min() > 0.0 and r.max() < math.inf):
            raise NumericalError("one-step coefficients left the double range")
        return r, _A_ONE + r

    def eliminate(self, sigma: float):
        """(r, tv_n, p, q) at ATM vol sigma.  Eliminating towards row n from
        each end leaves tv_j = (up_j / p_j) tv_{j+1} below it, with pivots p
        from row 0 up, and tv_j = (lo_j / q_j) tv_{j-1} above it, with pivots
        q from the last row down; row n then gives tv_n.  r is read-only: the
        slice keeps it and the surface's density reads it."""
        r, d = self.diagonal(sigma)
        d, n = d.tolist(), self.n
        p = _pivots(d[:n], self.c_left)
        q = _pivots(d[:n:-1], self.c_right)
        piv = d[n] - self.c_left[-1] / p[-1] - self.c_right[-1] / q[-1]
        if abs(piv) < 1e-300:
            raise SingularPivot("zero pivot at the forward's row")
        r.flags.writeable = False
        return r, self.source / piv, p, q


def _pivots(diag, coupling) -> list:
    """Pivots p_j = diag_j - coupling_j / p_{j-1} of rows without a source,
    eliminated in turn on Python floats; coupling_0 is 0."""
    pivots, p = [], 1.0
    for d, c in zip(diag, coupling):
        p = d - c / p
        if -1e-300 < p < 1e-300:  # abs(p) < 1e-300 without a call, per row
            raise SingularPivot("zero pivot eliminating towards the forward's row")
        pivots.append(p)
    return pivots


@dataclass(frozen=True, eq=False)
class MarketSlice:
    """A grid and expiry at one ATM normal vol, which fixes the ATM price by
    the ATM identity price = vol * sqrt(T / (2*pi)) (numerics.atm_normal_vol),
    and the elimination of the one-step rows there, (r, tv_n, p, q): plain
    data.  self_consistent_slice returns the fixed point's last evaluation,
    and at_vol the rows eliminated at a vol the caller gives.
    evaluations counts the eliminations that made it, 1 for at_vol.  A slice,
    like a grid, equals and hashes as itself only."""

    grid: Grid
    expiry: float
    atm_normal_vol: float
    elimination: tuple
    evaluations: int

    @property
    def residual(self) -> float:
        """|ATM(sigma) - sigma| / sigma at sigma = atm_normal_vol, ATM(sigma)
        the ATM vol of the slice's tv_n: the fixed point's final relative
        residual, which ends it at FIXED_POINT_TOL or below."""
        sigma = self.atm_normal_vol
        return abs(atm_normal_vol(self.elimination[1], self.expiry) - sigma) / sigma

    @classmethod
    def at_vol(cls, grid: Grid, params: SabrParams, expiry: float,
               atm_normal_vol: float) -> MarketSlice:
        """The rows built and eliminated at the given ATM normal vol."""
        with np.errstate(all="ignore"):
            rows = _OneStepRows(grid, params, expiry)
            if not atm_normal_vol > 0.0:
                raise ValueError("atm_normal_vol must be positive")
            return cls(grid, expiry, atm_normal_vol, rows.eliminate(atm_normal_vol), 1)


def solve_one_step(slice_: MarketSlice) -> PriceSurface:
    """Price calls and puts on the slice's grid with the one-step method
    c - (T/2) theta^2 c'' = (F - k)^+ and read the density off its rows.

    Calls and puts are their intrinsic plus one time value tv.  The intrinsic
    is linear on the grid except at its kink at the forward, so tv solves the
    one-step matrix with a single source, at the forward's row, and every
    row gives the density exactly: c''_j = 2 tv_j r_j / (h+_j h-_j).  The
    boundary rows give tv = 0 at the first and last interior nodes, and the
    end nodes, which have no row, stay at intrinsic too.  The slice's
    elimination gives tv at the forward, and the ratios of the grid's couplings
    to its pivots carry it outward to every node: nothing is eliminated again.
    """
    grid = slice_.grid
    _, hh, lo, up, _, _, n, _, _ = grid.row_geometry
    r, tv_n, p, q = slice_.elimination
    tv = np.zeros(grid.size)
    tv[n + 1] = tv_n
    np.divide(up[:n], p, out=tv[1:n + 1])
    np.divide(lo[n + 1:], q[::-1], out=tv[n + 2:-1])
    for side in (tv[n + 1:0:-1], tv[n + 1:-1]):  # the ratios' products outward
        np.cumprod(side, out=side)
    density = _A_TWO * tv[1:-1] * r / hh
    return PriceSurface(grid=grid, slice=slice_, time_value=tv, density=density)


def self_consistent_slice(grid: Grid, params: SabrParams, expiry: float) -> MarketSlice:
    """Fixed point of sigma -> implied ATM normal vol of the one-step surface,
    where the ATM price satisfies the ATM identity that the analytic
    calibration assumes.  After the local-vol guess and one plain fixed-point
    step come secant steps on the vol ratio G(sigma) = 1 - sigma / ATM vol,
    which take fewer evaluations than steps on ATM vol - sigma, or the plain
    step where a secant one is not positive and finite.  The rows are built
    once, and each evaluation (_OneStepRows.eliminate) reads tv at the forward
    alone.  The slice is the last evaluation, whose residual
    |ATM vol - sigma| <= FIXED_POINT_TOL sigma the loop checked: its sigma and
    elimination, which solve_one_step carries outward, and its evaluations."""
    with np.errstate(all="ignore"):
        # the rows reject k_0 + b <= 0 and an expiry that is not positive first,
        # and k_0 < F, so the guess is real
        rows = _OneStepRows(grid, params, expiry)
        sigma = params.alpha * (grid.forward + params.shift) ** params.beta
        last = None  # (sigma, G) of the evaluation before
        for evaluations in range(1, FIXED_POINT_MAX_ITER + 1):
            elimination = rows.eliminate(sigma)
            vol = atm_normal_vol(elimination[1], expiry)
            if not 0.0 < vol < math.inf:
                raise ConvergenceError("ATM fixed point left the positive domain")
            if abs(vol - sigma) <= FIXED_POINT_TOL * sigma:
                return MarketSlice(grid, expiry, sigma, elimination, evaluations)
            g = 1.0 - sigma / vol
            step = vol  # the plain step, unless a secant step is positive and finite
            if last is not None and g != last[1]:
                step = sigma - g * (sigma - last[0]) / (g - last[1])
            last, sigma = (sigma, g), step if 0.0 < step < math.inf else vol
        raise ConvergenceError(
            f"ATM vol fixed point did not converge in {FIXED_POINT_MAX_ITER} evaluations"
        )


def price_self_consistent(grid, params, expiry) -> PriceSurface:
    """solve_one_step at the self-consistent ATM volatility: the surface
    carries the fixed point's last evaluation outward, so the rows are built
    once and nothing is eliminated again."""
    return solve_one_step(self_consistent_slice(grid, params, expiry))


def otm_vol_curve(strikes, prices, F, T) -> np.ndarray:
    """Bachelier normal vol per strike, inverted from out-of-the-money prices
    (puts below the forward F, calls at and above it).

    Strikes whose price is at or below intrinsic within tolerance, or not
    finite, are marked absent (NaN).  All other strikes off the forward are
    inverted together in one call, and the forward reads the ATM identity.
    """
    k, prices = np.asarray(strikes, dtype=float), np.asarray(prices, dtype=float)
    priced = np.isfinite(prices) & (prices > 1e-16 * (1.0 + abs(F)))
    out = np.full(k.size, np.nan)
    wing = priced & (k != F)
    out[wing] = bachelier_otm_vols(prices[wing], np.abs(k[wing] - F), T)
    atm = priced & (k == F)
    out[atm] = atm_normal_vol(prices[atm], T)
    return out


def implied_vol_curve(surface: PriceSurface) -> np.ndarray:
    """otm_vol_curve over the grid of a solved surface."""
    grid, T = surface.grid, surface.slice.expiry
    return otm_vol_curve(grid.strikes, surface.time_value, grid.forward, T)


@dataclass
class QuoteSet:
    """The five near-ATM option prices plus their grid geometry.

    Put prices below the forward, call prices above.  The four gaps between
    the nodes k_{n-2} .. k_{n+2} are stored once, left to right.  The
    paper labels steps per node (h-_j, h+_j), which names each inner gap
    twice: h+_{n-1} is `h_minus_n` and h-_{n+1} is `h_plus_n`.  A plain
    record, unhashable: its values are checked when it is built, so change
    one through dataclasses.replace, which checks the new set.
    """

    p_minus2: float
    p_minus1: float
    atm: float
    c_plus1: float
    c_plus2: float
    h_minus_nm1: float
    h_minus_n: float
    h_plus_n: float
    h_plus_np1: float
    forward: float
    expiry: float

    def __post_init__(self):
        values = (self.p_minus2, self.p_minus1, self.atm, self.c_plus1,
                  self.c_plus2, self.h_minus_nm1, self.h_minus_n,
                  self.h_plus_n, self.h_plus_np1, self.expiry)
        for value in values:
            if not 0.0 < value < math.inf:
                # index finds this value's own field: an earlier field equal
                # to it, or holding the same NaN object, would have failed first
                name = (
                    "p_minus2", "p_minus1", "atm", "c_plus1", "c_plus2",
                    "h_minus_nm1", "h_minus_n", "h_plus_n", "h_plus_np1", "expiry",
                )[values.index(value)]
                raise ValueError(f"{name} must be positive and finite")
        if not abs(self.forward) < math.inf:
            raise ValueError(f"forward must be finite, got {self.forward}")

    @property
    def sigma_atm(self) -> float:
        """ATM normal vol implied by the ATM identity price = vol*sqrt(T/2pi)."""
        return atm_normal_vol(self.atm, self.expiry)

    @property
    def p_plus1(self) -> float:
        """ITM put at k_{n+1}, synthesized from the quoted call by parity."""
        return self.c_plus1 + self.h_plus_n


@dataclass
class CalibDiagnostics:
    """The z, y and kappa the inversion read at k_{n-1} (minus) and k_{n+1}
    (plus), and the ATM normal vol sigma_atm that kappa was taken at."""

    z_minus: float
    z_plus: float
    y_minus: float
    y_plus: float
    kappa_minus: float
    kappa_plus: float
    sigma_atm: float


def extract_quote_set(surface: PriceSurface) -> QuoteSet:
    """Project the five near-ATM time values and their step geometry out of
    a solved surface."""
    grid = surface.grid
    n = grid.forward_index
    return QuoteSet(
        *surface.time_value[n - 2:n + 3].tolist(),
        *np.diff(grid.strikes[n - 2:n + 3]).tolist(),
        grid.forward, surface.slice.expiry,
    )


def quote_set_from_curve(price_fn: Callable[[float], float], F: float,
                         T: float, h: float) -> QuoteSet:
    """Sample the five calibration quotes at spacing h from a price source.

    price_fn(strike) must return the undiscounted out-of-the-money price: the
    put below F, the call at and above it.
    """
    strikes = (F - 2.0 * h, F - h, F, F + h, F + 2.0 * h)
    return QuoteSet(*[price_fn(k) for k in strikes], h, h, h, h, F, T)
