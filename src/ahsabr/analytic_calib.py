"""Exact analytic calibration of (alpha, nu, rho) from five near-ATM prices.

Implements the closed-form inversion of the one-step pricing rows around the
forward: the ATM straddle row gives alpha, the two butterfly rows give the
system coefficients z at the neighbouring strikes, and those reduce to a
linear 2x2 system in (nu^2, rho*nu).  Also provides the uniform-grid
specialization, the h -> 0 limiting evaluation on a smooth price curve, and
the model-to-model recalibration workflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .ah_engine import SabrParams, kappa, y_of_k
from .errors import (
    DegenerateButterfly,
    DegenerateStraddle,
    NegativeNuSquared,
    PriceOutOfBounds,
    RhoOutOfRange,
    UnstableDifferences,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuoteSet:
    """The five near-ATM option prices plus their grid geometry.

    Put prices below the forward, call prices above; steps are labelled per
    node (h-_j, h+_j).  Consecutive-node steps coincide by construction:
    h+_{n-1} == h-_n and h+_n == h-_{n+1}.
    """

    p_minus2: float
    p_minus1: float
    atm: float
    c_plus1: float
    c_plus2: float
    h_minus_nm1: float
    h_plus_nm1: float
    h_minus_n: float
    h_plus_n: float
    h_minus_np1: float
    h_plus_np1: float
    forward: float
    expiry: float

    def __post_init__(self):
        for name in (
            "p_minus2", "p_minus1", "atm", "c_plus1", "c_plus2",
            "h_minus_nm1", "h_plus_nm1", "h_minus_n",
            "h_plus_n", "h_minus_np1", "h_plus_np1",
        ):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.expiry > 0.0:
            raise ValueError("expiry must be positive")
        scale = self.h_minus_n + self.h_plus_n
        if abs(self.h_plus_nm1 - self.h_minus_n) > 1e-12 * scale:
            raise ValueError("h+_{n-1} and h-_n describe the same gap and must agree")
        if abs(self.h_plus_n - self.h_minus_np1) > 1e-12 * scale:
            raise ValueError("h+_n and h-_{n+1} describe the same gap and must agree")

    @classmethod
    def from_nodes(cls, prices, steps, forward, expiry):
        """The prices (p_{n-2}, p_{n-1}, atm, c_{n+1}, c_{n+2}) at five nodes
        and the four steps between them, left to right; each inner step is
        h+ of the node on its left and h- of the node on its right."""
        s0, s1, s2, s3 = steps
        return cls(
            *prices, h_minus_nm1=s0, h_plus_nm1=s1, h_minus_n=s1,
            h_plus_n=s2, h_minus_np1=s2, h_plus_np1=s3,
            forward=forward, expiry=expiry,
        )

    @property
    def sigma_atm(self) -> float:
        """ATM normal vol implied by the ATM identity price = vol*sqrt(T/2pi)."""
        return self.atm * math.sqrt(TWO_PI / self.expiry)

    @property
    def p_plus1(self) -> float:
        """ITM put at k_{n+1}, synthesized from the quoted call by parity."""
        return self.c_plus1 + self.h_plus_n


@dataclass(frozen=True)
class CalibDiagnostics:
    z_minus: float
    z_plus: float
    y_minus: float
    y_plus: float
    kappa_minus: float
    kappa_plus: float
    sigma_atm: float
    residual_minus: float
    residual_plus: float


@dataclass(frozen=True)
class CalibrationResult:
    params: SabrParams
    diagnostics: CalibDiagnostics


def _row_z(left, mid, right, h_minus, h_plus, atm, message,
           error=DegenerateButterfly) -> float:
    """System coefficient z_j of the pricing row at k_j, from the prices at
    k_{j-1}, k_j, k_{j+1}; a denominator below 1e-14 of the ATM scale means
    no positive density at k_j and raises error(message)."""
    width = h_plus + h_minus
    denom = left * h_plus + right * h_minus - mid * width
    if denom <= 1e-14 * atm * width:
        raise error(message)
    return mid * width / denom


def _cev_level(F: float, beta: float, b: float) -> float:
    """(F + b)^beta, checked first: out of range the power could turn
    complex, overflow or vanish."""
    if not (0.0 <= beta <= 1.0 and b >= 0.0 and F + b > 0.0):
        raise ValueError(f"beta {beta}, shift {b} or forward + shift {F + b} "
                         "out of range")
    return (F + b) ** beta


def alpha_from_straddle(q: QuoteSet, beta: float, b: float) -> float:
    """alpha from the ATM row of the put system.

    The row weights the neighbours by the opposite step (h+ with p_{n-1},
    h- with p_{n+1}); on a uniform grid this is the straddle-convexity
    formula ATM / (p_{n-1} + p_{n+1} - 2*ATM).
    """
    hp, hm = q.h_plus_n, q.h_minus_n
    z_n = _row_z(
        q.p_minus1, q.atm, q.p_plus1, hm, hp, q.atm,
        "straddle quotes admit no positive ATM density (denominator <= 0)",
        DegenerateStraddle,
    )
    level = _cev_level(q.forward, beta, b)
    return math.sqrt(z_n * hp * hm / (2.0 * q.expiry)) / level


def z_coefficients(q: QuoteSet) -> tuple[float, float]:
    """System coefficients z_{n-1}, z_{n+1} implied by the butterfly rows."""
    z_minus = _row_z(
        q.p_minus2, q.p_minus1, q.atm, q.h_minus_nm1, q.h_plus_nm1, q.atm,
        "put butterfly implies a non-positive density at k_{n-1}",
    )
    z_plus = _row_z(
        q.atm, q.c_plus1, q.c_plus2, q.h_minus_np1, q.h_plus_np1, q.atm,
        "call butterfly implies a non-positive density at k_{n+1}",
    )
    return z_minus, z_plus


def _neighbours(q: QuoteSet, alpha, beta, b, sigma_atm):
    """Strike, y and kappa at k_{n-1} and k_{n+1}:
    (k_m, k_p, y_m, y_p, kappa_m, kappa_p)."""
    F, T = q.forward, q.expiry
    params0 = SabrParams(alpha=alpha, beta=beta, rho=0.0, nu=0.0, shift=b)
    k_m = F - q.h_minus_n
    k_p = F + q.h_plus_n
    return (
        k_m, k_p, y_of_k(k_m, F, params0), y_of_k(k_p, F, params0),
        kappa(k_m, F, sigma_atm, T),
        kappa(k_p, F, sigma_atm, T),
    )


def _solve_nu_rho(j2_m: float, j2_p: float, y_m: float, y_p: float, **diag):
    """The 2x2 solve of nu_rho_from_z from J(y)^2 at both neighbours, with
    its guards.  Returns nu, rho and the CalibDiagnostics made of `diag`,
    the y values and the relative residual of each relation."""
    r_m = (j2_m - 1.0) / y_m
    r_p = (j2_p - 1.0) / y_p
    nu2 = (r_m - r_p) / (y_m - y_p)
    if nu2 < 0.0:
        raise NegativeNuSquared(f"quotes imply nu^2 = {nu2:.3e} < 0")
    nu = math.sqrt(nu2)
    rho = (nu2 * y_m - r_m) / (2.0 * nu) if nu > 0.0 else 0.0
    if abs(rho) >= 1.0:
        raise RhoOutOfRange(f"quotes imply |rho| = {abs(rho):.6f} >= 1")
    return nu, rho, CalibDiagnostics(
        y_minus=y_m, y_plus=y_p,
        residual_minus=(nu2 * y_m - 2.0 * rho * nu - r_m) / max(abs(r_m), 1e-300),
        residual_plus=(nu2 * y_p - 2.0 * rho * nu - r_p) / max(abs(r_p), 1e-300),
        **diag,
    )


def nu_rho_from_z(
    z_minus: float,
    z_plus: float,
    alpha: float,
    q: QuoteSet,
    beta: float,
    b: float,
    sigma_atm: float,
) -> tuple[float, float, CalibDiagnostics]:
    """Solve the linear 2x2 system in (nu^2, 2*rho*nu).

    Each z coefficient pins J(y)^2 = 1 - 2*rho*nu*y + nu^2*y^2 at one
    neighbouring strike; subtracting the two relations isolates nu^2.
    """
    T = q.expiry
    k_m, k_p, y_m, y_p, kap_m, kap_p = _neighbours(q, alpha, beta, b, sigma_atm)

    # J^2 at the two neighbours, read off the z definition
    j2_m = z_minus * q.h_plus_nm1 * q.h_minus_nm1 / (
        T * kap_m * alpha**2 * (k_m + b) ** (2.0 * beta)
    )
    j2_p = z_plus * q.h_plus_np1 * q.h_minus_np1 / (
        T * kap_p * alpha**2 * (k_p + b) ** (2.0 * beta)
    )
    return _solve_nu_rho(
        j2_m, j2_p, y_m, y_p, z_minus=z_minus, z_plus=z_plus,
        kappa_minus=kap_m, kappa_plus=kap_p, sigma_atm=sigma_atm,
    )


def calibrate(q: QuoteSet, beta: float, b: float) -> CalibrationResult:
    """Analytic (alpha, nu, rho) from a five-quote set at given beta, shift."""
    sigma_atm = q.sigma_atm
    alpha = alpha_from_straddle(q, beta, b)
    z_minus, z_plus = z_coefficients(q)
    nu, rho, diag = nu_rho_from_z(z_minus, z_plus, alpha, q, beta, b, sigma_atm)
    params = SabrParams(alpha=alpha, beta=beta, rho=rho, nu=nu, shift=b)
    return CalibrationResult(params=params, diagnostics=diag)


def calibrate_uniform(q: QuoteSet, beta: float, b: float) -> CalibrationResult:
    """Uniform-grid specialization: the compact equal-step formulas.

    Uses the half system coefficients z/2 paired with the halved kappa, with
    ITM quotes eliminated through parity up front.  Halving is exact in
    floating point, so with the operations ordered as in the general-form
    kernels the result coincides with `calibrate` to the last bit whenever
    the six steps are exactly equal.
    """
    h = q.h_plus_n
    for name in ("h_minus_nm1", "h_plus_nm1", "h_minus_n", "h_minus_np1", "h_plus_np1"):
        if abs(getattr(q, name) - h) > 1e-12 * h:
            raise ValueError("calibrate_uniform requires an equal-step quote set")
    F, T = q.forward, q.expiry
    sigma_atm = q.sigma_atm
    p_plus1 = q.p_plus1  # c(F+h) + h by parity

    # half the ATM row coefficient: z_n/2 = ATM / (p_{n-1} + p_{n+1} - 2 ATM)
    denom_a = q.p_minus1 * h + p_plus1 * h - q.atm * (h + h)
    if denom_a <= 1e-14 * q.atm * (h + h):
        raise DegenerateStraddle("straddle quotes admit no positive ATM density")
    zh_n = q.atm * h / denom_a
    alpha = math.sqrt(zh_n * h * h / T) / _cev_level(F, beta, b)

    # half butterfly coefficients: z_{n-1}/2 and z_{n+1}/2
    denom_m = q.p_minus2 * h + q.atm * h - q.p_minus1 * (h + h)
    if denom_m <= 1e-14 * q.atm * (h + h):
        raise DegenerateButterfly("put butterfly implies a non-positive density")
    zh_minus = q.p_minus1 * h / denom_m
    denom_p = q.c_plus2 * h + q.atm * h - q.c_plus1 * (h + h)
    if denom_p <= 1e-14 * q.atm * (h + h):
        raise DegenerateButterfly("call butterfly implies a non-positive density")
    zh_plus = q.c_plus1 * h / denom_p

    k_m, k_p, y_m, y_p, kap_m, kap_p = _neighbours(q, alpha, beta, b, sigma_atm)
    kap_half_m = 0.5 * kap_m
    kap_half_p = 0.5 * kap_p

    j2_m = zh_minus * h * h / (T * kap_half_m * alpha**2 * (k_m + b) ** (2.0 * beta))
    j2_p = zh_plus * h * h / (T * kap_half_p * alpha**2 * (k_p + b) ** (2.0 * beta))
    nu, rho, diag = _solve_nu_rho(
        j2_m, j2_p, y_m, y_p, z_minus=2.0 * zh_minus, z_plus=2.0 * zh_plus,
        kappa_minus=kap_m, kappa_plus=kap_p, sigma_atm=sigma_atm,
    )
    params = SabrParams(alpha=alpha, beta=beta, rho=rho, nu=nu, shift=b)
    return CalibrationResult(params=params, diagnostics=diag)


@dataclass(frozen=True)
class LimitingResult:
    """Short-maturity limit parameters plus the one-sided derivative evaluations
    of the smoothed butterfly ratio (reported, never silently averaged)."""

    params: SabrParams
    pdf_atm: float
    d1_left: float
    d1_right: float
    d2_left: float
    d2_right: float


def _second_difference(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def limiting_params(
    price_curve: Callable[[float], float],
    F: float,
    T: float,
    beta: float,
    b: float,
    h0: float,
) -> LimitingResult:
    """h -> 0 limit of the analytic calibration on a smooth call-price curve.

    alpha comes from the ATM price and the ATM density (second strike
    derivative of the curve); nu and rho from first/second derivatives in the
    y coordinate of G(k) = timevalue(k) / (kappa(k) * pdf(k) * (k+b)^(2*beta)),
    evaluated by central differences at steps h0 and h0/2 with Richardson
    extrapolation.  Raises UnstableDifferences when halving h0 moves any
    output by more than 10%.
    """

    def pdf(k: float, h: float) -> float:
        # Richardson-extrapolated central second difference of the price curve
        coarse = _second_difference(price_curve, k, h)
        fine = _second_difference(price_curve, k, 0.5 * h)
        return (4.0 * fine - coarse) / 3.0

    atm = price_curve(F)
    sigma_atm = atm * math.sqrt(TWO_PI / T)

    def evaluate(h: float):
        pdf_atm = pdf(F, h)
        if pdf_atm <= 0.0:
            raise DegenerateStraddle("price curve has non-positive ATM density")
        alpha = math.sqrt(atm / (T * pdf_atm)) / (F + b) ** beta
        params0 = SabrParams(alpha=alpha, beta=beta, rho=0.0, nu=0.0, shift=b)

        def k_of_y(y: float) -> float:
            if abs(1.0 - beta) < 1e-12:
                return (F + b) * math.exp(-alpha * y) - b
            om = 1.0 - beta
            return ((F + b) ** om - alpha * om * y) ** (1.0 / om) - b

        def g(y: float) -> float:
            k = k_of_y(y)
            call = price_curve(k)
            tv = call - max(F - k, 0.0)  # put below the forward, call above
            # the halved coefficient kappa/2 makes G(y) = T alpha^2 J(y)^2
            kap_half = 0.5 * kappa(k, F, sigma_atm, T)
            return tv / (kap_half * pdf(k, h) * (k + b) ** (2.0 * beta))

        # y-space step matching the rate-space step h
        delta = y_of_k(F - h, F, params0)
        g0 = g(0.0)
        gm1, gp1 = g(delta), g(-delta)  # y > 0 is the put side (k < F)
        gm2, gp2 = g(2.0 * delta), g(-2.0 * delta)

        def derivs(step, gm, gp):
            d1 = (gm - gp) / (2.0 * step)  # d/dy, noting y decreases with k
            d2 = (gm - 2.0 * g0 + gp) / (step * step)
            return d1, d2

        d1_c, d2_c = derivs(delta, gm1, gp1)
        d1_w, d2_w = derivs(2.0 * delta, gm2, gp2)
        # Richardson on the central differences (leading error O(step^2))
        d1 = (4.0 * d1_c - d1_w) / 3.0
        d2 = (4.0 * d2_c - d2_w) / 3.0

        # one-sided evaluations for diagnostics
        d1_left = (-3.0 * g0 + 4.0 * gm1 - gm2) / (2.0 * delta)
        d1_right = -(-3.0 * g0 + 4.0 * gp1 - gp2) / (2.0 * delta)
        d2_left = (g0 - 2.0 * gm1 + gm2) / (delta * delta)
        d2_right = (g0 - 2.0 * gp1 + gp2) / (delta * delta)

        nu2 = d2 / (2.0 * T * alpha**2)
        if nu2 < 0.0:
            raise NegativeNuSquared(f"price curve implies nu^2 = {nu2:.3e} < 0")
        nu = math.sqrt(nu2)
        rho = -d1 / (2.0 * T * alpha**2 * nu) if nu > 0.0 else 0.0
        return (
            alpha, nu, rho, pdf_atm,
            (d1_left, d1_right, d2_left, d2_right),
        )

    a1, n1, r1, pdf1, _ = evaluate(h0)
    a2, n2, r2, pdf2, sided = evaluate(0.5 * h0)
    for coarse, fine in ((a1, a2), (n1, n2), (r1, r2)):
        scale = max(abs(fine), abs(coarse), 1e-12)
        if abs(fine - coarse) > 0.1 * scale:
            raise UnstableDifferences(
                f"halving h0 moved an output from {coarse:.6e} to {fine:.6e}"
            )
    if abs(r2) >= 1.0:
        raise RhoOutOfRange(f"price curve implies |rho| = {abs(r2):.6f} >= 1")
    params = SabrParams(alpha=a2, beta=beta, rho=r2, nu=max(n2, 0.0), shift=b)
    return LimitingResult(
        params=params, pdf_atm=pdf2,
        d1_left=sided[0], d1_right=sided[1],
        d2_left=sided[2], d2_right=sided[3],
    )


def quote_set_from_curve(
    price_fn: Callable[[float, str], float],
    F: float,
    T: float,
    h: float,
) -> QuoteSet:
    """Sample the five calibration quotes at spacing h from a price source.

    price_fn(strike, kind) must return undiscounted option prices.
    """
    strikes = (F - 2.0 * h, F - h, F, F + h, F + 2.0 * h)
    kinds = ("put", "put", "call", "call", "call")
    prices = [price_fn(k, kind) for k, kind in zip(strikes, kinds)]
    return QuoteSet.from_nodes(prices, (h, h, h, h), F, T)


def surface_price_fn(surface) -> Callable[[float, str], float]:
    """Price source backed by a solved surface; strikes must hit grid nodes
    (the nearest node, so the grid may be non-uniform)."""
    grid = surface.grid

    def price(k: float, kind: str) -> float:
        idx = int(abs(grid.strikes - k).argmin())
        if abs(grid.strikes[idx] - k) > 1e-9 * (1.0 + abs(k)):
            raise ValueError(f"strike {k} is not a node of the surface grid")
        return float(surface.calls[idx] if kind == "call" else surface.puts[idx])

    return price


def recalibrate(
    price_fn: Callable[[float, str], float],
    F: float,
    T: float,
    target_beta: float,
    target_b: float,
    h: float,
) -> CalibrationResult:
    """Sample five quotes at spacing h from a source model and calibrate the
    one-step parameters at the target beta and shift."""

    def sampled(k: float, kind: str) -> float:
        price = price_fn(k, kind)
        if not 0.0 < price < math.inf:  # the source model broke down, not the input
            raise PriceOutOfBounds(f"source {kind} price {price!r} at strike {k!r}")
        return price

    q = quote_set_from_curve(sampled, F, T, h)
    return calibrate(q, target_beta, target_b)
