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

from .ah_engine import (CalibDiagnostics, QuoteSet, SabrParams, _kappa_scalar,
                         _kappa_scale, _y, kappa, quote_set_from_curve)
from .errors import (
    DegenerateButterfly,
    DegenerateStraddle,
    NegativeNuSquared,
    NumericalError,
    PriceOutOfBounds,
    RhoOutOfRange,
    UnstableDifferences,
)
from .numerics import atm_normal_vol


@dataclass
class CalibrationResult:
    params: SabrParams
    diagnostics: CalibDiagnostics


# The three degenerate-row messages of both forms.  A row's denominator is
# the density at its node times h- * h+ * (h- + h+) / 2, so its guard,
# denominator <= 1e-14 * ATM * (h- + h+), is the condition they state.
_FLOOR = ": density * h- * h+ / 2 <= 1e-14 * ATM"
_NO_ATM_DENSITY = "straddle quotes admit no positive density at the forward" + _FLOOR
_NO_PUT_FLY_DENSITY = "put butterfly admits no positive density at k_{n-1}" + _FLOOR
_NO_CALL_FLY_DENSITY = "call butterfly admits no positive density at k_{n+1}" + _FLOOR


def _row_z(left, mid, right, h_minus, h_plus, atm, message,
           error=DegenerateButterfly) -> float:
    """System coefficient z_j of the pricing row at k_j, from the prices at
    k_{j-1}, k_j, k_{j+1}; raises error(message) unless the row admits a
    positive density at k_j."""
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


def _neighbours(q: QuoteSet, alpha, beta, b):
    """Strike, y and kappa at k_{n-1} and k_{n+1}, and the ATM normal vol
    that kappa was taken at: (k_m, k_p, y_m, y_p, kappa_m, kappa_p,
    sigma_atm).  sigma_atm is read once and sigma_atm sqrt(T) formed once
    for both kappas.  An alpha that is not positive (the ATM row
    underflowed) raises SabrParams' ValueError."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    F, T, sigma_atm = q.forward, q.expiry, q.sigma_atm
    k_m = F - q.h_minus_n
    k_p = F + q.h_plus_n
    y_m, y_p = _y(k_m, F, alpha, beta, b), _y(k_p, F, alpha, beta, b)
    s = _kappa_scale(sigma_atm, T)
    return (k_m, k_p, y_m, y_p, _kappa_scalar(k_m, F, s),
            _kappa_scalar(k_p, F, s), sigma_atm)


def _nu_rho(nu2: float, two_rho_nu: float) -> tuple[float, float]:
    """Checked (nu, rho) from nu^2 and 2*rho*nu, the coefficients of J(y)^2:
    a NaN or +inf nu^2 raises NumericalError, a negative one NegativeNuSquared,
    and a rho outside (-1, 1), NaN included, RhoOutOfRange.  At nu^2 = 0, rho
    is 0 if 2*rho*nu is, and inf if not: J^2 = 1 - 2*rho*nu*y fits no rho."""
    if not nu2 < math.inf:
        raise NumericalError(f"prices imply nu^2 = {nu2!r}, not a finite number")
    if nu2 < 0.0:
        raise NegativeNuSquared(f"prices imply nu^2 = {nu2:.3e} < 0")
    nu = math.sqrt(nu2)
    rho = two_rho_nu / (2.0 * nu) if nu > 0.0 else (math.inf if two_rho_nu else 0.0)
    if not abs(rho) < 1.0:
        raise RhoOutOfRange(f"prices imply |rho| = {abs(rho):.6f} >= 1")
    return nu, rho


def _solve_nu_rho(alpha, beta, b, j2_m, j2_p, y_m, y_p, z_m, z_p, kap_m,
                  kap_p, sigma_atm) -> CalibrationResult:
    """The linear 2x2 system in (nu^2, 2*rho*nu) from J(y)^2 at both
    neighbours.  Each J^2 = 1 - 2*rho*nu*y + nu^2*y^2 pins one relation;
    subtracting the two isolates nu^2, and _nu_rho checks the pair.  Returns
    the calibration at (alpha, beta, b) with the CalibDiagnostics of the z,
    y and kappa at both neighbours and sigma_atm; the solve is exact, so no
    residual is kept.  A zero or non-finite y (alpha overflowed) raises
    NumericalError."""
    if not (0.0 < abs(y_m) < math.inf and 0.0 < abs(y_p) < math.inf):
        raise NumericalError(f"y at the neighbours is {y_m!r} and {y_p!r}; "
                             "the 2x2 system needs both finite and nonzero")
    r_m = (j2_m - 1.0) / y_m
    r_p = (j2_p - 1.0) / y_p
    nu2 = (r_m - r_p) / (y_m - y_p)
    nu, rho = _nu_rho(nu2, nu2 * y_m - r_m)
    return CalibrationResult(
        SabrParams(alpha, beta, rho, nu, b),
        CalibDiagnostics(z_m, z_p, y_m, y_p, kap_m, kap_p, sigma_atm))


def calibrate(q: QuoteSet, beta: float, b: float) -> CalibrationResult:
    """Analytic (alpha, nu, rho) from a five-quote set at given beta, shift.

    The ATM row of the put system gives alpha.  It weights the neighbours by
    the opposite step (h+ with p_{n-1}, h- with p_{n+1}); on a uniform grid
    this is the straddle-convexity formula ATM / (p_{n-1} + p_{n+1} - 2*ATM).
    The two butterfly rows give the system coefficients z at k_{n-1} and
    k_{n+1}, and each pins J(y)^2 there for the 2x2 solve.
    """
    F, T = q.forward, q.expiry
    hm, hp = q.h_minus_n, q.h_plus_n
    z_n = _row_z(q.p_minus1, q.atm, q.p_plus1, hm, hp, q.atm,
                 _NO_ATM_DENSITY, DegenerateStraddle)
    alpha = math.sqrt(z_n * hp * hm / (2.0 * T)) / _cev_level(F, beta, b)
    z_minus = _row_z(q.p_minus2, q.p_minus1, q.atm, q.h_minus_nm1, hm, q.atm,
                     _NO_PUT_FLY_DENSITY)
    z_plus = _row_z(q.atm, q.c_plus1, q.c_plus2, hp, q.h_plus_np1, q.atm,
                    _NO_CALL_FLY_DENSITY)

    k_m, k_p, y_m, y_p, kap_m, kap_p, sigma_atm = _neighbours(q, alpha, beta, b)
    # J^2 at the two neighbours, read off the z definition
    j2_m = z_minus * hm * q.h_minus_nm1 / (
        T * kap_m * alpha**2 * (k_m + b) ** (2.0 * beta)
    )
    j2_p = z_plus * q.h_plus_np1 * hp / (
        T * kap_p * alpha**2 * (k_p + b) ** (2.0 * beta)
    )
    return _solve_nu_rho(alpha, beta, b, j2_m, j2_p, y_m, y_p, z_minus, z_plus,
                         kap_m, kap_p, sigma_atm)


def calibrate_uniform(q: QuoteSet, beta: float, b: float) -> CalibrationResult:
    """Uniform-grid specialization: the compact equal-step formulas.

    Uses the half system coefficients z/2 paired with the halved kappa, with
    ITM quotes eliminated through parity up front.  Halving is exact in
    floating point, so with the operations ordered as in the general-form
    kernels the result coincides with `calibrate` to the last bit whenever
    the four steps are exactly equal.
    """
    h = q.h_plus_n
    for name in ("h_minus_nm1", "h_minus_n", "h_plus_np1"):
        if abs(getattr(q, name) - h) > 1e-12 * h:
            raise ValueError("calibrate_uniform requires an equal-step quote set")
    F, T = q.forward, q.expiry
    p_plus1 = q.p_plus1  # c(F+h) + h by parity

    # half the ATM row coefficient: z_n/2 = ATM / (p_{n-1} + p_{n+1} - 2 ATM)
    denom_a = q.p_minus1 * h + p_plus1 * h - q.atm * (h + h)
    if denom_a <= 1e-14 * q.atm * (h + h):
        raise DegenerateStraddle(_NO_ATM_DENSITY)
    zh_n = q.atm * h / denom_a
    alpha = math.sqrt(zh_n * h * h / T) / _cev_level(F, beta, b)

    # half butterfly coefficients: z_{n-1}/2 and z_{n+1}/2
    denom_m = q.p_minus2 * h + q.atm * h - q.p_minus1 * (h + h)
    if denom_m <= 1e-14 * q.atm * (h + h):
        raise DegenerateButterfly(_NO_PUT_FLY_DENSITY)
    zh_minus = q.p_minus1 * h / denom_m
    denom_p = q.c_plus2 * h + q.atm * h - q.c_plus1 * (h + h)
    if denom_p <= 1e-14 * q.atm * (h + h):
        raise DegenerateButterfly(_NO_CALL_FLY_DENSITY)
    zh_plus = q.c_plus1 * h / denom_p

    k_m, k_p, y_m, y_p, kap_m, kap_p, sigma_atm = _neighbours(q, alpha, beta, b)
    kap_half_m = 0.5 * kap_m
    kap_half_p = 0.5 * kap_p

    j2_m = zh_minus * h * h / (T * kap_half_m * alpha**2 * (k_m + b) ** (2.0 * beta))
    j2_p = zh_plus * h * h / (T * kap_half_p * alpha**2 * (k_p + b) ** (2.0 * beta))
    return _solve_nu_rho(alpha, beta, b, j2_m, j2_p, y_m, y_p, 2.0 * zh_minus,
                         2.0 * zh_plus, kap_m, kap_p, sigma_atm)


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
    price_fn: Callable[[float], float],
    F: float,
    T: float,
    beta: float,
    b: float,
    h0: float,
) -> LimitingResult:
    """h -> 0 limit of the analytic calibration on a smooth price source.

    price_fn is an out-of-the-money source, as for quote_set_from_curve; a
    call curve (price at F - h0 not below ATM), a non-finite F, an h0 or T
    not positive and finite, or an h0 whose stencil (to about F - 3 h0)
    reaches k + b <= 0 raises ValueError.  alpha comes from the ATM price
    and density, the second strike derivative of price_fn(k) + max(F - k, 0);
    nu and rho from y-derivatives of G = price_fn(k) / (kappa pdf (k+b)^(2 beta))
    through _nu_rho, by Richardson-extrapolated central differences on a
    stencil uniform in y, step h / (alpha (F+b)^beta) and centre G(0) = T alpha^2,
    at h = h0 and h0/2.  Raises UnstableDifferences when halving h0 moves any
    output by more than 10%.
    """

    def call(k: float) -> float:
        return price_fn(k) + max(F - k, 0.0)

    def pdf(k: float, h: float) -> float:
        # Richardson-extrapolated central second difference of the call
        coarse = _second_difference(call, k, h)
        fine = _second_difference(call, k, 0.5 * h)
        return (4.0 * fine - coarse) / 3.0

    if not 0.0 < h0 < math.inf:
        raise ValueError(f"h0 must be positive and finite, got {h0!r}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T!r}")
    if not abs(F) < math.inf:
        raise ValueError(f"F must be finite, got {F!r}")
    level = _cev_level(F, beta, b)
    reach = f"h0 {h0!r} takes the stencil to k + b <= 0 from F + b = {F + b!r}"
    if F - h0 + b <= 0.0:
        raise ValueError(reach)
    atm = price_fn(F)
    if not price_fn(F - h0) < atm:
        raise ValueError("price_fn must give out-of-the-money prices, the put "
                         "below F: its price at F - h0 is not below its ATM price")
    sigma_atm = atm_normal_vol(atm, T)

    def evaluate(h: float):
        pdf_atm = pdf(F, h)
        if not pdf_atm > 0.0:
            raise DegenerateStraddle("price curve has non-positive ATM density")
        alpha = math.sqrt(atm / (T * pdf_atm)) / level
        g0 = T * alpha**2

        def g(y: float) -> float:
            # k(y) = (F+b) (1+x)^(1/(1-beta)) - b, x = -(1-beta) a, at every beta
            # as an exp of -a log1p(x)/x, which is 1 at x = 0 (beta = 1)
            a = alpha * y * (F + b) ** (beta - 1.0)
            x = -(1.0 - beta) * a
            if x <= -1.0:  # k(y) <= -b
                raise ValueError(reach)
            k = (F + b) * math.exp(-a * (math.log1p(x) / x if x else 1.0)) - b
            if k - h + b <= 0.0:  # pdf(k, h) prices at k - h
                raise ValueError(reach)
            # the halved coefficient kappa/2 makes G(y) = T alpha^2 J(y)^2
            kap_half = 0.5 * kappa(k, F, sigma_atm, T)
            return price_fn(k) / (kap_half * pdf(k, h) * (k + b) ** (2.0 * beta))

        # y-space step matching the rate-space step h: dy/dk = -1/(alpha (F+b)^beta)
        delta = h / (alpha * level)
        # y > 0 is the put side (k < F), whose lowest strike comes first
        gm2, gp2 = g(2.0 * delta), g(-2.0 * delta)
        gm1, gp1 = g(delta), g(-delta)

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

        nu, rho = _nu_rho(d2 / (2.0 * g0), -d1 / g0)
        return alpha, nu, rho, pdf_atm, (d1_left, d1_right, d2_left, d2_right)

    a1, n1, r1, pdf1, _ = evaluate(h0)
    a2, n2, r2, pdf2, sided = evaluate(0.5 * h0)
    for coarse, fine in ((a1, a2), (n1, n2), (r1, r2)):
        scale = max(abs(fine), abs(coarse), 1e-12)
        if abs(fine - coarse) > 0.1 * scale:
            raise UnstableDifferences(
                f"halving h0 moved an output from {coarse:.6e} to {fine:.6e}"
            )
    params = SabrParams(alpha=a2, beta=beta, rho=r2, nu=n2, shift=b)
    return LimitingResult(params, pdf2, *sided)


def recalibrate(
    price_fn: Callable[[float], float],
    F: float,
    T: float,
    target_beta: float,
    target_b: float,
    h: float,
) -> CalibrationResult:
    """Sample five quotes at spacing h from a source model and calibrate the
    one-step parameters at the target beta and shift."""

    def sampled(k: float) -> float:
        price = price_fn(k)
        if not 0.0 < price < math.inf:  # the source model broke down, not the input
            raise PriceOutOfBounds(f"source price {price!r} at strike {k!r}")
        return price

    q = quote_set_from_curve(sampled, F, T, h)
    return calibrate(q, target_beta, target_b)
