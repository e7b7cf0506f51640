"""Reference shifted-SABR lognormal implied-vol expansion and Black pricing.

Used as the source model for the recalibration workflow: smiles generated
here are sampled near ATM and inverted into one-step parameters.
"""

from __future__ import annotations

import math

from .ah_engine import SabrParams
from .errors import NonpositiveShiftedStrike
from .numerics import norm_cdf


def _z_over_x(z: float, rho: float) -> float:
    """Hagan's z / x(z), with x(z) = log((s + z - rho) / (1 - rho)) and
    s = sqrt(1 - 2 rho z + z^2), x written as asinh(z (1 + s) / (1 + s - rho z)).
    That argument keeps every digit of z near z = 0, where the log's argument,
    1 + O(z), loses them."""
    s = math.sqrt(1.0 - 2.0 * rho * z + z * z)
    return z / math.asinh(z * (1.0 + s) / (1.0 + s - rho * z)) if z else 1.0


def hagan_implied_vol(strike: float, forward: float, expiry: float,
                      params: SabrParams) -> float:
    """Lognormal implied vol of the shifted rate, standard SABR expansion
    applied in shifted coordinates (F+b, k+b).  An expiry that is not
    positive and finite raises ValueError."""
    if not 0.0 < expiry < math.inf:
        raise ValueError(f"expiry must be positive and finite, got {expiry!r}")
    alpha, beta, rho, nu = params.alpha, params.beta, params.rho, params.nu
    f = forward + params.shift
    K = strike + params.shift
    if K <= 0.0 or f <= 0.0:
        raise NonpositiveShiftedStrike(
            f"strike {strike} or forward {forward} violates k + shift > 0"
        )
    one_m_beta = 1.0 - beta

    log_fk = math.log(f / K)
    fk_mid = (f * K) ** (0.5 * one_m_beta)

    # maturity correction, the expansion's term of order T
    corr = 1.0 + (
        one_m_beta**2 * alpha**2 / (24.0 * fk_mid**2)
        + rho * beta * nu * alpha / (4.0 * fk_mid)
        + (2.0 - 3.0 * rho**2) * nu**2 / 24.0
    ) * expiry

    z_over_x = _z_over_x((nu / alpha) * fk_mid * log_fk, rho)
    denom = fk_mid * (
        1.0
        + one_m_beta**2 * log_fk**2 / 24.0
        + one_m_beta**4 * log_fk**4 / 1920.0
    )
    return alpha / denom * z_over_x * corr


def hagan_price(strike: float, forward: float, expiry: float,
                params: SabrParams) -> float:
    """Undiscounted out-of-the-money Black price of the shifted rate at the
    Hagan vol: the put below the forward, the call at and above it.  Each side
    is priced directly; parity would cancel out of the money."""
    sigma = hagan_implied_vol(strike, forward, expiry, params)
    f = forward + params.shift
    K = strike + params.shift
    s = sigma * math.sqrt(expiry)
    d1 = math.log(f / K) / s + 0.5 * s
    d2 = d1 - s
    if strike < forward:
        return K * norm_cdf(-d2) - f * norm_cdf(-d1)
    return f * norm_cdf(d1) - K * norm_cdf(d2)


def hagan_price_fn(params: SabrParams, forward: float, expiry: float):
    """Price source strike -> out-of-the-money price, for recalibration."""
    return lambda k: hagan_price(k, forward, expiry, params)
