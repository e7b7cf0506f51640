"""Reference shifted-SABR lognormal implied-vol expansion and Black pricing.

Used as the source model for the recalibration workflow: smiles generated
here are sampled near ATM and inverted into one-step parameters.
"""

from __future__ import annotations

import math
from typing import Callable

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


def _hagan_vol_fn(params: SabrParams, forward: float,
                  expiry: float) -> Callable[[float], float]:
    """Strike -> lognormal implied vol of the shifted rate, the standard SABR
    expansion applied in shifted coordinates (F+b, k+b).  The terms that do
    not depend on the strike are formed once, here, where an expiry that is
    not positive and finite raises ValueError, and an alpha or nu past about
    1.3e154 the OverflowError of its square; a k + b or F + b that is not
    positive raises NonpositiveShiftedStrike at each strike."""
    if not 0.0 < expiry < math.inf:
        raise ValueError(f"expiry must be positive and finite, got {expiry!r}")
    alpha, beta, rho, nu, b = (params.alpha, params.beta, params.rho,
                               params.nu, params.shift)
    f = forward + b
    one_m_beta = 1.0 - beta
    half_omb = 0.5 * one_m_beta
    omb2, omb4 = one_m_beta**2, one_m_beta**4
    # the maturity correction, the expansion's term of order T, is
    # 1 + (level / fk_mid^2 + skew / fk_mid + vvol) T
    level = omb2 * alpha**2
    skew = rho * beta * nu * alpha
    vvol = (2.0 - 3.0 * rho**2) * nu**2 / 24.0
    nu_over_alpha = nu / alpha

    def vol(strike: float) -> float:
        K = strike + b
        if K <= 0.0 or f <= 0.0:
            raise NonpositiveShiftedStrike(
                f"strike {strike} or forward {forward} violates k + shift > 0"
            )
        log_fk = math.log(f / K)
        fk_mid = (f * K) ** half_omb
        corr = 1.0 + (
            level / (24.0 * fk_mid**2) + skew / (4.0 * fk_mid) + vvol
        ) * expiry
        z_over_x = _z_over_x(nu_over_alpha * fk_mid * log_fk, rho)
        denom = fk_mid * (
            1.0 + omb2 * log_fk**2 / 24.0 + omb4 * log_fk**4 / 1920.0
        )
        return alpha / denom * z_over_x * corr

    return vol


def hagan_price_fn(params: SabrParams, forward: float,
                   expiry: float) -> Callable[[float], float]:
    """Source strike -> undiscounted out-of-the-money Black price of the
    shifted rate at the Hagan vol: the put below the forward, the call at and
    above it.  Each side is priced directly; parity would cancel out of the
    money.  Everything that does not depend on the strike is formed once, so
    a recalibration's five quotes pay only their own terms.  A bad expiry or
    an overflowing square raises here, as _hagan_vol_fn says; a strike with
    k + b <= 0, or a forward with F + b <= 0, raises at each price."""
    vol = _hagan_vol_fn(params, forward, expiry)
    b = params.shift
    f = forward + b
    sqrt_t = math.sqrt(expiry)

    def price(strike: float) -> float:
        s = vol(strike) * sqrt_t
        K = strike + b
        d1 = math.log(f / K) / s + 0.5 * s
        d2 = d1 - s
        if strike < forward:
            return K * norm_cdf(-d2) - f * norm_cdf(-d1)
        return f * norm_cdf(d1) - K * norm_cdf(d2)

    return price


def hagan_implied_vol(strike: float, forward: float, expiry: float,
                      params: SabrParams) -> float:
    """Lognormal implied vol of the shifted rate at one strike.  An expiry
    that is not positive and finite raises ValueError, and a strike or
    forward with k + b <= 0 NonpositiveShiftedStrike."""
    return _hagan_vol_fn(params, forward, expiry)(strike)


def hagan_price(strike: float, forward: float, expiry: float,
                params: SabrParams) -> float:
    """hagan_price_fn's out-of-the-money price at one strike."""
    return hagan_price_fn(params, forward, expiry)(strike)
