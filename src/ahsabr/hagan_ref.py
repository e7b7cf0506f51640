"""Reference shifted-SABR lognormal implied-vol expansion and Black pricing.

Used as the source model for the recalibration workflow: smiles generated
here are sampled near ATM and inverted into one-step parameters.
"""

from __future__ import annotations

import math
from typing import Callable

from .ah_engine import SabrParams
from .errors import NonpositiveShiftedStrike, NumericalError
from .numerics import _INV_SQRT2


def _z_over_x(z: float, rho: float) -> float:
    """Hagan's z / x(z), with x(z) = log((s + z - rho) / (1 - rho)) and
    s = sqrt(1 - 2 rho z + z^2), x written as asinh(z (1 + s) / (1 + s - rho z)).
    That argument keeps every digit of z near z = 0, where the log's argument,
    1 + O(z), loses them."""
    s = math.sqrt(1.0 - 2.0 * rho * z + z * z)
    return z / math.asinh(z * (1.0 + s) / (1.0 + s - rho * z)) if z else 1.0


def _hagan_source(params: SabrParams, forward: float, expiry: float,
                  black: bool = True) -> Callable[[float], float]:
    """Strike -> undiscounted out-of-the-money Black price of the shifted rate
    at the Hagan vol, or (black False) that lognormal vol: the standard SABR
    expansion in shifted coordinates (F+b, k+b).  The put below the forward
    and the call at and above it are each priced directly, since parity
    would cancel out of the money, with N(x) written as norm_cdf writes it,
    0.5 erfc(-x / sqrt 2).  The terms that do not depend on the strike are
    formed once, here, where an expiry that is not positive and finite
    raises ValueError, and an alpha or nu past about 1.3e154, whose square
    leaves the double range, NumericalError naming it; a k + b or F + b
    that is not positive raises NonpositiveShiftedStrike at each strike."""
    if not 0.0 < expiry < math.inf:
        raise ValueError(f"expiry must be positive and finite, got {expiry!r}")
    alpha, beta, rho, nu, b = (params.alpha, params.beta, params.rho,
                               params.nu, params.shift)
    for name, value in (("alpha", alpha), ("nu", nu)):
        if value * value == math.inf:  # where value**2 raises OverflowError
            raise NumericalError(f"the Hagan source's {name} {value!r} "
                                 "squares past the double range")
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
    sqrt_t = math.sqrt(expiry)

    def source(strike: float) -> float:
        K = strike + b
        if K <= 0.0 or f <= 0.0:
            raise NonpositiveShiftedStrike(f"strike {strike} or forward "
                                           f"{forward} violates k + shift > 0")
        log_fk = math.log(f / K)
        fk_mid = (f * K) ** half_omb
        corr = 1.0 + (level / (24.0 * fk_mid**2) + skew / (4.0 * fk_mid)
                      + vvol) * expiry
        z_over_x = _z_over_x(nu_over_alpha * fk_mid * log_fk, rho)
        denom = fk_mid * (1.0 + omb2 * log_fk**2 / 24.0
                          + omb4 * log_fk**4 / 1920.0)
        vol = alpha / denom * z_over_x * corr
        if not black:
            return vol
        s = vol * sqrt_t
        d1 = log_fk / s + 0.5 * s
        d2 = d1 - s
        if strike < forward:  # K N(-d2) - f N(-d1)
            return (K * (0.5 * math.erfc(d2 * _INV_SQRT2))
                    - f * (0.5 * math.erfc(d1 * _INV_SQRT2)))
        return (f * (0.5 * math.erfc(-d1 * _INV_SQRT2))  # f N(d1) - K N(d2)
                - K * (0.5 * math.erfc(-d2 * _INV_SQRT2)))

    return source


def hagan_price_fn(params: SabrParams, forward: float,
                   expiry: float) -> Callable[[float], float]:
    """Source strike -> undiscounted out-of-the-money Black price of the
    shifted rate at the Hagan vol, the source that recalibrate and
    limiting_params take; _hagan_source says what raises, and where."""
    return _hagan_source(params, forward, expiry)


def hagan_implied_vol(strike: float, forward: float, expiry: float,
                      params: SabrParams) -> float:
    """Lognormal implied vol of the shifted rate at one strike: the vol
    that _hagan_source prices at, which raises as it says."""
    return _hagan_source(params, forward, expiry, black=False)(strike)


def hagan_price(strike: float, forward: float, expiry: float,
                params: SabrParams) -> float:
    """hagan_price_fn's out-of-the-money price at one strike."""
    return hagan_price_fn(params, forward, expiry)(strike)
