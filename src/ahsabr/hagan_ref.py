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


class _Overflowed:
    """Stands in for a term whose square overflowed (alpha or nu past about
    1.3e154) when the smile was set up.  The first division or addition on
    it raises that OverflowError, at the point where the expansion forms the
    term, so each strike's checks still come first."""

    def __init__(self, exc: OverflowError):
        self.args = exc.args

    def _raise(self, other):
        raise OverflowError(*self.args)

    __truediv__ = __radd__ = _raise


def _hagan_vol_fn(params: SabrParams, forward: float,
                  expiry: float) -> Callable[[float], float]:
    """Strike -> lognormal implied vol of the shifted rate, the standard SABR
    expansion applied in shifted coordinates (F+b, k+b).  The terms that do
    not depend on the strike are formed once, here, and nothing here raises:
    an expiry that is not positive and finite raises ValueError, and a k + b
    or F + b that is not positive NonpositiveShiftedStrike, at each strike."""
    alpha, beta, rho, nu, b = (params.alpha, params.beta, params.rho,
                               params.nu, params.shift)
    f = forward + b
    one_m_beta = 1.0 - beta
    half_omb = 0.5 * one_m_beta
    omb2, omb4 = one_m_beta**2, one_m_beta**4
    # the maturity correction, the expansion's term of order T, is
    # 1 + (level / fk_mid^2 + skew / fk_mid + vvol) T
    try:
        level = omb2 * alpha**2
    except OverflowError as exc:
        level = _Overflowed(exc)
    skew = rho * beta * nu * alpha
    try:
        vvol = (2.0 - 3.0 * rho**2) * nu**2 / 24.0
    except OverflowError as exc:
        vvol = _Overflowed(exc)
    nu_over_alpha = nu / alpha
    expiry_ok = 0.0 < expiry < math.inf

    def vol(strike: float) -> float:
        if not expiry_ok:
            raise ValueError(f"expiry must be positive and finite, got {expiry!r}")
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
    a recalibration's five quotes pay only their own terms; the errors are
    hagan_implied_vol's, raised by each price."""
    vol = _hagan_vol_fn(params, forward, expiry)
    b = params.shift
    f = forward + b
    sqrt_t = math.sqrt(expiry) if expiry > 0.0 else math.nan  # vol raises first

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
