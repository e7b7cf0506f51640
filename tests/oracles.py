"""Oracles that the tests compare the package against: the normal density,
the generic Horner loop that numerics' unrolled scalar Cody ratios replaced,
the Mills ratio M(x) = Phi(-x)/phi(x) with its array erfcx path, the
three-range array form of 1 - x M(x) that numerics' 1-d kernel replaced, and
the Bachelier pricer.  No module of the package calls them; they build on the
package's own Cody kernels and norm_cdf.
"""

import math

import numpy as np

from ahsabr.numerics import (
    SQRT_2PI,
    _CODY_ROWS,
    _INV_SQRT2,
    _INV_SQRT_PI,
    _SQRT_HALF_PI,
    _SQRT_PI,
    _erfcx,
    _polynomials,
    is_scalar,
    norm_cdf,
)


def norm_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi). Accepts scalars or arrays."""
    with np.errstate(over="ignore"):
        # x^2 overflowing to inf still maps to the correct density of 0
        return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def cody_ratio_reference(pair, t: float) -> float:
    """One of Cody's ratios, a (numerator, denominator) pair of numerics._CODY,
    at a float t by a Horner loop over both coefficient tuples at once, as
    numerics formed it before each range's ratio was unrolled.  The unrolled
    ratios must reproduce it bit for bit."""
    num = den = 0.0
    for a, b in zip(*pair):  # Horner; both have the same degree
        num = num * t + a
        den = den * t + b
    return num / den


def _cody_ratios(t: np.ndarray) -> np.ndarray:
    """Cody's three ratios, rows 0 to 2, at every element of a 1-d t, as
    numerics' kernel forms them."""
    powers = np.empty((_CODY_ROWS.shape[1], t.size))
    powers[1] = t
    values = _polynomials(_CODY_ROWS, powers)
    return values[:3] / values[3:]


def _erfcx_array(y: np.ndarray) -> np.ndarray:
    """_erfcx over a 1-d array, every element at its range's t."""
    small = y <= 0.46875
    big = y > 4.0
    inv = 1.0 / np.maximum(y, 4.0)  # 1/y wherever it is used
    t = np.where(big, inv * inv, y)
    t = np.where(small, t * t, t)
    q = _cody_ratios(t)
    return np.where(small, np.exp(t) * (1.0 - y * q[0]),
                    np.where(big, (_INV_SQRT_PI - t * q[2]) * inv, q[1]))


def mills_ratio(x):
    """Phi(-x)/phi(x) for x >= 0, stable for arbitrarily large x.

    Uses the scaled complementary error function, so neither the tail CDF nor
    the density is ever formed on its own (both underflow past x ~ 38).  A
    scalar stays on floats and the math module.  No module of the package
    calls it since kappa and the vol inversion read one_minus_x_mills; the
    tests keep it as their oracle.
    """
    if is_scalar(x):
        return _SQRT_HALF_PI * _erfcx(float(x) * _INV_SQRT2)
    x = np.asarray(x, dtype=float)
    return _SQRT_HALF_PI * _erfcx_array(x.ravel() * _INV_SQRT2).reshape(x.shape)


def one_minus_x_mills_reference(x):
    """1 - x M(x) over an array of any shape, as numerics formed it before its
    1-d kernel: each range's t and result chosen by np.where over every
    element.  The kernel must reproduce it bit for bit."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    y = flat * _INV_SQRT2
    small = y <= 0.46875
    big = y > 4.0
    far = np.where(big, flat, 1.0)  # x wherever 2/x^2 is used
    t = np.where(big, 2.0 / far / far, y)
    t = np.where(small, t * t, t)  # at most 4, so no power overflows
    r = _cody_ratios(t)
    erfcx = np.where(small, np.exp(t) * (1.0 - y * r[0]), r[1])
    q = np.where(big, _SQRT_PI * t * r[2], 1.0 - flat * (_SQRT_HALF_PI * erfcx))
    return q.reshape(x.shape)


def bachelier_price(F, k, sigma, T, kind="call"):
    """Undiscounted Bachelier (normal) option price.

    sigma is the annualized normal volatility; at k == F both call and put
    equal sigma * sqrt(T / (2*pi)).
    """
    if sigma <= 0.0 or T <= 0.0:
        raise ValueError("bachelier_price requires sigma > 0 and T > 0")
    s = sigma * math.sqrt(T)
    m = F - k
    d = m / s
    call = m * norm_cdf(d) + s * norm_pdf(d)
    if kind == "call":
        return call
    if kind == "put":
        # parity keeps call - put == F - k exact to the last bit
        return call - m
    raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
