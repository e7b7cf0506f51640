"""Normal distribution kernels, Bachelier pricing and inversion, and the
tridiagonal solver.

Everything here is a pure function of numpy and the standard library; all
other modules build on this one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, PriceOutOfBounds, SingularPivot

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_LOG_SQRT_2PI = math.log(SQRT_2PI)
_LOG_PDF_ONE = -0.5 - _LOG_SQRT_2PI  # log phi(1)


def norm_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi). Accepts scalars or arrays."""
    with np.errstate(over="ignore"):
        # x^2 overflowing to inf still maps to the correct density of 0
        return np.exp(-0.5 * np.square(x)) / SQRT_2PI


def norm_cdf(x):
    """Standard normal CDF via the complementary error function."""
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(-float(x) * _INV_SQRT2)
    x = np.asarray(x, dtype=float)
    # element by element through the scalar branch, so both agree bit for bit
    return np.array([norm_cdf(v) for v in x.ravel().tolist()]).reshape(x.shape)


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969), with the coefficients of his CALERF.  One
# (numerator, denominator) pair per range of y, highest degree first, each a
# polynomial in that range's variable t:
#   [0, 0.46875]   erf(y) / y                        t = y^2
#   (0.46875, 4]   erfcx(y)                          t = y
#   (4, inf)       (1/sqrt(pi) - y erfcx(y)) y^2     t = 1/y^2
# The upper two ranges give erfcx(y) = exp(y^2) erfc(y) without forming
# exp(y^2), so 1 - x*M(x) keeps its digits far into the tail.
_CODY = (
    ((1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
      3.77485237685302021e2, 3.20937758913846947e3),
     (1.0, 2.36012909523441209e1, 2.44024637934444173e2,
      1.28261652607737228e3, 2.84423683343917062e3)),
    ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
      6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
      1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
     (1.0, 1.57449261107098347e1, 1.17693950891312499e2,
      5.37181101862009858e2, 1.62138957456669019e3, 3.29079923573345963e3,
      4.36261909014324716e3, 3.43936767414372164e3, 1.23033935480374942e3)),
    ((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
     (1.0, 2.56852019228982242e0, 1.87295284992346725e0,
      5.27905102951428412e-1, 6.05183413124413191e-2, 2.33520497626869185e-3)),
)
# the same six polynomials as rows, numerators first: column j multiplies t^j
_CODY_ROWS = np.zeros((6, 9))
for _j, (_num, _den) in enumerate(_CODY):
    _CODY_ROWS[_j, :len(_num)] = _num[::-1]
    _CODY_ROWS[3 + _j, :len(_den)] = _den[::-1]


def _cody_ratio(pair, t: float) -> float:
    num = den = 0.0
    for a, b in zip(*pair):  # Horner; both have the same degree
        num = num * t + a
        den = den * t + b
    return num / den


def _erfcx(y: float) -> float:
    """exp(y^2) erfc(y) for a float y >= 0, Cody's three ranges."""
    if y <= 0.46875:
        t = y * y
        return math.exp(t) * (1.0 - y * _cody_ratio(_CODY[0], t))
    if y <= 4.0:
        return _cody_ratio(_CODY[1], y)
    inv = 1.0 / y
    t = inv * inv
    return (_INV_SQRT_PI - t * _cody_ratio(_CODY[2], t)) * inv


def _erfcx_array(y: np.ndarray) -> np.ndarray:
    """_erfcx over a 1-d array.  Every element gets its range's t, and one
    matrix product evaluates the six polynomials at every element: a few
    large numpy calls cost less than a Horner loop of small ones."""
    small = y <= 0.46875
    big = y > 4.0
    inv = 1.0 / np.maximum(y, 4.0)  # 1/y wherever it is used
    t = np.where(big, inv * inv, y)
    t = np.where(small, t * t, t)  # at most 4, so no power overflows
    powers = np.empty((9, t.size))
    powers[0] = 1.0
    powers[1:] = t
    np.cumprod(powers, axis=0, out=powers)
    values = _CODY_ROWS @ powers
    q = values[:3] / values[3:]
    return np.where(small, np.exp(t) * (1.0 - y * q[0]),
                    np.where(big, (_INV_SQRT_PI - t * q[2]) * inv, q[1]))


def mills_ratio(x):
    """Phi(-x)/phi(x) for x >= 0, stable for arbitrarily large x.

    Uses the scaled complementary error function, so neither the tail CDF nor
    the density is ever formed on its own (both underflow past x ~ 38).  A
    0-d input stays on floats and the math module.
    """
    if np.ndim(x) == 0:
        return _SQRT_HALF_PI * _erfcx(float(x) * _INV_SQRT2)
    x = np.asarray(x, dtype=float)
    return _SQRT_HALF_PI * _erfcx_array(x.ravel() * _INV_SQRT2).reshape(x.shape)


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


def bachelier_otm_vols(time_value, distance, T):
    """Annualized normal vols of options from their time values, one per
    element: time_value > 0, distance = |F - k| > 0 and the expiry T > 0
    broadcast against each other.

    With u = distance / (sigma sqrt(T)), the time value is distance * h(u),
    h(u) = phi(u) (1 - u M(u)) / u, which falls from +inf to 0 with
    h'(u) = -phi(u) / u^2 (Jaeckel, "Implied normal volatility", Wilmott
    2017).  log h is concave in w = log u, with slope -1/(1 - u M(u)), so
    Newton's method on log h - log(target) in w scales the deep wings as well
    as the near strikes.  Each element keeps a bracket [lo, hi] in w that
    holds its root, and bisects it whenever a Newton step would leave it.
    """
    distance = np.asarray(distance, dtype=float)
    log_target = np.log(time_value) - np.log(distance)
    target = np.exp(log_target)
    # h(u) >= phi(1)/u - 1/2 for u <= 1 and h(u) <= phi(u)/u for u >= 1
    # give h(e^lo) >= target >= h(e^hi)
    lo = np.minimum(0.0, _LOG_PDF_ONE - np.log(target + 0.5))
    hi = 0.5 * np.log(np.maximum(1.0, -2.0 * (log_target + _LOG_SQRT_2PI)))
    # start from h(u) ~ 1/(u sqrt(2 pi)) - 1/2 + u/(2 sqrt(2 pi)) near the
    # forward and from h(u) ~ phi(u)/u^3 in the wings
    a = target + 0.5
    near = np.log(2.0 / SQRT_2PI) - np.log(
        a + np.sqrt(np.maximum(a * a - 1.0 / math.pi, 0.0))
    )
    s = np.maximum(1.0, -2.0 * (log_target + _LOG_SQRT_2PI))
    far = 0.5 * np.log(np.maximum(1.0, s - 3.0 * np.log(s)))
    w = np.clip(np.where(a * a > 1.0 / math.pi, near, far), lo, hi)
    for _ in range(100):
        u = np.exp(w)
        q = 1.0 - u * mills_ratio(u)
        g = np.log(q) - 0.5 * u * u - w - _LOG_SQRT_2PI - log_target
        newton = g * q
        if np.max(np.abs(newton), initial=0.0) <= 1e-10:
            # convergence is quadratic: this last step leaves w exact
            return distance / (np.exp(w + newton) * np.sqrt(T))
        lo = np.where(g > 0.0, w, lo)
        hi = np.where(g < 0.0, w, hi)
        w = w + newton
        w = np.where((w >= lo) & (w <= hi), w, 0.5 * (lo + hi))
    raise ConvergenceError("normal-vol inversion did not converge")


def bachelier_implied_vol(price, F, k, T, kind="call"):
    """Invert the Bachelier formula for the annualized normal volatility.

    The reproduced price matches the input to ~1e-12 relative.  Raises
    PriceOutOfBounds if the price does not sit strictly above intrinsic
    (any larger finite price is attainable in the normal model).
    """
    if T <= 0.0:
        raise ValueError("bachelier_implied_vol requires T > 0")
    if kind not in ("call", "put"):
        raise ValueError(f"kind must be 'call' or 'put', got {kind!r}")
    if not math.isfinite(price):
        raise PriceOutOfBounds(f"price {price} is not finite")
    intrinsic = max(F - k, 0.0) if kind == "call" else max(k - F, 0.0)
    time_value = price - intrinsic
    if time_value <= 0.0:
        raise PriceOutOfBounds(
            f"price {price} is at or below intrinsic for strike {k}"
        )
    if k == F:
        return price * SQRT_2PI / math.sqrt(T)
    return float(bachelier_otm_vols([time_value], [abs(F - k)], T)[0])


def thomas_solve(lower, diag, upper, *rhs) -> list:
    """Solve the tridiagonal system with sub-diagonal `lower` and
    super-diagonal `upper` (length N-1) and diagonal `diag` (length N) for
    each right-hand side (length N) by the Thomas algorithm (no pivoting).
    Returns one solution array per right-hand side.

    The elimination (pivots and the scaled super-diagonal) runs once for all
    right-hand sides.  Its loops run on Python floats, which round exactly as
    float64 numpy scalars do at a fraction of their per-operation cost.
    Assembled pricing systems are strictly diagonally dominant so pivoting is
    unnecessary; a SingularPivot guard remains as defense in depth.
    """
    n = len(diag)
    if len(lower) != n - 1 or len(upper) != n - 1 or any(len(r) != n for r in rhs):
        raise ValueError("inconsistent tridiagonal system dimensions")
    # row 0 has no sub-diagonal and row N-1 no super-diagonal entry
    lower = [0.0] + np.asarray(lower, dtype=float).tolist()
    diag = np.asarray(diag, dtype=float).tolist()
    upper = np.asarray(upper, dtype=float).tolist() + [0.0]
    pivots, c, c_prev = [], [], 0.0
    for i, (a, b, u) in enumerate(zip(lower, diag, upper)):
        piv = b - a * c_prev
        if abs(piv) < 1e-300:
            raise SingularPivot(f"zero pivot at row {i}")
        c_prev = u / piv
        pivots.append(piv)
        c.append(c_prev)

    out = []
    for r in rhs:
        d, prev = [], 0.0
        for a, piv, v in zip(lower, pivots, np.asarray(r, dtype=float).tolist()):
            prev = (v - a * prev) / piv
            d.append(prev)
        for i in range(n - 2, -1, -1):
            d[i] -= c[i] * d[i + 1]
        out.append(np.array(d))
    return out
