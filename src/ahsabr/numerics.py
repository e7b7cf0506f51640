"""The normal CDF, the Mills-ratio complement 1 - x M(x) that kappa and the
vol inversion share, the ATM identity, the Bachelier vol inversion, and
thomas_solve, a general tridiagonal solver that the engine does not call.

Everything here is a pure function of numpy and the standard library; all
other modules build on this one.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, PriceOutOfBounds, SingularPivot

SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_LOG_SQRT_2PI = math.log(SQRT_2PI)
_LOG_PDF_ONE = -0.5 - _LOG_SQRT_2PI  # log phi(1)
_LOG_MAX = math.log(sys.float_info.max)  # math.exp raises OverflowError past it


def is_scalar(x) -> bool:
    """True for a float (np.float64 is one), an int or a 0-d array: the
    kernels run these on Python floats and the math module.  The isinstance
    test comes first, as np.ndim costs about a microsecond."""
    return isinstance(x, float) or np.ndim(x) == 0


def norm_cdf(x):
    """Standard normal CDF of a scalar via the complementary error function."""
    return 0.5 * math.erfc(-float(x) * _INV_SQRT2)


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969), with the coefficients of his CALERF.  One
# (numerator, denominator) pair per range of y, highest degree first, each a
# polynomial in that range's variable t:
#   [0, 0.46875]   erf(y) / y                        t = y^2
#   (0.46875, 4]   erfcx(y)                          t = y
#   (4, inf)       (1/sqrt(pi) - y erfcx(y)) y^2     t = 1/y^2
# The upper two ranges give erfcx(y) = exp(y^2) erfc(y) without forming
# exp(y^2).  The third approximates the difference that 1 - x*M(x) forms
# (one_minus_x_mills), so that kernel reads it there without cancellation.
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
# The scalar operands of the array passes as 0-d arrays, made read-only
# below: numpy converts a Python float operand on every ufunc call and takes
# a 0-d array as it is.  They hold the same doubles, so every element rounds
# as it would against the float.
(_A_ONE, _A_TWO, _A_HALF, _A_INV_SQRT2, _A_SQRT_PI, _A_SQRT_HALF_PI,
 _A_LOG_SQRT_2PI, _A_Y_NEAR, _A_Y_FAR) = _KERNEL_OPERANDS = tuple(map(np.array, (
    1.0, 2.0, 0.5, _INV_SQRT2, _SQRT_PI, _SQRT_HALF_PI, _LOG_SQRT_2PI, 0.46875, 4.0)))


# The scalar path's three ratios num(t) / den(t), one unrolled Horner
# function per range (_unrolled_d for degree d) with its coefficients bound
# from _CODY, so that a call loops over nothing.  Each multiply and add
# comes in the order of the generic Horner loop that tests/oracles.py keeps
# as the reference; the loop's first step, 0 t + a0, is a0 exactly at a
# finite t.
def _unrolled_4(num, den):
    a0, a1, a2, a3, a4 = num
    b0, b1, b2, b3, b4 = den

    def ratio(t: float) -> float:
        n = (((a0 * t + a1) * t + a2) * t + a3) * t + a4
        d = (((b0 * t + b1) * t + b2) * t + b3) * t + b4
        return n / d
    return ratio


def _unrolled_5(num, den):
    a0, a1, a2, a3, a4, a5 = num
    b0, b1, b2, b3, b4, b5 = den

    def ratio(t: float) -> float:
        n = ((((a0 * t + a1) * t + a2) * t + a3) * t + a4) * t + a5
        d = ((((b0 * t + b1) * t + b2) * t + b3) * t + b4) * t + b5
        return n / d
    return ratio


def _unrolled_8(num, den):
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = num
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = den

    def ratio(t: float) -> float:
        n = (((a0 * t + a1) * t + a2) * t + a3) * t + a4
        n = (((n * t + a5) * t + a6) * t + a7) * t + a8
        d = (((b0 * t + b1) * t + b2) * t + b3) * t + b4
        d = (((d * t + b5) * t + b6) * t + b7) * t + b8
        return n / d
    return ratio


_cody_near = _unrolled_4(*_CODY[0])
_cody_mid = _unrolled_8(*_CODY[1])
_cody_far = _unrolled_5(*_CODY[2])


def _erfcx(y: float) -> float:
    """exp(y^2) erfc(y) for a float y >= 0, Cody's three ranges."""
    if y <= 0.46875:
        t = y * y
        # only a negative y past -26.6, outside one_minus_x_mills' domain,
        # takes exp past the double range; numpy's exp gives inf there
        scale = math.exp(t) if t <= _LOG_MAX else math.inf
        return scale * (1.0 - y * _cody_near(t))
    if y <= 4.0:
        return _cody_mid(y)
    inv = 1.0 / y
    t = inv * inv
    return (_INV_SQRT_PI - t * _cody_far(t)) * inv


def _polynomials(rows: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Each row of coefficients (column j multiplies t^j) evaluated at every
    element of a 1-d t, |t| small enough that no power overflows.  The caller
    allocates powers, one row per column of rows, and forms t in row 1, so t
    is written once; rows 0 and 2 on are filled here.  One matrix product
    evaluates every polynomial: a few large numpy calls cost less than a
    Horner loop of small ones.  The powers are built row by row,
    t^j = t^(j-1) t: np.cumprod along the short axis rounds the same and
    costs about twice as much."""
    powers[0] = 1.0
    t = powers[1]
    for j in range(2, rows.shape[1]):
        np.multiply(powers[j - 1], t, out=powers[j])
    return rows @ powers


def one_minus_x_mills(x):
    """q(x) = 1 - x M(x) for x >= 0: 1 at x = 0, falling to 0 like 1/x^2.

    With y = x/sqrt(2) past 4, Cody's third range gives it directly as
    sqrt(pi) t R(t), t = 2/x^2, with no subtraction.  Up to y = 4 it is
    1 - x M(x) with M(x) = sqrt(pi/2) erfcx(y); that difference gives up
    log10(1/q) digits, about 1.5 at y = 4.  An infinite x gives 0.
    A scalar stays on floats and the math module, an array on the 1-d kernel.
    """
    if is_scalar(x):
        x = float(x)
        y = x * _INV_SQRT2
        if y > 4.0:
            t = 2.0 / x / x
            return _SQRT_PI * t * _cody_far(t)
        return 1.0 - x * (_SQRT_HALF_PI * _erfcx(y))
    x = np.asarray(x, dtype=float)
    return one_minus_x_mills_1d(x.ravel()).reshape(x.shape)


def one_minus_x_mills_1d(x: np.ndarray) -> np.ndarray:
    """one_minus_x_mills over a 1-d float array in few numpy calls, whose
    fixed cost, not the arithmetic, dominates at a few hundred elements.
    Each element takes its range's t (y^2, y or 2/x^2, at most 4, so no
    power overflows; 2/x^2 is formed only where y > 4, so x = 0 divides
    nothing), all three ratios are formed at every element, and each element
    reads its own range's.  The operands are 0-d arrays, t is formed in the
    powers' row 1, and each range's value is written over the one before
    with where=, never selected into a third array by np.where."""
    y = x * _A_INV_SQRT2
    small, big = y <= _A_Y_NEAR, y > _A_Y_FAR
    powers = np.empty((_CODY_ROWS.shape[1], x.size))
    t = powers[1]
    np.copyto(t, y)
    np.multiply(y, y, out=t, where=small)
    np.divide(_A_TWO, x, out=t, where=big)
    np.divide(t, x, out=t, where=big)
    values = _polynomials(_CODY_ROWS, powers)
    r = values[:3] / values[3:]
    np.multiply(np.exp(t), _A_ONE - y * r[0], out=r[1], where=small)  # erfcx(y)
    q = _A_ONE - x * (_A_SQRT_HALF_PI * r[1])
    np.multiply(_A_SQRT_PI * t, r[2], out=q, where=big)
    return q


def atm_normal_vol(price, T):
    """Normal vol of an at-the-money option from its price, elementwise, by the
    ATM identity price = vol * sqrt(T / (2 pi)): the package's one spelling."""
    return price * math.sqrt(2.0 * math.pi / T)


# The start of bachelier_otm_vols: w = log u from eta = log(time value /
# distance), as a base plus a ratio of two degree-7 polynomials in y, rows
# numerator then denominator, column j multiplying y^j.  Near the forward
# (u <= 1) p = 1/(exp(eta) + 1/2), the base is log(p / sqrt(2 pi)) and
# y = p^2 - 1.5; in the wings s = -2 (eta + log sqrt(2 pi)), the base is
# log(s) / 2 and y = log s - 4.2, fitted up to log s = 7.3 (u = 38.19).
# tests/fit_otm_vol_start.py fits them to h(u) at 30 digits: within 1.9e-14
# in w near the forward and 1.3e-9 in the wings.
_START_ROWS = np.array([
    [0.19451743749605627, 0.030174984856216513, -0.10375701896351666,
     0.008393127014005313, 0.01493477422883222, -0.0042876303679509,
     0.00037079027176462016, -7.907997382357638e-06],
    [1.3483138237118648, -0.8957486771494317, -0.16987406568731,
     0.27563892355645797, -0.0819810601605564, 0.009787547081155106,
     -0.0004409467371870679, 4.5470857032785675e-06],
    [-0.02071170608485456, -0.005551178559998992, 0.00018252563133506512,
     0.0003415366458320224, -2.2888674827997304e-05, -6.7321307249345945e-06,
     1.0855362906926578e-06, -5.025462577618032e-08],
    [0.20684008344760596, 0.22074262797603575, 0.11273548205079913,
     0.0337730304382109, 0.006607068412616972, 0.0008788888073878447,
     8.16661284990894e-05, 4.214446459433695e-06],
])
_LOG_H_ONE = math.log(math.exp(_LOG_PDF_ONE) - 0.5 * math.erfc(_INV_SQRT2))
# the start's operands, read-only 0-d arrays as the kernel's: the branch
# split, the factor and clamps of s, p^2's clamp and the two y offsets
(_A_LOG_H_ONE, _A_MINUS_TWO, _A_S_LO, _A_S_HI, _A_THREE, _A_NEAR_Y0,
 _A_WING_Y0) = _START_OPERANDS = tuple(map(np.array, (
    _LOG_H_ONE, -2.0, math.exp(1.1), math.exp(7.3), 3.0, 1.5, 4.2)))
for _a in _KERNEL_OPERANDS + _START_OPERANDS:
    _a.flags.writeable = False


def _fitted_log_u(log_target):
    """The fitted start, w = log u, for a 1-d log_target = log h(u).  Both
    branches' y are formed at every element, held to the ranges where
    neither denominator vanishes: p^2 at most 3, log s from 1.1 to 7.3."""
    near = log_target >= _A_LOG_H_ONE
    inv_p = np.exp(log_target) + _A_HALF
    log_s = np.log(np.minimum(np.maximum(
        _A_MINUS_TWO * (log_target + _A_LOG_SQRT_2PI), _A_S_LO), _A_S_HI))
    powers = np.empty((_START_ROWS.shape[1], log_target.size))
    y = powers[1]
    np.subtract(log_s, _A_WING_Y0, out=y)
    np.subtract(np.minimum(_A_ONE / (inv_p * inv_p), _A_THREE), _A_NEAR_Y0,
                out=y, where=near)
    r = _polynomials(_START_ROWS, powers)
    base = _A_HALF * log_s
    np.subtract(-np.log(inv_p), _A_LOG_SQRT_2PI, out=base, where=near)
    np.copyto(r[2:], r[:2], where=near)  # the near rows over the wing rows
    return base + r[2] / r[3]


def _halley_step(w, log_target):
    """The residual g = log h(e^w) - log_target and the Halley step in w,
    from one evaluation of q = 1 - u M(u) by the 1-d kernel: w is 1-d."""
    u = np.exp(w)
    q = one_minus_x_mills_1d(u)
    g = np.log(q) - _A_HALF * u * u - w - _A_LOG_SQRT_2PI - log_target
    return g, g * q / (_A_ONE - _A_HALF * g * (q * (_A_ONE + u * u) - _A_ONE))


def _bracketed_log_u(w, log_target):
    """Halley's method from w, each element kept inside a bracket [lo, hi]
    that holds its root and bisected whenever a step would leave it; for
    the elements whose fitted start misses."""
    target = np.exp(log_target)
    # h(u) >= phi(1)/u - 1/2 for u <= 1 and h(u) <= phi(u)/u for u >= 1
    # give h(e^lo) >= target >= h(e^hi)
    lo = np.minimum(0.0, _LOG_PDF_ONE - np.log(target + 0.5))
    hi = 0.5 * np.log(np.maximum(1.0, -2.0 * (log_target + _LOG_SQRT_2PI)))
    w = np.clip(w, lo, hi)
    for _ in range(100):
        g, step = _halley_step(w, log_target)
        if np.max(np.abs(step)) <= 1e-7:
            return w + step
        lo = np.where(g > 0.0, w, lo)
        hi = np.where(g < 0.0, w, hi)
        w = w + step
        w = np.where((w >= lo) & (w <= hi), w, 0.5 * (lo + hi))
    raise ConvergenceError("normal-vol inversion did not converge")


def bachelier_otm_vols(time_value, distance, T):
    """Annualized normal vols of options from their time values, one per
    element: time_value > 0, distance = |F - k| > 0 and the expiry T > 0
    broadcast against each other.

    With u = distance / (sigma sqrt(T)), the time value is distance * h(u),
    h(u) = phi(u) (1 - u M(u)) / u, which falls from +inf to 0 with
    h'(u) = -phi(u) / u^2 (Jaeckel, "Implied normal volatility", Wilmott
    2017).  With q = 1 - u M(u) (one_minus_x_mills), log h is concave in
    w = log u, with slope -1/q and curvature (q (1 + u^2) - 1) / q^2, so
    both derivatives come free with q.  Halley's method on
    g = log h - log(target) in w scales the deep wings as well as the near
    strikes: its step g q / (1 - g (q (1 + u^2) - 1) / 2) converges
    cubically, and a step below 1e-7 leaves w exact.

    The start is fitted to log(target) on two branches split at u = 1 (the
    table _START_ROWS, made by tests/fit_otm_vol_start.py), within 1.3e-9 of
    the root in w for u up to 38.19.  So one step, one evaluation of q at
    every element, finishes every element in that range; the ED smile and a
    sweep of u from 1e-12 to 37 take exactly one.  Only the elements whose
    step misses the stop go on, in a bracketed Halley loop
    (_bracketed_log_u) on that subset alone.
    """
    distance = np.asarray(distance, dtype=float)
    log_target = np.log(time_value) - np.log(distance)
    shape = np.shape(log_target)
    log_target = np.ravel(log_target)
    w = _fitted_log_u(log_target)
    step = _halley_step(w, log_target)[1]
    root = w + step
    miss = ~(np.abs(step) <= 1e-7)  # a NaN misses too
    if miss.any():
        root[miss] = _bracketed_log_u(w[miss], log_target[miss])
    return distance / (np.exp(root.reshape(shape)) * np.sqrt(T))


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
        return atm_normal_vol(price, T)
    return float(bachelier_otm_vols([time_value], [abs(F - k)], T)[0])


def thomas_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the tridiagonal system with sub-diagonal `lower` and
    super-diagonal `upper` (length N-1) and diagonal `diag` (length N) for
    the right-hand side `rhs` (length N) by the Thomas algorithm.

    The general solver, without pivoting; a zero pivot raises SingularPivot.
    The engine calls no general solver: it divides each one-step row by its
    z and sweeps only the pivots towards the single source (ah_engine).  The
    loops run on Python floats, which round exactly as float64 numpy scalars
    do at a fraction of their cost.
    """
    n = len(diag)
    if len(lower) != n - 1 or len(upper) != n - 1 or len(rhs) != n:
        raise ValueError("inconsistent tridiagonal system dimensions")
    # row 0 has no sub-diagonal and row N-1 no super-diagonal entry
    lower = [0.0] + np.asarray(lower, dtype=float).tolist()
    diag = np.asarray(diag, dtype=float).tolist()
    upper = np.asarray(upper, dtype=float).tolist() + [0.0]
    rhs = np.asarray(rhs, dtype=float).tolist()
    c, d, c_prev, d_prev = [], [], 0.0, 0.0
    for i, (a, b, u, v) in enumerate(zip(lower, diag, upper, rhs)):
        piv = b - a * c_prev
        if abs(piv) < 1e-300:
            raise SingularPivot(f"zero pivot at row {i}")
        c_prev = u / piv
        d_prev = (v - a * d_prev) / piv
        c.append(c_prev)
        d.append(d_prev)
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)
