"""Fit the start of numerics.bachelier_otm_vols and print its table.

    python tests/fit_otm_vol_start.py

The inversion solves h(u) = exp(eta) for w = log u, where
h(u) = phi(u)/u - Phi(-u) is the time value per unit distance and
u = distance / (sigma sqrt(T)).  The start is w = base + R(y), R a ratio of
two degree-7 polynomials in y, on two branches split at u = 1:

  near (u <= 1)  p = 1/(exp(eta) + 1/2), base = log(p / sqrt(2 pi)),
                 y = p^2 - 1.5, with p^2 at most 3;
  wings (u > 1)  s = -2 (eta + log sqrt(2 pi)), base = log(s) / 2,
                 y = log s - 4.2, with log s from 1.1 to 7.3.

Near the forward h ~ 1/(u sqrt(2 pi)) - 1/2, so the near residual is an
even, analytic function of p that vanishes at u = 0; in the wings
h ~ phi(u)/u^3, so the wing residual falls like log(s)/s.  The wing branch
ends where log s = 7.3, at u = 38.19; past it the start misses and the
bracketed loop takes over.

The truth is h(u) at 30 digits in mpmath, on 2000 points per branch.  Each
branch is a linearised least-squares rational fit in the Chebyshev basis of
z = y / 1.5 (near) or y / 3.1 (wings), reweighted towards the minimax error
(Lawson), then written in powers of y.

The script prints the rows of numerics._START_ROWS and the largest error of
the printed table on the samples and on 20000 more points: 1.9e-14 near the
forward and 1.3e-9 in the wings, in w.  The start must come within 1e-7 of
the root for the first Halley step to meet the stop; the tests hold it to
1e-8.  It runs in about 15 s.
"""

import mpmath
import numpy as np
from numpy.polynomial import chebyshev as C

DEGREE = 7
LOG_S_MAX = 7.3
NEAR_SCALE, WING_SCALE = 1.5, 3.1  # z = y / scale lies in [-1, 1]
mpmath.mp.dps = 30
LOG_SQRT_2PI = mpmath.log(mpmath.sqrt(2 * mpmath.pi))


def h(u):
    return mpmath.npdf(u) / u - mpmath.ncdf(-u)


def near_point(u):
    """(z, residual) on the near branch; the limit at u = 0 is (-1, 0)."""
    if u == 0:
        return -1.0, 0.0
    p = 1 / (h(u) + mpmath.mpf(0.5))
    return float(p * p / NEAR_SCALE - 1), float(mpmath.log(u) - mpmath.log(p) + LOG_SQRT_2PI)


def log_s(u):
    return mpmath.log(-2 * (mpmath.log(h(u)) + LOG_SQRT_2PI))


def wing_point(u):
    ls = log_s(u)
    return float((ls - 4.2) / WING_SCALE), float(mpmath.log(u) - ls / 2)


def samples(point, us):
    z, r = np.array([point(mpmath.mpf(u)) for u in us]).T
    return z, r


def rational_fit(z, r, iterations=60):
    """Numerator and denominator in the Chebyshev basis, denominator
    normalised to a constant term of 1: Sanathanan-Koerner linearisation,
    then Lawson reweighting of the squared error towards its maximum."""
    V = C.chebvander(z, DEGREE)
    den = np.ones_like(z)
    weight = np.ones_like(z)
    for it in range(iterations):
        scale = np.sqrt(weight) / den
        A = np.hstack([V, -r[:, None] * V[:, 1:]]) * scale[:, None]
        c = np.linalg.lstsq(A, r * scale, rcond=None)[0]
        num, den_c = c[:DEGREE + 1], np.concatenate([[1.0], c[DEGREE + 1:]])
        den = C.chebval(z, den_c)
        if it >= 20:
            weight = weight * np.abs(C.chebval(z, num) / den - r)
            weight /= weight.sum()
    return C.cheb2poly(num), C.cheb2poly(den_c)


def evaluate(rows, y):
    powers = np.vander(y, DEGREE + 1, increasing=True).T
    values = rows @ powers
    return values[0] / values[1]


def main():
    u_max = mpmath.findroot(lambda u: log_s(u) - LOG_S_MAX, 38)
    branches = {
        "near": (near_point, NEAR_SCALE, np.linspace(0.0, 1.0, 2000),
                 np.linspace(0.0, 1.0, 20000)),
        "wing": (wing_point, WING_SCALE,
                 np.exp(np.linspace(0.0, float(mpmath.log(u_max)), 2000)),
                 np.exp(np.linspace(0.0, float(mpmath.log(u_max)), 20000))),
    }
    table = []
    for name, (point, scale, fit_us, check_us) in branches.items():
        z, r = samples(point, fit_us)
        num, den = rational_fit(z, r)
        # no pole anywhere in z in [-1, 1], where the kernel evaluates both
        # branches at every element
        assert not any(abs(x.imag) < 1e-9 and abs(x.real) <= 1.0
                       for x in np.roots(den[::-1])), name
        rows = np.array([num, den]) / scale ** np.arange(DEGREE + 1)
        zc, rc = samples(point, check_us)
        print(f"# {name}: largest error in w {np.max(np.abs(evaluate(rows, z * scale) - r)):.2e}"
              f" on the fit points, {np.max(np.abs(evaluate(rows, zc * scale) - rc)):.2e}"
              f" on {check_us.size} more")
        table.extend(rows)
    print(f"# u from 0 to {float(u_max):.4f}")
    print("_START_ROWS = np.array([")
    for row in table:
        print("    [" + ", ".join(repr(float(c)) for c in row) + "],")
    print("])")


if __name__ == "__main__":
    main()
