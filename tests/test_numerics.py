"""Oracle tests for the special functions, Bachelier pricing and inversion,
and the tridiagonal solver.

Spot reference values were computed once with 40-digit mpmath and frozen
here; the dense erfcx grid is checked against mpmath as it runs, and the
tridiagonal solver against a dense LU solve.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ahsabr as ah
from ahsabr import numerics
from ahsabr.ah_engine import SabrParams, kappa, local_vol
from ahsabr.errors import ConvergenceError, PriceOutOfBounds, SingularPivot
from ahsabr.numerics import (
    _INV_SQRT2,
    _erfcx,
    _fitted_log_u,
    bachelier_implied_vol,
    bachelier_otm_vols,
    norm_cdf,
    one_minus_x_mills,
    one_minus_x_mills_1d,
    thomas_solve,
)

from conftest import ED_EXPIRY, ED_FORWARD, ED_GRID, ED_PARAMS
from oracles import (
    _erfcx_array,
    bachelier_price,
    cody_ratio_reference,
    mills_ratio,
    norm_pdf,
    one_minus_x_mills_reference,
)

# 40-digit mpmath values, frozen
CDF_CASES = [
    (0.0, 0.5),
    (0.5, 0.69146246127401310364),
    (1.0, 0.84134474606854294859),
    (2.0, 0.9772498680518207928),
    (-1.5, 0.066807201268858066004),
    (5.0, 0.99999971334842812081),
    (-8.0, 6.2209605742717841235e-16),
]
MILLS_CASES = [
    (0.0, 1.2533141373155002512),
    (0.5, 0.87636445645369234673),
    (1.0, 0.65567954241879847154),
    (3.0, 0.30459029871010329573),
    (10.0, 0.099028596471731921395),
    (50.0, 0.019992009580853567311),
    (1e4, 0.00009999999900000003),
]
BACHELIER_CASES = [
    # (F, k, sigma, T, call price)
    (0.02, 0.015, 0.006, 2.0, 0.0064564024823265174288),
    (0.02, 0.03, 0.012, 0.5, 0.00049741031933974005774),
    (0.0025, 0.0025, 0.0095, 2.0, 0.0053598010437036845929),
]


class TestNormFunctions:
    @pytest.mark.parametrize("x,expected", CDF_CASES)
    def test_cdf_spot_values(self, x, expected):
        assert norm_cdf(x) == pytest.approx(expected, abs=1e-16, rel=1e-14)

    def test_pdf_spot_and_symmetry(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                              rel=1e-15, abs=0.0)
        assert norm_pdf(1.3) == pytest.approx(norm_pdf(-1.3), rel=1e-15, abs=0.0)
        assert norm_pdf(40.0) == 0.0  # underflows cleanly, no warning

    def test_pdf_extreme_argument_is_zero(self):
        assert norm_pdf(1e200) == 0.0
        assert np.all(norm_pdf(np.array([1e160, -1e160])) == 0.0)


class TestMillsRatio:
    @pytest.mark.parametrize("x,expected", MILLS_CASES)
    def test_spot_values(self, x, expected):
        assert float(mills_ratio(x)) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 60.0, 400)
        vals = mills_ratio(xs)
        assert np.all(np.diff(vals) < 0.0)

    def test_matches_cdf_ratio_in_moderate_range(self):
        for x in (0.1, 1.0, 2.5, 5.0):
            direct = norm_cdf(-x) / norm_pdf(x)
            assert float(mills_ratio(x)) == pytest.approx(direct, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("form", [float, int, np.float64, np.asarray])
    def test_scalar_forms_return_the_same_float(self, form):
        # every scalar form runs on Python floats and the math module
        for f in (norm_cdf, mills_ratio):
            got = f(form(3))
            assert type(got) is float and got == f(3.0)

    def test_negative_argument_past_exp_range(self):
        # outside the domain x >= 0, erfcx's exp(x^2/2) overflows: the float
        # path gives numpy's inf, not OverflowError
        with np.errstate(all="ignore"):  # the array path warns there
            want = mills_ratio(np.array([-40.0, -1e200]))
        assert want[0] == math.inf and mills_ratio(-40.0) == math.inf
        assert np.isnan(want[1]) and math.isnan(mills_ratio(-1e200))


def exact_erfcx(y):
    """exp(y^2) erfc(y) at 30 digits, rounded to the nearest double."""
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.exp(mpmath.mpf(y) ** 2) * mpmath.erfc(mpmath.mpf(y)))


def exact_h(u):
    """h(u) = phi(u)/u - Phi(-u), the OTM time value per unit distance, at
    30 digits (an mpmath number)."""
    import mpmath

    with mpmath.workdps(30):
        u = mpmath.mpf(u)
        return mpmath.npdf(u) / u - mpmath.ncdf(-u)


def ulps(got, exact):
    return np.abs(np.asarray(got) - exact) / np.spacing(exact)


class TestErfcx:
    """Cody's rationals against 30-digit values.  scipy.special.erfcx, which
    they replace, is 8, 6 and 4 ulps off on the three ranges of this grid."""

    JOINS = (0.46875, 4.0)
    # the largest error allowed on each range (lo, hi]
    RANGES = ((-1.0, 0.46875, 4), (0.46875, 4.0, 6), (4.0, math.inf, 4))

    def grid(self):
        y = [0.0, *np.geomspace(1e-12, 1e4, 4001)]
        for join in self.JOINS:
            # both sides of every join, a few ulps out
            y += [join + i * np.spacing(join) for i in range(-3, 4)]
        return np.array(sorted(y))

    def test_dense_grid_both_paths(self):
        y = self.grid()
        exact = np.array([exact_erfcx(v) for v in y])
        array = _erfcx_array(y)
        scalar = np.array([_erfcx(float(v)) for v in y])
        for lo, hi, tol in self.RANGES:
            sel = (y > lo) & (y <= hi)
            assert sel.sum() > 100
            assert np.max(ulps(array[sel], exact[sel])) <= tol, (lo, hi)
            assert np.max(ulps(scalar[sel], exact[sel])) <= tol, (lo, hi)

    def test_joins_are_continuous(self):
        for join in self.JOINS:
            below, above = join, float(np.nextafter(join, 10.0))
            assert _erfcx(below) == pytest.approx(_erfcx(above), rel=1e-14, abs=0.0)

    def test_extremes(self):
        assert _erfcx(0.0) == 1.0
        assert _erfcx(math.inf) == 0.0
        assert _erfcx(1e200) == pytest.approx(1.0 / (1e200 * math.sqrt(math.pi)),
                                              rel=1e-15, abs=0.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = _erfcx_array(np.array([0.0, math.inf, math.nan, 1e300]))
        assert out[0] == 1.0 and out[1] == 0.0 and math.isnan(out[2])
        assert out[3] == pytest.approx(1.0 / (1e300 * math.sqrt(math.pi)),
                                       rel=1e-15, abs=0.0)

    def test_mills_ratio_paths_agree(self):
        x = np.geomspace(1e-6, 1e3, 500)
        array = mills_ratio(x)
        assert array.shape == x.shape
        scalar = np.array([mills_ratio(float(v)) for v in x])
        # Horner on floats and a matrix product on arrays round differently
        assert np.max(np.abs(array - scalar) / scalar) < 2e-15
        assert mills_ratio(x.reshape(20, 25)).shape == (20, 25)


class TestCodyRatios:
    """Each range's unrolled ratio against the generic Horner loop it
    replaced (oracles), bit for bit: a dense sweep of t over the range, its
    ends and an ulp either side, 0, inf and NaN."""

    RANGES = [  # (ratio, its pair of _CODY, the range of t)
        (numerics._cody_near, 0, 0.0, 0.46875**2),  # t = y^2
        (numerics._cody_mid, 1, 0.46875, 4.0),  # t = y
        (numerics._cody_far, 2, 0.0, 1.0 / 16.0),  # t = 1/y^2
    ]

    @pytest.mark.parametrize("ratio,j,lo,hi", RANGES, ids=["near", "mid", "far"])
    def test_unrolled_ratio_matches_the_horner_loop(self, ratio, j, lo, hi):
        ends = [math.nextafter(lo, -math.inf), lo, math.nextafter(lo, math.inf),
                math.nextafter(hi, -math.inf), hi, math.nextafter(hi, math.inf)]
        ts = (np.linspace(lo, hi, 100_001).tolist()
              + ends + [0.0, math.inf, math.nan])
        got = [ratio(t).hex() for t in ts]
        assert got == [cody_ratio_reference(numerics._CODY[j], t).hex() for t in ts]
        assert got[-2:] == ["nan", "nan"]


class TestOneMinusXMills:
    def test_extremes(self):
        # 1 at 0, 0 at inf, NaN through, 1/x^2 far out, with no warning
        # (powers of a tiny t underflow, as numpy allows by default)
        assert one_minus_x_mills(0.0) == 1.0 and one_minus_x_mills(math.inf) == 0.0
        assert math.isnan(one_minus_x_mills(math.nan))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = one_minus_x_mills(np.array([0.0, math.inf, math.nan, 1e150]))
        assert out[0] == 1.0 and out[1] == 0.0 and math.isnan(out[2])
        # far out, Cody's third range gives 1/x^2 times 2 sqrt(pi) p_5 / q_5,
        # from its constant terms, which is 1 - 4.4e-15: kappa's 1e-14 bound
        assert out[3] == pytest.approx(1e-300, rel=1e-14, abs=0.0)
        assert one_minus_x_mills(1e150) == pytest.approx(1e-300, rel=1e-14, abs=0.0)
        assert one_minus_x_mills(np.ones((2, 3))).shape == (2, 3)

    @staticmethod
    def near_joins():
        """Each x within 3 ulps of a range join, y = x / sqrt(2) at 0.46875
        and at 4, where the kernel's masks change."""
        out = []
        for join in (0.46875, 4.0):
            x = join / _INV_SQRT2
            below, above = [x], [x]
            for _ in range(3):
                below.append(np.nextafter(below[-1], 0.0))
                above.append(np.nextafter(above[-1], math.inf))
            out += [*below[:0:-1], x, *above[1:]]
        return np.array(out)

    def test_kernel_matches_the_reference_bit_for_bit(self):
        # the 1-d kernel, alone and behind one_minus_x_mills, against the
        # three-range form it replaced (oracles): a dense sweep through all
        # three ranges, 40 decades, both joins within 3 ulps, 0, inf, NaN
        # and 1e150
        joins = self.near_joins()
        for near, join in ((joins[:7], 0.46875), (joins[7:], 4.0)):
            y = near * _INV_SQRT2
            assert (y <= join).any() and (y > join).any()
        x = np.concatenate([
            np.linspace(0.0, 40.0, 400_001), np.geomspace(1e-20, 1e20, 4001),
            joins, [0.0, math.inf, math.nan, 1e150],
        ])
        want = one_minus_x_mills_reference(x).tobytes()
        assert one_minus_x_mills_1d(x).tobytes() == want
        assert one_minus_x_mills(x).tobytes() == want

    def test_kernel_shapes(self):
        # a (2, 3) array through one_minus_x_mills, bit for bit with the
        # reference, and an empty one through it and through the kernel
        x = np.array([[0.0, 0.5, 1.0], [5.0, 6.0, math.inf]])
        assert one_minus_x_mills(x).shape == (2, 3)
        assert (one_minus_x_mills(x).tobytes()
                == one_minus_x_mills_reference(x).tobytes())
        for got in (one_minus_x_mills(np.empty(0)), one_minus_x_mills_1d(np.empty(0))):
            assert got.shape == (0,)


def _hex_digest(values):
    """sha256 of the comma-joined float.hex of a 1-d array."""
    text = ",".join(v.hex() for v in values.tolist())
    return hashlib.sha256(text.encode()).hexdigest()


class TestKernelBits:
    """float.hex of the array kernel q(x) = 1 - x M(x) and of the fitted
    start of the vol inversion on fixed inputs, recorded before the array
    passes were rewritten for fewer numpy calls: a rewrite must keep every
    element's IEEE operations in the same order.  Single elements sit in
    each Cody range, on both joins (y = 0.46875 and y = 4) and one ulp either
    side, and at x = 0 and inf; the longer arrays sweep every range."""

    KERNEL_POINTS = [  # (x, q(x)), each as a length-1 array
        ("0x1.536948017480fp-1", "0x1.e63fc5a792654p-2"),  # y = 0.46875 - ulp
        ("0x1.5369480174810p-1", "0x1.e63fc5a792652p-2"),  # y = 0.46875
        ("0x1.5369480174811p-1", "0x1.e63fc5a792652p-2"),  # y = 0.46875 + ulp
        ("0x1.6a09e667f3bccp+2", "0x1.d634e59b70bc0p-6"),  # y = 4 - ulp
        ("0x1.6a09e667f3bcdp+2", "0x1.d634e59b70be0p-6"),  # y = 4
        ("0x1.6a09e667f3bcep+2", "0x1.d634e59b70b95p-6"),  # y = 4 + ulp
        ("0x0.0p+0", "0x1.0000000000000p+0"),
        ("inf", "0x0.0p+0"),
        ("0x1.3333333333333p-2", "0x1.661e268418f14p-1"),  # 0.3, first range
        ("0x1.0000000000000p+1", "0x1.421256caac5d0p-3"),  # 2, second range
        ("0x1.4000000000000p+3", "0x1.3e4f3becf7884p-7"),  # 10, third range
    ]
    # np.linspace(0, 12, n): all three ranges
    KERNEL_SWEEPS = {
        25: "906914c86a050655aed36a7455d776dc91a7e38f21c92a8b0fcb8dcd5775b423",
        239: "b54de0fb7ae74db813ec1ddbcee47c4f4cc8a19c79016637114a42e8b53850e2",
    }
    START_POINTS = [  # (log h, w) of _fitted_log_u, each as a length-1 array
        ("-0x1.3e18721e04d5bp+1", "0x1.5e11be0000000p-30"),  # log h(1) - ulp
        ("-0x1.3e18721e04d5ap+1", "-0x1.da00000000000p-47"),  # log h(1)
        ("-0x1.3e18721e04d59p+1", "-0x1.ec00000000000p-47"),  # log h(1) + ulp
        ("-0x1.35e408b3b9a76p+1", "-0x1.6d3ede218f060p-6"),  # log s = 1.1
        ("-0x1.7288d1ca99458p+9", "0x1.d23f745e81792p+1"),  # log s = 7.3
        ("-inf", "0x1.d23f745e81792p+1"),
        ("inf", "-inf"),
        ("0x0.0p+0", "-0x1.4988fb69bba83p+0"),
    ]
    # np.linspace(-60, 6, n): both branches and both clamps of log s
    START_SWEEPS = {
        25: "f5573ffde7f33ed98d9a3f16d0b3956a5f2a34fd5109d61330a1fb68295c1872",
        239: "b88c4b91330274fb4dc9f2bad0c8a58fe1bde432fbaebee6aed89a58f510c165",
    }

    @pytest.mark.parametrize("x,want", KERNEL_POINTS)
    def test_kernel_points(self, x, want):
        got = one_minus_x_mills_1d(np.array([float.fromhex(x)]))
        assert got[0].hex() == want

    @pytest.mark.parametrize("n", sorted(KERNEL_SWEEPS))
    def test_kernel_sweeps(self, n):
        got = one_minus_x_mills_1d(np.linspace(0.0, 12.0, n))
        assert _hex_digest(got) == self.KERNEL_SWEEPS[n]

    @pytest.mark.parametrize("log_h,want", START_POINTS)
    def test_start_points(self, log_h, want):
        got = _fitted_log_u(np.array([float.fromhex(log_h)]))
        assert got[0].hex() == want

    @pytest.mark.parametrize("n", sorted(START_SWEEPS))
    def test_start_sweeps(self, n):
        got = _fitted_log_u(np.linspace(-60.0, 6.0, n))
        assert _hex_digest(got) == self.START_SWEEPS[n]


class TestScalarBits:
    """float.hex of the scalar q(x) = 1 - x M(x) and erfcx, and digests of
    scalar kappa and local_vol sweeps, recorded before the scalar Cody
    ratios were unrolled: calibrate reads q through kappa, so a rewrite
    must keep every IEEE operation of the float path in the same order."""

    # (x, q(x)) at TestKernelBits' points, on floats; the scalar Horner
    # rounds differently from the array kernel's matrix product
    Q_POINTS = [
        ("0x1.536948017480fp-1", "0x1.e63fc5a792652p-2"),  # y = 0.46875 - ulp
        ("0x1.5369480174810p-1", "0x1.e63fc5a792652p-2"),  # y = 0.46875
        ("0x1.5369480174811p-1", "0x1.e63fc5a792652p-2"),  # y = 0.46875 + ulp
        ("0x1.6a09e667f3bccp+2", "0x1.d634e59b70b80p-6"),  # y = 4 - ulp
        ("0x1.6a09e667f3bcdp+2", "0x1.d634e59b70b80p-6"),  # y = 4
        ("0x1.6a09e667f3bcep+2", "0x1.d634e59b70b97p-6"),  # y = 4 + ulp
        ("0x0.0p+0", "0x1.0000000000000p+0"),
        ("inf", "0x0.0p+0"),
        ("0x1.3333333333333p-2", "0x1.661e268418f14p-1"),  # 0.3, first range
        ("0x1.0000000000000p+1", "0x1.421256caac5ccp-3"),  # 2, second range
        ("0x1.4000000000000p+3", "0x1.3e4f3becf7885p-7"),  # 10, third range
    ]
    ERFCX_POINTS = [  # (y, erfcx(y)): each range, both joins and an ulp either side
        ("0x0.0p+0", "0x1.0000000000000p+0"),
        ("0x1.0000000000000p-2", "0x1.8a6adcda2ea91p-1"),  # 0.25
        ("0x1.dffffffffffffp-2", "0x1.439ea3683d4cdp-1"),  # 0.46875 - ulp
        ("0x1.e000000000000p-2", "0x1.439ea3683d4cdp-1"),  # 0.46875
        ("0x1.e000000000001p-2", "0x1.439ea3683d4ccp-1"),  # 0.46875 + ulp
        ("0x1.0000000000000p+1", "0x1.058671b52c775p-2"),  # 2
        ("0x1.fffffffffffffp+1", "0x1.18932bf08e155p-3"),  # 4 - ulp
        ("0x1.0000000000000p+2", "0x1.18932bf08e155p-3"),  # 4
        ("0x1.0000000000001p+2", "0x1.18932bf08e153p-3"),  # 4 + ulp
        ("0x1.4000000000000p+3", "0x1.cbe831f997124p-5"),  # 10
        ("0x1.4e718d7d7625ap+664", "0x1.ba394ce53f796p-666"),  # 1e200
        ("inf", "0x0.0p+0"),
    ]
    # kappa at F + xi sigma sqrt(T), xi = 0 and np.geomspace(1e-12, 1e300, 3001),
    # F = 0.02, sigma = 0.01, T = 2
    KAPPA_SWEEP = "91cf9178291c0117ab6b359161524c98b9d505825456f309a83ccad9d07784f5"
    # local_vol at np.linspace(-0.0299, F, 1001) and the same strikes, at
    # alpha 0.02, rho -0.2, nu 0.3, shift 0.03 and each beta
    LOCAL_VOL_SWEEPS = {
        0.0: "39146384d392103504aa8d5c8e6673d7e2d12d3b8405aa59cf6f14d96422c336",
        0.4: "e95239a8d5158e5a6d1a28201d3a4997ea0dcb4da9bf6f3ebf091108c320dcda",
        1.0: "ff198817445f9d5ddd1695809e05d462cc1fadc11a0b6eb8bdc29cf35d1f7ac4",
    }
    F, SIGMA, T = 0.02, 0.01, 2.0

    @classmethod
    def strikes(cls):
        s = cls.SIGMA * math.sqrt(cls.T)
        xis = np.concatenate([[0.0], np.geomspace(1e-12, 1e300, 3001)])
        return (cls.F + xis * s).tolist()

    @pytest.mark.parametrize("x,want", Q_POINTS)
    def test_q_points(self, x, want):
        got = one_minus_x_mills(float.fromhex(x))
        assert type(got) is float and got.hex() == want

    @pytest.mark.parametrize("y,want", ERFCX_POINTS)
    def test_erfcx_points(self, y, want):
        assert _erfcx(float.fromhex(y)).hex() == want

    def test_kappa_sweep(self):
        got = [kappa(k, self.F, self.SIGMA, self.T) for k in self.strikes()]
        assert _hex_digest(np.array(got)) == self.KAPPA_SWEEP

    @pytest.mark.parametrize("beta", sorted(LOCAL_VOL_SWEEPS))
    def test_local_vol_sweeps(self, beta):
        p = SabrParams(alpha=0.02, beta=beta, rho=-0.2, nu=0.3, shift=0.03)
        ks = np.linspace(-0.0299, self.F, 1001).tolist() + self.strikes()
        got = [local_vol(k, self.F, p) for k in ks]
        assert _hex_digest(np.array(got)) == self.LOCAL_VOL_SWEEPS[beta]


class TestBachelierOtmVols:
    def test_seeded_round_trip(self):
        # up to 8 ATM standard deviations from the forward (the value is the
        # same on both sides), T in [0.25, 30], all in one call
        rng = np.random.default_rng(20201)
        n = 4000
        sigma = rng.uniform(1e-4, 0.05, n)
        T = rng.uniform(0.25, 30.0, n)
        distance = rng.uniform(0.0, 8.0, n) * sigma * np.sqrt(T)
        # the OTM call at F + distance, priced without parity
        price = np.array([
            bachelier_price(0.0, d, s, t, "call")
            for d, s, t in zip(distance, sigma, T)
        ])
        got = bachelier_otm_vols(price, distance, T)
        assert np.max(np.abs(got - sigma) / sigma) < 1e-12

    def test_scalar_api_uses_the_kernel(self):
        F, T = 0.02, 3.0
        for k in (0.001, 0.015, 0.0199, 0.0201, 0.03, 0.09):
            price = bachelier_price(F, k, 0.007, T, "put" if k < F else "call")
            vol = float(bachelier_otm_vols([price], [abs(F - k)], T)[0])
            kind = "put" if k < F else "call"
            assert bachelier_implied_vol(price, F, k, T, kind) == vol

    def test_extreme_wings_and_tiny_distances(self):
        # time values from 1e-305 to 1e11 times the distance: the log-space
        # iteration keeps every one in range
        T = 1.0
        u = np.array([1e-12, 1e-6, 0.3, 3.0, 20.0, 37.0])
        distance = np.full(u.size, 0.01)
        price = np.array([bachelier_price(0.0, 0.01, 0.01 / x, T) for x in u])
        assert price.min() > 0.0
        got = bachelier_otm_vols(price, distance, T)
        assert np.max(np.abs(got * u / 0.01 - 1.0)) < 1e-12

    def test_empty_input(self):
        assert bachelier_otm_vols(np.empty(0), np.empty(0), 1.0).size == 0

    @pytest.mark.parametrize("time_value,distance", [
        (0.0, 0.01), (math.nan, 0.01), (math.inf, 0.01), (1e-4, 0.0)])
    def test_out_of_contract_input_raises(self, time_value, distance):
        # a time value of 0, NaN or inf, or a distance of 0, leaves log h
        # without a finite target: the bracketed loop runs its 100 steps and
        # raises rather than return a vol (numpy warns at the log first)
        with np.errstate(all="ignore"), pytest.raises(
                ConvergenceError, match="^normal-vol inversion did not converge$"):
            bachelier_otm_vols([time_value], [distance], 1.0)

    @staticmethod
    def counting(monkeypatch):
        """Record the size of every evaluation of q = 1 - u M(u)."""
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return one_minus_x_mills_1d(x)

        monkeypatch.setattr(numerics, "one_minus_x_mills_1d", counted)
        return calls

    def test_kernel_evaluations(self, monkeypatch):
        # the fitted start lets one Halley step, one evaluation of q at every
        # element, finish the ED smile and a sweep of u from 1e-12 to 37,
        # which round-trips
        grid = ah.build_uniform_grid(*ED_GRID, ED_FORWARD)
        surface = ah.price_self_consistent(grid, ah.SabrParams(**ED_PARAMS), ED_EXPIRY)
        calls = self.counting(monkeypatch)
        vols = ah.implied_vol_curve(surface)
        priced = np.sum(np.isfinite(vols))
        assert priced > 100 and calls == [priced - 1]  # the forward reads no q
        u = np.geomspace(1e-12, 37.0, 401)
        for T in (0.01, 1.0, 30.0):
            price = np.array([bachelier_price(0.0, 0.01, 0.01 / (x * math.sqrt(T)), T)
                              for x in u])
            calls.clear()
            got = bachelier_otm_vols(price, np.full(u.size, 0.01), T)
            assert calls == [u.size]
            assert np.max(np.abs(got * u * math.sqrt(T) / 0.01 - 1.0)) < 1e-12

    def test_start_within_fit_bound(self):
        # the fitted start alone, on a dense sweep of u over the fitted range
        # (the fit script measures 1.3e-9 in the wings); log h(u) is formed
        # from q as the inversion forms it, which puts its rounding, at most
        # 1e-13 in w, on the root
        w = np.linspace(math.log(1e-12), math.log(38.18), 200001)
        u = np.exp(w)
        log_h = (np.log(one_minus_x_mills(u)) - 0.5 * u * u - w
                 - numerics._LOG_SQRT_2PI)
        assert np.max(np.abs(numerics._fitted_log_u(log_h) - w)) <= 1e-8

    def test_vols_against_mpmath(self):
        # OTM prices from h(u) at 30 digits on 300 points of the sweep, each
        # rounded to a double; the vols against d / (u sqrt(T)) at 30 digits.
        # Measured: 3.4e-15, where one ulp of w = log u is 3.6e-15 at
        # u = 1e-12; the bound allows about three
        import mpmath

        u = np.geomspace(1e-12, 37.0, 300)
        price = np.array([float(0.01 * exact_h(x)) for x in u])
        for T in (0.01, 1.0, 30.0):
            with mpmath.workdps(30):
                exact = [float(0.01 / (mpmath.mpf(x) * mpmath.sqrt(T))) for x in u]
            got = bachelier_otm_vols(price, np.full(price.size, 0.01), T)
            assert got == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_missed_elements_take_the_bracketed_loop_alone(self, monkeypatch):
        # in-range elements mixed with misses: u = 38.5 to 42, past the fit
        # (priced at 30 digits, against a distance of 1e200 so that every time
        # value is a normal double), and in-range elements whose start is
        # pushed 1e-3 off.  Every element round-trips; the first evaluation
        # covers all, and every later one only the missed subset.
        u = np.array([1e-12, 0.3, 38.5, 1.0, 40.0, 3.0, 42.0, 20.0, 37.0])
        past = u > 38.19
        price = np.array([float(1e200 * exact_h(x)) for x in u])
        distance = np.full(u.size, 1e200)
        calls = self.counting(monkeypatch)
        got = bachelier_otm_vols(price, distance, 1.0)
        assert np.max(np.abs(got * u / 1e200 - 1.0)) < 1e-12
        assert calls[0] == u.size and len(calls) > 1
        assert set(calls[1:]) == {np.sum(past)}

        pushed = np.arange(u.size) % 3 == 0
        start = numerics._fitted_log_u
        monkeypatch.setattr(numerics, "_fitted_log_u",
                            lambda lt: start(lt) + np.where(pushed, 1e-3, 0.0))
        calls.clear()
        got = bachelier_otm_vols(price, distance, 1.0)
        assert np.max(np.abs(got * u / 1e200 - 1.0)) < 1e-12
        assert calls[0] == u.size and set(calls[1:]) == {np.sum(past | pushed)}


class TestBachelierPrice:
    @pytest.mark.parametrize("F,k,sigma,T,expected", BACHELIER_CASES)
    def test_call_spot_values(self, F, k, sigma, T, expected):
        assert bachelier_price(F, k, sigma, T, "call") == pytest.approx(
            expected, rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("F,k,sigma,T,expected", BACHELIER_CASES)
    def test_parity_exact(self, F, k, sigma, T, expected):
        call = bachelier_price(F, k, sigma, T, "call")
        put = bachelier_price(F, k, sigma, T, "put")
        assert call - put == F - k  # bit-exact by construction

    def test_atm_identity(self):
        sigma, T = 0.0095, 2.0
        expected = sigma * math.sqrt(T / (2.0 * math.pi))
        assert bachelier_price(0.0025, 0.0025, sigma, T) == pytest.approx(
            expected, rel=1e-15, abs=0.0
        )

    def test_quadrature_oracle(self):
        import mpmath

        F, k, sigma, T = 0.02, 0.024, 0.008, 3.0
        s = sigma * math.sqrt(T)
        integrand = lambda x: max(F + s * x - k, 0.0) * mpmath.npdf(x)
        oracle, err = mpmath.quad(integrand, [(k - F) / s, 30.0], error=True)
        assert err < 1e-14
        assert bachelier_price(F, k, sigma, T) == pytest.approx(
            float(oracle), rel=1e-10, abs=0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bachelier_price(0.02, 0.02, -0.01, 1.0)
        with pytest.raises(ValueError):
            bachelier_price(0.02, 0.02, 0.01, 0.0)
        with pytest.raises(ValueError):
            bachelier_price(0.02, 0.02, 0.01, 1.0, kind="straddle")


class TestBachelierImpliedVol:
    @pytest.mark.parametrize("F,k,sigma,T,_", BACHELIER_CASES)
    def test_round_trip(self, F, k, sigma, T, _):
        price = bachelier_price(F, k, sigma, T, "call")
        vol = bachelier_implied_vol(price, F, k, T, "call")
        assert vol == pytest.approx(sigma, rel=1e-12, abs=0.0)

    @given(
        sigma=st.floats(1e-4, 0.05),
        moneyness=st.floats(-4.0, 4.0),
        T=st.floats(0.25, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, sigma, moneyness, T):
        F = 0.02
        k = F + moneyness * sigma * math.sqrt(T)
        for kind in ("call", "put"):
            price = bachelier_price(F, k, sigma, T, kind)
            vol = bachelier_implied_vol(price, F, k, T, kind)
            assert vol == pytest.approx(sigma, rel=1e-10, abs=0.0)
            reprice = bachelier_price(F, k, vol, T, kind)
            # price error scales with vega; deep-OTM premiums go through
            # parity and cannot hold a relative bound of their own
            assert abs(reprice - price) <= 1e-12 * sigma * math.sqrt(T)

    def test_put_side_round_trip(self):
        F, k, sigma, T = 0.02, 0.01, 0.006, 5.0
        price = bachelier_price(F, k, sigma, T, "put")
        assert bachelier_implied_vol(price, F, k, T, "put") == pytest.approx(
            sigma, rel=1e-12, abs=0.0
        )

    def test_at_or_below_intrinsic_rejected(self):
        with pytest.raises(PriceOutOfBounds):
            bachelier_implied_vol(0.005, 0.02, 0.015, 1.0, "call")  # == intrinsic
        with pytest.raises(PriceOutOfBounds):
            bachelier_implied_vol(0.004, 0.02, 0.015, 1.0, "call")
        with pytest.raises(PriceOutOfBounds):
            bachelier_implied_vol(math.inf, 0.02, 0.015, 1.0, "call")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bachelier_implied_vol(0.01, 0.02, 0.02, -1.0)
        with pytest.raises(ValueError):
            bachelier_implied_vol(0.01, 0.02, 0.02, 1.0, kind="digital")


class TestThomasSolve:
    def test_three_by_three_hand_case(self):
        # diag [2,2,2], off-diagonals [1,1], rhs [1,2,3]: solution by hand
        got = thomas_solve(
            np.array([1.0, 1.0]),
            np.array([2.0, 2.0, 2.0]),
            np.array([1.0, 1.0]),
            np.array([1.0, 2.0, 3.0]),
        )
        assert got == pytest.approx([0.5, 0.0, 1.5], abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 7, 25, 50])
    def test_against_dense_solve(self, n):
        rng = np.random.default_rng(1234 + n)
        lower = rng.uniform(-1.0, 1.0, n - 1)
        upper = rng.uniform(-1.0, 1.0, n - 1)
        # diagonally dominant rows, as assembled systems always are
        diag = 2.5 + rng.uniform(0.0, 1.0, n)
        rhs = rng.uniform(-1.0, 1.0, n)
        dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        expected = np.linalg.solve(dense, rhs)
        got = thomas_solve(lower, diag, upper, rhs)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_singular_pivot(self):
        with pytest.raises(SingularPivot):
            thomas_solve(
                np.array([1.0]),
                np.array([0.0, 1.0]),
                np.array([1.0]),
                np.array([1.0, 1.0]),
            )

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            thomas_solve(
                np.array([1.0, 1.0]),
                np.array([2.0, 2.0]),
                np.array([1.0]),
                np.array([1.0, 2.0]),
            )
