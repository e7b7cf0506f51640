"""Oracle tests for the special functions, Bachelier pricing and inversion,
and the tridiagonal solver.

Spot reference values were computed once with 40-digit mpmath and frozen
here; the dense erfcx grid is checked against mpmath as it runs, and the
tridiagonal solver against a dense LU solve.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ahsabr as ah
from ahsabr import numerics
from ahsabr.errors import PriceOutOfBounds, SingularPivot
from ahsabr.numerics import (
    _erfcx,
    _erfcx_array,
    bachelier_implied_vol,
    bachelier_otm_vols,
    bachelier_price,
    mills_ratio,
    norm_cdf,
    norm_pdf,
    one_minus_x_mills,
    thomas_solve,
)

from conftest import ED_EXPIRY, ED_FORWARD, ED_GRID, ED_PARAMS

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

    def test_cdf_array_matches_scalar(self):
        xs = np.array([x for x, _ in CDF_CASES])
        out = norm_cdf(xs)
        for xi, oi in zip(xs, out):
            assert oi == pytest.approx(norm_cdf(float(xi)), rel=1e-15)

    def test_pdf_spot_and_symmetry(self):
        assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
        assert norm_pdf(1.3) == pytest.approx(norm_pdf(-1.3), rel=1e-15)
        assert norm_pdf(40.0) == 0.0  # underflows cleanly, no warning

    def test_pdf_extreme_argument_is_zero(self):
        assert norm_pdf(1e200) == 0.0
        assert np.all(norm_pdf(np.array([1e160, -1e160])) == 0.0)


class TestMillsRatio:
    @pytest.mark.parametrize("x,expected", MILLS_CASES)
    def test_spot_values(self, x, expected):
        assert float(mills_ratio(x)) == pytest.approx(expected, rel=1e-13)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 60.0, 400)
        vals = mills_ratio(xs)
        assert np.all(np.diff(vals) < 0.0)

    def test_matches_cdf_ratio_in_moderate_range(self):
        for x in (0.1, 1.0, 2.5, 5.0):
            direct = norm_cdf(-x) / norm_pdf(x)
            assert float(mills_ratio(x)) == pytest.approx(direct, rel=1e-12)

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
            assert _erfcx(below) == pytest.approx(_erfcx(above), rel=1e-14)

    def test_extremes(self):
        assert _erfcx(0.0) == 1.0
        assert _erfcx(math.inf) == 0.0
        assert _erfcx(1e200) == pytest.approx(1.0 / (1e200 * math.sqrt(math.pi)), rel=1e-15)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = _erfcx_array(np.array([0.0, math.inf, math.nan, 1e300]))
        assert out[0] == 1.0 and out[1] == 0.0 and math.isnan(out[2])
        assert out[3] == pytest.approx(1.0 / (1e300 * math.sqrt(math.pi)), rel=1e-15)

    def test_mills_ratio_paths_agree(self):
        x = np.geomspace(1e-6, 1e3, 500)
        array = mills_ratio(x)
        assert array.shape == x.shape
        scalar = np.array([mills_ratio(float(v)) for v in x])
        # Horner on floats and a matrix product on arrays round differently
        assert np.max(np.abs(array - scalar) / scalar) < 2e-15
        assert mills_ratio(x.reshape(20, 25)).shape == (20, 25)


class TestOneMinusXMills:
    def test_extremes(self):
        # 1 at 0, 0 at inf, NaN through, 1/x^2 far out, with no warning
        # (powers of a tiny t underflow, as numpy allows by default)
        assert one_minus_x_mills(0.0) == 1.0 and one_minus_x_mills(math.inf) == 0.0
        assert math.isnan(one_minus_x_mills(math.nan))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = one_minus_x_mills(np.array([0.0, math.inf, math.nan, 1e150]))
        assert out[0] == 1.0 and out[1] == 0.0 and math.isnan(out[2])
        assert out[3] == pytest.approx(1e-300, rel=1e-15)
        assert one_minus_x_mills(1e150) == pytest.approx(1e-300, rel=1e-15)
        assert one_minus_x_mills(np.ones((2, 3))).shape == (2, 3)


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

    def test_kernel_evaluations(self, monkeypatch):
        # each Halley step reads q = 1 - u M(u) once, at every element: at
        # most 4 evaluations (3 measured) on the ED smile and on a sweep of u
        # from 1e-12 to 37, which round-trips
        grid = ah.build_uniform_grid(*ED_GRID, ED_FORWARD)
        surface = ah.price_self_consistent(grid, ah.SabrParams(**ED_PARAMS), ED_EXPIRY)
        calls = []

        def counting(x):
            calls.append(np.size(x))
            return one_minus_x_mills(x)

        monkeypatch.setattr(numerics, "one_minus_x_mills", counting)
        vols = ah.implied_vol_curve(surface)
        assert np.sum(np.isfinite(vols)) > 100 and 0 < len(calls) <= 4
        u = np.geomspace(1e-12, 37.0, 401)
        for T in (0.01, 1.0, 30.0):
            price = np.array([bachelier_price(0.0, 0.01, 0.01 / (x * math.sqrt(T)), T)
                              for x in u])
            calls.clear()
            got = bachelier_otm_vols(price, np.full(u.size, 0.01), T)
            assert calls == [u.size] * len(calls) and len(calls) <= 4
            assert np.max(np.abs(got * u * math.sqrt(T) / 0.01 - 1.0)) < 1e-12


class TestBachelierPrice:
    @pytest.mark.parametrize("F,k,sigma,T,expected", BACHELIER_CASES)
    def test_call_spot_values(self, F, k, sigma, T, expected):
        assert bachelier_price(F, k, sigma, T, "call") == pytest.approx(
            expected, rel=1e-14
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
            expected, rel=1e-15
        )

    def test_quadrature_oracle(self):
        import mpmath

        F, k, sigma, T = 0.02, 0.024, 0.008, 3.0
        s = sigma * math.sqrt(T)
        integrand = lambda x: max(F + s * x - k, 0.0) * mpmath.npdf(x)
        oracle, err = mpmath.quad(integrand, [(k - F) / s, 30.0], error=True)
        assert err < 1e-14
        assert bachelier_price(F, k, sigma, T) == pytest.approx(float(oracle), rel=1e-10)

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
        assert vol == pytest.approx(sigma, rel=1e-12)

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
            assert vol == pytest.approx(sigma, rel=1e-10)
            reprice = bachelier_price(F, k, vol, T, kind)
            # price error scales with vega; deep-OTM premiums go through
            # parity and cannot hold a relative bound of their own
            assert abs(reprice - price) <= 1e-12 * sigma * math.sqrt(T)

    def test_put_side_round_trip(self):
        F, k, sigma, T = 0.02, 0.01, 0.006, 5.0
        price = bachelier_price(F, k, sigma, T, "put")
        assert bachelier_implied_vol(price, F, k, T, "put") == pytest.approx(
            sigma, rel=1e-12
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
