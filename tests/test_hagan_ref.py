"""Reference-model tests: the shifted lognormal implied-vol expansion and the
Black pricing layer feeding the recalibration workflow."""

import math

import mpmath
import pytest

from ahsabr.ah_engine import SabrParams, build_uniform_grid
from ahsabr.errors import NonpositiveShiftedStrike
from ahsabr.hagan_ref import (_z_over_x, hagan_implied_vol, hagan_price,
                              hagan_price_fn)
from ahsabr.numerics import atm_normal_vol

from conftest import (
    ED_EXPIRY,
    ED_FORWARD,
    ED_GRID,
    ED_PARAMS,
    HAGAN_EXPIRY,
    HAGAN_FORWARD,
    HAGAN_SOURCE,
)


def quote(strike, forward=0.02, expiry=10.0, **params):
    """(strike, forward, expiry, params) of a quote on the Hagan source."""
    base = dict(HAGAN_SOURCE)
    base.update(params)
    return strike, forward, expiry, SabrParams(**base)


def mp_z_over_x(z, rho):
    """z / x(z) from the log form, at the working precision."""
    if z == 0:
        return mpmath.mpf(1)
    s = mpmath.sqrt(1 - 2 * rho * z + z * z)
    return z / mpmath.log((s + z - rho) / (1 - rho))


def mp_hagan_vol(f, K, expiry, p):
    """The expansion of hagan_implied_vol at the shifted forward f and
    strike K, every step at the working precision."""
    alpha, beta, rho, nu = map(mpmath.mpf, (p.alpha, p.beta, p.rho, p.nu))
    one_m_beta = 1 - beta
    log_fk = mpmath.log(mpmath.mpf(f) / K)
    fk_mid = (mpmath.mpf(f) * K) ** (one_m_beta / 2)
    corr = 1 + (one_m_beta**2 * alpha**2 / (24 * fk_mid**2)
                + rho * beta * nu * alpha / (4 * fk_mid)
                + (2 - 3 * rho**2) * nu**2 / 24) * expiry
    denom = fk_mid * (1 + one_m_beta**2 * log_fk**2 / 24
                      + one_m_beta**4 * log_fk**4 / 1920)
    return alpha / denom * mp_z_over_x(nu / alpha * fk_mid * log_fk, rho) * corr


def assert_vols_exact(source, forward, expiry, strikes):
    """hagan_implied_vol within 1e-14 of mp_hagan_vol at 40 digits, which
    takes the doubles f and K that the code forms."""
    p = SabrParams(**source)
    f = forward + p.shift
    with mpmath.workdps(40):
        for k in strikes:
            exact = mp_hagan_vol(f, mpmath.mpf(k + p.shift), expiry, p)
            vol = hagan_implied_vol(k, forward, expiry, p)
            assert vol == pytest.approx(float(exact), rel=1e-14, abs=0.0), k


# (params, forward, expiry) of the sources the near-ATM vols are checked on
NEAR_ATM_SETS = {
    "hagan": (HAGAN_SOURCE, HAGAN_FORWARD, HAGAN_EXPIRY),
    "hagan-f2": (HAGAN_SOURCE, 0.02, 10.0),
    "ed": (ED_PARAMS, ED_FORWARD, ED_EXPIRY),
    "steep": (dict(alpha=0.02, beta=0.9, rho=0.5, nu=1.5, shift=0.01), 0.02, 1.0),
    "flat": (dict(alpha=0.5, beta=0.5, rho=-0.9, nu=0.05, shift=0.03), 0.02, 1.0),
}


class TestZOverX:
    """One formula for z / x(z), exact to a few ulps on both sides of z = 0,
    where a series, a switch or the log of 1 + O(z) lose digits."""

    def test_against_mpmath(self):
        zs = [0.0, -0.0] + [
            sign * 10.0 ** (e / 8) for e in range(-112, 17) for sign in (1, -1)
        ]
        rhos = [r / 100 for r in range(-99, 100, 3)]
        worst = (0.0, 0.0, 0.0)
        with mpmath.workdps(40):
            for rho in rhos:
                for z in zs:
                    exact = mp_z_over_x(mpmath.mpf(z), mpmath.mpf(rho))
                    err = float(abs(_z_over_x(z, rho) / exact - 1))
                    worst = max(worst, (err, z, rho))
        assert worst[0] <= 5e-14, f"relative error, z, rho: {worst}"


class TestHaganImpliedVol:
    @pytest.mark.parametrize("name", NEAR_ATM_SETS)
    def test_near_atm_against_mpmath(self, name):
        # strikes f e^(+-eps) - b, and F + 5e-9, which straddled the retired
        # ATM switch
        source, forward, expiry = NEAR_ATM_SETS[name]
        f, b = forward + source["shift"], source["shift"]
        strikes = [forward, forward + 5e-9] + [
            f * math.exp(sign * 10.0**-e) - b
            for e in range(1, 15) for sign in (1, -1)
        ]
        assert_vols_exact(source, forward, expiry, strikes)

    def test_ed_smile_against_mpmath(self):
        # the strikes the CLI's recalibrate prices the source on; far above
        # the forward z is large and negative, where s + z - rho cancels
        strikes = build_uniform_grid(*ED_GRID, ED_FORWARD).strikes.tolist()
        assert_vols_exact(ED_PARAMS, ED_FORWARD, ED_EXPIRY, strikes)

    def test_shifted_positivity(self):
        with pytest.raises(NonpositiveShiftedStrike, match=r"k \+ shift > 0"):
            hagan_implied_vol(*quote(-0.031))
        with pytest.raises(NonpositiveShiftedStrike, match=r"k \+ shift > 0"):
            hagan_implied_vol(*quote(0.02, forward=-0.04))
        with pytest.raises(NonpositiveShiftedStrike, match=r"k \+ shift > 0"):
            hagan_price(*quote(-0.031))

    @pytest.mark.parametrize("expiry", [0.0, -1.0, math.nan, math.inf])
    def test_expiry_must_be_positive_and_finite(self, expiry):
        # rejected as input, never a ZeroDivisionError, a math domain error
        # or a NaN price that reads as a model breakdown
        q = quote(0.018, expiry=expiry)
        with pytest.raises(ValueError, match="expiry must be positive and finite"):
            hagan_implied_vol(*q)
        with pytest.raises(ValueError, match="expiry must be positive and finite"):
            hagan_price(*q)

    def test_black_limit(self):
        # beta = 1, nu = 0: the shifted rate is exactly lognormal at vol alpha
        q = quote(0.015, expiry=5.0, beta=1.0, nu=0.0, rho=0.0, alpha=0.25)
        assert hagan_implied_vol(*q) == pytest.approx(0.25, rel=1e-15, abs=0.0)

    def test_atm_leading_order(self):
        # short maturity: the T-correction vanishes and the ATM vol tends to
        # alpha / (F+b)^(1-beta)
        q = quote(0.02, expiry=1e-6)
        p = q[-1]
        lead = p.alpha / (0.02 + p.shift) ** (1.0 - p.beta)
        assert hagan_implied_vol(*q) == pytest.approx(lead, rel=1e-5, abs=0.0)

    def test_smile_is_smooth(self):
        h = 0.0005
        strikes = [0.005 + h * j for j in range(60)]
        vols = [hagan_implied_vol(*quote(k)) for k in strikes]
        second = [
            abs(vols[j - 1] - 2.0 * vols[j] + vols[j + 1]) / (h * h)
            for j in range(1, len(vols) - 1)
        ]
        assert max(second) < 1e4  # bounded curvature, no kinks

    def test_positive_across_strikes(self):
        for k in (-0.02, 0.0, 0.02, 0.10, 0.20):
            assert hagan_implied_vol(*quote(k)) > 0.0


class TestHaganPrice:
    def test_atm_normal_vol_equivalence_short_maturity(self):
        # for short T the lognormal and normal ATM quotes agree through the
        # price: invert the Hagan ATM price as a Bachelier price and compare
        # with sigma_LN * (F+b)
        F, T = 0.02, 0.05
        q = quote(F, expiry=T)
        sigma_ln = hagan_implied_vol(*q)
        price = hagan_price(*q)
        sigma_n = atm_normal_vol(price, T)
        approx = sigma_ln * (F + q[-1].shift)
        assert sigma_n == pytest.approx(approx, abs=1e-5)  # within 0.1 bp

    @pytest.mark.parametrize("strike", [-0.02, -0.025])
    def test_otm_put_against_mpmath(self, strike):
        # parity, call - (F - k), cancels at these strikes: it gives 6.9e-18
        # and 3.5e-18 where the Black put is 1.23e-18 and 1.9e-25
        import mpmath

        q = quote(strike, forward=HAGAN_FORWARD, expiry=0.25)
        with mpmath.workdps(50):
            shift = mpmath.mpf(q[-1].shift)
            f, K = HAGAN_FORWARD + shift, strike + shift
            s = mpmath.mpf(hagan_implied_vol(*q)) * mpmath.sqrt(0.25)
            d1 = mpmath.log(f / K) / s + s / 2
            black_put = float(K * mpmath.ncdf(s - d1) - f * mpmath.ncdf(-d1))
        put = hagan_price(*q)
        assert put == pytest.approx(black_put, rel=1e-12, abs=0.0)


# (strike, vol, price) as float.hex on the published source at F 0.3%, T 10:
# the strikes F, F +- h and F +- 2h of recalibrate's quotes for h in 5e-4,
# 1.25e-3 and 2.5e-3, recorded before the strike-independent terms were
# formed once per source
PINNED_SMILE = [
    (-0.002, "0x1.87ea84d9f1878p-3", "0x1.484c5ba57e556p-8"),
    (0.0005, "0x1.766fc37178ed6p-3", "0x1.8bad482042504p-8"),
    (0.00175, "0x1.6ece158968e76p-3", "0x1.b12fae92df9b0p-8"),
    (0.002, "0x1.6d5ceee43a79ep-3", "0x1.b9008c6d85dc2p-8"),
    (0.0025, "0x1.6a8faee6ab914p-3", "0x1.c8f36336ae526p-8"),
    (0.003, "0x1.67de1025bba85p-3", "0x1.d952c947e0e60p-8"),
    (0.0035, "0x1.65478c08f1037p-3", "0x1.c95a7b44d238ap-8"),
    (0.004, "0x1.62cb9bfa9f768p-3", "0x1.b9cf3e1b5e348p-8"),
    (0.00425, "0x1.6197714f663fap-3", "0x1.b23285b68f5e4p-8"),
    (0.0055, "0x1.5bf1f9ef9d285p-3", "0x1.8dbabb7326080p-8"),
    (0.008, "0x1.5268c824ecad3p-3", "0x1.4ca1aa8a34d50p-8"),
]


class TestPriceFn:
    def test_pinned_bits(self):
        # the closure and both one-strike forms give the recorded doubles
        p, F, T = SabrParams(**HAGAN_SOURCE), HAGAN_FORWARD, HAGAN_EXPIRY
        strikes = sorted({F + j * h for h in (5e-4, 1.25e-3, 2.5e-3)
                          for j in (-2, -1, 0, 1, 2)})
        assert strikes == [k for k, _, _ in PINNED_SMILE]
        price = hagan_price_fn(p, F, T)
        for k, vol, want in PINNED_SMILE:
            assert hagan_implied_vol(k, F, T, p).hex() == vol, k
            assert hagan_price(k, F, T, p).hex() == want, k
            assert price(k).hex() == want, k

    @pytest.mark.parametrize("forward,expiry,error,message", [
        (-0.03, 10.0, NonpositiveShiftedStrike,
         "strike 0.018 or forward -0.03 violates k + shift > 0"),
        (-0.04, 10.0, NonpositiveShiftedStrike,
         "strike 0.018 or forward -0.04 violates k + shift > 0"),
    ])
    def test_built_without_raising(self, forward, expiry, error, message):
        # the source is built whatever its forward; each price raises what
        # hagan_price raised before the closure, type and message
        *_, p = quote(0.018)
        price = hagan_price_fn(p, forward, expiry)
        for fn in (price, lambda k: hagan_price(k, forward, expiry, p)):
            with pytest.raises(error) as info:
                fn(0.018)
            assert str(info.value) == message

    @pytest.mark.parametrize("expiry", [0.0, -1.0, math.nan, math.inf])
    def test_bad_expiry_raised_at_build(self, expiry):
        # the source checks its expiry once, when it is built; the
        # one-strike form raises the same error, type and message
        *_, p = quote(0.018)
        for build in (lambda: hagan_price_fn(p, 0.02, expiry),
                      lambda: hagan_price(0.018, 0.02, expiry, p)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == (
                f"expiry must be positive and finite, got {expiry!r}")

    @pytest.mark.parametrize("big", ["alpha", "nu"])
    def test_overflowing_square_raised_at_build(self, big):
        # alpha or nu past 1.3e154 overflows its square when the source is
        # built, before any strike is read; a bad expiry is checked first
        *_, p = quote(0.018, **{big: 1e200})
        with pytest.raises(OverflowError) as info:
            hagan_price_fn(p, 0.02, 10.0)
        assert info.value.args == (34, "Numerical result out of range")
        with pytest.raises(OverflowError, match="Numerical result out of range"):
            hagan_price(-0.031, 0.02, 10.0, p)
        with pytest.raises(ValueError, match="expiry"):
            hagan_price_fn(p, 0.02, -1.0)
