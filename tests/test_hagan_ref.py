"""Reference-model tests: the shifted lognormal implied-vol expansion and the
Black pricing layer feeding the recalibration workflow."""

import math

import pytest

from ahsabr.ah_engine import SabrParams
from ahsabr.errors import NonpositiveShiftedStrike
from ahsabr.hagan_ref import hagan_implied_vol, hagan_price
from ahsabr.numerics import atm_normal_vol

from conftest import HAGAN_FORWARD, HAGAN_SOURCE


def quote(strike, forward=0.02, expiry=10.0, **params):
    """(strike, forward, expiry, params) of a quote on the Hagan source."""
    base = dict(HAGAN_SOURCE)
    base.update(params)
    return strike, forward, expiry, SabrParams(**base)


class TestHaganImpliedVol:
    def test_shifted_positivity(self):
        with pytest.raises(NonpositiveShiftedStrike, match=r"k \+ shift > 0"):
            hagan_implied_vol(*quote(-0.031))
        with pytest.raises(NonpositiveShiftedStrike, match=r"k \+ shift > 0"):
            hagan_implied_vol(*quote(0.02, forward=-0.04))
        with pytest.raises(NonpositiveShiftedStrike, match=r"k \+ shift > 0"):
            hagan_price(*quote(-0.031), "put")

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

    def test_atm_series_branch_is_continuous(self):
        # strikes straddling the ATM switch must produce nearby vols
        eps = 0.02 * 5e-8
        v_atm = hagan_implied_vol(*quote(0.02))
        v_near = hagan_implied_vol(*quote(0.02 + 5.0 * eps))
        assert v_near == pytest.approx(v_atm, rel=1e-5, abs=0.0)

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
    def test_parity(self):
        for k in (0.005, 0.02, 0.035):
            call = hagan_price(*quote(k), "call")
            put = hagan_price(*quote(k), "put")
            assert call - put == pytest.approx(0.02 - k, abs=1e-14)

    def test_deep_itm_near_intrinsic(self):
        k = -0.025
        call = hagan_price(*quote(k, expiry=0.25), "call")
        intrinsic = 0.02 - k
        assert call > intrinsic
        assert call == pytest.approx(intrinsic, rel=1e-3, abs=0.0)

    def test_atm_normal_vol_equivalence_short_maturity(self):
        # for short T the lognormal and normal ATM quotes agree through the
        # price: invert the Hagan ATM price as a Bachelier price and compare
        # with sigma_LN * (F+b)
        F, T = 0.02, 0.05
        q = quote(F, expiry=T)
        sigma_ln = hagan_implied_vol(*q)
        price = hagan_price(*q, "call")
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
        put = hagan_price(*q, "put")
        assert put == pytest.approx(black_put, rel=1e-12, abs=0.0)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            hagan_price(*quote(0.02), "straddle")
