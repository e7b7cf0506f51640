"""Calibration tests: the quote-set container, the exact inversion of the
one-step rows, its uniform-grid specialization, the short-maturity limit,
and the recalibration workflow."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import ahsabr as ah
from ahsabr import ah_engine
from ahsabr.ah_engine import (
    Grid,
    SabrParams,
    _OneStepRows,
    build_uniform_grid,
    extract_quote_set,
    kappa,
    price_self_consistent,
    self_consistent_slice,
)
from ahsabr.analytic_calib import (
    CalibDiagnostics,
    CalibrationResult,
    QuoteSet,
    _nu_rho,
    calibrate,
    calibrate_uniform,
    limiting_params,
    quote_set_from_curve,
    recalibrate,
)
from ahsabr.errors import (
    DegenerateButterfly,
    DegenerateStraddle,
    NegativeNuSquared,
    NumericalError,
    PriceOutOfBounds,
    RhoOutOfRange,
    UnstableDifferences,
)
from ahsabr.hagan_ref import hagan_price, hagan_price_fn
from ahsabr.market_io import RateQuote, assemble_quote_set

from conftest import (
    ED_EXPIRY,
    ED_FORWARD,
    ED_PARAMS,
    HAGAN_EXPIRY,
    HAGAN_FORWARD,
    HAGAN_SOURCE,
    HAGAN_STEP,
    draw_parameters,
    inversion_setup,
)
from oracles import bachelier_price
from test_acceptance import FORWARD, N_DRAWS, SEED


def solved_quotes(params, F=0.02, T=5.0, lo=-0.02, hi=0.08, count=81):
    grid = build_uniform_grid(lo, hi, count, F)
    surface = price_self_consistent(grid, params, T)
    return extract_quote_set(surface), surface


def node_price_fn(surface):
    """Price source that reads a solved surface's time value at the node
    nearest the strike."""
    strikes, time_value = surface.grid.strikes, surface.time_value
    return lambda k: float(time_value[np.argmin(np.abs(strikes - k))])


def uniform_quote_set(**overrides):
    fields = dict(
        p_minus2=0.004, p_minus1=0.006, atm=0.009, c_plus1=0.0065,
        c_plus2=0.0045,
        h_minus_nm1=0.005, h_minus_n=0.005, h_plus_n=0.005, h_plus_np1=0.005,
        forward=0.02, expiry=5.0,
    )
    fields.update(overrides)
    return QuoteSet(**fields)


class TestQuoteSet:
    def test_sigma_atm_identity(self):
        q = uniform_quote_set()
        assert q.sigma_atm == pytest.approx(
            q.atm * math.sqrt(2.0 * math.pi / q.expiry), rel=1e-15, abs=0.0
        )

    def test_parity_put(self):
        q = uniform_quote_set()
        assert q.p_plus1 == q.c_plus1 + q.h_plus_n

    @pytest.mark.parametrize("field,value", [
        ("atm", 0.0), ("p_minus2", -0.001), ("h_plus_n", 0.0),
        ("expiry", -1.0), ("atm", math.nan), ("h_plus_n", math.nan),
        ("expiry", math.nan), ("forward", math.nan), ("forward", math.inf),
        ("forward", -math.inf), ("atm", math.inf), ("c_plus2", math.inf),
        ("h_minus_n", math.inf), ("expiry", math.inf),
    ])
    def test_positivity(self, field, value):
        with pytest.raises(ValueError):
            uniform_quote_set(**{field: value})

    CHECKED = ("p_minus2", "p_minus1", "atm", "c_plus1", "c_plus2",
               "h_minus_nm1", "h_minus_n", "h_plus_n", "h_plus_np1", "expiry")

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_each_checked_field_named_in_order(self, value):
        # the checks run in declaration order: with this field and every
        # later one out of range, the error names this one
        assert [f.name for f in dataclasses.fields(QuoteSet)
                if f.name in self.CHECKED] == list(self.CHECKED)
        for i, name in enumerate(self.CHECKED):
            bad = dict.fromkeys(self.CHECKED[i:], value)
            with pytest.raises(ValueError,
                               match=f"^{name} must be positive and finite$"):
                uniform_quote_set(**bad)

    @pytest.mark.parametrize("forward", [math.nan, math.inf, -math.inf])
    def test_non_finite_forward(self, forward):
        with pytest.raises(ValueError, match=f"^forward must be finite, got {forward}$"):
            uniform_quote_set(forward=forward)


class TestAlphaFromStraddle:
    def test_recovers_z_row(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.2, nu=0.3, shift=0.03)
        q, surface = solved_quotes(params)
        alpha = calibrate(q, params.beta, params.shift).params.alpha
        assert alpha == pytest.approx(params.alpha, rel=1e-10, abs=0.0)


class TestZCoefficients:
    def test_matches_assembled_system(self):
        import mpmath

        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.2, nu=0.3, shift=0.03)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        slice_ = self_consistent_slice(grid, params, 5.0)
        surface = price_self_consistent(grid, params, 5.0)
        q = extract_quote_set(surface)
        r = _OneStepRows(grid, params, 5.0).diagonal(slice_.atm_normal_vol)[0]
        n = grid.forward_index
        diag = calibrate(q, params.beta, params.shift).diagnostics
        # the rows keep r = 1/z, indexed over interior nodes
        assert diag.z_minus == pytest.approx(
            float(1 / mpmath.mpf(r[n - 2])), rel=1e-9, abs=0.0
        )
        assert diag.z_plus == pytest.approx(
            float(1 / mpmath.mpf(r[n])), rel=1e-9, abs=0.0
        )


class TestNuRhoFromZ:
    def test_recovery(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        q, _ = solved_quotes(params)
        result = calibrate(q, params.beta, params.shift)
        assert result.params.nu == pytest.approx(0.30, abs=1e-8)
        assert result.params.rho == pytest.approx(-0.25, abs=1e-8)

    def test_nu_zero_needs_two_rho_nu_zero(self):
        # at nu^2 = 0 the relations read J^2 = 1 - 2*rho*nu*y: 2*rho*nu = 0
        # gives the flat model, anything else fits no rho
        assert _nu_rho(0.0, 0.0) == (0.0, 0.0)
        for two_rho_nu in (0.25, -0.25):
            with pytest.raises(RhoOutOfRange, match=r"\|rho\| = inf >= 1"):
                _nu_rho(0.0, two_rho_nu)

    def test_symmetric_smile_zero_rho(self):
        params = SabrParams(alpha=0.015, beta=0.0, rho=0.0, nu=0.4, shift=0.03)
        result = calibrate(*_quotes_and_targets(params))
        assert abs(result.params.rho) < 1e-9

    def test_vanishing_nu(self):
        from ahsabr.errors import NegativeNuSquared

        # flat J: both butterfly relations degenerate and roundoff decides
        # which side of zero nu^2 lands on
        params = SabrParams(alpha=0.015, beta=0.4, rho=0.0, nu=0.0, shift=0.03)
        try:
            result = calibrate(*_quotes_and_targets(params))
        except NegativeNuSquared:
            return
        assert abs(result.params.nu) < 1e-4


def _quotes_and_targets(params, **kw):
    q, _ = solved_quotes(params, **kw)
    return q, params.beta, params.shift


class TestCalibrate:
    @pytest.mark.parametrize("alpha,beta,rho,nu,T", [
        (0.020, 0.40, -0.25, 0.30, 5.0),
        (0.010, 0.00, 0.50, 0.80, 2.0),
        (0.030, 1.00, -0.60, 0.60, 1.0),
        (0.002, 0.20, 0.10, 1.20, 0.5),
    ])
    def test_round_trip(self, alpha, beta, rho, nu, T):
        from conftest import inversion_setup

        params, grid = inversion_setup(0.02, alpha, beta, rho, nu, T)
        surface = price_self_consistent(grid, params, T)
        q = extract_quote_set(surface)
        result = calibrate(q, beta, params.shift)
        assert result.params.alpha == pytest.approx(alpha, rel=1e-8, abs=0.0)
        assert result.params.nu == pytest.approx(nu, abs=1e-8)
        assert result.params.rho == pytest.approx(rho, abs=1e-8)

    def test_round_trip_non_uniform_grid(self):
        from ahsabr.ah_engine import Grid

        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        base = build_uniform_grid(-0.02, 0.08, 81, 0.02).strikes
        n0 = 32  # forward at index 32 of the base grid
        # unequal steps around the forward: keep the three central nodes but
        # drop the immediate neighbours of k_{n-1} and k_{n+1}, doubling the
        # outer quote steps
        keep = sorted(
            (set(range(0, 81, 2)) | {n0 - 1, n0, n0 + 1}) - {n0 - 2, n0 + 2}
        )
        strikes = base[keep]
        grid = Grid(strikes=strikes, forward_index=keep.index(n0))
        surface = price_self_consistent(grid, params, 5.0)
        q = extract_quote_set(surface)
        assert q.h_minus_nm1 != pytest.approx(q.h_minus_n, rel=1e-3, abs=0.0)
        result = calibrate(q, 0.4, 0.03)
        assert result.params.alpha == pytest.approx(0.02, rel=1e-8, abs=0.0)
        assert result.params.nu == pytest.approx(0.30, abs=1e-8)
        assert result.params.rho == pytest.approx(-0.25, abs=1e-8)

    def test_diagnostics_populated(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        result = calibrate(*_quotes_and_targets(params))
        d = result.diagnostics
        assert d.z_minus > 0.0 and d.z_plus > 0.0
        assert d.y_minus > 0.0 > d.y_plus
        assert 0.0 < d.kappa_minus < 2.0 and 0.0 < d.kappa_plus < 2.0

    @pytest.mark.parametrize("calib", [calibrate, calibrate_uniform])
    def test_rho_out_of_range(self, calib):
        # a call wing as flat as this one tilts the smile past |rho| = 1
        q = uniform_quote_set(c_plus1=0.0088, c_plus2=0.0088)
        with pytest.raises(RhoOutOfRange, match=r"\|rho\| = 1\.020376 >= 1"):
            calib(q, 0.4, 0.03)


class TestUnderflowedAlpha:
    @pytest.mark.parametrize("calib", [calibrate, calibrate_uniform])
    def test_raises_the_params_error(self, calib):
        # steps of 1e-170 square to an ATM row that underflows alpha to 0:
        # the error SabrParams raises, never a bare ZeroDivisionError
        q = uniform_quote_set(
            p_minus2=1.2e-3, p_minus1=1.0e-3, atm=0.9e-3, c_plus1=1.0e-3,
            c_plus2=1.2e-3, h_minus_nm1=1e-170, h_minus_n=1e-170,
            h_plus_n=1e-170, h_plus_np1=1e-170, forward=0.02, expiry=1.0,
        )
        with pytest.raises(ValueError, match=r"^alpha must be positive, got 0\.0$"):
            calib(q, 0.5, 0.03)


class TestLevelRange:
    # at F = 0.02, b = -0.02 puts F + b at 0 and b = -0.03 below it
    CASES = [(1.5, 0.03), (0.4, -0.02), (0.4, -0.03)]
    PARAMS = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)

    @pytest.mark.parametrize("beta,b", CASES)
    @pytest.mark.parametrize("calib", [calibrate, calibrate_uniform])
    def test_out_of_range_rejected_before_the_power(self, calib, beta, b):
        q, _ = solved_quotes(self.PARAMS)
        with pytest.raises(ValueError, match="out of range"):
            calib(q, beta, b)

    @pytest.mark.parametrize("beta,b", CASES)
    def test_limit_rejects_out_of_range_level(self, beta, b):
        F, T = 0.02, 1.0
        price = hagan_price_fn(self.PARAMS, F, T)
        with pytest.raises(ValueError, match="out of range"):
            limiting_params(price, F, T, beta, b, 1e-4)


class TestCalibrateUniform:
    def test_agrees_with_general_form(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        q, _ = solved_quotes(params)
        general = calibrate(q, 0.4, 0.03).params
        uniform = calibrate_uniform(q, 0.4, 0.03).params
        # the compact form is an exact floating-point specialization
        assert uniform.alpha == general.alpha
        assert uniform.nu == general.nu
        assert uniform.rho == general.rho

    def test_diagnostics_equal_to_general_form(self):
        params = SabrParams(alpha=0.015, beta=0.0, rho=0.3, nu=0.6, shift=0.03)
        q, _ = solved_quotes(params)
        general = calibrate(q, 0.0, 0.03).diagnostics
        uniform = calibrate_uniform(q, 0.0, 0.03).diagnostics
        assert uniform == general

    def test_rejects_unequal_steps(self):
        q = dataclasses.replace(uniform_quote_set(), h_minus_nm1=0.004)
        with pytest.raises(ValueError):
            calibrate_uniform(q, 0.4, 0.03)

    # the three messages of both forms: each row's guard, denominator <=
    # 1e-14 * ATM * (h- + h+), is this condition on its density
    STRADDLE = ("straddle quotes admit no positive density at the forward: "
                "density * h- * h+ / 2 <= 1e-14 * ATM")
    PUT_FLY = ("put butterfly admits no positive density at k_{n-1}: "
               "density * h- * h+ / 2 <= 1e-14 * ATM")
    CALL_FLY = ("call butterfly admits no positive density at k_{n+1}: "
                "density * h- * h+ / 2 <= 1e-14 * ATM")

    @pytest.mark.parametrize("overrides, error, message", [
        # p_{n-1} + p_{n+1} < 2 ATM
        ({}, DegenerateStraddle, STRADDLE),
        (dict(c_plus1=0.0075, c_plus2=0.0061, p_minus2=0.0029),
         DegenerateButterfly, PUT_FLY),
        (dict(c_plus1=0.0075, c_plus2=0.0059),
         DegenerateButterfly, CALL_FLY),
        # ATM above the average of its neighbours
        (dict(p_minus1=0.0089, c_plus1=0.0039), DegenerateStraddle, STRADDLE),
        # c_plus1 = 0.0075 lets the straddle pass; the put butterfly is
        # checked before the call butterfly, which is degenerate here too
        (dict(c_plus1=0.0075, p_minus2=0.0029), DegenerateButterfly, PUT_FLY),
        (dict(c_plus1=0.0075, c_plus2=0.0039), DegenerateButterfly, CALL_FLY),
    ])
    @pytest.mark.parametrize("calib", [calibrate, calibrate_uniform])
    def test_degenerate_quotes_rejected(self, calib, overrides, error, message):
        # both forms check the straddle, then the put and the call butterfly
        with pytest.raises(error) as raised:
            calib(uniform_quote_set(**overrides), 0.4, 0.03)
        assert str(raised.value) == message


class TestLimitingParams:
    def test_matches_small_step_calibration(self):
        # on a smooth price curve the h -> 0 limit and the discrete
        # calibration at small h must agree; a target beta of 1 takes k(y)
        # at x = 0, where log1p(x)/x is 1
        params = SabrParams(**HAGAN_SOURCE)
        F, T = 0.02, 0.5
        price = hagan_price_fn(params, F, T)
        h = 2e-4
        for beta in (params.beta, 1.0):
            discrete = calibrate(
                quote_set_from_curve(price, F, T, h), beta, params.shift
            ).params
            limit = limiting_params(price, F, T, beta, params.shift, h).params
            # both carry a bias in h with different constants.  alpha's is
            # O(h^2) (successive differences shrink by 3.95 to 4.00 per
            # halving); nu's and rho's have no clean order, shrinking by 5
            # to 9 per halving at this F and T and by 1.2 to 1.9 at F 0.3%,
            # T 10
            assert limit.alpha == pytest.approx(discrete.alpha, rel=3e-4, abs=0.0), beta
            assert limit.nu == pytest.approx(discrete.nu, abs=1e-3), beta
            assert limit.rho == pytest.approx(discrete.rho, abs=1e-3), beta

    def test_reports_one_sided_derivatives(self):
        params = SabrParams(**HAGAN_SOURCE)
        F, T = 0.02, 0.5
        res = limiting_params(
            hagan_price_fn(params, F, T), F, T, params.beta, params.shift, 2e-4
        )
        assert res.pdf_atm > 0.0
        # both sides approximate the same smooth derivatives
        assert res.d1_left == pytest.approx(res.d1_right, rel=0.05, abs=0.0)
        # one-sided second differences are first-order and noisier
        assert res.d2_left == pytest.approx(res.d2_right, rel=0.5, abs=0.0)

    def test_unstable_differences(self):
        params = SabrParams(**HAGAN_SOURCE)
        F, T = 0.02, 0.5

        def noisy(k):
            return hagan_price(k, F, T, params) * (1.0 + 2e-4 * math.sin(k * 3.1e5))

        with pytest.raises(UnstableDifferences):
            limiting_params(noisy, F, T, params.beta, params.shift, 2e-4)

    @pytest.mark.parametrize("skew, curvature, error, message", [
        # a concave call curve has a negative ATM density
        (None, None, DegenerateStraddle, "non-positive ATM density"),
        # a frown in the normal vol bends G(y) down: nu^2 near -0.2
        (0.0, 0.05, NegativeNuSquared, r"nu\^2 = -2\.0\d*e-01"),
        # a steep skew with a slight frown: |rho| near 1.13
        (0.2, 0.02, RhoOutOfRange, r"\|rho\| = 1\.13"),
        (-0.2, 0.02, RhoOutOfRange, r"\|rho\| = 1\.13"),
    ], ids=["straddle", "nu_squared", "rho_up", "rho_down"])
    def test_smooth_curves_that_admit_no_model(self, skew, curvature, error,
                                               message):
        # out-of-the-money Bachelier prices at a normal vol of 80 bp times a
        # quadratic in the strike's distance from the forward, in percent
        F, T = 0.02, 0.5

        def price(k):
            if skew is None:
                return 0.01 - (k - F) ** 2 - max(F - k, 0.0)
            x = (k - F) / 0.01
            vol = 0.008 * (1.0 + skew * x - curvature * x * x)
            return bachelier_price(F, k, vol, T, "put" if k < F else "call")

        with pytest.raises(error, match=message):
            limiting_params(price, F, T, 0.0, 0.03, 2e-4)

    @pytest.mark.parametrize("broken, bad, error, message", [
        (lambda k, F, h0: k > F + 1.5 * h0, math.nan, NumericalError, r"nu\^2"),
        (lambda k, F, h0: k < F - 1.5 * h0, math.nan, NumericalError, r"nu\^2"),
        (lambda k, F, h0: k > F + 1.5 * h0, math.inf, NumericalError, r"nu\^2"),
        # NaN at F + h0 alone breaks the ATM density's coarser difference
        (lambda k, F, h0: k == F + h0, math.nan, DegenerateStraddle,
         "non-positive ATM density"),
    ], ids=["nan_above", "nan_below", "inf_above", "nan_at_f_plus_h0"])
    def test_broken_source_is_a_typed_error(self, broken, bad, error, message):
        # a source that breaks down off the forward ends in the error of the
        # check it breaks, the nu^2 one or the ATM density's, never in
        # SabrParams' ValueError or an UnstableDifferences that a NaN fakes
        params = SabrParams(**HAGAN_SOURCE)
        F, T, h0 = 0.02, 0.5, 2e-4

        def price(k):
            return bad if broken(k, F, h0) else hagan_price(k, F, T, params)

        with pytest.raises(error, match=message):
            limiting_params(price, F, T, params.beta, params.shift, h0)

    @pytest.mark.parametrize("h0", [0.0, -2e-4, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, h0):
        # rejected before any price is requested, so not blamed on the
        # price convention, run mirrored, or priced at an infinite strike
        def price(k):
            raise AssertionError(f"priced strike {k!r} before checking h0")

        with pytest.raises(ValueError, match="h0 must be positive and finite"):
            limiting_params(price, 0.02, 0.5, 0.4, 0.03, h0)

    @pytest.mark.parametrize("F, T, message", [
        (0.02, 0.0, "T must be positive and finite"),
        (0.02, -1.0, "T must be positive and finite"),
        (0.02, math.nan, "T must be positive and finite"),
        (0.02, math.inf, "T must be positive and finite"),
        (math.inf, 0.5, "F must be finite"),
        (-math.inf, 0.5, "F must be finite"),
        (math.nan, 0.5, "F must be finite"),
    ], ids=["T_zero", "T_negative", "T_nan", "T_inf", "F_inf", "F_minus_inf",
            "F_nan"])
    def test_expiry_and_forward_checked_first(self, F, T, message):
        # rejected as input before any price is requested, never as a
        # ZeroDivisionError, a math domain error or SabrParams' alpha check
        def price(k):
            raise AssertionError(f"priced strike {k!r} before checking T and F")

        with pytest.raises(ValueError, match=message):
            limiting_params(price, F, T, 0.4, 0.03, 2e-4)

    # F 0.1% with b 3%: the Hagan source and Bachelier prices at 80 bp, whose
    # stencil at h0 1.6% reaches about F - 3 h0 < -b, and an h0 of 3.2% that
    # puts F - h0 itself below -b
    @pytest.mark.parametrize("source, beta, h0", [
        ("hagan", 0.4, 0.016), ("bachelier", 0.0, 0.016), ("bachelier", 0.0, 0.032),
    ], ids=["hagan", "bachelier", "f_minus_h0"])
    def test_stencil_keeps_k_plus_b_positive(self, source, beta, h0):
        # a ValueError naming h0 and F + b before any price at k + b <= 0,
        # where the Hagan source raised NonpositiveShiftedStrike at a strike
        # the caller never named and the inverse k(y) a math domain error
        F, T, b = 0.001, 0.5, 0.03
        hagan = hagan_price_fn(SabrParams(**HAGAN_SOURCE), F, T)

        def price(k):
            assert k + b > 0.0, f"priced strike {k!r} below -b"
            if source == "hagan":
                return hagan(k)
            return bachelier_price(F, k, 0.008, T, "put" if k < F else "call")

        with pytest.raises(ValueError, match=rf"h0 {h0!r} .* F \+ b = 0\.031"):
            limiting_params(price, F, T, beta, b, h0)

    def test_prices_the_stencil_once(self):
        # each distinct strike is priced once: ATM and F - h0 for the
        # convention check; at h0 the ATM density's F + h0 and F +- h0/2 and
        # four stencil points of five strikes (k, k +- h0, k +- h0/2); at
        # h0/2 the density's F +- h0/4, two inner points of five strikes,
        # and two outer points on h0's inner ones (alpha agrees to the bit
        # here), which add k +- h0/4.  Pricing each strike where it was used
        # took 2 + 2 * (6 + 4 * 7) = 70 calls.  The centre is T alpha^2.
        params = SabrParams(**HAGAN_SOURCE)
        source = hagan_price_fn(params, 0.02, 0.5)
        strikes = []

        def price(k):
            strikes.append(k)
            return source(k)

        limiting_params(price, 0.02, 0.5, params.beta, params.shift, 2e-4)
        assert len(set(strikes)) == len(strikes)
        assert len(strikes) == 2 + (3 + 4 * 5) + (2 + 2 * 5 + 2 * 2) == 41

    @pytest.mark.parametrize("source, F, T", [
        (HAGAN_SOURCE, 0.02, 0.5),
        (ED_PARAMS, ED_FORWARD, ED_EXPIRY),
    ], ids=["hagan", "ed"])
    def test_continuous_in_beta_at_one(self, source, F, T):
        # k(y) has no switch at beta = 1, so nu and rho approach their
        # beta = 1 values without a jump from cancellation in (F+b)^(1-beta)
        params = SabrParams(**source)
        price = hagan_price_fn(params, F, T)
        at_one = limiting_params(price, F, T, 1.0, params.shift, 2e-4).params
        for beta in (1.0 - 1e-9, 1.0 - 1e-11):
            near = limiting_params(price, F, T, beta, params.shift, 2e-4).params
            assert abs(near.nu - at_one.nu) <= 1e-5, beta
            assert abs(near.rho - at_one.rho) <= 1e-5, beta


class TestOnePriceConvention:
    """Every price source gives out-of-the-money prices, the put below the
    forward and the call at and above it, so each is largest at the forward.
    limiting_params takes the same sources and rejects a call curve."""

    @staticmethod
    def assert_largest_at_forward(prices):
        # prices at F - 2h, F - h, F, F + h, F + 2h
        atm = prices[2]
        assert all(p < atm for p in prices[:2] + prices[3:]), prices

    @pytest.mark.parametrize("source, F, T, h", [
        (HAGAN_SOURCE, HAGAN_FORWARD, HAGAN_EXPIRY, HAGAN_STEP),
        (ED_PARAMS, ED_FORWARD, ED_EXPIRY, 0.00125),  # the ED grid's step
    ], ids=["hagan", "ed"])
    def test_hagan_source(self, source, F, T, h):
        params = SabrParams(**source)
        strikes = [F + j * h for j in range(-2, 3)]
        self.assert_largest_at_forward([hagan_price(k, F, T, params) for k in strikes])
        price = hagan_price_fn(params, F, T)
        self.assert_largest_at_forward([price(k) for k in strikes])

    def test_onestep_node_map(self, ed_surface):
        # the map the CLI's onestep recalibration source reads
        strikes = ed_surface.grid.strikes.tolist()
        price = dict(zip(strikes, ed_surface.time_value.tolist()))
        n = ed_surface.grid.forward_index
        self.assert_largest_at_forward([price[strikes[n + j]] for j in range(-2, 3)])

    def test_assembled_quote_set(self, ed_surface):
        # both kinds quoted at every strike: the set keeps the OTM one
        strikes = ed_surface.grid.strikes
        n = ed_surface.grid.forward_index
        quotes = [
            RateQuote("ED", "2021-01-04", kind, float(strikes[j]), float(prices[j]))
            for j in range(n - 2, n + 3)
            for kind, prices in (("put", ed_surface.puts), ("call", ed_surface.calls))
        ]
        h = float(strikes[1] - strikes[0])
        q = assemble_quote_set(quotes, ED_FORWARD, ED_EXPIRY, h)
        self.assert_largest_at_forward(
            [q.p_minus2, q.p_minus1, q.atm, q.c_plus1, q.c_plus2]
        )

    def test_limit_rejects_a_call_curve(self):
        params = SabrParams(**HAGAN_SOURCE)
        F, T = 0.02, 0.5

        def call(k):
            return hagan_price(k, F, T, params) + max(F - k, 0.0)

        with pytest.raises(ValueError, match="must give out-of-the-money prices"):
            limiting_params(call, F, T, params.beta, params.shift, 2e-4)


class TestQuoteSetFromCurve:
    def test_samples_otm_sides(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        _, surface = solved_quotes(params)
        price = node_price_fn(surface)
        h = surface.grid.strikes[1] - surface.grid.strikes[0]
        q = quote_set_from_curve(price, 0.02, 5.0, h)
        direct = extract_quote_set(surface)
        assert q.p_minus2 == direct.p_minus2
        assert q.c_plus2 == direct.c_plus2
        assert q.atm == pytest.approx(direct.atm, rel=1e-12, abs=0.0)


class TestRecalibrate:
    def test_identity_round_trip(self):
        # sampling the model's own surface at its own beta and shift must
        # return the same parameters
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        _, surface = solved_quotes(params)
        h = surface.grid.strikes[1] - surface.grid.strikes[0]
        result = recalibrate(
            node_price_fn(surface), 0.02, 5.0, 0.4, 0.03, h
        )
        assert result.params.alpha == pytest.approx(0.02, rel=1e-8, abs=0.0)
        assert result.params.nu == pytest.approx(0.30, abs=1e-8)
        assert result.params.rho == pytest.approx(-0.25, abs=1e-8)

    def test_published_first_case(self):
        # Hagan source smile recalibrated at the source beta and shift
        src = SabrParams(**HAGAN_SOURCE)
        price = hagan_price_fn(src, HAGAN_FORWARD, HAGAN_EXPIRY)
        result = recalibrate(
            price, HAGAN_FORWARD, HAGAN_EXPIRY, 0.40, 0.03, HAGAN_STEP
        )
        assert result.params.alpha == pytest.approx(0.0206, abs=0.001)
        assert result.params.rho == pytest.approx(-0.2684, abs=0.02)
        assert result.params.nu == pytest.approx(0.2754, abs=0.02)

    @pytest.mark.parametrize("expiry", [0.0, -1.0, math.nan, math.inf])
    def test_hagan_source_rejects_an_unpriceable_expiry(self, expiry):
        # bad input, not the source's breakdown (PriceOutOfBounds): the source
        # rejects it when built, and the quote set when a valid source is
        # sampled at it
        params = SabrParams(**HAGAN_SOURCE)
        with pytest.raises(ValueError, match="^expiry must be positive and finite"):
            hagan_price_fn(params, 0.02, expiry)
        price = hagan_price_fn(params, 0.02, 10.0)
        with pytest.raises(ValueError, match="^expiry must be positive and finite$"):
            recalibrate(price, 0.02, expiry, 0.5, 0.03, 0.001)

    @pytest.mark.parametrize("bad", [0.0, -1e-18, math.nan, math.inf])
    def test_unusable_source_price_is_numerical(self, bad):
        # a source model that prices the call at F + h at zero has broken
        # down; that is a numerical error naming the strike, not bad input
        src = SabrParams(**HAGAN_SOURCE)
        hagan = hagan_price_fn(src, HAGAN_FORWARD, HAGAN_EXPIRY)
        k_bad = HAGAN_FORWARD + HAGAN_STEP

        def price(k):
            return bad if k == k_bad else hagan(k)

        with pytest.raises(PriceOutOfBounds, match=f"at strike {k_bad!r}"):
            recalibrate(price, HAGAN_FORWARD, HAGAN_EXPIRY, 0.40, 0.03, HAGAN_STEP)

    @pytest.mark.parametrize("h", [5e-4, HAGAN_STEP, 2.5e-3])
    def test_prices_each_quote_strike_once(self, h):
        # five calls, at quote_set_from_curve's strikes in ascending order
        F, T = HAGAN_FORWARD, HAGAN_EXPIRY
        hagan = hagan_price_fn(SabrParams(**HAGAN_SOURCE), F, T)
        seen, expected = [], []

        def recording(strikes):
            def price(k):
                strikes.append(k)
                return hagan(k)
            return price

        recalibrate(recording(seen), F, T, 0.40, 0.03, h)
        quote_set_from_curve(recording(expected), F, T, h)
        assert len(seen) == 5
        assert [k.hex() for k in seen] == [k.hex() for k in expected]
        assert seen == sorted(seen)

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_out_of_bounds_price_ends_the_sampling(self, bad):
        # the check runs as each strike is priced: F + h raises, naming that
        # strike, and F + 2h is never priced
        F, T, h = HAGAN_FORWARD, HAGAN_EXPIRY, HAGAN_STEP
        hagan = hagan_price_fn(SabrParams(**HAGAN_SOURCE), F, T)
        seen = []

        def price(k):
            seen.append(k)
            return bad if k == F + h else hagan(k)

        with pytest.raises(PriceOutOfBounds) as info:
            recalibrate(price, F, T, 0.40, 0.03, h)
        assert str(info.value) == f"source price {bad!r} at strike {F + h!r}"
        assert seen == [F - 2.0 * h, F - h, F, F + h]


# float.hex of (alpha, nu, rho) and the seven CalibDiagnostics fields in
# declaration order, recorded before QuoteSet and the calibration records
# became plain dataclasses and kappa took s = sigma sqrt(T) once per
# calibration.  Keyed by (h, target beta, target shift) on the published
# Hagan source: calibrate, calibrate_uniform and recalibrate give these bits.
PINNED_RECALIBRATIONS = {
    (0.0005, 0.4, 0.03): (
        '0x1.52308b96097f7p-6', '0x1.1a39c6d7c5e2ap-2', '-0x1.12923040bc2dep-2',
        '0x1.0d63b993b6bbcp+11', '0x1.0c603092c770dp+11', '0x1.857fff06bf5cfp-4',
        '-0x1.83257b2623955p-4', '0x1.eea93e03c1fb5p+0', '0x1.eea93e03c1fb5p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0005, 0.6, 0.03): (
        '0x1.4e86300e33d33p-5', '0x1.2e47348f0c09ep-2', '-0x1.6f49245ef219cp-2',
        '0x1.0d63b993b6bbcp+11', '0x1.0c603092c770dp+11', '0x1.8618274ba23d7p-4',
        '-0x1.82905df02266dp-4', '0x1.eea93e03c1fb5p+0', '0x1.eea93e03c1fb5p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0005, 0.2, 0.03): (
        '0x1.55e52f4209697p-7', '0x1.08b79920ee73ap-2', '-0x1.4c220bd3623a6p-3',
        '0x1.0d63b993b6bbcp+11', '0x1.0c603092c770dp+11', '0x1.84e825e8ecff6p-4',
        '-0x1.83bae50897849p-4', '0x1.eea93e03c1fb5p+0', '0x1.eea93e03c1fb5p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0005, 0.4, 0.0325): (
        '0x1.487437a8bddb6p-6', '0x1.1655fd9975a3bp-2', '-0x1.0570142959d70p-2',
        '0x1.0d63b993b6bbcp+11', '0x1.0c603092c770dp+11', '0x1.856a7d2b88f32p-4',
        '-0x1.833a68ca468cfp-4', '0x1.eea93e03c1fb5p+0', '0x1.eea93e03c1fb5p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0005, 0.4, 0.0275): (
        '0x1.5d0437a402ad2p-6', '0x1.1f03833a587bfp-2', '-0x1.2125956b3476ap-2',
        '0x1.0d63b993b6bbcp+11', '0x1.0c603092c770dp+11', '0x1.85990e7bc151cp-4',
        '-0x1.830d25d5938e1p-4', '0x1.eea93e03c1fb5p+0', '0x1.eea93e03c1fb5p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.00125, 0.4, 0.03): (
        '0x1.525079ee463abp-6', '0x1.1a8be0b51e053p-2', '-0x1.11e00df62ef29p-2',
        '0x1.49b382113a5fep+8', '0x1.46b289a4e9328p+8', '0x1.e8f4fe0fd7d67p-3',
        '-0x1.e19a30ed6a8b3p-3', '0x1.d6083807e5de0p+0', '0x1.d6083807e5de0p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.00125, 0.6, 0.03): (
        '0x1.4ea5c5cd80784p-5', '0x1.2e9c44c6b483dp-2', '-0x1.6ed1eed3677d0p-2',
        '0x1.49b382113a5fep+8', '0x1.46b289a4e9328p+8', '0x1.ead7b80c61877p-3',
        '-0x1.dfcf3f23eb3d6p-3', '0x1.d6083807e5de0p+0', '0x1.d6083807e5de0p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.00125, 0.2, 0.03): (
        '0x1.5605772bbb6dfp-7', '0x1.090b2cafcb0c6p-2', '-0x1.4a4581c30dea8p-3',
        '0x1.49b382113a5fep+8', '0x1.46b289a4e9328p+8', '0x1.e714bd79bd88ap-3',
        '-0x1.e3676baadff10p-3', '0x1.d6083807e5de0p+0', '0x1.d6083807e5de0p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.00125, 0.4, 0.0325): (
        '0x1.48933aaf31c11p-6', '0x1.16a69fe1e77a0p-2', '-0x1.04b186a4b006cp-2',
        '0x1.49b382113a5fep+8', '0x1.46b289a4e9328p+8', '0x1.e8b062ceb182bp-3',
        '-0x1.e1da459da3b01p-3', '0x1.d6083807e5de0p+0', '0x1.d6083807e5de0p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.00125, 0.4, 0.0275): (
        '0x1.5d252bae08154p-6', '0x1.1f57e3103bc0fp-2', '-0x1.20826d1d58b93p-2',
        '0x1.49b382113a5fep+8', '0x1.46b289a4e9328p+8', '0x1.e945119157456p-3',
        '-0x1.e14fccad253dap-3', '0x1.d6083807e5de0p+0', '0x1.d6083807e5de0p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0025, 0.4, 0.03): (
        '0x1.52c21df18cee4p-6', '0x1.1a70675ea2239p-2', '-0x1.11724234f3e3bp-2',
        '0x1.344865fd95f19p+6', '0x1.2f25652d817fap+6', '0x1.ec3163d118a61p-2',
        '-0x1.dd7c2cc04faa4p-2', '0x1.b05cf4e2a2995p+0', '0x1.b05cf4e2a2995p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0025, 0.6, 0.03): (
        '0x1.4f162e80a6ddbp-5', '0x1.2eaa511a04ee3p-2', '-0x1.6f5088138f2e3p-2',
        '0x1.344865fd95f19p+6', '0x1.2f25652d817fap+6', '0x1.f00f646cb9defp-2',
        '-0x1.d9fd670bc8b32p-2', '0x1.b05cf4e2a2995p+0', '0x1.b05cf4e2a2995p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0025, 0.2, 0.03): (
        '0x1.567859f39a8d0p-7', '0x1.08d4c8e98c7dap-2', '-0x1.47238b47d70edp-3',
        '0x1.344865fd95f19p+6', '0x1.2f25652d817fap+6', '0x1.e85db109d73bfp-2',
        '-0x1.e103bbda21e72p-2', '0x1.b05cf4e2a2995p+0', '0x1.b05cf4e2a2995p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0025, 0.4, 0.0325): (
        '0x1.490199357f06ap-6', '0x1.167fea2010c2cp-2', '-0x1.0414fc72f61fap-2',
        '0x1.344865fd95f19p+6', '0x1.2f25652d817fap+6', '0x1.eba35bf28904fp-2',
        '-0x1.ddf8113516745p-2', '0x1.b05cf4e2a2995p+0', '0x1.b05cf4e2a2995p+0',
        '0x1.772fe59f8d03dp-8',
    ),
    (0.0025, 0.4, 0.0275): (
        '0x1.5d9a730c40610p-6', '0x1.1f4b9f0dd80b4p-2', '-0x1.204adbb1e3e88p-2',
        '0x1.344865fd95f19p+6', '0x1.2f25652d817fap+6', '0x1.ecd7a9362240fp-2',
        '-0x1.dcecb3073d944p-2', '0x1.b05cf4e2a2995p+0', '0x1.b05cf4e2a2995p+0',
        '0x1.772fe59f8d03dp-8',
    ),
}

# the same on the ED surface's own five quotes at the ED beta and shift; its
# steps differ in the last bits, so the two forms differ there too
PINNED_ED_CALIBRATIONS = {
    'calibrate': (
        '0x1.107faa044ae88p-9', '0x1.16113404ea4a6p+0', '0x1.6dab9f559b3c6p-2',
        '0x1.86af851a97515p+2', '0x1.907d819887cc5p+3', '0x1.61cb30cf8e663p-1',
        '-0x1.6170a897965f6p-1', '0x1.4c9d7347f249ap+0', '0x1.4c9d7347f2484p+0',
        '0x1.2ecd34811f56fp-9',
    ),
    'calibrate_uniform': (
        '0x1.107faa044ae66p-9', '0x1.16113404ea500p+0', '0x1.6dab9f559b2c9p-2',
        '0x1.86af851a9755bp+2', '0x1.907d819887c9bp+3', '0x1.61cb30cf8e68fp-1',
        '-0x1.6170a89796622p-1', '0x1.4c9d7347f249ap+0', '0x1.4c9d7347f2484p+0',
        '0x1.2ecd34811f56fp-9',
    ),
}


def _bits(result):
    p = result.params
    return tuple(x.hex() for x in (p.alpha, p.nu, p.rho,
                                   *dataclasses.astuple(result.diagnostics)))


class TestPinnedBits:
    @pytest.mark.parametrize("h,beta,b", list(PINNED_RECALIBRATIONS))
    def test_hagan_recalibrations(self, h, beta, b):
        F, T = HAGAN_FORWARD, HAGAN_EXPIRY
        price = hagan_price_fn(SabrParams(**HAGAN_SOURCE), F, T)
        q = quote_set_from_curve(price, F, T, h)
        want = PINNED_RECALIBRATIONS[h, beta, b]
        assert _bits(calibrate(q, beta, b)) == want
        assert _bits(calibrate_uniform(q, beta, b)) == want
        assert _bits(recalibrate(price, F, T, beta, b, h)) == want

    @pytest.mark.parametrize("calib", [calibrate, calibrate_uniform])
    def test_ed_quote_set(self, ed_surface, calib):
        q = extract_quote_set(ed_surface)
        result = calib(q, ED_PARAMS["beta"], ED_PARAMS["shift"])
        assert _bits(result) == PINNED_ED_CALIBRATIONS[calib.__name__]


def hagan_quote_set(h=HAGAN_STEP):
    price = hagan_price_fn(SabrParams(**HAGAN_SOURCE), HAGAN_FORWARD, HAGAN_EXPIRY)
    return quote_set_from_curve(price, HAGAN_FORWARD, HAGAN_EXPIRY, h)


class TestOneKappaScale:
    @pytest.mark.parametrize("calib", [calibrate, calibrate_uniform])
    def test_calls_per_calibration(self, monkeypatch, calib):
        # sigma_atm is read once and both kappas come from one scale:
        # one ATM vol and one q(xi) per neighbour
        q, calls = hagan_quote_set(), Counter()

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapper

        for name in ("atm_normal_vol", "one_minus_x_mills"):
            monkeypatch.setattr(ah_engine, name, counted(getattr(ah_engine, name)))
        calib(q, 0.6, 0.03)
        assert calls == {"atm_normal_vol": 1, "one_minus_x_mills": 2}

    def test_kappas_equal_public_kappa_on_a1_draws(self):
        rng = np.random.default_rng(SEED)
        for i in range(N_DRAWS):
            d = draw_parameters(rng)
            params, grid = inversion_setup(
                FORWARD, d["alpha"], d["beta"], d["rho"], d["nu"], d["T"]
            )
            q = extract_quote_set(price_self_consistent(grid, params, d["T"]))
            diag = calibrate(q, d["beta"], params.shift).diagnostics
            F, sigma, T = q.forward, q.sigma_atm, q.expiry
            want = (kappa(F - q.h_minus_n, F, sigma, T).hex(),
                    kappa(F + q.h_plus_n, F, sigma, T).hex(), sigma.hex())
            got = (diag.kappa_minus.hex(), diag.kappa_plus.hex(),
                   diag.sigma_atm.hex())
            assert got == want, i


class TestRecords:
    def test_params_stay_frozen_and_hashable(self):
        p = SabrParams(**HAGAN_SOURCE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.alpha = 0.03
        assert hash(p) == hash(SabrParams(**HAGAN_SOURCE))
        assert {p: 1}[SabrParams(**HAGAN_SOURCE)] == 1

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", 0.0, "alpha must be positive, got 0.0"),
        ("alpha", math.nan, "alpha must be positive, got nan"),
        ("beta", 1.5, "beta must lie in [0, 1], got 1.5"),
        ("rho", -1.0, "rho must lie in (-1, 1), got -1.0"),
        ("nu", -0.1, "nu must be nonnegative, got -0.1"),
        ("shift", -0.01, "shift must be nonnegative, got -0.01"),
    ])
    def test_params_checked_however_built(self, field, value, message):
        # by keyword, by position and through dataclasses.replace
        good = SabrParams(**HAGAN_SOURCE)
        bad = {**HAGAN_SOURCE, field: value}
        for build in (lambda: SabrParams(**bad),
                      lambda: SabrParams(*bad.values()),
                      lambda: dataclasses.replace(good, **{field: value})):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_params_fields_and_default_shift(self):
        p = SabrParams(0.02, 0.4, -0.25, 0.3)
        assert dataclasses.asdict(p) == dict(alpha=0.02, beta=0.4, rho=-0.25,
                                             nu=0.3, shift=0.0)
        assert p == SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.3, shift=0.0)
        assert repr(p) == ("SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.3, "
                           "shift=0.0)")

    def test_calibration_records_compare_by_value(self):
        a, b = hagan_quote_set(), hagan_quote_set()
        assert a == b and a is not b
        assert a != dataclasses.replace(b, atm=b.atm * 2.0)
        r, s = calibrate(a, 0.4, 0.03), calibrate(b, 0.4, 0.03)
        assert isinstance(r, CalibrationResult)
        assert isinstance(r.diagnostics, CalibDiagnostics)
        assert r == s and r.diagnostics == s.diagnostics
        assert r != calibrate(a, 0.6, 0.03)

    def test_replace_runs_the_quote_set_checks(self):
        with pytest.raises(ValueError, match=r"^atm must be positive and finite$"):
            dataclasses.replace(hagan_quote_set(), atm=0.0)
