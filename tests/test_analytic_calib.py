"""Calibration tests: the quote-set container, the exact inversion of the
one-step rows, its uniform-grid specialization, the short-maturity limit,
and the recalibration workflow."""

import math

import numpy as np
import pytest

import ahsabr as ah
from ahsabr.ah_engine import (
    Grid,
    SabrParams,
    _assemble_z,
    build_uniform_grid,
    extract_quote_set,
    price_self_consistent,
    self_consistent_slice,
)
from ahsabr.analytic_calib import (
    QuoteSet,
    alpha_from_straddle,
    calibrate,
    calibrate_uniform,
    limiting_params,
    nu_rho_from_z,
    quote_set_from_curve,
    recalibrate,
    surface_price_fn,
    z_coefficients,
)
from ahsabr.errors import (
    DegenerateButterfly,
    DegenerateStraddle,
    PriceOutOfBounds,
    UnstableDifferences,
)
from ahsabr.hagan_ref import hagan_price_fn

from conftest import HAGAN_EXPIRY, HAGAN_FORWARD, HAGAN_SOURCE, HAGAN_STEP


def solved_quotes(params, F=0.02, T=5.0, lo=-0.02, hi=0.08, count=81):
    grid = build_uniform_grid(lo, hi, count, F)
    surface = price_self_consistent(grid, params, T)
    return extract_quote_set(surface), surface


def uniform_quote_set(**overrides):
    fields = dict(
        p_minus2=0.004, p_minus1=0.006, atm=0.009, c_plus1=0.0065,
        c_plus2=0.0045,
        h_minus_nm1=0.005, h_plus_nm1=0.005, h_minus_n=0.005,
        h_plus_n=0.005, h_minus_np1=0.005, h_plus_np1=0.005,
        forward=0.02, expiry=5.0,
    )
    fields.update(overrides)
    return QuoteSet(**fields)


class TestQuoteSet:
    def test_sigma_atm_identity(self):
        q = uniform_quote_set()
        assert q.sigma_atm == pytest.approx(
            q.atm * math.sqrt(2.0 * math.pi / q.expiry), rel=1e-15
        )

    def test_parity_put(self):
        q = uniform_quote_set()
        assert q.p_plus1 == q.c_plus1 + q.h_plus_n

    @pytest.mark.parametrize("field,value", [
        ("atm", 0.0), ("p_minus2", -0.001), ("h_plus_n", 0.0),
        ("expiry", -1.0), ("atm", math.nan), ("h_plus_n", math.nan),
        ("expiry", math.nan),
    ])
    def test_positivity(self, field, value):
        with pytest.raises(ValueError):
            uniform_quote_set(**{field: value})

    def test_shared_gap_consistency(self):
        with pytest.raises(ValueError):
            uniform_quote_set(h_plus_nm1=0.006)
        with pytest.raises(ValueError):
            uniform_quote_set(h_minus_np1=0.004)


class TestAlphaFromStraddle:
    def test_recovers_z_row(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.2, nu=0.3, shift=0.03)
        q, surface = solved_quotes(params)
        alpha = alpha_from_straddle(q, params.beta, params.shift)
        assert alpha == pytest.approx(params.alpha, rel=1e-10)

    def test_degenerate_straddle(self):
        # ATM above the average of its neighbours: no positive density
        q = uniform_quote_set(p_minus1=0.0089, c_plus1=0.0039)
        with pytest.raises(DegenerateStraddle):
            alpha_from_straddle(q, 0.4, 0.03)


class TestZCoefficients:
    def test_matches_assembled_system(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.2, nu=0.3, shift=0.03)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        slice_ = self_consistent_slice(grid, params, 5.0)
        surface = price_self_consistent(grid, params, 5.0)
        q = extract_quote_set(surface)
        z = _assemble_z(grid, slice_, params)
        n = grid.forward_index
        z_minus, z_plus = z_coefficients(q)
        # z is indexed over interior nodes
        assert z_minus == pytest.approx(z[n - 2], rel=1e-9)
        assert z_plus == pytest.approx(z[n], rel=1e-9)

    def test_degenerate_butterfly(self):
        q = uniform_quote_set(p_minus2=0.0029)
        with pytest.raises(DegenerateButterfly):
            z_coefficients(q)
        q = uniform_quote_set(c_plus2=0.0039)
        with pytest.raises(DegenerateButterfly):
            z_coefficients(q)


class TestNuRhoFromZ:
    def test_recovery_and_residuals(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        q, _ = solved_quotes(params)
        alpha = alpha_from_straddle(q, params.beta, params.shift)
        z_minus, z_plus = z_coefficients(q)
        nu, rho, diag = nu_rho_from_z(
            z_minus, z_plus, alpha, q, params.beta, params.shift, q.sigma_atm
        )
        assert nu == pytest.approx(0.30, abs=1e-8)
        assert rho == pytest.approx(-0.25, abs=1e-8)
        assert abs(diag.residual_minus) < 1e-12
        assert abs(diag.residual_plus) < 1e-12

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
        assert result.params.alpha == pytest.approx(alpha, rel=1e-8)
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
        assert q.h_minus_nm1 != pytest.approx(q.h_minus_n, rel=1e-3)
        result = calibrate(q, 0.4, 0.03)
        assert result.params.alpha == pytest.approx(0.02, rel=1e-8)
        assert result.params.nu == pytest.approx(0.30, abs=1e-8)
        assert result.params.rho == pytest.approx(-0.25, abs=1e-8)

    def test_diagnostics_populated(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        result = calibrate(*_quotes_and_targets(params))
        d = result.diagnostics
        assert d.z_minus > 0.0 and d.z_plus > 0.0
        assert d.y_minus > 0.0 > d.y_plus
        assert 0.0 < d.kappa_minus < 2.0 and 0.0 < d.kappa_plus < 2.0


class TestLevelRange:
    @pytest.mark.parametrize("beta,b", [(1.5, 0.03), (0.4, -0.02), (0.4, -0.03)])
    @pytest.mark.parametrize("calib", [calibrate, calibrate_uniform])
    def test_out_of_range_rejected_before_the_power(self, calib, beta, b):
        # at F = 0.02, b = -0.02 puts F + b at 0 and b = -0.03 below it
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        q, _ = solved_quotes(params)
        with pytest.raises(ValueError, match="out of range"):
            calib(q, beta, b)


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

    def test_residuals_computed_and_equal_to_general_form(self):
        # a case whose residuals are not exactly zero
        params = SabrParams(alpha=0.015, beta=0.0, rho=0.3, nu=0.6, shift=0.03)
        q, _ = solved_quotes(params)
        general = calibrate(q, 0.0, 0.03).diagnostics
        uniform = calibrate_uniform(q, 0.0, 0.03).diagnostics
        assert uniform == general
        assert abs(uniform.residual_minus) < 1e-12
        assert abs(uniform.residual_plus) < 1e-12

    def test_rejects_unequal_steps(self):
        q = uniform_quote_set()
        q = QuoteSet(**{
            **{f: getattr(q, f) for f in (
                "p_minus2", "p_minus1", "atm", "c_plus1", "c_plus2",
                "h_minus_nm1", "h_plus_nm1", "h_minus_n", "h_plus_n",
                "h_minus_np1", "h_plus_np1", "forward", "expiry",
            )},
            "h_minus_nm1": 0.004,
        })
        with pytest.raises(ValueError):
            calibrate_uniform(q, 0.4, 0.03)


class TestLimitingParams:
    def test_matches_small_step_calibration(self):
        # on a smooth price curve the h -> 0 limit and the discrete
        # calibration at small h must agree
        params = SabrParams(**HAGAN_SOURCE)
        F, T = 0.02, 0.5
        price = hagan_price_fn(params, F, T)
        h = 2e-4
        discrete = calibrate(
            quote_set_from_curve(price, F, T, h), params.beta, params.shift
        ).params
        limit = limiting_params(
            lambda k: price(k, "call"), F, T, params.beta, params.shift, h
        ).params
        # both carry O(h^2) bias with different constants, so the gap is
        # itself O(h^2)
        assert limit.alpha == pytest.approx(discrete.alpha, rel=3e-4)
        assert limit.nu == pytest.approx(discrete.nu, abs=1e-3)
        assert limit.rho == pytest.approx(discrete.rho, abs=1e-3)

    def test_reports_one_sided_derivatives(self):
        params = SabrParams(**HAGAN_SOURCE)
        F, T = 0.02, 0.5
        price = hagan_price_fn(params, F, T)
        res = limiting_params(
            lambda k: price(k, "call"), F, T, params.beta, params.shift, 2e-4
        )
        assert res.pdf_atm > 0.0
        # both sides approximate the same smooth derivatives
        assert res.d1_left == pytest.approx(res.d1_right, rel=0.05)
        # one-sided second differences are first-order and noisier
        assert res.d2_left == pytest.approx(res.d2_right, rel=0.5)

    def test_unstable_differences(self):
        params = SabrParams(**HAGAN_SOURCE)
        F, T = 0.02, 0.5
        price = hagan_price_fn(params, F, T)

        def noisy(k):
            return price(k, "call") * (1.0 + 2e-4 * math.sin(k * 3.1e5))

        with pytest.raises(UnstableDifferences):
            limiting_params(noisy, F, T, params.beta, params.shift, 2e-4)


class TestQuoteSetFromCurve:
    def test_samples_otm_sides(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        _, surface = solved_quotes(params)
        price = surface_price_fn(surface)
        h = surface.grid.strikes[1] - surface.grid.strikes[0]
        q = quote_set_from_curve(price, 0.02, 5.0, h)
        direct = extract_quote_set(surface)
        assert q.p_minus2 == direct.p_minus2
        assert q.c_plus2 == direct.c_plus2
        assert q.atm == pytest.approx(direct.atm, rel=1e-12)

    def test_surface_price_fn_on_non_uniform_grid(self):
        # 61 nodes, F = 0.25%: a left wing whose steps grow geometrically
        # away from the forward, then even 0.05% steps above it
        F, h = 0.0025, 0.0005
        left = F - h * np.cumsum(1.1 ** np.arange(20))[::-1]
        strikes = np.concatenate([left, F + h * np.arange(40)])
        grid = Grid(strikes=strikes, forward_index=20)
        params = SabrParams(alpha=0.004, beta=0.2, rho=0.2, nu=0.5, shift=0.03)
        surface = price_self_consistent(grid, params, 2.0)
        price = surface_price_fn(surface)
        for j, k in enumerate(strikes):
            assert price(k, "call") == surface.calls[j]
            assert price(k, "put") == surface.puts[j]
        for k in (strikes[0] - h, 0.5 * (strikes[19] + strikes[20]), F + 0.0201):
            with pytest.raises(ValueError, match="not a node"):
                price(k, "call")

    def test_surface_price_fn_rejects_off_node_strike(self):
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        _, surface = solved_quotes(params)
        price = surface_price_fn(surface)
        with pytest.raises(ValueError):
            price(0.0203, "call")


class TestRecalibrate:
    def test_identity_round_trip(self):
        # sampling the model's own surface at its own beta and shift must
        # return the same parameters
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        _, surface = solved_quotes(params)
        h = surface.grid.strikes[1] - surface.grid.strikes[0]
        result = recalibrate(
            surface_price_fn(surface), 0.02, 5.0, 0.4, 0.03, h
        )
        assert result.params.alpha == pytest.approx(0.02, rel=1e-8)
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

    @pytest.mark.parametrize("bad", [0.0, -1e-18, math.nan, math.inf])
    def test_unusable_source_price_is_numerical(self, bad):
        # a source model that prices the call at F + h at zero has broken
        # down; that is a numerical error naming the strike, not bad input
        src = SabrParams(**HAGAN_SOURCE)
        hagan = hagan_price_fn(src, HAGAN_FORWARD, HAGAN_EXPIRY)
        k_bad = HAGAN_FORWARD + HAGAN_STEP

        def price(k, kind):
            return bad if k == k_bad else hagan(k, kind)

        with pytest.raises(PriceOutOfBounds, match=f"at strike {k_bad!r}"):
            recalibrate(price, HAGAN_FORWARD, HAGAN_EXPIRY, 0.40, 0.03, HAGAN_STEP)
