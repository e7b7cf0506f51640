"""Engine tests: grid construction, local-vol machinery, the one-step solve
and its arbitrage properties, and the self-consistent ATM fixed point."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

import ahsabr as ah
from ahsabr import ah_engine
from ahsabr.ah_engine import (
    Grid,
    MarketSlice,
    SabrParams,
    _assemble_z,
    build_uniform_grid,
    extract_quote_set,
    implied_vol_curve,
    kappa,
    local_vol,
    price_self_consistent,
    self_consistent_slice,
    solve_one_step,
    y_of_k,
)
from ahsabr.errors import (
    ForwardTooCloseToBoundary,
    NonpositiveShiftedStrike,
    NumericalError,
    PriceOutOfBounds,
)
from ahsabr.numerics import (
    bachelier_implied_vol,
    bachelier_price,
    mills_ratio,
    norm_pdf,
    thomas_solve,
)

from conftest import ED_ATM_PRICE_POINTS, ED_EXPIRY, ED_FORWARD, ED_GRID, ED_PARAMS


def make_params(**kw):
    base = dict(alpha=0.02, beta=0.4, rho=-0.2, nu=0.3, shift=0.03)
    base.update(kw)
    return SabrParams(**base)


class TestSabrParams:
    def test_valid(self):
        p = make_params()
        assert p.alpha == 0.02 and p.shift == 0.03

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(alpha=-0.01), dict(beta=-0.1), dict(beta=1.1),
        dict(rho=1.0), dict(rho=-1.0), dict(nu=-0.1), dict(shift=-0.01),
        dict(nu=math.nan), dict(shift=math.nan),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            make_params(**bad)


class TestMarketSlice:
    def test_atm_identity_links_fields(self):
        s = MarketSlice(2.0, 0.0095)
        assert s.atm_price == pytest.approx(
            0.0095 * math.sqrt(2.0 / (2.0 * math.pi)), rel=1e-15
        )
        assert s.atm_price * math.sqrt(2.0 * math.pi / 2.0) == pytest.approx(
            0.0095, rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MarketSlice(-1.0, 0.0095)
        with pytest.raises(ValueError):
            MarketSlice(2.0, 0.0)
        with pytest.raises(ValueError):
            MarketSlice(math.nan, 0.0095)
        with pytest.raises(ValueError):
            MarketSlice(2.0, math.nan)


class TestBuildUniformGrid:
    def test_published_quoting_grid(self):
        grid = build_uniform_grid(-0.05, 0.25, 241, 0.0025)
        h = grid.strikes[1] - grid.strikes[0]
        assert h == pytest.approx(0.00125, rel=1e-12)
        assert grid.strikes[grid.forward_index] == 0.0025  # exact
        assert grid.size == 241

    def test_too_few_nodes(self):
        with pytest.raises(ForwardTooCloseToBoundary):
            build_uniform_grid(0.0, 1.0, 3, 0.5)

    def test_translation_at_most_half_step(self):
        grid = build_uniform_grid(-0.05, 0.25, 241, 0.02013)
        h = 0.30 / 240
        assert abs(grid.strikes[0] - (-0.05)) <= 0.5 * h + 1e-15
        assert grid.strikes[grid.forward_index] == 0.02013

    def test_forward_outside_range(self):
        with pytest.raises(ValueError):
            build_uniform_grid(0.0, 0.01, 41, 0.02)

    def test_forward_near_edge(self):
        with pytest.raises(ForwardTooCloseToBoundary):
            build_uniform_grid(0.0, 0.10, 11, 0.005)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(strikes=np.array([0.0, 0.01, 0.01, 0.02, 0.03]), forward_index=2)
        with pytest.raises(ValueError):
            Grid(strikes=np.array([0.0, 0.01]), forward_index=1)


class TestYofK:
    def test_at_forward_zero(self):
        assert y_of_k(0.02, 0.02, make_params()) == 0.0

    def test_beta_zero_linear(self):
        p = make_params(beta=0.0)
        assert y_of_k(0.015, 0.02, p) == pytest.approx(0.005 / p.alpha, rel=1e-14)

    def test_quadrature_oracle(self):
        p = make_params(alpha=0.0206, beta=0.4, shift=0.03)
        F, k = 0.02, 0.01875
        oracle, err = quad(lambda u: (u + p.shift) ** (-p.beta), k, F)
        assert err < 1e-14
        assert y_of_k(k, F, p) == pytest.approx(oracle / p.alpha, rel=1e-12)

    def test_log_branch_quadrature_oracle(self):
        p = make_params(beta=1.0)
        F, k = 0.02, 0.031
        oracle, _ = quad(lambda u: 1.0 / (u + p.shift), k, F)
        assert y_of_k(k, F, p) == pytest.approx(oracle / p.alpha, rel=1e-12)

    def test_near_one_beta_routed_to_log_branch(self):
        p_log = make_params(beta=1.0)
        p_near = make_params(beta=1.0 - 1e-13)
        assert y_of_k(0.015, 0.02, p_near) == pytest.approx(
            y_of_k(0.015, 0.02, p_log), rel=1e-12
        )

    def test_strictly_decreasing(self):
        p = make_params()
        ks = np.linspace(-0.02, 0.08, 101)
        ys = y_of_k(ks, 0.02, p)
        assert np.all(np.diff(ys) < 0.0)

    def test_nonpositive_shifted_strike(self):
        with pytest.raises(NonpositiveShiftedStrike):
            y_of_k(-0.03, 0.02, make_params())


class TestLocalVol:
    def test_nu_zero_is_shifted_cev(self):
        p = make_params(nu=0.0)
        k = 0.013
        assert local_vol(k, 0.02, p) == pytest.approx(
            p.alpha * (k + p.shift) ** p.beta, rel=1e-15
        )

    def test_at_forward(self):
        p = make_params()
        assert local_vol(0.02, 0.02, p) == pytest.approx(
            p.alpha * (0.02 + p.shift) ** p.beta, rel=1e-15
        )

    def test_generic_point_direct_formula(self):
        p = make_params()
        k, F = 0.012, 0.02
        y = y_of_k(k, F, p)
        j = math.sqrt(1.0 - 2.0 * p.rho * p.nu * y + (p.nu * y) ** 2)
        assert local_vol(k, F, p) == pytest.approx(
            p.alpha * j * (k + p.shift) ** p.beta, rel=1e-15
        )


class TestKappa:
    def test_at_forward_two(self):
        assert kappa(0.02, 0.02, 0.0095, 2.0) == 2.0

    def test_xi_one_direct_evaluation(self):
        sigma, T = 0.01, 4.0
        k = 0.02 - sigma * math.sqrt(T)  # xi == 1 under the total convention
        expected = 2.0 * (1.0 - float(mills_ratio(1.0)))
        assert kappa(k, 0.02, sigma, T) == pytest.approx(expected, rel=1e-13)

    def test_decreasing_in_distance_and_range(self):
        ks = np.linspace(0.02, 0.40, 300)
        vals = kappa(ks, 0.02, 0.0095, 2.0)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0) and vals[0] == 2.0

    def test_far_tail_decays_to_zero(self):
        assert kappa(5.0, 0.02, 0.0095, 2.0) < 1e-4

    def test_series_branch_matches_direct_formula(self):
        # the asymptotic series takes over at xi = 50; just past the switch
        # it must agree with the scaled-erfc evaluation at the same point
        sigma, T = 0.01, 1.0
        for xi in (50.001, 55.0, 80.0):
            k = 0.02 + xi * sigma
            direct = 2.0 * (1.0 - xi * float(mills_ratio(xi)))
            assert kappa(k, 0.02, sigma, T) == pytest.approx(direct, rel=1e-10)

    def test_series_switch_against_exact(self):
        # strikes 1e-12 apart straddle xi = 50, scalar and array, against
        # 40-digit values; the direct branch gives up log10(xi^2) ~ 3.4
        # digits to the cancellation in 1 - xi*M(xi)
        import mpmath

        F, sigma, T = 0.02, 0.01, 1.0
        ks = 0.52 + 1e-12 * np.arange(-5, 6)
        xis = np.abs(ks - F) / sigma
        assert xis.min() < 50.0 <= xis.max()
        with mpmath.workdps(40):
            exact = [
                float(2 * (1 - x * mpmath.sqrt(mpmath.pi / 2)
                           * mpmath.exp(x * x / 2) * mpmath.erfc(x / mpmath.sqrt(2))))
                for x in map(mpmath.mpf, xis)
            ]
        scalar = [kappa(float(k), F, sigma, T) for k in ks]
        assert scalar == pytest.approx(exact, rel=1e-11)
        assert np.array_equal(kappa(ks, F, sigma, T), scalar)

    def test_series_past_double_range(self):
        # at xi = 1e80 the powers of xi^2 overflow; their terms vanish quietly
        assert kappa(1e-60, 0.0, 1e-140, 1.0) == pytest.approx(2e-160, rel=1e-14)

    def test_one_step_row_exact_for_bachelier(self):
        # xi in units of sigma*sqrt(T) makes the one-step row hold exactly
        # for Bachelier calls at k >= F: c = (T/2) sigma^2 kappa c'' with
        # c'' = phi(xi)/s; xi in annual vols misses by up to 2.6 relative
        F, sigma = 0.02, 0.0095
        for T in (0.25, 4.0, 30.0):
            s = sigma * math.sqrt(T)
            for k in F + s * np.linspace(0.0, 8.0, 81):
                xi = (k - F) / s
                c = bachelier_price(F, k, sigma, T)
                row = 0.5 * T * sigma**2 * kappa(k, F, sigma, T) * norm_pdf(xi) / s
                assert row == pytest.approx(c, rel=1e-12, abs=0.0), (T, xi)

    def test_validation(self):
        with pytest.raises(ValueError):
            kappa(0.015, 0.02, 0.0, 1.0)
        with pytest.raises(ValueError):
            kappa(0.015, 0.02, math.nan, 1.0)


class TestSolveOneStep:
    def test_bachelier_limit(self):
        # beta = 0, nu = 0: the model is a normal model; on a fine wide grid
        # the self-consistent solve must reproduce Bachelier prices
        alpha, T, F = 0.01, 2.0, 0.02
        params = SabrParams(alpha=alpha, beta=0.0, rho=0.0, nu=0.0, shift=0.30)
        s = alpha * math.sqrt(T)
        grid = build_uniform_grid(F - 10.0 * s, F + 10.0 * s, 801, F)
        surface = price_self_consistent(grid, params, T)
        sigma = surface.slice.atm_normal_vol
        assert sigma == pytest.approx(alpha, rel=2e-4)
        sel = np.abs(grid.strikes - F) < 4.0 * s
        for k, call in zip(grid.strikes[sel], surface.calls[sel]):
            oracle = bachelier_price(F, float(k), sigma, T)
            assert call == pytest.approx(oracle, abs=2e-5 * s)

    def test_parity_interior(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = price_self_consistent(grid, params, 5.0)
        gap = surface.calls - surface.puts - (0.02 - grid.strikes)
        assert np.max(np.abs(gap[1:-1])) < 1e-10 * (1.0 + 0.02)

    def test_monotonicity_and_positivity(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = price_self_consistent(grid, params, 5.0)
        assert np.all(surface.calls[1:-1] >= -1e-15)
        assert np.all(surface.puts[1:-1] >= -1e-15)
        assert np.all(np.diff(surface.calls[1:-1]) <= 1e-14)
        assert np.all(np.diff(surface.puts[1:-1]) >= -1e-14)

    def test_density_boundary_rows_exactly_zero(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = price_self_consistent(grid, params, 5.0)
        assert surface.density[0] == 0.0 and surface.density[-1] == 0.0

    def test_z_nonnegative_and_diagonal_dominance(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        slice_ = self_consistent_slice(grid, params, 5.0)
        z = _assemble_z(grid, slice_, params)
        assert np.all(z >= 0.0)
        h_minus, h_plus = grid.steps()
        w = z / (h_plus + h_minus)
        # row sums: |diag| - |lower| - |upper| = 1 exactly
        slack = (1.0 + z) - w * h_plus - w * h_minus
        assert np.max(np.abs(slack - 1.0)) < 1e-12

    def test_grid_refinement_is_second_order(self):
        params = make_params()
        F, T = 0.02, 5.0
        prices = []
        for count in (41, 81, 161):
            grid = build_uniform_grid(-0.02, 0.08, count, F)
            slice_ = MarketSlice(T, 0.0095)
            surface = solve_one_step(grid, slice_, params)
            # the same physical strike on every refinement level
            j = int(np.argmin(np.abs(grid.strikes - 0.025)))
            prices.append(surface.calls[j])
        d1 = prices[1] - prices[0]
        d2 = prices[2] - prices[1]
        assert 3.5 < d1 / d2 < 4.5

    def test_one_elimination_for_calls_and_puts(self, monkeypatch):
        solved = []

        def counting(lower, diag, upper, *rhs):
            solved.append(len(rhs))
            return thomas_solve(lower, diag, upper, *rhs)

        monkeypatch.setattr(ah_engine, "thomas_solve", counting)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        solve_one_step(grid, MarketSlice(5.0, 0.0095), make_params())
        assert solved == [2]

    def test_coefficients_past_double_range_rejected(self):
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        slice_ = MarketSlice(5.0, 0.0095)
        with pytest.raises(NumericalError, match="double range"):
            solve_one_step(grid, slice_, make_params(alpha=1e200))

    def test_nonpositive_shifted_strike(self):
        params = make_params(shift=0.01)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        with pytest.raises(NonpositiveShiftedStrike):
            price_self_consistent(grid, params, 5.0)

    def test_published_fixture_atm_quote(self, ed_surface):
        # ATM last 0.1350 in price points is 13.5 bp in rate units; the
        # published parameters are rounded to four digits, so the repriced
        # ATM only has to land near the quote
        n = ed_surface.grid.forward_index
        atm = 0.5 * (ed_surface.calls[n] + ed_surface.puts[n])
        assert atm * 100.0 == pytest.approx(ED_ATM_PRICE_POINTS, rel=2e-2)

    def test_published_fixture_density(self, ed_surface):
        assert ed_surface.density.min() >= -1e-12
        assert ed_surface.density_mass() == pytest.approx(1.0, abs=1e-3)


class TestSelfConsistentSlice:
    def test_fixed_point_residual(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        slice_ = self_consistent_slice(grid, params, 5.0)
        surface = solve_one_step(grid, slice_, params)
        n = grid.forward_index
        atm = 0.5 * (surface.calls[n] + surface.puts[n])
        assert atm == pytest.approx(slice_.atm_price, rel=1e-12)


class TestImpliedVolCurve:
    def test_atm_matches_slice_vol(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = price_self_consistent(grid, params, 5.0)
        vols = implied_vol_curve(surface)
        n = grid.forward_index
        assert vols[n] == pytest.approx(surface.slice.atm_normal_vol, rel=1e-10)

    def test_round_trips_prices(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = price_self_consistent(grid, params, 5.0)
        vols = implied_vol_curve(surface)
        F, T = 0.02, 5.0
        for j, k in enumerate(grid.strikes):
            if math.isnan(vols[j]):
                continue
            kind = "put" if k < F else "call"
            target = surface.puts[j] if k < F else surface.calls[j]
            reprice = bachelier_price(F, float(k), float(vols[j]), T, kind)
            assert reprice == pytest.approx(float(target), rel=1e-10)

    def test_flat_model_near_flat_curve(self):
        alpha, T, F = 0.01, 2.0, 0.02
        params = SabrParams(alpha=alpha, beta=0.0, rho=0.0, nu=0.0, shift=0.30)
        s = alpha * math.sqrt(T)
        grid = build_uniform_grid(F - 10.0 * s, F + 10.0 * s, 401, F)
        surface = price_self_consistent(grid, params, T)
        vols = implied_vol_curve(surface)
        sel = np.abs(grid.strikes - F) < 2.0 * s
        spread = np.nanmax(vols[sel]) - np.nanmin(vols[sel])
        assert spread < 1e-3 * alpha


def per_strike_vols(surface):
    """The implied-vol curve one strike at a time through the scalar
    inversion: the reference for the vectorised implied_vol_curve."""
    F = surface.grid.forward
    T = surface.slice.expiry
    out = np.full(surface.grid.size, np.nan)
    for j, k in enumerate(surface.grid.strikes):
        price, kind = (surface.puts[j], "put") if k < F else (surface.calls[j], "call")
        if price <= 1e-16 * (1.0 + abs(F)):
            continue
        try:
            out[j] = bachelier_implied_vol(price, F, k, T, kind)
        except PriceOutOfBounds:
            continue
    return out


class TestImpliedVolCurveAgainstLoop:
    def test_ed_surface_same_nan_set_and_values(self, ed_surface):
        vols = implied_vol_curve(ed_surface)
        ref = per_strike_vols(ed_surface)
        assert np.array_equal(np.isnan(vols), np.isnan(ref))
        assert 0 < np.count_nonzero(np.isnan(ref)) < ref.size
        ok = ~np.isnan(ref)
        assert np.max(np.abs(vols[ok] - ref[ok]) / ref[ok]) < 1e-13

    def test_unpriceable_strikes_are_absent(self, ed_surface):
        n = ed_surface.grid.forward_index
        puts = ed_surface.puts.copy()
        calls = ed_surface.calls.copy()
        puts[n - 5] = np.nan
        calls[n + 5] = np.inf
        calls[n + 6] = -1e-20
        calls[n] = 0.0
        broken = dataclasses.replace(ed_surface, puts=puts, calls=calls)
        vols = implied_vol_curve(broken)
        for j in (n - 5, n + 5, n + 6, n):
            assert math.isnan(vols[j])
        assert np.array_equal(np.isnan(vols), np.isnan(per_strike_vols(broken)))


class TestExtractQuoteSet:
    def test_uniform_grid_steps_and_values(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = price_self_consistent(grid, params, 5.0)
        q = extract_quote_set(surface)
        h = grid.strikes[1] - grid.strikes[0]
        n = grid.forward_index
        for step in (q.h_minus_nm1, q.h_plus_nm1, q.h_minus_n,
                     q.h_plus_n, q.h_minus_np1, q.h_plus_np1):
            assert step == pytest.approx(h, rel=1e-12)
        assert q.p_minus2 == surface.puts[n - 2]
        assert q.c_plus2 == surface.calls[n + 2]
        assert q.atm == pytest.approx(surface.slice.atm_price, rel=1e-12)

    def test_non_uniform_steps_match_differences(self):
        params = make_params()
        base = build_uniform_grid(-0.02, 0.08, 81, 0.02).strikes
        # stretch the outer nodes; the five inner quotes keep their geometry
        strikes = np.concatenate((
            base[:3] - 0.004, base[3:-3], base[-3:] + 0.004,
        ))
        grid = Grid(strikes=strikes, forward_index=np.searchsorted(strikes, 0.02))
        surface = price_self_consistent(grid, params, 5.0)
        q = extract_quote_set(surface)
        n = grid.forward_index
        k = grid.strikes
        assert q.h_minus_nm1 == pytest.approx(k[n - 1] - k[n - 2], rel=1e-14)
        assert q.h_plus_np1 == pytest.approx(k[n + 2] - k[n + 1], rel=1e-14)
