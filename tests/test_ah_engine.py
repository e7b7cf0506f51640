"""Engine tests: grid construction, local-vol machinery, the one-step solve
and its arbitrage properties, and the self-consistent ATM fixed point."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from mpmath import quad

import ahsabr as ah
from ahsabr import ah_engine
from ahsabr.ah_engine import (
    Grid,
    MarketSlice,
    SabrParams,
    _OneStepRows,
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
    ConvergenceError,
    ForwardTooCloseToBoundary,
    NonpositiveShiftedStrike,
    NumericalError,
    PriceOutOfBounds,
    SingularPivot,
)
from ahsabr.numerics import (
    bachelier_implied_vol,
    bachelier_price,
    mills_ratio,
    norm_pdf,
)

from conftest import (
    ED_ATM_PRICE_POINTS,
    ED_EXPIRY,
    ED_FORWARD,
    ED_GRID,
    ED_PARAMS,
    draw_parameters,
    inversion_setup,
    mass_setup,
    stretched_grid,
)


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
        for n in (1, 3):  # the forward needs two nodes on each side
            with pytest.raises(ForwardTooCloseToBoundary):
                Grid(strikes=np.linspace(0.0, 0.04, 5), forward_index=n)


class TestYofK:
    def test_at_forward_zero(self):
        assert y_of_k(0.02, 0.02, make_params()) == 0.0

    def test_beta_zero_linear(self):
        p = make_params(beta=0.0)
        assert y_of_k(0.015, 0.02, p) == pytest.approx(0.005 / p.alpha, rel=1e-14)

    def test_quadrature_oracle(self):
        p = make_params(alpha=0.0206, beta=0.4, shift=0.03)
        F, k = 0.02, 0.01875
        oracle, err = quad(lambda u: (u + p.shift) ** (-p.beta), [k, F], error=True)
        assert err < 1e-14
        assert y_of_k(k, F, p) == pytest.approx(float(oracle) / p.alpha, rel=1e-12)

    def test_log_branch_quadrature_oracle(self):
        p = make_params(beta=1.0)
        F, k = 0.02, 0.031
        oracle = quad(lambda u: 1.0 / (u + p.shift), [k, F])
        assert y_of_k(k, F, p) == pytest.approx(float(oracle) / p.alpha, rel=1e-12)

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
        # a scalar and an array strike, each on its own path
        for k in (-0.03, np.array([0.01, -0.03])):
            with pytest.raises(NonpositiveShiftedStrike,
                               match=r"smallest k \+ shift 0\.0 is not positive"):
                y_of_k(k, 0.02, make_params())


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
        # an infinite strike gives 0.0 on the scalar and the array path,
        # with no warning
        for k in (math.inf, -math.inf):
            assert kappa(k, 0.02, 0.0095, 2.0) == 0.0
        assert np.array_equal(
            kappa(np.array([-math.inf, 5.0, math.inf]), 0.02, 0.0095, 2.0),
            [0.0, kappa(5.0, 0.02, 0.0095, 2.0), 0.0],
        )

    def test_wing_matches_direct_formula(self):
        # past y = xi/sqrt(2) = 4 kappa reads Cody's third range, with no
        # subtraction; it must agree with the scaled-erfc evaluation at the
        # same point, which gives up log10(xi^2) digits to the cancellation
        sigma, T = 0.01, 1.0
        for xi in (50.001, 55.0, 80.0):
            k = 0.02 + xi * sigma
            direct = 2.0 * (1.0 - xi * float(mills_ratio(xi)))
            assert kappa(k, 0.02, sigma, T) == pytest.approx(direct, rel=1e-10)

    def test_against_exact_from_zero_to_1e300(self):
        # both paths against 40-digit values, on both sides of Cody's joins
        # y = 0.46875 and y = 4; sigma = T = 1 and F = 0 make xi the strike
        # itself.  Below y = 4, 1 - xi M(xi) gives up log10(1/q) digits to
        # the cancellation (about 1.5 at the join); past it, none.  Where
        # kappa is subnormal (xi past ~1e154) the relative bound is taken at
        # the smallest normal double.  Measured: 8.2e-15 array, 1.0e-14 scalar
        import mpmath

        joins = [c * math.sqrt(2.0) for c in (0.46875, 4.0)]
        xis = np.sort(np.concatenate([
            [0.0], np.geomspace(1e-12, 1e300, 1201),
            *(j + np.spacing(j) * np.arange(-3, 4) for j in joins),
        ]))

        def exact(x):
            if x > 1e4:  # mpmath's erfc overflows; eight terms give 40 digits
                return 2 * sum((-1) ** (i + 1) * mpmath.fac2(2 * i - 1) / x ** (2 * i)
                               for i in range(1, 9))
            return 2 * (1 - x * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(x * x / 2)
                        * mpmath.erfc(x / mpmath.sqrt(2)))

        with mpmath.workdps(40):
            want = np.array([float(exact(mpmath.mpf(x))) for x in xis.tolist()])
        scale = np.maximum(want, sys.float_info.min)
        array = kappa(xis, 0.0, 1.0, 1.0)
        scalar = np.array([kappa(x, 0.0, 1.0, 1.0) for x in xis.tolist()])
        for got in (array, scalar):
            assert np.max(np.abs(got - want) / scale) <= 2e-14

    def test_series_past_double_range(self):
        # at xi = 1e80, xi^2 is past the double range; t = 2/xi/xi is not
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


# the forms of one scalar strike that the kernels run on Python floats
SCALAR_FORMS = (float, np.float64, np.asarray)


class TestScalarPath:
    """A scalar strike runs y_of_k, local_vol and kappa on Python floats and
    the math module, an array runs them on numpy.  Both evaluate the same
    formulas, and libm's pow and log differ from numpy's by at most an ulp."""

    F = 0.02

    def test_kappa_bit_for_bit(self):
        # every scalar form runs the float path at every xi, bit for bit, and
        # up to y = xi/sqrt(2) = 4 each path forms 1 - xi*M(xi) as
        # mills_ratio does on that path.  The array path rounds its powers
        # and matrix product differently from Horner on floats; where
        # 1 - xi*M(xi) cancels that gap grows, to 1.5e-14 relative measured
        # at y = 4, and past it both read Cody's third range
        F, sigma, T = self.F, 0.01, 2.0
        s = sigma * math.sqrt(T)
        join = 4.0 * math.sqrt(2.0)
        xis = np.concatenate([
            [0.0], np.geomspace(1e-12, 1e300, 3001),
            join + np.spacing(join) * np.arange(-3, 4),
        ])
        ks = F + xis * s
        xi = np.abs(ks - F) / s
        below = xi * (1.0 / math.sqrt(2.0)) <= 4.0
        assert np.sum(below) > 100 and np.sum(~below) > 100
        want = [kappa(float(k), F, sigma, T) for k in ks.tolist()]
        for form in SCALAR_FORMS[1:]:
            got = [kappa(form(k), F, sigma, T) for k in ks]
            assert got == want, form
        direct = [2.0 * (1.0 - x * mills_ratio(x)) for x in xi[below].tolist()]
        assert np.array_equal(np.array(want)[below], direct)
        array = kappa(ks, F, sigma, T)
        assert np.array_equal(array[below], 2.0 * (1.0 - xi * mills_ratio(xi))[below])
        scale = np.maximum(array, sys.float_info.min)
        assert np.max(np.abs(array - want) / scale) <= 2e-14

    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
    def test_y_of_k_within_ulps_of_array(self, beta):
        p = make_params(beta=beta)
        F, b = self.F, p.shift
        ks = np.concatenate([np.linspace(-0.0299, 0.3, 2001),
                             F + 1e-6 * np.linspace(-1.0, 1.0, 201)])
        array = y_of_k(ks, F, p)
        scalar = np.array([y_of_k(k, F, p) for k in ks.tolist()])
        if beta == 0.0:  # (k + b)^1 is exact on both paths
            assert np.array_equal(scalar, array)
        elif beta == 1.0:  # one log, one division
            assert np.all(np.abs(scalar - array) <= 2.0 * np.spacing(np.abs(array)))
        else:
            # one pow differs by an ulp, and near the forward the difference
            # of the two powers cancels: the ulps are those of the terms
            om = 1.0 - beta
            terms = np.maximum((F + b) ** om, (ks + b) ** om)
            ulp = np.spacing(terms) / (p.alpha * om)
            assert np.all(np.abs(scalar - array) <= 4.0 * ulp)
            assert np.max(np.abs(scalar - array)) > 0.0  # the pows do differ

    @pytest.mark.parametrize("beta", [0.0, 0.4, 1.0])
    def test_local_vol_within_two_ulps_at_the_same_y(self, beta):
        # the y drift is the previous test's; given y, only (k + b)^beta
        # differs, by at most an ulp before the last product rounds
        p = make_params(beta=beta)
        ks = np.linspace(-0.0299, 0.3, 2001)
        y = np.array([y_of_k(k, self.F, p) for k in ks.tolist()])
        ny = p.nu * y
        want = p.alpha * np.sqrt(1.0 - 2.0 * p.rho * p.nu * y + ny * ny) * (
            (ks + p.shift) ** p.beta
        )
        got = np.array([local_vol(k, self.F, p) for k in ks.tolist()])
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))

    @pytest.mark.parametrize("near, far", [
        *((form(0.019), form(1e6)) for form in SCALAR_FORMS), (0, 10**6),
    ])
    def test_every_scalar_form_returns_a_float(self, near, far):
        p = make_params()
        # the far strike takes kappa past y = 4, into Cody's third range
        for value in (y_of_k(near, self.F, p), local_vol(near, self.F, p),
                      kappa(near, self.F, 0.01, 1.0), kappa(far, self.F, 0.01, 1.0)):
            assert type(value) is float

    @pytest.mark.parametrize("form", SCALAR_FORMS)
    def test_typed_errors(self, form):
        p = make_params()
        for f in (y_of_k, local_vol):
            with pytest.raises(NonpositiveShiftedStrike,
                               match=r"smallest k \+ shift 0\.0 is not positive"):
                f(form(-0.03), self.F, p)
            with pytest.raises(NonpositiveShiftedStrike,
                               match=r"smallest k \+ shift 0\.0 is not positive"):
                f(form(0.01), -0.03, p)
        for sigma in (0.0, -0.01, math.nan):
            with pytest.raises(ValueError, match="kappa requires sigma > 0"):
                kappa(form(0.019), self.F, sigma, 1.0)

    @pytest.mark.parametrize("k, F, params, args", [
        # (nu y)^2 past the double range: J and the local vol are inf
        (0.0, 0.003, dict(alpha=1e-300, beta=0.5, nu=1e10), ()),
        # alpha (1 - beta) underflows to 0.0: y is +-inf, or NaN at the forward
        (0.0, 0.003, dict(alpha=5e-324, beta=0.5, nu=0.0), ()),
        (0.01, 0.003, dict(alpha=5e-324, beta=0.5, nu=0.0), ()),
        (0.003, 0.003, dict(alpha=5e-324, beta=0.5, nu=0.0), ()),
        # (F + b) / (k + b) underflows to 0.0 on the log branch: y is -inf
        (1e300, 1e-300, dict(alpha=0.02, beta=1.0, nu=0.0, shift=0.0), ()),
        # sigma sqrt(T) underflows to 0.0: xi is inf, or NaN at the forward
        # (kappa is 0.0 or NaN)
        (0.01, 0.003, None, (1e-200, 1e-300)),
        (0.003, 0.003, None, (1e-200, 1e-300)),
    ])
    def test_scalar_edges_match_the_array_path(self, k, F, params, args):
        # where a float operation would raise OverflowError or
        # ZeroDivisionError, the float path returns numpy's inf or NaN; the
        # array code warns there, and the warnings are not what is compared
        if params is None:
            calls = [lambda x: kappa(x, F, *args)]
        else:
            p = SabrParams(**{"rho": 0.0, "shift": 0.03, **params})
            calls = [lambda x: y_of_k(x, F, p), lambda x: local_vol(x, F, p)]
        with np.errstate(all="ignore"):
            for call in calls:
                want = call(np.array([k]))[0]
                for form in SCALAR_FORMS:
                    got = call(form(k))
                    assert got == want or (math.isnan(got) and math.isnan(want))


def extended_precision_time_value(grid, z):
    """tv over interior nodes from the assembled z, solved at mpmath's
    working precision: the rows of solve_one_step and a Thomas solve with the
    single source at the forward's interior row.  Returns tv, z, h+ and h-
    as mpmath numbers."""
    import mpmath

    k = [mpmath.mpf(v) for v in grid.strikes.tolist()]
    z = [mpmath.mpf(v) for v in z.tolist()]
    h_minus, h_plus = np.diff(k[:-1]), np.diff(k[1:])
    w = [zj / (hp + hm) for zj, hp, hm in zip(z, h_plus, h_minus)]
    lower = [-wj * hp for wj, hp in zip(w, h_plus)]
    diag = [1 + zj for zj in z]
    upper = [-wj * hm for wj, hm in zip(w, h_minus)]
    diag[0] = diag[-1] = 1
    upper[0] = lower[-1] = 0
    n = grid.forward_index - 1
    c, d = [mpmath.mpf(0)], [mpmath.mpf(0)]
    for i in range(len(z)):
        a = lower[i] if i else 0
        piv = diag[i] - a * c[-1]
        c.append((upper[i] if i + 1 < len(z) else 0) / piv)
        d.append(((w[n] * h_plus[n] * h_minus[n] if i == n else 0)
                  - a * d[-1]) / piv)
    tv = d[1:]
    for i in range(len(z) - 2, -1, -1):
        tv[i] -= c[i + 1] * tv[i + 1]
    return tv, z, h_plus, h_minus


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
        z = _OneStepRows(grid, params, 5.0).at(slice_.atm_normal_vol)[0]
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
        # one elimination, for the time value that calls and puts share: the
        # interior rows from each end towards the forward's row, once each
        eliminate = ah_engine._eliminate_towards
        eliminated = []

        def counting(diag, outer, inner):
            eliminated.append(len(diag))
            return eliminate(diag, outer, inner)

        monkeypatch.setattr(ah_engine, "_eliminate_towards", counting)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        solve_one_step(grid, MarketSlice(5.0, 0.0095), make_params())
        n = grid.forward_index - 1
        assert eliminated == [n, grid.size - 3 - n]
        assert not hasattr(ah_engine, "thomas_solve")

    def test_density_against_extended_precision_solve(self):
        # the same assembled system solved in 50 digits.  On the beta = 1
        # grid a second difference of the solved prices missed by 2.3e-13 of
        # the largest density; the row equation misses by 4.7e-15 (ED 3.0e-16)
        # and the time value by 7.9e-15 per node (ED 2.3e-15).  The boundary
        # rows make tv exactly zero at the first and last interior nodes, in
        # both solves, so there it is held against the largest tv
        import mpmath

        cases = [
            (make_params(alpha=0.4, beta=1.0),
             build_uniform_grid(-0.02, 0.08, 81, 0.02), 5.0),
            (SabrParams(**ED_PARAMS), build_uniform_grid(*ED_GRID, ED_FORWARD),
             ED_EXPIRY),
        ]
        for params, grid, T in cases:
            slice_ = self_consistent_slice(grid, params, T)
            z = _OneStepRows(grid, params, T).at(slice_.atm_normal_vol)[0]
            with mpmath.workdps(50):
                tv, z, h_plus, h_minus = extended_precision_time_value(grid, z)
                exact = np.array([float(2 * tv[i] / (z[i] * h_plus[i] * h_minus[i]))
                                  for i in range(len(z))])
                exact_tv = np.array([float(v) for v in tv])
            exact[0] = exact[-1] = 0.0
            surface = solve_one_step(grid, slice_, params)
            assert np.max(np.abs(surface.density - exact)) <= 5e-14 * np.max(exact)
            miss = np.abs(surface.time_value[1:-1] - exact_tv)
            assert np.all(miss[1:-1] <= 3e-14 * exact_tv[1:-1])
            assert np.max(miss) <= 3e-14 * np.max(exact_tv)

    def test_atm_call_and_put_are_one_float(self, ed_surface):
        # the first grids of the A1 draws (seed 20260825) and the ED fixture
        rng = np.random.default_rng(20260825)
        surfaces = [ed_surface]
        for _ in range(10):
            d = draw_parameters(rng)
            params, grid = inversion_setup(
                0.02, d["alpha"], d["beta"], d["rho"], d["nu"], d["T"]
            )
            surfaces.append(price_self_consistent(grid, params, d["T"]))
        for surface in surfaces:
            n = surface.grid.forward_index
            assert surface.calls[n] == surface.puts[n]

    def test_prices_at_or_above_intrinsic_and_mass_balance(self):
        # the inversion and mass grids of the A1 draws (seed 20260825), as A6
        # builds them.  tv is zero at the first and last two nodes, so the
        # mass beyond each edge is the slope of tv over the second cell, and
        # with the interior mass it adds up to 1 (measured within 2.0e-15)
        rng = np.random.default_rng(20260825)
        for _ in range(200):
            d = draw_parameters(rng)
            for setup in (inversion_setup, mass_setup):
                params, grid = setup(
                    0.02, d["alpha"], d["beta"], d["rho"], d["nu"], d["T"]
                )[:2]
                surface = price_self_consistent(grid, params, d["T"])
                tv, k = surface.time_value, grid.strikes
                assert tv.min() >= 0.0
                edges = tv[2] / (k[2] - k[1]) + tv[-3] / (k[-2] - k[-3])
                assert abs(surface.density_mass() + edges - 1.0) <= 1e-12

    @pytest.mark.parametrize("expiry", [1e10, 1e12, 1e14])
    def test_large_expiry_absorbs_at_the_edges(self, expiry):
        # at T = 1e12 the last row's z is about 1.25e16, where 1 + z rounds
        # to z, so no boundary row may be built on 1 + z
        grid = build_uniform_grid(*ED_GRID, ED_FORWARD)
        surface = price_self_consistent(grid, SabrParams(**ED_PARAMS), expiry)
        tv = surface.time_value
        assert np.all(tv[[0, 1, -2, -1]] == 0.0)
        assert tv.min() >= 0.0
        assert surface.density.min() >= 0.0

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

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("forward, shift", [(-0.01, 0.0), (-0.03, 0.03)])
    def test_nonpositive_shifted_strike_at_every_beta(self, beta, forward, shift):
        # the rows check k_0 + b before the local-vol guess at the forward,
        # which is complex (beta = 0.5) or zero (beta = 1, or F + b = 0) here
        params = make_params(beta=beta, shift=shift)
        grid = build_uniform_grid(*ED_GRID[:2], 241, forward)
        with pytest.raises(NonpositiveShiftedStrike):
            price_self_consistent(grid, params, ED_EXPIRY)

    def test_published_fixture_atm_quote(self, ed_surface):
        # ATM last 0.1350 in price points is 13.5 bp in rate units; the
        # published parameters are rounded to four digits, so the repriced
        # ATM only has to land near the quote
        atm = ed_surface.time_value[ed_surface.grid.forward_index]
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
        atm = surface.time_value[grid.forward_index]
        assert atm == pytest.approx(slice_.atm_price, rel=1e-12)

    @staticmethod
    def a1_grids(count):
        """(grid, params, T) of the first `count` A1 draws (seed 20260825)."""
        rng = np.random.default_rng(20260825)
        for _ in range(count):
            d = draw_parameters(rng)
            params, grid = inversion_setup(
                0.02, d["alpha"], d["beta"], d["rho"], d["nu"], d["T"]
            )
            yield grid, params, d["T"]

    def test_atm_time_value_matches_full_solve(self):
        # the ED fixture, the first 10 A1 grids and a graded beta = 1 grid
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        beta1 = make_params(alpha=0.4, beta=1.0)
        cases = [(ed, SabrParams(**ED_PARAMS), ED_EXPIRY), *self.a1_grids(10),
                 (stretched_grid(0.02, beta1, 5.0)[0], beta1, 5.0)]
        for grid, params, T in cases:
            sigma = self_consistent_slice(grid, params, T).atm_normal_vol
            surface = solve_one_step(grid, MarketSlice(T, sigma), params)
            atm = _OneStepRows(grid, params, T).atm_time_value(sigma)
            assert atm == surface.time_value[grid.forward_index]

    def test_one_full_solve_per_surface(self, monkeypatch):
        # each evaluation, the fixed point's six and the surface's, builds
        # the rows once (one kappa call) and eliminates them once from each
        # end; only solve_one_step carries the ratios outward
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(ah_engine, name, wrapper)

        counted("solve_one_step", solve_one_step)
        counted("kappa", kappa)
        counted("_eliminate_towards", ah_engine._eliminate_towards)
        grid = build_uniform_grid(*ED_GRID, ED_FORWARD)
        price_self_consistent(grid, SabrParams(**ED_PARAMS), ED_EXPIRY)
        evaluation = ["kappa", "_eliminate_towards", "_eliminate_towards"]
        assert calls == 6 * evaluation + ["solve_one_step", *evaluation]

    def test_secant_evaluation_count(self, monkeypatch):
        # one kappa call per evaluation; the damped iteration took 19 on ED
        evaluations = []

        def counting(*args):
            evaluations[-1] += 1
            return kappa(*args)

        monkeypatch.setattr(ah_engine, "kappa", counting)
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        for grid, params, T in [(ed, SabrParams(**ED_PARAMS), ED_EXPIRY),
                                *self.a1_grids(200)]:
            evaluations.append(0)
            self_consistent_slice(grid, params, T)
        assert evaluations[0] == 6
        assert max(evaluations) <= 8

    # at T = 2 pi the ATM vol is the time value, and at beta = 0 the start
    # is alpha; each map sends the vols the iteration asks for to ATM vols
    @pytest.mark.parametrize("atm, path", [
        ({8.0: 10.0, 10.0: 12.1, 12.1: 12.1}, [8.0, 10.0, 12.1]),  # secant < 0
        ({8.0: 10.0, 10.0: 12.0, 12.0: 12.0}, [8.0, 10.0, 12.0]),  # flat g
    ])
    def test_plain_step_replaces_a_failed_secant(self, monkeypatch, atm, path):
        asked = []

        def scripted(self, sigma):
            asked.append(sigma)
            return atm[sigma]

        monkeypatch.setattr(_OneStepRows, "atm_time_value", scripted)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        params = make_params(alpha=8.0, beta=0.0)
        slice_ = self_consistent_slice(grid, params, 2.0 * math.pi)
        assert asked == path and slice_.atm_normal_vol == path[-1]

    @pytest.mark.parametrize("vol", [-1.0, 0.0, math.inf, math.nan])
    def test_atm_vol_off_the_positive_domain(self, monkeypatch, vol):
        monkeypatch.setattr(_OneStepRows, "atm_time_value", lambda self, sigma: vol)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        with pytest.raises(ConvergenceError, match="positive domain"):
            self_consistent_slice(grid, make_params(), 5.0)

    def test_evaluation_cap(self, monkeypatch):
        # g grows with sigma: every secant step is negative, every plain one up
        monkeypatch.setattr(_OneStepRows, "atm_time_value",
                            lambda self, sigma: 2.0 * sigma + 1.0)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        with pytest.raises(ConvergenceError, match="in 50 evaluations"):
            self_consistent_slice(grid, make_params(), 5.0)

    def test_zero_pivot(self, monkeypatch):
        # decoupled rows, one with a zero diagonal: above, below and at the
        # forward's row
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        rows = _OneStepRows(grid, make_params(), 5.0)
        m = grid.size - 2
        for row in (0, m - 1, rows.n):
            diag = np.ones(m)
            diag[row] = 0.0
            decoupled = (None, np.zeros(m), diag, np.zeros(m), 1.0)
            monkeypatch.setattr(rows, "at", lambda sigma: decoupled)
            with pytest.raises(SingularPivot):
                rows.atm_time_value(0.01)

    @pytest.mark.parametrize("expiry", [0.0, -1.0, math.nan])
    def test_expiry_not_positive(self, expiry):
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        with pytest.raises(ValueError, match="expiry must be positive"):
            self_consistent_slice(grid, make_params(), expiry)

    def test_tiny_expiry_against_extended_precision_solve(self):
        # at T = 1e-60 the ATM vol (6.6e-33) lies below an ulp of the
        # local-vol guess, where a damped update sigma + (vol - sigma) gave
        # zero; the vol must reproduce itself through a 50-digit solve
        import mpmath

        params = SabrParams(**ED_PARAMS)
        grid = build_uniform_grid(*ED_GRID, ED_FORWARD)
        T = 1e-60
        vol = self_consistent_slice(grid, params, T).atm_normal_vol
        z = _OneStepRows(grid, params, T).at(vol)[0]
        with mpmath.workdps(50):
            tv = extended_precision_time_value(grid, z)[0][grid.forward_index - 1]
            exact = float(tv * mpmath.sqrt(2 * mpmath.pi / mpmath.mpf(T)))
        assert vol == pytest.approx(exact, rel=1e-13)


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
        tv = ed_surface.time_value.copy()
        tv[n - 5] = np.nan
        tv[n + 5] = np.inf
        tv[n + 6] = -1e-20
        tv[n] = 0.0
        broken = dataclasses.replace(ed_surface, time_value=tv)
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
        for step in (q.h_minus_nm1, q.h_minus_n, q.h_plus_n, q.h_plus_np1):
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
