"""Engine tests: grid construction, local-vol machinery, the one-step solve
and its arbitrage properties, and the self-consistent ATM fixed point."""

import dataclasses
import gc
import math
import sys
import weakref

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
    SingularPivot,
)
from ahsabr.numerics import atm_normal_vol, bachelier_otm_vols

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
from oracles import bachelier_price, mills_ratio, norm_pdf


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
        # numerics.atm_normal_vol and its inverse, price = vol * sqrt(T / 2 pi)
        price = 0.0095 * math.sqrt(2.0 / (2.0 * math.pi))
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        vol = MarketSlice.at_vol(grid, make_params(), 2.0,
                                 atm_normal_vol(price, 2.0)).atm_normal_vol
        assert vol == pytest.approx(price / math.sqrt(2.0 / (2.0 * math.pi)),
                                    rel=1e-15, abs=0.0)
        assert vol == pytest.approx(0.0095, rel=1e-14, abs=0.0)
        assert vol * math.sqrt(2.0 / (2.0 * math.pi)) == pytest.approx(
            price, rel=1e-14, abs=0.0)
        # elementwise on arrays, with the scalar's bits
        assert atm_normal_vol(np.array([price, 2.0 * price]), 2.0).tolist() == [
            vol, atm_normal_vol(2.0 * price, 2.0)]

    def test_validation(self):
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        for expiry, vol, name in [(-1.0, 0.0095, "expiry"),
                                  (2.0, 0.0, "atm_normal_vol"),
                                  (math.nan, 0.0095, "expiry"),
                                  (2.0, math.nan, "atm_normal_vol")]:
            with pytest.raises(ValueError, match=f"^{name} must be positive$"):
                MarketSlice.at_vol(grid, make_params(), expiry, vol)


class TestBuildUniformGrid:
    def test_published_quoting_grid(self):
        grid = build_uniform_grid(-0.05, 0.25, 241, 0.0025)
        h = grid.strikes[1] - grid.strikes[0]
        assert h == pytest.approx(0.00125, rel=1e-12, abs=0.0)
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

    def test_strikes_are_a_read_only_copy(self):
        # the grid caches its one-step geometry, so neither the caller's array
        # nor the grid's own may change its strikes after construction
        strikes = np.linspace(0.0, 0.04, 9)
        grid = Grid(strikes=strikes, forward_index=4)
        strikes[3] = 0.5
        assert grid.strikes.tolist() == np.linspace(0.0, 0.04, 9).tolist()
        with pytest.raises(ValueError):
            grid.strikes[3] = 0.5

    def test_grid_and_surface_compare_by_identity(self):
        # array fields have no single truth value: two equal grids, and two
        # surfaces on them, are distinct objects that hash and compare
        # without error
        params = SabrParams(alpha=0.02, beta=0.4, rho=-0.25, nu=0.30, shift=0.03)
        grids = [build_uniform_grid(-0.02, 0.08, 41, 0.02) for _ in range(2)]
        surfaces = [price_self_consistent(g, params, 5.0) for g in grids]
        for a, b in (grids, surfaces):
            assert a == a and a != b
            assert len({a, b, a}) == 2

    def test_geometry_computed_once_per_grid(self, monkeypatch):
        # two surfaces build their rows four times, and the grid's steps once
        calls, steps = [], Grid.steps

        def counted(self):
            calls.append(self)
            return steps(self)

        monkeypatch.setattr(Grid, "steps", counted)
        grid = build_uniform_grid(*ED_GRID, ED_FORWARD)
        for alpha in (ED_PARAMS["alpha"], 1.1 * ED_PARAMS["alpha"]):
            price_self_consistent(grid, SabrParams(**{**ED_PARAMS, "alpha": alpha}),
                                  ED_EXPIRY)
        assert calls == [grid]


class TestYofK:
    def test_at_forward_zero(self):
        assert y_of_k(0.02, 0.02, make_params()) == 0.0

    def test_beta_zero_linear(self):
        p = make_params(beta=0.0)
        assert y_of_k(0.015, 0.02, p) == pytest.approx(0.005 / p.alpha, rel=1e-14, abs=0.0)

    def test_quadrature_oracle(self):
        p = make_params(alpha=0.0206, beta=0.4, shift=0.03)
        F, k = 0.02, 0.01875
        oracle, err = quad(lambda u: (u + p.shift) ** (-p.beta), [k, F], error=True)
        assert err < 1e-14
        assert y_of_k(k, F, p) == pytest.approx(float(oracle) / p.alpha, rel=1e-12, abs=0.0)

    def test_log_branch_quadrature_oracle(self):
        p = make_params(beta=1.0)
        F, k = 0.02, 0.031
        oracle = quad(lambda u: 1.0 / (u + p.shift), [k, F])
        assert y_of_k(k, F, p) == pytest.approx(float(oracle) / p.alpha, rel=1e-12, abs=0.0)

    def test_near_one_beta_routed_to_log_branch(self):
        p_log = make_params(beta=1.0)
        p_near = make_params(beta=1.0 - 1e-13)
        assert y_of_k(0.015, 0.02, p_near) == pytest.approx(
            y_of_k(0.015, 0.02, p_log), rel=1e-12, abs=0.0
        )

    def test_strictly_decreasing(self):
        p = make_params()
        ks = np.linspace(-0.02, 0.08, 101)
        ys = y_of_k(ks, 0.02, p)
        assert np.all(np.diff(ys) < 0.0)

    def test_nonpositive_shifted_strike(self):
        # a scalar and an array strike, each on its own path, below the
        # shift, and an array strike with the forward below it; the public
        # local_vol checks through y_of_k
        for form in (y_of_k, local_vol):
            for k, F in ((-0.03, 0.02), (np.array([0.01, -0.03]), 0.02),
                         (np.array([0.01, 0.02]), -0.03)):
                with pytest.raises(NonpositiveShiftedStrike,
                                   match=r"smallest k \+ shift 0\.0 is not positive"):
                    form(k, F, make_params())


class TestLocalVol:
    def test_nu_zero_is_shifted_cev(self):
        p = make_params(nu=0.0)
        k = 0.013
        assert local_vol(k, 0.02, p) == pytest.approx(
            p.alpha * (k + p.shift) ** p.beta, rel=1e-15, abs=0.0
        )

    def test_at_forward(self):
        p = make_params()
        assert local_vol(0.02, 0.02, p) == pytest.approx(
            p.alpha * (0.02 + p.shift) ** p.beta, rel=1e-15, abs=0.0
        )

    def test_generic_point_direct_formula(self):
        p = make_params()
        k, F = 0.012, 0.02
        y = y_of_k(k, F, p)
        j = math.sqrt(1.0 - 2.0 * p.rho * p.nu * y + (p.nu * y) ** 2)
        assert local_vol(k, F, p) == pytest.approx(
            p.alpha * j * (k + p.shift) ** p.beta, rel=1e-15, abs=0.0
        )


class TestKappa:
    def test_at_forward_two(self):
        assert kappa(0.02, 0.02, 0.0095, 2.0) == 2.0

    def test_xi_one_direct_evaluation(self):
        sigma, T = 0.01, 4.0
        k = 0.02 - sigma * math.sqrt(T)  # xi == 1 under the total convention
        expected = 2.0 * (1.0 - float(mills_ratio(1.0)))
        assert kappa(k, 0.02, sigma, T) == pytest.approx(expected, rel=1e-13, abs=0.0)

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
            assert kappa(k, 0.02, sigma, T) == pytest.approx(direct, rel=1e-10, abs=0.0)

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
        assert kappa(1e-60, 0.0, 1e-140, 1.0) == pytest.approx(2e-160, rel=1e-14,
                                                               abs=0.0)

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
        for sigma in (0.0, -0.01, -1.0, math.nan):
            with pytest.raises(ValueError, match="^kappa requires sigma > 0$"):
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


def extended_precision_time_value(grid, r):
    """tv over interior nodes from the rows' r = 1/z, solved at mpmath's
    working precision: z = 1/r formed in mpmath, the rows of the one-step
    matrix before they are divided by z, and a Thomas solve with the single
    source at the forward's interior row.  Returns tv, z, h+ and h- as
    mpmath numbers."""
    import mpmath

    k = [mpmath.mpf(v) for v in grid.strikes.tolist()]
    z = [1 / mpmath.mpf(v) for v in r.tolist()]
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


def extended_precision_lower_edge_mass(u, n, params, sigma, T):
    """The mass beyond the lower edge, tv_2 / (k_2 - k_1), of the divided
    one-step rows of a beta = 1 slice at mpmath's working precision.  The
    nodes are given as u = k + b (increasing mpmath numbers, the forward at
    node n), so a wing may reach far below the smallest double k + b.  Each
    row is _OneStepRows' with theta^2 = local_vol^2 kappa formed in mpmath,
    the first and last interior rows absorb (tv = 0), and a Thomas solve
    with the single source at row n gives tv."""
    import mpmath

    alpha, rho, nu, T = (mpmath.mpf(v) for v in (params.alpha, params.rho, params.nu, T))
    s = mpmath.mpf(sigma) * mpmath.sqrt(T)
    c, d = [mpmath.mpf(0)], [mpmath.mpf(0)]  # tv_j = d_j + c_j tv_{j+1}
    for j in range(1, len(u) - 1):
        h_minus, h_plus = u[j] - u[j - 1], u[j + 1] - u[j]
        y = mpmath.log(u[n] / u[j]) / alpha
        xi = abs(u[n] - u[j]) / s
        kappa = 2 * (1 - xi * mpmath.ncdf(-xi) / mpmath.npdf(xi))
        theta2 = (alpha * u[j]) ** 2 * (1 - 2 * rho * nu * y + (nu * y) ** 2) * kappa
        r = h_plus * h_minus / (T * theta2)
        hs = h_plus + h_minus
        lo, up = (0, 0) if j in (1, len(u) - 2) else (h_plus / hs, h_minus / hs)
        piv = 1 + r - lo * c[-1]
        c.append(up / piv)
        d.append(((h_plus * h_minus / hs if j == n else 0) + lo * d[-1]) / piv)
    tv = [mpmath.mpf(0)]  # the last node
    for cj, dj in zip(c[:0:-1], d[:0:-1]):
        tv.append(dj + cj * tv[-1])
    return tv[-2] / (u[2] - u[1])


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
        assert sigma == pytest.approx(alpha, rel=2e-4, abs=0.0)
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
        rows = _OneStepRows(grid, params, 5.0)
        r, diag = rows.diagonal(slice_.atm_normal_vol)
        assert np.all(r > 0.0)  # r = 1/z
        # each row divided by its z: |diag| - |lower| - |upper| = 1/z exactly
        # on the coupled rows; the boundary rows are tv = 0
        slack = diag - rows.lo - rows.up
        assert np.all(np.abs(slack - r)[1:-1] < 1e-12 * diag[1:-1])
        assert rows.up[0] == rows.lo[-1] == 0.0

    def test_grid_refinement_is_second_order(self):
        params = make_params()
        F, T = 0.02, 5.0
        prices = []
        for count in (41, 81, 161):
            grid = build_uniform_grid(-0.02, 0.08, count, F)
            surface = solve_one_step(MarketSlice.at_vol(grid, params, T, 0.0095))
            # the same physical strike on every refinement level
            j = int(np.argmin(np.abs(grid.strikes - 0.025)))
            prices.append(surface.calls[j])
        d1 = prices[1] - prices[0]
        d2 = prices[2] - prices[1]
        assert 3.5 < d1 / d2 < 4.5

    def test_one_elimination_for_calls_and_puts(self, monkeypatch):
        # one elimination, for the time value that calls and puts share: one
        # kappa call on the grid's distances (_kappa_at), then one pivot sweep
        # over the interior rows from each end towards the forward's row; each
        # call is logged with the length of its first argument
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append((name, len(args[0])))
                return fn(*args)
            monkeypatch.setattr(ah_engine, name, wrapper)

        counted("_kappa_at", ah_engine._kappa_at)
        counted("_pivots", ah_engine._pivots)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        solve_one_step(MarketSlice.at_vol(grid, make_params(), 5.0, 0.0095))
        n, m = grid.forward_index - 1, grid.size - 2
        assert calls == [("_kappa_at", m), ("_pivots", n), ("_pivots", m - 1 - n)]
        assert not hasattr(ah_engine, "thomas_solve")

    def test_density_against_extended_precision_solve(self):
        # the same assembled system solved in 50 digits.  On the beta = 1
        # grid a second difference of the solved prices missed by 2.3e-13 of
        # the largest density; the row equation misses by 8.6e-15 (ED 6.0e-16)
        # and the time value by 2.0e-14 per node (ED 4.1e-15).  The boundary
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
            r = _OneStepRows(grid, params, T).diagonal(slice_.atm_normal_vol)[0]
            with mpmath.workdps(50):
                tv, z, h_plus, h_minus = extended_precision_time_value(grid, r)
                exact = np.array([float(2 * tv[i] / (z[i] * h_plus[i] * h_minus[i]))
                                  for i in range(len(z))])
                exact_tv = np.array([float(v) for v in tv])
            exact[0] = exact[-1] = 0.0
            surface = solve_one_step(slice_)
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
                assert surface.edge_masses() == (tv[2] / (k[2] - k[1]),
                                                 tv[-3] / (k[-2] - k[-3]))

    def test_beta_one_lower_edge_mass_survives_a_resolved_wing(self):
        # A6's draw 24 (seed 20260825) misses unit mass by its lower-edge
        # mass, 8.80e-2.  Its mass grid stops at L = log((F+b)/(k+b)) = 28.7,
        # where k + b nears the double resolution of k.  A wing of nodes
        # uniform in L with dL = 1 out to L = 300, solved in 30 digits at the
        # same ATM vol, still carries 8.71e-2 past its edge (measured -1.0%),
        # and halving dL moves that by 0.1%: the mass goes to k + b = 0 and
        # no resolved wing holds it.  On the unextended grid the 30-digit
        # rows give the library's edge mass within 2.2e-15
        import mpmath

        rng = np.random.default_rng(20260825)
        d = [draw_parameters(rng) for _ in range(25)][24]
        params, grid, _ = mass_setup(
            0.02, d["alpha"], d["beta"], d["rho"], d["nu"], d["T"]
        )
        surface = price_self_consistent(grid, params, d["T"])
        sigma, n = surface.slice.atm_normal_vol, grid.forward_index
        below = surface.edge_masses()[0]
        with mpmath.workdps(30):
            b = mpmath.mpf(params.shift)
            u = [mpmath.mpf(k) + b for k in grid.strikes.tolist()]
            edge = extended_precision_lower_edge_mass(u, n, params, sigma, d["T"])
            assert float(edge) == pytest.approx(below, rel=1e-12, abs=0.0)
            edge_l = mpmath.log(u[n] / u[0])
            masses = []
            for step in (1, 0.5):
                count = int(mpmath.ceil((300 - edge_l) / step))
                wing = [u[n] * mpmath.exp(-(edge_l + i * step))
                        for i in range(count, 0, -1)]
                masses.append(float(extended_precision_lower_edge_mass(
                    wing + u, n + count, params, sigma, d["T"])))
        assert masses[0] == pytest.approx(below, rel=0.05, abs=0.0)
        assert masses[1] == pytest.approx(masses[0], rel=0.01, abs=0.0)

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
        with pytest.raises(NumericalError, match="double range"):
            MarketSlice.at_vol(grid, make_params(alpha=1e200), 5.0, 0.0095)

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
        assert atm * 100.0 == pytest.approx(ED_ATM_PRICE_POINTS, rel=2e-2, abs=0.0)

    def test_published_fixture_density(self, ed_surface):
        assert ed_surface.density.min() >= -1e-12
        assert ed_surface.density_mass() == pytest.approx(1.0, abs=1e-3)

    def test_published_fixture_pinned(self, ed_surface):
        # the ED numbers as the one-step rows gave them before they were
        # divided by z; that change moved none of them by more than 3e-15.
        # The secant on the vol ratio stops at a vol 4.9e-15 away, which
        # leaves the time value 60 nodes above the forward 6.5e-14 off its
        # pin.  The grid has 42 nodes below the forward, so the lower wing is
        # pinned 40 nodes out, at the lowest node where tv is not zero
        grid, density = ed_surface.grid, ed_surface.density
        h_minus, h_plus = grid.steps()
        mean = float(np.sum(density * (0.5 * (h_minus + h_plus)) * grid.strikes[1:-1]))
        n = grid.forward_index
        tv = ed_surface.time_value[[n - 40, n - 20, n, n + 20, n + 60]]
        pinned = [
            (ed_surface.slice.atm_normal_vol, 0.0023101927368418033),
            (ed_surface.density_mass(), 0.9999887028278079),
            (mean, 0.002500550737144364),
            *zip(tv.tolist(), [1.4121465240078481e-08, 4.540130598697586e-06,
                               0.0013626469822093522, 1.0011855889629138e-05,
                               1.3264512971244612e-09]),
        ]
        for got, want in pinned:
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestSelfConsistentSlice:
    def test_fixed_point_residual(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        slice_ = self_consistent_slice(grid, params, 5.0)
        surface = solve_one_step(slice_)
        atm = surface.time_value[grid.forward_index]
        assert atm_normal_vol(atm, 5.0) == pytest.approx(
            slice_.atm_normal_vol, rel=1e-12, abs=0.0)

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
            surface = solve_one_step(MarketSlice.at_vol(grid, params, T, sigma))
            atm = _OneStepRows(grid, params, T).eliminate(sigma)[1]
            assert atm == surface.time_value[grid.forward_index]

    def test_rows_match_a_from_scratch_build(self):
        # the rows on a grid's cached geometry, built twice, against the rows
        # formed inline from the strikes, bit for bit, a from the public
        # local_vol: the ED fixture, the first 10 A1 grids, A1 grids at beta
        # 0, 0.4 and 1 (the log branch) and a graded beta = 1 grid
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        beta1 = make_params(alpha=0.4, beta=1.0)
        at_beta = [(grid, params, 5.0) for params, grid in (
            inversion_setup(0.02, 0.01, beta, -0.3, 0.6, 5.0)
            for beta in (0.0, 0.4, 1.0))]
        cases = [(ed, SabrParams(**ED_PARAMS), ED_EXPIRY), *self.a1_grids(10),
                 *at_beta, (stretched_grid(0.02, beta1, 5.0)[0], beta1, 5.0)]
        for grid, params, T in cases:
            k = np.array(grid.strikes.tolist())
            h_minus, h_plus = k[1:-1] - k[:-2], k[2:] - k[1:-1]
            hs = h_plus + h_minus
            lo, up = h_plus / hs, h_minus / hs
            up[0] = lo[-1] = 0.0
            n = grid.forward_index - 1
            want = dict(
                a=h_plus * h_minus / (T * local_vol(k[1:-1], k[n + 1], params) ** 2),
                lo=lo, up=up, n=n, distance=np.abs(k[1:-1] - k[n + 1]),
                c_left=[0.0, *(lo[j] * up[j - 1] for j in range(1, n + 1))],
                c_right=[0.0, *(up[j] * lo[j + 1] for j in range(len(lo) - 2, n - 1, -1))],
                source=h_plus[n] * h_minus[n] / hs[n],
            )
            for _ in range(2):
                rows = _OneStepRows(grid, params, T)
                for name, value in want.items():
                    assert np.array_equal(getattr(rows, name), value), name

    def test_rows_read_kappa_at_the_grid_distances(self):
        # r = a / kappa bit for bit: the rows take xi from the distances the
        # grid holds, kappa from the strikes and the forward, on the ED
        # fixture, the first 10 A1 grids and a graded beta = 1 grid
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        beta1 = make_params(alpha=0.4, beta=1.0)
        cases = [(ed, SabrParams(**ED_PARAMS), ED_EXPIRY), *self.a1_grids(10),
                 (stretched_grid(0.02, beta1, 5.0)[0], beta1, 5.0)]
        assert any(params.beta == 1.0 for _, params, _ in cases[1:-1])
        for grid, params, T in cases:
            sigma = self_consistent_slice(grid, params, T).atm_normal_vol
            rows = _OneStepRows(grid, params, T)
            want = rows.a / kappa(grid.strikes[1:-1], grid.forward, sigma, T)
            assert np.array_equal(rows.diagonal(sigma)[0], want)

    def test_vol_curve_reads_the_quote_sets_sigma_atm(self):
        # the vol curve at the forward and the calibration's sigma_ATM are one
        # ATM identity, so they agree bit for bit, on ED and the first 50 A1 grids
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        for grid, params, T in [(ed, SabrParams(**ED_PARAMS), ED_EXPIRY),
                                *self.a1_grids(50)]:
            surface = price_self_consistent(grid, params, T)
            vol = implied_vol_curve(surface)[grid.forward_index]
            assert vol == extract_quote_set(surface).sigma_atm

    def test_pivots_stay_above_their_coupling(self):
        # with lo_j + up_j = 1 on the coupled rows and r > 0, each left pivot
        # is at least up_j + r_j and each right pivot at least lo_j + r_j, so
        # once r has passed the range check no pivot can reach the
        # SingularPivot guard.  The smallest ratio here is about 1.005
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        beta1 = make_params(alpha=0.4, beta=1.0)
        cases = [*((ed, SabrParams(**ED_PARAMS), T)
                   for T in (ED_EXPIRY, 1e10, 1e12, 1e14)),
                 *self.a1_grids(10), (stretched_grid(0.02, beta1, 5.0)[0], beta1, 5.0)]
        for grid, params, T in cases:
            sigma = self_consistent_slice(grid, params, T).atm_normal_vol
            rows = _OneStepRows(grid, params, T)
            _, _, p, q = rows.eliminate(sigma)
            n = rows.n
            assert np.all(np.array(p) >= rows.up[:n] * (1.0 - 1e-12))
            assert np.all(np.array(q) >= rows.lo[:n:-1] * (1.0 - 1e-12))

    def test_one_errstate_scope_per_slice(self, monkeypatch):
        # the fixed point and at_vol each hold one np.errstate scope around
        # the rows' build and every evaluation, which enter none of their own
        entered = []
        errstate = np.errstate

        def counted(**kwargs):
            if sys._getframe(1).f_globals["__name__"] == ah_engine.__name__:
                entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counted)
        grid = build_uniform_grid(*ED_GRID, ED_FORWARD)
        params = SabrParams(**ED_PARAMS)
        surface = price_self_consistent(grid, params, ED_EXPIRY)
        assert entered == [{"all": "ignore"}]
        MarketSlice.at_vol(grid, params, ED_EXPIRY, surface.slice.atm_normal_vol)
        assert entered == 2 * [{"all": "ignore"}]

    def test_one_full_solve_per_surface(self, monkeypatch):
        # one build of the rows; each of the fixed point's six evaluations
        # calls kappa's array form (_kappa_at) once for the diagonal and
        # sweeps the pivots once from each end, and solve_one_step carries the
        # last one's ratios outward with no evaluation of its own
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(ah_engine, name, wrapper)

        counted("_OneStepRows", _OneStepRows)
        counted("solve_one_step", solve_one_step)
        counted("_kappa_at", ah_engine._kappa_at)
        counted("_pivots", ah_engine._pivots)
        grid = build_uniform_grid(*ED_GRID, ED_FORWARD)
        price_self_consistent(grid, SabrParams(**ED_PARAMS), ED_EXPIRY)
        evaluation = ["_kappa_at", "_pivots", "_pivots"]
        assert calls == ["_OneStepRows", *6 * evaluation, "solve_one_step"]

    def test_surface_is_the_fixed_points_last_evaluation(self):
        # bit for bit: price_self_consistent, solve_one_step at the fixed
        # point's slice, and a slice at its vol on a fresh grid with the same
        # strikes, which shares no rows: the ED fixture and the first 10 A1
        # grids.  r, which the slice keeps and the density reads, is read-only
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        for grid, params, T in [(ed, SabrParams(**ED_PARAMS), ED_EXPIRY),
                                *self.a1_grids(10)]:
            surface = price_self_consistent(grid, params, T)
            slice_ = self_consistent_slice(grid, params, T)
            fresh = Grid(grid.strikes, grid.forward_index)
            at_vol = MarketSlice.at_vol(fresh, params, T, slice_.atm_normal_vol)
            for other in (solve_one_step(slice_), solve_one_step(at_vol)):
                assert other.slice.atm_normal_vol == surface.slice.atm_normal_vol
                assert np.array_equal(other.time_value, surface.time_value)
                assert np.array_equal(other.density, surface.density)
                assert not other.slice.elimination[0].flags.writeable

    def test_priced_grid_is_not_kept_alive(self):
        # the engine keeps no rows or slices between calls, so nothing holds
        # a grid once its caller drops it and the surface priced on it
        grid = build_uniform_grid(*ED_GRID, ED_FORWARD)
        surface = price_self_consistent(grid, SabrParams(**ED_PARAMS), ED_EXPIRY)
        ref = weakref.ref(grid)
        del grid, surface
        gc.collect()
        assert ref() is None

    def test_secant_evaluation_count(self, monkeypatch):
        # one kappa call (_kappa_at) per evaluation; the damped iteration took
        # 19 on ED, and the secant on ATM vol - sigma 6 on ED and up to 7 on
        # these grids
        evaluations = []
        kappa_at = ah_engine._kappa_at

        def counting(*args):
            evaluations[-1] += 1
            return kappa_at(*args)

        monkeypatch.setattr(ah_engine, "_kappa_at", counting)
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        for grid, params, T in [(ed, SabrParams(**ED_PARAMS), ED_EXPIRY),
                                *self.a1_grids(200)]:
            evaluations.append(0)
            self_consistent_slice(grid, params, T)
        assert evaluations[0] == 6
        assert max(evaluations) <= 6

    def test_slice_records_its_evaluations_and_residual(self, monkeypatch):
        # the count on the slice is the number of eliminations a wrapped
        # _OneStepRows.eliminate sees: 6 on ED, 4 to 6 on the A1 grids, 1 for
        # at_vol; the residual is |ATM(sigma) - sigma| / sigma at the slice's
        # tv_n, the loop's stopping test, and at_vol at the fixed point's vol
        # reports the same one
        seen = []
        eliminate = _OneStepRows.eliminate

        def counting(rows, sigma):
            seen[-1] += 1
            return eliminate(rows, sigma)

        monkeypatch.setattr(_OneStepRows, "eliminate", counting)
        ed = build_uniform_grid(*ED_GRID, ED_FORWARD)
        for grid, params, T in [(ed, SabrParams(**ED_PARAMS), ED_EXPIRY),
                                *self.a1_grids(200)]:
            seen.append(0)
            slice_ = self_consistent_slice(grid, params, T)
            assert slice_.evaluations == seen[-1]
            sigma = slice_.atm_normal_vol
            vol = atm_normal_vol(slice_.elimination[1], T)
            assert slice_.residual == abs(vol - sigma) / sigma
            assert abs(vol - sigma) <= ah_engine.FIXED_POINT_TOL * sigma
            seen.append(0)
            at_vol = MarketSlice.at_vol(grid, params, T, sigma)
            assert at_vol.evaluations == seen[-1] == 1
            assert at_vol.residual == slice_.residual
        assert seen[0] == 6 and set(seen[2::2]) <= {4, 5, 6}
        ed_slice = self_consistent_slice(ed, SabrParams(**ED_PARAMS), ED_EXPIRY)
        assert ed_slice.residual <= 1e-13

    # at T = 2 pi the ATM vol is the time value, and at beta = 0 the start
    # is alpha; each map sends the vols the iteration asks for to ATM vols
    @pytest.mark.parametrize("atm, path", [
        ({8.0: 10.0, 10.0: 13.0, 13.0: 13.0}, [8.0, 10.0, 13.0]),  # secant < 0
        ({8.0: 10.0, 10.0: 12.5, 12.5: 12.5}, [8.0, 10.0, 12.5]),  # flat G
    ])
    def test_plain_step_replaces_a_failed_secant(self, monkeypatch, atm, path):
        asked = []

        def scripted(self, sigma):
            asked.append(sigma)
            return None, atm[sigma], None, None

        monkeypatch.setattr(_OneStepRows, "eliminate", scripted)
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        params = make_params(alpha=8.0, beta=0.0)
        slice_ = self_consistent_slice(grid, params, 2.0 * math.pi)
        assert asked == path and slice_.atm_normal_vol == path[-1]

    @pytest.mark.parametrize("vol", [-1.0, 0.0, math.inf, math.nan])
    def test_atm_vol_off_the_positive_domain(self, monkeypatch, vol):
        monkeypatch.setattr(_OneStepRows, "eliminate",
                            lambda self, sigma: (None, vol, None, None))
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        with pytest.raises(ConvergenceError, match="positive domain"):
            self_consistent_slice(grid, make_params(), 5.0)

    def test_evaluation_cap(self, monkeypatch):
        # g grows with sigma: every secant step is negative, every plain one up
        monkeypatch.setattr(_OneStepRows, "eliminate",
                            lambda self, sigma: (None, 2.0 * sigma + 1.0, None, None))
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        with pytest.raises(ConvergenceError, match="in 50 evaluations"):
            self_consistent_slice(grid, make_params(), 5.0)

    def test_zero_pivot(self, monkeypatch):
        # decoupled rows, one with a zero diagonal: above, below and at the
        # forward's row.  1 + r with r > 0 never gives one (see
        # test_pivots_stay_above_their_coupling), so the diagonal is patched
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        rows = _OneStepRows(grid, make_params(), 5.0)
        rows.c_left = [0.0] * len(rows.c_left)
        rows.c_right = [0.0] * len(rows.c_right)
        m = grid.size - 2
        for row in (0, m - 1, rows.n):
            diag = np.ones(m)
            diag[row] = 0.0
            monkeypatch.setattr(rows, "diagonal", lambda sigma, d=diag: (None, d))
            with pytest.raises(SingularPivot):
                rows.eliminate(0.01)

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
        r = _OneStepRows(grid, params, T).diagonal(vol)[0]
        with mpmath.workdps(50):
            tv = extended_precision_time_value(grid, r)[0][grid.forward_index - 1]
            exact = float(tv * mpmath.sqrt(2 * mpmath.pi / mpmath.mpf(T)))
        assert vol == pytest.approx(exact, rel=1e-13, abs=0.0)


class TestImpliedVolCurve:
    def test_atm_matches_slice_vol(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = price_self_consistent(grid, params, 5.0)
        vols = implied_vol_curve(surface)
        n = grid.forward_index
        # both read the ATM identity on the same time value: measured equal
        assert vols[n] == pytest.approx(surface.slice.atm_normal_vol, rel=1e-10, abs=0.0)

    def test_round_trips_prices(self):
        params = make_params()
        grid = build_uniform_grid(-0.02, 0.08, 81, 0.02)
        surface = price_self_consistent(grid, params, 5.0)
        vols = implied_vol_curve(surface)
        F, T = 0.02, 5.0
        for j, k in enumerate(grid.strikes):
            if math.isnan(vols[j]):
                continue
            # a put below the forward is repriced as the call at the mirrored
            # strike: the oracle's put goes through parity and loses its
            # digits in the wing.  Measured: 1.4e-14 relative at most, on
            # time values down to 3.5e-6
            mirrored = 2.0 * F - float(k) if k < F else float(k)
            reprice = bachelier_price(F, mirrored, float(vols[j]), T, "call")
            assert reprice == pytest.approx(float(surface.time_value[j]), rel=1e-10, abs=0.0)

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
    """The implied-vol curve one strike at a time, with its own absence rule
    and ATM branch: the reference for the vectorised implied_vol_curve."""
    F = surface.grid.forward
    T = surface.slice.expiry
    out = np.full(surface.grid.size, np.nan)
    for j, k in enumerate(surface.grid.strikes):
        price = surface.puts[j] if k < F else surface.calls[j]
        if not math.isfinite(price) or price <= 1e-16 * (1.0 + abs(F)):
            continue
        if k == F:
            out[j] = atm_normal_vol(price, T)
        else:
            out[j] = bachelier_otm_vols([price], [abs(k - F)], T)[0]
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
            assert step == pytest.approx(h, rel=1e-12, abs=0.0)
        assert q.p_minus2 == surface.puts[n - 2]
        assert q.c_plus2 == surface.calls[n + 2]
        assert atm_normal_vol(q.atm, q.expiry) == pytest.approx(
            surface.slice.atm_normal_vol, rel=1e-12, abs=0.0)

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
        assert q.h_minus_nm1 == pytest.approx(k[n - 1] - k[n - 2], rel=1e-14, abs=0.0)
        assert q.h_plus_np1 == pytest.approx(k[n + 2] - k[n + 1], rel=1e-14, abs=0.0)
