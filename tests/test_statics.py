import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from platform_eq import _families as fam
from platform_eq.equilibrium import SolverError, ZPoint, solve_ce, solve_cne
from platform_eq.model import MarketParams, Side, cne_existence_bound
from platform_eq.statics import (_ANALYTIC_OPS, DERIVATIVE_WRT, QUANTITIES,
                                 AnalyticDomainError, asymptotic_limits,
                                 build_coeffs, dcs_dn, dcs_du0, derivative_bundle,
                                 dparticipation_dn, dprice_dn, dprice_du0,
                                 dprofit_dn, dprofit_du0, dz_du0, fd_derivative,
                                 ift_derivatives)

from test_envelope import wide_markets

ALL_OPS = (("price", "u0"), ("profit", "u0"), ("consumer_surplus", "u0"), ("z", "u0"),
           ("price", "n_platforms"), ("participation", "n_platforms"),
           ("consumer_surplus", "n_platforms"), ("profit", "n_platforms"))


def random_valid_params(rng, n_range=(2, 7), cross=0.0):
    n = int(rng.integers(*n_range))
    beta = rng.uniform(0.3, 3.0, 2)
    phi_own = rng.uniform(-1.0, 1.0, 2)
    for k in (0, 1):
        if phi_own[k] > 0:
            beta[k] = max(beta[k], cne_existence_bound(n) * phi_own[k] + 0.05)
    c = rng.uniform(-cross, cross, 2) if cross else (0.0, 0.0)
    return MarketParams(n, tuple(beta),
                        ((phi_own[0], c[0]), (c[1], phi_own[1])),
                        tuple(rng.uniform(-2.0, 2.0, 2)))


class TestCoefficientFamilies:
    def test_slope_family_spot_values(self):
        a = fam.a_coefficients(1.0, 0.0, 2.0)
        assert a[0] == 1.0 and a[1] == 11.0 and a[6] == 16.0
        assert len(a) == 7

    def test_soc_family_spot_values(self):
        s = fam.s_coefficients(1.0, 0.0, 2.0)
        assert s[0] == -1.0
        assert s[7] == -1.0 * 1.0 * 16.0 * 4.0  # -b^3 (N-1) N^4 (b N^2)
        assert len(s) == 8

    def test_family_index_ranges(self):
        p = MarketParams.uniform(3, 1.2, phi_own=0.4)
        expect = {"a": (0, 7), "s": (0, 8), "n_pu": (1, 5), "d_pu": (0, 7),
                  "n_piu": (1, 6), "d_piu": (0, 8), "n_csu": (1, 5), "d_csu": (0, 7),
                  "n_p": (2, 5), "d": (0, 7), "n_nx": (1, 6), "d_nx": (0, 8),
                  "n_csk": (0, 7), "d_csk": (0, 7), "n_pik": (2, 6), "d_pik": (0, 8)}
        for name, (m0, count) in expect.items():
            extras = {"u0": 0.1, "z": -0.5} if name == "n_pik" else None
            series = build_coeffs(name, p, Side.BUYER, extras=extras)
            assert series.m_start == m0
            assert len(series.coefficients) == count

    def test_shared_denominators(self):
        # d_csu = d_pu = d = a; d_piu = d_nx = d_pik; d_csk = (N+1) a
        args = (1.37, -0.62, 4.0)
        a = fam.a_coefficients(*args)
        assert np.array_equal(fam.d_pu_coefficients(*args), a)
        assert np.array_equal(fam.d_csu_coefficients(*args), a)
        assert np.array_equal(fam.d_coefficients(*args), a)
        d7 = fam.d_piu_coefficients(*args)
        assert np.array_equal(fam.d_nx_coefficients(*args), d7)
        assert np.array_equal(fam.d_pik_coefficients(*args), d7)
        assert np.allclose(fam.d_csk_coefficients(*args), 5.0 * a, rtol=1e-15)

    def test_degree7_denominator_is_shifted_slope_family(self):
        # d_piu = (1 + N e^z) * a as polynomials
        beta, phi, n = 0.8, 0.5, 3.0
        a = fam.a_coefficients(beta, phi, n)
        d7 = fam.d_piu_coefficients(beta, phi, n)
        conv = np.zeros(8)
        conv[:7] += a
        conv[1:] += n * a
        assert np.allclose(d7, conv, rtol=1e-13)

    def test_denominator_positivity_in_region(self):
        rng = np.random.default_rng(31)
        zs = np.linspace(-30, 30, 121)
        for _ in range(25):
            p = random_valid_params(rng)
            for name in ("d", "d_pu", "d_piu", "d_nx", "d_csk", "d_pik"):
                series = build_coeffs(name, p, Side.BUYER)
                assert np.all(series.eval_at_z(zs) > 0)

    def test_slope_negative_in_region(self):
        rng = np.random.default_rng(32)
        from platform_eq.equilibrium import mk_slope
        for _ in range(25):
            p = random_valid_params(rng)
            zs = np.linspace(-30, 30, 121)
            assert np.all(mk_slope(zs, p.beta[0], p.phi[0][0], float(p.n_platforms)) < 0)

    def test_build_coeffs_errors(self):
        p = MarketParams.uniform(2, 1.0)
        with pytest.raises(ValueError, match="unknown coefficient family"):
            build_coeffs("nope", p, Side.BUYER)
        with pytest.raises(ValueError, match="extras"):
            build_coeffs("n_pik", p, Side.BUYER)


class TestAnalyticVsFiniteDifference:
    def test_all_ops_agree_with_fd(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            params = random_valid_params(rng)
            for quantity, wrt in ALL_OPS:
                b = derivative_bundle(quantity, wrt, params, Side.SELLER)
                assert b.analytic is not None
                assert b.agreement < 1e-6, (params, quantity, wrt, b)

    def test_strict_sign_agreement(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            params = random_valid_params(rng)
            for quantity, wrt in ALL_OPS:
                b = derivative_bundle(quantity, wrt, params, Side.BUYER)
                if abs(b.analytic) > 1e-8:
                    assert np.sign(b.analytic) == np.sign(b.finite_difference)

    def test_richardson_consistency(self):
        params = MarketParams.uniform(3, 0.9, phi_own=0.5, u0=-0.3)
        exact = dprice_du0(params, Side.BUYER)
        e1 = abs(fd_derivative("price", "u0", params, Side.BUYER, h=1e-3) - exact)
        e2 = abs(fd_derivative("price", "u0", params, Side.BUYER, h=5e-4) - exact)
        assert e2 < e1 / 2.5  # central differences: error ~ h^2

    def test_fd_handles_cross_externalities(self):
        params = MarketParams(3, (1.0, 1.0), ((0.2, 0.03), (0.03, 0.2)))
        val = fd_derivative("price", "u0", params, Side.BUYER)
        assert np.isfinite(val) and val < 0
        b = derivative_bundle("price", "u0", params, Side.BUYER)
        assert b.analytic is None and np.isnan(b.agreement)

    def test_analytic_refuses_cross_externalities(self):
        params = MarketParams(2, (1.0, 1.0), ((0.0, 0.1), (0.0, 0.0)))
        for op in (dz_du0, dprice_du0, dprofit_du0, dcs_du0, dprice_dn,
                   dparticipation_dn, dcs_dn, dprofit_dn):
            with pytest.raises(AnalyticDomainError):
                op(params, Side.BUYER)


class TestNoSilentNaN:
    def test_overflowing_closed_forms_raise(self):
        # z* = 498.75: the degree-7 series overflow to inf/inf
        params = MarketParams.uniform(3, 1.0, phi_own=0.3, u0=-500)
        with pytest.raises(ArithmeticError, match="non-finite"):
            dprice_du0(params, Side.BUYER)

    def test_large_market_ops_raise_or_stay_finite(self):
        # z* ~ 2e4: every series op raises; dz_du0 goes through mk_slope
        params = MarketParams.uniform(10000, 0.001, u0=-20)
        for (quantity, wrt), op in _ANALYTIC_OPS.items():
            if quantity == "z":
                assert np.isfinite(op(params, Side.BUYER))
                continue
            with pytest.raises(ArithmeticError):
                op(params, Side.BUYER)


def _close(value, reference, tol):
    """|value - reference| <= tol * max(1, |reference|)."""
    return abs(value - reference) <= tol * max(1.0, abs(reference))


@st.composite
def envelope_markets(draw, cross):
    """Acceptance-envelope markets: N < 7, beta in [0.2, 3] lifted 0.05 above
    the existence bound where phi_own > 0, |u0| <= 2, |phi_bs|, |phi_sb| <= cross."""
    n = draw(st.integers(2, 6))
    beta, own = [], []
    for _ in range(2):
        phi = draw(st.floats(-1.0, 1.0))
        beta.append(max(draw(st.floats(0.2, 3.0)), cne_existence_bound(n) * phi + 0.05))
        own.append(phi)
    c = [draw(st.floats(-cross, cross)) if cross else 0.0 for _ in range(2)]
    u0 = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    return MarketParams(n, tuple(beta), ((own[0], c[0]), (c[1], own[1])), u0)


class TestImplicitFunctionDerivatives:
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(envelope_markets(cross=0.05))
    def test_coupled_matches_fd(self, params):
        d = ift_derivatives(solve_cne(params, tol=1e-12))
        for quantity in QUANTITIES:
            for wrt in DERIVATIVE_WRT:
                for side in Side:
                    fd = fd_derivative(quantity, wrt, params, side)
                    assert _close(d[quantity, wrt][side.index], fd, 1e-6), (quantity, wrt, side)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(envelope_markets(cross=0.0))
    def test_decoupled_matches_closed_forms(self, params):
        eq = solve_cne(params, tol=1e-12)
        d = ift_derivatives(eq)
        for (quantity, wrt), op in _ANALYTIC_OPS.items():
            for side in Side:
                exact = op(params, side, z_star=eq.z.side(side))
                assert _close(d[quantity, wrt][side.index], exact, 1e-10), (quantity, wrt, side)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(wide_markets())
    def test_finite_or_raises_far_out(self, params):
        try:
            eq = solve_cne(params)
        except SolverError:
            return
        try:
            d = ift_derivatives(eq)
        except ArithmeticError:
            event("ift_derivatives raised ArithmeticError")
            return
        assert np.isfinite(list(d.values())).all()

    def test_collusive_matches_central_differences(self):
        params = MarketParams(3, (1.0, 0.8), ((0.2, 0.03), (-0.04, 0.1)), (0.3, -0.5))
        d = ift_derivatives(solve_ce(params, tol=1e-12))
        h = 1e-5
        hi, lo = (solve_ce(params.replace(u0=(0.3 + s, -0.5)), tol=1e-12) for s in (h, -h))
        assert _close(d["price", "u0"][0], (hi.prices[0] - lo.prices[0]) / (2 * h), 1e-6)
        h = 1e-4
        hi, lo = (solve_ce(params, tol=1e-12, n=3 + s) for s in (h, -h))
        assert _close(d["participation", "n_platforms"][1],
                      (hi.participation[1] - lo.participation[1]) / (2 * h), 1e-6)

    def test_non_finite_point_raises(self):
        eq = solve_cne(MarketParams(3, (1.0, 1.0), ((0.2, 0.03), (0.03, 0.2))))
        with pytest.raises(ArithmeticError):
            ift_derivatives(dataclasses.replace(eq, z=ZPoint(float("nan"), 0.0)))


class TestSignRegions:
    def test_negative_phi_signs(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            params = MarketParams.uniform(int(rng.integers(2, 6)),
                                          rng.uniform(0.2, 2.0),
                                          phi_own=rng.uniform(-2.0, 0.0),
                                          u0=rng.uniform(-1.0, 1.0))
            assert dprice_du0(params, Side.BUYER) < 0
            assert dprofit_du0(params, Side.BUYER) < 0
            assert dcs_du0(params, Side.BUYER) > 0
            assert dz_du0(params, Side.BUYER) < 0
            assert dparticipation_dn(params, Side.BUYER) > 0
            assert dcs_dn(params, Side.BUYER) > 0

    def test_price_increase_window_in_u0(self):
        # N=3, phi=1, f(3)=4/9 < beta < f_pu(3) phi: price rises with u0
        f_pu3 = 0.5 * (np.sqrt(1.0 / 3.0) + 1.0)
        beta = 0.5 * (4.0 / 9.0 + f_pu3)
        params = MarketParams.uniform(3, beta, phi_own=1.0)
        assert dprice_du0(params, Side.BUYER) > 0
        assert fd_derivative("price", "u0", params, Side.BUYER) > 0

    def test_profit_decrease_multiplier(self):
        # g_pi_u(N) = sqrt((N-1)/N^3) + 1/N bounds the decrease region
        for n in (2, 3, 5):
            g = np.sqrt((n - 1) / n**3) + 1.0 / n
            params = MarketParams.uniform(n, g + 0.05, phi_own=1.0)
            assert dprofit_du0(params, Side.BUYER) < 0

    def test_dz_du0_vanishes_for_large_beta(self):
        params = MarketParams.uniform(2, 1000.0)
        assert abs(dz_du0(params, Side.BUYER)) < 1e-2

    def test_participation_decreasing_in_u0(self):
        # dz/du0 < 0 implies shares fall as the outside option improves
        rng = np.random.default_rng(36)
        for _ in range(8):
            params = random_valid_params(rng)
            assert dz_du0(params, Side.BUYER) < 0
            assert fd_derivative("participation", "u0", params, Side.BUYER) < 0

    def test_cs_dn_identity(self):
        # dCS/dN = beta (1/(N+1) + dz/dN), with dz/dN from finite differences
        params = MarketParams.uniform(4, 0.9, phi_own=0.3, u0=-0.5)
        dz_dn = fd_derivative("z", "n_platforms", params, Side.BUYER)
        expected = 0.9 * (1.0 / 5.0 + dz_dn)
        assert dcs_dn(params, Side.BUYER) == pytest.approx(expected, rel=1e-6)


class TestAsymptoticLimits:
    def test_base_values(self):
        lim = asymptotic_limits(MarketParams.uniform(2, 1.0), Side.BUYER)
        assert (lim.p_u, lim.p_e, lim.pi_u, lim.pi_e) == (2.0, 1.0, 1.0, 0.0)

    def test_with_externality(self):
        lim = asymptotic_limits(MarketParams.uniform(3, 1.0, phi_own=0.6), Side.BUYER)
        assert lim.p_u == pytest.approx(3.0 / 2.0 - 0.3)
        assert lim.pi_u == pytest.approx(0.5 - 0.1)

    def test_solver_reaches_limits(self):
        base = MarketParams.uniform(2, 1.0, phi_own=-0.5)
        lim = asymptotic_limits(base, Side.BUYER)
        lo = solve_cne(base.replace(u0=(-40.0, -40.0)))
        hi = solve_cne(base.replace(u0=(40.0, 40.0)))
        assert lo.prices[0] == pytest.approx(lim.p_u, abs=1e-3)
        assert hi.prices[0] == pytest.approx(lim.p_e, abs=1e-3)
        assert hi.profit_per_side[0] < 1e-3
