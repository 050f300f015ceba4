import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from platform_eq import _families as fam
from platform_eq.equilibrium import SolverError, ZPoint, solve_ce, solve_cne
from platform_eq.model import MarketParams, Side, cne_existence_bound
from platform_eq.statics import (_ANALYTIC_OPS, CLOSED_FORMS, DERIVATIVE_WRT, DZ_DU0,
                                 QUANTITIES, AnalyticDomainError, asymptotic_limits,
                                 closed_form, closed_form_columns, dcs_dn, dcs_du0,
                                 derivative_bundle, dparticipation_dn, dprice_dn, dprice_du0,
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
        expect = {"a": (0, 7), "s": (0, 8), "n_pu": (1, 5), "n_piu": (1, 6),
                  "d_piu": (0, 8), "n_csu": (1, 5), "n_p": (2, 5), "n_nx": (1, 6),
                  "n_csk": (0, 7), "d_csk": (0, 7), "n_pik": (2, 6)}
        assert set(fam.FAMILIES) == set(expect)
        for name, (m0, count) in expect.items():
            m_start, build = fam.FAMILIES[name]
            extras = (0.1, -0.5) if name == "n_pik" else ()
            assert m_start == m0
            assert len(build(1.2, 0.4, 3.0, *extras)) == count

    def test_shared_denominators(self):
        # d_csk = (N+1) a
        args = (1.37, -0.62, 4.0)
        a = np.array(fam.a_coefficients(*args))
        assert np.allclose(np.array(fam.d_csk_coefficients(*args)), 5.0 * a, rtol=1e-15)

    def test_degree7_denominator_is_shifted_slope_family(self):
        # d_piu = (1 + N e^z) * a as polynomials
        beta, phi, n = 0.8, 0.5, 3.0
        a = np.array(fam.a_coefficients(beta, phi, n))
        d7 = np.array(fam.d_piu_coefficients(beta, phi, n))
        conv = np.zeros(8)
        conv[:7] += a
        conv[1:] += n * a
        assert np.allclose(d7, conv, rtol=1e-13)

    def test_denominator_positivity_in_region(self):
        rng = np.random.default_rng(31)
        zs = np.linspace(-30, 30, 121)
        for _ in range(25):
            p = random_valid_params(rng)
            for name in ("a", "d_piu", "d_csk"):
                m_start, build = fam.FAMILIES[name]
                coeffs = build(p.beta[0], p.phi[0][0], float(p.n_platforms))
                assert np.all(fam.eval_series(coeffs, m_start, zs) > 0)

    def test_slope_negative_in_region(self):
        rng = np.random.default_rng(32)
        from platform_eq.equilibrium import mk_slope
        for _ in range(25):
            p = random_valid_params(rng)
            zs = np.linspace(-30, 30, 121)
            assert np.all(mk_slope(zs, p.beta[0], p.phi[0][0], float(p.n_platforms)) < 0)


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

    def test_fd_step_must_be_positive_and_finite(self):
        # h = 0 divided by zero, and a negative h gave the central difference of -h
        params = MarketParams.uniform(2, 1.0, phi_own=0.2, u0=0.3)
        for h in (0.0, -1e-4, np.nan, np.inf):
            with pytest.raises(ValueError, match="h must be positive and finite"):
                fd_derivative("price", "u0", params, Side.BUYER, h=h)
        # at N = 2, N - h is a platform count of 1.9998, which still solves
        dp_dn = fd_derivative("price", "n_platforms", params, Side.BUYER, h=2e-4)
        assert np.isfinite(dp_dn) and dp_dn == pytest.approx(dprice_dn(params, Side.BUYER),
                                                            rel=1e-6)

    def test_fd_unknown_variable(self):
        with pytest.raises(ValueError, match="unknown differentiation variable 'beta'"):
            fd_derivative("price", "beta", MarketParams.uniform(2, 1.0), Side.BUYER)

    def test_closed_form_unknown_key(self):
        with pytest.raises(ValueError, match="no closed form"):
            closed_form("participation", "u0", MarketParams.uniform(2, 1.0), Side.BUYER)

    def test_analytic_refuses_cross_externalities(self):
        params = MarketParams(2, (1.0, 1.0), ((0.0, 0.1), (0.0, 0.0)))
        for op in (dz_du0, dprice_du0, dprofit_du0, dcs_du0, dprice_dn,
                   dparticipation_dn, dcs_dn, dprofit_dn):
            with pytest.raises(AnalyticDomainError):
                op(params, Side.BUYER)


def test_closed_form_columns_match_closed_form():
    # several N in one call, a series that overflows at z* (u0 = -500), a
    # float power out of range while building n_csk (beta = 1e80), and an
    # out-of-region side: value for value and error for error, bit for bit
    markets = [MarketParams.uniform(2, 1.0), MarketParams.uniform(3, 1.0, phi_own=0.3, u0=-500),
               MarketParams(4, (0.3, 0.05), ((0.2, 0.0), (0.0, 2.0)), (1.0, -3.0)),
               MarketParams(2, (1e80, 0.7), ((0.1, 0.0), (0.0, -0.4)), (0.5, 0.5)),
               MarketParams.uniform(3, 0.8, phi_own=-0.5, u0=2.0)]
    z_star = [(-1.2, -1.2), (498.75, 498.75), (0.3, 2.0), (0.0, 0.1), (-2.5, 0.7)]
    table = closed_form_columns(markets, z_star)
    assert set(table) == {DZ_DU0, *CLOSED_FORMS}
    kinds = set()
    for (quantity, wrt), (values, errors) in table.items():
        assert values.shape == (len(markets), 2)
        for i, (params, z) in enumerate(zip(markets, z_star)):
            for side in Side:
                try:
                    expected = closed_form(quantity, wrt, params, side, z_star=z[side.index])
                except ArithmeticError as exc:
                    got = errors[i, side.index]
                    assert (type(got), str(got)) == (type(exc), str(exc))
                    kinds.add(type(exc))
                else:
                    assert (i, side.index) not in errors
                    assert values[i, side.index] == expected
    assert kinds == {ArithmeticError, OverflowError}
    with pytest.raises(AnalyticDomainError):
        closed_form_columns([MarketParams(2, (1.0, 1.0), ((0.0, 0.1), (0.0, 0.0)))], [(0.0, 0.0)])


def test_closed_form_columns_repeated_sides_match_closed_form(monkeypatch):
    # a u0 sweep over markets whose rows repeat their sides: the beta = 1e80
    # side, whose n_csk build raises OverflowError, on every row; rows where
    # z* overflows the series; and a signed-zero pair, phi_bb = -0.0 and
    # phi_ss = 0.0 at equal beta, which are two sides, not one
    bases = [MarketParams(3, (1e80, 0.7), ((0.1, 0.0), (0.0, -0.4))),
             MarketParams(3, (0.8, 0.8), ((-0.0, 0.0), (0.0, 0.0))),
             MarketParams(3, (0.7, 1e80), ((-0.4, 0.0), (0.0, 0.1))),
             MarketParams(2, (0.9, 0.9), ((0.2, 0.0), (0.0, 0.2)))]
    u0s = (-5.0, -500.0, 0.0, 2.5)
    markets = [base.replace(u0=(u, u)) for u in u0s for base in bases]
    # the symmetric market's two sides also share their n_pik arguments
    z_star = [(z, z if base is bases[3] else z + 0.25)
              for z in (-1.5, 498.75, 0.0, 0.5) for base in bases]
    builds = []
    def spy_on(name, family):
        def spy(*args):
            builds.append((name, tuple(float(a).hex() for a in args)))
            return family(*args)
        return spy
    for name, (m0, family) in fam.FAMILIES.items():
        monkeypatch.setitem(fam.FAMILIES, name, (m0, spy_on(name, family)))
    monkeypatch.setattr(fam, "a_coefficients", spy_on("a", fam.a_coefficients))
    table = closed_form_columns(markets, z_star)
    # one build per distinct exact bits of (beta, phi_kk, N), and of
    # (beta, phi_kk, N, u0, z*) for n_pik; d_csk builds on "a" once more.
    # The 32 cells hold 5 distinct sides: at N = 3 the beta = 1e80 side and
    # (0.7, -0.4), each on 8 cells, and the two signed zeros; at N = 2 one
    # side on 8 cells, whose 4 rows share their n_pik arguments
    cells = [tuple(v.hex() for v in (m.beta[k], m.phi[k][k], float(m.n_platforms), m.u0[k], z[k]))
             for m, z in zip(markets, z_star) for k in (0, 1)]
    sides = {cell[:3] for cell in cells}
    assert (len(sides), len(set(cells))) == (5, 28)
    want = {name: sorted(sides) for name in fam.FAMILIES if name not in ("s", "n_pik")}
    want["a"] = sorted([*sides] * 2)
    want["n_pik"] = sorted(set(cells))
    assert {name: sorted(key for n, key in builds if n == name) for name in want} == want
    kinds = set()
    for (quantity, wrt), (values, errors) in table.items():
        for i, (params, z) in enumerate(zip(markets, z_star)):
            for side in Side:
                try:
                    expected = closed_form(quantity, wrt, params, side, z_star=z[side.index])
                except ArithmeticError as exc:
                    got = errors[i, side.index]
                    assert (type(got), str(got)) == (type(exc), str(exc))
                    kinds.add(type(exc))
                else:
                    assert (i, side.index) not in errors
                    assert values[i, side.index].tobytes() == np.float64(expected).tobytes()
    assert kinds == {ArithmeticError, OverflowError}
    assert np.signbit(markets[1].phi[0][0]) and not np.signbit(markets[1].phi[1][1])


# sha256 of the 8 closed forms x 1250 markets x 2 sides below, as float64
# bytes, from the per-cell evaluator before the sweep went columnar: array
# powers differ from float powers in the last bit for a few percent of
# inputs, so building a family on arrays, or squaring mk_slope's
# denominator as an array, moves this hash
PINNED_CLOSED_FORMS = "8c7fadacb23a43f869f7ef6adda5012b7ecce23b1437e0c618a176c6e1f3f3dc"


def test_closed_form_columns_pinned_bits():
    rng = np.random.default_rng(2024)
    markets, z = [], rng.uniform(-4.0, 4.0, (1250, 2))
    for _ in range(1250):
        markets.append(MarketParams(int(rng.integers(2, 7)), tuple(rng.uniform(0.2, 3.0, 2)),
                                    ((rng.uniform(-1.0, 1.0), 0.0), (0.0, rng.uniform(-1.0, 1.0))),
                                    tuple(rng.uniform(-2.0, 2.0, 2))))
    table = closed_form_columns(markets, z)
    assert not any(errors for _values, errors in table.values())
    values = np.stack([table[key][0] for key in (DZ_DU0, *CLOSED_FORMS)])
    assert hashlib.sha256(values.tobytes()).hexdigest() == PINNED_CLOSED_FORMS


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
        d = ift_derivatives(solve_cne(params))
        for quantity in QUANTITIES:
            for wrt in DERIVATIVE_WRT:
                for side in Side:
                    fd = fd_derivative(quantity, wrt, params, side)
                    assert _close(d[quantity, wrt][side.index], fd, 1e-6), (quantity, wrt, side)

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(envelope_markets(cross=0.0))
    @example(MarketParams(12, (0.3, 2.5), ((0.1, 0.0), (0.0, -1.5)), (-6.0, 5.0)))  # z_b ~ 19
    def test_decoupled_matches_closed_forms(self, params):
        # every entry of the closed-form table and dz*/du0, through the evaluator
        assert set(_ANALYTIC_OPS) == {DZ_DU0, *CLOSED_FORMS}
        eq = solve_cne(params)
        d = ift_derivatives(eq)
        for quantity, wrt in _ANALYTIC_OPS:
            for side in Side:
                exact = closed_form(quantity, wrt, params, side, z_star=eq.z.side(side))
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
        d = ift_derivatives(solve_ce(params))
        h = 1e-5
        hi, lo = (solve_ce(params.replace(u0=(0.3 + s, -0.5))) for s in (h, -h))
        assert _close(d["price", "u0"][0], (hi.prices[0] - lo.prices[0]) / (2 * h), 1e-6)
        h = 1e-4
        hi, lo = (solve_ce(params, n=3 + s) for s in (h, -h))
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
