import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import platform_eq.equilibrium as equilibrium
from platform_eq.equilibrium import (SolverError, ZPoint, _as_z_array,
                                     ce_foc_residual, cne_foc_residual, compare_regimes,
                                     consumer_surplus, mk_value, mkc_value, omega,
                                     solve_ce, solve_cne, solve_decoupled_batch)
from platform_eq.model import (EULER_GAMMA, MarketParams, Side, ce_existence_bound,
                               check_ce_existence, check_cne_existence, cne_existence_bound)
from platform_eq.regions import Verdict, classify_existence, classify_sign_z
from platform_eq.statics import ift_derivatives


def _price(regime: str, z, beta, phi, n):
    """The share-space price at z, with phi the 2x2 matrix on axes 0-1 (or its
    rows as nested pairs), each input with any trailing grid axes."""
    return equilibrium._share_price(np.asarray(regime == "ce"), *equilibrium._shares(z, n), beta,
                                    np.stack([phi[0][0], phi[1][1]]),
                                    np.stack([phi[1][0], phi[0][1]]), n)


# the paper's literal pricing matrices: the reference the share-space price
# `_price` is checked against

class FOCSingularityError(ArithmeticError):
    """The pricing-matrix denominator (J_phi or a K factor) vanished."""


def h_matrix(z, params: MarketParams, n: float | None = None) -> np.ndarray:
    """Competitive pricing matrix H(z).

    Entries combine L_k = (N-1) beta_k (1+N e^{z_k}) / J_phi,
    d_k = beta_k (1+N e^{z_k}), h_k = beta_k (1+e^{z_k})(e^{-z_k}+N),
    K_k = phi_kk - beta_k (1+N e^{z_k})(e^{-z_k}+N-1) and
    J_phi = K_b K_s - phi_sb phi_bs.
    """
    zv = _as_z_array(z)
    n = float(params.n_platforms if n is None else n)
    beta = params.beta_arr
    phi = params.phi_arr
    with np.errstate(over="ignore", invalid="ignore"):
        ez = np.exp(zv)
        emz = np.exp(-zv)
        one_nez = 1.0 + n * ez
        d = beta * one_nez
        h = beta * (1.0 + ez) * (emz + n)
        K = np.diag(phi) - beta * one_nez * (emz + n - 1.0)
        j_phi = K[0] * K[1] - phi[1, 0] * phi[0, 1]
        scale = abs(K[0] * K[1]) + abs(phi[1, 0] * phi[0, 1]) + 1.0
        if abs(j_phi) < 1e-14 * scale:
            raise FOCSingularityError("FOC singularity (J_phi or K_k vanishes)")
        L = (n - 1.0) * beta * one_nez / j_phi
        return np.array([
            [L[0] * d[0] * K[1] + h[0] - phi[0, 0], -phi[1, 0] * (d[1] * L[0] + 1.0)],
            [-phi[0, 1] * (d[0] * L[1] + 1.0), L[1] * d[1] * K[0] + h[1] - phi[1, 1]],
        ])


def hc_matrix(z, params: MarketParams, n: float | None = None) -> np.ndarray:
    """Collusive pricing matrix H^C(z): diagonal beta_k (1+N e^{z_k})^2 / e^{z_k} - phi_kk,
    off-diagonal -phi_sb / -phi_bs."""
    zv = _as_z_array(z)
    n = float(params.n_platforms if n is None else n)
    beta = params.beta_arr
    phi = params.phi_arr
    # (1+N e^z)^2 / e^z expanded so neither exponential is squared
    with np.errstate(over="ignore"):
        diag = beta * (np.exp(-zv) + 2.0 * n + n * n * np.exp(zv)) - np.diag(phi)
    return np.array([[diag[0], -phi[1, 0]], [-phi[0, 1], diag[1]]])


def bisect(f, lo=-60.0, hi=60.0, iters=200):
    """Independent oracle: plain bisection on a decreasing scalar function."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# oracle roots of the decoupled base-case equations (N=2, beta=1, Phi=0, u0=0)
Z_CNE_BASE = bisect(lambda z: -(1 + 2 * np.exp(z)) / (1 + np.exp(z)) - z)
Z_CE_BASE = bisect(lambda z: -(1 + 2 * np.exp(z)) - z)


class TestBaseCaseOracles:
    def test_oracle_roots_satisfy_equations(self):
        assert abs(-(1 + 2 * np.exp(Z_CNE_BASE)) / (1 + np.exp(Z_CNE_BASE)) - Z_CNE_BASE) < 1e-13
        assert abs(1 + 2 * np.exp(Z_CE_BASE) + Z_CE_BASE) < 1e-13
        # quoted 4-decimal approximations are coarse roundings of these roots
        assert Z_CNE_BASE == pytest.approx(-1.2269, abs=3e-4)
        assert Z_CE_BASE == pytest.approx(-1.4632, abs=3e-4)

    def test_solve_cne_base_case(self):
        eq = solve_cne(MarketParams.uniform(2, 1.0))
        assert eq.z.z_b == pytest.approx(Z_CNE_BASE, abs=1e-10)
        assert eq.prices[0] == pytest.approx(-Z_CNE_BASE, abs=1e-10)
        assert eq.shares[0] == pytest.approx(1.0 / (np.exp(-Z_CNE_BASE) + 2), abs=1e-12)
        assert eq.foc_residual <= 1e-10
        assert eq.warnings == ()

    def test_solve_ce_base_case(self):
        eq = solve_ce(MarketParams.uniform(2, 1.0))
        assert eq.z.z_b == pytest.approx(Z_CE_BASE, abs=1e-10)
        assert eq.prices[0] == pytest.approx(-Z_CE_BASE, abs=1e-10)
        assert eq.foc_residual <= 1e-10

    def test_residual_at_quoted_z(self):
        params = MarketParams.uniform(2, 1.0)
        # the quoted point is a 4-dp rounding, so the residual there is only
        # rounding-sized; at the oracle root it vanishes to solver precision
        r = cne_foc_residual(ZPoint(-1.2269, -1.2269), params)
        assert np.max(np.abs(r)) < 1e-3
        r0 = cne_foc_residual(ZPoint(Z_CNE_BASE, Z_CNE_BASE), params)
        assert np.max(np.abs(r0)) < 1e-12
        rc = ce_foc_residual(ZPoint(Z_CE_BASE, Z_CE_BASE), params)
        assert np.max(np.abs(rc)) < 1e-12

    def test_consumer_surplus_value(self):
        eq = solve_cne(MarketParams.uniform(2, 1.0))
        expected = np.log(3.0) + EULER_GAMMA - eq.prices[0]
        assert eq.consumer_surplus[0] == pytest.approx(expected, abs=1e-12)
        assert eq.consumer_surplus[0] == pytest.approx(0.4489, abs=3e-4)

    def test_consumer_surplus_beta_scaling(self):
        params = MarketParams.uniform(2, 1.0)
        cs1 = consumer_surplus(params, (0.0, 0.0), (0.2, 0.2))
        params2 = MarketParams.uniform(2, 2.0)
        cs2 = consumer_surplus(params2, (0.0, 0.0), (0.2, 0.2))
        assert cs2[0] == pytest.approx(2.0 * cs1[0], rel=1e-12)

    def test_gumbel_max_mean_oracle(self):
        # E[max of N+1 Gumbel(mu, beta)] = mu + beta (ln(N+1) + gamma_EM)
        rng = np.random.default_rng(21)
        n, mu, beta, m = 2, 0.3, 0.8, 1_000_000
        draws = rng.gumbel(mu, beta, size=(m, n + 1)).max(axis=1)
        se = draws.std() / np.sqrt(m)
        expected = mu + beta * (np.log(n + 1.0) + EULER_GAMMA)
        assert abs(draws.mean() - expected) < 3 * se


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(regime=st.sampled_from(["cne", "ce"]), n=st.integers(2, 12),
       beta=st.floats(1e-3, 5.0), phi=st.floats(-3.0, 3.0), u0=st.floats(-5.0, 5.0))
@example(regime="cne", n=4, beta=0.05, phi=2.0, u0=0.3)  # D < 0: a pole in the bracket
@example(regime="cne", n=2, beta=0.01, phi=3.0, u0=-4.0)
def test_decoupled_value_is_row_zero_of_the_residual(regime, n, beta, phi, u0):
    """mk_value / mkc_value carry the bits of row 0 of the two-sided FOC
    residual at z_b = z_s on the side-symmetric market, on arrays and on
    floats, non-finite values in the same places."""
    value, residual = ((mk_value, cne_foc_residual) if regime == "cne"
                       else (mkc_value, ce_foc_residual))
    params = MarketParams.uniform(n, beta, phi_own=phi, u0=u0)
    with np.errstate(all="ignore"):
        lo, hi = equilibrium._bracket(np.asarray(regime == "ce"), beta, phi, float(n), u0)
        zs = np.concatenate([np.linspace(lo, hi, 41), [-800.0, 800.0, -np.inf, np.inf, np.nan]])
        rows = np.array([residual(np.array([z, z]), params)[0] for z in zs])
        assert np.array_equal(value(zs, beta, phi, n, u0), rows, equal_nan=True)
        assert np.array_equal([value(float(z), beta, phi, n, u0) for z in zs], rows,
                              equal_nan=True)
    assert not np.isfinite(rows[-3:]).any()


class TestFocForms:
    def test_residual_matches_decoupled_form(self):
        params = MarketParams(3, (0.8, 1.3), ((0.5, 0.0), (0.0, -0.4)), (0.2, -0.7))
        for z_b in np.linspace(-8, 8, 33):
            for z_s in (-2.0, 0.5):
                r = cne_foc_residual(ZPoint(z_b, z_s), params)
                mb = mk_value(z_b, 0.8, 0.5, 3.0, 0.2)
                ms = mk_value(z_s, 1.3, -0.4, 3.0, -0.7)
                assert r[0] == pytest.approx(mb, abs=1e-12 * max(1, abs(mb)))
                assert r[1] == pytest.approx(ms, abs=1e-12 * max(1, abs(ms)))

    def test_ce_residual_matches_decoupled_form(self):
        params = MarketParams(2, (1.0, 0.6), ((0.3, 0.0), (0.0, 0.1)), (0.0, 0.4))
        for z in np.linspace(-6, 6, 25):
            r = ce_foc_residual(ZPoint(z, z), params)
            assert r[0] == pytest.approx(mkc_value(z, 1.0, 0.3, 2.0, 0.0), rel=1e-12, abs=1e-12)
            assert r[1] == pytest.approx(mkc_value(z, 0.6, 0.1, 2.0, 0.4), rel=1e-12, abs=1e-12)

    def test_cne_minus_ce_gap_formula(self):
        # at zero cross externalities the FOC gap has the closed form
        # beta (N-1) e^z (beta (N e^z+1)^2 - e^z phi) /
        #   (beta ((N-1) e^z + 1)(N e^z + 1) - e^z phi), positive in-region
        beta, phi, n = 0.9, 0.6, 3.0
        params = MarketParams.uniform(3, beta, phi_own=phi)
        for z in np.linspace(-5, 5, 41):
            gap = (cne_foc_residual(ZPoint(z, z), params)
                   - ce_foc_residual(ZPoint(z, z), params))[0]
            ez = np.exp(z)
            expected = beta * (n - 1) * ez * (beta * (n * ez + 1) ** 2 - ez * phi) \
                / (beta * ((n - 1) * ez + 1) * (n * ez + 1) - ez * phi)
            assert gap == pytest.approx(expected, rel=1e-10)
            assert gap > 0

    def test_monotone_decoupled_foc(self):
        for beta, phi, n in ((1.0, 0.0, 2.0), (0.5, 1.0, 4.0), (2.0, -3.0, 3.0)):
            zs = np.linspace(-30, 30, 601)
            vals = mk_value(zs, beta, phi, n, 0.0)
            assert np.all(np.diff(vals) < 0)


class TestHMatrix:
    def test_zero_externality_diagonal(self):
        params = MarketParams.uniform(2, 1.0)
        for z in np.linspace(-10, 10, 41):
            H = h_matrix(ZPoint(z, z), params)
            assert H[0, 1] == 0.0 and H[1, 0] == 0.0
            assert H[0, 0] > 0
            price = H[0, 0] * omega(z, 2)
            closed = 1.0 * (1 + 2 * np.exp(z)) / (1 + np.exp(z))
            # the literal matrix entries cancel mildly as |z| grows
            assert price == pytest.approx(closed, rel=1e-12 if abs(z) <= 8 else 1e-9)

    def test_price_at_z_zero(self):
        H = h_matrix(ZPoint(0.0, 0.0), MarketParams.uniform(2, 1.0))
        price = (H @ [omega(0.0, 2), omega(0.0, 2)])[0]
        assert price == pytest.approx(1.5, abs=1e-14)

    def test_hc_matrix_entries(self):
        params = MarketParams(2, (1.0, 2.0), ((0.3, 0.2), (-0.1, 0.4)))
        z = ZPoint(-0.5, 0.7)
        H = hc_matrix(z, params)
        for k, zk in enumerate(z):
            beta = params.beta[k]
            expected = beta * (1 + 2 * np.exp(zk)) ** 2 / np.exp(zk) - params.phi[k][k]
            assert H[k, k] == pytest.approx(expected, rel=1e-12)
        assert H[0, 1] == -params.phi[1][0]
        assert H[1, 0] == -params.phi[0][1]

    def test_decoupled_price_matches_matrix_route(self):
        # the share-space prices against the literal H Omega and H^C Omega
        for beta, phi, n in ((1.0, 0.5, 2.0), (0.7, -1.0, 4.0)):
            params = MarketParams.uniform(int(n), beta, phi_own=phi)
            for z in np.linspace(-6, 6, 25):
                H = h_matrix(ZPoint(z, z), params)
                om = omega(z, n)
                p = _price("cne", np.array([z, z]), params.beta_arr, params.phi_arr, n)
                assert p[0] == pytest.approx((H @ [om, om])[0], rel=1e-11, abs=1e-11)
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            params = MarketParams(n, tuple(rng.uniform(0.2, 3.0, 2)),
                                  tuple(map(tuple, rng.uniform(-1.0, 1.0, (2, 2)))))
            z = rng.uniform(-3.0, 3.0, 2)
            om = omega(z, n)
            for regime, matrix in (("cne", h_matrix), ("ce", hc_matrix)):
                p = _price(regime, z, params.beta_arr, params.phi_arr, float(n))
                np.testing.assert_allclose(p, matrix(z, params) @ om, rtol=1e-12, atol=1e-12)


class TestSolvers:
    def test_postconditions_random_valid_points(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            beta = rng.uniform(0.3, 3.0, 2)
            phi_own = rng.uniform(-1.0, 1.0, 2)
            for k in (0, 1):
                if phi_own[k] > 0:
                    beta[k] = max(beta[k], 2 * (n - 1) / n**2 * phi_own[k] + 0.05)
            cross = rng.uniform(-0.05, 0.05, 2)
            params = MarketParams(n, tuple(beta),
                                  ((phi_own[0], cross[0]), (cross[1], phi_own[1])),
                                  tuple(rng.uniform(-2, 2, 2)))
            for solver in (solve_cne, solve_ce):
                eq = solver(params)
                assert eq.foc_residual <= 1e-10
                assert eq.price_check <= 1e-9
                for k, side in enumerate(Side):
                    assert eq.shares[k] == pytest.approx(omega(eq.z.side(side), n), abs=1e-10)
                    assert 0 < eq.shares[k] < 1 / n

    def test_extreme_outside_option_limits(self):
        params = MarketParams.uniform(2, 1.0, u0=-40.0)
        assert solve_cne(params).prices[0] == pytest.approx(2.0, abs=1e-3)
        params = MarketParams.uniform(2, 1.0, u0=40.0)
        eq = solve_cne(params)
        assert eq.prices[0] == pytest.approx(1.0, abs=1e-3)
        assert eq.total_profit < 1e-3

    def test_ce_price_identity_at_zero_phi(self):
        eq = solve_ce(MarketParams.uniform(3, 0.8, u0=-0.4))
        expected = 0.8 * (1 + 3 * np.exp(eq.z.z_b))
        assert eq.prices[0] == pytest.approx(expected, abs=1e-10)

    def test_ce_sign_example(self):
        # phi=1, beta=1, N=2, u0=0: beta > gamma_c = 2/9, so z_c < 0
        eq = solve_ce(MarketParams.uniform(2, 1.0, phi_own=1.0))
        assert eq.z.z_b < 0

    def test_existence_warning_flag(self):
        params = MarketParams.uniform(4, 0.2, phi_own=1.0)  # beta < f(4) = 0.375
        assert not all(check_cne_existence(params))
        eq = solve_cne(params)
        assert any("existence" in w for w in eq.warnings)
        assert eq.foc_residual <= 1e-8

    def test_coupled_solver_consistency(self):
        params = MarketParams(3, (1.1, 0.7), ((0.4, 0.04), (-0.03, -0.2)), (0.3, -0.5))
        eq = solve_cne(params)
        assert eq.foc_residual <= 1e-12
        assert np.max(np.abs(cne_foc_residual(eq.z, params))) <= 1e-12
        # seeds from the decoupled root: small cross terms move z only slightly
        eq0 = solve_cne(params.decoupled())
        assert abs(eq.z.z_b - eq0.z.z_b) < 0.1

    def test_n_override_continuity(self):
        params = MarketParams.uniform(2, 1.0)
        z2 = solve_cne(params).z.z_b
        z2h = solve_cne(params, n=2.0 + 1e-6).z.z_b
        assert abs(z2h - z2) < 1e-5

    def test_omega_shape(self):
        zs = np.linspace(-10, 10, 201)
        vals = omega(zs, 5.0)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals > 0) and np.all(vals < 1 / 5.0)

    def test_foc_singularity_guard(self):
        # K_b vanishes once beta is small enough relative to phi_kk; J_phi
        # crosses zero there and the pricing matrix must refuse to evaluate
        beta, phi, n = 0.05, 1.0, 2.0
        params = MarketParams.uniform(2, beta, phi_own=phi)

        def K(z):
            return phi - beta * (1 + n * np.exp(z)) * (np.exp(-z) + n - 1)

        lo, hi = -3.0, 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if K(mid) < 0:
                lo = mid
            else:
                hi = mid
        with pytest.raises(FOCSingularityError):
            h_matrix(ZPoint(0.5 * (lo + hi), 0.5 * (lo + hi)), params)

    def test_bracket_exhaustion_error(self, monkeypatch):
        # a FOC with no sign change anywhere: the batch reports NaN and the
        # scalar solve raises instead of returning a number.  The batch reads
        # both regimes' values through one function
        monkeypatch.setattr(equilibrium, "_decoupled_value",
                            lambda ce, z, *args: np.full(np.shape(z), -1.0))
        assert np.isnan(solve_decoupled_batch("cne", [1.0, 2.0], [0.0, 0.5], 2.0, 0.0)).all()
        with pytest.raises(SolverError, match="no root in range"):
            solve_cne(MarketParams.uniform(2, 1.0))

    def test_decoupled_batch_matches_scalar_solve(self):
        bb, pp = np.meshgrid(np.linspace(0.3, 2.0, 7), np.linspace(-1.0, 0.2, 5))
        for regime, solver in (("cne", solve_cne), ("ce", solve_ce)):
            z = solve_decoupled_batch(regime, bb, pp, 3.0, 0.4)
            assert z.shape == bb.shape
            for (i, j), zij in np.ndenumerate(z):
                eq = solver(MarketParams.uniform(3, bb[i, j], phi_own=pp[i, j], u0=0.4))
                assert zij == pytest.approx(eq.z.z_b, abs=1e-12)

    @pytest.mark.parametrize("regime,beta,phi_kk,n,u0", [
        ("ce", [1.1, 0.9], [0.2, -0.1], 3, [-1, -1]),  # the C12 sweep's u0 = -1 row
        ("cne", 0.42, -1.88, 4, -1.0),
        ("cne", 0.02, -1.88, 4, 0.0),
        ("cne", 0.9, -1.8, 4, 0.5),
        ("cne", 0.78, -1.32, 4, -1.0),
    ])
    def test_root_on_rounding_floor_ends_the_solve(self, monkeypatch, regime, beta, phi_kk, n, u0):
        # a cell whose Newton step is below an ulp is on its root and ends
        # there; bisecting away from it and back costs 30-50 more value calls
        calls = []
        fn = equilibrium._decoupled_value
        monkeypatch.setattr(equilibrium, "_decoupled_value",
                            lambda *args: calls.append(1) or fn(*args))
        z = solve_decoupled_batch(regime, beta, phi_kk, n, u0)
        assert np.all(np.isfinite(z))
        assert len(calls) <= 10, len(calls)


class TestStableResidual:
    """Repros where the literal H Omega form lost the answer to cancellation."""

    @staticmethod
    def _check(eq):
        assert np.all(np.isfinite(eq.prices))
        assert eq.foc_residual <= 1e-10 and eq.price_check <= 1e-10

    def test_decoupled_sweep_point(self):
        # N=4 decoupled market at u0 = -5: mk_value reads 0 at the solved z
        # while the literal residual read 1.06e-10
        params = MarketParams(4, (0.3543503934757068, 0.44282441592322064),
                              ((0.8116010492685515, 0.0), (0.0, -0.1629825296106031)),
                              (-5.0, -5.0))
        eq = solve_cne(params)
        self._check(eq)
        assert eq.foc_residual <= 1e-14

    def test_coupled_sweep_point(self):
        # coupled Newton used to stall at the 1.6e-12 rounding floor of H Omega
        params = MarketParams(4, (0.34538904452312646, 0.26147124405915734),
                              ((-0.4274284004803448, 0.03548354578742795),
                               (0.020057693293181036, 0.5639233174910863)), (-5.0, -5.0))
        for solver in (solve_cne, solve_ce):
            self._check(solver(params))

    @pytest.mark.parametrize("u0", [-1000.0, -50.0, 50.0, 1000.0])
    @pytest.mark.parametrize("cross", [0.0, 0.03])
    def test_extreme_outside_utility(self, u0, cross):
        params = MarketParams.uniform(3, 1.0, phi_own=0.3, phi_cross=cross, u0=u0)
        for solver in (solve_cne, solve_ce):
            self._check(solver(params))
        if cross == 0.0 and u0 < 0:
            # the z -> inf price limit (beta N^2 - phi)/(N(N-1)) - phi/N
            assert solve_cne(params).prices[0] == pytest.approx(1.35, abs=1e-9)

    def test_coupled_newton_far_out_z(self):
        # z* ~ 1.7e9: a fixed Jacobian step of 1e-7 rounded away and the
        # coupled Newton raised "singular Jacobian"
        eq = solve_cne(MarketParams.uniform(3, 3e-7, phi_cross=0.03, u0=-500.0))
        self._check(eq)
        assert eq.z.z_b == pytest.approx(1.66675e9, rel=1e-5)


def test_solve_markets_matches_one_market_solves():
    # one batch per N over markets x sides; failing, out-of-region and coupled
    # markets keep their per-market work and give what one-market solves give
    markets = [MarketParams.uniform(2, 1.0), MarketParams.uniform(3, 0.05, phi_own=2.0),
               MarketParams.uniform(2, 0.4, phi_own=0.3, phi_cross=0.03, u0=-1.0),
               TestCoupledNewtonStall.PARAMS, MarketParams.uniform(3, 1.2, u0=4.0),
               MarketParams(2, (1e80, 1.0), ((1e79, 0.0), (0.0, 0.0)))]
    both = equilibrium.solve_markets(("cne", "ce"), markets)
    for (regime, solver), results in zip((("cne", solve_cne), ("ce", solve_ce)), both):
        assert len(results) == len(markets)
        for params, result in zip(markets, results):
            try:
                expected = solver(params)
            except SolverError as exc:
                assert type(result) is SolverError and str(result) == str(exc)
            else:
                assert result == expected
        assert sum(isinstance(r, SolverError) for r in results) == 2
        assert any(r.warnings for r in results if not isinstance(r, Exception))


class TestCoupledNewtonStall:
    # not a rounding floor: the residual is 3.4e-6 against eps max|term| ~ 7e-22,
    # and the Newton step is ~4e9 on a Jacobian with det J / (|J00 J11| + |J01 J10|)
    # ~ 1e-9: the stall message names that Jacobian
    PARAMS = MarketParams(61, (3e-7, 3e-7), ((0, 0.0226), (4e-134, 4e-134)), (0, -3.5e-62))

    @pytest.mark.parametrize("solver", [solve_cne, solve_ce])
    def test_names_near_singular_jacobian(self, solver):
        with pytest.raises(SolverError, match=r"near-singular Jacobian") as info:
            solver(self.PARAMS)
        message = str(info.value)
        rel_det = float(message.split("relative determinant ")[1].split()[0])
        residual = float(message.split("at residual ")[1])
        assert 0 < abs(rel_det) <= equilibrium.NEAR_SINGULAR
        assert residual == pytest.approx(3.4e-6, rel=0.05)
        assert "," not in message  # it lands in a CSV error cell


def _bits(result) -> str:
    """A stage-1 result with every float spelled exactly: repr round-trips
    a double and tells -0.0 from 0.0; an error by its type and message (a
    SolverError carries nothing else)."""
    if isinstance(result, Exception):
        return repr((type(result).__name__, str(result)))
    return repr(dataclasses.astuple(dataclasses.replace(result, params=None)))


@st.composite
def batch_markets(draw):
    """2 to 8 markets over a few platform counts, so they share N groups:
    coupled ones and sides outside the existence region (phi_kk up to 2
    against beta down to 0.05)."""
    markets = []
    for _ in range(draw(st.integers(2, 8))):
        cross = draw(st.sampled_from([0.0, 0.05]))
        markets.append(MarketParams(
            draw(st.sampled_from([2, 3, 5])),
            (draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))),
            ((draw(st.floats(-1.0, 2.0)), draw(st.floats(-cross, cross))),
             (draw(st.floats(-cross, cross)), draw(st.floats(-1.0, 2.0)))),
            (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))))
    return markets


@st.composite
def existence_markets(draw):
    """Markets like `batch_markets` over N in {2, 3, 5, 61}, with beta down to
    0.002 so that sides fall outside either regime's existence region at
    every N (the collusive bound 8/(27 N) is under 0.005 at N = 61)."""
    markets = []
    for _ in range(draw(st.integers(2, 6))):
        cross = draw(st.sampled_from([0.0, 0.05]))
        markets.append(MarketParams(
            draw(st.sampled_from([2, 3, 5, 61])),
            (draw(st.floats(0.002, 3.0)), draw(st.floats(0.002, 3.0))),
            ((draw(st.floats(-1.0, 2.0)), draw(st.floats(-cross, cross))),
             (draw(st.floats(-cross, cross)), draw(st.floats(-1.0, 2.0)))),
            (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))))
    return markets


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(existence_markets())
@example([MarketParams.uniform(2, 0.1, phi_own=1.0), MarketParams.uniform(3, 0.3, phi_own=1.0),
          MarketParams(5, (0.2, 1.0), ((1.0, 0.0), (0.0, 0.1))),
          MarketParams(61, (0.01, 0.004), ((1.0, 0.0), (0.0, 1.0))),
          MarketParams(2, (0.4, 0.1), ((2.0, 0.03), (-0.02, 0.5)), (-1.0, 0.5))])
def test_existence_warnings_name_the_failing_sides(markets):
    # one existence predicate, three users: each stage-1 result warns on
    # exactly the sides model's per-side check fails, and there the region
    # classifiers never read Positive
    both = equilibrium.solve_markets(("cne", "ce"), markets)
    for regime, check, results in zip(("cne", "ce"), (check_cne_existence, check_ce_existence),
                                      both):
        for params, result in zip(markets, results):
            fails = [side for side, ok in zip(Side, check(params)) if not ok]
            for side in fails:
                assert classify_existence(regime, params, side).verdict in (
                    Verdict.NEGATIVE, Verdict.INDETERMINATE)
                label = classify_sign_z(regime, params, side)
                assert label.verdict is Verdict.INDETERMINATE
                assert label.reason == "existence condition fails"
            if not isinstance(result, Exception):
                assert [w for w in result.warnings if "existence" in w] == [
                    f"{regime} existence condition fails on side {side.label}" for side in fails]


@st.composite
def decoupled_sides(draw):
    """2 to 8 decoupled sides at one N in {2, 3, 5, 61}, each of either
    regime, near or outside its existence region: beta from 0.002 to 3.2,
    phi_kk at 0.3 to 3 times the limit beta / bound, u0 within 3 phi_kk."""
    n = draw(st.sampled_from([2, 3, 5, 61]))
    sides = []
    for _ in range(draw(st.integers(2, 8))):
        ce = draw(st.booleans())
        beta = draw(st.floats(0.002, 3.2))
        phi = beta / (ce_existence_bound(n) if ce else cne_existence_bound(n)) * draw(
            st.floats(0.3, 3.0))
        sides.append((ce, beta, phi, draw(st.floats(-3.0, 3.0)) * phi))
    ce, beta, phi, u0 = (np.array(a) for a in zip(*sides))
    return ce, beta, phi, float(n), u0


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(decoupled_sides())
@example((np.array([False, False]), np.array([0.03347, 0.04514]),
          np.array([0.19085, 0.27047]), 2.0, np.array([0.53206, -0.52382])))
def test_roots_batch_is_per_side(sides):
    # every side of one batch gets the bits it gets alone, at one piece and
    # at the 600 of the existence fallback; the one-piece batch, scattered
    # onto its sides, is solve_decoupled_batch
    ce, beta, phi, n, u0 = sides
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for pieces in (1, 600):
            side, z = equilibrium._roots(ce, beta, phi, n, u0, pieces)
            for i in range(ce.size):
                cut = slice(i, i + 1)
                alone, z_i = equilibrium._roots(ce[cut], beta[cut], phi[cut], n, u0[cut], pieces)
                assert not alone.any() and z[side == i].tobytes() == z_i.tobytes()
                assert np.all(np.diff(z_i) >= 1e-8)
            if pieces == 1:
                assert np.all(np.bincount(side, minlength=ce.size) <= 1)
                scattered = np.full(ce.size, np.nan)
                scattered[side] = z
    assert solve_decoupled_batch(ce, beta, phi, n, u0).tobytes() == scattered.tobytes()


# finite inputs whose competitive FOC is NaN at the decoupled start: c = phi_bs
# phi_sb overflows, so the share price reads -inf / -inf
NAN_START = MarketParams(2, 1.0, ((0.1, 1e200), (1e200, 0.1)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(batch_markets())
@example([MarketParams.uniform(61, 0.5, phi_own=0.2, phi_cross=0.03, u0=-1.0),
          TestCoupledNewtonStall.PARAMS, MarketParams(61, (0.4, 1.0), ((0.3, 0.0), (0.0, 0.2))),
          MarketParams(61, (1e-3, 1.0), ((0.5, -0.02), (0.04, 0.2)), (1.0, -2.0)),
          MarketParams(61, (1e-6, 1e-6), ((0.0, 0.03), (4e-134, 4e-134)), (0.0, -3.5e-62))])
@example([MarketParams.uniform(2, 1.0, phi_own=0.1, phi_cross=0.03),
          NAN_START, MarketParams.uniform(2, 0.5, phi_own=0.2, phi_cross=-0.02, u0=1.0)])
def test_batch_is_one_market_solves_bit_for_bit(markets):
    # one Newton, one assembly per N group, of one regime or of both: each
    # market's result and error message are those of its own
    # one-market, one-regime solve.  The coupled-Newton stall keeps its
    # message beside healthy markets and beside a near copy that stalls at a
    # larger residual, so a step is accepted or halved on its own market's
    # residual alone
    both = equilibrium.solve_markets(("cne", "ce"), markets)
    for (regime, solver), mixed in zip((("cne", solve_cne), ("ce", solve_ce)), both):
        expected = []
        for params in markets:
            try:
                expected.append(_bits(solver(params)))
            except SolverError as exc:
                expected.append(_bits(exc))
        (alone,) = equilibrium.solve_markets((regime,), markets)
        assert [_bits(r) for r in alone] == expected
        assert [_bits(r) for r in mixed] == expected
        for params, result in zip(markets, expected):
            if params is TestCoupledNewtonStall.PARAMS:
                assert "near-singular Jacobian" in result
            if params is NAN_START and regime == "cne":
                # a NaN residual is not converged: the line search runs out on it
                assert "line search exhausted" in result and "residual nan" in result


# sha256 of the coupled stage-1 results and their implicit-function
# derivatives on `_coupled_markets`, as the per-market damped Newton gave them
PINNED_COUPLED = "81ed178630d92cd58c7d72d646e51705f540562e0035ef462bc1baa991babdf8"


def _coupled_markets():
    rng = np.random.default_rng(2025)
    markets = [MarketParams(int(rng.integers(2, 8)), tuple(rng.uniform(0.1, 3.0, 2)),
                            ((rng.uniform(-1.0, 1.5), rng.uniform(-0.05, 0.05)),
                             (rng.uniform(-0.05, 0.05), rng.uniform(-1.0, 1.5))),
                            tuple(rng.uniform(-5.0, 5.0, 2))) for _ in range(150)]
    return markets + [TestCoupledNewtonStall.PARAMS,
                      MarketParams.uniform(3, 3e-7, phi_cross=0.03, u0=-500.0)]


def test_coupled_batch_pinned_bits():
    digest = hashlib.sha256()
    for results in equilibrium.solve_markets(("cne", "ce"), _coupled_markets()):
        for result in results:
            record = _bits(result)
            if not isinstance(result, Exception):
                record += repr(sorted(ift_derivatives(result).items()))
            digest.update(record.encode())
    assert digest.hexdigest() == PINNED_COUPLED


def test_stacked_steps_set_singular_columns_aside():
    # one singular item would make a stacked solve raise; the others keep the
    # bits of their own solve and only the singular column is flagged
    rng = np.random.default_rng(11)
    J, F = rng.normal(size=(5, 2, 2)), rng.normal(size=(2, 5))
    J[2] = [[1.0, 2.0], [2.0, 4.0]]
    # the stage-1 entry points hold the errstate the kernels run under
    quiet = np.errstate(invalid="ignore")
    step, singular = quiet(equilibrium._solve_steps)(J, F)
    assert singular.tolist() == [False, False, True, False, False]
    for j in (0, 1, 3, 4):
        assert np.array_equal(step[:, j], np.linalg.solve(J[j], F[:, j]))
    step, singular = quiet(equilibrium._solve_steps)(np.delete(J, 2, axis=0),
                                                      np.delete(F, 2, axis=1))
    assert not singular.any()
    assert np.array_equal(step[:, 2], np.linalg.solve(J[3], F[:, 3]))
    # a tiny nonsingular J (its determinant underflows to 0) is no singular
    # one, and a J with a NaN entry is not flagged: its step is what the
    # solve gives, NaN
    J[0] *= 1e-170
    J[4, 1, 0] = np.nan
    step, singular = quiet(equilibrium._solve_steps)(J, F)
    assert np.linalg.det(J[0]) == 0.0
    assert singular.tolist() == [False, False, True, False, False]
    assert np.array_equal(step[:, 0], np.linalg.solve(J[0], F[:, 0]))
    assert np.isnan(step[:, 2]).all() and np.isnan(step[:, 4]).all()

class TestCompareRegimes:
    def test_base_case(self):
        cmp_ = compare_regimes(MarketParams.uniform(2, 1.0))
        assert cmp_.dz[0] == pytest.approx(Z_CNE_BASE - Z_CE_BASE, abs=1e-10)
        assert cmp_.dz[0] == pytest.approx(0.2363, abs=2e-4)
        assert cmp_.d_price[0] == pytest.approx(-cmp_.dz[0], abs=1e-10)
        assert cmp_.d_participation[0] > 0
        assert cmp_.decomposition_residual <= 1e-9
        assert cmp_.decomposition_externality == (0.0, 0.0)

    def test_one_batch_reports_cne_failure_first(self, monkeypatch):
        # both regimes in one stage-1 call; where both stall, cne's error is raised
        calls, real = [], equilibrium.solve_markets
        monkeypatch.setattr(equilibrium, "solve_markets",
                            lambda regimes, *args: calls.append(regimes) or real(regimes, *args))
        params = TestCoupledNewtonStall.PARAMS
        with pytest.raises(SolverError) as info:
            compare_regimes(params)
        assert calls == [("cne", "ce")]
        monkeypatch.undo()
        messages = []
        for solver in (solve_cne, solve_ce):
            with pytest.raises(SolverError) as exc:
                solver(params)
            messages.append(str(exc.value))
        assert str(info.value) == messages[0] != messages[1]

    def test_random_sweep_signs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            beta = rng.uniform(0.3, 2.5, 2)
            phi_own = rng.uniform(-1.0, 1.0, 2)
            for k in (0, 1):
                if phi_own[k] > 0:
                    beta[k] = max(beta[k], 2 * (n - 1) / n**2 * phi_own[k] + 0.05)
            cross = rng.uniform(-0.05, 0.05, 2)
            params = MarketParams(n, tuple(beta),
                                  ((phi_own[0], cross[0]), (cross[1], phi_own[1])),
                                  tuple(rng.uniform(-1.5, 1.5, 2)))
            cmp_ = compare_regimes(params)
            for k in (0, 1):
                assert cmp_.dz[k] > 0
                assert cmp_.d_participation[k] > 0
                assert cmp_.d_price[k] < 0
            assert cmp_.decomposition_residual <= 1e-9

    def test_perfect_competition_trend(self):
        params = MarketParams.uniform(2, 1.0)
        errs = []
        for n in (10, 100, 1000, 10000):
            eq = solve_cne(params, n=float(n))
            errs.append((abs(eq.prices[0] - 1.0), abs(eq.participation[0] - 1.0)))
        assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(errs, errs[1:]))
        assert errs[-1][0] < 1e-2 and errs[-1][1] < 1e-2
