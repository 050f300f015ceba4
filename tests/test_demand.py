import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platform_eq import demand
from platform_eq.demand import (FixedPointError, MarketState, PriceProfile,
                                contraction_margin, fixed_point_batch,
                                fixed_point_multistart, logit_shares,
                                monte_carlo_shares, sensitivities, share_box,
                                share_fixed_point)
from platform_eq.equilibrium import solve_cne
from platform_eq.model import MarketParams, Side


class TestLogitShares:
    def test_symmetry(self):
        assert logit_shares([0.0, 0.0, 0.0], 1.0) == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_dominance_limit(self):
        s = logit_shares([0.0, 40.0], 1.0)
        assert s[0] == pytest.approx(0.0, abs=1e-12)
        assert s[1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_platforms_equal_omega(self):
        # common platform utility u against outside 0: share = 1/(e^{-z} + N)
        for n, u, beta in ((2, -1.0, 1.0), (5, 0.7, 0.4), (3, 2.0, 2.5)):
            s = logit_shares([0.0] + [u] * n, beta)
            z = u / beta
            assert s[1] == pytest.approx(1.0 / (np.exp(-z) + n), rel=1e-13)

    def test_sum_and_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=6)
            beta = rng.uniform(0.05, 5.0)
            s = logit_shares(u, beta)
            assert abs(s.sum() - 1.0) <= 1e-12
            s2 = logit_shares(u + 13.7, beta)
            assert np.max(np.abs(s - s2)) <= 1e-12

    def test_overflow_safety(self):
        s = logit_shares([0.0, 5.0, 4.9], 1e-4)  # u/beta ~ 5e4
        assert np.all(np.isfinite(s)) and abs(s.sum() - 1.0) <= 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="invalid utility"):
            logit_shares([0.0, np.nan], 1.0)
        with pytest.raises(ValueError):
            logit_shares([0.0, 1.0], 0.0)


class TestFixedPoint:
    def test_zero_externality_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            params = MarketParams.uniform(n, rng.uniform(0.3, 2.0))
            prices = rng.uniform(-2, 2, size=(2, n))
            state = share_fixed_point(params, prices)
            for k in (0, 1):
                direct = logit_shares(np.concatenate([[0.0], -prices[k]]), params.beta[k])
                assert np.max(np.abs(state.shares[k] - direct)) <= 1e-12

    def test_simplex_invariant(self):
        params = MarketParams(3, (0.5, 0.9), ((0.3, 0.1), (-0.2, 0.4)), (0.2, -0.1))
        state = share_fixed_point(params, PriceProfile.symmetric(3, 0.5, -0.3))
        assert np.max(np.abs(state.shares.sum(axis=1) - 1.0)) <= 1e-10
        assert np.all(state.shares >= 0)

    def test_symmetric_reduced_system_oracle(self):
        # N=2, beta=(1,1), Phi=((.3,.1),(.1,.3)), symmetric prices (1,1), u0=0:
        # both sides identical, so x solves x = omega((0.4 x - 1)/1).
        def omega(z, n=2):
            return 1.0 / (np.exp(-z) + n)

        lo, hi = 0.0, 0.5
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if omega(0.4 * mid - 1.0) - mid > 0:
                lo = mid
            else:
                hi = mid
        x_oracle = 0.5 * (lo + hi)

        params = MarketParams(2, (1.0, 1.0), ((0.3, 0.1), (0.1, 0.3)))
        state = share_fixed_point(params, PriceProfile.symmetric(2, 1.0, 1.0))
        inside = state.platform_shares
        assert inside[0, 0] == pytest.approx(inside[0, 1], abs=1e-12)
        assert inside[0, 0] == pytest.approx(inside[1, 0], abs=1e-12)
        assert inside[0, 0] == pytest.approx(x_oracle, abs=1e-10)

    def test_multistart_agreement_under_contraction(self):
        rng = np.random.default_rng(7)
        tried = 0
        while tried < 10:
            n = int(rng.integers(2, 5))
            params = MarketParams(
                n, tuple(rng.uniform(0.8, 2.5, 2)),
                tuple(tuple(row) for row in rng.uniform(-0.3, 0.3, (2, 2))),
                tuple(rng.uniform(-1, 1, 2)))
            if contraction_margin(params) <= 0:
                continue
            tried += 1
            prices = rng.uniform(-2, 2, (2, n))
            res = fixed_point_multistart(params, prices, starts=10, seed=tried)
            assert not res.multiple
            assert res.max_distance < 1e-9

    def test_price_monotonicity(self):
        params = MarketParams.uniform(3, 1.0)
        base = share_fixed_point(params, PriceProfile.symmetric(3, 0.5, 0.5))
        bumped_prices = np.array([[0.7, 0.5, 0.5], [0.5, 0.5, 0.5]])
        bumped = share_fixed_point(params, bumped_prices)
        assert bumped.shares[0, 1] < base.shares[0, 1]
        assert np.all(np.delete(bumped.shares[0], 1) >= np.delete(base.shares[0], 1))

    def test_nonconvergence_error_carries_residual(self):
        params = MarketParams.uniform(2, 1.0, phi_own=0.3)
        with pytest.raises(FixedPointError) as err:
            share_fixed_point(params, PriceProfile.symmetric(2, 1.0, 1.0), max_iter=2)
        assert err.value.residual > 0

    def test_input_validation(self):
        params = MarketParams.uniform(2, 1.0)
        with pytest.raises(ValueError):
            share_fixed_point(params, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            share_fixed_point(params, np.zeros((2, 2)), damping=0.0)

    @pytest.mark.parametrize("solve", [fixed_point_batch, fixed_point_multistart])
    @pytest.mark.parametrize("bad", [{"damping": 0.0}, {"damping": 1.5},
                                     {"damping": np.nan}, {"tol": 0.0}, {"tol": -1e-12}])
    def test_every_entry_point_validates(self, solve, bad):
        # damping 0 would run max_iter no-op sweeps before failing
        params = MarketParams.uniform(2, 1.0)
        with pytest.raises(ValueError):
            solve(params, np.zeros((4, 2, 2)) if solve is fixed_point_batch
                  else np.zeros((2, 2)), **bad)


def _deviation_grid(n, half, grid_n=41):
    """grid_n^2 profiles: platform 1's two prices on [-half, half], the rest at 0."""
    g = np.linspace(-half, half, grid_n)
    prices = np.zeros((grid_n, grid_n, 2, n))
    prices[..., 0, 0], prices[..., 1, 0] = np.meshgrid(g, g, indexing="ij")
    return prices


class TestFixedPointBatch:
    def test_converged_cells_frozen_in_place(self):
        # margin -0.5: after 100 sweeps 529 of the 1681 cells have met tol
        params = MarketParams.uniform(3, 0.1, phi_own=0.3, u0=-1)
        assert contraction_margin(params) <= 0
        prices = _deviation_grid(3, 0.05)
        x0 = np.full((41, 41, 2, 4), 0.25)
        x0_before = x0.copy()
        x, resid = fixed_point_batch(params, prices, max_iter=100, x0=x0)
        assert x.shape == (41, 41, 2, 4) and resid.shape == (41, 41)
        assert np.array_equal(x0, x0_before)
        done = resid <= 1e-12
        assert 0 < done.sum() < done.size
        # converged cells hold the iterate whose residual met tol; the rest
        # report a residual above it (the kernel runs batch-last, all-ones classes)
        xt = np.ascontiguousarray(x.reshape(-1, 2, 4).T)
        pt = np.ascontiguousarray(prices.reshape(-1, 2, 3).T)
        beta = params.beta_arr[:, None]
        s = demand._sigma(xt, params.phi_arr, beta, params.u0_arr[:, None] / beta, pt,
                          np.ones((4, 1, 1)))
        recheck = np.max(np.abs(s - xt), axis=(0, 1)).reshape(41, 41)
        assert np.array_equal(recheck[done], resid[done])
        assert np.all(resid[~done] > 1e-12)
        # every cell comes back where it was, as its own shape-() solve
        for i, j in [(20, 20), *map(tuple, np.argwhere(done)[::97]),
                     *map(tuple, np.argwhere(~done)[::211])]:
            xi, ri = fixed_point_batch(params, prices[i, j], max_iter=100, x0=x0[i, j])
            assert xi.shape == (2, 4) and ri.shape == ()
            assert np.array_equal(xi, x[i, j]) and ri == resid[i, j]

    def test_bound_keeps_a_best_cell_that_starts_far_behind(self):
        # margin 0.1 (L = 0.9): the best cell, the deviator at p*, starts with
        # almost no shares, while a worse one (the deviator 1% above p*)
        # starts on its fixed point and meets tol at once.  The best cell's
        # early profit lies far below, but the bound holds it in the race;
        # leaving out its L r / (1 - L) term would drop it
        params = MarketParams.uniform(3, 1.0, phi_own=1.8)
        assert contraction_margin(params) == pytest.approx(0.1)
        p_star = np.array(solve_cne(params).prices)
        prices = np.stack([np.stack([p_star, 1.01 * p_star], axis=-1),
                           np.repeat(p_star[:, None], 2, axis=1)])   # (class, side, cell)
        mult = np.array([1.0, 2.0])
        x_full, r_full = demand.class_fixed_point(params, prices, mult, np.full((3, 2, 2), 0.25))
        x0 = np.full((3, 2, 2), 1e-3)
        x0[0, :, 0] = 1.0 - 3e-3
        x0[..., 1] = x_full[..., 1]
        x, resid = demand.class_fixed_point(params, prices, mult, x0, maximize=0)
        profit = (x[1] * prices[0]).sum(axis=0)
        assert resid[0] <= 1e-12 and profit[0] > profit[1]
        assert profit[0] == pytest.approx((x_full[1, :, 0] * p_star).sum(), abs=1e-11)

    def test_bound_waits_for_a_start_outside_the_share_box(self):
        # the best cell, the deviator 5% above the other's prices, starts
        # with no shares, outside the share box (L_B = 0.34), where the map
        # is steeper than L_B: its first sweep lands 0.43 from its fixed
        # point, beyond L_B r / (1 - L_B), so a bound taken from sweep 0
        # would drop it.  The bound waits BOX_STEPS sweeps, until the
        # iterate lies in the box
        params = MarketParams(3, (0.8386, 0.5969), ((-0.404, -0.0134), (-0.0053, 0.8139)),
                              (0.1423, -1.35))
        mult = np.array([1.0, 2.0])
        prices = np.array([[[0.00975, 0.00927], [0.3042, 0.2894]],
                           [[0.5973, 0.5973], [1.3279, 1.3279]]])   # (class, side, cell)
        x_full, _ = demand.class_fixed_point(params, prices, mult, np.full((3, 2, 2), 0.25))
        x0 = x_full.copy()
        x0[:, :, 0] = [[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]]
        lip, lo, _hi = share_box(params, prices, mult)
        assert lip < 0.34 and np.all(x0[1, :, 0] < lo[0])
        x, resid = demand.class_fixed_point(params, prices, mult, x0, maximize=0)
        profit = (x[1] * prices[0]).sum(axis=0)
        assert resid[0] <= 1e-12 and profit[0] > profit[1]
        assert profit[0] == pytest.approx((x_full[1, :, 0] * prices[0, :, 0]).sum(), abs=1e-11)

    def test_zero_sweeps_return_the_start(self):
        params = MarketParams.uniform(2, 1.0)
        x0 = np.full((2, 3), 1.0 / 3)
        x, resid = fixed_point_batch(params, np.zeros((2, 2)), max_iter=0, x0=x0)
        assert np.array_equal(x, x0) and resid == np.inf

    @pytest.mark.parametrize("damping", [None, 0.5, 1.0])
    def test_empty_batch_returns_empty(self, damping):
        # with no cell, no sweep picks the default damping: it raised TypeError
        params = MarketParams.uniform(2, 1.0, phi_own=0.3)
        x, resid = fixed_point_batch(params, np.zeros((0, 2, 2)), damping=damping)
        assert x.shape == (0, 2, 3) and resid.shape == (0,)

    def test_multistart_needs_a_start(self):
        with pytest.raises(ValueError, match="starts must be at least 1"):
            fixed_point_multistart(MarketParams.uniform(2, 1.0), np.zeros((2, 2)), starts=0)


def batch_lipschitz(params, prices):
    """L_B of the share box of a (..., 2, N) price batch, as fixed_point_batch
    forms it: every platform its own class."""
    n = params.n_platforms
    return share_box(params, prices.reshape(-1, 2, n).T, np.ones(n))[0]


@st.composite
def stage2_cases(draw, beta_min=0.2, u0_max=2.0):
    """Envelope markets (N 2..6, beta beta_min..3, |phi_own| <= 1, |cross| <=
    0.05, |u0| <= u0_max) of either sign of the contraction margin, and a seed
    for a price batch."""
    n = draw(st.integers(2, 6))
    beta = tuple(draw(st.floats(beta_min, 3.0)) for _ in range(2))
    own = [draw(st.floats(-1.0, 1.0)) for _ in range(2)]
    cross = [draw(st.floats(-0.05, 0.05)) for _ in range(2)]
    u0 = tuple(draw(st.floats(-u0_max, u0_max)) for _ in range(2))
    params = MarketParams(n, beta, ((own[0], cross[0]), (cross[1], own[1])), u0)
    return params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(stage2_cases())
@example((MarketParams(3, (1.0, 0.9), ((0.2, 0.03), (-0.02, 0.1)), (0.1, -0.1)), 1))
@example((MarketParams.uniform(3, 0.2, phi_own=0.8, u0=-1), 2))
def test_default_damping_finds_the_same_fixed_point(case):
    params, seed = case
    prices = np.random.default_rng(seed).uniform(-2.0, 2.0, (8, 2, params.n_platforms))
    x_default, r_default = fixed_point_batch(params, prices, max_iter=3000)
    x_half, r_half = fixed_point_batch(params, prices, damping=0.5, max_iter=3000)
    if batch_lipschitz(params, prices) < 1:
        # a contraction on the batch's share box: the unique fixed point,
        # whatever the step
        assert np.all(r_default <= 1e-12) and np.all(r_half <= 1e-12)
        assert np.max(np.abs(x_default - x_half)) <= 1e-11
    else:
        both = (r_default <= 1e-12) & (r_half <= 1e-12)
        assert np.array_equal(x_default[both], x_half[both])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(stage2_cases(beta_min=3e-7, u0_max=1e3).filter(lambda c: contraction_margin(c[0]) <= 0))
@example((MarketParams(2, (3e-7, 3e-7), ((0.9, 0.05), (-0.05, -1.0)), (1e3, -1e3)), 3))
@example((MarketParams.uniform(2, 0.05, phi_own=0.8, u0=-1), 4))
def test_share_box_certificate(case):
    # L_B is never weaker than the price-free margin, raises no warning at
    # extreme beta and u0, and where it proves a contraction the fixed point
    # is unique and found at either step
    params, seed = case
    prices = np.random.default_rng(seed).uniform(-2.0, 2.0, (2, params.n_platforms))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lip = batch_lipschitz(params, prices)
        assert lip == np.inf or np.isfinite(lip)
        assert lip <= (1.0 - contraction_margin(params)) * (1.0 + 1e-12)
        if lip < 1:
            assert len(fixed_point_multistart(params, prices, starts=6, seed=seed).points) == 1
            x_default = share_fixed_point(params, prices).shares
            x_half = share_fixed_point(params, prices, damping=0.5).shares
            assert np.max(np.abs(x_default - x_half)) <= 1e-11


class TestContractionMargin:
    def test_zero_externality(self):
        assert contraction_margin(MarketParams.uniform(4, 0.7)) == 1.0

    def test_row_sum_arithmetic(self):
        params = MarketParams(2, (1.0, 1.0), ((0.95, 0.95), (0.2, 0.2)))
        assert contraction_margin(params) == pytest.approx(0.05)

    def test_uncertified(self):
        params = MarketParams(2, (0.1, 0.1), ((0.5, 0.5), (0.5, 0.5)))
        assert contraction_margin(params) < 0

    def test_logit_lipschitz_bound_oracle(self):
        # M_T bound: sum_l |dT^i/du^l| = 2 T (1-T)/beta <= 1/(2 beta),
        # maximized numerically over random utility vectors
        rng = np.random.default_rng(5)
        beta = 0.37
        worst = 0.0
        for _ in range(2000):
            u = rng.normal(scale=3.0, size=5)
            t = logit_shares(u, beta)
            worst = max(worst, float(np.max(2.0 * t * (1.0 - t) / beta)))
        assert worst <= 1.0 / (2.0 * beta) + 1e-12


class TestSensitivities:
    def test_finite_difference_oracle(self):
        params = MarketParams.uniform(2, 1.0)
        h = 1e-6
        for z in (-3.0, -1.2, 0.0, 0.8, 2.5):
            sens = sensitivities(z, params, Side.BUYER)
            n = params.n_platforms
            u = np.concatenate([[0.0], np.full(n, z)])  # beta = 1: u = z
            e1 = np.zeros(n + 1)
            e1[1] = h
            s_fd = (logit_shares(u + e1, 1.0)[1] - logit_shares(u - e1, 1.0)[1]) / (2 * h)
            e2 = np.zeros(n + 1)
            e2[2] = h
            r_fd = (logit_shares(u + e2, 1.0)[1] - logit_shares(u - e2, 1.0)[1]) / (2 * h)
            assert sens.s == pytest.approx(s_fd, rel=1e-7)
            assert sens.r == pytest.approx(r_fd, rel=1e-7)

    def test_value_at_zero(self):
        # N=2, beta=1, z=0: all three options equal, T=1/3, so s = T(1-T) = 2/9
        sens = sensitivities(0.0, MarketParams.uniform(2, 1.0), Side.BUYER)
        assert sens.s == pytest.approx(2 / 9, abs=1e-15)
        assert sens.r == pytest.approx(-1 / 9, abs=1e-15)

    def test_empty_market_limit(self):
        sens = sensitivities(-80.0, MarketParams.uniform(3, 1.0), Side.BUYER)
        assert abs(sens.s) < 1e-30 and abs(sens.r) < 1e-30

    def test_signs_and_foc_denominator(self):
        params = MarketParams.uniform(4, 0.6)
        n = params.n_platforms
        for z in np.linspace(-10, 10, 81):
            sens = sensitivities(z, params, Side.SELLER)
            assert sens.s > 0 and sens.r < 0
            assert sens.s + (n - 1) * sens.r > 0


class TestMonteCarlo:
    def test_symmetric_frequencies(self):
        n = 3
        params = MarketParams.uniform(n, 1.0)
        state = MarketState(np.full((2, n + 1), 1.0 / (n + 1)))
        prices = PriceProfile.symmetric(n, 0.0, 0.0)
        mc = monte_carlo_shares(params, prices, state, samples=1_000_000, seed=9)
        assert np.max(np.abs(mc.shares.shares - 0.25) / mc.stderr) < 3.0

    def test_self_consistency_with_fixed_point(self):
        params = MarketParams(2, (1.0, 0.8), ((0.3, 0.05), (0.05, 0.2)), (0.1, -0.2))
        prices = PriceProfile.symmetric(2, 0.8, 0.4)
        state = share_fixed_point(params, prices)
        mc = monte_carlo_shares(params, prices, state, samples=400_000, seed=123)
        dev = np.abs(mc.shares.shares - state.shares) / np.maximum(mc.stderr, 1e-12)
        assert np.max(dev) < 3.0

    def test_noise_dominated_limit(self):
        n = 3
        params = MarketParams.uniform(n, 1e4)
        state = MarketState(np.full((2, n + 1), 1.0 / (n + 1)))
        prices = np.array([[0.0, 0.5, 1.0], [1.0, 0.3, 0.0]])
        mc = monte_carlo_shares(params, prices, state, samples=200_000, seed=4)
        assert np.max(np.abs(mc.shares.shares - 0.25)) < 0.005

    def test_reproducible_under_seed(self):
        params = MarketParams.uniform(2, 1.0)
        state = MarketState(np.full((2, 3), 1.0 / 3))
        prices = PriceProfile.symmetric(2, 1.0, 1.0)
        a = monte_carlo_shares(params, prices, state, samples=10_000, seed=77)
        b = monte_carlo_shares(params, prices, state, samples=10_000, seed=77)
        assert np.array_equal(a.shares.shares, b.shares.shares)


class TestMarketState:
    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            MarketState(np.array([[0.5, 0.6], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            MarketState(np.array([[1.2, -0.2], [0.5, 0.5]]))
