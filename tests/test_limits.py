import numpy as np
import pytest

from platform_eq.equilibrium import solve_cne
from platform_eq.limits import outside_option_limit_check, perfect_competition_check
from platform_eq.model import MarketParams, Side


class TestPerfectCompetition:
    def test_base_case_converges(self):
        check = perfect_competition_check(MarketParams.uniform(2, 1.0))
        assert check.kind == "large_n"
        assert check.converged
        assert check.achieved_error < 1e-2

    def test_limiting_z_sign_rule(self):
        # z > 0 in the limit iff u0 < 0 and beta < -u0, checked at N = 200
        eq = solve_cne(MarketParams.uniform(2, 0.5, u0=-1.0), n=200.0)
        assert eq.z.z_b > 0
        for beta in (0.5, 2.0):
            eq = solve_cne(MarketParams.uniform(2, beta, u0=1.0), n=200.0)
            assert eq.z.z_b < 0
        eq = solve_cne(MarketParams.uniform(2, 2.0, u0=-1.0), n=200.0)
        assert eq.z.z_b < 0

    def test_rule_recorded_per_point(self):
        check = perfect_competition_check(MarketParams.uniform(2, 0.5, u0=-1.0),
                                          n_sequence=(200,))
        assert check.observed[0]["z_sign_ok_b"]
        assert check.observed[0]["z_sign_ok_s"]

    def test_empty_sequence_is_refused(self):
        # it raised IndexError on the last of no points
        with pytest.raises(ValueError, match="n_sequence"):
            perfect_competition_check(MarketParams.uniform(2, 1.0), n_sequence=())


class TestOutsideOptionLimits:
    def test_base_case(self):
        lo, hi = outside_option_limit_check(MarketParams.uniform(2, 1.0))
        assert lo.kind == "small_u0" and hi.kind == "large_u0"
        assert lo.converged and hi.converged
        assert lo.observed[0]["price_b"] == pytest.approx(2.0, abs=1e-3)
        assert hi.observed[0]["price_b"] == pytest.approx(1.0, abs=1e-3)
        assert hi.observed[0]["profit_b"] < 1e-3

    def test_monotone_price_bracket(self):
        # in the price-decreasing region, p*(-40) > p*(0) > p*(+40), all inside
        # (p_e, p_u)
        base = MarketParams.uniform(2, 1.0, phi_own=-0.5)
        prices = [solve_cne(base.replace(u0=(u, u))).prices[0] for u in (-40.0, 0.0, 40.0)]
        assert prices[0] > prices[1] > prices[2]
        # p_e = beta = 1, p_u = N beta/(N-1) - phi/(N-1) = 2.5
        assert 1.0 - 1e-6 < prices[2] and prices[0] < 2.5 + 1e-6

    def test_requires_decoupled(self):
        params = MarketParams(2, (1.0, 1.0), ((0.0, 0.1), (0.1, 0.0)))
        with pytest.raises(ValueError):
            outside_option_limit_check(params)


class TestParticipationAlongN:
    def test_participation_increases(self):
        params = MarketParams.uniform(2, 1.0, u0=0.3)
        values = [solve_cne(params, n=float(n)).participation[0]
                  for n in (2, 3, 5, 10, 25, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_increase_beyond_gx_threshold(self):
        # phi > 0 with beta above g_x(N) phi: still monotone in N
        params = MarketParams.uniform(2, 1.0, phi_own=1.0)
        values = [solve_cne(params, n=float(n)).participation[0]
                  for n in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(values, values[1:]))
