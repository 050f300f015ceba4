import numpy as np
import pytest

from platform_eq._families import horner
from platform_eq.model import (MarketParams, Side, ce_existence_bound, cne_existence_bound,
                               existence_fails, solve_cubic_real)


def bisect_isolate(f, lo=-10.0, hi=10.0, n=20001, xtol=1e-12):
    """Independent root isolator: sign changes on a dense grid, then bisection."""
    xs = np.linspace(lo, hi, n)
    vals = f(xs)
    roots = []
    for i in range(n - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            roots.append(xs[i])
            continue
        if (a > 0) == (b > 0):
            continue
        x0, x1 = xs[i], xs[i + 1]
        f0 = a
        while x1 - x0 > xtol:
            mid = 0.5 * (x0 + x1)
            fm = f(np.array([mid]))[0]
            if (fm > 0) == (f0 > 0):
                x0, f0 = mid, fm
            else:
                x1 = mid
        roots.append(0.5 * (x0 + x1))
    return sorted(roots)


class TestCubic:
    def test_unit_root(self):
        assert solve_cubic_real([-1, 0, 0, 1]) == pytest.approx([1.0], abs=1e-12)

    def test_symmetric_factorization(self):
        roots = solve_cubic_real([0, -1, 0, 1])
        assert roots == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_profit_region_cubic_vs_isolator(self):
        # 4 b^3 N^3 + b^2 (2-5N) N phi - 2 b N phi^2 + 2 phi^3 at N=2, phi=-1
        c = [-2.0, -4.0, 16.0, 32.0]
        roots = solve_cubic_real(c)
        scale = max(1.0, *map(abs, c))
        for r in roots:
            assert abs(horner(c, r)) <= 1e-9 * scale
        iso = bisect_isolate(lambda x: horner(c, x))
        assert len(roots) == len(iso) == 3
        assert roots == pytest.approx(iso, abs=1e-9)
        # exact factorization (b + 1/2)(32 b^2 - 4)
        assert roots == pytest.approx([-0.5, -np.sqrt(1 / 8), np.sqrt(1 / 8)], abs=1e-12)

    def test_random_cubics_match_isolator(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            c = rng.uniform(-3, 3, size=4)[::-1].tolist()
            if abs(c[3]) < 1e-3:
                continue
            mine = solve_cubic_real(c)
            iso = bisect_isolate(lambda x: horner(c, x), n=4001)
            window = [r for r in mine if abs(r) < 9.99]
            iso = [r for r in iso if abs(r) < 9.99]
            assert len(window) == len(iso)
            for a, b in zip(window, iso):
                assert a == pytest.approx(b, abs=1e-7)
            for r in mine:
                assert abs(horner(c, r)) <= 1e-9 * max(1.0, *map(abs, c))

    def test_scale_invariance(self):
        base = solve_cubic_real([-5, 26, -50, 24])
        for lam in (1e-9, 1e-6, 1e6):
            scaled = solve_cubic_real([-5 * lam, 26 * lam, -50 * lam, 24 * lam])
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_near_triple_root(self):
        roots = solve_cubic_real([-1, 3, -3, 1])
        assert roots == pytest.approx([1.0], abs=1e-6)
        roots = solve_cubic_real([-2, 5, -4, 1])  # (x-1)^2 (x-2)
        assert roots == pytest.approx([1.0, 2.0], abs=1e-6)

    def test_degenerate_raises(self):
        # only cubics: a quadratic, linear or constant polynomial is refused
        for coefficients in ([2, -3, 1, 0], [-4, 2, 0, 0], [1, 0, 1, 0], [5, 0, 0, 0],
                             [0, 0, 0, 0]):
            with pytest.raises(ValueError, match="degenerate polynomial"):
                solve_cubic_real(coefficients)


class TestExistence:
    def test_cne_examples(self):
        assert not existence_fails(0.4, 1.0, cne_existence_bound(4))
        assert cne_existence_bound(4) == pytest.approx(0.375, abs=1e-15)
        assert not existence_fails(0.01, -3.0, cne_existence_bound(2))
        # boundary is excluded: strict inequality
        assert existence_fails(0.375, 1.0, cne_existence_bound(4))

    def test_ce_examples(self):
        assert ce_existence_bound(2) == pytest.approx(8 / 54)
        assert not existence_fails(0.2, 1.0, ce_existence_bound(2))
        assert existence_fails(0.1, 1.0, ce_existence_bound(2))

    def test_cne_implies_ce(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            beta, phi = rng.uniform(0.01, 3.0), rng.uniform(-2.0, 2.0)
            if not existence_fails(beta, phi, cne_existence_bound(n)):
                assert not existence_fails(beta, phi, ce_existence_bound(n))

    def test_f_decreasing_to_zero(self):
        ns = np.unique(np.geomspace(2, 1_000_000, 60).astype(int))
        vals = [cne_existence_bound(float(n)) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5


class TestMarketParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MarketParams(1, (1.0, 1.0))
        with pytest.raises(ValueError):
            MarketParams(2.5, (1.0, 1.0))
        with pytest.raises(ValueError):
            MarketParams(2, (0.0, 1.0))
        with pytest.raises(ValueError):
            MarketParams(2, (1.0, np.inf))
        with pytest.raises(ValueError):
            MarketParams(2, (1.0, 1.0), phi=((0.0, np.nan), (0.0, 0.0)))

    @pytest.mark.parametrize("fields, message", [
        ({"phi": 0.1}, "phi must be a 2x2 matrix"),
        ({"phi": ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))}, "phi must be a 2x2 matrix"),
        ({"phi": [[[0.1], [0.2]], [[0.3], [0.4]]]}, "phi must be a 2x2 matrix"),
        ({"phi": ("12", "34")}, "phi must be a 2x2 matrix"),
        ({"phi": ((0.0, np.nan), (0.0, 0.0))}, "phi must be finite"),
        ({"phi": [[0.0, 0.0], [-np.inf, 0.0]]}, "phi must be finite"),
        ({"beta": (0.0, 1.0)}, "beta must be positive on both sides"),
        ({"beta": -1.0}, "beta must be positive on both sides"),
        ({"beta": (1.0, np.inf)}, "beta must be finite"),
        ({"u0": (np.nan, 0.0)}, "u0 must be finite"),
        ({"mu": -np.inf}, "mu must be finite"),
        ({"n_platforms": 2.5}, "n_platforms must be an integer >= 2"),
        ({"n_platforms": 1}, "n_platforms must be an integer >= 2"),
        # the first failing check speaks: N, the pairs, phi, then beta's sign
        ({"n_platforms": 1, "beta": np.nan}, "n_platforms must be an integer >= 2"),
        ({"beta": (0.0, 1.0), "u0": (1.0,)}, "u0 must be a scalar or a (buyer, seller) pair"),
        ({"beta": (0.0, 1.0), "phi": np.nan}, "phi must be a 2x2 matrix"),
    ])
    def test_invalid_input_message(self, fields, message):
        # the constructor and replace, which checks the copy anew, say the same
        for build in (lambda: MarketParams(**{"n_platforms": 2, "beta": (1.0, 1.0), **fields}),
                      lambda: MarketParams.uniform(3, 1.0, phi_own=0.3).replace(**fields)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("phi", [((0.0, 0.0), (0.0,)), [[0.1, 0.2, 0.3], [0.1, 0.2]],
                                     ((np.array([0.1]), 0.0), (0.0, 0.0))])
    def test_ragged_phi_says_what_numpy_says(self, phi):
        with pytest.raises(ValueError) as numpy_error:
            np.asarray(phi, dtype=float)
        with pytest.raises(ValueError) as info:
            MarketParams(2, (1.0, 1.0), phi)
        assert str(info.value) == str(numpy_error.value)

    @pytest.mark.parametrize("fields", [
        {"phi": (("0.1", "-2"), ("0", "3e-3"))}, {"phi": np.array([[0.1, -2.0], [0.0, 3e-3]])},
        {"phi": [np.array([0.1, -2.0]), (np.float32(0.0), 3e-3)]},
        {"phi": ((np.float64(0.1), -2), (False, 3e-3))},
        {"n_platforms": np.int64(3)}, {"n_platforms": "3"}, {"n_platforms": 3.0},
        {"beta": np.float64(2.0)}, {"beta": "2"}, {"beta": iter([2.0, 2.0])},
        {"u0": np.array([1, -1])}, {"mu": [0, 0.5]}])
    def test_odd_valid_inputs_become_plain_floats(self, fields):
        p = MarketParams(**{"n_platforms": 3, "beta": 2.0, **fields})
        assert type(p.n_platforms) is int
        for pair in (p.beta, *p.phi, p.u0, p.mu):
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(v) is float for v in pair)
        assert p.phi in (((0.0, 0.0), (0.0, 0.0)), ((0.1, -2.0), (0.0, 3e-3)))

    @pytest.mark.parametrize("field", ["beta", "u0", "mu"])
    @pytest.mark.parametrize("value", [(1.0,), (), (1.0, 1.0, 1.0)])
    def test_pair_of_wrong_length_is_value_error(self, field, value):
        # the constructor and replace, which checks the copy anew, say the same
        for build in (lambda: MarketParams(**{"n_platforms": 2, "beta": (1.0, 1.0), field: value}),
                      lambda: MarketParams.uniform(3, 1.0, phi_own=0.3).replace(**{field: value})):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"{field} must be a scalar or a (buyer, seller) pair"

    def test_replace_checks_the_copy(self):
        p = MarketParams.uniform(3, 1.0, phi_own=0.3, phi_cross=0.1, u0=0.5)
        q = p.replace(u0=(1, -1), n_platforms=4.0)
        assert (q.n_platforms, q.u0, q.beta, q.phi) == (4, (1.0, -1.0), p.beta, p.phi)
        assert type(q.n_platforms) is int and p.u0 == (0.5, 0.5)
        with pytest.raises(ValueError):
            p.replace(beta=(1.0, -1.0))
        assert p.decoupled() == p.replace(phi=((0.3, 0.0), (0.0, 0.3)))

    def test_scalar_broadcast_and_views(self):
        p = MarketParams.uniform(3, 1.5, phi_own=0.2, phi_cross=-0.1, u0=-1.0)
        assert p.beta == (1.5, 1.5)
        assert p.phi == ((0.2, -0.1), (-0.1, 0.2))
        assert p.u0 == (-1.0, -1.0)
        assert not p.cross_externalities_zero
        assert p.decoupled().cross_externalities_zero
        assert p.phi_own(Side.SELLER) == 0.2
        assert np.array_equal(p.phi_arr, np.array([[0.2, -0.1], [-0.1, 0.2]]))

    def test_phi_holds_plain_floats(self):
        # a numpy scalar's repr ("np.float64(0.3)") is not a valid config value
        p = MarketParams.uniform(3, 1.0, phi_own=0.3)
        assert all(type(v) is float for row in p.phi for v in row)
        assert repr(p.phi) == "((0.3, 0.0), (0.0, 0.3))"

    def test_side_involution(self):
        assert Side.BUYER.other is Side.SELLER
        assert Side.SELLER.other is Side.BUYER
        assert Side.BUYER.other.other is Side.BUYER
        assert {s.label for s in Side} == {"b", "s"}
