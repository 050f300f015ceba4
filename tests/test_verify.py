import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platform_eq._families import s_coefficients
from platform_eq.equilibrium import solve_ce, solve_cne
from platform_eq.model import MarketParams, Side
from platform_eq.demand import (FixedPointError, contraction_margin, fixed_point_multistart,
                                share_box, share_fixed_point)
from platform_eq.verify import (DeviationReport, _classes, _rival_split_block, _symmetric_state,
                                deviation_profit, profit_derivatives, soc_ce_hessian,
                                soc_cne_diag, soc_report, verify_nash)

BASE = MarketParams.uniform(2, 1.0)
# a market of the certify workload (seed 1) with contraction margin -0.39
SEED1_NONPOSITIVE = MarketParams(
    4, (0.27483436729583943, 0.6369954979773695),
    ((0.24574702287471295, -0.01665475201230473), (-0.02456488762563909, -0.7378459348014982)),
    (1.5440395877525708, 0.34252237139698893))
COUPLED = MarketParams(3, (1.0, 0.9), ((0.2, 0.03), (-0.02, 0.1)), (0.1, -0.1))
WIDE_RADIUS = MarketParams(3, (1.0, 1.2), ((0.2, 0.02), (0.01, 0.1)), (-0.5, 0.3))


def market_ini(params):
    """The [market] section of an INI config for params, floats exact."""
    (phi_bb, phi_bs), (phi_sb, phi_ss) = params.phi
    return (f"[market]\nn_platforms = {params.n_platforms}\n"
            f"beta_b = {params.beta[0]!r}\nbeta_s = {params.beta[1]!r}\n"
            f"phi_bb = {phi_bb!r}\nphi_bs = {phi_bs!r}\n"
            f"phi_sb = {phi_sb!r}\nphi_ss = {phi_ss!r}\n"
            f"u0_b = {params.u0[0]!r}\nu0_s = {params.u0[1]!r}\n")


def collusive_profit(params, q, tol=1e-13, x0=None):
    """Total profit with every platform charging q."""
    prices = np.repeat(np.asarray(q, dtype=float)[:, None], params.n_platforms, axis=1)
    x = share_fixed_point(params, prices, tol=tol, x0=x0).platform_shares
    return float(np.sum(x.sum(axis=1) * q))


def price_objective(params, regime, others, x0=None):
    """The stage-1 objective in price space: the deviator's profit against
    others (cne), or total profit with all platforms moving together (ce)."""
    if regime == "cne":
        return lambda q: deviation_profit(params, others, q, tol=1e-13, x0=x0)
    return lambda q: collusive_profit(params, q, x0=x0)


def central_differences(objective, q, h):
    """Finite-difference oracle: central first and second differences of
    objective at q with per-price steps h.  Second differences lose half the
    working digits, so h should be coarse."""
    q = np.asarray(q, dtype=float)
    f0 = objective(q)
    grad = np.empty(2)
    H = np.empty((2, 2))
    for a in (0, 1):
        e_a = np.zeros(2)
        e_a[a] = h[a]
        f_plus, f_minus = objective(q + e_a), objective(q - e_a)
        grad[a] = (f_plus - f_minus) / (2.0 * h[a])
        H[a, a] = (f_plus - 2.0 * f0 + f_minus) / h[a] ** 2
    e_b = np.array([h[0], 0.0])
    e_s = np.array([0.0, h[1]])
    H[0, 1] = H[1, 0] = (objective(q + e_b + e_s) - objective(q + e_b - e_s)
                         - objective(q - e_b + e_s) + objective(q - e_b - e_s)) \
        / (4.0 * h[0] * h[1])
    return grad, H


def numeric_price_hessian(params, eq, step_scale=1e-4):
    """Second differences of the regime's objective at the solved prices."""
    p_star = np.array(eq.prices)
    h = step_scale * np.maximum(1.0, np.abs(p_star))
    return central_differences(price_objective(params, eq.regime, p_star), p_star, h)[1]


@pytest.fixture(scope="module")
def base_eq():
    return solve_cne(BASE)


class TestDeviationProfit:
    def test_symmetric_point_reproduces_solver_profit(self, base_eq):
        p = base_eq.prices
        profit = deviation_profit(BASE, p, p)
        assert profit == pytest.approx(base_eq.total_profit, abs=1e-9)

    def test_price_overshoot_collapses_shares(self, base_eq):
        p = base_eq.prices
        dev = (p[0] + 10.0, p[1] + 10.0)
        assert deviation_profit(BASE, p, dev) < 1e-3

    def test_grid_argmax_at_center(self, base_eq):
        # profit over a coarse grid around p* peaks at the symmetric cell
        p = np.array(base_eq.prices)
        offsets = np.linspace(-0.3, 0.3, 13)
        best = None
        for db in offsets:
            for ds in offsets:
                val = deviation_profit(BASE, p, (p[0] + db, p[1] + ds))
                if best is None or val > best[0]:
                    best = (val, db, ds)
        assert best[1] == 0.0 and best[2] == 0.0


def grid_sweeps(monkeypatch, params, grid_n=41, bounded=True):
    """verify_nash at params' competitive point, and the shape of the stage-2
    state at each sweep of its grid solve; bounded=False switches off the
    grid's contraction-bound exit."""
    import platform_eq.demand as demand
    import platform_eq.verify as verify
    in_grid, shapes = [False], []
    real_sigma, real_loop = demand._sigma, verify.class_fixed_point

    def sigma(x, *args):
        if in_grid[0]:
            shapes.append(x.shape)
        return real_sigma(x, *args)

    def loop(params, prices, *args, **kwargs):
        in_grid[0] = prices.shape[-1] == grid_n * grid_n
        if not bounded:
            kwargs["maximize"] = None
        try:
            return real_loop(params, prices, *args, **kwargs)
        finally:
            in_grid[0] = False

    monkeypatch.setattr(demand, "_sigma", sigma)
    monkeypatch.setattr(verify, "class_fixed_point", loop)
    return verify_nash(params, solve_cne(params), grid_n=grid_n), shapes


def grid_lipschitz(params, target, radius=0.5):
    """L_B of verify_nash's grid box around target's prices: only each
    class's and side's min and max price count, the deviator's p* -+ r|p*|
    and the rivals' p*."""
    p = np.array(target.prices)
    corners = np.stack([np.stack([p - radius * np.abs(p), p + radius * np.abs(p)], axis=-1),
                        np.repeat(p[:, None], 2, axis=1)])
    return share_box(params, corners, np.array([1.0, params.n_platforms - 1.0]))[0]


@st.composite
def envelope_markets(draw):
    """A market of the certification envelope (N in 2..6, beta in [0.2, 3]
    lifted 0.05 above the existence bound, |phi_kk| <= 1, |phi_lk| <= 0.05,
    |u0| <= 2), and a price perturbation of its competitive point."""
    n = draw(st.integers(2, 6))
    own = [draw(st.floats(-1.0, 1.0)) for _ in range(2)]
    beta = [max(draw(st.floats(0.2, 3.0)), 2 * (n - 1) / n**2 * max(f, 0.0) + 0.05) for f in own]
    cross = [draw(st.floats(-0.05, 0.05)) for _ in range(2)]
    params = MarketParams(n, tuple(beta), ((own[0], cross[0]), (cross[1], own[1])),
                          (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))))
    return params, draw(st.sampled_from([0.0, 0.05]))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(envelope_markets())
@example((SEED1_NONPOSITIVE, 0.0))
def test_grid_bound_keeps_every_report_field(market):
    # the grid's contraction-bound exit only drops cells that cannot win, so
    # the report is the one the full grid solve gives, bit for bit
    import platform_eq.verify as verify
    params, perturb = market
    eq = solve_cne(params)
    target = dataclasses.replace(eq, prices=(eq.prices[0] + perturb, eq.prices[1] + perturb))
    # the bound's premise: the grid's share box proves a contraction, as a
    # positive margin always does, and so do many markets without one
    assume(grid_lipschitz(params, target) < 1)
    real = verify.class_fixed_point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "class_fixed_point",
                   lambda *args, **kwargs: real(*args, **{**kwargs, "maximize": None}))
        expected = repr(verify_nash(params, target))
    assert repr(verify_nash(params, target)) == expected


class TestVerifyNash:
    def test_base_case_certified(self, base_eq):
        report = verify_nash(BASE, base_eq, radius=0.5, grid_n=41)
        assert report.best_gain >= -1e-12
        assert report.certified(1e-6)
        assert report.base_profit == pytest.approx(base_eq.total_profit, abs=1e-9)

    def test_perturbed_point_detected(self, base_eq):
        fake = dataclasses.replace(base_eq, prices=(base_eq.prices[0] + 0.1,
                                                    base_eq.prices[1] + 0.1))
        report = verify_nash(BASE, fake, radius=0.5, grid_n=21)
        assert report.best_gain > 1e-4
        assert not report.certified(1e-6)

    def test_small_cross_externalities(self):
        params = COUPLED
        eq = solve_cne(params)
        report = verify_nash(params, eq, radius=0.5, grid_n=21)
        assert report.certified(1e-6)
        # the rival-split modes, at the fixed point of the best deviation
        at = profit_derivatives(params, "cne", report.best_deviation_prices, eq.prices,
                                x0=_symmetric_state(eq))
        block = _rival_split_block(params, at.state[-1])   # the rivals' class row
        assert report.rival_split_max_re == pytest.approx(
            np.max(np.linalg.eigvals(block).real), abs=1e-12)
        assert verify_nash(BASE, solve_cne(BASE), grid_n=5).rival_split_max_re == -np.inf

    # gains the Nelder-Mead polish reported before the Newton polish replaced
    # it (grid_n = 41): perturbed points, then markets outside the existence
    # region that it rejected.  The Newton polish may not do worse by more than
    # the stage-2 tolerance lets profit resolve.
    @pytest.mark.parametrize("params, perturb, old_gain", [
        (BASE, 0.1, 0.001647793053697666),
        (COUPLED, 0.1, 0.001501579052659796),
        (MarketParams.uniform(2, 0.1, phi_own=0.3, u0=-1), 0.1, 3.999465033237833e-07),
        (MarketParams.uniform(2, 0.2, phi_own=0.8, u0=-1), 0.0, 0.40031780226594527),
        (MarketParams.uniform(3, 0.1, phi_own=0.8, u0=0), 0.0, 0.16615945245744718),
        (MarketParams.uniform(5, 0.05, phi_own=0.8, u0=-1), 0.0, 0.05501079068684703),
    ])
    def test_polish_no_weaker_than_simplex(self, params, perturb, old_gain):
        eq = solve_cne(params)
        target = dataclasses.replace(eq, prices=(eq.prices[0] + perturb,
                                                 eq.prices[1] + perturb))
        report = verify_nash(params, target)
        assert report.refined and not report.certified(1e-6)
        assert report.best_gain >= old_gain - 1e-11
        # the polished point is stationary on the fixed-point branch it reports
        at = profit_derivatives(params, "cne", report.best_deviation_prices,
                                target.prices, x0=_symmetric_state(target))
        assert at.profit == pytest.approx(report.base_profit + report.best_gain, abs=1e-11)
        assert np.max(np.abs(at.gradient)) <= 1e-8

    @pytest.mark.parametrize("n, beta, phi_own, u0", [
        (3, 0.1, 0.3, -1.0), (5, 0.2, 0.8, -1.0), (5, 0.2, 0.8, 0.0)])
    def test_polish_never_raises(self, n, beta, phi_own, u0):
        # contraction margin <= 0, where a polish solve can fail to converge:
        # the search still reports, and finds the profitable deviation
        params = MarketParams.uniform(n, beta, phi_own=phi_own, u0=u0)
        report = verify_nash(params, solve_cne(params), grid_n=11)
        assert isinstance(report, DeviationReport)
        assert report.best_gain > 1e-3 and not report.certified(1e-6)

    @pytest.mark.parametrize("failing, refined", [(0, False), (1, True)])
    def test_failed_polish_solves_are_rejected(self, base_eq, monkeypatch, failing, refined):
        # after the grid, the one-cell stage-2 solves are the base at p* and
        # then the polish's, all capped at GRID_MAX_ITER.  If the polish's
        # solve at its start fails, the grid result is reported; if its first
        # trial fails, the step is halved and the polish goes on.
        import platform_eq.verify as verify
        real, solves = verify.class_fixed_point, []

        def flaky(params, prices, *args, **kwargs):
            if kwargs.get("max_iter") == 20_000 and prices.shape[-1] == 1:
                solves.append(prices)
                if len(solves) == failing + 2:
                    raise FixedPointError("injected", 1.0)
            return real(params, prices, *args, **kwargs)

        monkeypatch.setattr(verify, "class_fixed_point", flaky)
        fake = dataclasses.replace(base_eq, prices=(base_eq.prices[0] + 0.1,
                                                    base_eq.prices[1] + 0.1))
        report = verify_nash(BASE, fake, radius=0.5, grid_n=21)
        assert len(solves) > failing + 1
        assert report.refined is refined and report.best_gain > 1e-4

    def test_unsolved_base_reports_uncertified(self):
        # beta = 3e-7 against phi_bb = -0.48: the share map's Jacobian at p*
        # has eigenvalues near -28, so damped Picard leaves the fixed point and
        # stage 2 is not solved there.  The search still reports, on the
        # candidate's own shares, and does not certify (it used to raise)
        params = MarketParams(359, (3e-7, 3e-7), ((-0.4765679223469482, 0.04301240601626209),
                                                  (-0.03772836721894721, 0.0)),
                              (1e-6, -0.03772836721894721))
        report = verify_nash(params, solve_cne(params), grid_n=5)
        assert report.base_residual > 1e-12 and not report.certified(1e-6)
        assert np.isfinite(report.best_gain) and report.best_gain >= 0.0

    def test_grid_converged_counts_solved_cells(self, monkeypatch):
        # contraction margin -0.5: some grid cells' stage-2 solves never meet
        # FP_TOL; the report counts the ones that did, as the grid solve saw them
        import platform_eq.verify as verify
        resids = []

        def recording(*args, **kwargs):
            shares, resid = real(*args, **kwargs)
            resids.append(resid)
            return shares, resid

        real = verify.class_fixed_point
        monkeypatch.setattr(verify, "class_fixed_point", recording)
        params = MarketParams.uniform(3, 0.1, phi_own=0.3, u0=-1.0)
        report = verify_nash(params, solve_cne(params), grid_n=5)
        grid = resids[0]
        assert grid.shape == (25,)
        assert report.grid_converged == int(np.sum(grid <= verify.FP_TOL))
        assert 0 < report.grid_converged < 25
        assert verify_nash(BASE, solve_cne(BASE), grid_n=5).grid_converged == 25

    def test_grid_sweep_count(self, monkeypatch):
        # counts, not time: at margin 0.85 the undamped grid meets tol in 11
        # sweeps (d = 0.5 took 42), and converged cells leave the batch.  The
        # contraction bound then drops every cell that provably cannot beat
        # the best converged one: 16,570 live cells over 11 sweeps fall to
        # 2,787 over 3, for the same report
        params = MarketParams.uniform(3, 1.0, phi_own=0.3)
        assert contraction_margin(params) > 0
        report, shapes = grid_sweeps(monkeypatch, params, bounded=False)
        cells = [shape[-1] for shape in shapes]     # live cells per grid sweep
        assert report.certified(1e-6)
        assert cells[0] == 41 * 41
        assert len(cells) <= 20
        assert sum(cells) < len(cells) * 41 * 41
        monkeypatch.undo()
        bounded, shapes = grid_sweeps(monkeypatch, params)
        assert repr(bounded) == repr(report)
        assert 4 * sum(shape[-1] for shape in shapes) < sum(cells)
        assert len(shapes) < len(cells)

    def test_grid_box_bound_at_nonpositive_margin(self, monkeypatch):
        # counts, not time: at margin -0.39 the price-free certificate left
        # the grid damped (d = 0.5) and unbounded, 34 sweeps and 54,174
        # cell-sweeps.  The grid's share box proves L_B = 0.22: undamped, it
        # meets tol in 15 sweeps, and the bound cuts that to 3,539 cell-sweeps
        params = SEED1_NONPOSITIVE
        assert contraction_margin(params) < -0.38
        report, shapes = grid_sweeps(monkeypatch, params, bounded=False)
        assert report.stage2_lipschitz == grid_lipschitz(params, report.base) < 0.25
        assert report.certified(1e-6) and len(shapes) <= 20
        monkeypatch.undo()
        bounded, bounded_shapes = grid_sweeps(monkeypatch, params)
        assert repr(bounded) == repr(report)
        assert 4 * sum(shape[-1] for shape in bounded_shapes) <= 54_174

    def test_certified_verify_solves_twice_at_p_star(self, tmp_path, monkeypatch, capsys):
        # counts, not time: one exact solve at p* gives the base profit, the
        # polish's start (whose first step is below STEP_TOL, so it tries
        # none) and the competitive SOC Hessian; the collusive SOC is the
        # other.  Before, the base, the polish's start and trial and the
        # competitive SOC each solved again: 4 calls
        import platform_eq.verify as verify
        from platform_eq.cli import main
        calls = []
        real = verify.profit_derivatives
        monkeypatch.setattr(verify, "profit_derivatives",
                            lambda *args, **kwargs: calls.append(args[1]) or real(*args, **kwargs))
        ini = tmp_path / "v.ini"
        ini.write_text(market_ini(SEED1_NONPOSITIVE))
        assert main(["verify", "--config", str(ini)]) == 0
        assert calls == ["cne", "ce"]
        deviation = json.loads(capsys.readouterr().out)["deviation"]
        assert deviation["certified"] and deviation["best_gain"] == 0.0
        assert deviation["stage2_lipschitz"] < 0.25

    @pytest.mark.parametrize("perturb", [0.0, 0.1])
    def test_one_share_box_per_grid(self, base_eq, monkeypatch, perturb):
        # counts, not time: one share box of the grid's prices gives the
        # grid's step, its contraction bound and the report's L_B.  A
        # certified search forms no other; an uncertified one's one-cell
        # polish solves form their own
        import platform_eq.demand as demand
        import platform_eq.verify as verify
        cells, real = [], demand.share_box

        def counting(params, prices, mult):
            cells.append(prices.shape[-1])
            return real(params, prices, mult)

        monkeypatch.setattr(demand, "share_box", counting)
        monkeypatch.setattr(verify, "share_box", counting)
        target = dataclasses.replace(base_eq, prices=(base_eq.prices[0] + perturb,
                                                      base_eq.prices[1] + perturb))
        report = verify_nash(BASE, target, grid_n=21)
        assert report.certified(1e-6) is (perturb == 0.0)
        assert cells.count(21 * 21) == 1 and set(cells) <= {1, 21 * 21}
        if perturb == 0.0:
            assert cells == [21 * 21]

    def test_report_says_when_stage2_has_branches(self):
        # several stage-2 fixed points at the reported best prices: the
        # grid's share box cannot prove one, and the report says so
        params = MarketParams.uniform(2, 0.05, phi_own=0.8, u0=-1.0)
        eq = solve_cne(params)
        report = verify_nash(params, eq, grid_n=11)
        assert report.stage2_lipschitz == pytest.approx(8.0, rel=1e-3)
        prices = np.array([[report.best_deviation_prices[0], eq.prices[0]],
                           [report.best_deviation_prices[1], eq.prices[1]]])
        assert fixed_point_multistart(params, prices, starts=10).multiple

    def test_grid_bound_idle_at_nonpositive_margin(self, monkeypatch):
        # the grid's share box proves nothing here (L_B ~ 1.5), so d = 0.5
        # and no contraction bound: the grid sweeps exactly as without it
        params = MarketParams.uniform(3, 0.1, phi_own=0.3, u0=-1.0)
        assert grid_lipschitz(params, solve_cne(params)) == pytest.approx(1.5, rel=1e-3)
        report, shapes = grid_sweeps(monkeypatch, params, grid_n=9, bounded=False)
        monkeypatch.undo()
        bounded, bounded_shapes = grid_sweeps(monkeypatch, params, grid_n=9)
        assert bounded_shapes == shapes and repr(bounded) == repr(report)

    def test_grid_entries_independent_of_n(self, monkeypatch):
        # the deviator and its N-1 rivals are two classes, so every grid
        # sweep holds (outside, deviator, rival) x 2 sides per live cell
        runs = [grid_sweeps(monkeypatch, MarketParams.uniform(n, 1.0, phi_own=0.3))[1]
                for n in (3, 1000)]
        assert runs[0][0] == runs[1][0] == (3, 2, 41 * 41)
        assert {shape[:-1] for run in runs for shape in run} == {(3, 2)}

    def test_rejects_ce_point(self):
        eq = solve_ce(BASE)
        with pytest.raises(ValueError):
            verify_nash(BASE, eq)

    @pytest.mark.parametrize("radius", [float("nan"), 0.0, -0.5, float("inf")])
    def test_radius_must_be_positive_and_finite(self, base_eq, radius):
        # a NaN radius certified on a grid of NaN prices with best_gain 0,
        # and radius 0 searched p* alone
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            verify_nash(BASE, base_eq, radius=radius, grid_n=5)

    def test_wide_radius_overflows_quietly(self):
        # at radius 1e200 the grid's contraction bound and the polish's step
        # cap overflow; read as inf they drop no cell and cap no step, and
        # under the suite's warning filter the search still returns
        eq = solve_cne(WIDE_RADIUS)
        report = verify_nash(WIDE_RADIUS, eq, radius=1e200, grid_n=5)
        assert report.best_gain == 0.0 and not report.refined
        assert report.best_deviation_prices == eq.prices
        assert report.grid_converged == 25
        assert report.base_profit == pytest.approx(eq.total_profit, rel=1e-12)
        assert report.certified()

    @pytest.mark.parametrize("keys", ["radius = 1e200\n", "perturb_price = 1e308\n"])
    def test_cli_verify_writes_no_overflow_warning(self, tmp_path, keys):
        # the exit code of the far-perturbed candidate is not pinned: verify
        # certifies a priced-out candidate whose shares all underflow
        ini = tmp_path / "v.ini"
        ini.write_text(market_ini(WIDE_RADIUS) + "\n[verify]\ngrid_n = 5\n" + keys)
        run = subprocess.run([sys.executable, "-W", "default", "-m", "platform_eq.cli",
                              "verify", "--config", str(ini)], capture_output=True, text=True)
        assert run.stderr == ""

    def test_grid_must_have_a_cell(self, base_eq):
        # grid_n = 0 died inside a numpy reduction over the empty grid
        with pytest.raises(ValueError, match="grid_n must be at least 1"):
            verify_nash(BASE, base_eq, grid_n=0)

    def test_unknown_regime_has_no_classes(self):
        with pytest.raises(ValueError, match="unknown regime 'cartel'"):
            _classes(BASE, "cartel", np.ones(2), np.ones(2))


GOLDEN_VERIFY = Path(__file__).parent / "data" / "verify_sha256.json"
# case -> (market, [verify] keys, exit code)
VERIFY_CASES = {
    "decoupled": (MarketParams(3, (1.0, 0.9), ((0.3, 0.0), (0.0, 0.1)), (0.1, -0.1)), "", 0),
    "coupled": (COUPLED, "", 0),
    # margin -0.39, where the grid's share box still proves L_B < 1
    "nonpositive_margin": (SEED1_NONPOSITIVE, "", 0),
    # margin <= 0 and L_B ~ 8: stage 2 has branches and the point fails
    "branches": (MarketParams.uniform(2, 0.05, phi_own=0.8, u0=-1.0), "grid_n = 11\n", 3),
    "perturbed": (COUPLED, "perturb_price = 0.1\ngrid_n = 21\n", 3),
    "even_grid": (MarketParams.uniform(4, 0.8, phi_own=0.2, u0=0.5), "grid_n = 10\n", 0),
}


@pytest.mark.parametrize("case", VERIFY_CASES)
def test_verify_matches_golden(tmp_path, capsys, case):
    """verify.json and verify.csv reproduce the sha256 digests committed with the suite."""
    from platform_eq.cli import main
    params, keys, code = VERIFY_CASES[case]
    ini = tmp_path / "v.ini"
    ini.write_text(market_ini(params) + "\n[verify]\n" + keys)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(ini), "--out", str(out)]) == code
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == json.loads(GOLDEN_VERIFY.read_text())[case]


class TestClassReduction:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_rival_split_modes_in_full_spectrum(self, n):
        # at a rival-symmetric fixed point the full (2N)x(2N) map Jacobian
        # [phi_kl J_k] carries each eigenvalue of the rival-split block N-2 times
        params = MarketParams(n, (0.8, 0.6), ((0.5, 0.2), (-0.1, 0.3)), (0.2, -0.3))
        prices = np.full((2, n), 0.4)
        prices[:, 0] = (0.7, 0.1)
        y = share_fixed_point(params, prices).platform_shares
        assert np.all(y[:, 1:] == y[:, -1:])    # the rivals hold equal shares
        jac = (y[:, :, None] * np.eye(n) - y[:, :, None] * y[:, None, :]) \
            / params.beta_arr[:, None, None]
        a_map = (params.phi_arr[:, None, :, None] * jac[:, :, None, :]).reshape(2 * n, 2 * n)
        full = np.linalg.eigvals(a_map)
        for lam in np.linalg.eigvals(_rival_split_block(params, y[:, -1])):
            assert np.sum(np.abs(full - lam) <= 1e-12) >= n - 2

    def test_class_state_x0_warm_starts(self):
        params = MarketParams(4, (1.0, 0.9), ((0.2, 0.03), (-0.02, 0.1)), (0.1, -0.1))
        q, others = np.array([0.8, 0.3]), np.array([0.6, 0.5])
        cold = profit_derivatives(params, "cne", q, others)
        x = cold.state
        # (outside, deviator, rival) rows; the 3 rivals hold one share each
        assert x.shape == (3, 2)
        assert np.allclose(x[0] + x[1] + 3 * x[2], 1.0, rtol=0, atol=1e-12)
        warm = profit_derivatives(params, "cne", q + 0.01, others, x0=x)
        ref = profit_derivatives(params, "cne", q + 0.01, others)
        assert warm.profit == pytest.approx(ref.profit, abs=1e-12)
        assert np.max(np.abs(warm.hessian - ref.hessian)) <= 1e-9
        # a cne state for the one ce class, a ce state for cne, the full width
        full = np.repeat(x.T, [1, 1, 3], axis=1)
        for regime, x0 in (("ce", x), ("cne", x[:2]), ("cne", full), ("cne", x.T)):
            with pytest.raises(ValueError):
                profit_derivatives(params, regime, q, others, x0=x0)


class TestSecondOrderConditions:
    def test_cne_diag_negative_in_region(self, base_eq):
        val = soc_cne_diag(base_eq.z.z_b, BASE, Side.BUYER)
        assert val < 0

    def test_cne_diag_sign_matches_numeric_hessian(self, base_eq):
        # at the optimum the price-space and share-space curvatures share a sign
        for params in (BASE, MarketParams.uniform(3, 0.8, phi_own=0.5),
                       MarketParams.uniform(2, 1.5, phi_own=-1.0, u0=-0.5)):
            eq = solve_cne(params)
            closed = soc_cne_diag(eq.z.z_b, params, Side.BUYER)
            H = numeric_price_hessian(params, eq)
            assert closed < 0
            assert H[0, 0] < 0 and H[1, 1] < 0

    def test_out_of_region_not_asserted(self):
        # just outside the existence region the closed form may change sign;
        # the call must still evaluate and report
        params = MarketParams.uniform(4, 0.375 - 1e-3, phi_own=1.0)
        eq = solve_cne(params)
        val = soc_cne_diag(eq.z.z_b, params, Side.BUYER)
        assert np.isfinite(val)

    @pytest.mark.parametrize("phi", [0.0, 0.3, -1.0])
    def test_cne_diag_tends_to_its_limit_past_overflow(self, phi):
        # e^{7z} overflows near z = 101.4; on both sides of it the ratio sits
        # at its z -> inf limit -N (beta N^2 - 2 (N-1) phi) / (N-1)^2
        n, beta = 3, 0.05
        params = MarketParams.uniform(n, beta, phi_own=phi)
        limit = -n * (beta * n * n - 2.0 * (n - 1) * phi) / (n - 1) ** 2
        for z in (60.0, 101.0, 102.0, 118.5, 700.0, 1e4):
            assert soc_cne_diag(z, params, Side.BUYER) == pytest.approx(limit, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cne_diag_where_its_denominator_underflows(self):
        # at z = -700 the denominator e^z B^3 is below 1e-300, yet the ratio,
        # about -beta e^{-z}, is finite; it overflows to -inf past z = -709.8
        mpmath = pytest.importorskip("mpmath")
        params = MarketParams.uniform(2, 1.0)
        val = soc_cne_diag(-700.0, params, Side.BUYER)
        with mpmath.workdps(50):
            ez, n = mpmath.exp(-700), mpmath.mpf(2)
            num = sum(mpmath.mpf(c) * ez**m
                      for m, c in enumerate(s_coefficients(1.0, 0.0, 2.0)))
            ref = num / (ez * ((n - 1) * ez + 1) ** 3 * (n * ez + 1) ** 3)
        assert val < 0 and abs(val - float(ref)) <= 1e-12 * abs(float(ref))
        assert soc_cne_diag(-800.0, params, Side.BUYER) == -np.inf

    def test_ce_hessian_zero_phi_diagonal(self):
        eq = solve_ce(BASE)
        H, neg_def = soc_ce_hessian(eq.z, BASE)
        assert H[0, 1] == 0.0 and H[1, 0] == 0.0
        assert H[0, 0] < 0 and H[1, 1] < 0 and neg_def

    def test_ce_hessian_antisymmetric_cross_cancels(self):
        params = MarketParams(2, (1.0, 1.0), ((0.0, 0.5), (-0.5, 0.0)))
        H, _ = soc_ce_hessian((0.3, -0.2), params)
        assert H[0, 1] == 0.0 and H[1, 0] == 0.0

    def test_ce_hessian_negative_definite_at_solution(self):
        params = MarketParams.uniform(2, 1.0, phi_own=1.0)
        eq = solve_ce(params)
        H, neg_def = soc_ce_hessian(eq.z, params)
        assert neg_def
        assert np.all(np.linalg.eigvalsh(H) < 0)

    def test_soc_report_both_regimes(self):
        params = MarketParams.uniform(2, 1.0, phi_own=0.4)
        rep = soc_report(params, solve_cne(params))
        assert rep.cne_diag is not None and all(v < 0 for v in rep.cne_diag)
        assert rep.numeric_negative_definite
        rep_ce = soc_report(params, solve_ce(params))
        assert rep_ce.ce_hessian is not None and rep_ce.closed_form_negative
        assert rep_ce.numeric_negative_definite

    def test_closed_form_requires_decoupled(self):
        params = MarketParams(2, (1.0, 1.0), ((0.0, 0.1), (0.1, 0.0)))
        with pytest.raises(ValueError):
            soc_cne_diag(0.0, params, Side.BUYER)
        rep = soc_report(params, solve_cne(params))
        assert rep.cne_diag is None
        assert rep.numeric_negative_definite

    @pytest.mark.parametrize("hessian,negative", [
        ([[0.0, 0.0], [0.0, -0.159]], True),   # a side with no participation: flat in p_b
        ([[-0.2, 0.0], [0.0, 0.0]], True),
        ([[0.0, 0.0], [0.0, 0.0]], False),     # flat everywhere is not negative definite
        ([[0.0, 0.1], [0.1, -1.0]], False),    # a zero diagonal in a row that is not zero
        ([[0.0, 0.0], [0.0, 0.2]], False),
    ])
    def test_numeric_definiteness_skips_identically_zero_rows(self, hessian, negative):
        params = MarketParams.uniform(2, 1.0, phi_own=0.4)
        rep = soc_report(params, solve_ce(params), hessian)
        assert rep.numeric_negative_definite is negative
        assert np.array_equal(rep.numeric_hessian, hessian)


@st.composite
def contracting_markets(draw):
    """Envelope markets (N < 7, beta in [0.2, 3], |u0| <= 2), decoupled or
    with |cross| <= 0.05, and |phi_kk| + |phi_kl| < 2 min beta, so the
    contraction margin is positive; plus a deviating and a rival price pair."""
    n = draw(st.integers(2, 6))
    beta = (draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)))
    coupled = draw(st.booleans())
    cross = [draw(st.floats(-0.05, 0.05)) if coupled else 0.0 for _ in range(2)]
    room = min(1.0, 2.0 * min(beta) - 0.05)
    own = [draw(st.floats(-0.95, 0.95)) * room for _ in range(2)]
    u0 = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    params = MarketParams(n, beta, ((own[0], cross[0]), (cross[1], own[1])), u0)
    prices = [np.array([draw(st.floats(-0.5, 2.5)), draw(st.floats(-0.5, 2.5))])
              for _ in range(2)]
    return params, prices[0], prices[1]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(contracting_markets())
def test_exact_derivatives_match_central_differences(case):
    # one stencil with h = 3e-4: the gradient's truncation error and the
    # Hessian's fixed-point noise (1e-13 / h^2) both stay near 1e-7 .. 1e-6
    params, q, others = case
    assert contraction_margin(params) > 0
    for regime in ("cne", "ce"):
        exact = profit_derivatives(params, regime, q, others, tol=1e-13)
        # the class state to the reference's full width: each class row
        # repeated over its platforms, the last class holding the rest
        rows = len(exact.state)
        full = np.repeat(exact.state.T, [1] * (rows - 1) + [params.n_platforms + 2 - rows],
                         axis=1)
        objective = price_objective(params, regime, others, x0=full)
        grad, hess = central_differences(objective, q, 3e-4 * np.maximum(1.0, np.abs(q)))
        assert exact.profit == pytest.approx(objective(q), abs=1e-12)
        assert np.all(np.abs(exact.gradient - grad) <= 1e-6 * (1.0 + np.abs(exact.gradient)))
        assert np.all(np.abs(exact.hessian - hess) <= 3e-5 * (1.0 + np.abs(exact.hessian)))


def test_import_leaves_scipy_out():
    code = ("import sys, platform_eq.cli; "
            "print([m for m in ('scipy', 'sympy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
