"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with pytest -s to see them all)
and asserts the criterion.  Samplers draw from the documented parameter
envelopes with fixed seeds, so the suite is deterministic.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from platform_eq._families import derivative_coefficients, horner
from platform_eq.cli import main as cli_main
from platform_eq.demand import (FixedPointError, fixed_point_multistart,
                                logit_shares, monte_carlo_shares,
                                contraction_margin, share_fixed_point)
from platform_eq.equilibrium import compare_regimes, solve_ce, solve_cne
from platform_eq.limits import outside_option_limit_check, perfect_competition_check
from platform_eq.model import EULER_GAMMA, MarketParams, Side, cne_existence_bound
from platform_eq.regions import (FIGURES, ThresholdKind, Verdict, classify_direction,
                                 eval_threshold, grid_agreement, region_grid)
from platform_eq.statics import derivative_bundle, fd_derivative
from platform_eq.verify import verify_nash

from test_model import bisect_isolate


def report(name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def fold_max(*values) -> float:
    """The largest value, NaN if any value is NaN.  Gates fold with this and
    not with max: max(0.0, nan) is 0.0, so a NaN would pass unseen."""
    return float(np.max(values))


def random_valid_params(rng, n_range=(2, 7), cross=0.05, beta_range=(0.2, 3.0),
                        phi_range=(-1.0, 1.0), u0_range=(-2.0, 2.0), margin=0.05):
    n = int(rng.integers(*n_range))
    beta = rng.uniform(*beta_range, 2)
    phi_own = rng.uniform(*phi_range, 2)
    for k in (0, 1):
        if phi_own[k] > 0:
            beta[k] = max(beta[k], cne_existence_bound(n) * phi_own[k] + margin)
    c = rng.uniform(-cross, cross, 2) if cross else np.zeros(2)
    return MarketParams(n, tuple(beta),
                        ((phi_own[0], c[0]), (c[1], phi_own[1])),
                        tuple(rng.uniform(*u0_range, 2)))


def test_c01_stage2_correctness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_simplex = worst_closed = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 7))
        beta = tuple(rng.uniform(0.2, 3.0, 2))
        decoupled = i % 4 == 0
        phi = ((0.0, 0.0), (0.0, 0.0)) if decoupled else \
            tuple(tuple(row) for row in rng.uniform(-0.5, 0.5, (2, 2)))
        params = MarketParams(n, beta, phi, tuple(rng.uniform(-2, 2, 2)))
        prices = rng.uniform(-2.0, 2.0, (2, n))
        state = None
        for damping in (0.5, 0.25, 0.1, 0.05):
            try:
                state = share_fixed_point(params, prices, damping=damping)
                break
            except FixedPointError:
                continue
        assert state is not None, f"fixed point failed for {params}"
        worst_simplex = fold_max(worst_simplex,
                                 np.max(np.abs(state.shares.sum(axis=1) - 1.0)),
                                 -np.minimum(0.0, state.shares.min()))
        if decoupled:
            for k in (0, 1):
                direct = logit_shares(np.concatenate([[params.u0[k]], -prices[k]]),
                                      params.beta[k])
                worst_closed = fold_max(worst_closed,
                                        np.max(np.abs(state.shares[k] - direct)))
    dt = time.perf_counter() - t0
    ok = worst_simplex <= 1e-10 and worst_closed <= 1e-12 and dt < 10
    report("C1 stage-2 correctness",
           ok, f"1000 cases, simplex {worst_simplex:.2e} (<=1e-10), "
               f"closed-form {worst_closed:.2e} (<=1e-12), {dt:.1f}s (<10s)")


def test_c02_contraction_uniqueness():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    done = 0
    worst = 0.0
    while done < 200:
        n = int(rng.integers(2, 7))
        params = MarketParams(n, tuple(rng.uniform(0.2, 3.0, 2)),
                              tuple(tuple(row) for row in rng.uniform(-0.5, 0.5, (2, 2))),
                              tuple(rng.uniform(-2, 2, 2)))
        if contraction_margin(params) <= 0:
            continue
        prices = rng.uniform(-2.0, 2.0, (2, n))
        res = fixed_point_multistart(params, prices, starts=10, seed=done)
        worst = fold_max(worst, res.max_distance)
        assert not res.multiple
        done += 1
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 30
    report("C2 contraction uniqueness",
           ok, f"200 cases x 10 starts, max distance {worst:.2e} (<1e-9), {dt:.1f}s (<30s)")


def test_c03_solver_fidelity():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst_resid = worst_price = 0.0
    for _ in range(500):
        params = random_valid_params(rng)
        for solver in (solve_cne, solve_ce):
            eq = solver(params)
            worst_resid = fold_max(worst_resid, eq.foc_residual)
            worst_price = fold_max(worst_price, eq.price_check)
    dt = time.perf_counter() - t0
    ok = worst_resid <= 1e-10 and worst_price <= 1e-10 and dt < 20
    report("C3 CNE/CE solver fidelity",
           ok, f"500 points x 2 regimes, residual {worst_resid:.2e} (<=1e-10), "
               f"price agreement {worst_price:.2e} (<=1e-10), {dt:.1f}s (<20s)")


def test_c04_nash_certification():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    cases = [MarketParams.uniform(2, 1.0)]
    while len(cases) < 21:
        cases.append(random_valid_params(rng, n_range=(2, 7), cross=0.05))
    worst_rel = 0.0
    for params in cases:
        eq = solve_cne(params)
        rep = verify_nash(params, eq, radius=0.5, grid_n=41)
        rel = rep.best_gain / max(1.0, abs(rep.base_profit))
        worst_rel = fold_max(worst_rel, rel)
        assert rep.best_gain >= -1e-12
    dt = time.perf_counter() - t0
    ok = worst_rel <= 1e-6 and dt < 120
    report("C4 Nash certification",
           ok, f"base + 20 random points, 41x41 grid + polish, "
               f"max relative gain {worst_rel:.2e} (<=1e-6), {dt:.1f}s (<2min)")


def test_c05_collusion_vs_competition():
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    holds = 0
    worst_decomp = 0.0
    for _ in range(200):
        params = random_valid_params(rng, cross=0.0)
        # the comparison proposition is local in phi_bs, phi_sb with a radius
        # that shrinks with the decoupled competition-collusion gap itself
        # (about (N-1) e^{z*}); cap the draw by half that gap so every sample
        # stays inside the ball while respecting |cross| <= 0.05
        gap = min(solve_cne(params).z.side(s) - solve_ce(params).z.side(s)
                  for s in Side)
        cap = min(0.05 * min(1.0, min(params.beta)), 0.5 * gap)
        c = rng.uniform(-cap, cap, 2)
        params = params.replace(phi=((params.phi[0][0], c[0]), (c[1], params.phi[1][1])))
        cmp_ = compare_regimes(params)
        good = all(cmp_.dz[k] > 0 and cmp_.d_participation[k] > 0
                   and cmp_.d_price[k] < 0 for k in (0, 1))
        holds += int(good)
        worst_decomp = fold_max(worst_decomp, cmp_.decomposition_residual)
    dt = time.perf_counter() - t0
    ok = holds == 200 and worst_decomp <= 1e-9 and dt < 30
    report("C5 collusion vs competition",
           ok, f"sign claims hold in {holds}/200 cases, decomposition residual "
               f"{worst_decomp:.2e} (<=1e-9), {dt:.1f}s (<30s)")


def test_c06_analytic_comparative_statics():
    rng = np.random.default_rng(106)
    t0 = time.perf_counter()
    ops = (("price", "u0"), ("profit", "u0"), ("consumer_surplus", "u0"), ("z", "u0"),
           ("price", "n_platforms"), ("participation", "n_platforms"),
           ("consumer_surplus", "n_platforms"), ("profit", "n_platforms"))
    worst = 0.0
    for _ in range(50):
        params = random_valid_params(rng, cross=0.0)
        side = Side.BUYER if rng.integers(2) else Side.SELLER
        for quantity, wrt in ops:
            b = derivative_bundle(quantity, wrt, params, side)
            worst = fold_max(worst, b.agreement)
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 60
    report("C6 analytic comparative statics",
           ok, f"8 ops x 50 points, max relative FD error {worst:.2e} (<1e-6), "
               f"{dt:.1f}s (<1min)")


# ---------------------------------------------------------------------------
# criterion 7: sign propositions, 50 in-region points each
# ---------------------------------------------------------------------------

def _draw_base(rng, n_lo=2):
    n = int(rng.integers(n_lo, 7))
    u0 = float(rng.uniform(-2.0, 2.0))
    return n, u0


def _sample_price_u0_dec(rng):
    n, u0 = _draw_base(rng)
    phi = float(rng.uniform(-2.0, 2.0))
    if phi > 0:
        beta = max(0.05, eval_threshold(ThresholdKind.G_P_U, n) * phi * float(rng.uniform(1.05, 2.0)))
    else:
        beta = float(rng.uniform(0.1, 3.0))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_price_u0_inc(rng):
    n = int(rng.integers(3, 7))
    u0 = float(rng.uniform(-2.0, 2.0))
    phi = float(rng.uniform(0.3, 2.0))
    lo = cne_existence_bound(n) * phi
    hi = eval_threshold(ThresholdKind.F_P_U, n) * phi
    beta = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_profit_u0(rng):
    n, u0 = _draw_base(rng)
    phi = float(rng.uniform(-2.0, 2.0))
    if phi > 0:
        beta = max(0.05, eval_threshold(ThresholdKind.G_PI_U, n) * phi * float(rng.uniform(1.05, 2.0)))
    else:
        beta = float(rng.uniform(0.1, 3.0))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_cs_u0_inc(rng):
    n, u0 = _draw_base(rng)
    phi = float(rng.uniform(-2.0, 2.0))
    beta = max(0.05, 2.0 * phi * float(rng.uniform(1.05, 2.0))) if phi > 0 else float(rng.uniform(0.1, 3.0))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_cs_u0_dec(rng):
    n, u0 = _draw_base(rng)
    phi = float(rng.uniform(0.3, 2.0))
    lo = cne_existence_bound(n) * phi
    hi = eval_threshold(ThresholdKind.F_CS_U, n, phi)
    beta = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_price_n_dec(rng):
    n, u0 = _draw_base(rng)
    phi = float(rng.uniform(-2.0, 2.0))
    if phi > 0:
        beta = max(0.05, phi * float(rng.uniform(1.05, 2.5)))
    else:
        g = eval_threshold(ThresholdKind.G_P, n, phi)
        beta = max(0.05, g + float(rng.uniform(0.05, 2.0)))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_price_n_inc(rng):
    n = int(rng.integers(3, 7))
    u0 = float(rng.uniform(-2.0, 2.0))
    phi = float(rng.uniform(0.3, 2.0))
    lo = cne_existence_bound(n) * phi
    hi = eval_threshold(ThresholdKind.F_P, n, phi)
    beta = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_participation_n(rng):
    n, u0 = _draw_base(rng)
    phi = float(rng.uniform(-2.0, 2.0))
    if phi > 0:
        # floor keeps beta away from degenerate scale when phi is tiny
        beta = max(0.05, eval_threshold(ThresholdKind.G_X, n) * phi
                   * float(rng.uniform(1.05, 2.0)))
    else:
        beta = float(rng.uniform(0.1, 3.0))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_cs_n_inc(rng):
    n, u0 = _draw_base(rng)
    phi = float(rng.uniform(-2.0, 2.0))
    if phi > 0:
        beta = max(0.05, eval_threshold(ThresholdKind.G_CS, n) * phi * float(rng.uniform(1.05, 2.0)))
    else:
        beta = float(rng.uniform(0.1, 3.0))
    return MarketParams.uniform(n, beta, phi_own=phi, u0=u0), None


def _sample_profit_n_dec(rng):
    params = random_valid_params(rng, cross=0.0)
    z = solve_cne(params).z.z_b
    label = classify_direction("profit", "n_platforms", params, Side.BUYER, z_star=z)
    if label.verdict is Verdict.DECREASING and label.margin > 0.01:
        return params, z
    return None, None


def _sample_profit_n_inc_literal(rng):
    # literal hypotheses: z* > f_pi_z and (phi<=0, or phi>0 and beta > g_pi phi)
    params = random_valid_params(rng, cross=0.0, u0_range=(-20.0, 20.0))
    z = solve_cne(params).z.z_b
    label = classify_direction("profit", "n_platforms", params, Side.BUYER, z_star=z)
    if label.verdict is Verdict.INCREASING and label.margin > 0.01:
        return params, z
    return None, None


def _sample_profit_n_observed_increase(rng):
    # draws where the profit derivative is actually positive; by part (i)
    # (z* < g_pi_z implies a decrease) every such point must clear the z floor
    n = int(rng.integers(2, 7))
    phi = float(rng.uniform(0.5, 2.5))
    lo = cne_existence_bound(n) * phi
    hi = eval_threshold(ThresholdKind.H_PI, n) * phi
    if hi <= lo:
        return None, None
    beta = float(rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo)))
    u0 = float(rng.uniform(-12.0, -0.5))
    params = MarketParams.uniform(n, beta, phi_own=phi, u0=u0)
    z = solve_cne(params).z.z_b
    from platform_eq.statics import dprofit_dn
    if dprofit_dn(params, Side.BUYER, z_star=z) > 1e-8:
        return params, z
    return None, None


REGION_SPECS = [
    ("dp/du0 (i)", "price", "u0", -1, _sample_price_u0_dec),
    ("dp/du0 (ii)", "price", "u0", +1, _sample_price_u0_inc),
    ("dpi/du0", "profit", "u0", -1, _sample_profit_u0),
    ("dCS/du0 (i)", "consumer_surplus", "u0", +1, _sample_cs_u0_inc),
    ("dCS/du0 (ii)", "consumer_surplus", "u0", -1, _sample_cs_u0_dec),
    ("dp/dN (i)", "price", "n_platforms", -1, _sample_price_n_dec),
    ("dp/dN (ii)", "price", "n_platforms", +1, _sample_price_n_inc),
    ("dNx/dN", "participation", "n_platforms", +1, _sample_participation_n),
    ("dCS/dN (i)", "consumer_surplus", "n_platforms", +1, _sample_cs_n_inc),
    ("dpi/dN (i)", "profit", "n_platforms", -1, _sample_profit_n_dec),
]


def _run_region(name, quantity, wrt, target, sampler, rng, points=50, budget=4000):
    got = mismatches = 0
    tries = 0
    while got < points and tries < budget:
        tries += 1
        params, z = sampler(rng)
        if params is None:
            continue
        fd = fd_derivative(quantity, wrt, params, Side.BUYER)
        if abs(fd) <= 1e-8:
            continue
        got += 1
        if np.sign(fd) != target:
            mismatches += 1
    return got, mismatches


def test_c07_sign_propositions():
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    all_ok = True
    details = []
    for name, quantity, wrt, target, sampler in REGION_SPECS:
        got, bad = _run_region(name, quantity, wrt, target, sampler, rng)
        ok = got == 50 and bad == 0
        all_ok &= ok
        details.append(f"{name} {got - bad}/{got}")
    # dpi/dN (ii): the literal region (z* > f_pi_z AND beta > g_pi phi for
    # phi > 0) is unreachable for solved equilibria -- z* clears the floor only
    # when beta < h_pi(N) phi < g_pi(N) phi -- so the proposition is vacuously
    # true there.  Report the region as empty and check the implication the
    # propositions do entail: every observed profit increase (FD > 0, findable
    # in the uncertified band) must clear the z* floor f_pi_z.
    got_lit, _ = _run_region("dpi/dN (ii) literal", "profit", "n_platforms", +1,
                             _sample_profit_n_inc_literal, rng, points=1, budget=800)
    from platform_eq.regions import _pi_z_threshold_high
    inc_points = inc_above_floor = 0
    tries = 0
    while inc_points < 25 and tries < 6000:
        tries += 1
        params, z = _sample_profit_n_observed_increase(rng)
        if params is None:
            continue
        fd = fd_derivative("profit", "n_platforms", params, Side.BUYER)
        if fd <= 1e-8:
            continue
        inc_points += 1
        floor = _pi_z_threshold_high(float(params.n_platforms),
                                     params.phi_own(Side.BUYER),
                                     params.u0[0], params.beta[0])
        inc_above_floor += int(z > floor)
    details.append(f"dpi/dN (ii): literal region EMPTY ({got_lit} points found; "
                   f"vacuous); all {inc_above_floor}/{inc_points} observed "
                   f"increases clear the z* floor")
    all_ok &= got_lit == 0 and inc_points == 25 and inc_above_floor == inc_points
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 180
    report("C7 sign propositions", ok, "; ".join(details) + f"; {dt:.1f}s (<3min)")


def test_c08_limits():
    t0 = time.perf_counter()
    base = MarketParams.uniform(2, 1.0)
    lo, hi = outside_option_limit_check(base)
    pc = perfect_competition_check(base, n_sequence=(10_000,))
    dt = time.perf_counter() - t0
    ok = lo.converged and hi.converged and pc.converged and dt < 10
    report("C8 limits",
           ok, f"u0=-40 error {lo.achieved_error:.2e} (<1e-3), "
               f"u0=+40 error {hi.achieved_error:.2e} (<1e-3), "
               f"N=1e4 error {pc.achieved_error:.2e} (<1e-2), {dt:.1f}s (<10s)")


def test_c09_threshold_arithmetic():
    t0 = time.perf_counter()
    exact = [
        (eval_threshold(ThresholdKind.F_EXISTENCE, 4), 0.375),
        (eval_threshold(ThresholdKind.G_X, 2), 5.0 / 6.0),
        (eval_threshold(ThresholdKind.G_CS, 2), 15.0 / 16.0),
        (eval_threshold(ThresholdKind.H_PI, 2), 0.75),
        (eval_threshold(ThresholdKind.G_P_U, 2), (3.0 + np.sqrt(5.0)) / 4.0),
        (eval_threshold(ThresholdKind.F_P_U, 2), 0.5),
        (eval_threshold(ThresholdKind.G_PI_U, 2), np.sqrt(1.0 / 8.0) + 0.5),
        (eval_threshold(ThresholdKind.GAMMA, 4, 0.0, -1.0), 0.8),
        (eval_threshold(ThresholdKind.GAMMA_C, 4, 0.0, -1.0), 0.2),
    ]
    worst_exact = fold_max(*(abs(a - b) for a, b in exact))
    from platform_eq.regions import _CUBIC_KINDS
    worst_resid = 0.0
    iso_ok = True
    for kind, (builder, which) in _CUBIC_KINDS.items():
        for n, phi in ((4, 1.0), (7, 0.6), (5, -0.8), (2, -1.0), (3, 1.4)):
            if kind is ThresholdKind.F_P and n < 4:
                continue
            try:
                value = eval_threshold(kind, n, phi)
            except ValueError:
                continue
            cubic = builder(float(n), phi)
            worst_resid = fold_max(worst_resid,
                                   abs(horner(cubic, value)) / max(1.0, *map(abs, cubic)))
            iso = bisect_isolate(lambda x: horner(cubic, x), lo=-25, hi=25, n=40001)
            expected = max(iso) if which == "largest" else \
                max(iso, key=lambda r: abs(horner(derivative_coefficients(cubic), r)))
            iso_ok &= abs(value - expected) < 1e-6
    dt = time.perf_counter() - t0
    ok = worst_exact <= 1e-12 and worst_resid < 1e-9 and iso_ok and dt < 5
    report("C9 threshold arithmetic",
           ok, f"closed forms exact to {worst_exact:.2e} (<=1e-12), cubic residual "
               f"{worst_resid:.2e} (<1e-9), isolator match {iso_ok}, {dt:.1f}s (<5s)")


def test_c10_figure_reproduction():
    t0 = time.perf_counter()
    results = []
    all_ok = True
    for fig, spec in FIGURES.items():
        for u0 in spec.panel_u0:
            grid = region_grid(spec.classifier, resolution=200, n=spec.n, u0=u0,
                               solve_signs=True)
            agree, checked, frac = grid_agreement(grid)
            ok = checked > 0 and frac >= 0.99
            all_ok &= ok
            results.append(f"{fig}(u0={u0:g}) {frac:.4f}")
    dt = time.perf_counter() - t0
    all_ok &= dt < 120
    report("C10 figure reproduction",
           all_ok, "agreement " + ", ".join(results) + f"; {dt:.1f}s (<2min at 200x200)")


def test_c11_monte_carlo_demand():
    t0 = time.perf_counter()
    params = MarketParams(2, (1.0, 0.7), ((0.3, 0.05), (0.05, 0.2)), (0.2, -0.3))
    prices = np.array([[0.9, 1.1], [0.5, 0.4]])
    state = share_fixed_point(params, prices)
    mc = monte_carlo_shares(params, prices, state, samples=1_000_000, seed=1101)
    share_dev = float(np.max(np.abs(mc.shares.shares - state.shares)
                             / np.maximum(mc.stderr, 1e-12)))
    # E[max] of the N+1 taste draws vs mu + beta (ln(N+1) + gamma)
    rng = np.random.default_rng(1102)
    n, mu, beta, m = 2, 0.1, 0.9, 1_000_000
    draws = rng.gumbel(mu, beta, size=(m, n + 1)).max(axis=1)
    emax_dev = abs(draws.mean() - (mu + beta * (np.log(n + 1.0) + EULER_GAMMA))) \
        / (draws.std() / np.sqrt(m))
    dt = time.perf_counter() - t0
    ok = share_dev < 3.0 and emax_dev < 3.0 and dt < 30
    report("C11 Monte Carlo demand",
           ok, f"1e6 samples, share deviation {share_dev:.2f} sigma (<3), "
               f"E[max] deviation {emax_dev:.2f} sigma (<3), {dt:.1f}s (<30s)")


C12_INI = """\
[market]
n_platforms = 3
beta_b = 1.1
beta_s = 0.9
phi_bb = 0.2
phi_ss = -0.1

[sweep]
axis = u0
start = -1.0
stop = 1.0
step = 0.25

[output]
seed = 11
"""
GOLDEN_C12 = Path(__file__).parent / "data" / "c12_sweep.csv"


def test_c12_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(C12_INI)
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = subprocess.run(
            [sys.executable, "-m", "platform_eq.cli", "sweep",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True).returncode
        assert code == 0
        outputs.append((out / "sweep.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    report("C12 determinism", ok,
           f"identical config + seed -> byte-identical CSV ({len(outputs[0])} bytes)")


def test_c12_sweep_matches_golden(tmp_path):
    """The C12 sweep reproduces, byte for byte, the CSV committed with the suite."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(C12_INI)
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--jobs", "1"]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == GOLDEN_C12.read_bytes()


FIGURES_INI = """\
[market]
n_platforms = 2
beta_b = 1.0
beta_s = 1.0

[grid]
resolution = 24

[output]
seed = 1
"""
GOLDEN_FIGURES = Path(__file__).parent / "data" / "figures_sha256.json"


def test_figures_match_golden(tmp_path):
    """All eight panels' CSV and SVG reproduce the sha256 digests committed with the suite."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(FIGURES_INI)
    out = tmp_path / "out"
    assert cli_main(["figures", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == json.loads(GOLDEN_FIGURES.read_text())
