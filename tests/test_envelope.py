"""Property tests for the stage-1 solvers and the deviation search far
outside the sampled envelope.

Markets reach |u0| <= 1e3, N from 2 to 1e4, beta from just above the
competitive existence bound and |cross| <= 0.05.  Every solve must either
return finite prices whose residuals meet the 1e-10 gate or raise
SolverError; a silent bad number fails.  verify_nash must report on every
competitive point that solves.  A CLI sweep, with beta also below the bound,
writes no nan or inf cell in a row without an error or a warning.  Examples
are derandomized so the suite is deterministic.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from platform_eq.cli import main
from platform_eq.equilibrium import (SolverError, mk_value, mkc_value, solve_ce, solve_cne,
                                     solve_decoupled_batch)
from platform_eq.model import MarketParams, cne_existence_bound
from platform_eq.verify import verify_nash


@st.composite
def wide_markets(draw):
    n = draw(st.integers(2, 10_000))
    beta, phi_own = [], []
    for _ in range(2):
        phi = draw(st.floats(-1.0, 1.0))
        rel = draw(st.floats(1e-6, 10.0))
        floor = cne_existence_bound(n) * max(phi, 0.0)
        # just above the bound where it binds; otherwise any beta down to ~0
        beta.append(floor * (1.0 + rel) if floor > 1e-8 else 0.3 * rel)
        phi_own.append(phi)
    cross = [draw(st.floats(-0.05, 0.05)) for _ in range(2)]
    u0 = tuple(draw(st.floats(-1e3, 1e3)) for _ in range(2))
    return MarketParams(n, tuple(beta), ((phi_own[0], cross[0]), (cross[1], phi_own[1])), u0)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(wide_markets())
def test_solvers_right_or_flagged(params):
    for solver in (solve_cne, solve_ce):
        try:
            eq = solver(params)
        except SolverError:
            continue
        assert np.all(np.isfinite(eq.prices)) and np.all(np.isfinite(eq.z.as_array()))
        assert eq.foc_residual <= 1e-10, (solver.__name__, eq.foc_residual)
        assert eq.price_check <= 1e-10, (solver.__name__, eq.price_check)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(wide_markets())
def test_decoupled_stop_is_not_early(params):
    # a root-finder that stops at the rounding floor still brackets its root:
    # the FOC keeps its sign change across z -+ 16 rounding steps
    n = float(params.n_platforms)
    beta, phi_kk, u0 = params.beta_arr, np.diag(params.phi_arr), params.u0_arr
    for regime, value in (("cne", mk_value), ("ce", mkc_value)):
        z = solve_decoupled_batch(regime, beta, phi_kk, n, u0)
        ok = np.isfinite(z)
        h = 16 * 4e-16 * np.maximum(1.0, np.abs(z[ok]))
        b, f, u = beta[ok], phi_kk[ok], u0[ok]
        assert np.all(value(z[ok] - h, b, f, n, u) >= 0), (regime, z)
        assert np.all(value(z[ok] + h, b, f, n, u) <= 0), (regime, z)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(wide_markets())
def test_verify_nash_always_returns(params):
    # whatever stage 2 does at these prices, the search reports a finite gain
    try:
        eq = solve_cne(params)
    except SolverError:
        return
    report = verify_nash(params, eq, grid_n=11)
    assert np.isfinite(report.best_gain) and report.best_gain >= -1e-12, report


@st.composite
def sweep_markets(draw):
    """[market] text for markets on either side of the existence bound: N up
    to 5000, beta from 1e-4, |u0| up to 1e3, coupled or not."""
    cross = draw(st.sampled_from([0.0, 0.05]))
    keys = {"n_platforms": draw(st.integers(2, 5000))}
    for k in "bs":
        keys[f"beta_{k}"] = 10.0 ** draw(st.floats(-4.0, 0.5))
        keys[f"phi_{k}{k}"] = draw(st.floats(-1.0, 1.0))
        keys[f"u0_{k}"] = draw(st.floats(-1e3, 1e3))
    keys["phi_bs"], keys["phi_sb"] = draw(st.floats(-cross, cross)), draw(st.floats(-cross, cross))
    return "[market]\n" + "".join(f"{k} = {v!r}\n" for k, v in keys.items())


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(sweep_markets())
def test_no_silent_nonfinite_sweep_cell(market):
    # a two-point sweep with derivatives, both regimes: a nan or inf cell
    # appears only in a row that carries an error or a warning
    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "s.ini")
        with open(ini, "w") as fh:
            fh.write(market + "\n[sweep]\naxis = u0_s\nstart = 0\nstop = 1\nstep = 1\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["sweep", "--config", ini]) == 0
    header, *rows = [line.split(",") for line in out.getvalue().splitlines()
                     if not line.startswith("#")]
    assert len(rows) == 4 and all(len(r) == len(header) for r in rows)
    for row in map(dict, (zip(header, r) for r in rows)):
        if not (row["error"] or row["warnings"]):
            assert not [k for k, v in row.items() if v in ("nan", "inf", "-inf")], row
