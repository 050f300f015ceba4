"""The columnar sweep against a per-point reference.

`platform-eq sweep` solves all of a regime's points in one stage-1 batch per
platform count and evaluates the closed forms over columns.  The reference
here builds every row alone, from `solve_cne`/`solve_ce`, `closed_form`,
`ift_derivatives` and the classifiers, and formats each cell by the CSV rules
(bools true/false, floats %.17g, everything else str).  The two CSVs must
agree bit for bit.
"""

import collections
import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platform_eq.cli as cli
import platform_eq.equilibrium as equilibrium
from platform_eq.config import SWEEP_AXES, parse_config
from platform_eq.equilibrium import SolverError, ZPoint, solve_ce, solve_cne
from platform_eq.model import MarketParams, Side
from platform_eq.regions import classify_direction, classify_sign_z
from platform_eq.statics import closed_form, ift_columns, ift_derivatives

from test_acceptance import C12_INI


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _reference_notes(cells) -> list[str]:
    """The row's note for each definite direction verdict whose derivative
    (the column named d... for the verdict v...) differs in sign."""
    notes = []
    for _quantity, _wrt, name in cli.CLASSIFIER_SPECS:
        for side in Side:
            vcol, dcol = f"{name}_{side.label}", f"d{name[1:]}_{side.label}"
            sign = {"increasing": 1, "decreasing": -1}.get(cells[vcol])
            value = cells[dcol]
            if sign and isinstance(value, float) and np.sign(value) != sign:
                notes.append(f"{vcol} {cells[vcol]} against {dcol} {value:.3g} "
                             "(cross-side externalities)")
    return notes


def _reference_row(params, regime, with_derivs) -> str:
    cells = dict(zip(cli.INPUT_COLS, cli._input_row(params)), regime=regime)
    try:
        eq = (solve_cne if regime == "cne" else solve_ce)(params)
    except (SolverError, ArithmeticError) as exc:
        cells["error"] = f"{type(exc).__name__}: {exc}"
    else:
        cells.update(zip(cli.EQ_COLS, cli._eq_row(eq)))
        if regime == "cne" and with_derivs:
            cells["deriv_method"] = "analytic" if params.cross_externalities_zero else "ift"
            d = None
            if not params.cross_externalities_zero:
                try:
                    d = ift_derivatives(eq)
                except ArithmeticError as exc:
                    d = f"error:{type(exc).__name__}"
            for quantity, wrt, name in cli.DERIV_SPECS:
                for side in Side:
                    if params.cross_externalities_zero:
                        try:
                            value = closed_form(quantity, wrt, params, side,
                                                z_star=eq.z.side(side))
                        except ArithmeticError as exc:
                            value = f"error:{type(exc).__name__}"
                    else:
                        value = d if isinstance(d, str) else d[quantity, wrt][side.index]
                    cells[f"{name}_{side.label}"] = value
            for quantity, wrt, name in cli.CLASSIFIER_SPECS:
                for side in Side:
                    try:
                        verdict = classify_direction(quantity, wrt, params, side,
                                                     z_star=eq.z.side(side)).verdict.value
                    except ValueError:
                        verdict = "error"
                    cells[f"{name}_{side.label}"] = verdict
            if not params.cross_externalities_zero:
                cells["warnings"] = ";".join([*eq.warnings, *_reference_notes(cells)])
        if regime == "ce" or with_derivs:
            for side in Side:
                cells[f"vsign_z_{side.label}"] = classify_sign_z(regime, params, side).verdict.value
    return ",".join(_fmt(cells.get(col, "")) for col in cli.SWEEP_COLS)


def _run_sweep(text: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cmd_sweep(parse_config(text)) == 0
    return out.getvalue()


def _reference_csv(text: str) -> str:
    cfg = parse_config(text)
    sweep = cfg.values["sweep"]
    points = [cli._apply_axis(cfg.market, sweep["axis"], v)
              for v in cli._axis_values(sweep["start"], sweep["stop"], sweep["step"])]
    if sweep["axis2"]:
        points = [cli._apply_axis(p, sweep["axis2"], v) for p in points
                  for v in cli._axis_values(sweep["start2"], sweep["stop2"], sweep["step2"])]
    rows = [_reference_row(p, regime, sweep["derivatives"])
            for p in points for regime in cli._regimes(cfg)]
    comments = cli._comments(cfg, "sweep") + [f"sweep axis {sweep['axis']}"]
    return "\n".join([f"# {c}" for c in comments] + [",".join(cli.SWEEP_COLS)] + rows) + "\n"


def _ini(market: dict, sweep: dict, regime: str) -> str:
    lines = ["[market]", *(f"{k} = {v!r}" for k, v in market.items()), "", "[sweep]",
             *(f"{k} = {v}" for k, v in sweep.items()), "", "[solve]", f"regime = {regime}"]
    return "\n".join(lines) + "\n"


# MarketParams field -> the range a sweep over it draws from
AXIS_RANGES = {"u0": (-6.0, 6.0), "beta": (0.02, 2.0), "phi": (-1.5, 2.0)}


def _axis_range(draw, axis):
    """(start, stop, step) giving one to three values inside the axis's range."""
    count = draw(st.integers(1, 3))
    if axis == "n_platforms":
        start = draw(st.integers(2, 9))
        return start, start + 3 * (count - 1), 3
    lo, hi = (-0.05, 0.05) if axis in ("phi_bs", "phi_sb") else AXIS_RANGES[SWEEP_AXES[axis][0]]
    step = (hi - lo) / 4
    start = draw(st.floats(lo, lo + 2 * step))
    return start, start + step * (count - 1), step


@st.composite
def sweep_configs(draw, axis):
    cross = draw(st.sampled_from([0.0, 0.0, 0.03]))
    market = {
        "n_platforms": draw(st.integers(2, 8)),
        "beta_b": draw(st.floats(0.02, 2.0)), "beta_s": draw(st.floats(0.02, 2.0)),
        # phi_kk up to 2 with beta down to 0.02 leaves the existence region
        "phi_bb": draw(st.floats(-1.5, 2.0)), "phi_bs": cross,
        "phi_sb": draw(st.sampled_from([0.0, -cross])), "phi_ss": draw(st.floats(-1.5, 2.0)),
        "u0_b": draw(st.floats(-6.0, 6.0)), "u0_s": draw(st.floats(-6.0, 6.0)),
    }
    start, stop, step = _axis_range(draw, axis)
    sweep = {"axis": axis, "start": repr(float(start)), "stop": repr(float(stop)),
             "step": repr(float(step)), "derivatives": draw(st.sampled_from(["true", "false"]))}
    if draw(st.booleans()):
        axis2 = draw(st.sampled_from(sorted(set(SWEEP_AXES) - {axis})))
        start2, stop2, step2 = _axis_range(draw, axis2)
        sweep.update(axis2=axis2, start2=repr(float(start2)), stop2=repr(float(stop2)),
                     step2=repr(float(step2)))
    return _ini(market, sweep, draw(st.sampled_from(["cne", "ce", "both"])))


# the coupled Newton stalls on a near-singular Jacobian: error rows
STALL = _ini({"n_platforms": 61, "beta_b": 3e-7, "beta_s": 3e-7, "phi_bb": 0.0,
              "phi_bs": 0.0226, "phi_sb": 4e-134, "phi_ss": 4e-134, "u0_b": 0.0,
              "u0_s": -3.5e-62},
             {"axis": "phi_bs", "start": "0.0", "stop": "0.0226", "step": "0.0226"}, "both")
# the degree-7 series overflow at u0 = -500 (error cells), N from 2 to 8002,
# and phi_ss = 2 against beta_s = 0.05 leaves the existence region
FAR = _ini({"n_platforms": 3, "beta_b": 1.0, "beta_s": 0.05, "phi_bb": 0.3, "phi_ss": 2.0},
           {"axis": "u0", "start": "-500.0", "stop": "500.0", "step": "250.0",
            "axis2": "n_platforms", "start2": "2", "stop2": "8002", "step2": "4000"}, "both")


@pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_columnar_sweep_matches_per_point_reference(axis, data):
    text = data.draw(sweep_configs(axis))
    assert _run_sweep(text) == _reference_csv(text)


@pytest.mark.parametrize("text, present", [
    (STALL, ("near-singular Jacobian", ",ift,")),
    (FAR, (",error:ArithmeticError,", "existence condition fails", ",analytic,"))],
    ids=["stall", "far"])
def test_error_rows_and_cells_match_reference(text, present):
    out = _run_sweep(text)
    assert all(p in out for p in present)
    assert out == _reference_csv(text)


@pytest.mark.parametrize("u0_values", [2, 7])
def test_one_stage1_batch_per_regime_and_platform_count(monkeypatch, u0_values):
    # N in {2, 4} x u0_values points: the stage-1 batch runs once per distinct
    # N, over both regimes, however many points there are
    calls = []
    real = equilibrium.solve_decoupled_batch

    def counting(*args, **kwargs):
        calls.append((np.shape(args[1]), np.asarray(args[0]).ravel().tolist()))
        return real(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "solve_decoupled_batch", counting)
    text = _ini({"n_platforms": 2, "beta_b": 1.0, "beta_s": 0.7, "phi_bb": 0.2},
                {"axis": "n_platforms", "start": "2", "stop": "4", "step": "2",
                 "axis2": "u0", "start2": "-1.0", "stop2": "1.0",
                 "step2": repr(2.0 / (u0_values - 1))}, "both")
    _run_sweep(text)
    # columns: the cne markets, then the ce markets, each a row of both sides
    assert calls == [((2 * u0_values, 2), [False] * u0_values + [True] * u0_values)] * 2


def test_ift_columns_match_one_point_solves():
    # one complex-step call and one stacked solve per (regime, N) group: each
    # row carries the bits of its own `ift_derivatives`, and a row whose F_z
    # is not finite holds that ArithmeticError on both sides of every key
    rng = np.random.default_rng(7)
    eqs = [solver(MarketParams(int(rng.integers(2, 5)), tuple(rng.uniform(0.3, 2.0, 2)),
                               ((rng.uniform(-1.0, 1.0), rng.uniform(-0.05, 0.05)),
                                (rng.uniform(-0.05, 0.05), rng.uniform(-1.0, 1.0))),
                               tuple(rng.uniform(-3.0, 3.0, 2))))
           for solver in (solve_cne, solve_ce) for _ in range(12)]
    eqs.insert(5, dataclasses.replace(eqs[4], z=ZPoint(float("nan"), 0.0)))
    table = ift_columns(eqs)
    assert len({(eq.regime, eq.n) for eq in eqs}) > 2
    for row, eq in enumerate(eqs):
        try:
            expected = ift_derivatives(eq)
        except ArithmeticError as exc:
            assert row == 5
            for _values, errors in table.values():
                assert str(errors[row, 0]) == str(exc) and errors[row, 1] is errors[row, 0]
            continue
        assert table.keys() == expected.keys()
        for key, (values, errors) in table.items():
            assert (row, 0) not in errors and (row, 1) not in errors
            assert repr(values[row].tolist()) == repr(list(expected[key]))


def _sweep_cells(text: str) -> list[dict]:
    lines = [ln for ln in _run_sweep(text).splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _disagreeing(cells: dict) -> set[tuple[str, str]]:
    """(verdict column, derivative column) of each definite direction verdict
    whose derivative in the same row has another sign."""
    pairs = set()
    for col, verdict in cells.items():
        derivative = cells.get("d" + col[1:], "")
        if verdict in ("increasing", "decreasing") and not derivative.startswith("error"):
            value = float(derivative)
            if not (value > 0 if verdict == "increasing" else value < 0):
                pairs.add((col, "d" + col[1:]))
    return pairs


def _noted(cells: dict) -> list[tuple[str, str]]:
    notes = [w for w in cells["warnings"].split(";") if w.endswith("(cross-side externalities)")]
    return [(words[0], words[3]) for words in (note.split() for note in notes)]


def test_coupled_row_notes_the_derivative_that_contradicts_its_verdict():
    # the decoupled rule reads price increasing in N on the seller side; the
    # coupled FOC's derivative is negative
    text = _ini({"n_platforms": 4, "beta_b": 0.70032, "beta_s": 0.23015, "phi_bb": -0.0556,
                 "phi_bs": -0.03209, "phi_sb": -0.02276, "phi_ss": 0.42834,
                 "u0_b": -0.61704, "u0_s": 0.78925},
                {"axis": "n_platforms", "start": "4", "stop": "4", "step": "1"}, "cne")
    (row,) = _sweep_cells(text)
    assert row["deriv_method"] == "ift"
    assert row["vprice_dn_s"] == "increasing" and float(row["dprice_dn_s"]) < 0
    assert row["warnings"] == ("vprice_dn_s increasing against dprice_dn_s -0.00099 "
                               "(cross-side externalities)")


def test_classify_notes_the_derivative_that_contradicts_its_verdict():
    # the same market through `classify`: the contradicted row keeps its
    # verdict, margin and thresholds, and its reason cell carries the note
    # the sweep row writes; its zero-cross twin has no note
    market = {"n_platforms": 4, "beta_b": 0.70032, "beta_s": 0.23015, "phi_bb": -0.0556,
              "phi_bs": -0.03209, "phi_sb": -0.02276, "phi_ss": 0.42834,
              "u0_b": -0.61704, "u0_s": 0.78925}
    sweep = {"axis": "n_platforms", "start": "4", "stop": "4", "step": "1"}

    def classify_rows(market):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.cmd_classify(parse_config(_ini(market, sweep, "cne"))) == 0
        lines = [ln for ln in out.getvalue().splitlines() if not ln.startswith("#")]
        assert lines[0] == "classifier,side,verdict,margin,thresholds,reason"
        return {tuple(r[:2]): r[2:] for r in (ln.split(",") for ln in lines[1:])}

    rows = classify_rows(market)
    note = "vprice_dn_s increasing against dprice_dn_s -0.00099 (cross-side externalities)"
    assert rows["vprice_dn", "s"][0] == "increasing" and rows["vprice_dn", "s"][3] == note
    (row,) = _sweep_cells(_ini(market, sweep, "cne"))
    assert [cells[3] for cells in rows.values() if cells[3]] == [row["warnings"]]
    twin = classify_rows({**market, "phi_bs": 0.0, "phi_sb": 0.0})
    assert twin.keys() == rows.keys()
    assert not any("cross-side" in cells[3] for cells in twin.values())


@st.composite
def coupled_envelope_configs(draw):
    """cne sweeps over N or u0 on markets in the acceptance envelope (N < 7,
    |u0| <= 2, beta 0.05 to 3 above the existence bound where phi_kk > 0)
    with cross-side externalities up to 0.5."""
    n = draw(st.integers(2, 6))
    market = {"n_platforms": n}
    for k in "bs":
        phi = draw(st.floats(-1.0, 1.0))
        market[f"phi_{k}{k}"] = phi
        market[f"beta_{k}"] = 2 * (n - 1) / n**2 * max(phi, 0.0) + draw(st.floats(0.05, 3.0))
        market[f"u0_{k}"] = draw(st.floats(-2.0, 2.0))
    market["phi_bs"] = draw(st.floats(0.01, 0.5)) * draw(st.sampled_from([-1, 1]))
    market["phi_sb"] = draw(st.floats(-0.5, 0.5))
    if draw(st.booleans()):
        sweep = {"axis": "n_platforms", "start": str(n), "stop": str(n + 2), "step": "1"}
    else:
        sweep = {"axis": "u0", "start": "-2.0", "stop": "2.0", "step": "2.0"}
    return _ini(market, sweep, "cne")


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(coupled_envelope_configs())
def test_every_contradicted_verdict_is_noted(text):
    for cells in _sweep_cells(text):
        if cells["error"]:
            continue
        noted = _noted(cells)
        assert len(noted) == len(set(noted))
        assert set(noted) == _disagreeing(cells), cells["warnings"]


# the market of ROADMAP item 2: on the seller side the decoupled rule reads
# price increasing in N, and the coupled FOC's derivative is negative
ITEM2 = {"n_platforms": 4, "beta_b": 0.70032, "beta_s": 0.23015, "phi_bb": -0.0556,
         "phi_bs": -0.03209, "phi_sb": -0.02276, "phi_ss": 0.42834,
         "u0_b": -0.61704, "u0_s": 0.78925}
GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_sha256.json"
# case -> config; the digests were written by the per-cell row assembly
SWEEP_CASES = {
    "c12_ce": C12_INI + "\n[solve]\nregime = ce\n",
    "c12_no_derivatives": C12_INI.replace("step = 0.25\n", "step = 0.25\nderivatives = false\n"),
    "stall": STALL,
    # N = 4 carries the contradiction note
    "item2": _ini(ITEM2, {"axis": "n_platforms", "start": "2", "stop": "6", "step": "2"}, "both"),
    # analytic and ift rows side by side, both regimes
    "two_axis": _ini({"n_platforms": 3, "beta_b": 1.1, "beta_s": 0.9, "phi_bb": 0.2,
                      "phi_ss": -0.1},
                     {"axis": "n_platforms", "start": "2", "stop": "5", "step": "3",
                      "axis2": "phi_bs", "start2": "0.0", "stop2": "0.05", "step2": "0.05"},
                     "both"),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_matches_golden(case):
    """The sweep CSV reproduces the sha256 digest committed with the suite."""
    out = _run_sweep(SWEEP_CASES[case])
    assert hashlib.sha256(out.encode()).hexdigest() == json.loads(GOLDEN_SWEEP.read_text())[case]


def test_classifiers_run_once_per_platform_count(monkeypatch):
    # two platform counts, both regimes, derivatives: per N, the cne rows take
    # sign_z_cne and the 7 directions, the ce rows sign_z_ce, each one call
    # over both sides of that N's rows
    calls = collections.Counter()
    real = cli.classify_columns

    def counting(classifier, n, *columns):
        assert all(len(c) == 2 * 3 for c in columns)
        calls[classifier, n] += 1
        return real(classifier, n, *columns)

    monkeypatch.setattr(cli, "classify_columns", counting)
    _run_sweep(_ini(ITEM2, {"axis": "n_platforms", "start": "3", "stop": "5", "step": "2",
                            "axis2": "u0", "start2": "-1.0", "stop2": "1.0", "step2": "1.0"},
                    "both"))
    expected = [f"sign_z_{regime}" for regime in ("cne", "ce")] + [
        (quantity, wrt) for quantity, wrt, _name in cli.CLASSIFIER_SPECS]
    assert calls == {(classifier, n): 1 for classifier in expected for n in (3, 5)}
    assert sum(calls.values()) == 18
