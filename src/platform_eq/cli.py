"""Command-line front end: solve, compare, classify, sweep, verify, figures.

Every command reads a strict INI config (see :mod:`platform_eq.config`), each
flag's raw text parsed like the key it overrides; solve, compare, classify,
sweep and verify solve stage 1 in one :func:`solve_markets` call.  All floating
point output uses 17 significant digits, LF line endings and a header comment
carrying the tool version, the config hash and a parameter echo, so identical
config + seed reproduce byte-identical bytes.

Exit codes: 0 success, 1 config or usage error, 2 solver failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .config import MARKET_KEYS, SWEEP_AXES, ConfigError, RunConfig, axis_count, load_config
from .demand import FixedPointError
from .equilibrium import SolverError, _one, compare_regimes, solve_markets
from .limits import outside_option_limit_check, perfect_competition_check
from .model import MarketParams, Side
from .regions import (FIGURES, VERDICTS, classify_columns, classify_direction,
                      classify_sign_z, figure_paint, figure_threshold_curve,
                      grid_agreement, region_grids)
from . import __version__
from .statics import closed_form_columns, ift_columns
from .svg import PAINT_FILL, region_svg
from .verify import soc_report, verify_nash

INPUT_COLS = MARKET_KEYS
EQ_COLS = ("regime", "z_b", "z_s", "p_b", "p_s", "x_b", "x_s", "nx_b", "nx_s",
           "pi_b", "pi_s", "pi_platform", "pi_aggregate", "cs_b", "cs_s",
           "foc_residual", "price_check", "warnings")
DERIV_SPECS = (("price", "u0", "dprice_du0"), ("profit", "u0", "dprofit_du0"),
               ("consumer_surplus", "u0", "dcs_du0"), ("z", "u0", "dz_du0"),
               ("price", "n_platforms", "dprice_dn"),
               ("participation", "n_platforms", "dpart_dn"),
               ("consumer_surplus", "n_platforms", "dcs_dn"),
               ("profit", "n_platforms", "dprofit_dn"))
CLASSIFIER_SPECS = (("price", "u0", "vprice_du0"), ("profit", "u0", "vprofit_du0"),
                    ("consumer_surplus", "u0", "vcs_du0"),
                    ("price", "n_platforms", "vprice_dn"),
                    ("participation", "n_platforms", "vpart_dn"),
                    ("consumer_surplus", "n_platforms", "vcs_dn"),
                    ("profit", "n_platforms", "vprofit_dn"))
DERIV_COLS = tuple(f"{name}_{side.label}" for _q, _w, name in DERIV_SPECS for side in Side)
VERDICT_COLS = ("vsign_z_b", "vsign_z_s") + tuple(
    f"{name}_{side.label}" for _q, _w, name in CLASSIFIER_SPECS for side in Side)
# (verdict column, derivative column) of each direction verdict on each side
VERDICT_DERIVS = tuple((f"{vname}_{side.label}", f"{dname}_{side.label}")
                       for q, w, vname in CLASSIFIER_SPECS for dq, dw, dname in DERIV_SPECS
                       if (q, w) == (dq, dw) for side in Side)
# a sweep row leaves empty every column its regime and settings do not fill
SWEEP_COLS = INPUT_COLS + EQ_COLS + ("error", "deriv_method") + DERIV_COLS + VERDICT_COLS
# each VERDICT_DERIVS pair with its two positions in a sweep row, and the
# position of the warnings cell the notes join
SWEEP_NOTES = tuple((vcol, SWEEP_COLS.index(vcol), dcol, SWEEP_COLS.index(dcol))
                    for vcol, dcol in VERDICT_DERIVS)
SWEEP_WARNINGS = SWEEP_COLS.index("warnings")
# a verdict cell's text; None is a cell where the one-cell classifier raises
VERDICT_TEXT = {None: "error", **{v: v.value for v in VERDICTS}}

# a figure row: the formatted phi and beta, verdict, margin, paint, solved sign
FIGURE_ROW = "%s,%s,%s,%.17g,%d,%d\n"


@functools.cache
def _row_format(signature: tuple[type, ...]) -> tuple[str, bool]:
    """One %-format for the rows whose cells have these types: floats as
    %.17g, everything else through str.  The flag says a cell is a bool,
    which csv_text spells true/false before formatting."""
    fmt = ",".join("%.17g" if issubclass(t, (float, np.floating)) else "%s" for t in signature)
    return fmt, bool in signature


def csv_text(comments: list[str], header: tuple | list, rows: list) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        row = tuple(row)
        fmt, has_bool = _row_format(tuple(map(type, row)))
        if has_bool:
            row = tuple(("true" if v else "false") if type(v) is bool else v for v in row)
        lines.append(fmt % row)
    return "\n".join(lines) + "\n"


def _emit(text: str, out_dir: str, filename: str, echo: bool = True) -> None:
    if echo:
        sys.stdout.write(text)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _comments(cfg: RunConfig, command: str) -> list[str]:
    return [
        f"platform-eq {__version__} {command}",
        f"config sha256 {cfg.sha256}",
        f"params {cfg.echo()}",
        f"seed {cfg.get('output', 'seed')}",
    ]


def _input_row(params: MarketParams) -> list:
    return [params.n_platforms, *params.beta, *params.phi[0], *params.phi[1],
            *params.u0, *params.mu]


def _eq_row(eq) -> list:
    return [eq.regime, eq.z.z_b, eq.z.z_s, eq.prices[0], eq.prices[1],
            eq.shares[0], eq.shares[1], eq.participation[0], eq.participation[1],
            eq.profit_per_side[0], eq.profit_per_side[1], eq.total_profit,
            eq.aggregate_profit, eq.consumer_surplus[0], eq.consumer_surplus[1],
            eq.foc_residual, eq.price_check, ";".join(eq.warnings)]


def _regimes(cfg: RunConfig) -> list[str]:
    regime = cfg.get("solve", "regime")
    return ["cne", "ce"] if regime == "both" else [regime]


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    params = cfg.market
    # one stage-1 batch; a cne failure is raised first
    rows = [_input_row(params) + _eq_row(_one(results[0]))
            for results in solve_markets(_regimes(cfg), [params])]
    text = csv_text(_comments(cfg, "solve"), INPUT_COLS + EQ_COLS, rows)
    _emit(text, cfg.get("output", "dir"), "solve.csv")
    return 0


def cmd_compare(cfg: RunConfig) -> int:
    params = cfg.market
    cmp_ = compare_regimes(params)
    header = INPUT_COLS + tuple(f"cne_{c}" for c in EQ_COLS[1:]) \
        + tuple(f"ce_{c}" for c in EQ_COLS[1:]) \
        + ("dz_b", "dz_s", "dpart_b", "dpart_s", "dprice_b", "dprice_s",
           "decomp_ext_b", "decomp_ext_s", "decomp_util_b", "decomp_util_s",
           "decomp_residual")
    row = _input_row(params) + _eq_row(cmp_.cne)[1:] + _eq_row(cmp_.ce)[1:] + [
        cmp_.dz[0], cmp_.dz[1], cmp_.d_participation[0], cmp_.d_participation[1],
        cmp_.d_price[0], cmp_.d_price[1],
        cmp_.decomposition_externality[0], cmp_.decomposition_externality[1],
        cmp_.decomposition_utility[0], cmp_.decomposition_utility[1],
        cmp_.decomposition_residual]
    text = csv_text(_comments(cfg, "compare"), header, [row])
    _emit(text, cfg.get("output", "dir"), "compare.csv")
    return 0


def _label_cells(classify, *args, **kwargs) -> list:
    """A classifier call's verdict, margin, thresholds and reason, or its error."""
    try:
        label = classify(*args, **kwargs)
    except ValueError as exc:
        return ["error", "", "", str(exc)]
    thr = ";".join(f"{k.value}={v:.17g}" for k, v in label.thresholds_used)
    return [label.verdict.value, label.margin, thr, label.reason]


def cmd_classify(cfg: RunConfig) -> int:
    params = cfg.market
    eq = _one(solve_markets(("cne",), [params])[0][0])
    # on a coupled market each direction verdict meets its own derivative,
    # from one implicit-function solve, and a contradiction is noted in reason
    derivs = ({} if params.cross_externalities_zero
              else dict(zip(DERIV_COLS, _deriv_cells([params], {0: eq})[0][1])))
    dcols = dict(VERDICT_DERIVS)
    rows = []
    for side in Side:
        rows += [[f"sign_z_{regime}", side.label]
                 + _label_cells(classify_sign_z, regime, params, side) for regime in ("cne", "ce")]
        for quantity, wrt, name in CLASSIFIER_SPECS:
            verdict, margin, thr, reason = _label_cells(classify_direction, quantity, wrt, params,
                                                        side, z_star=eq.z.side(side))
            vcol = f"{name}_{side.label}"
            note = _contradiction(vcol, verdict, dcols[vcol], derivs.get(dcols[vcol]))
            rows.append([name, side.label, verdict, margin, thr,
                         ";".join(filter(None, (reason, note)))])
    header = ("classifier", "side", "verdict", "margin", "thresholds", "reason")
    text = csv_text(_comments(cfg, "classify"), header, rows)
    _emit(text, cfg.get("output", "dir"), "classify.csv")
    return 0


def _axis_values(start: float, stop: float, step: float) -> list[float]:
    return [start + i * step for i in range(axis_count(start, stop, step))]


def _apply_axis(params: MarketParams, axis: str, value: float) -> MarketParams:
    field, cells = SWEEP_AXES[axis]
    if field == "n_platforms":
        entries = int(value)  # whole: parse_config admits only whole starts and steps
    elif field == "phi":
        entries = [list(row) for row in params.phi]
        for i, j in cells:
            entries[i][j] = value
    else:
        entries = list(getattr(params, field))
        for k in cells:
            entries[k] = value
    try:  # a point outside the market domain is a config error, as in [market]
        return params.replace(**{field: entries})
    except ValueError as exc:
        raise ConfigError(f"invalid market parameters: {exc}") from exc


def _deriv_cells(points: list[MarketParams], eqs: dict) -> dict[int, tuple[str, list]]:
    """The deriv_method and the 16 derivative cells, in DERIV_COLS order, of
    each solved cne row, keyed by point: the closed forms over columns at
    zero cross externalities, otherwise the implicit-function solve over
    columns.  A derivative that cannot be formed writes error:<exception type>."""
    decoupled = [i for i in eqs if points[i].cross_externalities_zero]
    coupled = [i for i in eqs if not points[i].cross_externalities_zero]
    out = {}
    for rows, method, table in (
            (decoupled, "analytic", closed_form_columns([points[i] for i in decoupled],
                                                        [eqs[i].z for i in decoupled])),
            (coupled, "ift", ift_columns([eqs[i] for i in coupled]))):
        # each spec's (buyer, seller) columns side by side: a row of DERIV_COLS per point
        cells = np.hstack([table[q, w][0] for q, w, _name in DERIV_SPECS]).tolist()
        for col, (quantity, wrt, _name) in enumerate(DERIV_SPECS):
            for (row, k), exc in table[quantity, wrt][1].items():
                cells[row][2 * col + k] = f"error:{type(exc).__name__}"
        out.update((i, (method, row)) for i, row in zip(rows, cells))
    return out


def _verdict_cells(points: list[MarketParams], eqs: dict, regime: str,
                   directions: bool) -> dict[int, tuple]:
    """The VERDICT_COLS cells of each solved row, keyed by point: the
    regime's sign of z and, with directions, each direction classifier at
    the solved z* (empty cells without).  Each classifier runs once per
    platform count over the buyer sides of its rows, then the seller sides,
    and a row's cells are read from those columns by position, not by
    column name or side.  A cell where the one-cell classifier raises reads
    error."""
    specs = [f"sign_z_{regime}"] + [(quantity, wrt) for quantity, wrt, _name in CLASSIFIER_SPECS
                                    if directions]
    groups: dict[int, list] = {}
    for i in eqs:
        groups.setdefault(points[i].n_platforms, []).append(i)
    out = {}
    for n, rows in groups.items():
        m = len(rows)
        # per row (beta, phi_kk, u0, z*) by side, as the buyer-then-seller columns
        sides = np.array([(*points[i].beta, points[i].phi[0][0], points[i].phi[1][1],
                           *points[i].u0, eqs[i].z.z_b, eqs[i].z.z_s) for i in rows])
        columns = sides.reshape(m, 4, 2).transpose(2, 0, 1).reshape(2 * m, 4).T
        blocks = []  # one list of m cells per verdict column
        for classifier in specs:
            text = list(map(VERDICT_TEXT.__getitem__, classify_columns(classifier, n, *columns)))
            blocks += [text[:m], text[m:]]
        blocks += [[""] * m] * (len(VERDICT_COLS) - len(blocks))
        out.update(zip(rows, zip(*blocks)))
    return out


def _contradiction(vcol: str, verdict, dcol: str, d) -> str | None:
    """The note on a definite direction verdict whose own derivative d, a
    float, has another sign: the verdicts apply the paper's zero-cross
    rules, a coupled market's derivatives its coupled FOC."""
    if type(d) is float and (verdict == "increasing" and not d > 0
                             or verdict == "decreasing" and not d < 0):
        return f"{vcol} {verdict} against {dcol} {d:.3g} (cross-side externalities)"
    return None


def _sweep_rows(points: list[MarketParams], regime: str, solved: list,
                with_derivs: bool) -> list[list]:
    """One regime's sweep row for every point from its stage-1 results, the
    closed forms and the classifiers evaluated as columns.  Each row is
    joined from its blocks, each already in SWEEP_COLS order: the inputs,
    the equilibrium, the error and deriv_method cells, the derivatives and
    the verdicts.  An ift row's warnings also note each definite direction
    verdict whose own derivative has another sign, read by position."""
    eqs = {i: eq for i, eq in enumerate(solved) if not isinstance(eq, Exception)}
    directions = regime == "cne" and with_derivs
    derivs = _deriv_cells(points, eqs) if directions else {}
    verdicts = (_verdict_cells(points, eqs, regime, directions)
                if regime == "ce" or with_derivs else {})
    # EQ_COLS opens with the regime, the one cell a failed row keeps
    no_eq, no_derivs = [""] * (len(EQ_COLS) - 1), ("", [""] * len(DERIV_COLS))
    no_verdicts = [""] * len(VERDICT_COLS)
    rows = []
    for i, (params, eq) in enumerate(zip(points, solved)):
        if i not in eqs:
            # empty equilibrium cells, the message in the error column
            rows.append([*_input_row(params), regime, *no_eq, f"{type(eq).__name__}: {eq}",
                         "", *no_derivs[1], *no_verdicts])
            continue
        method, d = derivs.get(i, no_derivs)
        row = [*_input_row(params), *_eq_row(eq), "", method, *d, *verdicts.get(i, no_verdicts)]
        if method == "ift":
            notes = (_contradiction(vcol, row[v], dcol, row[k]) for vcol, v, dcol, k in SWEEP_NOTES)
            row[SWEEP_WARNINGS] = ";".join([*eq.warnings, *filter(None, notes)])
        rows.append(row)
    return rows


def cmd_sweep(cfg: RunConfig) -> int:
    params0 = cfg.market
    sweep = cfg.values["sweep"]
    points = [_apply_axis(params0, sweep["axis"], v)
              for v in _axis_values(sweep["start"], sweep["stop"], sweep["step"])]
    if sweep["axis2"]:
        vals2 = _axis_values(sweep["start2"], sweep["stop2"], sweep["step2"])
        points = [_apply_axis(p, sweep["axis2"], v) for p in points for v in vals2]
    regimes = _regimes(cfg)
    per_regime = [_sweep_rows(points, regime, solved, sweep["derivatives"]) for regime, solved
                  in zip(regimes, solve_markets(regimes, points))]
    rows = [row for point_rows in zip(*per_regime) for row in point_rows]
    text = csv_text(_comments(cfg, "sweep") + [f"sweep axis {sweep['axis']}"], SWEEP_COLS, rows)
    _emit(text, cfg.get("output", "dir"), "sweep.csv")
    return 0


def _finite_or_null(value):
    """value with each non-finite float, at any depth, as None: JSON has no NaN."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def cmd_verify(cfg: RunConfig) -> int:
    params = cfg.market
    vconf = cfg.values["verify"]
    # one stage-1 batch; each regime's failure is raised where its result is first used
    eq, eq_ce = (results[0] for results in solve_markets(("cne", "ce"), [params]))
    eq = target = _one(eq)
    if vconf["perturb_price"]:
        target = dataclasses.replace(
            eq, prices=(eq.prices[0] + vconf["perturb_price"],
                        eq.prices[1] + vconf["perturb_price"]))
    report = verify_nash(params, target, radius=vconf["radius"], grid_n=vconf["grid_n"])
    # one SOC entry per regime; at its own p* the search's solve already
    # differentiated the competitive objective, so that Hessian is reused
    soc_cne = soc_report(params, eq, report.base_hessian if target is eq else None)
    soc_ce = soc_report(params, _one(eq_ce))

    certified = report.certified(vconf["tolerance"])
    # a closed form that does not apply (None) does not fail the check
    soc_ok = all(s.numeric_negative_definite and s.closed_form_negative in (None, True)
                 for s in (soc_cne, soc_ce))

    doc = {
        "tool": f"platform-eq {__version__}",
        "config_sha256": cfg.sha256,
        "deviation": {
            "base_profit": report.base_profit,
            "best_gain": report.best_gain,
            "best_deviation_prices": list(report.best_deviation_prices),
            "grid_radius": report.grid_radius,
            "grid_n": report.grid_n,
            "refined": report.refined,
            "certified": certified,
            # below 1, one stage-2 fixed point at every searched price
            "stage2_lipschitz": report.stage2_lipschitz,
        },
        "soc_cne": {
            "closed_form_diag": list(soc_cne.cne_diag) if soc_cne.cne_diag else None,
            "numeric_hessian": [list(r) for r in soc_cne.numeric_hessian],
            "negative_definite": soc_cne.numeric_negative_definite,
        },
        "soc_ce": {
            "closed_form_hessian": [list(r) for r in soc_ce.ce_hessian],
            "negative_definite": soc_ce.numeric_negative_definite,
            "closed_form_negative_definite": soc_ce.closed_form_negative,
        },
        "passed": bool(certified and soc_ok),
    }
    out_dir = cfg.get("output", "dir")
    _emit(json.dumps(_finite_or_null(doc), indent=2) + "\n", out_dir, "verify.json")
    if out_dir:
        rows = [[report.base_profit, report.best_gain,
                 report.best_deviation_prices[0], report.best_deviation_prices[1],
                 report.grid_radius, report.grid_n, report.refined, certified]]
        _emit(csv_text(_comments(cfg, "verify"),
                       ("base_profit", "best_gain", "dev_p_b", "dev_p_s",
                        "radius", "grid_n", "refined", "certified"), rows),
              out_dir, "verify.csv", echo=False)
    return 0 if doc["passed"] else 3


def cmd_figures(cfg: RunConfig) -> int:
    fig_conf = cfg.values["figure"]
    if fig_conf["id"] not in ("", *FIGURES):
        raise ConfigError(f"unknown figure {fig_conf['id']!r}; choose from {sorted(FIGURES)}")
    ids = [fig_conf["id"]] if fig_conf["id"] else list(FIGURES)
    gconf = cfg.values["grid"]
    # every panel in output order (its grid filled in below), the figures of each (N, u0) group
    grids, groups = {}, {}
    for f in ids:
        spec = FIGURES[f]
        n = fig_conf["n_platforms"] or spec.n
        for u0 in [fig_conf["u0"]] if fig_conf["u0"] != "" else spec.panel_u0:
            grids[f, n, u0] = None
            groups.setdefault((n, u0), []).append(f)
    # one region_grids call per group, so each stage-1 z-grid is solved once
    for (n, u0), figs in groups.items():
        group = region_grids([FIGURES[f].classifier for f in figs],
                             phi_range=(gconf["phi_min"], gconf["phi_max"]),
                             beta_range=(gconf["beta_min"], gconf["beta_max"]),
                             resolution=gconf["resolution"], n=n, u0=u0, solve_signs=True)
        grids.update(((f, n, u0), grid) for f, grid in zip(figs, group))
    out_dir = cfg.get("output", "dir")
    for (figure, n, u0), grid in grids.items():
        spec = FIGURES[figure]
        # each phi and beta coordinate formatted once per panel
        phis, betas = (["%.17g" % v for v in a.tolist()] for a in (grid.phis, grid.betas))
        agree, checked, frac = grid_agreement(grid)
        paint = figure_paint(figure, grid)
        verdict = np.array([v.value for v in VERDICTS])[grid.verdicts]
        rows = list(zip([phi for phi in phis for _beta in betas], betas * len(phis),
                        *(c.ravel().tolist() for c in (verdict, grid.margins, paint,
                                                       grid.solved_signs))))
        stem = figure if len(spec.panel_u0) == 1 else f"{figure}_u0_{u0:g}"
        comments = _comments(cfg, "figures") + [
            f"figure {stem} n {n:g} u0 {u0:.17g}",
            f"sign agreement {agree}/{checked} = {frac:.17g} (margin > 0.01)",
        ]
        # every panel column holds one type, so the rows share one format
        text = (csv_text(comments, ("phi", "beta", "verdict", "margin", "paint", "solved_sign"),
                         []) + "".join(map(FIGURE_ROW.__mod__, rows)))
        _emit(text, out_dir, f"{stem}.csv", echo=False)
        title = f"{figure}: {spec.description} (N={n:g}, u0={u0:g})"
        legend = [(PAINT_FILL[paint_id], label) for paint_id, label in spec.legend]
        svg = region_svg(grid.phis, grid.betas, paint, figure_threshold_curve(figure, grid),
                         title, legend, width=cfg.get("output", "width"),
                         height=cfg.get("output", "height"))
        _emit(svg, out_dir, f"{stem}.svg", echo=False)
        sys.stdout.write(f"{stem}: {len(rows)} cells, sign agreement "
                         f"{agree}/{checked} ({frac:.4f})\n")
    return 0


def cmd_limits(cfg: RunConfig) -> int:
    params = cfg.market
    pc = perfect_competition_check(params)
    rows = [["large_n", pc.points[-1], pc.achieved_error, pc.tolerance, pc.converged]]
    if params.cross_externalities_zero:
        lo, hi = outside_option_limit_check(params)
        rows.append(["small_u0", lo.points[0], lo.achieved_error, lo.tolerance, lo.converged])
        rows.append(["large_u0", hi.points[0], hi.achieved_error, hi.tolerance, hi.converged])
    text = csv_text(_comments(cfg, "limits"),
                    ("kind", "at", "achieved_error", "tolerance", "converged"), rows)
    _emit(text, cfg.get("output", "dir"), "limits.csv")
    return 0 if all(r[-1] for r in rows) else 3


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

COMMANDS = {
    "solve": (cmd_solve, "solve one parameter point"),
    "compare": (cmd_compare, "competitive vs collusive outputs"),
    "classify": (cmd_classify, "sign/direction region classifiers"),
    "sweep": (cmd_sweep, "parameter sweeps to CSV"),
    "verify": (cmd_verify, "deviation search and second-order checks"),
    "figures": (cmd_figures, "region grids as CSV + SVG"),
    "limits": (cmd_limits, "asymptotic limit checks"),
}
# flag -> the [section] key it overrides; --figure exists on `figures` only.
# Every command runs in one process: --jobs parses, and nothing reads it.
FLAGS = {"regime": ("solve", "regime"), "out": ("output", "dir"),
         "seed": ("output", "seed"), "jobs": ("output", "jobs"), "figure": ("figure", "id")}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="platform-eq",
        description="Two-sided platform market equilibria with an outside option")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_command, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to INI config")
        for flag, (section, key) in FLAGS.items():
            if flag != "figure" or name == "figures":
                p.add_argument(f"--{flag}", help=f"overrides [{section}] {key}")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error is a config error
        return 1 if exc.code else 0
    try:
        cfg = load_config(args.config, {FLAGS[flag]: value for flag, value in vars(args).items()
                                        if flag in FLAGS and value is not None})
        return COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, FixedPointError, ArithmeticError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
