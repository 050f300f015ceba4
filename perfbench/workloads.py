"""Seeded inputs and per-item output checks for the benchmark workloads.

A workload is a list of items; an item is one ``platform-eq`` command
(argv for ``platform_eq.cli.main``) on one generated INI config, and the
program sees nothing but those configs.  Markets come from the acceptance
suite's envelope: N in 2..6, beta in [0.2, 3], phi_own in [-1, 1] with beta
lifted to the CNE existence bound plus a 0.05 margin where phi_own > 0,
u0 in [-2, 2], and cross externalities as each workload states (zero, or
uniform in [-0.05, 0.05]).  The stdlib RNG draws them, so a seed gives the
same configs under any numpy.  This module imports nothing from the package
under test.

Each checked output unit (a sweep row, a figure panel, a certified market)
counts once towards ``attempted``; a unit fails when its command raises or
exits non-zero, or when the unit fails its check.  Failed units are reported,
never retried or dropped.  A run is ``correct`` when every command ran as
specified: it exited with one of the CLI's declared codes and every expected
output unit was there to check.  A failed check on a unit that was produced
(a SolverError row, a residual over the C3 gate, a panel below 0.99
agreement, an uncertified market) counts in ``failed``, not against
``correct``.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics

WORKLOADS = ("sweep-decoupled", "sweep-coupled", "figures", "certify")

CROSS = 0.05              # |phi_bs|, |phi_sb| bound of the acceptance envelope
EXISTENCE_MARGIN = 0.05   # beta lift above the CNE existence bound
DECOUPLED_MARKETS = 4     # 21-point u0 sweeps over the CLI's default range [-5, 5]
DECOUPLED_STEP = 0.5
COUPLED_MARKETS = 4       # 3-point u0 sweeps over the same range
COUPLED_STEP = 5.0
CERTIFY_MARKETS = 80      # the cost per market has a heavy tail; 80 average it
FIGURE_RESOLUTION = 50    # per-cell work already dominates here
# the paper's eight panels: (stem, N); fig3 is the N = 200 limit figure
FIGURE_PANELS = (("fig1", 4), ("fig2_u0_-1", 4), ("fig2_u0_0.5", 4),
                 ("fig3_u0_-1", 200), ("fig3_u0_1", 200), ("fig4", 4),
                 ("fig5", 4), ("fig6", 4))
PHI_WINDOW = (-2.0, 2.0)
BETA_WINDOW = (0.0, 2.0)
C3_GATE = 1e-10           # foc_residual and price_check bound per sweep row
AGREEMENT_MIN = 0.99      # C10 sign agreement per figure panel


def cne_existence_bound(n: float) -> float:
    return 2.0 * (n - 1.0) / (n * n)


def draw_markets(rng: random.Random, count: int, cross: float) -> list[dict]:
    """count markets from the envelope, by Latin hypercube.

    Each coordinate's range is cut into count equal strata and every stratum
    is drawn once, and N cycles through 2..6 from a random start, so every
    seed covers the envelope evenly and the work per seed varies less.
    """
    def column(lo, hi):
        strata = list(range(count))
        rng.shuffle(strata)
        return [lo + (hi - lo) * (s + rng.random()) / count for s in strata]

    start = rng.randrange(5)
    ns = [2 + (start + i) % 5 for i in range(count)]
    rng.shuffle(ns)
    beta_b, beta_s = column(0.2, 3.0), column(0.2, 3.0)
    phi_bb, phi_ss = column(-1.0, 1.0), column(-1.0, 1.0)
    phi_bs, phi_sb = column(-cross, cross), column(-cross, cross)
    u0_b, u0_s = column(-2.0, 2.0), column(-2.0, 2.0)
    markets = []
    for i, n in enumerate(ns):
        beta = [beta_b[i], beta_s[i]]
        phi_own = [phi_bb[i], phi_ss[i]]
        for k in (0, 1):
            if phi_own[k] > 0:
                beta[k] = max(beta[k], cne_existence_bound(n) * phi_own[k] + EXISTENCE_MARGIN)
        markets.append({"n_platforms": n, "beta_b": beta[0], "beta_s": beta[1],
                        "phi_bb": phi_own[0], "phi_bs": phi_bs[i], "phi_sb": phi_sb[i],
                        "phi_ss": phi_own[1], "u0_b": u0_b[i], "u0_s": u0_s[i]})
    return markets


def contraction_margin(m: dict) -> float:
    """1 - max_k sum_l |phi_kl| / (2 min beta): the stage-2 uniqueness certificate."""
    row = max(abs(m["phi_bb"]) + abs(m["phi_bs"]), abs(m["phi_sb"]) + abs(m["phi_ss"]))
    return 1.0 - row / (2.0 * min(m["beta_b"], m["beta_s"]))


def ini_text(sections: dict) -> str:
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        for key, v in values.items():
            # repr(float) round-trips exactly and never leaks a numpy repr
            text = repr(float(v)) if isinstance(v, float) else str(v)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def _write(path: str, sections: dict) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(ini_text(sections))
    return path


def _sweep_items(rng, work_dir, count, cross, step):
    points = round(10.0 / step) + 1
    items = []
    markets = draw_markets(rng, count, cross)
    for i, market in enumerate(markets):
        cfg = _write(os.path.join(work_dir, f"sweep{i}.ini"), {
            "market": market,
            "sweep": {"axis": "u0", "start": -5.0, "stop": 5.0, "step": step,
                      "derivatives": "true"},
            "solve": {"regime": "both"},
            "output": {"jobs": 1}})
        items.append({"name": f"sweep{i}", "kind": "sweep",
                      "argv": ["sweep", "--config", cfg, "--jobs", "1"],
                      "expect": 2 * points})
    coupled = sum(1 for m in markets if m["phi_bs"] != 0.0 or m["phi_sb"] != 0.0)
    props = {"markets": count, "points_per_market": points,
             "coupled_point_share": coupled / count,
             "n_platforms": [m["n_platforms"] for m in markets]}
    return items, props


def _figure_items(rng, work_dir):
    res = FIGURE_RESOLUTION
    shift_phi, shift_beta = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    d_phi = (PHI_WINDOW[1] - PHI_WINDOW[0]) / res
    d_beta = (BETA_WINDOW[1] - BETA_WINDOW[0]) / res
    phi_range = (PHI_WINDOW[0] + shift_phi * d_phi, PHI_WINDOW[1] + shift_phi * d_phi)
    beta_range = (BETA_WINDOW[0] + shift_beta * d_beta, BETA_WINDOW[1] + shift_beta * d_beta)
    cfg = _write(os.path.join(work_dir, "figures.ini"), {
        # [market] is required by the schema; figures ignore it
        "market": {"n_platforms": 2, "beta_b": 1.0, "beta_s": 1.0},
        "grid": {"phi_min": phi_range[0], "phi_max": phi_range[1],
                 "beta_min": beta_range[0], "beta_max": beta_range[1],
                 "resolution": res},
        "output": {"jobs": 1}})
    out = os.path.join(work_dir, "figures-out")
    items = [{"name": "figures", "kind": "figures", "out": out,
              "argv": ["figures", "--config", cfg, "--out", out, "--jobs", "1"],
              "expect": len(FIGURE_PANELS)}]
    outside = 0
    for _stem, n in FIGURE_PANELS:
        bound = cne_existence_bound(n)
        for i in range(res):
            phi = phi_range[0] + (i + 0.5) * d_phi
            for j in range(res):
                beta = beta_range[0] + (j + 0.5) * d_beta
                outside += phi > 0 and beta <= bound * phi
    props = {"resolution": res, "panels": len(FIGURE_PANELS),
             "window_shift_cells": [shift_phi, shift_beta],
             "outside_existence_share": outside / (len(FIGURE_PANELS) * res * res)}
    return items, props


def _certify_items(rng, work_dir):
    items = []
    markets = draw_markets(rng, CERTIFY_MARKETS, CROSS)
    margins = [contraction_margin(m) for m in markets]
    for i, market in enumerate(markets):
        cfg = _write(os.path.join(work_dir, f"certify{i}.ini"),
                     {"market": market, "output": {"jobs": 1}})
        items.append({"name": f"certify{i}", "kind": "verify",
                      "argv": ["verify", "--config", cfg, "--jobs", "1"], "expect": 1})
    props = {"markets": CERTIFY_MARKETS,
             "contraction_margin": {"min": min(margins),
                                    "median": statistics.median(margins),
                                    "max": max(margins)},
             "nonpositive_margin_share": sum(m <= 0 for m in margins) / len(margins)}
    return items, props


def build(workload: str, seed: int, work_dir: str) -> tuple[list[dict], dict]:
    """Write the workload's configs under work_dir; return (items, input properties)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-decoupled":
        return _sweep_items(rng, work_dir, DECOUPLED_MARKETS, 0.0, DECOUPLED_STEP)
    if workload == "sweep-coupled":
        return _sweep_items(rng, work_dir, COUPLED_MARKETS, CROSS, COUPLED_STEP)
    if workload == "figures":
        return _figure_items(rng, work_dir)
    if workload == "certify":
        return _certify_items(rng, work_dir)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# per-unit output checks: list of (unit, failure reason or None)
# --------------------------------------------------------------------------

UNREADABLE = "unreadable output"


def _as_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _check_sweep(item, stdout):
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    units = []
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        unit = f"{item['name']}/row{r}"
        if len(cells) != len(header):
            units.append((unit, f"{UNREADABLE}: {len(cells)} cells, header has {len(header)}"))
            continue
        unit += f"/{cells[col['regime']]}@u0={cells[col['u0_b']]}"
        reason = None
        if cells[col["error"]]:
            reason = f"error column: {cells[col['error']]}"
        elif any(c.startswith("error:") for c in cells):
            reason = "derivative cell " + next(c for c in cells if c.startswith("error:"))
        else:
            for name in ("foc_residual", "price_check"):
                value = _as_float(cells[col[name]])
                if not value <= C3_GATE:
                    reason = f"{name} {cells[col[name]]} above {C3_GATE:g}"
                    break
        units.append((unit, reason))
    return units


_PANEL_LINE = re.compile(r"^(\S+): (\d+) cells, sign agreement (\d+)/(\d+) ")


def _check_figures(item, stdout):
    units = []
    for line in stdout.splitlines():
        m = _PANEL_LINE.match(line)
        if not m:
            continue
        stem, cells, agree, checked = m.group(1), *map(int, m.groups()[1:])
        reason = None
        if cells != FIGURE_RESOLUTION ** 2:
            reason = f"{cells} cells, expected {FIGURE_RESOLUTION ** 2}"
        elif checked == 0:
            reason = "no cell checked"
        elif agree / checked < AGREEMENT_MIN:
            reason = f"sign agreement {agree}/{checked} below {AGREEMENT_MIN}"
        else:
            for ext in ("csv", "svg"):
                path = os.path.join(item["out"], f"{stem}.{ext}")
                if not (os.path.isfile(path) and os.path.getsize(path) > 0):
                    reason = f"{stem}.{ext} not written"
        units.append((f"figures/{stem}", reason))
    return units


def _check_verify(item, stdout):
    try:
        passed = json.loads(stdout)["passed"]
    except (ValueError, KeyError, TypeError):
        return [(item["name"], f"{UNREADABLE}: verify output is not the expected JSON")]
    return [(item["name"], None if passed is True else "verify reports passed = false")]


_CHECKS = {"sweep": _check_sweep, "figures": _check_figures, "verify": _check_verify}
# the CLI's declared outcomes: 0 success, 2 solver failure, 3 verification failure
DECLARED_EXIT_CODES = (0, 2, 3)


def check(item: dict, code, stdout: str, stderr: str) -> tuple[list, bool]:
    """Check one command's output.

    Returns (units, broken): item['expect'] or more (unit, failure reason or
    None) pairs, and whether the command did not run as specified -- it
    crashed, exited with a code the CLI does not declare, or left output
    units missing or unreadable.
    """
    if code != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        reason = f"exit code {code}: {last}"
        units = [(f"{item['name']}/unit{i}", reason) for i in range(item["expect"])]
        return units, code not in DECLARED_EXIT_CODES
    units = _CHECKS[item["kind"]](item, stdout)
    missing = item["expect"] - len(units)
    units += [(f"{item['name']}/missing{i}", "output unit missing") for i in range(missing)]
    unreadable = any(r is not None and r.startswith(UNREADABLE) for _, r in units)
    return units, missing > 0 or unreadable
