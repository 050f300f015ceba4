"""Minimal self-contained SVG 1.1 emitter for region plots.

No external assets, fonts, or libraries: colored run-length-merged cell
rectangles, axes with ticks, an overlaid threshold polyline, and a text
legend.  Red shades negative/decreasing regions, blue positive/increasing.
"""

from __future__ import annotations

import numpy as np

RED = "#e05252"
BLUE = "#5b8dd9"
GRAY = "#e8e8e8"
CURVE = "#222222"

PAINT_FILL = {1: BLUE, -1: RED, 0: GRAY}
XLABEL, YLABEL = "phi_kk", "beta_k"
# px between the SVG's edges and the plot area: left, right, top, bottom
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 62.0, 16.0, 34.0, 46.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    raw = np.linspace(lo, hi, count)
    return [float(t) for t in raw]


def _runs(paint):
    """(column i, first row j, end row, value) of each run of one value along
    the columns of paint, rows j to end - 1, split where np.diff is nonzero."""
    paint = np.asarray(paint)
    for i, (column, steps) in enumerate(zip(paint.tolist(), np.diff(paint, axis=1))):
        cuts = (np.flatnonzero(steps) + 1).tolist()
        for j, end in zip([0, *cuts], [*cuts, len(column)]):
            yield i, j, end, column[j]


def region_svg(phis, betas, paint, curve, title: str,
               legend: list[tuple[str, str]], width: int = 640, height: int = 480) -> str:
    """Render a painted (phi, beta) grid with an overlaid boundary polyline.

    paint: integer array (len(phis), len(betas)) with +1 blue / -1 red / 0 gray.
    curve: list of (phi, beta) points for the boundary overlay.
    legend: list of (color, text) entries.
    """
    phis = np.asarray(phis, dtype=float)
    betas = np.asarray(betas, dtype=float)
    ml, mr, mt, mb = MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM
    pw, ph = width - ml - mr, height - mt - mb
    phi_lo = float(phis[0] - 0.5 * (phis[1] - phis[0])) if len(phis) > 1 else float(phis[0]) - 0.5
    phi_hi = float(phis[-1] + 0.5 * (phis[1] - phis[0])) if len(phis) > 1 else float(phis[0]) + 0.5
    b_lo = float(betas[0] - 0.5 * (betas[1] - betas[0])) if len(betas) > 1 else float(betas[0]) - 0.5
    b_hi = float(betas[-1] + 0.5 * (betas[1] - betas[0])) if len(betas) > 1 else float(betas[0]) + 0.5

    def sx(phi: float) -> float:
        return ml + (phi - phi_lo) / (phi_hi - phi_lo) * pw

    def sy(beta: float) -> float:
        return mt + (b_hi - beta) / (b_hi - b_lo) * ph

    cell_w = pw / len(phis)
    cell_h = ph / len(betas)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # cells, run-length merged along beta within each phi column
    for i, j, end, v in _runs(paint):
        x = ml + i * cell_w
        y_top = mt + (len(betas) - end) * cell_h
        h = (end - j) * cell_h
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y_top)}" width="{_fmt(cell_w + 0.35)}" '
                     f'height="{_fmt(h + 0.35)}" fill="{PAINT_FILL[v]}"/>')
    # threshold curve, clipped to the plot box
    pts = [(sx(p), sy(min(max(b, b_lo), b_hi))) for p, b in curve if phi_lo <= p <= phi_hi]
    if len(pts) >= 2:
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{CURVE}" stroke-width="1.4"/>')
    # frame and axes
    parts.append(f'<rect x="{_fmt(ml)}" y="{_fmt(mt)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
                 f'fill="none" stroke="#333333" stroke-width="1"/>')
    for t in _ticks(phi_lo, phi_hi):
        x = sx(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(mt + ph)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(mt + ph + 4)}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(mt + ph + 17)}" font-size="11" '
                     f'font-family="monospace" text-anchor="middle">{t:g}</text>')
    for t in _ticks(b_lo, b_hi):
        y = sy(t)
        parts.append(f'<line x1="{_fmt(ml - 4)}" y1="{_fmt(y)}" x2="{_fmt(ml)}" '
                     f'y2="{_fmt(y)}" stroke="#333333" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(ml - 7)}" y="{_fmt(y + 3.5)}" font-size="11" '
                     f'font-family="monospace" text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{_fmt(ml + pw / 2)}" y="{_fmt(height - 10)}" font-size="12" '
                 f'font-family="monospace" text-anchor="middle">{XLABEL}</text>')
    parts.append(f'<text x="14" y="{_fmt(mt + ph / 2)}" font-size="12" font-family="monospace" '
                 f'text-anchor="middle" transform="rotate(-90 14 {_fmt(mt + ph / 2)})">{YLABEL}</text>')
    parts.append(f'<text x="{_fmt(ml)}" y="20" font-size="13" font-family="monospace">{title}</text>')
    y_leg = mt + 14
    for color, text in legend:
        parts.append(f'<rect x="{_fmt(ml + pw - 188)}" y="{_fmt(y_leg - 9)}" width="10" height="10" '
                     f'fill="{color}" stroke="#333333" stroke-width="0.5"/>')
        parts.append(f'<text x="{_fmt(ml + pw - 174)}" y="{_fmt(y_leg)}" font-size="11" '
                     f'font-family="monospace">{text}</text>')
        y_leg += 15
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
