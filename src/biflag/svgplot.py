"""Dependency-free SVG line plots from result tables.

Output is plain text assembled with fixed number formats, so identical
tables always produce identical bytes.
"""

from __future__ import annotations

from .errors import DomainError
from .sweep import Table

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 24, 56
N_TICKS = 5

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
           "#9467bd", "#8c564b", "#e377c2")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _span(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return lo, hi
    pad = max(abs(lo) * 0.5, 1.0)
    return lo - pad, lo + pad


def emit_plot(table: Table, path) -> None:
    """Write a standalone SVG line plot; one polyline per data column.

    Column 0 supplies the x coordinates and the x-axis label; the y axis
    is labelled ``outputs``. Raises DomainError on an empty table.
    """
    if not table.rows or len(table.columns) < 2:
        raise DomainError("emit_plot requires a table with rows and >= 2 columns")
    xs = [row[0] for row in table.rows]
    series = [(table.columns[i], [row[i] for row in table.rows])
              for i in range(1, len(table.columns))]
    x_lo, x_hi = _span(min(xs), max(xs))
    all_y = [v for _, ys in series for v in ys]
    y_lo, y_hi = _span(min(all_y), max(all_y))

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    axis_style = 'stroke="#000000" stroke-width="1"'
    x0, y0 = _fmt(MARGIN_LEFT), _fmt(HEIGHT - MARGIN_BOTTOM)
    x1, y1 = _fmt(WIDTH - MARGIN_RIGHT), _fmt(MARGIN_TOP)
    lines.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {axis_style}/>')
    lines.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {axis_style}/>')

    for i in range(N_TICKS):
        frac = i / (N_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        xp = _fmt(px(xv))
        yb = HEIGHT - MARGIN_BOTTOM
        lines.append(f'<line x1="{xp}" y1="{yb}" x2="{xp}" y2="{yb + 5}" {axis_style}/>')
        lines.append(f'<text x="{xp}" y="{yb + 18}" font-size="11" '
                     f'font-family="monospace" text-anchor="middle">{xv:.6g}</text>')
        yv = y_lo + frac * (y_hi - y_lo)
        yp = _fmt(py(yv))
        lines.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{yp}" '
                     f'x2="{MARGIN_LEFT}" y2="{yp}" {axis_style}/>')
        lines.append(f'<text x="{MARGIN_LEFT - 8}" y="{yp}" font-size="11" '
                     f'font-family="monospace" text-anchor="end" '
                     f'dominant-baseline="middle">{yv:.6g}</text>')

    lines.append(f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2}" '
                 f'y="{HEIGHT - 12}" font-size="12" font-family="monospace" '
                 f'text-anchor="middle">{table.columns[0]}</text>')
    lines.append(f'<text x="16" y="{(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) // 2}" '
                 f'font-size="12" font-family="monospace" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) // 2})"'
                 '>outputs</text>')

    for idx, (name, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}"
                          for x, y in zip(xs, ys))
        lines.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        ly = MARGIN_TOP + 14 + 14 * idx
        lx = WIDTH - MARGIN_RIGHT - 8
        lines.append(f'<text x="{lx}" y="{ly}" font-size="11" '
                     f'font-family="monospace" text-anchor="end" '
                     f'fill="{color}">{name}</text>')

    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
