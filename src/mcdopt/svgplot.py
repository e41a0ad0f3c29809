"""Self-contained SVG line charts for convergence curves.

No plotting dependency: the chart is assembled from f-string fragments with
fixed two-decimal coordinate formatting, so regenerating a chart from the
same data yields byte-identical output.
"""

from __future__ import annotations

import math

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 44
MARGIN_BOTTOM = 56

_VALUE_FLOOR = 1e-300  # log-axis guard for values at or below zero


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def convergence_svg(title: str, series: list[tuple[str, str, list[tuple[float, float]]]]) -> str:
    """Render one chart as SVG text.

    `series` is a non-empty list of (label, color, points) with points given
    as (evaluation count, value) pairs, at least one per series. The value
    axis ("best value") is log10-scaled, the evaluation axis ("evaluations")
    is linear.
    """
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    all_points = [p for _, _, pts in series for p in pts]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="24" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{title}</text>',
    ]

    x_max = max(1.0, max(p[0] for p in all_points))
    logs = [math.log10(max(p[1], _VALUE_FLOOR)) for p in all_points]
    y_lo = math.floor(min(logs))
    y_hi = math.ceil(max(logs))
    if y_hi <= y_lo:
        y_hi = y_lo + 1

    def px(nfe: float) -> float:
        return MARGIN_LEFT + nfe / x_max * plot_w

    def py(value: float) -> float:
        lg = math.log10(max(value, _VALUE_FLOOR))
        return MARGIN_TOP + (y_hi - lg) / (y_hi - y_lo) * plot_h

    # frame and grid
    parts.append(f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>')
    tick_step = max(1, math.ceil((y_hi - y_lo) / 6))
    for exponent in range(y_lo, y_hi + 1, tick_step):
        y = py(10.0 ** exponent)
        if exponent not in (y_lo, y_hi):
            parts.append(f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" '
                         f'x2="{MARGIN_LEFT + plot_w}" y2="{_fmt(y)}" '
                         f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="end">1e{exponent}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        nfe = frac * x_max
        x = px(nfe)
        if frac not in (0.0, 1.0):
            parts.append(f'<line x1="{_fmt(x)}" y1="{MARGIN_TOP}" '
                         f'x2="{_fmt(x)}" y2="{MARGIN_TOP + plot_h}" '
                         f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{MARGIN_TOP + plot_h + 18}" '
                     f'font-family="sans-serif" font-size="11" '
                     f'text-anchor="middle">{int(round(nfe))}</text>')

    # axis labels
    parts.append(f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 14}" '
                 f'font-family="sans-serif" font-size="12" '
                 f'text-anchor="middle">evaluations</text>')
    parts.append(f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" '
                 f'font-family="sans-serif" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">best value</text>')

    # curves
    for label, color, points in series:
        coords = " ".join(f"{_fmt(px(n))},{_fmt(py(v))}" for n, v in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')

    # legend, top right inside the frame
    legend_x = MARGIN_LEFT + plot_w - 130
    legend_y = MARGIN_TOP + 14
    for offset, (label, color, _) in enumerate(series):
        y = legend_y + offset * 18
        parts.append(f'<line x1="{legend_x}" y1="{y - 4}" x2="{legend_x + 26}" '
                     f'y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{legend_x + 34}" y="{y}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
