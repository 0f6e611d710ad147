"""Minimal SVG scatter plots with optional log axes and fitted lines.

Kept dependency-free on purpose: the laboratory's plots are diagnostic
scatter-plus-line figures, and a hand-rolled writer keeps the output bytes
deterministic.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
COLORS = ["#1f6fb4", "#d1495b", "#2e8b57", "#8a5fbf", "#c98a00"]
# Linear axes narrower than this fraction of their values' magnitude are
# degenerate: it is the relative residual every linear solve of the
# laboratory is held to, so a narrower spread is solver and rounding noise.
_NARROW_RTOL = 1e-10
# Near zero, where that fraction falls below the float spacing, an axis
# this many ulps wide is degenerate.
_NARROW_ULPS = 16


def _narrow(lo, hi):
    """True when a linear range is narrow relative to its values (or
    empty): it then gets the treatment of equal values, since its width is
    rounding noise."""
    mag = max(abs(lo), abs(hi))
    return not hi - lo > max(_NARROW_RTOL * mag, _NARROW_ULPS * math.ulp(mag))


def _linear_limits(lo, hi):
    """Data limits padded by 5% of their range, or of their magnitude (unit
    when zero) for a narrow range."""
    pad = 0.05 * ((max(abs(lo), abs(hi)) or 1.0) if _narrow(lo, hi) else hi - lo)
    return lo - pad, hi + pad


def _transform(vals, lo, hi, out_lo, out_hi, log):
    if log:
        vals = [math.log10(v) for v in vals]
        lo, hi = math.log10(lo), math.log10(hi)
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _ticks(lo, hi, log):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = hi - lo
    # A narrow range has no distinct round ticks inside it; it gets a unit
    # span, or the values' magnitude when larger, so at most one tick falls
    # inside.
    if _narrow(lo, hi):
        span = max(1.0, abs(lo), abs(hi))
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    count = math.floor((hi + 1e-12 * span - first) / step) + 1
    return [first + i * step for i in range(max(count, 0))]


def render_scatter(
    path,
    series,
    lines=(),
    logx=False,
    logy=False,
    title="",
    xlabel="",
    ylabel="",
):
    """Write a scatter plot.

    series: list of (label, xs, ys).  lines: list of (label, xs, ys) drawn as
    polylines.  Log axes require positive data.
    """
    all_x = [x for _, xs, _ in list(series) + list(lines) for x in xs]
    all_y = [y for _, _, ys in list(series) + list(lines) for y in ys]
    if not all_x:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if logx and x_lo <= 0 or logy and y_lo <= 0:
        raise ValueError("log axes need positive data")
    if not logx:
        x_lo, x_hi = _linear_limits(x_lo, x_hi)
    else:
        x_lo, x_hi = x_lo / 1.3, x_hi * 1.3
    if not logy:
        y_lo, y_hi = _linear_limits(y_lo, y_hi)
    else:
        y_lo, y_hi = y_lo / 1.3, y_hi * 1.3

    def sx(vals):
        return _transform(vals, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R, logx)

    def sy(vals):
        return _transform(vals, y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T, logy)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{MARGIN_T - 14}" text-anchor="middle" '
            f'font-size="15" font-family="sans-serif">{title}</text>'
        )
    for tick in _ticks(x_lo, x_hi, logx):
        (px,) = sx([tick])
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#444"/>'
        )
        label = f"1e{int(round(math.log10(tick)))}" if logx else f"{tick:.4g}"
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{label}</text>'
        )
    for tick in _ticks(y_lo, y_hi, logy):
        (py,) = sy([tick])
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" '
            'stroke="#444"/>'
        )
        label = f"1e{int(round(math.log10(tick)))}" if logy else f"{tick:.4g}"
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{label}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-size="13" '
            f'font-family="sans-serif" transform="rotate(-90 16 {HEIGHT / 2:.1f})">'
            f"{ylabel}</text>"
        )

    legend_y = MARGIN_T + 14
    for idx, (label, xs, ys) in enumerate(lines):
        color = COLORS[(idx + len(series)) % len(COLORS)]
        px, py = sx(list(xs)), sy(list(ys))
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5" stroke-dasharray="6 3"/>')
        if label:
            parts.append(
                f'<text x="{WIDTH - MARGIN_R - 8}" y="{legend_y}" text-anchor="end" '
                f'font-size="12" font-family="sans-serif" fill="{color}">{label}</text>'
            )
            legend_y += 16
    for idx, (label, xs, ys) in enumerate(series):
        color = COLORS[idx % len(COLORS)]
        px, py = sx(list(xs)), sy(list(ys))
        for x, y in zip(px, py):
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}"/>')
        if label:
            parts.append(
                f'<text x="{WIDTH - MARGIN_R - 8}" y="{legend_y}" text-anchor="end" '
                f'font-size="12" font-family="sans-serif" fill="{color}">{label}</text>'
            )
            legend_y += 16
    parts.append("</svg>")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
