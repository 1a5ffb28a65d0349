"""Minimal native SVG log-log plots (norm decay curves with slope guides)."""

from __future__ import annotations

import math

__all__ = ["write_loglog_svg"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
XLABEL, YLABEL = "t", "norm"
WIDTH, HEIGHT = 640, 440


def _ticks(lo: float, hi: float):
    first = math.ceil(math.log10(lo))
    last = math.floor(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


def write_loglog_svg(path, curves, guides=(), title=""):
    """curves: [(label, xs, ys)]; guides: [(label, slope, x0, y0)] drawn as
    dashed lines y = y0 * (x/x0)^slope."""
    pts = [(x, y) for _, xs, ys in curves for x, y in zip(xs, ys)
           if x > 0 and y > 0]
    if not pts:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    y_lo = max(y_lo, y_hi * 1e-12)
    margin, width, height = 58, WIDTH, HEIGHT
    span_x = math.log10(x_hi) - math.log10(x_lo) or 1.0
    span_y = math.log10(y_hi) - math.log10(y_lo) or 1.0

    def sx(x):
        return margin + (math.log10(x) - math.log10(x_lo)) / span_x * (width - 2 * margin)

    def sy(y):
        return height - margin - (math.log10(y) - math.log10(y_lo)) / span_y * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" '
        f'height="{height-2*margin}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{width/2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(tx):.1f}" y1="{margin}" x2="{sx(tx):.1f}" '
                     f'y2="{height-margin}" stroke="#ddd"/>')
        parts.append(f'<text x="{sx(tx):.1f}" y="{height-margin+16}" '
                     f'text-anchor="middle">1e{int(math.log10(tx))}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{margin}" y1="{sy(ty):.1f}" x2="{width-margin}" '
                     f'y2="{sy(ty):.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{margin-6}" y="{sy(ty)+4:.1f}" '
                     f'text-anchor="end">1e{int(math.log10(ty))}</text>')
    parts.append(f'<text x="{width/2:.1f}" y="{height-12}" '
                 f'text-anchor="middle">{XLABEL}</text>')
    parts.append(f'<text x="16" y="{height/2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {height/2:.1f})">{YLABEL}</text>')

    for idx, (label, slope, x0, y0) in enumerate(guides):
        xs = [x_lo, x_hi]
        d = " ".join(
            f"{sx(x):.1f},{sy(max(y0 * (x / x0) ** slope, y_lo)):.1f}" for x in xs
        )
        parts.append(f'<polyline points="{d}" fill="none" stroke="#888" '
                     f'stroke-dasharray="6 4"/>')
        parts.append(f'<text x="{width-margin-4}" '
                     f'y="{sy(max(y0 * (x_hi / x0) ** slope, y_lo))-4:.1f}" '
                     f'text-anchor="end" fill="#666">{label}</text>')

    for idx, (label, xs, ys) in enumerate(curves):
        color = _COLORS[idx % len(_COLORS)]
        d = " ".join(f"{sx(x):.1f},{sy(max(y, y_lo)):.1f}"
                     for x, y in zip(xs, ys) if x > 0 and y > 0)
        parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{margin+6}" y="{margin+14+13*idx}" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
