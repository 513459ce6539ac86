"""Minimal self-contained SVG line plots.

Deterministic output: fixed viewport, fixed colours, `%.6g` number
formatting, no timestamps or generated ids, so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

from typing import Optional, Sequence

_COLOR = "#1f77b4"

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_plot(
    label: str,
    xs: Sequence[float],
    ys: Sequence[float],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    hline: Optional[tuple[str, float]] = None,
) -> str:
    """Render one labelled (xs, ys) curve as an SVG document string."""
    xs_all, ys_all = list(xs), list(ys)
    if hline is not None:
        ys_all.append(hline[1])
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>'
    )
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.0f})">{ylabel}</text>'
    )
    # tick labels at the extremes
    for x in (x_lo, x_hi):
        out.append(
            f'<text x="{px(x):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{_fmt(x)}</text>'
        )
    for y in (y_lo, y_hi):
        out.append(
            f'<text x="{_ML - 6}" y="{py(y):.1f}" text-anchor="end" dominant-baseline="middle">'
            f"{_fmt(y)}</text>"
        )

    if hline is not None:
        hline_label, y = hline
        out.append(
            f'<line x1="{_ML}" y1="{py(y):.2f}" x2="{_W - _MR}" y2="{py(y):.2f}" '
            f'stroke="#555555" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 4}" y="{py(y) - 5:.2f}" text-anchor="end" '
            f'fill="#555555">{hline_label}</text>'
        )

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    out.append(f'<polyline fill="none" stroke="{_COLOR}" stroke-width="1.5" points="{points}"/>')
    if label:
        ly = _MT + 16
        out.append(f'<line x1="{_W - 170}" y1="{ly - 4}" x2="{_W - 146}" y2="{ly - 4}" stroke="{_COLOR}" stroke-width="1.5"/>')
        out.append(f'<text x="{_W - 140}" y="{ly}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
