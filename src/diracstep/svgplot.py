"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the output depends only on the arrays and the
PlotSpec (no timestamps, no library version strings, no font metrics), so
identical invocations are byte-identical and plots can be diffed in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH = 640
_HEIGHT = 420
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 46.0


@dataclass(frozen=True)
class PlotSpec:
    """The labels of a plot and its dashed vertical rules (x, label)."""

    title: str = ""
    x_label: str = ""
    y_label: str = ""
    vlines: tuple[tuple[float, str], ...] = ()


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions (1/2/5 x 10^m spacing) covering [lo, hi]."""
    span = hi - lo
    raw = span / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 5.0):
        if span / (mult * magnitude) <= target:
            step = mult * magnitude
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [i * step for i in range(first, last + 1)]


def _coord(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    return format(v, "g")


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(x: Sequence[float], series: Mapping[str, Sequence[float]],
               spec: PlotSpec) -> str:
    """Render each series of y values against x as an SVG document string
    (deterministic byte-for-byte).

    ``series`` maps legend labels to y arrays as long as ``x``; its order
    sets the colours and the legend.  Points whose x or y is not finite
    are left out of the curves and of the axis ranges.
    """
    if not series:
        raise ValueError("at least one series is required")
    xs = np.asarray(x, dtype=float)
    if len(xs) < 2:
        raise ValueError(f"need at least 2 rows to plot, got {len(xs)}")
    finite_x = np.isfinite(xs)
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for label, y in series.items():
        ys = np.asarray(y, dtype=float)
        if len(ys) != len(xs):
            raise ValueError(f"series {label!r} has {len(ys)} values for {len(xs)} x values")
        keep = finite_x & np.isfinite(ys)
        if np.count_nonzero(keep) < 2:
            raise ValueError(f"series {label!r} has fewer than 2 finite points")
        curves[label] = (xs[keep], ys[keep])

    x_lo, x_hi = float(xs[finite_x].min()), float(xs[finite_x].max())
    y_lo = min(float(ys.min()) for _, ys in curves.values())
    y_hi = max(float(ys.max()) for _, ys in curves.values())
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    # breathing room so curves do not sit on the frame
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_coord(_MARGIN_LEFT)}" y="{_coord(_MARGIN_TOP)}" '
        f'width="{_coord(plot_w)}" height="{_coord(plot_h)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]

    bottom = _MARGIN_TOP + plot_h
    for tx in _nice_ticks(x_lo, x_hi):
        p = px(tx)
        out.append(
            f'<line x1="{_coord(p)}" y1="{_coord(bottom)}" x2="{_coord(p)}" '
            f'y2="{_coord(bottom + 5)}" stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_coord(p)}" y="{_coord(bottom + 18)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{_tick_label(tx)}</text>'
        )
    for ty in _nice_ticks(y_lo, y_hi):
        p = py(ty)
        out.append(
            f'<line x1="{_coord(_MARGIN_LEFT - 5)}" y1="{_coord(p)}" '
            f'x2="{_coord(_MARGIN_LEFT)}" y2="{_coord(p)}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_coord(_MARGIN_LEFT - 8)}" y="{_coord(p + 4)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{_tick_label(ty)}</text>'
        )

    for x_rule, label in spec.vlines:
        if not x_lo <= x_rule <= x_hi:
            continue
        p = px(x_rule)
        out.append(
            f'<line x1="{_coord(p)}" y1="{_coord(_MARGIN_TOP)}" x2="{_coord(p)}" '
            f'y2="{_coord(bottom)}" stroke="#555555" stroke-width="1" '
            'stroke-dasharray="4,3"/>'
        )
        if label:
            out.append(
                f'<text x="{_coord(p + 4)}" y="{_coord(_MARGIN_TOP + 12)}" '
                f'font-size="11" font-family="sans-serif" fill="#555555">'
                f"{_escape(label)}</text>"
            )

    for i, (xv, yv) in enumerate(curves.values()):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join("%.2f,%.2f" % p for p in zip(px(xv).tolist(), py(yv).tolist()))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )

    legend_x = _MARGIN_LEFT + plot_w - 110
    legend_y = _MARGIN_TOP + 10
    for i, label in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        y = legend_y + 16 * i
        out.append(
            f'<line x1="{_coord(legend_x)}" y1="{_coord(y)}" '
            f'x2="{_coord(legend_x + 20)}" y2="{_coord(y)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_coord(legend_x + 26)}" y="{_coord(y + 4)}" font-size="11" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )

    if spec.title:
        out.append(
            f'<text x="{_coord(_WIDTH / 2)}" y="20" font-size="14" '
            f'font-family="sans-serif" text-anchor="middle">{_escape(spec.title)}</text>'
        )
    if spec.x_label:
        out.append(
            f'<text x="{_coord(_MARGIN_LEFT + plot_w / 2)}" '
            f'y="{_coord(_HEIGHT - 8)}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle">{_escape(spec.x_label)}</text>'
        )
    if spec.y_label:
        cx, cy = 16.0, _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{_coord(cx)}" y="{_coord(cy)}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'transform="rotate(-90 {_coord(cx)} {_coord(cy)})">'
            f"{_escape(spec.y_label)}</text>"
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
