"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the output depends only on the input rows and the
PlotSpec (no timestamps, no library version strings, no font metrics), so
identical invocations are byte-identical and plots can be diffed in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence
from xml.sax.saxutils import escape

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 46.0


@dataclass(frozen=True)
class PlotSpec:
    """What to draw: one x column against one or more y columns."""

    x_column: str
    y_columns: tuple[str, ...]
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    width: int = 640
    height: int = 420
    vlines: tuple[tuple[float, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "y_columns", tuple(self.y_columns))
        object.__setattr__(self, "vlines", tuple(self.vlines))
        if not self.y_columns:
            raise ValueError("at least one y column is required")
        if self.width < 100 or self.height < 100:
            raise ValueError("plot dimensions must be at least 100x100 pixels")


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


def render_svg(rows: Sequence[Mapping[str, float]], spec: PlotSpec) -> str:
    """Render rows as an SVG document string (deterministic byte-for-byte).

    Points whose x or y is not finite are left out of the curves and of
    the axis ranges.
    """
    if len(rows) < 2:
        raise ValueError(f"need at least 2 rows to plot, got {len(rows)}")
    columns = (spec.x_column,) + spec.y_columns
    for i, row in enumerate(rows):
        for col in columns:
            if col not in row:
                raise ValueError(f"row {i} is missing column {col!r}")

    xs = [float(row[spec.x_column]) for row in rows]
    series: dict[str, list[tuple[float, float]]] = {}
    all_y: list[float] = []
    for col in spec.y_columns:
        pts = [
            (x, float(row[col]))
            for x, row in zip(xs, rows)
            if math.isfinite(x) and math.isfinite(float(row[col]))
        ]
        if len(pts) < 2:
            raise ValueError(f"column {col!r} has fewer than 2 finite points")
        series[col] = pts
        all_y.extend(y for _, y in pts)

    finite_xs = [x for x in xs if math.isfinite(x)]
    x_lo, x_hi = min(finite_xs), max(finite_xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    # breathing room so curves do not sit on the frame
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    plot_w = spec.width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = spec.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
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
                f"{escape(label)}</text>"
            )

    for i, col in enumerate(spec.y_columns):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{_coord(px(x))},{_coord(py(y))}" for x, y in series[col]
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )

    legend_x = _MARGIN_LEFT + plot_w - 110
    legend_y = _MARGIN_TOP + 10
    for i, col in enumerate(spec.y_columns):
        color = _PALETTE[i % len(_PALETTE)]
        y = legend_y + 16 * i
        out.append(
            f'<line x1="{_coord(legend_x)}" y1="{_coord(y)}" '
            f'x2="{_coord(legend_x + 20)}" y2="{_coord(y)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_coord(legend_x + 26)}" y="{_coord(y + 4)}" font-size="11" '
            f'font-family="sans-serif">{escape(col)}</text>'
        )

    if spec.title:
        out.append(
            f'<text x="{_coord(spec.width / 2)}" y="20" font-size="14" '
            f'font-family="sans-serif" text-anchor="middle">{escape(spec.title)}</text>'
        )
    if spec.x_label:
        out.append(
            f'<text x="{_coord(_MARGIN_LEFT + plot_w / 2)}" '
            f'y="{_coord(spec.height - 8)}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle">{escape(spec.x_label)}</text>'
        )
    if spec.y_label:
        cx, cy = 16.0, _MARGIN_TOP + plot_h / 2
        out.append(
            f'<text x="{_coord(cx)}" y="{_coord(cy)}" font-size="12" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'transform="rotate(-90 {_coord(cx)} {_coord(cy)})">'
            f"{escape(spec.y_label)}</text>"
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
