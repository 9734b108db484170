"""Minimal hand-rolled SVG charts (deterministic output, no plotting deps)."""
from __future__ import annotations

import math
from typing import Sequence

_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 60
_MARGIN_RIGHT = 20
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 50

_PALETTE = ("#4878a8", "#e49444", "#5fa052", "#b04f4f")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


def _axes(x_label: str, y_label: str) -> list[str]:
    x0, y0 = _MARGIN_LEFT, _HEIGHT - _MARGIN_BOTTOM
    x1, y1 = _WIDTH - _MARGIN_RIGHT, _MARGIN_TOP
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="15" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 15 {(y0 + y1) / 2:.0f})">{y_label}</text>',
    ]


def _plot_area() -> tuple[float, float, float, float]:
    return (
        _MARGIN_LEFT,
        _MARGIN_TOP,
        _WIDTH - _MARGIN_RIGHT - _MARGIN_LEFT,
        _HEIGHT - _MARGIN_BOTTOM - _MARGIN_TOP,
    )


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Vertical bars, one per label."""
    parts = _header(title) + _axes(x_label, y_label)
    px, py, pw, ph = _plot_area()
    top = max(max(values, default=0.0), 1e-9)
    n = max(len(values), 1)
    slot = pw / n
    bar_w = slot * 0.8
    baseline = py + ph
    for i, (label, value) in enumerate(zip(labels, values)):
        height = ph * value / top
        x = px + i * slot + slot * 0.1
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(baseline - height)}" width="{_fmt(bar_w)}" '
            f'height="{_fmt(height)}" fill="{_PALETTE[0]}"/>'
        )
        if n <= 30:
            parts.append(
                f'<text x="{_fmt(x + bar_w / 2)}" y="{_fmt(baseline + 14)}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="9">{label}</text>'
            )
    parts.append(f'<text x="{_fmt(px - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="10">{top:g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def scatter_line_chart(
    xs: Sequence[float],
    ys: Sequence[float],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Points joined by a line over a log10 x axis; one circle element per data point."""
    parts = _header(title) + _axes(x_label, y_label)
    px, py, pw, ph = _plot_area()
    if xs:
        tx = [math.log10(x) for x in xs]
        x_lo, x_hi = min(tx), max(tx)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        points = []
        for x, y in zip(tx, ys):
            sx = px + pw * (x - x_lo) / x_span
            sy = py + ph * (1.0 - (y - y_lo) / y_span)
            points.append((sx, sy))
        if len(points) > 1:
            path = " ".join(f"{_fmt(sx)},{_fmt(sy)}" for sx, sy in points)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{_PALETTE[0]}"/>')
        for sx, sy in points:
            parts.append(
                f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="4" fill="{_PALETTE[1]}"/>'
            )
        for raw, t in zip(xs, tx):
            sx = px + pw * (t - x_lo) / x_span
            parts.append(
                f'<text x="{_fmt(sx)}" y="{_fmt(py + ph + 14)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="9">{raw:g}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def grouped_bar_chart(
    group_labels: Sequence[str],
    series_labels: Sequence[str],
    series_values: Sequence[Sequence[float]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Bars grouped by label; values may be negative (zero line drawn)."""
    parts = _header(title) + _axes(x_label, y_label)
    px, py, pw, ph = _plot_area()
    flat = [v for series in series_values for v in series] or [0.0]
    lo = min(min(flat), 0.0)
    hi = max(max(flat), 0.0)
    span = (hi - lo) or 1.0
    zero_y = py + ph * hi / span
    parts.append(
        f'<line x1="{_fmt(px)}" y1="{_fmt(zero_y)}" x2="{_fmt(px + pw)}" '
        f'y2="{_fmt(zero_y)}" stroke="#999" stroke-dasharray="4 3"/>'
    )
    n_groups = max(len(group_labels), 1)
    n_series = max(len(series_labels), 1)
    slot = pw / n_groups
    bar_w = slot * 0.8 / n_series
    for g, label in enumerate(group_labels):
        for s in range(len(series_labels)):
            value = series_values[s][g]
            height = ph * abs(value) / span
            x = px + g * slot + slot * 0.1 + s * bar_w
            y = zero_y - height if value >= 0 else zero_y
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(height)}" fill="{_PALETTE[s % len(_PALETTE)]}"/>'
            )
        parts.append(
            f'<text x="{_fmt(px + g * slot + slot / 2)}" y="{_fmt(py + ph + 14)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="9">{label}</text>'
        )
    for s, name in enumerate(series_labels):
        lx = px + pw - 110
        ly = py + 14 * (s + 1)
        parts.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(ly - 9)}" width="10" height="10" '
            f'fill="{_PALETTE[s % len(_PALETTE)]}"/>'
        )
        parts.append(
            f'<text x="{_fmt(lx + 14)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="10">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
