"""Minimal self-contained SVG plots.

Hand-rolled on purpose: output must be byte-identical across runs and
platforms, so no plotting library is involved. Coordinates are rounded
to two decimals, colors and layout are fixed.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["line_plot", "mean_sd_plot", "grouped_bar_plot"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 60
_COLORS = ("#1f6fb4", "#d1302f", "#2f8f2f", "#8a4fb0", "#c47f1d")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# The three markup characters escaped; the characters XML 1.0 forbids (C0
# controls other than tab, LF and CR, plus U+FFFE and U+FFFF) replaced by U+FFFD.
_ESCAPES = {
    **{c: "\ufffd" for c in (*range(0x20), 0xFFFE, 0xFFFF) if c not in (0x9, 0xA, 0xD)},
    ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;",
}


def _esc(text: str) -> str:
    """Caller text as XML character data."""
    return text.translate(_ESCAPES)


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / max(count - 1, 1)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= count - 1:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo, hi]


class _Frame:
    """Linear data-to-pixel mapping with axes and tick labels."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float], title: str,
                 xlabel: str, ylabel: str):
        self.x_lo, self.x_hi = min(xs), max(xs)
        self.y_lo, self.y_hi = min(ys), max(ys)
        if self.x_hi == self.x_lo:
            self.x_hi = self.x_lo + 1.0
        if self.y_hi == self.y_lo:
            self.y_hi = self.y_lo + 1.0
        pad = 0.05 * (self.y_hi - self.y_lo)
        self.y_lo -= pad
        self.y_hi += pad
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="24" text-anchor="middle" font-family="sans-serif" '
            f'font-size="15">{_esc(title)}</text>',
        ]
        self._axes(xlabel, ylabel)

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _ML + frac * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return _H - _MB - frac * (_H - _MT - _MB)

    def _axes(self, xlabel: str, ylabel: str) -> None:
        x0, x1 = _ML, _W - _MR
        y0, y1 = _H - _MB, _MT
        self.parts.append(
            f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
            f'stroke="black" stroke-width="1"/>'
        )
        for t in _nice_ticks(self.x_lo, self.x_hi):
            px = _fmt(self.px(t))
            self.parts.append(
                f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 5}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{px}" y="{y0 + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{t:g}</text>'
            )
        for t in _nice_ticks(self.y_lo, self.y_hi):
            py = _fmt(self.py(t))
            self.parts.append(
                f'<line x1="{x0 - 5}" y1="{py}" x2="{x0}" y2="{py}" stroke="black"/>'
            )
            self.parts.append(
                f'<text x="{x0 - 8}" y="{py}" text-anchor="end" dominant-baseline="middle" '
                f'font-family="sans-serif" font-size="11">{t:g}</text>'
            )
        self.parts.append(
            f'<text x="{(x0 + x1) / 2}" y="{_H - 15}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_esc(xlabel)}</text>'
        )
        self.parts.append(
            f'<text x="18" y="{(y0 + y1) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {(y0 + y1) / 2})">{_esc(ylabel)}</text>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def line_plot(series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
              title: str, xlabel: str, ylabel: str,
              markers: Sequence[tuple[float, float]] = ()) -> str:
    """Polyline per named series plus optional scatter markers."""
    xs = [x for _, pts in series for x, _ in pts] + [x for x, _ in markers]
    ys = [y for _, pts in series for _, y in pts] + [y for _, y in markers]
    frame = _Frame(xs, ys, title, xlabel, ylabel)
    for i, (label, pts) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(y))}" for x, y in pts)
        frame.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        frame.parts.append(
            f'<text x="{_W - _MR - 5}" y="{_MT + 15 + 14 * i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{_esc(label)}</text>'
        )
    for x, y in markers:
        frame.parts.append(
            f'<circle cx="{_fmt(frame.px(x))}" cy="{_fmt(frame.py(y))}" r="3" '
            f'fill="black"/>'
        )
    return frame.finish()


def mean_sd_plot(points: Sequence[tuple[float, float, float]],
                 title: str, xlabel: str, ylabel: str) -> str:
    """Mean line with vertical +-1 SD whiskers at each x."""
    xs = [x for x, _, _ in points]
    ys = [m - s for _, m, s in points] + [m + s for _, m, s in points]
    frame = _Frame(xs, ys, title, xlabel, ylabel)
    coords = " ".join(f"{_fmt(frame.px(x))},{_fmt(frame.py(m))}" for x, m, _ in points)
    frame.parts.append(
        f'<polyline points="{coords}" fill="none" stroke="{_COLORS[0]}" stroke-width="1.5"/>'
    )
    for x, m, s in points:
        px = _fmt(frame.px(x))
        frame.parts.append(
            f'<line x1="{px}" y1="{_fmt(frame.py(m - s))}" x2="{px}" '
            f'y2="{_fmt(frame.py(m + s))}" stroke="{_COLORS[0]}" stroke-width="1"/>'
        )
        frame.parts.append(
            f'<circle cx="{px}" cy="{_fmt(frame.py(m))}" r="3" fill="{_COLORS[0]}"/>'
        )
    return frame.finish()


def grouped_bar_plot(categories: Sequence[str],
                     pairs: Sequence[tuple[float, float]],
                     pair_labels: tuple[str, str],
                     title: str, ylabel: str) -> str:
    """Two bars per category (e.g. error share next to frequency)."""
    n = len(categories)
    if n == 0:
        raise ValueError("grouped_bar_plot needs at least one category")
    hi = max(max(a, b) for a, b in pairs)
    frame = _Frame([0, n], [0, hi], title, "", ylabel)
    slot = (_W - _ML - _MR) / n
    bar = slot / 3.0
    y0 = frame.py(0.0)
    for i, (cat, (a, b)) in enumerate(zip(categories, pairs)):
        for j, (val, color) in enumerate(((a, _COLORS[0]), (b, _COLORS[1]))):
            x = _ML + i * slot + bar * (0.5 + j)
            top = frame.py(val)
            frame.parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(top)}" width="{_fmt(bar)}" '
                f'height="{_fmt(y0 - top)}" fill="{color}"/>'
            )
        frame.parts.append(
            f'<text x="{_fmt(_ML + (i + 0.5) * slot)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_esc(cat)}</text>'
        )
    for j, label in enumerate(pair_labels):
        frame.parts.append(
            f'<text x="{_W - _MR - 5}" y="{_MT + 15 + 14 * j}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{_COLORS[j]}">{_esc(label)}</text>'
        )
    return frame.finish()
