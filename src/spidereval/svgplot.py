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
    """Linear data-to-pixel mapping with axes and tick labels; one writer per element kind."""

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
        ]
        self.text(_W / 2, 24, "middle", 15, title)
        self._axes(xlabel, ylabel)

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return _ML + frac * (_W - _ML - _MR)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return _H - _MB - frac * (_H - _MT - _MB)

    def text(self, x, y, anchor: str, size: int, text: str,
             before: str = "", after: str = "") -> None:
        """A ``<text>`` element; ``before`` and ``after`` are attributes
        written before and after the font's."""
        self.parts.append(
            f'<text x="{x}" y="{y}" text-anchor="{anchor}" {before}font-family="sans-serif" '
            f'font-size="{size}"{after}>{_esc(text)}</text>'
        )

    def legend(self, i: int, label: str) -> None:
        """Entry i of the top-right legend, in color i."""
        self.text(_W - _MR - 5, _MT + 15 + 14 * i, "end", 11, label,
                  after=f' fill="{_COLORS[i % len(_COLORS)]}"')

    def polyline(self, pts: Sequence[tuple[float, float]], color: str) -> None:
        coords = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    def circle(self, cx: str, cy: str, fill: str) -> None:
        self.parts.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{fill}"/>')

    def line(self, x1, y1, x2, y2, stroke: str, after: str = "") -> None:
        self.parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{after}/>'
        )

    def _axes(self, xlabel: str, ylabel: str) -> None:
        x0, x1 = _ML, _W - _MR
        y0, y1 = _H - _MB, _MT
        self.parts.append(
            f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
            f'stroke="black" stroke-width="1"/>'
        )
        for t in _nice_ticks(self.x_lo, self.x_hi):
            px = _fmt(self.px(t))
            self.line(px, y0, px, y0 + 5, "black")
            self.text(px, y0 + 20, "middle", 11, f"{t:g}")
        for t in _nice_ticks(self.y_lo, self.y_hi):
            py = _fmt(self.py(t))
            self.line(x0 - 5, py, x0, py, "black")
            self.text(x0 - 8, py, "end", 11, f"{t:g}", before='dominant-baseline="middle" ')
        mid = (y0 + y1) / 2
        self.text((x0 + x1) / 2, _H - 15, "middle", 13, xlabel)
        self.text(18, mid, "middle", 13, ylabel, after=f' transform="rotate(-90 18 {mid})"')

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
        frame.polyline(pts, _COLORS[i % len(_COLORS)])
        frame.legend(i, label)
    for x, y in markers:
        frame.circle(_fmt(frame.px(x)), _fmt(frame.py(y)), "black")
    return frame.finish()


def mean_sd_plot(points: Sequence[tuple[float, float, float]],
                 title: str, xlabel: str, ylabel: str) -> str:
    """Mean line with vertical +-1 SD whiskers at each x."""
    xs = [x for x, _, _ in points]
    ys = [m - s for _, m, s in points] + [m + s for _, m, s in points]
    frame = _Frame(xs, ys, title, xlabel, ylabel)
    frame.polyline([(x, m) for x, m, _ in points], _COLORS[0])
    for x, m, s in points:
        px = _fmt(frame.px(x))
        frame.line(px, _fmt(frame.py(m - s)), px, _fmt(frame.py(m + s)), _COLORS[0],
                   ' stroke-width="1"')
        frame.circle(px, _fmt(frame.py(m)), _COLORS[0])
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
        frame.text(_fmt(_ML + (i + 0.5) * slot), y0 + 20, "middle", 10, cat)
    for j, label in enumerate(pair_labels):
        frame.legend(j, label)
    return frame.finish()
