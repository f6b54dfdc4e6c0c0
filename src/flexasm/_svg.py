"""Tiny self-contained SVG line plots (no plotting dependency)."""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ("#1f6fb4", "#d1495b", "#3c8c51", "#8a6d3b", "#6a4c93", "#444444")

_W, _H = 860, 520
_ML, _MR, _MT, _MB = 70, 20, 36, 52


def _ticks(lo, hi, log):
    if log:
        lo_d = math.floor(math.log10(lo))
        hi_d = math.ceil(math.log10(hi))
        return [10.0 ** d for d in range(lo_d, hi_d + 1)]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4 if span > 0 else 1.0))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * max(1.0, abs(hi)):
        out.append(v)
        v += step
    return out


def _widen_flat(lo, hi, log):
    """A flat range widened by half a unit each way: half a decade on a
    log axis, so both bounds stay positive."""
    if lo != hi:
        return lo, hi
    if log:
        return lo / math.sqrt(10.0), hi * math.sqrt(10.0)
    return lo - 0.5, hi + 0.5


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(path, series, *, title, xlabel, ylabel, xlog, ylog):
    """Write a multi-series line plot.

    ``series`` is a list of ``(label, x, y)``; non-finite samples are
    dropped per series.  Log axes fall back to linear when the data spans
    non-positive values.
    """
    clean = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if np.any(keep):
            clean.append((label, x[keep], y[keep]))
    if not clean:
        raise ValueError("nothing to plot")

    xs = np.concatenate([x for _, x, _ in clean])
    ys = np.concatenate([y for _, _, y in clean])
    xlog = xlog and np.all(xs > 0)
    ylog = ylog and np.all(ys > 0)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_lo, x_hi = _widen_flat(x_lo, x_hi, xlog)
    y_lo, y_hi = _widen_flat(y_lo, y_hi, ylog)
    if not ylog:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def mapx(v):
        if xlog:
            f = (math.log10(v) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            f = (v - x_lo) / (x_hi - x_lo)
        return _ML + f * (_W - _ML - _MR)

    def mapy(v):
        if ylog:
            f = (math.log10(v) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            f = (v - y_lo) / (y_hi - y_lo)
        return _H - _MB - f * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#222"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2}" y="22" text-anchor="middle" '
                     f'font-size="15">{title}</text>')
    for v in _ticks(x_lo, x_hi, xlog):
        if not (x_lo <= v <= x_hi):
            continue
        px = mapx(v)
        parts.append(f'<line x1="{px:.1f}" y1="{_MT}" x2="{px:.1f}" '
                     f'y2="{_H - _MB}" stroke="#ddd"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle">{_fmt(v)}</text>')
    for v in _ticks(y_lo, y_hi, ylog):
        if not (y_lo <= v <= y_hi):
            continue
        py = mapy(v)
        parts.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" '
                     f'y2="{py:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{py + 4:.1f}" '
                     f'text-anchor="end">{_fmt(v)}</text>')
    if xlabel:
        parts.append(f'<text x="{_W / 2}" y="{_H - 14}" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_H / 2}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>')

    for si, (label, x, y) in enumerate(clean):
        color = _PALETTE[si % len(_PALETTE)]
        pts = " ".join(f"{mapx(xv):.2f},{mapy(yv):.2f}" for xv, yv in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        ly = _MT + 16 + 16 * si
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" '
                     f'x2="{_W - _MR - 120}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 114}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
