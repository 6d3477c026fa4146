"""Static SVG emitters for the band plot and single-curve plot.

Geometry is written in data coordinates with y negated (SVG's y axis
points down) and mapped onto the 800x500 viewport through the viewBox,
so no explicit pixel transform is needed.  Output is deterministic:
same input, same bytes.
"""

from __future__ import annotations

import numpy as np

WIDTH = 800
HEIGHT = 500
_MARGIN = 0.05  # padding on each side, as a fraction of the data extent


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _extents(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float, float]:
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    x_pad = (x_hi - x_lo) * _MARGIN or 1e-3
    y_pad = (y_hi - y_lo) * _MARGIN or 1e-3
    return x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad


def _poly_points(xs: np.ndarray, ys: np.ndarray) -> str:
    # "%.6g" renders a float exactly as _fmt does, at one call per point
    return " ".join("%.6g,%.6g" % p for p in zip(xs.tolist(), (-ys).tolist()))


def _document(body: str, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> str:
    view = f"{_fmt(x_lo)} {_fmt(-y_hi)} {_fmt(x_hi - x_lo)} {_fmt(y_hi - y_lo)}"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="{view}" preserveAspectRatio="none">\n'
        f"{body}"
        "</svg>\n"
    )


def band_plot(x, mean, lo, hi, data_x, data_y) -> str:
    """Shaded band from ``lo`` to ``hi``, mean polyline, data markers.

    The band polygon is emitted before the mean stroke so the line stays
    visible on top of the fill.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    data_x = np.asarray(data_x, dtype=float)
    data_y = np.asarray(data_y, dtype=float)
    x_lo, x_hi, y_lo, y_hi = _extents(
        np.concatenate([x, data_x]), np.concatenate([lo, hi, data_y])
    )
    band = _poly_points(np.concatenate([x, x[::-1]]), np.concatenate([hi, lo[::-1]]))
    stroke = _fmt((y_hi - y_lo) / 200.0)
    radius = _fmt((x_hi - x_lo) / 120.0)
    parts = [
        f'<polygon points="{band}" fill="#c8c8c8" stroke="none"/>',
        f'<polyline points="{_poly_points(x, mean)}" fill="none"'
        f' stroke="#000000" stroke-width="{stroke}"/>',
    ]
    parts.extend(
        f'<circle cx="{_fmt(px)}" cy="{_fmt(-py)}" r="{radius}" fill="#000000"/>'
        for px, py in zip(data_x, data_y)
    )
    return _document("\n".join(parts) + "\n", x_lo, x_hi, y_lo, y_hi)


def curve_plot(x, y) -> str:
    """Single polyline through the points ``(x, y)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_lo, x_hi, y_lo, y_hi = _extents(x, y)
    stroke = _fmt((y_hi - y_lo) / 200.0)
    body = (
        f'<polyline points="{_poly_points(x, y)}" fill="none"'
        f' stroke="#000000" stroke-width="{stroke}"/>\n'
    )
    return _document(body, x_lo, x_hi, y_lo, y_hi)
