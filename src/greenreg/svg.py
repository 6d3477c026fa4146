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
# rows per format call: few enough that the flat tuple and the text of one
# block stay small whatever the row count, many enough that the per-call
# cost vanishes
_BLOCK = 4096


def _format_rows(template: str, columns, sep: str = ""):
    """Yield ``template`` filled from each row of ``columns``, one string per block.

    Rows within a block are joined by ``sep``; a caller joins the blocks
    by ``sep`` as well.  Every value is rendered as ``template % row``
    would render it, with one ``%`` call per block of ``_BLOCK`` rows.
    """
    n = len(columns[0])
    for start in range(0, n, _BLOCK):
        block = np.column_stack([c[start:start + _BLOCK] for c in columns])
        yield sep.join([template] * len(block)) % tuple(block.ravel().tolist())


def _extents(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float, float]:
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    x_pad = (x_hi - x_lo) * _MARGIN or 1e-3
    y_pad = (y_hi - y_lo) * _MARGIN or 1e-3
    return x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad


def _poly_points(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(_format_rows("%.6g,%.6g", (xs, -ys), " "))


def _document(body: str, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> str:
    view = "%.6g %.6g %.6g %.6g" % (x_lo, -y_hi, x_hi - x_lo, y_hi - y_lo)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="{view}" preserveAspectRatio="none">\n'
        f"{body}"
        "</svg>\n"
    )


def band_plot(x, mean, lo, hi, data_x, data_y) -> str:
    """Shaded band from ``lo`` to ``hi``, mean polyline, data markers (float arrays).

    Points are drawn in stable x order, and the band polygon before the
    mean stroke so the line stays visible on top of the fill.
    """
    order = np.argsort(x, kind="stable")
    x, mean, lo, hi = x[order], mean[order], lo[order], hi[order]
    x_lo, x_hi, y_lo, y_hi = _extents(
        np.concatenate([x, data_x]), np.concatenate([lo, hi, data_y])
    )
    band = _poly_points(np.concatenate([x, x[::-1]]), np.concatenate([hi, lo[::-1]]))
    stroke = "%.6g" % ((y_hi - y_lo) / 200.0)
    radius = np.full(len(data_x), (x_hi - x_lo) / 120.0)
    parts = [
        f'<polygon points="{band}" fill="#c8c8c8" stroke="none"/>',
        f'<polyline points="{_poly_points(x, mean)}" fill="none"'
        f' stroke="#000000" stroke-width="{stroke}"/>',
    ]
    parts.extend(
        _format_rows(
            '<circle cx="%.6g" cy="%.6g" r="%.6g" fill="#000000"/>',
            (data_x, -data_y, radius),
            "\n",
        )
    )
    return _document("\n".join(parts) + "\n", x_lo, x_hi, y_lo, y_hi)


def curve_plot(x, y) -> str:
    """Single polyline through the points ``(x, y)``, two float arrays."""
    x_lo, x_hi, y_lo, y_hi = _extents(x, y)
    stroke = "%.6g" % ((y_hi - y_lo) / 200.0)
    body = (
        f'<polyline points="{_poly_points(x, y)}" fill="none"'
        f' stroke="#000000" stroke-width="{stroke}"/>\n'
    )
    return _document(body, x_lo, x_hi, y_lo, y_hi)
