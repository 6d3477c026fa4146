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


def _format_rows(template: str, columns):
    """Yield ``template`` filled from each row of ``columns``, one string per block.

    Every value is rendered as ``template % row`` would render it, with
    one ``%`` call per block of ``_BLOCK`` rows.
    """
    n = len(columns[0])
    for start in range(0, n, _BLOCK):
        block = np.column_stack([c[start:start + _BLOCK] for c in columns])
        yield template * len(block) % tuple(block.ravel().tolist())


def _extents(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float, float]:
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    x_pad = (x_hi - x_lo) * _MARGIN or 1e-3
    y_pad = (y_hi - y_lo) * _MARGIN or 1e-3
    return x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad


def _poly_points(xs: np.ndarray, ys: np.ndarray, rows=None) -> list[str]:
    """Points ``x,-y`` joined by spaces, in blocks, from the ``x,y\\n`` text ``rows``.

    ``rows`` are blocks as ``_format_rows`` yields them, by default of
    ``(xs, ys)`` at ``%.6g``.  ``%g`` renders a finite ``-y`` as ``y`` with
    its sign flipped, so each point is what formatting ``-y`` gives.
    """
    if rows is None:
        rows = _format_rows("%.6g,%.6g\n", (xs, ys))
    points = [b.replace(",", ",-").replace("--", "").replace("\n", " ") for b in rows]
    points[-1] = points[-1][:-1]
    return points


def _document(parts, x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> str:
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d"'
        ' viewBox="%.6g %.6g %.6g %.6g" preserveAspectRatio="none">\n'
        % (WIDTH, HEIGHT, x_lo, -y_hi, x_hi - x_lo, y_hi - y_lo)
    )
    return "".join([header, *parts, "</svg>\n"])


def _polyline(points: list[str], y_lo: float, y_hi: float) -> list[str]:
    """Parts of the black stroke through ``points``, 1/200 of the y extent wide."""
    return [
        '<polyline points="',
        *points,
        '" fill="none" stroke="#000000" stroke-width="%.6g"/>\n' % ((y_hi - y_lo) / 200.0),
    ]


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
    parts = [
        '<polygon points="',
        *_poly_points(np.concatenate([x, x[::-1]]), np.concatenate([hi, lo[::-1]])),
        '" fill="#c8c8c8" stroke="none"/>\n',
        *_polyline(_poly_points(x, mean), y_lo, y_hi),
        *_format_rows('<circle cx="%.6g" cy="%.6g" r="%.6g" fill="#000000"/>\n',
                      (data_x, -data_y, np.full(len(data_x), (x_hi - x_lo) / 120.0))),
    ]
    return _document(parts, x_lo, x_hi, y_lo, y_hi)


def curve_plot(x, y, rows=None) -> str:
    """Single polyline through the points ``(x, y)``, two float arrays.

    ``rows``, a list of the points' text rows for ``_poly_points``, is
    emptied once drawn, so it is not held next to the document.
    """
    x_lo, x_hi, y_lo, y_hi = _extents(x, y)
    points = _poly_points(x, y, rows)
    if rows is not None:
        rows.clear()
    return _document(_polyline(points, y_lo, y_hi), x_lo, x_hi, y_lo, y_hi)
