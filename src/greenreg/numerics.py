"""Composite Simpson quadrature, used by ``kernel.rkhs_inner_product``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-Simpson settings.

    Parameters
    ----------
    panel_count : int
        Simpson panels per smooth sub-interval; even and at least 2.
    split_points : tuple of float
        Interior abscissae where the integrand loses smoothness.  The
        integration domain is always cut there, so no panel straddles a
        kink and the rule keeps its O(h^4) error.
    """

    panel_count: int = 2048
    split_points: tuple[float, ...] = ()

    def __post_init__(self):
        if self.panel_count < 2 or self.panel_count % 2 != 0:
            raise ValueError(
                f"panel_count must be an even integer >= 2, got {self.panel_count!r}"
            )
        pts = tuple(float(p) for p in self.split_points)
        if any(not 0.0 < p < 1.0 for p in pts):
            raise ValueError("split_points must lie strictly inside (0, 1)")
        if any(q <= p for p, q in zip(pts, pts[1:])):
            raise ValueError("split_points must be strictly increasing")
        object.__setattr__(self, "split_points", pts)


DEFAULT_QUADRATURE = QuadratureSpec()


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Composite Simpson integral of ``f`` over ``[lo, hi]``.

    The domain is cut at every split point of ``spec`` falling strictly
    inside ``(lo, hi)`` and each piece gets ``spec.panel_count`` panels.
    ``f`` is called on arrays of nodes and may return an array of the same
    shape or a scalar (constants broadcast).

    Raises
    ------
    ValueError
        If the interval is empty or reversed, or if ``f`` returns a
        non-finite value at some node (the message names the node).
    """
    if not lo < hi:
        raise ValueError(f"integration interval [{lo!r}, {hi!r}] is empty or reversed")
    cuts = [lo, *(p for p in spec.split_points if lo < p < hi), hi]
    n = spec.panel_count
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        nodes = np.linspace(a, b, n + 1)
        fx = np.broadcast_to(np.asarray(f(nodes), dtype=float), nodes.shape)
        bad = np.flatnonzero(~np.isfinite(fx))
        if bad.size:
            raise ValueError(
                f"integrand is not finite at node x={float(nodes[bad[0]])!r}"
            )
        total += (weights @ fx) * (b - a) / (3.0 * n)
    return float(total)
