"""Moments and central-interval masses of the normalized kernel sections."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import KernelParams, _as_open_unit, _scaled_sinh

# the closed forms of _side_moments cancel more the smaller z is, about
# fourfold at z = 2; below it the series are used, which need at most 13 terms
_SERIES_LIMIT = 2.0


@dataclass(frozen=True)
class DensityStats:
    """Summary of the density x -> H(x, y) for one anchor point y."""

    mean: float
    variance: float
    std: float
    p_1s: float
    p_2s: float


def _side_moments(z: float) -> tuple[float, float]:
    """E[s] and E[s^2] under the density on [0, 1] proportional to sinh(z (1 - s)).

    They are coth(z/2)/z - h and 2/z^2 - h with h = 1 / (2 sinh^2(z/2)),
    written with exp(-z) and expm1 so that nothing overflows.  Below
    ``_SERIES_LIMIT`` both differences cancel, and they are taken as the
    ratios T3/T2 and 2 T4/T2 of the series T_j = sum_k z^(2k) / (2k + j)!,
    whose terms are all positive.
    """
    if z < _SERIES_LIMIT:
        term, t2, t3, t4, j = 0.5, 0.0, 0.0, 0.0, 3
        while term > 1e-20 * t2:
            t2 += term
            t3 += term / j
            t4 += term / (j * (j + 1))
            term *= z * z / (j * (j + 1))
            j += 2
        return t3 / t2, 2.0 * t4 / t2
    q = math.exp(-z)
    e1 = -math.expm1(-z)
    h = 2.0 * q / (e1 * e1)
    return (1.0 + q) / (z * e1) - h, 2.0 / (z * z) - h


def density_stats(params: KernelParams, y) -> DensityStats:
    """Mean, variance and one/two-sigma central masses of x -> H(x, y), in closed form.

    The section splits at y into two sides.  The left one holds the share
    p_L = sinh(a y/2) cosh(a (1-y)/2) / sinh(a/2) of the mass, and on a
    side of length w the density in the distance t from y is proportional
    to sinh(a (w - t)).  So the moments of t come from
    :func:`_side_moments` at z = a w, and the share of a side within
    distance d of y is 1 - (sinh(a (w - d)/2) / sinh(a w/2))^2.  The
    intervals mean -+ k std are taken as offsets shift -+ k std from y,
    where shift = mean - y, and clipped to each side; nothing is
    integrated numerically and the mass is 1 by construction.
    """
    y = float(_as_open_unit("y", y))
    a = params.a
    half = a / 2.0
    p_left = float(
        _scaled_sinh(half, y) * (1.0 + math.exp(-a * (1.0 - y))) / (2.0 * _scaled_sinh(half, 1.0))
    )
    sides = []
    for w, p in ((y, p_left), (1.0 - y, 1.0 - p_left)):
        r1, r2 = _side_moments(a * w)
        sides.append((w, p, w * r1, w * w * r2))
    (w_l, p_l, m_l, s_l), (w_r, p_r, m_r, s_r) = sides
    shift = p_r * m_r - p_l * m_l
    variance = p_l * s_l + p_r * s_r - shift * shift
    std = math.sqrt(variance)

    def within(w, d):
        d = min(max(d, 0.0), w)
        ratio = math.exp(-half * d) * _scaled_sinh(half, w - d) / _scaled_sinh(half, w)
        return 1.0 - ratio * ratio

    def central_mass(k):
        lo, hi = shift - k * std, shift + k * std
        return float(
            p_l * (within(w_l, -lo) - within(w_l, -hi))
            + p_r * (within(w_r, hi) - within(w_r, lo))
        )

    return DensityStats(
        mean=y + shift,
        variance=variance,
        std=std,
        p_1s=central_mass(1.0),
        p_2s=central_mass(2.0),
    )
