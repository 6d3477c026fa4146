"""Moments and central-interval masses of the normalized kernel sections."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .kernel import KernelParams, _as_open_unit, normalized_green
from .numerics import integrate

# a section decays like exp(-a |x - y|), so beyond |x - y| = _DECAY_CUTOFF / a
# it has fallen below double rounding relative to its peak
_DECAY_CUTOFF = -math.log(sys.float_info.epsilon)


@dataclass(frozen=True)
class DensityStats:
    """Summary of the density x -> H(x, y) for one anchor point y."""

    mean: float
    variance: float
    std: float
    p_1s: float
    p_2s: float


def density_stats(params: KernelParams, y) -> DensityStats:
    """Mean, variance and one/two-sigma central masses of x -> H(x, y).

    All five numbers come from composite quadrature with the domain split
    at the kink x = y and, for a > 0, at y -+ ln(1/eps)/a wherever those
    fall inside (0, 1).  Past them the section is below rounding, so each
    side of the peak keeps its full panel count however sharp the peak
    is.  The probability intervals mean +- k std are clipped to [0, 1],
    which loses no mass since the density vanishes outside.  As a guard
    against a misconfigured quadrature the total mass is checked against
    1 to 1e-8 before anything else is computed.
    """
    y = float(_as_open_unit("y", y))
    splits = [y]
    if params.a > 0.0:
        reach = _DECAY_CUTOFF / params.a
        splits += [p for p in (y - reach, y + reach) if 0.0 < p < 1.0]
    spec = params.quad.with_splits(*splits)

    def dens(x):
        return normalized_green(params, x, y)

    mass = integrate(dens, 0.0, 1.0, spec)
    if abs(mass - 1.0) > 1e-8:
        raise ArithmeticError(
            f"density mass {mass!r} deviates from 1 by more than 1e-8;"
            " increase panel_count"
        )

    mean = integrate(lambda x: x * dens(x), 0.0, 1.0, spec)
    variance = integrate(lambda x: (x - mean) ** 2 * dens(x), 0.0, 1.0, spec)
    std = math.sqrt(max(variance, 0.0))

    def central_mass(k):
        lo = max(0.0, mean - k * std)
        hi = min(1.0, mean + k * std)
        if not lo < hi:
            return 0.0
        return integrate(dens, lo, hi, spec)

    return DensityStats(
        mean=mean,
        variance=variance,
        std=std,
        p_1s=central_mass(1.0),
        p_2s=central_mass(2.0),
    )
