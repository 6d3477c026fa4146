"""Green's function of -u'' + a^2 u with zero Dirichlet data on [0, 1].

Two independent evaluation routes are kept side by side: the closed
hyperbolic form and the truncated sine series.  The closed form is the
production path; the series exists to cross-check it.  On top of both
sits the L1 normalization that turns each section y -> G(. , y) into a
probability density on [0, 1].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import DEFAULT_QUADRATURE, QuadratureSpec, integrate

# largest coefficient whose square is a finite double; l1_norm divides by a**2
MAX_COEFFICIENT = math.sqrt(sys.float_info.max)

_SERIES_CHUNK = 4096


@dataclass(frozen=True)
class KernelParams:
    """Operator coefficient plus the numeric knobs every routine shares.

    Parameters
    ----------
    a : float
        Nonnegative coefficient of the zeroth-order term, at most
        ``MAX_COEFFICIENT`` (about 1.34e154) so that a**2 is finite.
    series_terms : int
        Truncation order of the sine-series form.  The tail is bounded by
        2/(pi^2 n), so the default pins series evaluation near 2e-6.
    quad : QuadratureSpec
        Quadrature settings used by the integral-based routines.
    """

    a: float
    series_terms: int = 100_000
    quad: QuadratureSpec = DEFAULT_QUADRATURE

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"coefficient a must be finite and nonnegative, got {self.a!r}")
        if self.a > MAX_COEFFICIENT:
            raise ValueError(
                f"coefficient a must be nonnegative and at most {MAX_COEFFICIENT:.6g},"
                f" so that a**2 is a finite double; got {self.a!r}"
            )
        if self.series_terms < 1:
            raise ValueError(f"series_terms must be positive, got {self.series_terms!r}")


def _as_unit(name: str, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.size and (np.any(v < 0.0) or np.any(v > 1.0) or not np.all(np.isfinite(v))):
        raise ValueError(f"{name} must lie in [0, 1]")
    return v


def _as_open_unit(name: str, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.size and (np.any(v <= 0.0) or np.any(v >= 1.0) or not np.all(np.isfinite(v))):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return v


def _scaled_sinh(a: float, s):
    """(1 - exp(-2 a s)) / (2 a), that is exp(-a s) sinh(a s) / a; s at a = 0."""
    if a == 0.0:
        return s
    return -np.expm1(-2.0 * a * s) / (2.0 * a)


def _scaled_sinh_ratio(a: float, s):
    """(1 - exp(-2 a s)) / (1 - exp(-2 a)) = exp(a (1 - s)) sinh(a s) / sinh a; s at a = 0."""
    if a == 0.0:
        return s
    return np.expm1(-2.0 * a * s) / np.expm1(-2.0 * a)


def green_closed(params: KernelParams, x, y):
    """Green's function G(x, y) in closed form.

    For a > 0 this is sinh(a min(x,y)) sinh(a (1 - max(x,y))) / (a sinh a);
    the a = 0 limit is min(x,y) (1 - max(x,y)).  It is evaluated as
    exp(-a (hi - lo)) * _scaled_sinh(lo) * _scaled_sinh_ratio(1 - hi),
    whose exponents are all <= 0 and whose ``1 - exp(-t)`` factors go
    through expm1, so one formula is accurate from a = 0 up to
    ``MAX_COEFFICIENT``.  Symmetric in its arguments, nonnegative, and
    exactly zero whenever either argument touches the boundary.  Inputs
    broadcast; scalars in, scalar out.
    """
    x = _as_unit("x", x)
    y = _as_unit("y", y)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    a = params.a
    g = np.exp(-a * (hi - lo)) * _scaled_sinh(a, lo) * _scaled_sinh_ratio(a, 1.0 - hi)
    return g if g.ndim else float(g)


def green_series(params: KernelParams, x, y):
    """Sine-series form of G, truncated at ``params.series_terms``.

    Sum over n of 2 sin(n pi x) sin(n pi y) / ((n pi)^2 + a^2).  Kept as
    an independent cross-check of :func:`green_closed`; the two agree to
    roughly the series tail bound 2/(pi^2 n_max).
    """
    x = _as_unit("x", x)
    y = _as_unit("y", y)
    shape = np.broadcast_shapes(x.shape, y.shape)
    xb = np.broadcast_to(x, shape).ravel()
    yb = np.broadcast_to(y, shape).ravel()
    a_sq = params.a * params.a
    acc = np.zeros(xb.size)
    for start in range(1, params.series_terms + 1, _SERIES_CHUNK):
        stop = min(start + _SERIES_CHUNK, params.series_terms + 1)
        n_pi = np.arange(start, stop)[:, None] * np.pi
        acc += np.einsum(
            "nk,nk,n->k",
            np.sin(n_pi * xb),
            np.sin(n_pi * yb),
            2.0 / (n_pi[:, 0] ** 2 + a_sq),
        )
    out = acc.reshape(shape)
    return out if shape else float(out)


def l1_norm(params: KernelParams, y):
    """Integral of x -> G(x, y) over [0, 1], in closed form.

    For a > 0 the textbook expression
    (1 - cosh(a y) + tanh(a/2) sinh(a y)) / a^2 cancels catastrophically
    once a is large, so it is rearranged into decaying exponentials
    (1 - exp(-a (1-y) - c) - exp(-a y - c)) / a^2 with
    c = log(1 + exp(-a)), which is stable for every a.  The a = 0 limit
    is y (1 - y) / 2.  Only defined for y strictly inside (0, 1): the
    norm vanishes at the endpoints and the normalized kernel degenerates.
    """
    y = _as_open_unit("y", y)
    a = params.a
    if a == 0.0:
        out = y * (1.0 - y) / 2.0
    else:
        c = np.log1p(np.exp(-a))
        out = (1.0 - np.exp(-a * (1.0 - y) - c) - np.exp(-a * y - c)) / (a * a)
    return out if out.ndim else float(out)


def normalized_green(params: KernelParams, x, y):
    """Normalized kernel H(x, y) = G(x, y) / l1_norm(y).

    For each fixed y in (0, 1) the section x -> H(x, y) is a probability
    density on [0, 1].  Unlike G itself, H is not symmetric: the
    normalization acts on the second argument only.
    """
    return green_closed(params, x, y) / l1_norm(params, y)


def _green_dx_below(params: KernelParams, x, y: float):
    """d/dx G(x, y) on the branch x < y (left-sided limit at x = y).

    cosh(a x) sinh(a (1 - y)) / sinh(a), in decaying exponentials.
    """
    x = np.asarray(x, dtype=float)
    a = params.a
    cosh_part = np.exp(-a * (y - x)) * (1.0 + np.exp(-2.0 * a * x)) / 2.0
    return cosh_part * _scaled_sinh_ratio(a, 1.0 - y)


def _green_dx_above(params: KernelParams, x, y: float):
    """d/dx G(x, y) on the branch x > y (right-sided limit at x = y).

    The mirror image of :func:`_green_dx_below` under x -> 1 - x,
    y -> 1 - y, with the sign flipped.
    """
    x = np.asarray(x, dtype=float)
    a = params.a
    cosh_part = np.exp(-a * (x - y)) * (1.0 + np.exp(-2.0 * a * (1.0 - x))) / 2.0
    return -cosh_part * _scaled_sinh_ratio(a, y)


def rkhs_inner_product(
    params: KernelParams,
    u: Callable[[np.ndarray], np.ndarray],
    du: Callable[[np.ndarray], np.ndarray],
    y,
) -> float:
    """Inner product of ``u`` with the kernel section at ``y``.

    Evaluates the integral over [0, 1] of u'(x) dG/dx(x, y)
    + a^2 u(x) G(x, y).  In the Hilbert space where G reproduces point
    evaluation this equals u(y) for any u vanishing at both endpoints,
    up to quadrature error.

    The x-derivative of G jumps by -1 across x = y, so the integral is
    taken branchwise: [0, y] with the left-sided derivative and [y, 1]
    with the right-sided one.  Both ``u`` and ``du`` must accept arrays.
    """
    y = float(_as_open_unit("y", y))
    a_sq = params.a * params.a
    spec = params.quad

    def below(x):
        return du(x) * _green_dx_below(params, x, y) + a_sq * u(x) * green_closed(params, x, y)

    def above(x):
        return du(x) * _green_dx_above(params, x, y) + a_sq * u(x) * green_closed(params, x, y)

    return integrate(below, 0.0, y, spec) + integrate(above, y, 1.0, spec)
