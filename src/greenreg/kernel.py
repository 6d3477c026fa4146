"""Green's function of -u'' + a^2 u with zero Dirichlet data on [0, 1].

G is evaluated in one closed hyperbolic form, accurate for every a from
0 to ``MAX_COEFFICIENT``.  On top of it sits the L1 normalization that
turns each section y -> G(. , y) into a probability density on [0, 1].
Every quantity here is a closed form; nothing integrates numerically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# largest coefficient whose square is a finite double; L1 is about 1/a**2
# for large a, so past it the norm underflows and H = G / L1 overflows
MAX_COEFFICIENT = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class KernelParams:
    """Operator coefficient.

    Parameters
    ----------
    a : float
        Nonnegative coefficient of the zeroth-order term, at most
        ``MAX_COEFFICIENT`` (about 1.34e154) so that a**2 is finite.
    """

    a: float

    def __post_init__(self):
        # NaN fails the test and inf is above the bound; -0.0 passes
        if not 0.0 <= self.a <= MAX_COEFFICIENT:
            raise ValueError(
                f"coefficient a must be finite and nonnegative, at most {MAX_COEFFICIENT:.6g}"
                f" so that a**2 is a finite double; got {self.a!r}")


def _as_unit(name: str, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all((v >= 0.0) & (v <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return v


def _as_open_unit(name: str, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all((v > 0.0) & (v < 1.0)):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")
    return v


def _scaled_sinh(a: float, s):
    """(1 - exp(-2 a s)) / (2 a), that is exp(-a s) sinh(a s) / a; s at a = 0.

    Where 2 a s is below the machine epsilon, s is within an ulp and is
    returned: the quotient would round differently or, where 2 a s
    underflows, lose the digits of s.  So tiny a gives the a = 0 value.
    """
    if a == 0.0:
        return s
    t = 2.0 * a * s
    return np.where(t < sys.float_info.epsilon, s, -np.expm1(-t) / (2.0 * a))


def _scaled_sinh_ratio(a: float, s):
    """(1 - exp(-2 a s)) / (1 - exp(-2 a)) = exp(a (1 - s)) sinh(a s) / sinh a.

    That is s (1 + O(a)), so s itself where 2 a is below the epsilon.
    """
    if 2.0 * a < sys.float_info.epsilon:
        return s
    return np.expm1(-2.0 * a * s) / np.expm1(-2.0 * a)


def _green(a: float, x, y, s_lo=1.0, s_hi=1.0):
    """``green_closed`` on float arrays already known to lie in [0, 1]; checks nothing.

    G over ``s_lo`` and ``s_hi``: they divide the factors that vanish
    as min(x, y) reaches 0 and as max(x, y) reaches 1 before the product
    is formed, so G over factors that vanish there too keeps its digits
    where G alone is subnormal.  With ``_l1_factors(a, y)`` as the two
    divisors this is the normalized kernel H(x, y) = G(x, y) / L1(y):
    y is min(x, y) or max(x, y), so each divisor vanishes with the
    factor it divides, no quotient overflows, and a subnormal y keeps
    its digits.
    """
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    return (np.exp(-a * (hi - lo)) * (_scaled_sinh(a, lo) / s_lo)
            * (_scaled_sinh_ratio(a, 1.0 - hi) / s_hi))


def green_closed(params: KernelParams, x, y):
    """Green's function G(x, y) in closed form; checks once that x and y lie in [0, 1].

    For a > 0 this is sinh(a min(x,y)) sinh(a (1 - max(x,y))) / (a sinh a);
    the a = 0 limit is min(x,y) (1 - max(x,y)).  It is evaluated as
    exp(-a (hi - lo)) * _scaled_sinh(lo) * _scaled_sinh_ratio(1 - hi),
    whose exponents are all <= 0 and whose ``1 - exp(-t)`` factors go
    through expm1, so one formula is accurate from a = 0 up to
    ``MAX_COEFFICIENT``.  Symmetric in its arguments, nonnegative, and
    exactly zero whenever either argument touches the boundary.  Inputs
    broadcast; scalars in, scalar out.
    """
    g = _green(params.a, _as_unit("x", x), _as_unit("y", y))
    return g if g.ndim else float(g)


def _l1_factors(a: float, y):
    """Two factors of L1(y): S(y) and S(1 - y) / (1 + exp(-a)), whose product is L1(y).

    S = _scaled_sinh at a / 2, that is S(s) = (1 - exp(-a s)) / a.  The
    first vanishes as y reaches 0 and the second as y reaches 1, so
    ``_green(a, x, y, *_l1_factors(a, y))`` is H(x, y).  Dividing by
    them in turn keeps H finite where their product underflows: near an
    end at large a, L1(y) is about y / a and can fall below the double
    range while H is about a.
    """
    return _scaled_sinh(a / 2.0, y), _scaled_sinh(a / 2.0, 1.0 - y) / (1.0 + np.exp(-a))


def l1_norm(params: KernelParams, y):
    """Integral of x -> G(x, y) over [0, 1], in closed form.

    The integral is 2 sinh(a y / 2) sinh(a (1 - y) / 2) / (a^2 cosh(a / 2)),
    evaluated as S(y) S(1 - y) / (1 + exp(-a)) with S = _scaled_sinh at
    a / 2, that is S(s) = (1 - exp(-a s)) / a.  Both factors go through
    expm1 and no term is subtracted, so the result is accurate to a few
    ulp for every a from 0 (where it is y (1 - y) / 2) up to
    ``MAX_COEFFICIENT``.  Only defined for y strictly inside (0, 1): the
    norm vanishes at the endpoints and the normalized kernel degenerates.
    """
    s_y, s_rest = _l1_factors(params.a, _as_open_unit("y", y))
    out = s_y * s_rest
    return out if out.ndim else float(out)


def normalized_green(params: KernelParams, x, y):
    """Normalized kernel H(x, y) = G(x, y) / l1_norm(y); checks once x in [0, 1], y in (0, 1).

    For each fixed y in (0, 1) the section x -> H(x, y) is a probability
    density on [0, 1].  Unlike G itself, H is not symmetric: the
    normalization acts on the second argument only.  Each factor of G
    that vanishes at an end is divided by the factor of the norm that
    vanishes there too, before any product is formed, so H stays finite
    where the norm underflows and keeps its digits down to subnormal y.
    """
    y = _as_open_unit("y", y)
    out = _green(params.a, _as_unit("x", x), y, *_l1_factors(params.a, y))
    return out if np.ndim(out) else float(out)

