"""Interpolating Bayesian regression with the normalized kernel.

The observed ordinates are modeled as jointly Gaussian with covariances
given by normalized kernel evaluations, and prediction conditions the
query values on the data.  No noise term: the posterior mean passes
through every sample exactly and the posterior variance vanishes there.
G is the covariance of a Markov bridge, so conditioning needs no matrix
solve: a query's weights sit on the two sites bracketing it, and the
predictive mean and variance need only those two sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (
    KernelParams,
    _as_open_unit,
    _as_unit,
    _green,
    _l1_factors,
    _scaled_sinh,
    _scaled_sinh_ratio,
)

# the package sets no floor on the gap between sites; this one is read only
# by the benchmark, which spaces its generated sites by it
# (perfbench/run.py::_min_gap)
MIN_ABSCISSA_GAP = 1e-9


def _axis_grid(delta: float) -> np.ndarray:
    """Endpoint-inclusive grid 0, delta, 2 delta, ..., ending at exactly 1."""
    return np.append(np.arange(math.ceil(1.0 / delta)) * delta, 1.0)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Observed data: abscissae ``xi`` with ordinates ``eta``.

    Abscissae must be finite, strictly increasing and strictly inside
    (0, 1); two sites may be as close as one ulp.
    """

    xi: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        if xi.ndim != 1 or eta.ndim != 1 or xi.size != eta.size:
            raise ValueError("xi and eta must be one-dimensional and equally long")
        if xi.size == 0:
            raise ValueError("at least one sample is required")
        _as_open_unit("sample abscissae", xi)
        if np.any(np.diff(xi) <= 0.0):
            raise ValueError("sample abscissae must be strictly increasing")
        if not np.all(np.isfinite(eta)):
            raise ValueError("sample ordinates must be finite")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)

    def __len__(self) -> int:
        return self.xi.size


@dataclass(frozen=True, eq=False)
class QueryGrid:
    """Query abscissae, all strictly inside (0, 1)."""

    x_star: np.ndarray

    def __post_init__(self):
        x_star = np.atleast_1d(np.asarray(self.x_star, dtype=float))
        if x_star.ndim != 1 or x_star.size == 0:
            raise ValueError("at least one query abscissa is required")
        _as_open_unit("query abscissae", x_star)
        object.__setattr__(self, "x_star", x_star)

    @classmethod
    def uniform(cls, delta: float = 0.01) -> "QueryGrid":
        """Interior of ``_axis_grid(delta)``: i * delta for i = 1 .. ceil(1/delta) - 1.

        Endpoints are excluded: the normalized kernel is undefined there.
        """
        if not delta > 0.0:
            raise ValueError(f"delta must be positive, got {delta!r}")
        x_star = _axis_grid(delta)[1:-1]
        if x_star.size == 0:
            raise ValueError(f"delta {delta!r} leaves no interior grid points")
        return cls(x_star=x_star)

    def __len__(self) -> int:
        return self.x_star.size


@dataclass(frozen=True, eq=False)
class Prediction:
    """Predictive summary at the query abscissae.

    ``band_lo``/``band_hi`` bracket mean -+ 2 std.  The variance is a sum
    of nonnegative terms, so ``clamped_count`` is always 0; it stays for
    the ``# clamped=N`` trailer of the CLI's table.
    """

    x_star: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    std: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    clamped_count: int = 0


def build_cov_matrix(params: KernelParams, samples: SampleSet) -> np.ndarray:
    """Data covariance matrix with entry (i, j) = H(xi_i, xi_j).

    Not symmetric in general: the normalization acts on the second
    argument only.
    """
    xi = samples.xi
    return _green(params.a, xi[:, None], xi, *_l1_factors(params.a, xi))


def _bracket(a: float, xi: np.ndarray, x):
    """Bracket of x and the kriging weights of x on its two ends.

    Returns the bracket's index k and its ends lo <= x <= hi: the sites
    ``xi[k - 1]`` and ``xi[k]``, or 0 for k = 0 and 1 for k = N (x = 1
    takes the last bracket); then the weights w_lo and w_hi.  They are
    sinh(a (hi - x)) / sinh(a (hi - lo)) and its mirror, written as
    exp(-a (x - lo)) (S(hi - x) / S(hi - lo)) with S = _scaled_sinh: no
    factor overflows at large a, and S is the gap itself where 2 a gap
    is below the epsilon, so tiny a gives linear interpolation, not 0/0.
    Dividing first keeps a subnormal weight from rounding before the
    division.
    """
    k = np.searchsorted(xi, x, side="right")
    lo, hi = np.append(0.0, xi)[k], np.append(xi, 1.0)[k]
    span = _scaled_sinh(a, hi - lo)
    w_lo = np.exp(-a * (x - lo)) * (_scaled_sinh(a, hi - x) / span)
    w_hi = np.exp(-a * (hi - x)) * (_scaled_sinh(a, x - lo) / span)
    return k, lo, hi, w_lo, w_hi


def predict(params: KernelParams, samples: SampleSet, grid: QueryGrid) -> Prediction:
    """Predictive mean, variance and 2-sigma band on the query grid.

    The dense formulas mean = cross_cov^T data_cov^{-1} eta and variance
    H(x*, x*) - cross_cov^T data_cov^{-1} cross_cov, with data_cov the
    matrix of :func:`build_cov_matrix` and cross_cov[i, j] =
    H(x*_j, xi_i), reduce to two terms per query.  The L1 normalizations
    cancel from the mean, leaving kriging with G, and G is the
    covariance of a Markov bridge pinned to zero at 0 and 1, so a
    query's kriging weights sit only on the two sites bracketing it (the
    boundary counting as a site of value 0):

        mean = w_lo eta_lo + w_hi eta_hi
        variance = H(x*, x*) - w_lo H(x*, xi_lo) - w_hi H(x*, xi_hi)

    That difference cancels next to a site, so the variance is evaluated
    as a sum of terms that are all >= 0.  With T(s) = (1 - exp(-a s)) / a
    (``_scaled_sinh`` at a / 2, s at a = 0), d_lo = x* - lo and
    d_hi = hi - x*:

        variance = H(x*, x*) [q + w_lo c_lo + w_hi c_hi]
        q = 1 - w_lo - w_hi = a T(d_lo) a T(d_hi) / (1 + exp(-a (hi - lo)))
        c_lo = 1 - H(x*, lo) / H(x*, x*)
             = (1 + exp(-a)) T(d_lo) / ((1 + exp(-a x*)) T(1 - lo))
        c_hi = (1 + exp(-a)) T(d_hi) / ((1 + exp(-a (1 - x*))) T(hi))

    with c_lo = 1 where lo is the end 0 and c_hi = 1 where hi is the end
    1.  By Markov screening, H(x*, x*) - sum w_k H(x*, xi_k) is the
    normalized Green's function of the bracket (Rybicki & Press 1995).
    Every factor is >= 0 and every exponent <= 0, so the variance is
    nonnegative by construction, finite up to ``MAX_COEFFICIENT``, and
    exactly 0 on a site, however close two sites are.

    This takes O((N + M) log N) time and O(N + M) memory and forms no
    covariance matrix.  Queries need not be sorted.
    """
    a, x = params.a, grid.x_star
    k, lo, hi, w_lo, w_hi = _bracket(a, samples.xi, x)
    values = np.concatenate(([0.0], samples.eta, [0.0]))
    mean = w_lo * values[k] + w_hi * values[k + 1]
    t_lo, t_hi = _scaled_sinh(a / 2.0, x - lo), _scaled_sinh(a / 2.0, hi - x)
    # 1 + exp(-a) is L1's constant factor
    l1_const = 1.0 + np.exp(-a)
    c_lo = np.where(k == 0, 1.0,
                    l1_const * t_lo / ((1.0 + np.exp(-a * x)) * _scaled_sinh(a / 2.0, 1.0 - lo)))
    c_hi = np.where(k == len(samples), 1.0,
                    l1_const * t_hi / ((1.0 + np.exp(-a * (1.0 - x))) * _scaled_sinh(a / 2.0, hi)))
    q = (a * t_lo) * (a * t_hi) / (1.0 + np.exp(-a * (hi - lo)))
    variance = _green(a, x, x, *_l1_factors(a, x)) * (q + w_lo * c_lo + w_hi * c_hi)
    std = np.sqrt(variance)
    return Prediction(
        x_star=x,
        mean=mean,
        variance=variance,
        std=std,
        band_lo=mean - 2.0 * std,
        band_hi=mean + 2.0 * std,
    )


def discretized_solution(params: KernelParams, samples: SampleSet, delta: float, x):
    """Superposed impulse responses delta * sum_i G(x, xi_i) eta_i.

    Riemann-sum surrogate for the source integral of G against a forcing
    term sampled by the ordinates on a grid of step ``delta``.  Inherits
    the boundary zeros of G exactly.  ``x`` may be a scalar or an array
    anywhere in [0, 1], in any order.

    Between two sites u solves -u'' + a^2 u = 0, so it is fixed there by
    its values at the bracketing sites (0 at the ends), through the
    kriging weights of :func:`predict`.  At a site, G(x, xi) =
    exp(-a (hi - lo)) S(lo) R(1 - hi), with S = _scaled_sinh and
    R = _scaled_sinh_ratio, gives R(1 - x) P from the sites left of it
    and S(x) Q from those right of it: running sums damped by
    exp(-a gap) per step, taken once left to right and once right to
    left.  This costs O(N + M log N) time and O(N + M) memory.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    xv = _as_unit("x", x)
    a = params.a
    xi, eta = samples.xi, samples.eta
    s, r = _scaled_sinh(a, xi), _scaled_sinh_ratio(a, 1.0 - xi)
    decay = np.exp(-a * np.diff(xi)).tolist()
    # p[j + 1] sums the sites xi_0 .. xi_j damped to xi_j, q[N - 1 - j]
    # the sites past xi_j damped to xi_{j + 1}
    p, q = [0.0], [0.0]
    for d, v in zip([0.0] + decay, (eta * s).tolist()):
        p.append(p[-1] * d + v)
    for d, v in zip([0.0] + decay[::-1], (eta * r).tolist()[::-1]):
        q.append(q[-1] * d + v)
    u = np.concatenate(([0.0], r * p[1:] + np.append(decay, 0.0) * s * q[-2::-1], [0.0]))
    k, _, _, w_lo, w_hi = _bracket(a, xi, xv)
    out = delta * (w_lo * u[k] + w_hi * u[k + 1])
    return out if np.ndim(x) else float(out)
