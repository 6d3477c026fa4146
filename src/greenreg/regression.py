"""Interpolating Bayesian regression with the normalized kernel.

The observed ordinates are modeled as jointly Gaussian with covariances
given by normalized kernel evaluations, and prediction conditions the
query values on the data.  No noise term: the posterior mean passes
through every sample exactly and the posterior variance vanishes there.
G is the covariance of a Markov bridge, so conditioning needs no matrix
solve: a query's weights sit on the two sites bracketing it, and the
predictive mean, variance and covariance are sums of two terms.
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
    _normalize,
    _scaled_sinh,
    _scaled_sinh_ratio,
)

# between two sites the predictive variance H(x, x) - sum w H(x, xi) is a
# difference of nearly equal terms, so its error relative to the variance
# grows like 1 / gap; at this gap it stays within 8 eps H(x, x), and the
# mean's within 1e-15 relative (tests/test_regression.py::TestAgainstMpmath::
# test_gap_floor_error_is_a_few_ulp_of_the_prior)
MIN_ABSCISSA_GAP = 1e-9

# negative predictive variances no worse than this are rounding noise and
# are zeroed silently; anything worse is zeroed too but counted
VARIANCE_CLAMP_TOLERANCE = 1e-9


def _axis_grid(delta: float) -> np.ndarray:
    """Endpoint-inclusive grid 0, delta, 2 delta, ..., ending at exactly 1."""
    return np.append(np.arange(math.ceil(1.0 / delta)) * delta, 1.0)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Observed data: abscissae ``xi`` with ordinates ``eta``.

    Abscissae must be finite, strictly increasing, strictly inside (0, 1)
    and pairwise separated by at least ``MIN_ABSCISSA_GAP``.
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
        gaps = np.diff(xi)
        if np.any(gaps <= 0.0):
            raise ValueError("sample abscissae must be strictly increasing")
        if np.any(gaps < MIN_ABSCISSA_GAP):
            k = int(np.flatnonzero(gaps < MIN_ABSCISSA_GAP)[0])
            raise ValueError(
                f"sample abscissae {float(xi[k])!r} and {float(xi[k + 1])!r} are closer"
                f" than {MIN_ABSCISSA_GAP:g}; the predictive variance between them"
                f" would lose more than half its digits to cancellation"
            )
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

    ``band_lo``/``band_hi`` bracket mean -+ 2 std; ``clamped_count`` says
    how many variances were negative beyond rounding noise before being
    clamped to zero.
    """

    x_star: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    std: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    clamped_count: int


def build_cov_matrix(params: KernelParams, samples: SampleSet) -> np.ndarray:
    """Data covariance matrix with entry (i, j) = H(xi_i, xi_j).

    Not symmetric in general: the normalization acts on the second
    argument only.
    """
    xi = samples.xi
    return _normalize(params.a, _green(params.a, xi[:, None], xi), *_l1_factors(params.a, xi))


def _clamp_variances(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Zero out negative variances; count those beyond rounding noise."""
    clamped = int(np.count_nonzero(raw < -VARIANCE_CLAMP_TOLERANCE))
    return np.where(raw < 0.0, 0.0, raw), clamped


def _bracket(a: float, xi: np.ndarray, x):
    """Kriging weights of x on the two sites bracketing it.

    The sites are ``xi`` padded with the ends 0 and 1, returned with the
    index k of the bracket sites[k] <= x <= sites[k + 1] (x = 1 takes
    the last one).  The weights are sinh(a (hi - x)) / sinh(a (hi - lo))
    and its mirror, written as exp(-a (x - lo)) S(hi - x) / S(hi - lo)
    with S = _scaled_sinh: no factor overflows at large a, and S is the
    gap itself where 2 a gap is below the epsilon, so tiny a gives
    linear interpolation, not 0/0.
    """
    sites = np.concatenate(([0.0], xi, [1.0]))
    k = np.searchsorted(xi, x, side="right")
    lo, hi = sites[k], sites[k + 1]
    span = _scaled_sinh(a, hi - lo)
    w_lo = np.exp(-a * (x - lo)) * _scaled_sinh(a, hi - x) / span
    w_hi = np.exp(-a * (hi - x)) * _scaled_sinh(a, x - lo) / span
    return sites, k, w_lo, w_hi


def _two_neighbour(a: float, samples: SampleSet, x, z):
    """Kriging mean at x and the posterior H(x, z) - sum_k w_k(x) H(z, xi_k).

    The sum runs over the two sites bracketing x, an end counting as a
    site of value 0.  ``x`` and ``z`` broadcast against each other: a
    column of queries against a row gives the whole predictive
    covariance, at O(1) per entry.
    """
    sites, k, w_lo, w_hi = _bracket(a, samples.xi, x)
    values = np.concatenate(([0.0], samples.eta, [0.0]))
    # G vanishes at the pinned ends, so any nonzero factors there give
    # them a zero term
    s_y, s_rest = (np.concatenate(([1.0], f, [1.0])) for f in _l1_factors(a, samples.xi))
    mean = w_lo * values[k] + w_hi * values[k + 1]
    explained = (
        w_lo * _normalize(a, _green(a, z, sites[k]), s_y[k], s_rest[k])
        + w_hi * _normalize(a, _green(a, z, sites[k + 1]), s_y[k + 1], s_rest[k + 1])
    )
    return mean, _normalize(a, _green(a, x, z), *_l1_factors(a, z)) - explained


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

    This takes O((N + M) log N) time and O(N + M) memory and forms no
    covariance matrix.  Queries need not be sorted.  A query on a site
    reproduces its ordinate with variance exactly 0; elsewhere the
    variance is a difference and can come out a hair negative, see
    ``VARIANCE_CLAMP_TOLERANCE``.
    """
    x = grid.x_star
    mean, posterior = _two_neighbour(params.a, samples, x, x)
    variance, clamped_count = _clamp_variances(posterior)
    std = np.sqrt(variance)
    return Prediction(
        x_star=x,
        mean=mean,
        variance=variance,
        std=std,
        band_lo=mean - 2.0 * std,
        band_hi=mean + 2.0 * std,
        clamped_count=clamped_count,
    )


def predictive_covariance(
    params: KernelParams, samples: SampleSet, grid: QueryGrid
) -> np.ndarray:
    """Full M x M predictive covariance, diagonal unclamped.

    Entry (i, j) is H(x*_i, x*_j) - sum_k w_k(x*_i) H(x*_j, xi_k), the
    sum running over the two sites bracketing x*_i with the kriging
    weights of :func:`predict`: the two-neighbour form of the dense
    query_cov - cross_cov^T data_cov^{-1} cross_cov.  Not symmetric,
    since H is not.  Its diagonal is the raw (pre-clamp) variance of
    :func:`predict`, to the bit.
    """
    return _two_neighbour(params.a, samples, grid.x_star[:, None], grid.x_star[None, :])[1]


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
    _, k, w_lo, w_hi = _bracket(a, xi, xv)
    out = delta * (w_lo * u[k] + w_hi * u[k + 1])
    return out if np.ndim(x) else float(out)
