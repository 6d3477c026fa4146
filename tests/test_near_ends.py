"""A seeded sweep of ``predict`` and ``discretized_solution`` next to the ends.

One generator draws sets of 1 to 5 sites, each at 10^U(-300, -2) or at
1 - 10^U(-15, -2), and queries a fraction 10^U(-6, 0) of the way across
a bracket from either of its ends (a site, 0 or 1), at a in
{0, 1, 10, 100, 1e4}.  ``predict`` is
checked against the dense 400-digit ``refvals.mp_posterior``: the mean
relative to its scale |w_lo eta_lo| + |w_hi eta_hi|, the variance
relative to itself.  ``discretized_solution`` is checked against
delta sum G(x, xi) eta from ``refvals.mp_green`` at 400 digits, relative
to delta sum |G(x, xi) eta|.  References below the smallest normal
double are skipped: the package returns 0 or a subnormal there.

BOUNDS holds one bound per function and a, each the largest error
measured on this sweep, with numpy's AVX512 kernels on and off, rounded
up in its second digit.  A bound is never loosened.  The sweep takes
3 to 5 s on two vCPUs.
"""

import functools
import sys

import mpmath
import numpy as np
import pytest

import refvals
from greenreg import KernelParams, QueryGrid, SampleSet, discretized_solution, predict

COEFFICIENTS = [0.0, 1.0, 10.0, 100.0, 1e4]
DPS = 400
DELTA = 0.01
TINY = sys.float_info.min

# a -> (predict's mean, predict's variance, discretized_solution); the
# mean and solve bounds grow with a as a d eps: the rounded product a d
# of a distance d enters exp(-a d) in any double evaluation
BOUNDS = {
    0.0: (2.1e-16, 2.4e-16, 3.2e-16),
    1.0: (2.2e-16, 4.9e-16, 3.6e-16),
    10.0: (7.7e-16, 5.4e-16, 1.2e-15),
    100.0: (6.3e-15, 4.4e-16, 9.4e-15),
    1e4: (9.8e-15, 3.7e-16, 6.6e-15),
}


def _draw_cases(count=16, seed=2026):
    """``count`` (sites, ordinates, queries) triples from one seeded generator."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        near_zero = 10.0 ** rng.uniform(-300.0, -2.0, n)
        near_one = 1.0 - 10.0 ** rng.uniform(-15.0, -2.0, n)
        xi = np.unique(np.where(rng.random(n) < 0.5, near_zero, near_one))
        eta = rng.normal(size=xi.size)
        ends = np.concatenate(([0.0], xi, [1.0]))
        m = int(rng.integers(6, 9))
        k = rng.integers(0, xi.size + 1, m)
        lo, hi = ends[k], ends[k + 1]
        frac = 10.0 ** rng.uniform(-6.0, 0.0, m)
        x = np.where(rng.random(m) < 0.5, lo + frac * (hi - lo), hi - frac * (hi - lo))
        x = x[(x > 0.0) & (x < 1.0)]
        cases.append((xi, eta, x))
    return cases


CASES = _draw_cases()


@functools.cache
def _references(a, case):
    """Per query of ``CASES[case]``: mean, variance, mean scale, sum G eta and sum |G eta|.

    The mean and variance are ``refvals.mp_posterior``'s.  The mean's scale
    is |w_lo eta_lo| + |w_hi eta_hi| over the kriging weights of G on the
    query's bracketing sites, the only sites that G's Markov structure
    gives a weight.
    """
    xi, eta, x = CASES[case]
    means, variances = refvals.mp_posterior(a, xi, eta, x, dps=DPS)
    with mpmath.workdps(DPS):
        a_ = mpmath.mpf(a)
        sites = [mpmath.mpf(float(v)) for v in xi]
        values = [mpmath.mpf(float(v)) for v in eta]
        out = []
        for q, mean, variance in zip(x, means, variances):
            cross = [refvals.mp_green(a_, mpmath.mpf(float(q)), s) for s in sites]
            k = int(np.searchsorted(xi, q))
            ends = [i for i in (k - 1, k) if 0 <= i < xi.size]
            weights = mpmath.lu_solve(
                mpmath.matrix([[refvals.mp_green(a_, sites[i], sites[j]) for j in ends] for i in ends]),
                mpmath.matrix([cross[i] for i in ends]))
            out.append((
                mean, variance,
                float(sum(abs(w * values[i]) for w, i in zip(weights, ends))),
                float(sum(g * v for g, v in zip(cross, values))),
                float(sum(abs(g * v) for g, v in zip(cross, values))),
            ))
        return out


def predict_errors(a):
    """Mean errors relative to their scale and variance errors relative to the variance."""
    mean_errors, variance_errors = [], []
    for case, (xi, eta, x) in enumerate(CASES):
        pred = predict(KernelParams(a=a), SampleSet(xi=xi, eta=eta), QueryGrid(x_star=x))
        for mean, variance, (want_mean, want_var, scale, _, _) in zip(
                pred.mean, pred.variance, _references(a, case)):
            if scale >= TINY:
                mean_errors.append(abs(mean - want_mean) / scale)
            if want_var >= TINY:
                variance_errors.append(abs(variance - want_var) / want_var)
    return mean_errors, variance_errors


def solve_errors(a):
    """Errors of discretized_solution relative to delta sum |G eta|."""
    errors = []
    for case, (xi, eta, x) in enumerate(CASES):
        got = discretized_solution(KernelParams(a=a), SampleSet(xi=xi, eta=eta), DELTA, x)
        for u, (_, _, _, total, scale) in zip(got, _references(a, case)):
            if DELTA * scale >= TINY:
                errors.append(abs(u - DELTA * total) / (DELTA * scale))
    return errors


@pytest.mark.parametrize("a", COEFFICIENTS)
def test_predict_matches_mpmath_next_to_the_ends(a):
    mean_errors, variance_errors = predict_errors(a)
    assert len(mean_errors) >= 80 and len(variance_errors) >= 80
    assert max(mean_errors) <= BOUNDS[a][0]
    assert max(variance_errors) <= BOUNDS[a][1]


@pytest.mark.parametrize("a", COEFFICIENTS)
def test_solve_matches_mpmath_next_to_the_ends(a):
    errors = solve_errors(a)
    assert len(errors) >= 80
    assert max(errors) <= BOUNDS[a][2]
