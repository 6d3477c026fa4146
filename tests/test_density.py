"""Density summaries of normalized kernel sections.

``density_stats`` is checked against frozen values, against 60-digit
``mpmath`` (``refvals.mp_section``) within 1e-14 for 15 values of ``a``
from 0 to ``MAX_COEFFICIENT`` at 8 anchors, and against 30-digit
``mpmath.quad`` on sharp sections near the ends (``a = 100`` and 1000).
The seam between its series and closed forms moves no more than the
exact functions do.  ``hypothesis`` draws ``a`` log-uniformly in
[1e-12, 1e12] and checks ordered central masses, a positive variance and
the mirror symmetry ``y -> 1 - y``.  Anchors outside (0, 1) are rejected.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import refvals
from greenreg.density import _SERIES_LIMIT, _side_moments, density_stats
from greenreg.kernel import KernelParams


@pytest.mark.parametrize(
    "a, key", [(1.0, "density_a1"), (10.0, "density_a10")], ids=["a1", "a10"]
)
def test_frozen_summaries_at_center(a, key):
    stats = density_stats(KernelParams(a=a), 0.5)
    want = refvals.EXACT[key]
    assert_allclose(stats.mean, want["mean"], atol=1e-12)
    assert_allclose(stats.variance, want["variance"], atol=1e-9)
    assert_allclose(stats.std, want["std"], atol=1e-9)
    assert_allclose(stats.p_1s, want["p_1s"], atol=1e-9)
    assert_allclose(stats.p_2s, want["p_2s"], atol=1e-9)


def test_std_squares_to_variance():
    stats = density_stats(KernelParams(a=3.0), 0.37)
    assert abs(stats.std**2 - stats.variance) <= 1e-12


@pytest.mark.parametrize("a", [0.0, 0.5, 3.0])
def test_basic_properties_at_random_anchors(a):
    params = KernelParams(a=a)
    rng = np.random.default_rng(23)
    for y in rng.uniform(0.05, 0.95, size=5):
        stats = density_stats(params, y)
        assert 0.0 < stats.mean < 1.0
        assert stats.variance > 0.0
        assert 0.0 < stats.p_1s <= stats.p_2s <= 1.0 + 1e-12


def test_mean_tracks_anchor_ordering():
    # moving the anchor right shifts mass right
    params = KernelParams(a=1.0)
    means = [density_stats(params, y).mean for y in (0.2, 0.5, 0.8)]
    assert means[0] < means[1] < means[2]


@pytest.mark.parametrize("a", refvals.SWEEP_COEFFICIENTS)
def test_matches_mpmath_at_every_scale(a):
    params = KernelParams(a=a)
    for y in refvals.SWEEP_ANCHORS:
        stats = density_stats(params, y)
        want = refvals.mp_section(a, y)
        for key in ("mean", "p_1s", "p_2s"):
            assert abs(getattr(stats, key) - want[key]) <= 1e-14, (key, y)
        for key in ("variance", "std"):
            assert abs(getattr(stats, key) - want[key]) <= 1e-14 * want[key], (key, y)


@pytest.mark.parametrize("a, y", [(1e-100, 1e-300), (1e-150, 5e-324)])
def test_anchor_below_the_coefficient_scale(a, y):
    # a y underflows, and the a = 0 section is exact to double precision
    got = density_stats(KernelParams(a=a), y)
    want = density_stats(KernelParams(a=0.0), y)
    for key in ("mean", "variance", "std", "p_1s", "p_2s"):
        assert_allclose(getattr(got, key), getattr(want, key), rtol=1e-15)


def _mp_side_moments(z):
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        h = 1 / (2 * mpmath.sinh(z / 2) ** 2)
        return mpmath.coth(z / 2) / z - h, 2 / z**2 - h


@pytest.mark.parametrize("offset", [1e-12, 1e-13, 1e-14, 0.0])
def test_series_seam_is_continuous(offset):
    # either side of the switch from the series to the closed forms, the
    # moments move by what the exact functions move, to 1e-15
    lo = _SERIES_LIMIT - offset if offset else math.nextafter(_SERIES_LIMIT, 0.0)
    hi = _SERIES_LIMIT + offset
    assert lo < _SERIES_LIMIT <= hi
    got_lo, got_hi = _side_moments(lo), _side_moments(hi)
    want_lo, want_hi = _mp_side_moments(lo), _mp_side_moments(hi)
    for k in range(2):
        jump = (got_hi[k] - got_lo[k]) - float(want_hi[k] - want_lo[k])
        assert abs(jump) <= 1e-15


@settings(max_examples=200, deadline=None, database=None)
@given(
    log_a=st.floats(min_value=-12.0, max_value=12.0),
    y=st.floats(min_value=1e-6, max_value=1.0 - 1e-6, exclude_min=True, exclude_max=True),
)
def test_section_properties(log_a, y):
    params = KernelParams(a=10.0**log_a)
    # 1 - y rounds, so the mirrored pair is built from the half where it is exact
    hi = max(y, 1.0 - y)
    lo = 1.0 - hi
    stats = density_stats(params, lo)
    mirror = density_stats(params, hi)
    for s in (stats, mirror):
        assert 0.0 <= s.p_1s <= s.p_2s <= 1.0
        assert s.variance > 0.0
        assert 0.0 < s.mean < 1.0
    assert abs(mirror.mean - (1.0 - stats.mean)) <= 1e-14
    assert abs(mirror.variance - stats.variance) <= 1e-14 * stats.variance
    assert abs(mirror.p_1s - stats.p_1s) <= 1e-14
    assert abs(mirror.p_2s - stats.p_2s) <= 1e-14


def _mpmath_mean_std(a, y):
    """Mean and std of x -> G(x, y) / L1(y) by 30-digit mpmath.quad split at y."""
    with mpmath.workdps(30):
        a = mpmath.mpf(a)
        y = mpmath.mpf(y)

        def g(x):
            lo, hi = min(x, y), max(x, y)
            return mpmath.sinh(a * lo) * mpmath.sinh(a * (1 - hi)) / (a * mpmath.sinh(a))

        def quad(f):
            return mpmath.quad(f, [0, y, 1])

        mass = quad(g)
        mean = quad(lambda x: x * g(x)) / mass
        variance = quad(lambda x: (x - mean) ** 2 * g(x)) / mass
        return float(mean), float(mpmath.sqrt(variance))


@pytest.mark.parametrize("y", [0.001, 0.05, 0.95, 0.999])
@pytest.mark.parametrize("a", [100.0, 1000.0])
def test_sharp_sections_near_the_ends(a, y):
    stats = density_stats(KernelParams(a=a), y)
    mean, std = _mpmath_mean_std(a, y)
    assert abs(stats.mean - mean) <= 1e-8
    assert abs(stats.std - std) <= 1e-8


@pytest.mark.parametrize("y", [0.0, 1.0, -0.2, 1.2, np.nan, np.inf, -np.inf])
def test_anchor_endpoints_rejected(y):
    with pytest.raises(ValueError, match=r"^y must lie strictly inside \(0, 1\)$"):
        density_stats(KernelParams(a=1.0), y)
