"""Density summaries of normalized kernel sections."""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import refvals
from greenreg.density import density_stats
from greenreg.kernel import KernelParams
from greenreg.numerics import QuadratureSpec


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


def test_coarse_quadrature_fails_mass_check():
    params = KernelParams(a=10.0, quad=QuadratureSpec(panel_count=2))
    with pytest.raises(ArithmeticError, match="mass"):
        density_stats(params, 0.3)


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
    # the default quadrature used to miss the mass check here
    stats = density_stats(KernelParams(a=a), y)
    mean, std = _mpmath_mean_std(a, y)
    assert abs(stats.mean - mean) <= 1e-8
    assert abs(stats.std - std) <= 1e-8


@pytest.mark.parametrize("y", [0.0, 1.0])
def test_anchor_endpoints_rejected(y):
    with pytest.raises(ValueError, match="strictly inside"):
        density_stats(KernelParams(a=1.0), y)
