"""Closed-form kernel, series cross-check, normalization, reproducing relation.

- ``KernelParams`` rejects a negative, non-finite or too large ``a``; the
  bound is where ``a**2`` overflows; below ``sqrt(float min)`` every
  output equals the ``a = 0`` output bit for bit.
- ``green_closed``: frozen values, exact symmetry, zeros at the ends,
  nonnegativity, the ``a = 0`` form, continuity in ``a``, and 60-digit
  ``mpmath`` agreement within 1e-14 relative from ``a = 1e-12`` to 1e150;
  NaN, ``inf`` and out-of-range abscissae are rejected.
- The sine series of ``reference`` agrees with the closed form.
- ``l1_norm``: frozen values, the midpoint identity, the ``a = 0`` form,
  quadrature, and ``mpmath`` within 1e-15 relative from ``a = 0`` to
  ``MAX_COEFFICIENT``; anchors outside (0, 1) are rejected.
- ``normalized_green``: frozen values, asymmetry, unit mass by quadrature,
  finite values where ``L1`` underflows (``a = 1e154``), and 60-digit
  ``mpmath`` agreement within 1e-13 relative for anchors from 5e-324 to
  1 - 1e-16 and ``a`` from 0 to 100, wherever H is a normal double.
- The reference derivatives of G match central differences and jump by
  one across the diagonal.
- The inner product of ``reference`` reproduces point evaluation, and its
  200 results (``a`` from 0 to 1000, 20 anchors, a smooth and a kinked
  ``u``) are pinned by a SHA-256 digest to the floats of the general
  integrator it replaced.
"""

import dataclasses
import hashlib
import math
import sys

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
import refvals
from greenreg.density import density_stats
from greenreg.kernel import (
    MAX_COEFFICIENT,
    KernelParams,
    green_closed,
    l1_norm,
    normalized_green,
)
from greenreg.regression import QueryGrid, SampleSet, predict

A1 = KernelParams(a=1.0)
A10 = KernelParams(a=10.0)


class TestKernelParams:
    @pytest.mark.parametrize("a", [-1.0, -1e-12, np.nan, np.inf, 1e160])
    def test_rejects_bad_coefficient(self, a):
        with pytest.raises(ValueError, match="nonnegative"):
            KernelParams(a=a)

    def test_coefficient_bound_is_where_the_square_overflows(self):
        assert np.isfinite(np.float64(MAX_COEFFICIENT) ** 2)
        KernelParams(a=MAX_COEFFICIENT)
        with pytest.raises(ValueError, match="a\\*\\*2"):
            KernelParams(a=np.nextafter(MAX_COEFFICIENT, np.inf))

    # below sqrt(float min) the products a * s in the closed forms round
    # in the subnormal range; their epsilon guards give the a = 0 values
    @pytest.mark.parametrize(
        "a", [5e-324, 1e-300, 1e-200, -0.0, float(np.nextafter(math.sqrt(sys.float_info.min), 0.0))]
    )
    def test_tiny_coefficient_is_zero(self, a):
        tiny, zero = KernelParams(a=a), KernelParams(a=0.0)
        assert green_closed(tiny, 0.3, 0.5) == green_closed(zero, 0.3, 0.5) == 0.15
        samples = SampleSet(xi=[1e-300, 0.1, 0.3, 0.5, 0.9], eta=[-1.0, 1.0, 2.0, 3.0, 5.0])
        grid = QueryGrid(x_star=[5e-324, 1e-200, 0.05, 0.4, 0.7, 1.0 - 1e-16])
        want, got = predict(zero, samples, grid), predict(tiny, samples, grid)
        for name in ("mean", "variance", "std", "band_lo", "band_hi"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for y in (1e-300, 0.3, 0.5, 1.0 - 1e-16):
            assert np.array(dataclasses.astuple(density_stats(tiny, y))).tobytes() == (
                np.array(dataclasses.astuple(density_stats(zero, y))).tobytes()
            )


class TestGreenClosed:
    def test_center_value(self):
        assert_allclose(green_closed(A1, 0.5, 0.5), refvals.EXACT["g_half_a1"], rtol=1e-14)

    def test_scalar_in_scalar_out(self):
        assert isinstance(green_closed(A1, 0.5, 0.5), float)

    def test_broadcasting(self):
        x = np.linspace(0.1, 0.9, 3)[:, None]
        y = np.linspace(0.2, 0.8, 4)[None, :]
        assert green_closed(A1, x, y).shape == (3, 4)

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    def test_symmetry_is_exact(self, a):
        params = KernelParams(a=a)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, size=50)
        y = rng.uniform(0.0, 1.0, size=50)
        assert np.array_equal(green_closed(params, x, y), green_closed(params, y, x))

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0, 100.0])
    def test_boundary_zeros(self, a):
        params = KernelParams(a=a)
        t = np.linspace(0.0, 1.0, 11)
        for edge in (0.0, 1.0):
            assert np.all(green_closed(params, edge, t) == 0.0)
            assert np.all(green_closed(params, t, edge) == 0.0)

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 10.0, 50.0])
    def test_nonnegative_on_grid(self, a):
        params = KernelParams(a=a)
        t = np.linspace(0.0, 1.0, 101)
        assert np.all(green_closed(params, t[:, None], t[None, :]) >= 0.0)

    def test_zero_coefficient_closed_form(self):
        t = np.linspace(0.0, 1.0, 11)
        g = green_closed(KernelParams(a=0.0), t[:, None], t[None, :])
        lo = np.minimum(t[:, None], t[None, :])
        hi = np.maximum(t[:, None], t[None, :])
        assert_allclose(g, lo * (1.0 - hi), rtol=1e-15)

    def test_continuous_at_zero_coefficient(self):
        t = np.linspace(0.0, 1.0, 21)
        near = green_closed(KernelParams(a=1e-6), t[:, None], t[None, :])
        at = green_closed(KernelParams(a=0.0), t[:, None], t[None, :])
        assert_allclose(near, at, atol=1e-9)

    @pytest.mark.parametrize(
        "a, key",
        [(50.0, "g_quarters_a50"), (200.0, "g_quarters_a200"), (1000.0, "g_quarters_a1000")],
    )
    def test_log_space_branch(self, a, key):
        # sinh(a) alone overflows near a = 710; these need the decaying-exponential form
        assert_allclose(green_closed(KernelParams(a=a), 0.25, 0.75), refvals.EXACT[key], rtol=1e-12)

    def test_log_space_continuity_at_threshold(self):
        # a = 30 was the switch to a log-space branch; one formula now covers every a
        below = green_closed(KernelParams(a=30.0), 0.4, 0.6)
        above = green_closed(KernelParams(a=30.0 + 1e-9), 0.4, 0.6)
        assert_allclose(below, above, rtol=1e-6)

    @pytest.mark.parametrize(
        "a", [1e-12, 0.5, 31.0, 100.0, 700.0, 1e4, 1e8, 1e12, 1e16, 1e150]
    )
    def test_matches_mpmath_at_every_scale(self, a):
        # on and within a few 1/a of the diagonal, where G is representable
        # at every a; random pairs too while a is small enough for them
        points = [
            (x, x + t / a)
            for x in (1e-3, 0.1, 0.37, 0.5, 0.9, 0.999)
            for t in (0.0, 0.25, 1.0, 3.0)
            if x + t / a < 1.0
        ]
        if a <= 100.0:
            points += [tuple(p) for p in np.random.default_rng(3).uniform(0.0, 1.0, (40, 2))]
        params = KernelParams(a=a)
        with mpmath.workdps(60):
            ma = mpmath.mpf(a)
            for x, y in points:
                lo, hi = mpmath.mpf(min(x, y)), mpmath.mpf(max(x, y))
                want = mpmath.sinh(ma * lo) * mpmath.sinh(ma * (1 - hi)) / (ma * mpmath.sinh(ma))
                got = green_closed(params, x, y)
                assert abs(got - want) <= 1e-14 * want, (x, y)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, np.inf, -np.inf])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
            green_closed(A1, bad, 0.5)
        with pytest.raises(ValueError, match=r"^y must lie in \[0, 1\]$"):
            green_closed(A1, 0.5, bad)


class TestGreenSeries:
    def test_single_term(self):
        got = reference.green_series(1.0, 0.5, 0.5, terms=1)
        assert_allclose(got, 2.0 / (np.pi**2 + 1.0), rtol=1e-14)

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    def test_matches_closed_form(self, a):
        params = KernelParams(a=a)
        t = np.linspace(0.0, 1.0, 11)
        x, y = t[:, None], t[None, :]
        assert_allclose(reference.green_series(a, x, y), green_closed(params, x, y), atol=5e-6)

    def test_scalar_in_scalar_out(self):
        assert isinstance(reference.green_series(1.0, 0.3, 0.7), float)


class TestL1Norm:
    def test_frozen_center_value(self):
        assert_allclose(l1_norm(A1, 0.5), refvals.EXACT["l1_half_a1"], rtol=1e-14)

    def test_frozen_large_coefficient_value(self):
        assert_allclose(l1_norm(KernelParams(a=50.0), 0.3), refvals.EXACT["l1_03_a50"], rtol=1e-13)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 10.0, 30.0, 200.0])
    def test_midpoint_identity(self, a):
        # the two closed forms must agree essentially exactly
        got = l1_norm(KernelParams(a=a), 0.5)
        want = (1.0 - 1.0 / np.cosh(a / 2.0)) / a**2
        assert abs(got - want) <= 1e-12

    def test_zero_coefficient_form(self):
        y = np.linspace(0.05, 0.95, 19)
        assert_allclose(l1_norm(KernelParams(a=0.0), y), y * (1.0 - y) / 2.0, rtol=1e-15)

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    def test_matches_quadrature(self, a):
        params = KernelParams(a=a)
        rng = np.random.default_rng(19)
        for y in rng.uniform(0.01, 0.99, size=20):
            via_quad = reference.simpson_split(lambda x: green_closed(params, x, y), y)
            assert abs(l1_norm(params, y) - via_quad) <= 1e-8

    @pytest.mark.parametrize("a", refvals.SWEEP_COEFFICIENTS)
    def test_matches_mpmath_at_every_scale(self, a):
        got = l1_norm(KernelParams(a=a), np.array(refvals.SWEEP_ANCHORS))
        want = [refvals.mp_section(a, y)["l1"] for y in refvals.SWEEP_ANCHORS]
        assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_anchor_below_the_coefficient_scale(self):
        # a y = 1e-400 underflows; the norm is y (1 - y) / 2 to double precision
        assert_allclose(l1_norm(KernelParams(a=1e-100), 1e-300), 5e-301, rtol=1e-15)

    def test_positive_inside(self):
        y = np.linspace(1e-6, 1.0 - 1e-6, 101)
        assert np.all(l1_norm(A10, y) > 0.0)

    @pytest.mark.parametrize("y", [0.0, 1.0, -0.2, 1.2, np.nan, np.inf, -np.inf])
    def test_endpoints_rejected(self, y):
        with pytest.raises(ValueError, match=r"^y must lie strictly inside \(0, 1\)$"):
            l1_norm(A1, y)


class TestNormalizedGreen:
    def test_frozen_values(self):
        assert_allclose(normalized_green(A1, 0.5, 0.5), refvals.EXACT["h_half_a1"], rtol=1e-13)
        assert_allclose(normalized_green(A10, 0.5, 0.5), refvals.EXACT["h_half_a10"], rtol=1e-13)
        assert_allclose(normalized_green(A1, 0.5, 0.1), refvals.EXACT["h_51_a1"], rtol=1e-13)

    def test_asymmetric(self):
        fwd = normalized_green(A1, 0.1, 0.3)
        rev = normalized_green(A1, 0.3, 0.1)
        assert_allclose(fwd, refvals.EXACT["h_13_a1"], rtol=1e-13)
        assert_allclose(rev, refvals.EXACT["h_31_a1"], rtol=1e-13)
        assert abs(fwd - rev) > 0.5

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("y", [0.1, 0.5, 0.9])
    def test_unit_mass(self, a, y):
        params = KernelParams(a=a)
        mass = reference.simpson_split(lambda x: normalized_green(params, x, y), y)
        assert abs(mass - 1.0) <= 1e-8

    def test_unit_mass_large_coefficient_needs_more_panels(self):
        # at a = 200 the section is a sharp spike; the fixed Simpson rule is
        # not enough for 1e-8 but 30-digit adaptive quadrature is
        params = KernelParams(a=200.0)
        with mpmath.workdps(30):
            mass = mpmath.quad(lambda x: normalized_green(params, float(x), 0.5), [0, 0.5, 1])
        assert abs(mass - 1.0) <= 1e-8

    @pytest.mark.parametrize(
        "a, key", [(50.0, "h_half_a50"), (200.0, "h_half_a200"), (1000.0, "h_half_a1000")]
    )
    def test_large_coefficient_center_values(self, a, key):
        got = normalized_green(KernelParams(a=a), 0.5, 0.5)
        assert_allclose(got, refvals.EXACT[key], rtol=1e-12)

    def test_anchor_endpoints_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            normalized_green(A1, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, np.inf, -np.inf])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]$"):
            normalized_green(A1, bad, 0.5)
        with pytest.raises(ValueError, match=r"^y must lie strictly inside \(0, 1\)$"):
            normalized_green(A1, 0.5, bad)

    @pytest.mark.parametrize("a", [1e100, 1e154])
    @pytest.mark.parametrize("y", [5e-324, 3e-320, 1e-300, 1e-200])
    def test_finite_where_the_norm_underflows(self, a, y):
        # L1(y) is about y / a, below the double range here, while H(y, y)
        # is about a; 400 digits hold 1 - y and a (1 - y) exactly
        with mpmath.workdps(400):
            ma, my = mpmath.mpf(a), mpmath.mpf(y)
            g = mpmath.sinh(ma * my) * mpmath.sinh(ma * (1 - my)) / (ma * mpmath.sinh(ma))
            l1 = (
                2 * mpmath.sinh(ma * my / 2) * mpmath.sinh(ma * (1 - my) / 2)
                / (ma**2 * mpmath.cosh(ma / 2))
            )
            want = g / l1
        got = normalized_green(KernelParams(a=a), y, y)
        assert abs(got - want) <= 1e-14 * want

    # x at y and one ulp either side, at the ends, subnormal, next to 1
    # and spread over [0, 1]
    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("y", [5e-324, 1e-320, 1e-310, 1e-300, 1e-9, 0.5, 1.0 - 1e-16])
    def test_matches_mpmath_down_to_subnormal_anchors(self, a, y):
        x = np.unique([
            0.0, y / 2.0, np.nextafter(y, 0.0), y, np.nextafter(y, 1.0), min(2.0 * y, 1.0),
            5e-324, 1e-320, 1e-310, 1e-300, 1e-9, 0.05, 0.3, 0.5, 0.7,
            1.0 - 1e-16, np.nextafter(1.0, 0.0), 1.0,
        ])
        got = normalized_green(KernelParams(a=a), x, y)
        with mpmath.workdps(60):
            want = [refvals._mp_h(mpmath.mpf(a), mpmath.mpf(v), mpmath.mpf(y)) for v in x]
        for v, g, w in zip(x, got, want):
            if w == 0:
                assert g == 0.0, v
            elif w >= sys.float_info.min:
                assert abs(g - w) <= 1e-13 * w, (v, g, float(w))


class TestDerivativeBranches:
    @pytest.mark.parametrize("a", [0.0, 0.7, 10.0, 50.0])
    def test_matches_central_differences(self, a):
        params = KernelParams(a=a)
        y = 0.6
        h = 1e-6
        for x, branch in ((0.3, reference.green_dx_below), (0.8, reference.green_dx_above)):
            numeric = (green_closed(params, x + h, y) - green_closed(params, x - h, y)) / (2 * h)
            assert_allclose(branch(params, x, y), numeric, rtol=1e-6, atol=1e-12)

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("y", [0.2, 0.5, 0.8])
    def test_jump_across_diagonal_is_one(self, a, y):
        params = KernelParams(a=a)
        jump = reference.green_dx_below(params, y, y) - reference.green_dx_above(params, y, y)
        assert_allclose(jump, 1.0, rtol=1e-12)


class TestRkhsInnerProduct:
    CASES = [
        (lambda x: np.sin(np.pi * x), lambda x: np.pi * np.cos(np.pi * x)),
        (lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x),
        (lambda x: np.sin(3.0 * np.pi * x), lambda x: 3.0 * np.pi * np.cos(3.0 * np.pi * x)),
    ]

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_reproduces_point_evaluation(self, a, case):
        params = KernelParams(a=a)
        u, du = self.CASES[case]
        for y in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert abs(reference.inner_product(params, u, du, y) - u(y)) <= 1e-6

    # SHA-256 of the 200 results below as float64 bytes, recorded with the
    # general split-point Simpson integrator that the fixed rule replaced;
    # the sums go through numpy's dot, so a different BLAS could round them
    # differently
    GRID_DIGEST = "977c0c0eb971d89e6f2e8e740beded5e339aea5ec42e11957102e86ca86b5e8a"

    def test_same_floats_as_the_general_integrator(self):
        kinked = (
            lambda x: np.abs(x - 0.37) * x * (1.0 - x),
            lambda x: np.sign(x - 0.37) * x * (1.0 - x) + np.abs(x - 0.37) * (1.0 - 2.0 * x),
        )
        got = np.array([
            reference.inner_product(KernelParams(a=a), u, du, y)
            for a in (0.0, 1.0, 10.0, 100.0, 1000.0)
            for y in np.linspace(0.02, 0.98, 20)
            for u, du in (self.CASES[0], kinked)
        ])
        assert hashlib.sha256(got.tobytes()).hexdigest() == self.GRID_DIGEST
