"""Quadrature and linear-solver contracts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import refvals
from greenreg.kernel import KernelParams, green_closed
from greenreg.numerics import (
    QuadratureSpec,
    SingularMatrixError,
    integrate,
    solve_linear,
)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.panel_count == 2048
        assert spec.split_points == ()

    @pytest.mark.parametrize("n", [0, 1, 3, 2047, -2])
    def test_rejects_odd_or_small_panel_counts(self, n):
        with pytest.raises(ValueError, match="panel_count"):
            QuadratureSpec(panel_count=n)

    @pytest.mark.parametrize("pts", [(0.0,), (1.0,), (-0.1,), (0.2, 0.2), (0.7, 0.3)])
    def test_rejects_bad_split_points(self, pts):
        with pytest.raises(ValueError, match="split_points"):
            QuadratureSpec(split_points=pts)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_cubics_are_exact(self):
        # Simpson integrates cubics exactly; only rounding accumulation remains
        spec = QuadratureSpec(panel_count=64)
        val = integrate(lambda x: x**3 - 2.0 * x**2 + 0.5 * x - 1.0, 0.0, 1.0, spec)
        assert_allclose(val, 0.25 - 2.0 / 3.0 + 0.25 - 1.0, rtol=1e-14)

    def test_smooth_integrand(self):
        assert_allclose(integrate(np.sin, 0.0, np.pi), 2.0, rtol=1e-12)

    def test_kinked_kernel_section_with_split(self):
        params = KernelParams(a=1.0)
        spec = QuadratureSpec(split_points=(0.5,))
        val = integrate(lambda x: green_closed(params, x, 0.5), 0.0, 1.0, spec)
        assert_allclose(val, refvals.EXACT["l1_half_a1"], atol=1e-10)

    def test_splitting_beats_straddling(self):
        # same panel budget, but the kink at x = y ruins the unsplit rule
        params = KernelParams(a=1.0)
        y = 1.0 / 3.0
        exact = integrate(
            lambda x: green_closed(params, x, y), 0.0, 1.0,
            QuadratureSpec(panel_count=4096, split_points=(y,)),
        )
        split = integrate(
            lambda x: green_closed(params, x, y), 0.0, 1.0,
            QuadratureSpec(panel_count=64, split_points=(y,)),
        )
        straddle = integrate(
            lambda x: green_closed(params, x, y), 0.0, 1.0,
            QuadratureSpec(panel_count=64),
        )
        assert abs(split - exact) < abs(straddle - exact)

    def test_split_additivity(self):
        spec = QuadratureSpec(split_points=(0.3,))
        whole = integrate(np.exp, 0.0, 1.0, spec)
        parts = integrate(np.exp, 0.0, 0.3, spec) + integrate(np.exp, 0.3, 1.0, spec)
        assert abs(whole - parts) <= 1e-12

    def test_scalar_return_broadcasts(self):
        assert integrate(lambda x: 2.5, 0.0, 2.0) == pytest.approx(5.0, abs=1e-14)

    @pytest.mark.parametrize("lo, hi", [(0.5, 0.5), (0.7, 0.2)])
    def test_empty_or_reversed_interval_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="empty or reversed"):
            integrate(lambda x: x, lo, hi)

    def test_nonfinite_integrand_names_node(self):
        def f(x):
            return np.where(x < 0.1, np.nan, 1.0)

        with pytest.raises(ValueError, match="not finite at node x=0.0"):
            integrate(f, 0.0, 1.0)


class TestSolveLinear:
    def test_diagonal_system(self):
        x = solve_linear([[2.0, 0.0], [0.0, 4.0]], [[2.0], [8.0]])
        assert_allclose(x, [[1.0], [2.0]], rtol=1e-15)

    def test_matches_numpy_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            assert_allclose(solve_linear(a, b), np.linalg.solve(a, b), rtol=1e-10)

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        b = rng.normal(size=(4, 3))
        x = solve_linear(a, b)
        assert x.shape == (4, 3)
        assert_allclose(a @ x, b, atol=1e-12)

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError) as excinfo:
            solve_linear(np.zeros((2, 2)), np.ones(2))
        assert excinfo.value.pivot == 0.0

    def test_duplicate_columns_report_pivot_index(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        a[:, 2] = a[:, 1]
        with pytest.raises(SingularMatrixError) as excinfo:
            solve_linear(a, np.ones(4))
        assert excinfo.value.pivot_index == 2
        assert "pivot 2" in str(excinfo.value)

    def test_tiny_pivot_relative_to_norm_is_singular(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 5e-13]])
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.ones(2))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            solve_linear(np.ones((2, 3)), np.ones(2))

    def test_rhs_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="right-hand side"):
            solve_linear(np.eye(3), np.ones(2))

    def test_nonfinite_entries_rejected(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            solve_linear(a, np.ones(2))
