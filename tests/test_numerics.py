"""The fixed composite Simpson rule behind ``kernel.rkhs_inner_product``."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
import refvals
from greenreg.kernel import KernelParams, _simpson, green_closed, l1_norm, rkhs_inner_product


class TestIntegrate:
    def test_constant(self):
        assert _simpson(np.ones_like, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_cubics_are_exact(self):
        # Simpson integrates cubics exactly; only rounding accumulation remains
        val = _simpson(lambda x: x**3 - 2.0 * x**2 + 0.5 * x - 1.0, 0.0, 1.0)
        assert_allclose(val, 0.25 - 2.0 / 3.0 + 0.25 - 1.0, rtol=1e-14)

    def test_smooth_integrand(self):
        assert_allclose(_simpson(np.sin, 0.0, np.pi), 2.0, rtol=1e-12)

    def test_kinked_kernel_section_with_split(self):
        params = KernelParams(a=1.0)
        val = reference.simpson_split(lambda x: green_closed(params, x, 0.5), 0.5)
        assert_allclose(val, refvals.EXACT["l1_half_a1"], atol=1e-10)

    def test_splitting_beats_straddling(self):
        # same panel count, but the kink at x = y ruins the rule across it
        params = KernelParams(a=1.0)
        y = 1.0 / 3.0
        exact = l1_norm(params, y)
        split = reference.simpson_split(lambda x: green_closed(params, x, y), y)
        straddle = _simpson(lambda x: green_closed(params, x, y), 0.0, 1.0)
        assert abs(split - exact) < abs(straddle - exact)

    def test_nonfinite_integrand_names_node(self):
        def u(x):
            return np.where(x < 0.1, np.nan, 1.0)

        with pytest.raises(ValueError, match="not finite at node x=0.0"):
            rkhs_inner_product(KernelParams(a=1.0), u, u, 0.5)
