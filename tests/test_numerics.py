"""The tests' own integrator, and the independence of the oracles.

The fixed composite Simpson rule lives in ``tests/reference.py``: the
package integrates nothing numerically.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
import refvals
from greenreg.kernel import KernelParams, green_closed, l1_norm


class TestIntegrate:
    def test_constant(self):
        assert reference.simpson(np.ones_like, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_cubics_are_exact(self):
        # Simpson integrates cubics exactly; only rounding accumulation remains
        val = reference.simpson(lambda x: x**3 - 2.0 * x**2 + 0.5 * x - 1.0, 0.0, 1.0)
        assert_allclose(val, 0.25 - 2.0 / 3.0 + 0.25 - 1.0, rtol=1e-14)

    def test_smooth_integrand(self):
        assert_allclose(reference.simpson(np.sin, 0.0, np.pi), 2.0, rtol=1e-12)

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
        straddle = reference.simpson(lambda x: green_closed(params, x, y), 0.0, 1.0)
        assert abs(split - exact) < abs(straddle - exact)


@pytest.mark.parametrize("oracle", ["reference.py", "refvals.py"])
def test_oracles_import_no_private_package_names(oracle):
    # an oracle that borrows the package's internals checks them against
    # themselves
    tree = ast.parse((Path(__file__).parent / oracle).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "greenreg":
            imported = [alias.name for alias in node.names]
            assert not [n for n in imported if n.startswith("_")], (node.module, imported)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not any(part.startswith("_") for part in alias.name.split(".")), alias.name
