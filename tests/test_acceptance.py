"""Top-level acceptance checks, one per shipped guarantee.

Each test pins an externally visible behavior of the package at its
contractual tolerance: the golden matrices and summary tables at their
printed precision, the analytic identities at near machine precision,
and the curve pipelines at their structural guarantees.

- Golden values: the three-decimal covariance matrices at ``a = 1`` and
  10, the density summary table, and the variance decomposition pairs.
  The pairs are evaluated at x* = 40/99, the 100-point grid node nearest
  0.4, where they were computed: exact evaluation there reproduces all
  four printed values, while at 0.4 the ``a = 10`` pair misses by 3.4e-3.
- Identities: exact interpolation at the data sites, unit mass of every
  section, the reproducing property, series/closed-form agreement, the
  ``L1`` closed form, and the orderings in ``a``.
- The curve pipelines: boundary zeros, positivity, determinism and the
  CSV round trip.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
import refvals
from greenreg import cli
from greenreg.density import density_stats
from greenreg.kernel import KernelParams, green_closed, l1_norm, normalized_green
from greenreg.regression import QueryGrid, SampleSet, build_cov_matrix, predict

A1 = KernelParams(a=1.0)
A10 = KernelParams(a=10.0)
SAMPLES = SampleSet(xi=refvals.XI, eta=refvals.ETA)


def test_covariance_matrix_reference_a1():
    assert_allclose(build_cov_matrix(A1, SAMPLES), refvals.COV_A1, atol=1e-3)


def test_covariance_matrix_reference_a10():
    assert_allclose(build_cov_matrix(A10, SAMPLES), refvals.COV_A10, atol=1e-3)


@pytest.mark.parametrize("a", [1.0, 10.0], ids=["a1", "a10"])
def test_density_summary_reference_table(a):
    stats = density_stats(KernelParams(a=a), 0.5)
    want = refvals.DENSITY_TABLE[a]
    assert stats.mean == pytest.approx(want["mean"], abs=1e-3)
    assert stats.variance == pytest.approx(want["variance"], abs=1e-3)
    assert stats.std == pytest.approx(want["std"], abs=1e-3)
    assert stats.p_1s == pytest.approx(want["p_1s"], abs=2e-3)
    assert stats.p_2s == pytest.approx(want["p_2s"], abs=2e-3)


@pytest.mark.parametrize("a", [1.0, 10.0], ids=["a1", "a10"])
def test_variance_decomposition_reference_pairs(a):
    # The pairs were computed at the grid node x* = 40/99, not at 0.4 (see
    # refvals).  Half a unit in the printed third decimal keeps the two
    # abscissae apart: the largest residual at 40/99 is 3.2e-4, while the
    # a=10 pair misses by 3.4e-3 at 0.4.  The terms at 0.4 itself are
    # pinned at 1e-11 in test_regression.py.
    params = KernelParams(a=a)
    x_star = refvals.DECOMPOSITION_X_STAR
    want_first, want_explained = refvals.DECOMPOSITION_TABLE[a]
    first = normalized_green(params, x_star, x_star)
    explained = first - predict(params, SAMPLES, QueryGrid(x_star=[x_star])).variance[0]
    assert first == pytest.approx(want_first, abs=5e-4)
    assert explained == pytest.approx(want_explained, abs=5e-4)


def test_normalized_sections_have_unit_mass():
    for a in (0.5, 1.0, 10.0):
        params = KernelParams(a=a)
        for y in np.linspace(0.1, 0.9, 9):
            mass = reference.simpson_split(lambda x: normalized_green(params, x, y), y)
            assert abs(mass - 1.0) <= 1e-8, f"mass off at a={a}, y={y}"


def test_inner_product_reproduces_point_evaluation():
    cases = [
        (lambda x: np.sin(np.pi * x), lambda x: np.pi * np.cos(np.pi * x)),
        (lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x),
        (lambda x: np.sin(3.0 * np.pi * x), lambda x: 3.0 * np.pi * np.cos(3.0 * np.pi * x)),
    ]
    for a in (1.0, 10.0):
        params = KernelParams(a=a)
        for u, du in cases:
            for y in np.linspace(0.1, 0.9, 9):
                got = reference.inner_product(params, u, du, y)
                assert abs(got - u(y)) <= 1e-6, f"off at a={a}, y={y}"


def test_series_matches_closed_form_on_grid():
    t = np.linspace(0.0, 1.0, 21)
    x, y = t[:, None], t[None, :]
    for a in (0.0, 1.0, 10.0):
        params = KernelParams(a=a)
        assert_allclose(
            reference.green_series(a, x, y),
            green_closed(params, x, y),
            atol=5e-6,
            err_msg=f"series/closed mismatch at a={a}",
        )


@pytest.mark.parametrize("a", [1.0, 10.0], ids=["a1", "a10"])
def test_prediction_interpolates_data_exactly(a):
    pred = predict(KernelParams(a=a), SAMPLES, QueryGrid(x_star=SAMPLES.xi))
    assert_allclose(pred.mean, SAMPLES.eta, atol=1e-9)
    assert np.all(pred.variance <= 1e-9)


def test_l1_norm_closed_form_identity_and_quadrature():
    for a in (0.5, 1.0, 2.0, 10.0):
        params = KernelParams(a=a)
        midpoint = (1.0 - 1.0 / np.cosh(a / 2.0)) / a**2
        assert abs(l1_norm(params, 0.5) - midpoint) <= 1e-12
    rng = np.random.default_rng(42)
    params = KernelParams(a=1.0)
    for y in rng.uniform(0.01, 0.99, size=50):
        via_quad = reference.simpson_split(lambda x: green_closed(params, x, y), y)
        assert abs(l1_norm(params, y) - via_quad) <= 1e-8


def test_coefficient_orderings():
    # stiffer coefficient: more predictive variance away from the data,
    # less spread in each kernel section
    var_1 = predict(A1, SAMPLES, QueryGrid(x_star=[0.4])).variance[0]
    var_10 = predict(A10, SAMPLES, QueryGrid(x_star=[0.4])).variance[0]
    assert var_10 > var_1
    assert density_stats(A10, 0.5).variance < density_stats(A1, 0.5).variance


def test_curve_pipelines_properties(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("x,y\n0.1,1\n0.3,2\n0.5,3\n0.7,4\n0.9,5\n", encoding="utf-8")

    sol = tmp_path / "sol.csv"
    assert cli.main(["solve", "--data", str(data), "--a", "1", "--out", str(sol)]) == 0
    rows = np.array(
        [[float(v) for v in line.split(",")]
         for line in sol.read_text(encoding="utf-8").splitlines()[1:]]
    )
    assert rows[0, 1] == 0.0 and rows[-1, 1] == 0.0  # boundary zeros, exactly
    assert np.all(rows[1:-1, 1] > 0.0)  # positive forcing, positive response

    pred = tmp_path / "pred.csv"
    assert cli.main(["predict", "--data", str(data), "--a", "1", "--out", str(pred)]) == 0
    first = pred.read_bytes()
    assert cli.main(["predict", "--data", str(data), "--a", "1", "--out", str(pred)]) == 0
    assert pred.read_bytes() == first  # deterministic

    parsed = np.array(
        [[float(v) for v in line.split(",")]
         for line in pred.read_text(encoding="utf-8").splitlines()[1:]
         if not line.startswith("#")]
    )
    in_memory = predict(A1, SAMPLES, QueryGrid.uniform())
    assert_allclose(parsed[:, 0], in_memory.x_star, atol=1e-9)
    assert_allclose(parsed[:, 1], in_memory.mean, atol=1e-9)
    assert_allclose(parsed[:, 2], in_memory.variance, atol=1e-9)
    assert_allclose(parsed[:, 3], in_memory.std, atol=1e-9)
    assert_allclose(parsed[:, 4], in_memory.band_lo, atol=1e-9)
    assert_allclose(parsed[:, 5], in_memory.band_hi, atol=1e-9)
