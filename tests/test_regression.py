"""Sample validation, covariance blocks and noise-free prediction.

The dense block formulas of ``reference`` are the oracle for the
two-neighbour predictor.

- ``SampleSet`` and ``QueryGrid`` reject unsorted, out-of-range,
  non-finite and mismatched input with their own message.
- ``build_cov_matrix``: the three-decimal reference, and 60-digit
  ``mpmath`` within 1e-13 relative on sites down to 5e-324, wherever an
  entry is a normal double.
- ``predict``: exact interpolation, frozen values at 0.4, the variance
  decomposition terms at 1e-11, the two-sigma band, and the dense oracle
  within 1e-9 for ``N`` up to 200 and ``a`` up to 100.  It checks no
  input again, runs with ``numpy.linalg.solve`` patched to raise, and
  stays in bounded memory at 99 999 queries.
- Against the 80-digit posterior ``refvals.mp_posterior``: the variance
  within 2e-15 relative, row by row, at queries from one ulp to 1e-9 of a
  site for ``a`` from 0 to 1e150, and between sites from 2 ulps to
  ``GAP_FLOOR`` apart, the floor ``SampleSet`` once set; queries from
  5e-324 to 1 - 2^-52, with a subnormal mean within one unit.
- ``discretized_solution``: exact end zeros, linearity in the ordinates,
  the series superposition, the dense sum within 1e-12 of its scale for
  ``a`` up to 1e6, and bounded memory, also for ``solve --delta 1e-5
  --format svg`` end to end.
"""

import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
import refvals
from greenreg import cli, kernel, regression
from greenreg.kernel import KernelParams, green_closed, normalized_green
from greenreg.regression import (
    QueryGrid,
    SampleSet,
    _axis_grid,
    build_cov_matrix,
    discretized_solution,
    predict,
)

A1 = KernelParams(a=1.0)
A10 = KernelParams(a=10.0)
# the closest two sites SampleSet once accepted; it sets no floor now
GAP_FLOOR = 1e-9


@pytest.fixture
def samples():
    return SampleSet(xi=refvals.XI, eta=refvals.ETA)


class TestSampleSet:
    def test_valid(self, samples):
        assert len(samples) == 5
        assert samples.xi.dtype == np.float64

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampleSet(xi=[0.3, 0.1], eta=[1.0, 2.0])

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.5, 1.5, np.nan, np.inf, -np.inf])
    def test_rejects_abscissae_outside_open_interval(self, x):
        with pytest.raises(ValueError,
                           match=r"^sample abscissae must lie strictly inside \(0, 1\)$"):
            SampleSet(xi=[x], eta=[1.0])

    def test_rejects_length_mismatch_and_empty(self):
        with pytest.raises(ValueError, match="equally long"):
            SampleSet(xi=[0.1, 0.2], eta=[1.0])
        with pytest.raises(ValueError, match="at least one"):
            SampleSet(xi=[], eta=[])

    def test_rejects_nonfinite_ordinates(self):
        with pytest.raises(ValueError, match="finite"):
            SampleSet(xi=[0.5], eta=[np.inf])


class TestQueryGrid:
    def test_uniform_default_is_interior_percent_grid(self):
        grid = QueryGrid.uniform()
        assert len(grid) == 99
        assert grid.x_star[0] == pytest.approx(0.01)
        assert grid.x_star[-1] == pytest.approx(0.99)
        assert np.all(grid.x_star > 0.0) and np.all(grid.x_star < 1.0)

    def test_uniform_coarse(self):
        grid = QueryGrid.uniform(0.25)
        assert_allclose(grid.x_star, [0.25, 0.5, 0.75], rtol=1e-15)

    def test_uniform_non_divisor_step(self):
        grid = QueryGrid.uniform(0.3)
        assert_allclose(grid.x_star, [0.3, 0.6, 0.9], rtol=1e-15)

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            QueryGrid.uniform(delta)

    @pytest.mark.parametrize("delta", [1.0, 2.0, np.inf])
    def test_step_of_one_or_more_leaves_no_grid(self, delta):
        # the grid is 0 and 1 alone, and the constructor rejects what is left
        with pytest.raises(ValueError, match="^at least one query abscissa is required$"):
            QueryGrid.uniform(delta)

    def test_rejects_endpoint_queries(self):
        with pytest.raises(ValueError, match="strictly inside"):
            QueryGrid(x_star=[0.5, 1.0])

    @pytest.mark.parametrize("x", [0.0, -0.5, 1.5, np.nan, np.inf, -np.inf])
    def test_rejects_queries_outside_open_interval(self, x):
        with pytest.raises(ValueError,
                           match=r"^query abscissae must lie strictly inside \(0, 1\)$"):
            QueryGrid(x_star=[0.5, x])


class TestCovarianceBlocks:
    def test_data_cov_matches_three_decimal_reference(self, samples):
        assert_allclose(build_cov_matrix(A1, samples), refvals.COV_A1, atol=5e-4)
        assert_allclose(build_cov_matrix(A10, samples), refvals.COV_A10, atol=5e-4)

    def test_data_cov_entries_are_anchored_at_second_argument(self, samples):
        cov = build_cov_matrix(A1, samples)
        assert_allclose(cov[2, 0], refvals.EXACT["h_51_a1"], rtol=1e-13)
        assert_allclose(cov[0, 1], refvals.EXACT["h_13_a1"], rtol=1e-13)
        assert cov[0, 1] != pytest.approx(cov[1, 0], abs=0.1)

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0, 100.0])
    def test_subnormal_sites_match_mpmath(self, a):
        # G(xi_i, 5e-324) is subnormal; H keeps its digits wherever it is
        # a normal double
        xi = [5e-324, 1e-310, 0.3, 0.5]
        cov = build_cov_matrix(KernelParams(a=a), SampleSet(xi=xi, eta=[1.0, 2.0, 3.0, 4.0]))
        with mpmath.workdps(60):
            want = [[refvals._mp_h(mpmath.mpf(a), mpmath.mpf(s), mpmath.mpf(t)) for t in xi]
                    for s in xi]
        for i, j in np.ndindex(cov.shape):
            if want[i][j] >= sys.float_info.min:
                assert abs(cov[i, j] - want[i][j]) <= 1e-13 * want[i][j], (i, j)

    def test_cross_block_anchors_sections_at_data_sites(self, samples):
        # the layout the dense oracle relies on
        grid = QueryGrid(x_star=[0.2, 0.4, 0.6])
        blocks = reference.joint_blocks(A1, samples, grid.x_star)
        assert blocks.cross_cov.shape == (5, 3)
        assert_allclose(
            blocks.cross_cov[1, 2],
            normalized_green(A1, 0.6, samples.xi[1]),
            rtol=1e-15,
        )
        assert blocks.query_cov.shape == (3, 3)
        assert_allclose(
            blocks.query_cov[0, 1], normalized_green(A1, 0.2, 0.4), rtol=1e-15
        )


class TestPredict:
    @pytest.mark.parametrize("params", [A1, A10], ids=["a1", "a10"])
    def test_interpolates_data_exactly(self, params, samples):
        pred = predict(params, samples, QueryGrid(x_star=samples.xi))
        assert_allclose(pred.mean, samples.eta, atol=1e-12)
        assert np.all(pred.variance <= 1e-12)
        assert np.all(pred.variance >= 0.0)

    def test_frozen_point_prediction(self, samples):
        grid = QueryGrid(x_star=[0.4])
        pred1 = predict(A1, samples, grid)
        assert_allclose(pred1.mean[0], refvals.EXACT["mean04_a1"], rtol=1e-12)
        assert_allclose(pred1.variance[0], refvals.EXACT["var04_a1"], rtol=1e-12)
        pred10 = predict(A10, samples, grid)
        assert_allclose(pred10.mean[0], refvals.EXACT["mean04_a10"], rtol=1e-12)
        assert_allclose(pred10.variance[0], refvals.EXACT["var04_a10"], rtol=1e-12)

    @pytest.mark.parametrize(
        "params, first_key, quad_key",
        [(A1, "first_term_a1", "quad_term_a1"), (A10, "first_term_a10", "quad_term_a10")],
        ids=["a1", "a10"],
    )
    def test_variance_decomposition_terms(self, params, first_key, quad_key, samples):
        # variance = prior term H(x*, x*) minus the data-explained term
        grid = QueryGrid(x_star=[0.4])
        first = normalized_green(params, 0.4, 0.4)
        explained = first - predict(params, samples, grid).variance[0]
        assert_allclose(first, refvals.EXACT[first_key], rtol=1e-12)
        assert_allclose(explained, refvals.EXACT[quad_key], rtol=1e-11)

    def test_band_is_two_sigma(self, samples):
        pred = predict(A1, samples, QueryGrid.uniform(0.1))
        assert_allclose(pred.band_lo, pred.mean - 2.0 * pred.std, rtol=1e-15)
        assert_allclose(pred.band_hi, pred.mean + 2.0 * pred.std, rtol=1e-15)
        assert_allclose(pred.std, np.sqrt(pred.variance), rtol=1e-15)

    def test_default_grid_run_is_clean(self, samples):
        pred = predict(A1, samples, QueryGrid.uniform())
        assert pred.clamped_count == 0
        assert np.all(pred.variance >= 0.0)
        away = np.abs(pred.x_star[:, None] - samples.xi[None, :]).min(axis=1) > 0.05
        assert np.all(pred.variance[away] > 1e-4)

    def test_single_sample(self):
        one = SampleSet(xi=[0.5], eta=[2.0])
        pred = predict(A1, one, QueryGrid(x_star=[0.5]))
        assert_allclose(pred.mean[0], 2.0, atol=1e-12)
        assert pred.variance[0] <= 1e-12


def _random_case(n, a):
    """n random sites and 208 shuffled queries: random, on every other
    site, and within 1e-9 .. 1e-3 of either end."""
    rng = np.random.default_rng(1000 * n + int(a))
    samples = SampleSet(xi=np.sort(rng.uniform(0.01, 0.99, n)), eta=rng.normal(size=n))
    x = np.concatenate(
        (
            rng.uniform(0.0, 1.0, 200),
            samples.xi[::2],
            [1e-9, 1e-6, 5e-4, 1e-3, 1.0 - 1e-3, 1.0 - 5e-4, 1.0 - 1e-6, 1.0 - 1e-9],
        )
    )
    return KernelParams(a=a), samples, QueryGrid(x_star=rng.permutation(x))


class TestTwoNeighbourPredictor:
    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("n", [5, 50, 200])
    def test_matches_dense_oracle(self, n, a):
        params, samples, grid = _random_case(n, a)
        pred = predict(params, samples, grid)
        dense_mean, dense_cov = reference.dense_posterior(params, samples, grid.x_star)
        prior = reference.h(params, grid.x_star, grid.x_star)
        assert np.all(np.abs(pred.mean - dense_mean) <= 1e-9 * np.abs(samples.eta).max())
        assert np.all(np.abs(pred.variance - np.diagonal(dense_cov)) <= 1e-9 * prior)
        on_site = np.isin(grid.x_star, samples.xi)
        hit = np.searchsorted(samples.xi, grid.x_star[on_site])
        assert np.array_equal(pred.mean[on_site], samples.eta[hit])
        assert np.all(pred.variance[on_site] == 0.0)

    def test_large_coefficient_is_quiet_and_finite(self, samples):
        x = np.concatenate(([1e-9, 1e-3], QueryGrid.uniform().x_star, [1.0 - 1e-9]))
        grid = QueryGrid(x_star=x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = predict(KernelParams(a=1000.0), samples, grid)
        for values in (pred.mean, pred.variance, pred.std, pred.band_lo, pred.band_hi):
            assert np.all(np.isfinite(values))
        assert np.all(pred.variance >= 0.0)

    def test_posterior_checks_no_input_again(self, samples, monkeypatch):
        # SampleSet and QueryGrid check their arrays where they enter; the
        # posterior runs the kernel on them and checks nothing again
        grid = QueryGrid.uniform(0.001)
        checked = []
        for module in (kernel, regression):
            for name in ("_as_unit", "_as_open_unit"):
                def counted(label, v, check=getattr(module, name)):
                    checked.append(label)
                    return check(label, v)
                monkeypatch.setattr(module, name, counted)
        predict(A1, samples, grid)
        assert checked == []
        # the count sees the public kernel's checks
        green_closed(A1, grid.x_star, 0.5)
        normalized_green(A1, grid.x_star, 0.5)
        assert checked == ["x", "y", "y", "x"]

    def test_memory_is_linear_and_no_solve(self, monkeypatch):
        # the dense path would need an M x M block of 80 GB here
        def no_solve(*args, **kwargs):
            raise AssertionError("nothing may factor a covariance matrix")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        monkeypatch.setattr(np.linalg, "inv", no_solve)
        rng = np.random.default_rng(7)
        samples = SampleSet(xi=np.linspace(0.0005, 0.9995, 1000), eta=rng.normal(size=1000))
        grid = QueryGrid.uniform(1e-5)
        assert len(grid) == 99_999
        tracemalloc.start()
        try:
            pred = predict(KernelParams(a=10.0), samples, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert np.all(np.isfinite(pred.mean)) and pred.clamped_count == 0


def _midway_at_the_gap_floor(params, lo):
    """Predicted and 80-digit (mean, variance) midway between lo and the site the floor above it.

    The upper site is the first double at least GAP_FLOOR above lo,
    the closest pair SampleSet used to accept.
    """
    hi = lo + GAP_FLOOR
    if hi - lo < GAP_FLOOR:
        hi = np.nextafter(hi, 1.0)
    samples = SampleSet(xi=[lo, hi], eta=[1.0, 2.0])
    mid = lo + (hi - lo) / 2
    pred = predict(params, samples, QueryGrid(x_star=[mid]))
    mean, var = refvals.mp_posterior(params.a, samples.xi, samples.eta, [mid])
    return (pred.mean[0], pred.variance[0]), (mean[0], var[0])


class TestAgainstMpmath:
    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    def test_sites_the_gap_floor_apart(self, a):
        # midway, the variance is about 1e-9 of H(x, x); the form subtracts
        # nothing, so it keeps every digit
        for lo in refvals.XI:
            (mean, var), (want_mean, want_var) = _midway_at_the_gap_floor(KernelParams(a=a), lo)
            assert abs(mean - want_mean) <= 1e-15 * abs(want_mean)
            assert abs(var - want_var) <= 2e-15 * want_var

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    def test_gap_floor_error_is_a_few_ulp_of_the_prior(self, a):
        # the subtraction H(x, x) - sum w H(x, xi) left 3.2 ulp of H(x, x),
        # 5.4e-7 of the variance, at lo = 0.47196589992007265 and a = 1; the
        # product form is within a few ulp of the variance itself
        anchors = np.concatenate((np.linspace(0.01, 0.99, 50), [0.47196589992007265]))
        for lo in anchors:
            (mean, var), (want_mean, want_var) = _midway_at_the_gap_floor(KernelParams(a=a), lo)
            assert abs(mean - want_mean) <= 1e-15 * abs(want_mean)
            assert abs(var - want_var) <= 2e-15 * want_var

    @pytest.mark.parametrize("a", [1e-90, 1e-50, 1e-10, 1e-3, 0.5, 1.0])
    def test_subnormal_and_extreme_queries(self, samples, a):
        # the float dense reference keeps no digits where L1(x) is subnormal
        x = np.array([5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-200,
                      1.0 - 2.0**-53, 1.0 - 2.0**-52])
        pred = predict(KernelParams(a=a), samples, QueryGrid(x_star=x))
        mean, var = refvals.mp_posterior(a, samples.xi, samples.eta, x)
        # a subnormal mean has an absolute grain of 5e-324
        err = np.abs(pred.mean - mean)
        assert np.all((err <= 1e-15 * np.abs(mean)) | (err <= 5e-324))
        assert np.all(np.abs(pred.variance - var) <= 1e-14 * var)

    @pytest.mark.parametrize("a", [0.0, 1e-12, 1.0, 10.0, 100.0, 1e6, 1e150])
    def test_variance_next_to_sites_row_by_row(self, samples, a):
        # H(x, x) - sum w H(x, xi) lost up to all the digits of these
        # variances, which are as small as 1e-17 of H(x, x)
        xi = samples.xi
        x = np.concatenate((xi + 1e-9, xi - 1e-12, xi + 1e-15, np.nextafter(xi, 1.0)))
        pred = predict(KernelParams(a=a), samples, QueryGrid(x_star=x))
        _, var = refvals.mp_posterior(a, xi, samples.eta, x)
        assert np.all(var > 0.0)
        for got, want in zip(pred.variance, var):
            assert abs(got - want) <= 2e-15 * want, (got, want)

    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("gap", ["2 ulp", 1e-15, 1e-12, 1e-9])
    def test_sites_closer_than_the_old_floor(self, a, gap):
        # SampleSet once rejected sites closer than GAP_FLOOR
        for lo in refvals.XI:
            hi = np.nextafter(np.nextafter(lo, 1.0), 1.0) if gap == "2 ulp" else lo + gap
            samples = SampleSet(xi=[lo, hi], eta=[1.0, 2.0])
            # the last query is on a site, where mpmath leaves 1e-80 or so
            x = [lo - 1e-9, np.nextafter(lo, 1.0), lo + (hi - lo) / 2, hi + 1e-12, hi]
            pred = predict(KernelParams(a=a), samples, QueryGrid(x_star=x))
            mean, var = refvals.mp_posterior(a, samples.xi, samples.eta, x)
            assert np.all(np.abs(pred.mean - mean) <= 1e-15 * np.abs(mean))
            assert np.all(np.abs(pred.variance - var)[:-1] <= 2e-15 * var[:-1])
            assert pred.variance[-1] == 0.0


class TestDiscretizedSolution:
    def test_boundary_zeros_exact(self, samples):
        assert discretized_solution(A1, samples, 0.01, 0.0) == 0.0
        assert discretized_solution(A1, samples, 0.01, 1.0) == 0.0

    def test_scalar_and_array_forms_agree(self, samples):
        xs = np.linspace(0.0, 1.0, 7)
        arr = discretized_solution(A10, samples, 0.01, xs)
        assert arr.shape == xs.shape
        for i, x in enumerate(xs):
            assert_allclose(discretized_solution(A10, samples, 0.01, x), arr[i], rtol=1e-15)

    def test_linear_in_ordinates(self, samples):
        doubled = SampleSet(xi=samples.xi, eta=2.0 * samples.eta)
        x = np.linspace(0.1, 0.9, 5)
        assert_allclose(
            discretized_solution(A1, doubled, 0.01, x),
            2.0 * discretized_solution(A1, samples, 0.01, x),
            rtol=1e-14,
        )

    def test_matches_series_form_superposition(self, samples):
        # same superposition with the series kernel is an independent oracle
        x = 0.5
        oracle = 0.01 * float(
            reference.green_series(1.0, x, samples.xi, terms=100_000) @ samples.eta
        )
        assert abs(discretized_solution(A1, samples, 0.01, x) - oracle) <= 1e-6

    @pytest.mark.parametrize("delta", [0.0, np.nan, np.inf])
    def test_rejects_bad_delta(self, samples, delta):
        with pytest.raises(ValueError, match="delta"):
            discretized_solution(A1, samples, delta, 0.5)

    @pytest.mark.parametrize("a", [0.0, 1e-12, 1.0, 10.0, 100.0, 1000.0, 1e6])
    @pytest.mark.parametrize("n", [1, 5, 50, 1000])
    def test_scan_matches_dense_superposition(self, n, a):
        rng = np.random.default_rng(10 * n + int(np.log10(a + 1.0)))
        samples = SampleSet(xi=np.sort(rng.uniform(0.01, 0.99, n)), eta=rng.normal(size=n))
        x = rng.permutation(np.concatenate((rng.uniform(0.0, 1.0, 300), [0.0, 1.0], samples.xi)))
        params = KernelParams(a=a)
        delta = 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = discretized_solution(params, samples, delta, x)
        g = green_closed(params, x[:, None], samples.xi)
        dense = delta * (g @ samples.eta)
        scale = delta * (np.abs(g) @ np.abs(samples.eta))
        assert np.all(np.abs(got - dense) <= 1e-12 * scale)
        assert np.all(got[(x == 0.0) | (x == 1.0)] == 0.0)

    @pytest.mark.parametrize("bad", [-1e-9, 1.5, np.nan, np.inf, -np.inf])
    def test_rejects_abscissae_outside_unit_interval(self, samples, bad):
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            discretized_solution(A1, samples, 0.01, np.array([0.5, bad]))

    def test_memory_is_linear(self):
        # a dense (M+1) x N kernel block would take 800 MB here
        rng = np.random.default_rng(11)
        samples = SampleSet(xi=np.linspace(0.0005, 0.9995, 1000), eta=rng.normal(size=1000))
        xs = _axis_grid(1e-5)
        tracemalloc.start()
        try:
            us = discretized_solution(A10, samples, 1e-5, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert us.shape == xs.shape and us[0] == 0.0 and us[-1] == 0.0

    def test_solve_command_memory_is_bounded(self, tmp_path):
        # formatting all 100 001 rows in one call would hold about 18 MiB of
        # text and flat tuples; block by block only the SVG string is whole
        xi = np.linspace(0.01, 0.99, 50)
        data = tmp_path / "d.csv"
        np.savetxt(data, np.column_stack([xi, np.sin(7.0 * xi)]), fmt="%.17g", delimiter=",")
        out = tmp_path / "s.csv"
        argv = ["solve", "--data", str(data), "--a", "10", "--delta", "1e-5",
                "--out", str(out), "--format", "svg"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert len(out.read_text(encoding="utf-8").splitlines()) == 100_002
        assert out.with_suffix(".svg").stat().st_size > 1_000_000
