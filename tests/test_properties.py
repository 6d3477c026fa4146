"""Properties over drawn coefficients, sites and queries.

``a`` is drawn log-uniformly in [1e-12, 1e4], the sites from a 1e-4 grid
(at most 60 of them), and the queries hold every site, random interior
points and points within 1e-9 of either end.  The dense block formulas
of ``reference`` are the oracle for the two-neighbour predictor.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from greenreg.kernel import KernelParams, green_closed
from greenreg.regression import (
    QueryGrid,
    SampleSet,
    discretized_solution,
    predict,
    predictive_covariance,
)

coefficients = st.floats(min_value=-12.0, max_value=4.0).map(lambda e: KernelParams(a=10.0**e))


@st.composite
def samples(draw):
    ticks = draw(st.lists(st.integers(1, 9999), min_size=1, max_size=60, unique=True))
    n = len(ticks)
    eta = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return SampleSet(xi=np.sort(ticks) / 1e4, eta=eta)


@st.composite
def queries(draw, sites):
    # no subnormal queries: the reference's quotient G / L1 keeps no digits
    # where L1(x) is subnormal
    inside = draw(st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
        max_size=20,
    ))
    near_ends = draw(st.lists(st.floats(1e-300, 1e-9), min_size=1, max_size=3))
    near_ones = draw(st.lists(st.floats(1e-15, 1e-9), min_size=1, max_size=3))
    x = np.concatenate((sites, inside, near_ends, 1.0 - np.array(near_ones)))
    return QueryGrid(x_star=draw(st.permutations(x.tolist())))


@settings(max_examples=100, deadline=None, database=None)
@given(params=coefficients, data=st.data())
def test_two_neighbour_forms_match_the_dense_reference(params, data):
    s = data.draw(samples())
    grid = data.draw(queries(s.xi))
    pred = predict(params, s, grid)
    full = predictive_covariance(params, s, grid)
    mean, dense = reference.dense_posterior(params, s, grid.x_star)
    prior = reference.h(params, grid.x_star, grid.x_star)
    assert np.all(np.abs(pred.mean - mean) <= 1e-9 * np.abs(s.eta).max(initial=1.0))
    assert np.all(np.abs(pred.variance - np.diagonal(dense)) <= 1e-9 * prior)
    assert np.all(np.abs(full - dense) <= 1e-9 * prior.max())

    diag = np.diagonal(full)
    assert np.array_equal(np.where(diag < 0.0, 0.0, diag), pred.variance)

    on_site = np.isin(grid.x_star, s.xi)
    hit = np.searchsorted(s.xi, grid.x_star[on_site])
    assert np.array_equal(pred.mean[on_site], s.eta[hit])
    assert np.all(pred.variance[on_site] == 0.0)


@settings(max_examples=100, deadline=None, database=None)
@given(
    params=coefficients,
    s=samples(),
    x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).map(np.array),
)
def test_scan_matches_the_dense_superposition(params, s, x):
    delta = 1e-3
    x = np.concatenate((x, [0.0, 1.0], s.xi))
    got = discretized_solution(params, s, delta, x)
    g = green_closed(params, x[:, None], s.xi)
    dense = delta * (g @ s.eta)
    assert np.all(np.abs(got - dense) <= 1e-12 * delta * (g @ np.abs(s.eta)))
    assert np.all(got[(x == 0.0) | (x == 1.0)] == 0.0)


@settings(max_examples=200, deadline=None, database=None)
@given(
    params=coefficients,
    x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).map(np.array),
    y=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).map(np.array),
)
def test_green_is_symmetric_and_vanishes_at_the_ends(params, x, y):
    assert np.array_equal(green_closed(params, x[:, None], y), green_closed(params, y, x[:, None]))
    for end in (0.0, 1.0):
        assert np.all(green_closed(params, end, y) == 0.0)
        assert np.all(green_closed(params, x, end) == 0.0)
