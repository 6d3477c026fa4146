"""Properties over drawn coefficients, sites and queries.

``a`` is drawn log-uniformly in [1e-12, 1e4], the sites from a 1e-4 grid
(at most 60 of them), and the queries hold every site, random interior
points and points within 1e-9 of either end.  The dense block formulas
of ``reference`` are the oracle for the two-neighbour predictor.  Below
a = 1e-100, down to the least subnormal, the predictor and the
superposition scan have a second oracle, their own a = 0 output, which
holds down to subnormal sites and queries where the dense reference
keeps no digits; there the sites may be one ulp apart.  With sites in
clusters down to one ulp apart and ``a`` up to 1e154, the variance lies
in [0, H(x, x)] without a clamp.  G must be symmetric and vanish at
the ends.  ``normalized_green`` is within 1e-13 relative of 60-digit
``mpmath`` wherever H is a normal double, for anchors drawn down to
5e-324 and up to 1 - 1e-16 and ``a`` in {0, 1, 10, 100}.  The CLI
properties cover the data-file round trip
(``load_samples`` reads values written with ``repr`` back exactly) and
the rule that a failed run, with a bad ``--a``, ``--delta`` or
``--queries`` or a malformed data row, exits 1 and writes nothing.
"""

import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
import refvals
from greenreg import cli
from greenreg.kernel import MAX_COEFFICIENT, KernelParams, green_closed, normalized_green
from greenreg.regression import (
    QueryGrid,
    SampleSet,
    discretized_solution,
    predict,
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
    mean, dense = reference.dense_posterior(params, s, grid.x_star)
    prior = reference.h(params, grid.x_star, grid.x_star)
    assert np.all(np.abs(pred.mean - mean) <= 1e-9 * np.abs(s.eta).max(initial=1.0))
    assert np.all(np.abs(pred.variance - np.diagonal(dense)) <= 1e-9 * prior)

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
    # the floor, two units of the subnormal spacing 5e-324, is where the
    # relative bound underflows at subnormal queries
    assert np.all(np.abs(got - dense) <= 1e-12 * delta * (g @ np.abs(s.eta)) + 1e-323)
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


def _separated(xs):
    """The sorted distinct values of ``xs``: sites may be one ulp apart."""
    return sorted(set(xs))


# anywhere in (0, 1), log-uniformly close to either end down to the
# subnormal range
unit_abscissae = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-323.0, -1.0).map(lambda e: 10.0**e),
    st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0**e),
)


@settings(max_examples=200, deadline=None, database=None)
@given(
    a=st.sampled_from([0.0, 1.0, 10.0, 100.0]),
    x=st.floats(0.0, 1.0),
    y=unit_abscissae,
)
@example(a=1.0, x=0.5, y=5e-324)
@example(a=100.0, x=0.05, y=1e-320)
def test_normalized_green_matches_mpmath_at_every_abscissa(a, x, y):
    got = normalized_green(KernelParams(a=a), x, y)
    with mpmath.workdps(60):
        want = refvals.mp_h(mpmath.mpf(a), mpmath.mpf(x), mpmath.mpf(y))
    if want >= sys.float_info.min:
        assert abs(got - want) <= 1e-13 * want
    elif want == 0:
        assert got == 0.0


@settings(max_examples=100, deadline=None, database=None)
@given(
    a=st.floats(-324.0, -100.0).map(lambda e: max(10.0**e, 5e-324)),
    xi=st.lists(unit_abscissae, min_size=1, max_size=12).map(_separated),
    x=st.lists(unit_abscissae, min_size=1, max_size=12),
    data=st.data(),
)
def test_tiny_coefficient_predicts_the_zero_coefficient_to_the_bit(a, xi, x, data):
    eta = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(xi), max_size=len(xi)))
    s = SampleSet(xi=xi, eta=eta)
    grid = QueryGrid(x_star=np.concatenate((x, xi, [5e-324])))
    zero, tiny = KernelParams(a=0.0), KernelParams(a=a)
    assert tiny.a == a
    want, got = predict(zero, s, grid), predict(tiny, s, grid)
    for name in ("mean", "variance", "std", "band_lo", "band_hi"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    xs = np.concatenate(([0.0, 1.0], grid.x_star))
    assert discretized_solution(tiny, s, 1e-3, xs).tobytes() == (
        discretized_solution(zero, s, 1e-3, xs).tobytes()
    )


# one ulp (a gap of 0 rounded up to the next double) or log-uniform in [1e-17, 1e-2]
gaps = st.one_of(st.just(0.0), st.floats(-17.0, -2.0).map(lambda e: 10.0**e))


@st.composite
def clustered_sites(draw):
    """Clusters of sites whose gaps run from one ulp to 1e-2."""
    xi = set()
    for x in draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           min_size=1, max_size=6)):
        xi.add(x)
        for gap in draw(st.lists(gaps, max_size=4)):
            x = float(max(x + gap, np.nextafter(x, 1.0)))
            if x < 1.0:
                xi.add(x)
    return np.array(sorted(xi))


@settings(max_examples=100, deadline=None, database=None)
@given(
    a=st.one_of(st.just(0.0), st.floats(-12.0, 154.0).map(lambda e: 10.0**e)),
    xi=clustered_sites(),
    data=st.data(),
)
def test_variance_lies_between_zero_and_the_prior(a, xi, data):
    # the variance is a sum of terms >= 0: no clamp and no floor on the gap
    params = KernelParams(a=a)
    s = SampleSet(xi=xi, eta=np.ones_like(xi))
    near = np.concatenate((np.nextafter(xi, 0.0), np.nextafter(xi, 1.0), xi + 1e-12))
    between = (xi[:-1] + xi[1:]) / 2
    x = np.concatenate((xi, near[(near > 0.0) & (near < 1.0)], between,
                        data.draw(st.lists(st.floats(1e-300, 1.0, exclude_max=True),
                                           max_size=5))))
    grid = QueryGrid(x_star=x)
    pred = predict(params, s, grid)
    assert np.all(pred.variance >= 0.0)
    prior = normalized_green(params, x, x)
    assert np.all(pred.variance <= prior * (1.0 + 4.0 * np.finfo(float).eps))
    assert np.all(pred.variance[: xi.size] == 0.0)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None, database=None)
@given(
    xi=st.lists(unit_abscissae, min_size=1, max_size=20).map(_separated),
    header=st.booleans(),
    data=st.data(),
)
def test_load_samples_round_trips_repr(xi, header, data):
    eta = data.draw(st.lists(finite, min_size=len(xi), max_size=len(xi)))
    rows = data.draw(st.permutations(list(zip(xi, eta))))
    text = "x,y\n" * header + "".join(f"{x!r},{y!r}\n" for x, y in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8")
        got = cli.load_samples(path)
    assert got.xi.tolist() == xi
    assert got.eta.tobytes() == np.asarray(eta, dtype=float).tobytes()


# one bad value per run, in the data file or in a flag given after the
# valid one (argparse keeps the last); everything else is valid
bad_runs = st.one_of(
    st.builds(lambda a: ("--a", repr(a)), st.one_of(
        st.floats(max_value=0.0, exclude_max=True),
        st.floats(min_value=MAX_COEFFICIENT, exclude_min=True),
        st.just(float("nan")),
    )),
    st.builds(lambda d: ("--delta", repr(d)), st.one_of(
        st.floats(max_value=0.0), st.floats(min_value=0.5, exclude_min=True), st.just(float("nan")),
        st.floats(min_value=0.0, max_value=cli.MIN_DELTA, exclude_min=True, exclude_max=True),
    )),
    st.builds(lambda q: ("--queries", f"0.5,{q!r}"), st.one_of(
        st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(float("nan")),
    )),
    st.builds(lambda row: ("data", row), st.one_of(
        st.sampled_from(["0.5,1", "0.3", "0.3,1,2", "x,1", "0.3,y", "0.3,nan", "0.3,inf"]),
        st.floats(max_value=0.0).map(lambda x: f"{x!r},1"),
        st.floats(min_value=1.0).map(lambda x: f"{x!r},1"),
    )),
)


@settings(max_examples=150, deadline=None, database=None)
@given(
    command=st.sampled_from(["predict", "solve"]),
    svg=st.booleans(),
    bad=bad_runs,
)
def test_failed_run_writes_nothing(command, svg, bad):
    flag, value = bad
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "d.csv"
        rows = "0.1,1\n0.5,2\n" + (value + "\n" if flag == "data" else "")
        data.write_text("x,y\n" + rows, encoding="utf-8")
        out = Path(tmp) / "out.csv"
        if flag == "--queries":
            command = "predict"
        argv = [command, "--data", str(data), "--a", "1", "--out", str(out)]
        argv += ["--format", "svg"] * svg
        if flag != "data":
            argv.append(f"{flag}={value}")
        assert cli.main(argv) == 1
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["d.csv"]
