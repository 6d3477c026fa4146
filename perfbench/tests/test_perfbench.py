"""Checks of the benchmark's own parts: generator, oracle, span wrappers."""

import inspect
import sys

import numpy as np
import pytest

import gen
import oracle
import spans

import greenreg
import greenreg.cli
from greenreg import KernelParams, QueryGrid, SampleSet, density_stats, discretized_solution, predict
from greenreg.regression import MIN_ABSCISSA_GAP


def test_generator_is_deterministic_per_seed():
    first = gen.sample_set(gen.rng_for(7, "large"), 1000, MIN_ABSCISSA_GAP)
    again = gen.sample_set(gen.rng_for(7, "large"), 1000, MIN_ABSCISSA_GAP)
    other = gen.sample_set(gen.rng_for(8, "large"), 1000, MIN_ABSCISSA_GAP)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert not np.array_equal(first[0], other[0])
    assert np.array_equal(gen.anchors(gen.rng_for(7, "y"), 50), gen.anchors(gen.rng_for(7, "y"), 50))


def test_generated_sites_respect_gap_and_csv_round_trips(tmp_path):
    xi, eta = gen.sample_set(gen.rng_for(3, "large"), 1000, MIN_ABSCISSA_GAP)
    assert 0.0 < xi[0] and xi[-1] < 1.0 and np.diff(xi).min() >= MIN_ABSCISSA_GAP
    path = tmp_path / "d.csv"
    gen.write_csv(path, xi, eta)
    assert "np.float64" not in path.read_text()
    loaded = greenreg.cli.load_samples(path)
    assert np.array_equal(loaded.xi, xi) and np.array_equal(loaded.eta, eta)


def _paper_prediction(a):
    samples = SampleSet(xi=gen.PAPER_XI, eta=gen.PAPER_ETA)
    pred = predict(KernelParams(a=a), samples, QueryGrid.uniform(0.01))
    return np.column_stack([pred.mean, pred.variance, pred.std, pred.band_lo, pred.band_hi])


@pytest.mark.parametrize("a", gen.A_VALUES)
def test_oracle_accepts_prediction_and_rejects_perturbation(a):
    cols = _paper_prediction(a)
    queries = oracle.uniform_queries(0.01)
    rows = range(queries.size)
    oracle.check_predict_rows(cols, a, gen.PAPER_XI, gen.PAPER_ETA, queries, rows)
    j = int(np.argmax(np.abs(cols[:, 0])))
    bad = cols.copy()
    bad[j, [0, 3, 4]] *= 1.0 + 1e-6  # mean and band move together
    with pytest.raises(oracle.Mismatch):
        oracle.check_predict_rows(bad, a, gen.PAPER_XI, gen.PAPER_ETA, queries, rows)


def test_oracle_rejects_perturbed_variance():
    cols = _paper_prediction(1.0)
    queries = oracle.uniform_queries(0.01)
    j = int(np.argmax(cols[:, 1]))
    bad = cols.copy()
    bad[j, 1] *= 1.0 + 1e-6
    bad[j, 2] = np.sqrt(bad[j, 1])
    bad[j, 3:] = bad[j, 0] - 2 * bad[j, 2], bad[j, 0] + 2 * bad[j, 2]
    with pytest.raises(oracle.Mismatch):
        oracle.check_predict_rows(bad, 1.0, gen.PAPER_XI, gen.PAPER_ETA, queries, [j])


def test_oracle_density_and_solve_reject_perturbation():
    stats = density_stats(KernelParams(a=10.0), 0.3)
    got = {k: getattr(stats, k) for k in ("mean", "variance", "std", "p_1s", "p_2s")}
    oracle.check_density_values(got, 10.0, 0.3)
    with pytest.raises(oracle.Mismatch):
        oracle.check_density_values(dict(got, mean=got["mean"] + 1e-6), 10.0, 0.3)

    samples = SampleSet(xi=gen.PAPER_XI, eta=gen.PAPER_ETA)
    xs = oracle.axis_grid(0.01)
    us = discretized_solution(KernelParams(a=1.0), samples, 0.01, xs)
    text = "x,u\n" + "".join(f"{x:.12g},{u:.12g}\n" for x, u in zip(xs, us))
    assert oracle.check_solve(text, 1.0, gen.PAPER_XI, gen.PAPER_ETA, 0.01, range(xs.size)) == xs.size
    k = int(np.argmax(us))
    lines = text.splitlines()
    lines[k + 1] = f"{xs[k]:.12g},{us[k] * (1 + 1e-6):.12g}"
    with pytest.raises(oracle.Mismatch):
        oracle.check_solve("\n".join(lines), 1.0, gen.PAPER_XI, gen.PAPER_ETA, 0.01, [k])


def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "greenreg" or n.startswith("greenreg.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if inspect.isfunction(v)}


def test_wrappers_cover_every_module_and_restore_bindings():
    before = _bindings()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        import greenreg.density as density
        import greenreg.regression as regression

        assert hasattr(regression.normalized_green, "perfbench_span")
        assert hasattr(density.integrate, "perfbench_span")
        assert hasattr(greenreg.cli.predict, "perfbench_span")
        tracer.begin_op(0)
        greenreg.predict(KernelParams(a=1.0), SampleSet(xi=gen.PAPER_XI, eta=gen.PAPER_ETA), QueryGrid.uniform(0.1))
        tracer.end_op()
    finally:
        spans.restore(undo)
    assert _bindings() == before
    by_id = {s[1]: s for s in tracer.spans}
    root = [s for s in tracer.spans if s[2] is None]
    assert [s[3] for s in root] == ["regression.predict"]
    assert all(by_id[s[2]][3] != "kernel.green_closed" for s in tracer.spans if s[2] is not None)
    calls, total, self_s = tracer.totals["regression.predict"]
    assert calls == 1 and 0.0 < self_s < total
    assert tracer.counts["numerics.solve_linear.calls"] == 2


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1500 |      70000 | numpy\n"
        "import time:       200 |     300000 |   scipy.linalg\n"
        "import time:       400 |        500 |     greenreg.kernel\n"
        "import time:       100 |     380000 | greenreg\n"
    )
    got = spans.parse_importtime(text)
    assert got == {"import.numpy_s": 0.07, "import.scipy_linalg_s": 0.3, "import.greenreg_self_s": 0.0005}


def test_known_failure_matches_only_the_mass_check(capsys):
    import run

    assert greenreg.cli.main(["density", "--a", "100", "--y", "0.05"]) == 2
    assert run.KNOWN_FAILURE.match(capsys.readouterr().err)
    assert greenreg.cli.main(["density", "--a", "100", "--y", "1.5"]) != 0
    assert not run.KNOWN_FAILURE.match(capsys.readouterr().err)
