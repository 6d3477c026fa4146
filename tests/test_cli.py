"""End-to-end command-line behavior: files in, files/stdout out, exit codes."""

import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import refvals
import greenreg
from greenreg import cli, svg
from greenreg.kernel import KernelParams
from greenreg.regression import Prediction, QueryGrid, SampleSet, predict

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0.5,3\n0.1,1\n0.3,2\n0.7,4\n0.9,5\n", encoding="utf-8")
    return path


def read_csv_rows(path):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if line.startswith("#"):
            continue
        rows.append([float(v) for v in line.split(",")])
    return np.asarray(rows)


class TestLoadSamples:
    def test_sorts_and_skips_header(self, data_file):
        samples = cli.load_samples(data_file)
        assert_allclose(samples.xi, refvals.XI)
        assert_allclose(samples.eta, refvals.ETA)

    def test_headerless_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.2,1.5\n\n0.8,-2.5\n", encoding="utf-8")
        samples = cli.load_samples(path)
        assert_allclose(samples.xi, [0.2, 0.8])
        assert_allclose(samples.eta, [1.5, -2.5])

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.2,1.0\n0.4,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"d\.csv:2"):
            cli.load_samples(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.2,1.0\n0.4\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"d\.csv:2"):
            cli.load_samples(path)

    def test_duplicate_abscissae_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.2,1.0\n0.2,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            cli.load_samples(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no data rows"):
            cli.load_samples(path)


class TestPredictCommand:
    def test_default_grid_table(self, data_file, tmp_path):
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--data", str(data_file), "--a", "1", "--out", str(out)])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "x_star,mean,variance,std,band_lo,band_hi"
        assert lines[-1] == "# clamped=0"
        rows = read_csv_rows(out)
        assert rows.shape == (99, 6)
        # the grid point that coincides with a sample reproduces it
        at_half = rows[np.isclose(rows[:, 0], 0.5)][0]
        assert at_half[1] == pytest.approx(3.0, abs=1e-9)
        assert at_half[2] <= 1e-9

    def test_round_trip_against_in_memory_values(self, data_file, tmp_path):
        out = tmp_path / "pred.csv"
        cli.main(["predict", "--data", str(data_file), "--a", "1", "--out", str(out)])
        rows = read_csv_rows(out)
        pred = predict(
            KernelParams(a=1.0),
            SampleSet(xi=refvals.XI, eta=refvals.ETA),
            QueryGrid.uniform(),
        )
        assert_allclose(rows[:, 0], pred.x_star, atol=1e-9)
        assert_allclose(rows[:, 1], pred.mean, atol=1e-9)
        assert_allclose(rows[:, 2], pred.variance, atol=1e-9)
        assert_allclose(rows[:, 5], pred.band_hi, atol=1e-9)

    def test_explicit_queries(self, data_file, tmp_path):
        out = tmp_path / "pred.csv"
        rc = cli.main(
            ["predict", "--data", str(data_file), "--a", "10", "--out", str(out),
             "--queries", "0.4,0.55"]
        )
        assert rc == 0
        rows = read_csv_rows(out)
        assert rows.shape == (2, 6)
        assert rows[0, 1] == pytest.approx(refvals.EXACT["mean04_a10"], abs=1e-9)

    def test_svg_band_plot(self, data_file, tmp_path):
        out = tmp_path / "pred.csv"
        rc = cli.main(
            ["predict", "--data", str(data_file), "--a", "1", "--out", str(out),
             "--format", "svg"]
        )
        assert rc == 0
        svg_path = tmp_path / "pred.svg"
        root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
        assert root.tag == f"{SVG_NS}svg"
        assert root.get("width") == "800"
        assert root.get("height") == "500"
        assert root.get("preserveAspectRatio") == "none"
        children = list(root)
        assert children[0].tag == f"{SVG_NS}polygon"  # band under the mean line
        assert children[1].tag == f"{SVG_NS}polyline"
        circles = [c for c in children if c.tag == f"{SVG_NS}circle"]
        assert len(circles) == 5

    def test_deterministic_output(self, data_file, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            cli.main(["predict", "--data", str(data_file), "--a", "1", "--out", str(out),
                      "--format", "svg"])
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


class TestMatrixCommand:
    def test_prints_reference_matrix(self, data_file, capsys):
        rc = cli.main(["matrix", "--data", str(data_file), "--a", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "2.119,0.678,0.392,0.272,0.207"
        got = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert_allclose(got, refvals.COV_A1, atol=1e-12)


class TestDensityCommand:
    def test_prints_summary(self, capsys):
        rc = cli.main(["density", "--a", "1", "--y", "0.5"])
        assert rc == 0
        out = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
        want = refvals.EXACT["density_a1"]
        for key in ("mean", "variance", "std", "p_1s", "p_2s"):
            assert float(out[key]) == pytest.approx(want[key], abs=1e-9)

    def test_svg_curve(self, tmp_path):
        out = tmp_path / "curve.svg"
        rc = cli.main(["density", "--a", "10", "--y", "0.3", "--format", "svg",
                       "--out", str(out)])
        assert rc == 0
        root = ET.fromstring(out.read_text(encoding="utf-8"))
        assert [c.tag for c in root] == [f"{SVG_NS}polyline"]

    def test_svg_needs_out_path(self, capsys):
        rc = cli.main(["density", "--a", "1", "--y", "0.5", "--format", "svg"])
        assert rc == 1
        assert "--out" in capsys.readouterr().err


class TestSolveCommand:
    def test_curve_csv(self, data_file, tmp_path):
        out = tmp_path / "sol.csv"
        rc = cli.main(["solve", "--data", str(data_file), "--a", "10", "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,u"
        assert lines[1] == "0,0"
        assert lines[-1] == "1,0"
        rows = read_csv_rows(out)
        assert rows.shape == (101, 2)
        interior = rows[1:-1]
        assert np.all(interior[:, 1] > 0.0)

    def test_svg_curve_sibling(self, data_file, tmp_path):
        out = tmp_path / "sol.csv"
        rc = cli.main(["solve", "--data", str(data_file), "--a", "1", "--out", str(out),
                       "--format", "svg"])
        assert rc == 0
        assert (tmp_path / "sol.svg").exists()


class TestExitCodes:
    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict"])
        assert excinfo.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_format_exits_one(self, data_file, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict", "--data", str(data_file), "--a", "1",
                      "--out", str(tmp_path / "p.csv"), "--format", "png"])
        assert excinfo.value.code == 1

    def test_out_of_range_query_leaves_no_output(self, data_file, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--data", str(data_file), "--a", "1",
                       "--out", str(out), "--queries", "1.5"])
        assert rc == 1
        assert not out.exists()
        assert "strictly inside" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        rc = cli.main(["matrix", "--data", str(tmp_path / "nope.csv"), "--a", "1"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_delta(self, data_file, tmp_path, capsys):
        rc = cli.main(["predict", "--data", str(data_file), "--a", "1",
                       "--out", str(tmp_path / "p.csv"), "--delta", "0.7"])
        assert rc == 1
        assert "delta" in capsys.readouterr().err

    def test_negative_coefficient(self, data_file, tmp_path, capsys):
        rc = cli.main(["predict", "--data", str(data_file), "--a", "-1",
                       "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_infinite_coefficient_leaves_no_output(self, data_file, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc = cli.main(["predict", "--data", str(data_file), "--a", "inf",
                       "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "coefficient a must be finite and nonnegative" in capsys.readouterr().err

    def test_coefficient_whose_square_overflows_leaves_no_output(self, data_file, tmp_path,
                                                                  capsys):
        out = tmp_path / "p.csv"
        rc = cli.main(["predict", "--data", str(data_file), "--a", "1e160",
                       "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "a**2" in capsys.readouterr().err


def _run_every_command(data_file, tmp_path, a, capsys):
    """Run each command at coefficient ``a``; return their stdout and files as bytes."""
    out = {}
    for command in ("predict", "matrix", "density", "solve"):
        argv = [command, "--a", a]
        if command == "density":
            argv += ["--y", "0.3", "--format", "svg", "--out", str(tmp_path / "curve.svg")]
        else:
            argv += ["--data", str(data_file)]
        if command in ("predict", "solve"):
            argv += ["--out", str(tmp_path / f"{command}.csv"), "--format", "svg"]
        assert cli.main(argv) == 0, argv
        out[command] = capsys.readouterr().out
    for name in ("predict.csv", "predict.svg", "solve.csv", "solve.svg", "curve.svg"):
        out[name] = (tmp_path / name).read_bytes()
    return out


class TestEveryCoefficient:
    def test_no_command_integrates(self, data_file, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr("greenreg.numerics.integrate", boom)
        monkeypatch.setattr("greenreg.kernel.integrate", boom)
        for a in ("0", "1", "100", "1e154"):
            _run_every_command(data_file, tmp_path, a, capsys)

    @pytest.mark.parametrize("a", ["5e-324", "1e-300", "1e-200"])
    def test_tiny_coefficient_gives_the_zero_output(self, data_file, tmp_path, capsys, a):
        zero = _run_every_command(data_file, tmp_path, "0", capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run_every_command(data_file, tmp_path, a, capsys) == zero

    def test_small_coefficient_matrix_is_finite(self, data_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["matrix", "--data", str(data_file), "--a", "1e-8"]) == 0
        got = np.array([[float(v) for v in line.split(",")]
                        for line in capsys.readouterr().out.splitlines()])
        assert got.shape == (5, 5)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)

    @pytest.mark.parametrize("a", ["1e-8", "1e12", "1e154"])
    def test_density_succeeds(self, capsys, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["density", "--a", a, "--y", "0.3"]) == 0
        out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert sorted(out) == ["mean", "p_1s", "p_2s", "std", "variance"]
        assert all(np.isfinite(float(v)) for v in out.values())


class TestOutputFormat:
    # signed zeros, the ends of the double range, and values exactly halfway
    # between two 12- or 6-significant-digit renderings
    VALUES = np.array([
        0.0, -0.0, 1e-300, 5e-324, 1e300, -1e300, -2.5, -1e-300, 1.0 / 3.0,
        100000000000.5, 100000000001.5, -100000000000.5, 100000.5, 100001.5, -100000.5,
    ])

    @staticmethod
    def per_value_points(xs, ys):
        return " ".join(f"{x:.6g},{-y:.6g}" for x, y in zip(xs, ys))

    def test_predict_and_solve_match_per_value_rendering(self, data_file, tmp_path,
                                                         monkeypatch):
        v = self.VALUES
        columns = (v, v[::-1], np.abs(v), np.roll(v, 3), -v, np.roll(v, 5))
        pred = Prediction(*columns, clamped_count=2)
        monkeypatch.setattr(cli, "predict", lambda *args: pred)
        monkeypatch.setattr(cli, "_axis_grid", lambda delta: v)
        monkeypatch.setattr(cli, "discretized_solution", lambda *args: v[::-1])
        pred_out = tmp_path / "pred.csv"
        sol_out = tmp_path / "sol.csv"
        for command, out in (("predict", pred_out), ("solve", sol_out)):
            rc = cli.main([command, "--data", str(data_file), "--a", "1", "--out", str(out),
                           "--format", "svg"])
            assert rc == 0

        want = "x_star,mean,variance,std,band_lo,band_hi\n"
        for row in zip(*columns):
            want += ",".join(f"{c:.12g}" for c in row) + "\n"
        want += "# clamped=2\n"
        assert pred_out.read_bytes() == want.encode()
        want = "x,u\n" + "".join(f"{x:.12g},{u:.12g}\n" for x, u in zip(v, v[::-1]))
        assert sol_out.read_bytes() == want.encode()

        monkeypatch.setattr(svg, "_poly_points", self.per_value_points)
        samples = cli.load_samples(data_file)
        band = svg.band_plot(pred.x_star, pred.mean, pred.band_lo, pred.band_hi,
                             samples.xi, samples.eta)
        assert "-0," in band and ",-0 " in band
        assert (tmp_path / "pred.svg").read_bytes() == band.encode()
        assert (tmp_path / "sol.svg").read_bytes() == svg.curve_plot(v, v[::-1]).encode()


def test_cli_import_loads_no_scipy():
    # scipy is only needed by the dense solver; keeping it out of the
    # import keeps it out of every command's start-up time
    src = str(Path(greenreg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import greenreg.cli, sys; "
        "assert not any(m.startswith('scipy') for m in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
