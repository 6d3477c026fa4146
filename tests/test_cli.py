"""End-to-end command-line behavior: files in, files/stdout out, exit codes.

- Data files: headers, blank lines and a UTF-8 byte-order mark are
  accepted; a parse error, a byte that is not UTF-8 among them, names
  its line; duplicate abscissae and empty files are rejected.
- Each command's output: the tables and their trailer, the golden
  matrix, the density summary, ``matrix`` and the density curve at a
  subnormal abscissa, the SVG plots (band under the mean line,
  points in x order for unsorted ``--queries``), a grid that ends at
  exactly 1 at steps such as 1/161, and ``predict``'s ``x_star`` column
  equal to ``solve``'s ``x`` column without its end rows.
- The table and plot writer: an ``<out>.svg`` that is a directory, an
  ``--out`` in a missing directory, a failing table (its plot is still
  written), a failing plot (the table is whole), two failures (one
  ``error:`` line, the plot's), a named pipe whose reader leaves early,
  a plot path that names or links to the CSV, and ``--out`` opened once.
- Exit codes: usage errors, out-of-range values and a ``--delta`` below
  the floor exit 1 and write nothing; the floor builds no grid.
- Every coefficient: each command at ``a`` from 0 to 1e154 with no
  quadrature bound in the package, and at subnormal ``a`` the ``a = 0``
  output byte for byte.
- Output bytes: per-value ``.12g`` / ``.6g`` / ``.3f`` rendering, signed
  zeros and ties included, within one format block and across two block
  boundaries; ``solve``'s plot at the table's ``.12g``, and points taken
  from text rows equal to those formatted from the values.
- The README: its examples run, and every test it cites exists.
- The flag set of each command, the names ``perfbench`` calls, no
  ``scipy`` import, every public name, and the console script entry.
- Subprocesses: the commands run clean under ``-X dev -W error``, through
  ``-m greenreg.cli`` and through ``main`` with the interpreter's
  teardown; a full stdout or a closed pipe exits 1 with one ``error:``
  line, also under ``python -u`` and for ``--help``; block-buffered output
  is complete; a closed stdout fails no command; a usage error exits 1;
  every entry point runs with ``scipy`` blocked from import.
"""

import argparse
import ast
import errno
import importlib
import inspect
import os
import pkgutil
import re
import select
import shlex
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import refvals
import greenreg
from greenreg import cli, regression, svg
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

    # a bad byte mid-line, a multi-byte character cut off at the end, and
    # old Mac line breaks after a byte-order mark
    @pytest.mark.parametrize("data, message", [
        (b"x,y\n0.5,3\n0.1,\xff\n", "d.csv:3: not UTF-8 text: byte 0xff (invalid start byte)"),
        (b"0.5,3\r\n0.1,1\xc3", "d.csv:2: not UTF-8 text: byte 0xc3 (unexpected end of data)"),
        (b"\xef\xbb\xbfx,y\r0.5,3\r\r0.1,\xe9\r",
         "d.csv:4: not UTF-8 text: byte 0xe9 (invalid continuation byte)"),
    ], ids=["mid-line", "cut-off", "cr-after-bom"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys, data, message):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as excinfo:
            cli.load_samples(path)
        assert str(excinfo.value) == f"{tmp_path / message}"
        out = tmp_path / "p.csv"
        assert cli.main(["predict", "--data", str(path), "--a", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / message}\n"
        assert not out.exists()

    # spreadsheet programs save "CSV UTF-8" with a byte-order mark
    @pytest.mark.parametrize("header", ["x,y\n", "", "\n\nx,y\n"])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        text = header + "0.5,3\n0.1,1\n0.3,2\n0.7,4\n0.9,5\n"
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        bom = tmp_path / "bom.csv"
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        want = cli.load_samples(plain)
        got = cli.load_samples(bom)
        assert got.xi.tobytes() == want.xi.tobytes()
        assert got.eta.tobytes() == want.eta.tobytes()


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

        # unsorted queries: the table keeps their order, the plot is drawn
        # in x order, so the mean line and the band do not backtrack
        rc = cli.main(["predict", "--data", str(data_file), "--a", "1", "--out", str(out),
                       "--queries", "0.4,0.55,0.1", "--format", "svg"])
        assert rc == 0
        assert read_csv_rows(out)[:, 0].tolist() == [0.4, 0.55, 0.1]
        root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
        band, mean = ([float(p.split(",")[0]) for p in el.get("points").split()] for el in root[:2])
        assert mean == [0.1, 0.4, 0.55]
        assert band == [0.1, 0.4, 0.55, 0.55, 0.4, 0.1]

    def test_band_plot_peak_memory(self):
        # the plot holds its two point lists and the document it joins from
        # them, not further copies of either
        samples = SampleSet(xi=refvals.XI, eta=refvals.ETA)
        pred = predict(KernelParams(a=1.0), samples, QueryGrid.uniform(1e-5))
        assert len(pred.x_star) == 99_999
        tracemalloc.start()
        try:
            text = svg.band_plot(pred.x_star, pred.mean, pred.band_lo, pred.band_hi,
                                 samples.xi, samples.eta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * len(text)

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

    def test_subnormal_site_column(self, tmp_path, capsys):
        # H(xi, 5e-324) from 60-digit mpmath is 2.164, 1.397 and 0.960;
        # forming G before dividing by L1 printed 2.164 three times
        data = tmp_path / "d.csv"
        data.write_text("x,y\n5e-324,1\n0.3,2\n0.5,3\n", encoding="utf-8")
        assert cli.main(["matrix", "--data", str(data), "--a", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines] == ["2.164", "1.397", "0.960"]


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

    def test_svg_curve_at_a_subnormal_anchor(self, tmp_path):
        # at a = 0 and y = 5e-324, H(x, y) is 2 (1 - x) for x >= y and 0 at
        # x = 0; forming G before dividing by L1 drew a flat line at 2
        out = tmp_path / "curve.svg"
        rc = cli.main(["density", "--a", "0", "--y", "5e-324", "--format", "svg",
                       "--out", str(out)])
        assert rc == 0
        xs = regression._axis_grid(0.01)
        want = np.where(xs == 0.0, 0.0, 2.0 * (1.0 - xs))
        points = ET.fromstring(out.read_text(encoding="utf-8"))[0].get("points")
        assert points == TestOutputFormat.per_value_points(xs, want)[0]

    def test_svg_needs_out_path(self, capsys):
        rc = cli.main(["density", "--a", "1", "--y", "0.5", "--format", "svg"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "--out" in captured.err
        assert captured.out == ""


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

    # steps 1/k whose last multiple k * (1/k) rounds below 1
    @pytest.mark.parametrize("delta", [1 / 161, 1 / 187, 1 / 561], ids=["1/161", "1/187", "1/561"])
    def test_grid_ends_at_exactly_one(self, data_file, tmp_path, delta):
        assert (len(cli._axis_grid(delta)) - 1) * delta < 1.0
        out = tmp_path / "sol.csv"
        rc = cli.main(["solve", "--data", str(data_file), "--a", "1", "--delta", repr(delta),
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text(encoding="utf-8").splitlines()[-1] == "1,0"
        curve = tmp_path / "curve.svg"
        rc = cli.main(["density", "--a", "1", "--y", "0.5", "--delta", repr(delta),
                       "--format", "svg", "--out", str(curve)])
        assert rc == 0
        last = ET.fromstring(curve.read_text(encoding="utf-8"))[0].get("points").split()[-1]
        assert [float(v) for v in last.split(",")] == [1.0, 0.0]

    @pytest.mark.parametrize("delta", [0.5, 0.3, 0.01, 1 / 161, 2e-4])
    def test_predict_queries_the_interior_of_the_solve_grid(self, data_file, tmp_path, delta):
        columns = {}
        for command in ("predict", "solve"):
            out = tmp_path / f"{command}.csv"
            rc = cli.main([command, "--data", str(data_file), "--a", "1", "--delta", repr(delta),
                           "--out", str(out)])
            assert rc == 0
            lines = out.read_text(encoding="utf-8").splitlines()[1:]
            columns[command] = [line.split(",")[0] for line in lines if not line.startswith("#")]
        assert columns["predict"] == columns["solve"][1:-1]



class TestForkedWriter:
    # the table and plot writer of predict and solve: out is opened and the
    # table written, then the plot is drawn and written, even after a
    # failed table

    @pytest.mark.skipif(os.name != "posix", reason="EISDIR is POSIX's error for a directory")
    def test_plot_path_is_a_directory(self, data_file, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        (tmp_path / "sol.svg").mkdir()
        rc = cli.main(["solve", "--data", str(data_file), "--a", "1", "--delta", "1e-3",
                       "--out", str(out), "--format", "svg"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path / 'sol.svg')!r}\n"
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1002 and lines[-1] == "1,0"

    def test_out_in_a_missing_directory(self, data_file, tmp_path, capsys):
        out = tmp_path / "missing" / "pred.csv"
        rc = cli.main(["predict", "--data", str(data_file), "--a", "1", "--out", str(out),
                       "--format", "svg"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert not (tmp_path / "missing").exists()

    def test_failing_format_pass(self, data_file, tmp_path, capsys, monkeypatch):
        # solve's plot takes its points from the table's text, which is
        # formatted before out is opened: a failing format pass writes nothing
        def disk_full(*args):
            raise OSError("disk full")
            yield

        monkeypatch.setattr(svg, "_format_rows", disk_full)
        out = tmp_path / "sol.csv"
        rc = cli.main(["solve", "--data", str(data_file), "--a", "1", "--out", str(out),
                       "--format", "svg"])
        assert rc == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert list(tmp_path.iterdir()) == [data_file]

    def test_failure_of_the_table_alone_is_reported(self, tmp_path):
        # the plot succeeds, so the error is the table's, raised once the
        # plot is written
        def blocks():
            yield "x,u\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="^disk full$"):
            cli._write_outputs(tmp_path / "sol.csv", blocks(), lambda: "<svg/>\n")
        assert (tmp_path / "sol.csv").read_text(encoding="utf-8") == "x,u\n"
        assert (tmp_path / "sol.svg").read_text(encoding="utf-8") == "<svg/>\n"

    @pytest.mark.parametrize("command", ["predict", "solve"])
    def test_failing_plot_keeps_the_table(self, data_file, tmp_path, capsys, monkeypatch,
                                          command):
        argv = [command, "--data", str(data_file), "--a", "1", "--delta", "1e-3", "--out"]
        assert cli.main([*argv, str(tmp_path / "want.csv")]) == 0

        def no_plot(*args):
            raise ValueError("cannot draw")

        monkeypatch.setattr(svg, "band_plot", no_plot)
        monkeypatch.setattr(svg, "curve_plot", no_plot)
        out = tmp_path / "o.csv"
        assert cli.main([*argv, str(out), "--format", "svg"]) == 1
        assert capsys.readouterr().err == "error: cannot draw\n"
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert not out.with_suffix(".svg").exists()

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_out_is_opened_once(self, data_file, tmp_path, monkeypatch, fmt):
        # a named pipe as --out would see end-of-file at a first close
        out = tmp_path / "o.csv"
        opened = []

        def counted_open(file, *args, **kwargs):
            opened.append(Path(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counted_open, raising=False)
        assert cli.main(["predict", "--data", str(data_file), "--a", "1", "--out", str(out),
                         "--format", fmt]) == 0
        assert opened.count(out) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_both_failures_print_one_error(self, data_file, tmp_path, capsys, monkeypatch):
        # the table's write fails on a full device and so does the plot's,
        # which comes last: its error is the one reported
        out = tmp_path / "sol.csv"

        def full_out(file, *args, **kwargs):
            return open("/dev/full" if Path(file) == out else file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", full_out, raising=False)
        (tmp_path / "sol.svg").mkdir()
        rc = cli.main(["solve", "--data", str(data_file), "--a", "1", "--out", str(out),
                       "--format", "svg"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path / 'sol.svg')!r}\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("command", ["predict", "solve"])
    def test_named_pipe_whose_reader_leaves_early(self, data_file, tmp_path, command):
        # the table's write fails with EPIPE; the plot, next to the pipe,
        # is still written
        out = tmp_path / "pipe.csv"
        os.mkfifo(out)
        # opened without waiting for a writer; select waits for the table's first bytes
        reader = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        with subprocess.Popen(
                [sys.executable, "-m", "greenreg.cli", command, "--data", str(data_file),
                 "--a", "1", "--delta", "1e-4", "--out", str(out), "--format", "svg"],
                env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as proc:
            try:
                try:
                    assert select.select([reader], [], [], 60)[0] == [reader]
                    assert os.read(reader, 1)
                finally:
                    os.close(reader)
                stdout, stderr = proc.communicate(timeout=60)
            finally:
                proc.kill()  # does nothing once the command has exited
        assert (proc.returncode, stdout, stderr) == (1, "", "error: [Errno 32] Broken pipe\n")
        assert out.with_suffix(".svg").read_text(encoding="utf-8").startswith("<svg ")

    @staticmethod
    def _plot_of(argv, tmp_path):
        """Bytes of the plot ``argv`` writes next to a table of its own."""
        out = tmp_path / "ref" / "t.csv"
        out.parent.mkdir()
        assert cli.main([*argv, "--out", str(out), "--format", "svg"]) == 0
        return out.with_suffix(".svg").read_bytes()

    def test_plot_named_like_the_table(self, data_file, tmp_path):
        # with --out s.svg the plot replaces the table: it is written once
        # the table is closed
        argv = ["solve", "--data", str(data_file), "--a", "1", "--delta", "1e-5"]
        out = tmp_path / "s.svg"
        assert cli.main([*argv, "--out", str(out), "--format", "svg"]) == 0
        assert out.read_bytes() == self._plot_of(argv, tmp_path)
        assert out.read_bytes().startswith(b"<svg ")

    def test_plot_path_linked_to_the_table(self, data_file, tmp_path):
        (tmp_path / "s.svg").symlink_to(tmp_path / "s.csv")
        argv = ["solve", "--data", str(data_file), "--a", "1", "--delta", "1e-4"]
        out = tmp_path / "s.csv"
        assert cli.main([*argv, "--out", str(out), "--format", "svg"]) == 0
        assert out.read_bytes() == self._plot_of(argv, tmp_path)
        assert out.read_bytes().startswith(b"<svg ")

    def test_no_child_is_left_unreaped(self, data_file, tmp_path):
        for command in ("predict", "solve"):
            rc = cli.main([command, "--data", str(data_file), "--a", "1",
                           "--out", str(tmp_path / "o.csv"), "--format", "svg"])
            assert rc == 0
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", ["predict", "solve"])
    def test_table_alone_draws_no_plot(self, data_file, tmp_path, monkeypatch, command):
        # without --format svg no plot is drawn
        def no_plot(*args):
            raise AssertionError("drew a plot for a table alone")

        monkeypatch.setattr(svg, "band_plot", no_plot)
        monkeypatch.setattr(svg, "curve_plot", no_plot)
        assert cli.main([command, "--data", str(data_file), "--a", "10",
                         "--out", str(tmp_path / "o.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "o.csv"]


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

    @pytest.mark.parametrize("delta", ["1e-300", "1e-9"])
    @pytest.mark.parametrize("command", ["predict", "density", "solve"])
    def test_delta_below_floor_builds_no_grid(self, data_file, tmp_path, capsys, monkeypatch,
                                              command, delta):
        # a grid at these steps would need gigabytes or more; the range
        # check must come before any grid is built
        def boom(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(cli, "_axis_grid", boom)
        monkeypatch.setattr(QueryGrid, "uniform", boom)
        argv = [command, "--a", "1", "--delta", delta, "--format", "svg",
                "--out", str(tmp_path / "out.csv")]
        argv += ["--y", "0.5"] if command == "density" else ["--data", str(data_file)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert "delta" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]

    def test_density_out_without_svg_writes_nothing(self, tmp_path, capsys):
        # the curve is written only as SVG; an --out that would stay empty
        # is refused before the summary is printed
        out = tmp_path / "curve.svg"
        rc = cli.main(["density", "--a", "1", "--y", "0.5", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "--format svg" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_delta_floor_is_accepted(self, capsys):
        assert cli.main(["density", "--a", "1", "--y", "0.5",
                         "--delta", repr(cli.MIN_DELTA)]) == 0

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
    def test_no_command_integrates(self, data_file, tmp_path, capsys):
        for a in ("0", "1", "100", "1e154"):
            _run_every_command(data_file, tmp_path, a, capsys)
        # the quadrature rule and the inner product built on it live in
        # tests/reference.py; no module of the package may bind them
        modules = [greenreg] + [
            importlib.import_module(f"greenreg.{info.name}")
            for info in pkgutil.iter_modules(greenreg.__path__)
        ]
        for module in modules:
            for name in ("_simpson", "rkhs_inner_product"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"

    @pytest.mark.parametrize("a", ["5e-324", "1e-300", "1e-200"])
    def test_tiny_coefficient_gives_the_zero_output(self, data_file, tmp_path, capsys, a):
        zero = _run_every_command(data_file, tmp_path, "0", capsys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run_every_command(data_file, tmp_path, a, capsys) == zero

    @pytest.mark.parametrize("a", ["1.5e-154", "1e-150", "1e-100"])
    def test_site_next_to_an_end_at_tiny_coefficient(self, tmp_path, a):
        # 2 a (hi - lo) underflows there; the bracket weights were 0 / 0
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1e-300,1\n0.5,2\n", encoding="utf-8")
        out = {}
        for coef in ("0", a):
            out[coef] = tmp_path / f"{coef}.csv"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = cli.main(["predict", "--data", str(data), "--a", coef,
                               "--queries", "5e-324,5e-301,0.25", "--out", str(out[coef])])
            assert rc == 0
        assert out[a].read_bytes() == out["0"].read_bytes()
        assert out["0"].read_text(encoding="utf-8").splitlines()[2] == (
            "5e-301,0.5,1.5,1.22474487139,-1.94948974278,2.94948974278"
        )

    def test_small_coefficient_matrix_is_finite(self, data_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["matrix", "--data", str(data_file), "--a", "1e-8"]) == 0
        got = np.array([[float(v) for v in line.split(",")]
                        for line in capsys.readouterr().out.splitlines()])
        assert got.shape == (5, 5)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)

    def test_huge_coefficient_next_to_an_end_is_finite(self, data_file, tmp_path):
        # L1(1e-300) underflows at a = 1e154; H(x, x) is about a there
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["predict", "--data", str(data_file), "--a", "1e154",
                           "--queries", "1e-300,0.5", "--out", str(out)])
        assert rc == 0
        rows = read_csv_rows(out)
        assert rows.shape == (2, 6) and np.all(np.isfinite(rows))
        assert rows[0, 2] == pytest.approx(1e154, rel=1e-12)

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
    def per_value_points(xs, ys, spec=".6g"):
        return [" ".join(f"{x:{spec}},{-y:{spec}}" for x, y in zip(xs, ys))]

    @staticmethod
    def assert_same(got: bytes, want: str):
        # names the first differing byte: pytest's own diff of two texts this
        # long would take minutes
        want = want.encode()
        if got != want:
            at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                      min(len(got), len(want)))
            lo = max(at - 30, 0)
            pytest.fail(f"first difference at byte {at}: {got[lo:at + 30]!r}"
                        f" != {want[lo:at + 30]!r}")

    @pytest.mark.parametrize("spec", [".6g", ".12g"])
    def test_points_from_rows_match_per_value_rendering(self, spec):
        # random bit patterns span every exponent and both signs; the rows
        # cross four block boundaries
        bits = np.random.default_rng(29).integers(0, 2**64, 20_000, dtype=np.uint64)
        values = bits.view(np.float64)
        v = np.concatenate([self.VALUES, values[np.isfinite(values)]])
        rows = svg._format_rows(f"%{spec},%{spec}\n", (v, np.roll(v, 1)))
        self.assert_same("".join(svg._poly_points(v, np.roll(v, 1), rows)).encode(),
                         self.per_value_points(v, np.roll(v, 1), spec)[0])

    # 15 rows fit in one format block; 2 * _BLOCK + 3 cross two block boundaries
    @pytest.mark.parametrize("rows", [15, 2 * svg._BLOCK + 3])
    def test_predict_and_solve_match_per_value_rendering(self, data_file, tmp_path,
                                                         monkeypatch, capsys, rows):
        v = np.resize(self.VALUES, rows)
        columns = (v, v[::-1], np.abs(v), np.roll(v, 3), -v, np.roll(v, 5))
        pred = Prediction(*columns, clamped_count=2)
        matrix = np.column_stack(columns)
        monkeypatch.setattr(cli, "predict", lambda *args: pred)
        monkeypatch.setattr(cli, "_axis_grid", lambda delta: v)
        monkeypatch.setattr(cli, "discretized_solution", lambda *args: v[::-1])
        monkeypatch.setattr(cli, "build_cov_matrix", lambda *args: matrix)
        monkeypatch.setattr(cli, "normalized_green", lambda *args: np.roll(v, 7))
        assert cli.main(["matrix", "--data", str(data_file), "--a", "1"]) == 0
        want = "".join(",".join(f"{c:.3f}" for c in row) + "\n" for row in matrix)
        assert "-0.000," in want
        self.assert_same(capsys.readouterr().out.encode(), want)

        pred_out = tmp_path / "pred.csv"
        sol_out = tmp_path / "sol.csv"
        for command, out in (("predict", pred_out), ("solve", sol_out)):
            rc = cli.main([command, "--data", str(data_file), "--a", "1", "--out", str(out),
                           "--format", "svg"])
            assert rc == 0
        dens_out = tmp_path / "dens.svg"
        assert cli.main(["density", "--a", "1", "--y", "0.5", "--format", "svg",
                         "--out", str(dens_out)]) == 0
        capsys.readouterr()

        want = "x_star,mean,variance,std,band_lo,band_hi\n"
        for row in zip(*columns):
            want += ",".join(f"{c:.12g}" for c in row) + "\n"
        want += "# clamped=2\n"
        self.assert_same(pred_out.read_bytes(), want)
        want = "x,u\n" + "".join(f"{x:.12g},{u:.12g}\n" for x, u in zip(v, v[::-1]))
        self.assert_same(sol_out.read_bytes(), want)

        # band and density points at %.6g; solve's at the table's %.12g
        monkeypatch.setattr(svg, "_poly_points",
                            lambda xs, ys, rows=None: self.per_value_points(xs, ys))
        samples = cli.load_samples(data_file)
        band = svg.band_plot(pred.x_star, pred.mean, pred.band_lo, pred.band_hi,
                             samples.xi, samples.eta)
        assert "-0," in band and ",-0 " in band
        self.assert_same((tmp_path / "pred.svg").read_bytes(), band)
        self.assert_same(dens_out.read_bytes(), svg.curve_plot(v, np.roll(v, 7)))
        monkeypatch.setattr(svg, "_poly_points",
                            lambda xs, ys, rows=None: self.per_value_points(xs, ys, ".12g"))
        curve = svg.curve_plot(v, v[::-1])
        assert "-100000000000," in curve and ",0 " in curve and re.search(r',-0[ "]', curve)
        self.assert_same((tmp_path / "sol.svg").read_bytes(), curve)


def test_readme_examples_run(data_file, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    api = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(api, namespace)
    for expr, prefix in (("pred.mean[0]", "2.4875"), ("pred.variance[0]", "0.3852"),
                         ("density_stats(params, 0.5).std", "0.2028"),
                         ("normalized_green(params, 0.1, 0.3)", "0.6778"),
                         ("normalized_green(params, 0.3, 0.1)", "1.5661")):
        assert f"{prefix}..." in api
        assert repr(float(eval(expr, namespace))).startswith(prefix), expr

    commands = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in commands.replace("\\\n", " ").splitlines()
             if line.startswith("greenreg ")]
    assert len(lines) == 6
    # the commands read d.csv, the README data of the data_file fixture
    monkeypatch.chdir(data_file.parent)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.main(argv) == 0, line
        assert capsys.readouterr().err == ""
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            assert out.stat().st_size > 0, line
            if argv[0] in ("predict", "solve") and "svg" in argv:
                assert out.with_suffix(".svg").stat().st_size > 0, line


def test_readme_cites_tests_that_exist():
    # each guarantee in "Numerical notes" names the test behind it, and a
    # renamed or deleted test must not leave the README citing it
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    cited = re.findall(r"tests/(\w+\.py)::(\w+)(?:::(\w+))?", readme)
    assert cited
    for module, name, member in cited:
        tree = ast.parse((root / "tests" / module).read_text(encoding="utf-8"))
        defined = {node.name: node for node in tree.body
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        assert name in defined, f"{module}::{name}"
        if member:
            assert isinstance(defined[name], ast.ClassDef), f"{module}::{name}"
            methods = {node.name for node in defined[name].body
                       if isinstance(node, ast.FunctionDef)}
            assert member in methods, f"{module}::{name}::{member}"

    notes = readme.split("\n## Numerical notes\n", 1)[1].split("\n## ", 1)[0]
    bullets = notes.split("\n- ")[1:]
    assert bullets
    for bullet in bullets:
        assert re.search(r"tests/\w+\.py::\w+", bullet), bullet


def test_flags_of_each_command():
    # option string -> required, per subcommand; matrix draws no grid, so
    # it takes no --delta, and density's --out is only for its SVG
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {a.option_strings[-1]: a.required for a in p._actions if a.dest != "help"}
        for name, p in sub.choices.items()
    }
    assert flags == {
        "predict": {"--a": True, "--data": True, "--delta": False, "--queries": False,
                    "--out": True, "--format": False},
        "matrix": {"--a": True, "--data": True},
        "density": {"--a": True, "--y": True, "--delta": False, "--out": False,
                    "--format": False},
        "solve": {"--a": True, "--data": True, "--delta": False, "--out": True,
                  "--format": False},
    }


def test_names_the_benchmark_reads():
    # perfbench calls these by name and reports the cli.cmd and
    # cli.load_samples spans under them: a rename would crash the harness
    # or leave a metric reading 0
    for name in ("main", "load_samples", "cmd_predict", "cmd_matrix", "cmd_density",
                 "cmd_solve"):
        fn = getattr(cli, name)
        assert inspect.isfunction(fn) and fn.__module__ == "greenreg.cli", name
    assert isinstance(regression.MIN_ABSCISSA_GAP, float)


def python_env():
    """The environment with the package's source first on the path.

    ``PYTHONUNBUFFERED`` is dropped, so a child's stdout is block-buffered
    where it is not a terminal, as in a user's run.
    """
    src = str(Path(greenreg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_python(*args, cwd=None, **popen):
    """Run this interpreter on ``args`` in ``python_env()``; ``popen`` may redirect stdout."""
    popen.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=python_env(), cwd=cwd,
                          stderr=subprocess.PIPE, text=True, **popen)


def test_cli_import_loads_no_scipy():
    # the package needs no scipy; an import of it, even an unused one,
    # would add its start-up time to every command
    code = (
        "import greenreg.cli, sys; "
        "assert not any(m.startswith('scipy') for m in sys.modules)"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves():
    code = """
import greenreg
assert len(greenreg.__all__) == 12
for name in greenreg.__all__:
    assert getattr(greenreg, name).__name__ == name, name
assert set(greenreg.__all__) <= set(dir(greenreg))
from greenreg import predict
assert predict is greenreg.regression.predict
for gone in ("rkhs_inner_product", "predictive_covariance"):
    try:
        getattr(greenreg, gone)
    except AttributeError:
        pass
    else:
        raise AssertionError(f"the removed name {gone} resolved")
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


# main run with the interpreter's teardown, which "-m greenreg.cli" skips
MAIN_WITH_TEARDOWN = "import sys; from greenreg.cli import main; sys.exit(main(sys.argv[1:]))"


def test_commands_run_warnings_clean(data_file, tmp_path):
    # -X dev reports unclosed files and descriptors, and with -W error any
    # warning, such as Python 3.12's about forking with threads, is an error.
    # A file still referenced at exit, from a module global or a cycle, is
    # only reported by the teardown, so main also runs with it
    for argv in (
        ["predict", "--data", str(data_file), "--a", "1", "--out", "p.csv", "--format", "svg"],
        ["solve", "--data", str(data_file), "--a", "1", "--out", "s.csv", "--format", "svg"],
        ["matrix", "--data", str(data_file), "--a", "1"],
        ["density", "--a", "1", "--y", "0.5", "--format", "svg", "--out", "c.svg"],
    ):
        for entry in (["-m", "greenreg.cli"], ["-c", MAIN_WITH_TEARDOWN]):
            proc = run_python("-X", "dev", "-W", "error", *entry, *argv, cwd=tmp_path)
            assert (proc.returncode, proc.stderr) == (0, ""), (entry, argv)


def test_console_script_is_run():
    # the installed script and "python -m greenreg.cli" end the same way
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"greenreg": "greenreg.cli:run"}
    module, name = scripts["greenreg"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.run


class TestProcessExit:
    """``python -m greenreg.cli`` ends by ``os._exit`` once stdout and stderr are flushed."""

    @staticmethod
    def expected_error(code):
        return f"error: [Errno {code}] {os.strerror(code)}\n"

    # each failing-stdout case runs buffered, then once more under python -u,
    # where every write reaches the descriptor at once
    BUFFERING_FLAGS = ([], ["-u"])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_exits_one(self):
        for flags in self.BUFFERING_FLAGS:
            with open("/dev/full", "w") as full:
                proc = run_python(*flags, "-m", "greenreg.cli", "density", "--a", "1",
                                  "--y", "0.3", stdout=full)
            assert (proc.returncode, proc.stderr) == (1, self.expected_error(errno.ENOSPC)), flags

    def test_closed_pipe_exits_one(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            for flags in self.BUFFERING_FLAGS:
                proc = run_python(*flags, "-m", "greenreg.cli", "density", "--a", "1",
                                  "--y", "0.3", stdout=write_end)
                want = (1, self.expected_error(errno.EPIPE))
                assert (proc.returncode, proc.stderr) == want, flags
        finally:
            os.close(write_end)

    def test_buffered_stdout_is_complete(self, tmp_path, capsys):
        rng = np.random.default_rng(23)
        xi = rng.choice(np.arange(1, 1000), 300, replace=False) / 1000
        data = tmp_path / "sites.csv"
        eta = rng.normal(size=300)
        data.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xi.tolist(), eta.tolist())),
                        encoding="utf-8")
        sizes = {}
        for argv in (["matrix", "--data", str(data), "--a", "1"],
                     ["density", "--a", "1", "--y", "0.3"]):
            assert cli.main(argv) == 0
            want = capsys.readouterr().out
            proc = run_python("-m", "greenreg.cli", *argv)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
            assert proc.stdout == want, argv
            sizes[argv[0]] = len(want)
        # the matrix fills the 8 KiB stdout buffer many times over, the summary not once
        assert sizes["density"] < 8192 < sizes["matrix"] / 10

    def test_failed_command_keeps_its_output(self, tmp_path, capsys):
        for argv in (["density", "--a", "1", "--y", "0.3", "--delta", "0.7"],
                     # the summary is printed before the curve's write fails
                     ["density", "--a", "1", "--y", "0.3", "--format", "svg",
                      "--out", str(tmp_path / "missing" / "c.svg")]):
            assert cli.main(argv) == 1
            want = capsys.readouterr()
            assert want.err.startswith("error: ") and want.err.count("\n") == 1
            proc = run_python("-m", "greenreg.cli", *argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, want.out, want.err), argv
        assert want.out.startswith("mean=")

    def test_commands_run_without_stdout(self, data_file, tmp_path):
        # with descriptor 1 closed, sys.stdout is None: predict needs no stdout,
        # and the matrix and density's summary go nowhere
        table = ["predict", "--data", str(data_file), "--a", "1", "--out"]
        for argv in (table + ["p.csv"], ["matrix", "--data", str(data_file), "--a", "1"],
                     ["density", "--a", "1", "--y", "0.3"]):
            proc = run_python("-m", "greenreg.cli", *argv, cwd=tmp_path, stdout=None,
                              preexec_fn=lambda: os.close(1))
            assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert cli.main(table + [str(tmp_path / "q.csv")]) == 0
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "q.csv").read_bytes()

    def test_help_exits_through_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict", "--help"])
        assert excinfo.value.code == 0
        proc = run_python("-m", "greenreg.cli", "predict", "--help")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [["--help"], ["predict", "--help"]],
                             ids=["main", "predict"])
    def test_help_to_full_stdout_exits_one(self, argv):
        # buffered, argparse leaves main through SystemExit, before main's own
        # flush; unbuffered, the help text's own write fails
        for flags in self.BUFFERING_FLAGS:
            with open("/dev/full", "w") as full:
                proc = run_python(*flags, "-m", "greenreg.cli", *argv, stdout=full)
            assert (proc.returncode, proc.stderr) == (1, self.expected_error(errno.ENOSPC)), flags

    def test_help_to_closed_pipe_exits_one(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            for flags in self.BUFFERING_FLAGS:
                proc = run_python(*flags, "-m", "greenreg.cli", "--help", stdout=write_end)
                want = (1, self.expected_error(errno.EPIPE))
                assert (proc.returncode, proc.stderr) == want, flags
        finally:
            os.close(write_end)

    def test_help_without_stdout_writes_nothing(self):
        # with descriptor 1 closed the help text goes nowhere, as print sends it
        proc = run_python("-m", "greenreg.cli", "--help", stdout=None,
                          preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["predict"])
        want = capsys.readouterr().err
        assert want.startswith("usage: greenreg predict")
        proc = run_python("-m", "greenreg.cli", "predict")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", want)


def test_every_entry_point_runs_with_scipy_blocked(data_file, tmp_path):
    # scipy is not a dependency: every computing name of the public API
    # and every command must work where importing it fails
    code = """
import sys
sys.modules["scipy"] = None
import greenreg as g
from greenreg import cli

p = g.KernelParams(a=1.0)
s = g.SampleSet(xi=[0.1, 0.3, 0.5, 0.7, 0.9], eta=[1.0, 2.0, 3.0, 4.0, 5.0])
q = g.QueryGrid(x_star=[0.2, 0.4])
calls = {
    "build_cov_matrix": lambda: g.build_cov_matrix(p, s),
    "density_stats": lambda: g.density_stats(p, 0.5),
    "discretized_solution": lambda: g.discretized_solution(p, s, 0.01, 0.5),
    "green_closed": lambda: g.green_closed(p, 0.3, 0.5),
    "l1_norm": lambda: g.l1_norm(p, 0.5),
    "normalized_green": lambda: g.normalized_green(p, 0.3, 0.5),
    "predict": lambda: g.predict(p, s, q),
}
functions = {n for n in g.__all__ if callable(getattr(g, n)) and not isinstance(getattr(g, n), type)}
assert set(calls) == functions, functions ^ set(calls)
for call in calls.values():
    call()
data, out = sys.argv[1:]
for argv in (
    ["predict", "--data", data, "--a", "1", "--out", out + "/p.csv", "--format", "svg"],
    ["matrix", "--data", data, "--a", "1"],
    ["density", "--a", "1", "--y", "0.5"],
    ["solve", "--data", data, "--a", "1", "--out", out + "/s.csv"],
):
    assert cli.main(argv) == 0, argv
assert sys.modules["scipy"] is None
"""
    proc = run_python("-c", code, str(data_file), str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def _avx512_targets():
    """The AVX512 kernels this numpy dispatches to on this CPU, by numpy's own names."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in getattr(umath, "__cpu_dispatch__", [])
            if (name.startswith("AVX512") or name == "X86_V4")
            and umath.__cpu_features__.get(name)]


def test_predict_table_does_not_depend_on_the_cpu(tmp_path, monkeypatch):
    # numpy's AVX512 exp and expm1 round differently from its AVX2 ones.
    # The variance subtracts nothing, so its few ulp of difference never
    # reach the 12th digit; the subtraction it replaced moved up to 444
    # units there on these sites, the 1000-site set of the ROADMAP.  The
    # mean is a sum of two weighted ordinates and moves by a few ulp of
    # its terms, and mean - 2 std cancels, so the mean and band columns
    # are held to one unit of their 12th digit
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches to no AVX512 kernel on this CPU")
    rng = np.random.default_rng(1000)
    xi = np.sort(rng.uniform(0.001, 0.999, 1000))
    eta = rng.normal(size=1000)
    data = tmp_path / "large.csv"
    data.write_text("".join(f"{x!r},{y!r}\n" for x, y in zip(xi.tolist(), eta.tolist())),
                    encoding="utf-8")
    code = """
import hashlib, sys
import numpy as np
from greenreg import cli

t = np.linspace(-3.0, 3.0, 4099)
print(hashlib.sha256(np.exp(t).tobytes() + np.expm1(t).tobytes()).hexdigest())
data, out = sys.argv[1:]
for a in ("1", "10", "100"):
    argv = ["predict", "--data", data, "--a", a, "--delta", "2e-4", "--out", f"{out}-{a}.csv"]
    assert cli.main(argv) == 0, argv
"""
    digests = []
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    for name in ("native", "avx2"):
        if name == "avx2":
            monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", " ".join(targets))
        proc = run_python("-c", code, str(data), str(tmp_path / name))
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] != digests[1], "the AVX512 kernels were not switched off"
    for a in ("1", "10", "100"):
        tables = [(tmp_path / f"{name}-{a}.csv").read_text(encoding="utf-8").splitlines()
                  for name in ("native", "avx2")]
        assert [t[0] for t in tables] == ["x_star,mean,variance,std,band_lo,band_hi"] * 2
        assert [t[-1] for t in tables] == ["# clamped=0"] * 2
        cells = np.array([[row.split(",") for row in t[1:-1]] for t in tables])
        assert cells.shape == (2, 4999, 6)
        # x_star, variance and std as printed
        assert np.array_equal(cells[0][:, [0, 2, 3]], cells[1][:, [0, 2, 3]]), a
        u, v = cells.astype(float)
        scale = np.maximum(np.abs(u), np.abs(v))
        unit = 10.0 ** (np.floor(np.log10(np.where(scale > 0.0, scale, 1.0))) - 11.0)
        assert np.all(np.abs(u - v) <= 1.01 * unit), a
