"""Command-line front end: predictions, matrix dumps, density reports, curves.

Exit statuses: 0 on success, 1 on validation or parse errors (bad flags,
malformed data files, out-of-range values) and on unreadable or
unwritable files, stdout among them (a full disk, a closed pipe).  Every
computation is in closed form, so no valid input fails numerically.
``python -m greenreg.cli`` and the ``greenreg`` script enter through
``run``, which ends the process by ``os._exit`` once its output is
flushed, skipping the interpreter's teardown.

With ``--format svg``, ``predict`` and ``solve`` write and close their
table, then draw and write the plot; the first failed write ends the
command.  ``solve``'s plot takes its points from the table's text.
Inputs are checked before any output.
``--delta`` (``predict``, ``density`` and ``solve``) is checked once,
against [MIN_DELTA, 0.5], before any command runs, so no grid has more
than 1 000 001 rows.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import svg
from .density import density_stats
from .kernel import KernelParams, normalized_green
from .regression import (QueryGrid, SampleSet, _axis_grid, build_cov_matrix,
                         discretized_solution, predict)

# the finest grid step, so no grid has more than 1 000 001 rows; at 1e-9
# the grid alone, 1e9 doubles, would ask numpy for 7.45 GiB
MIN_DELTA = 1e-6


def load_samples(path: Path) -> SampleSet:
    """Read a two-column ``x,y`` CSV into a SampleSet, sorting by x.

    An optional header ``x,y``, the first line that is not blank, is
    skipped; blank lines are ignored; a UTF-8 byte-order mark, as
    spreadsheet programs write, is dropped.
    Parse errors, a byte that is not UTF-8 among them, name the file and
    line number.  Duplicate abscissae are rejected here with both
    offending values spelled out.
    """
    try:
        text = io.StringIO(Path(path).read_bytes().decode("utf-8-sig"), newline=None)
    except UnicodeDecodeError as exc:
        # the bad byte is no line break: it sits on the last line up to it
        lineno = len(exc.object[:exc.start + 1].splitlines())
        raise ValueError(f"{path}:{lineno}: not UTF-8 text: byte {exc.object[exc.start]:#04x}"
                         f" ({exc.reason})") from None
    lines = [(lineno, raw.strip()) for lineno, raw in enumerate(text, start=1) if raw.strip()]
    if lines and lines[0][1].replace(" ", "").lower() == "x,y":
        del lines[0]
    rows = []
    for lineno, line in lines:
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected two comma-separated values, got {line!r}"
            )
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: could not parse numbers from {line!r}"
            ) from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    for (x0, _), (x1, _) in zip(rows, rows[1:]):
        if x0 == x1:
            raise ValueError(f"{path}: duplicate abscissa {x0!r}")
    xi, eta = zip(*rows)
    return SampleSet(xi=np.asarray(xi), eta=np.asarray(eta))


def cmd_predict(args: argparse.Namespace) -> None:
    """Write the predictive table as CSV; with format=svg also a band plot."""
    samples = load_samples(args.data)
    if args.queries is not None:
        grid = QueryGrid(x_star=np.asarray(args.queries))
    else:
        grid = QueryGrid.uniform(args.delta)
    pred = predict(KernelParams(a=args.a), samples, grid)

    columns = (pred.x_star, pred.mean, pred.variance, pred.std, pred.band_lo, pred.band_hi)
    header = "x_star,mean,variance,std,band_lo,band_hi\n"
    rows = svg._format_rows(",".join(["%.12g"] * 6) + "\n", columns)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(chain([header], rows, [f"# clamped={pred.clamped_count}\n"]))
    if args.format == "svg":
        plot = svg.band_plot(pred.x_star, pred.mean, pred.band_lo, pred.band_hi,
                             samples.xi, samples.eta)
        args.out.with_suffix(".svg").write_text(plot, encoding="utf-8")


def cmd_matrix(args: argparse.Namespace) -> None:
    """Print the data covariance matrix to stdout, three decimals."""
    samples = load_samples(args.data)
    matrix = build_cov_matrix(KernelParams(a=args.a), samples)
    template = ",".join(["%.3f"] * matrix.shape[1]) + "\n"
    sys.stdout.writelines(svg._format_rows(template, matrix.T))


def cmd_density(args: argparse.Namespace) -> None:
    """Print density stats for the section at ``args.y``; optionally plot it."""
    if (args.format == "svg") != (args.out is not None):
        raise ValueError("--out and --format svg go together: the curve is written only as SVG")
    params = KernelParams(a=args.a)
    stats = density_stats(params, args.y)
    print(
        "mean=%.12g\nvariance=%.12g\nstd=%.12g\np_1s=%.12g\np_2s=%.12g"
        % (stats.mean, stats.variance, stats.std, stats.p_1s, stats.p_2s)
    )
    if args.format == "svg":
        xs = _axis_grid(args.delta)
        ys = normalized_green(params, xs, args.y)
        args.out.write_text(svg.curve_plot(xs, ys), encoding="utf-8")


def cmd_solve(args: argparse.Namespace) -> None:
    """Write the superposed-response curve as x,u CSV; optionally plot it."""
    samples = load_samples(args.data)
    xs = _axis_grid(args.delta)
    us = discretized_solution(KernelParams(a=args.a), samples, args.delta, xs)
    rows = svg._format_rows("%.12g,%.12g\n", (xs, us))
    if args.format == "svg":
        rows = list(rows)  # the plot takes its points from the table's text
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(chain(["x,u\n"], rows))
    if args.format == "svg":
        args.out.with_suffix(".svg").write_text(svg.curve_plot(xs, us, rows), encoding="utf-8")


class _Parser(argparse.ArgumentParser):
    # bad flags are a validation error: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse swallows a failed write of the help text; main reports it
    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _parse_queries(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="greenreg",
        description="Regression and density tools built on a normalized"
        " Green's-function kernel on (0, 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    coef = argparse.ArgumentParser(add_help=False)
    coef.add_argument("--a", type=float, required=True, help="nonnegative kernel coefficient")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", type=Path, required=True, help="two-column x,y CSV")
    step = argparse.ArgumentParser(add_help=False)
    step.add_argument("--delta", type=float, default=0.01, help="grid step (default 0.01)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--out", type=Path, required=True, help="output CSV path")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "svg"), default="csv",
                     help="svg also writes a plot: next to the CSV, or density's to --out")

    # the commands are bound here, per call, so that rebinding one in this
    # module takes effect
    p = sub.add_parser("predict", parents=[coef, data, step, table, fmt],
                       help="predictive mean/variance table")
    p.add_argument(
        "--queries",
        type=_parse_queries,
        default=None,
        help="comma-separated query abscissae in (0,1); default: interior grid at step delta",
    )
    p.set_defaults(run=cmd_predict)

    sub.add_parser(
        "matrix", parents=[coef, data], help="print the data covariance matrix"
    ).set_defaults(run=cmd_matrix)

    p = sub.add_parser("density", parents=[coef, step, fmt],
                       help="density summary of one kernel section")
    p.add_argument("--y", type=float, required=True, help="anchor point in (0,1)")
    p.add_argument("--out", type=Path, default=None, help="curve SVG path (with --format svg)")
    p.set_defaults(run=cmd_density)

    sub.add_parser("solve", parents=[coef, data, step, table, fmt],
                   help="superposed-response curve from the data").set_defaults(run=cmd_solve)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if "delta" in args and not MIN_DELTA <= args.delta <= 0.5:
            raise ValueError(f"delta must lie in [{MIN_DELTA:g}, 0.5], got {args.delta!r}")
        args.run(args)
        # flushed here, a failed write to stdout is reported like any other
        sys.stdout.flush()
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Run ``main`` on the command line and end the process with its status.

    Every output file is closed before ``main`` returns; once stdout and
    stderr are flushed, ``os._exit`` skips the interpreter's teardown, its
    module clean-up and last garbage collections.  A ``SystemExit`` from
    argparse (``--help``, usage errors) gives its status; a failed flush of
    its text exits 1 with one ``error:`` line.  An unexpected exception
    ends the process as usual.  A closed descriptor 1 or 2 leaves
    ``sys.stdout`` or ``sys.stderr`` None; it is replaced by the null
    device, where output goes nowhere.
    """
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, "w", encoding="utf-8"))
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code or 0
    try:
        sys.stdout.flush()
    except OSError as exc:
        # a failed flush that main reported fails here again on the same text
        if not status:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    try:
        sys.stderr.flush()
    finally:
        os._exit(status)


if __name__ == "__main__":
    run()
