"""Command-line front end: predictions, matrix dumps, density reports, curves.

Exit statuses: 0 on success, 1 on validation or parse errors (bad flags,
malformed data files, out-of-range values) and on unreadable or
unwritable files.  Every computation is in closed form, so no valid input
fails numerically.  Validation always happens before the output path is
touched.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import svg
from .density import density_stats
from .kernel import KernelParams, normalized_green
from .regression import QueryGrid, SampleSet, build_cov_matrix, discretized_solution, predict

_FORMATS = ("csv", "svg")


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of command-line parameters."""

    a: float
    delta: float = 0.01
    data: Path | None = None
    queries: tuple[float, ...] | None = None
    out: Path | None = None
    format: str = "csv"
    y: float | None = None

    def __post_init__(self):
        if self.format == "svg" and self.out is None:
            raise ValueError("--format svg requires --out for the curve file")
        if not 0.0 < self.delta <= 0.5:
            raise ValueError(f"delta must lie in (0, 0.5], got {self.delta!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.format!r}")


def load_samples(path: Path) -> SampleSet:
    """Read a two-column ``x,y`` CSV into a SampleSet, sorting by x.

    An optional first line ``x,y`` is skipped; blank lines are ignored.
    Parse errors name the file and line number.  Duplicate abscissae are
    rejected here with both offending values spelled out.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line.replace(" ", "").lower() == "x,y":
                continue
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


def _num(v: float) -> str:
    return f"{v:.12g}"


def _axis_grid(delta: float) -> np.ndarray:
    """Endpoint-inclusive grid 0, delta, 2 delta, ..., 1 (clamped at 1)."""
    m = math.ceil(1.0 / delta)
    return np.minimum(np.arange(m + 1) * delta, 1.0)


def cmd_predict(config: RunConfig) -> int:
    """Write the predictive table as CSV; with format=svg also a band plot."""
    samples = load_samples(config.data)
    if config.queries is not None:
        grid = QueryGrid(x_star=np.asarray(config.queries))
    else:
        grid = QueryGrid.uniform(config.delta)
    pred = predict(KernelParams(a=config.a), samples, grid)

    # "%.12g" renders a float exactly as _num does, at one call per row
    template = ",".join(["%.12g"] * 6) + "\n"
    columns = (pred.x_star, pred.mean, pred.variance, pred.std, pred.band_lo, pred.band_hi)
    rows = zip(*(c.tolist() for c in columns))
    config.out.write_text(
        "x_star,mean,variance,std,band_lo,band_hi\n"
        + "".join(template % row for row in rows)
        + f"# clamped={pred.clamped_count}\n",
        encoding="utf-8",
    )
    if config.format == "svg":
        doc = svg.band_plot(
            pred.x_star, pred.mean, pred.band_lo, pred.band_hi, samples.xi, samples.eta
        )
        config.out.with_suffix(".svg").write_text(doc, encoding="utf-8")
    return 0


def cmd_matrix(config: RunConfig) -> int:
    """Print the data covariance matrix to stdout, three decimals."""
    samples = load_samples(config.data)
    matrix = build_cov_matrix(KernelParams(a=config.a), samples)
    for row in matrix:
        print(",".join(f"{v:.3f}" for v in row))
    return 0


def cmd_density(config: RunConfig) -> int:
    """Print density stats for the section at ``config.y``; optionally plot it."""
    params = KernelParams(a=config.a)
    stats = density_stats(params, config.y)
    for name in ("mean", "variance", "std", "p_1s", "p_2s"):
        print(f"{name}={_num(getattr(stats, name))}")
    if config.format == "svg":
        xs = _axis_grid(config.delta)
        ys = normalized_green(params, xs, config.y)
        config.out.write_text(svg.curve_plot(xs, ys), encoding="utf-8")
    return 0


def cmd_solve(config: RunConfig) -> int:
    """Write the superposed-response curve as x,u CSV; optionally plot it."""
    samples = load_samples(config.data)
    xs = _axis_grid(config.delta)
    us = discretized_solution(KernelParams(a=config.a), samples, config.delta, xs)
    rows = zip(xs.tolist(), us.tolist())
    config.out.write_text(
        "x,u\n" + "".join("%.12g,%.12g\n" % row for row in rows), encoding="utf-8"
    )
    if config.format == "svg":
        config.out.with_suffix(".svg").write_text(
            svg.curve_plot(xs, us), encoding="utf-8"
        )
    return 0


class _Parser(argparse.ArgumentParser):
    # bad flags are a validation error: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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

    p = sub.add_parser("predict", parents=[coef, data], help="predictive mean/variance table")
    p.add_argument("--delta", type=float, default=0.01, help="grid step (default 0.01)")
    p.add_argument(
        "--queries",
        type=_parse_queries,
        default=None,
        help="comma-separated query abscissae in (0,1); default: interior grid at step delta",
    )
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument(
        "--format",
        choices=_FORMATS,
        default="csv",
        help="svg additionally writes a band plot next to the CSV",
    )

    sub.add_parser("matrix", parents=[coef, data], help="print the data covariance matrix")

    p = sub.add_parser("density", parents=[coef], help="density summary of one kernel section")
    p.add_argument("--y", type=float, required=True, help="anchor point in (0,1)")
    p.add_argument("--delta", type=float, default=0.01, help="curve sampling step (default 0.01)")
    p.add_argument("--out", type=Path, default=None, help="curve SVG path (with --format svg)")
    p.add_argument(
        "--format",
        choices=_FORMATS,
        default="csv",
        help="svg writes the sampled density curve to --out",
    )

    p = sub.add_parser("solve", parents=[coef, data], help="superposed-response curve from the data")
    p.add_argument("--delta", type=float, default=0.01, help="grid step (default 0.01)")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument(
        "--format",
        choices=_FORMATS,
        default="csv",
        help="svg additionally writes a curve plot next to the CSV",
    )
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    # looked up per call, so that rebinding a command in this module takes effect
    command = {
        "predict": cmd_predict,
        "matrix": cmd_matrix,
        "density": cmd_density,
        "solve": cmd_solve,
    }[args.pop("command")]
    try:
        return command(RunConfig(**args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
