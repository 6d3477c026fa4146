"""greenreg benchmark: closed-loop workloads driving the package from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one operation at a time and waits for it (a closed
loop, no think time); each operation runs ``python -m greenreg.cli``
from ``src/`` as a child process.  Inputs come from ``--seed`` only.
Every output is checked against the mpmath oracle outside the timed
region.  Operations run until their summed time reaches ``--seconds``,
checked at the end of each cycle, which holds one full mix of the
workload's operations.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` each operation also runs with
span wrappers around the package's public functions, and its per-layer
metrics are reported per traced operation.  The lines before it give
the environment and a readable table.  Full results, and the spans of the first operations,
go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
# fresh interpreters per run for setup_s, after one warm-up; half run before
# the operations and half after, so the median spans the run's length
SETUP_RUNS = 8
IMPORT_RUNS = 5  # fresh `-X importtime` interpreters per traced run
PREDICT_ROWS_CHECKED = 32  # oracle rows per large predict table
SOLVE_ROWS_CHECKED = 32

# counts derived from shapes rather than measured
COMPUTED = ("numerics.lu_flops", "regression.block_bytes")

# the package's known defect: its quadrature misses the 1e-8 mass check for
# some y at a=100, and ``density`` exits 2 with this message.  It counts
# as failed; any other failure also makes the run incorrect.
KNOWN_FAILURE = re.compile(r"error: density mass \S+ deviates from 1 by more than 1e-8")


@dataclass
class Op:
    """One CLI call: its arguments and the check of its output (returns output points)."""

    argv: list[str]
    check: Callable[[str], int]
    may_fail_mass_check: bool = False


@dataclass
class Tally:
    """What one run measured and how its operations fared."""

    times: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    points: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # oracle mismatches and unexpected failures
    errors: dict[str, int] = field(default_factory=dict)
    plain_s: float = 0.0
    traced_s: float = 0.0
    bytes_out: int = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        key = failure_key(why)
        self.errors[key] = self.errors.get(key, 0) + 1


def failure_key(message: str) -> str:
    """A failure message with its numbers masked, so that alike failures group."""
    return re.sub(r"[-+.\deE]{3,}", "#", message.splitlines()[0] if message else "?")[:120]


class Runner:
    """Spawns interpreters with the checkout's ``src/`` on the path, one at a time."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, args: list[str]) -> tuple[float, float, int, str, str]:
        """Run ``python args...``; returns (seconds, peak RSS MB, status, stdout, stderr).

        Timed from spawn to reaped exit; the peak RSS is this child's own,
        from ``wait4`` (RUSAGE_CHILDREN would be a running maximum).
        """
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            dt,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"),
        )


# ---- inputs and operations per workload -------------------------------------


def _min_gap() -> float:
    from greenreg.regression import MIN_ABSCISSA_GAP

    return MIN_ABSCISSA_GAP


def paper_sets(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The README's five-point set plus three seeded five-point sets."""
    rng = gen.rng_for(seed, "paper-sets")
    sets = [(np.array(gen.PAPER_XI), np.array(gen.PAPER_ETA))]
    sets.extend(gen.sample_set(rng, 5, _min_gap()) for _ in range(3))
    return sets


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _predict_op(work, data, xi, eta, a, delta, svg, sample):
    queries = oracle.uniform_queries(delta)
    argv = ["predict", "--data", data, "--a", repr(a), "--delta", repr(delta), "--out", "out.csv"]
    if svg:
        argv += ["--format", "svg"]

    def check(_stdout):
        table = _read(work / "out.csv")
        rows = range(queries.size) if sample is None else sample
        points = oracle.check_predict(table, a, xi, eta, queries, rows)
        if svg:
            oracle.check_band_svg(_read(work / "out.svg"), table)
        return points

    return Op(argv, check)


def _solve_op(work, data, xi, eta, a, delta, svg, sample):
    argv = ["solve", "--data", data, "--a", repr(a), "--delta", repr(delta), "--out", "out.csv"]
    if svg:
        argv += ["--format", "svg"]

    def check(_stdout):
        table = _read(work / "out.csv")
        points = oracle.check_solve(table, a, xi, eta, delta, sample)
        if svg:
            u = oracle.parse_solve_csv(table)[:, 1]
            oracle.check_curve_svg(_read(work / "out.svg"), oracle.axis_grid(delta), u)
        return points

    return Op(argv, check)


PAPER_KINDS = ("predict", "predict-svg", "matrix", "density", "density-svg", "solve")


def cli_paper_ops(seed: int, work: Path) -> Iterator[Op]:
    """Every command at the paper's size: N=5, delta=0.01 (M=99)."""
    sets = paper_sets(seed)
    for d, (xi, eta) in enumerate(sets):
        gen.write_csv(work / f"paper{d}.csv", xi, eta)
    rng = gen.rng_for(seed, "cli-paper-ops")
    grid = oracle.axis_grid(0.01)
    i = 0
    while True:
        kind, a = PAPER_KINDS[i % len(PAPER_KINDS)], gen.A_VALUES[(i // len(PAPER_KINDS)) % len(gen.A_VALUES)]
        d = int(rng.integers(len(sets)))
        y = float(gen.anchors(rng, 1)[0])
        xi, eta = sets[d]
        data = f"paper{d}.csv"
        if kind.startswith("predict"):
            yield _predict_op(work, data, xi, eta, a, 0.01, kind.endswith("svg"), None)
        elif kind == "solve":
            yield _solve_op(work, data, xi, eta, a, 0.01, False, range(grid.size))
        elif kind == "matrix":
            yield Op(["matrix", "--data", data, "--a", repr(a)],
                     lambda out, a=a, xi=xi: oracle.check_matrix(out, a, xi))
        else:
            argv = ["density", "--a", repr(a), "--y", repr(y)]
            if kind == "density-svg":
                argv += ["--delta", "0.01", "--format", "svg", "--out", "curve.svg"]

            def check(out, a=a, y=y, svg=kind == "density-svg"):
                oracle.check_density_values(oracle.parse_density_text(out), a, y)
                if svg:
                    ref = np.array([oracle.green_h(a, float(x), y) for x in grid])
                    oracle.check_curve_svg(_read(work / "curve.svg"), grid, ref)
                return 1

            yield Op(argv, check, may_fail_mass_check=a == 100.0)
        i += 1


def predict_large_ops(seed: int, work: Path) -> Iterator[Op]:
    """predict with N=1000 seeded sites and delta=2e-4 (M=4999).

    Each cycle of eight runs every a once as csv and once as svg.
    """
    rng = gen.rng_for(seed, "predict-large")
    xi, eta = gen.sample_set(rng, 1000, _min_gap())
    gen.write_csv(work / "large.csv", xi, eta)
    m = oracle.uniform_queries(2e-4).size
    i = 0
    while True:
        sample = np.concatenate([[0, m - 1], rng.choice(m, PREDICT_ROWS_CHECKED, replace=False)])
        a = gen.A_VALUES[i % len(gen.A_VALUES)]
        svg = (i // len(gen.A_VALUES)) % 2 == 1
        yield _predict_op(work, "large.csv", xi, eta, a, 2e-4, svg, sample)
        i += 1


def solve_fine_ops(seed: int, work: Path) -> Iterator[Op]:
    """solve --format svg with N=50 and delta=1e-5 (100 001 rows)."""
    rng = gen.rng_for(seed, "solve-fine")
    xi, eta = gen.sample_set(rng, 50, _min_gap())
    gen.write_csv(work / "fine.csv", xi, eta)
    rows = oracle.axis_grid(1e-5).size
    i = 0
    while True:
        sample = np.concatenate([[0, rows - 1], rng.choice(rows, SOLVE_ROWS_CHECKED, replace=False)])
        yield _solve_op(work, "fine.csv", xi, eta, gen.A_VALUES[i % len(gen.A_VALUES)], 1e-5, True, sample)
        i += 1


# operation source and cycle length: each cycle holds one full mix of
# kinds (cli_paper), of coefficients and formats (predict_large) or of
# coefficients (solve_fine), so runs of any length see the same mix
CLI_OPS = {
    "cli_paper": (cli_paper_ops, len(PAPER_KINDS)),
    "predict_large": (predict_large_ops, 2 * len(gen.A_VALUES)),
    "solve_fine": (solve_fine_ops, len(gen.A_VALUES)),
}


# ---- the measurement loops --------------------------------------------------


def run_cli(workload: str, seed: int, seconds: float, trace: bool, runner: Runner, tracer) -> Tally:
    tally, busy = Tally(), 0.0
    work = runner.work
    spans_path = work / "spans.json"
    outputs = ("out.csv", "out.svg", "curve.svg")
    ops, cycle = CLI_OPS[workload]
    for i, op in enumerate(ops(seed, work)):
        if i % cycle == 0 and busy >= seconds:
            break
        # with tracing, each operation also runs traced; the order alternates
        modes = (False,) if not trace else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            for stale in (*outputs, "spans.json"):
                (work / stale).unlink(missing_ok=True)
            if traced:
                args = [str(HERE / "traced_cli.py"), str(spans_path), *op.argv]
            else:
                args = ["-m", "greenreg.cli", *op.argv]
            dt, rss, status, stdout, stderr = runner.spawn(args)
            busy += dt
            tally.rss_mb = max(tally.rss_mb, rss)
            if traced:
                tally.traced_s += dt
                if spans_path.exists():
                    tracer.merge(json.loads(_read(spans_path)))
                tally.bytes_out += len(stdout.encode("utf-8")) + sum(
                    (work / f).stat().st_size for f in outputs if (work / f).exists()
                )
            else:
                tally.plain_s += dt
                tally.times.append(dt)
            tally.attempted += 1
            if status != 0:
                why = f"exit {status}: {stderr.strip()}"
                tally.fail(why)
                if not (op.may_fail_mass_check and status == 2 and KNOWN_FAILURE.match(stderr)):
                    tally.wrong.append(f"unexpected failure of {' '.join(op.argv)}: {why}")
                continue
            try:
                tally.points += op.check(stdout)
            except oracle.Mismatch as exc:
                tally.wrong.append(str(exc))
                tally.fail(f"oracle: {exc}")
    return tally


# ---- metrics and reporting --------------------------------------------------


IMPORT_ARGS = ["-c", "import greenreg.cli"]


def setup_times(runner: Runner, count: int) -> list[float]:
    """Times of ``count`` fresh interpreters that import ``greenreg.cli`` and exit."""
    times = []
    for _ in range(count):
        dt, _, status, _, stderr = runner.spawn(IMPORT_ARGS)
        if status != 0:
            raise RuntimeError(f"import greenreg.cli exited {status}: {stderr.strip()}")
        times.append(dt)
    return times


def import_layer(runner: Runner) -> dict[str, float]:
    """Median import times from ``-X importtime`` in fresh interpreters."""
    samples = []
    for _ in range(IMPORT_RUNS):
        _, _, status, _, stderr = runner.spawn(["-X", "importtime", *IMPORT_ARGS])
        if status != 0:
            raise RuntimeError(f"importtime run exited {status}")
        samples.append(spans.parse_importtime(stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    times = tally.times
    return {
        "setup_s": setup_s,
        "call_p50_s": statistics.median(times),
        "points_per_s": tally.points / tally.plain_s,
        "peak_rss_mb": tally.rss_mb,
        "success_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(tracer: spans.Tracer, tally: Tally, imports: dict[str, float]) -> dict[str, float]:
    """Per traced operation: self times, counts, bytes; plus import times and trace overhead."""
    n = max(tracer.ops, 1)

    def self_s(*names):
        return sum(tracer.totals.get(name, (0, 0.0, 0.0))[2] for name in names) / n

    def count(name):
        return tracer.counts.get(name, 0.0) / n

    green_self = self_s("kernel.green_closed")
    out = dict(imports)
    out.update({
        "kernel.green_closed.self_s": green_self,
        "kernel.green_closed.evals": count("kernel.green_closed.evals"),
        "kernel.green_closed.evals_per_s": count("kernel.green_closed.evals") / green_self if green_self else 0.0,
        "kernel.l1_norm.self_s": self_s("kernel.l1_norm"),
        "kernel.normalized_green.self_s": self_s("kernel.normalized_green"),
        "numerics.solve_linear.self_s": self_s("numerics.solve_linear"),
        "numerics.solve_linear.calls": count("numerics.solve_linear.calls"),
        "numerics.solve_linear.rhs_cols": count("numerics.solve_linear.rhs_cols"),
        "numerics.lu_flops": count("numerics.lu_flops"),
        "numerics.integrate.self_s": self_s("numerics.integrate"),
        "numerics.integrate.calls": count("numerics.integrate.calls"),
        "regression.predict.self_s": self_s("regression.predict"),
        "regression.discretized_solution.self_s": self_s("regression.discretized_solution"),
        "regression.block_bytes": count("regression.block_bytes"),
        "regression.clamped": count("regression.clamped"),
        "density.density_stats.self_s": self_s("density.density_stats"),
        "density.density_stats.calls": count("density.density_stats.calls"),
        "density.mass_failures": count("density.mass_failures"),
        "cli.load_samples.self_s": self_s("cli.load_samples"),
        "cli.cmd.self_s": self_s("cli.cmd_predict", "cli.cmd_matrix", "cli.cmd_density", "cli.cmd_solve"),
        "cli.bytes_out": tally.bytes_out / n,
        "svg.plot.self_s": self_s("svg.band_plot", "svg.curve_plot"),
        "svg.bytes_out": count("svg.bytes_out"),
        "trace.overhead_ratio": tally.traced_s / tally.plain_s,
    })
    return out


def environment(root: Path) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown: not a git checkout"
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=CLI_OPS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "greenreg" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/greenreg", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    base = root / ".perfbench"
    work = base / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(root, work)
        trace = bool(args.trace)
        tracer = spans.Tracer()
        runner.spawn(IMPORT_ARGS)  # warm-up: let the file cache fill
        if trace:
            imports = import_layer(runner)
        else:
            setup = setup_times(runner, SETUP_RUNS // 2)
        tally = run_cli(args.workload, args.seed, args.seconds, trace, runner, tracer)
        if not trace:
            setup_s = statistics.median(setup + setup_times(runner, SETUP_RUNS - len(setup)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(tracer, tally, imports) if trace else end_to_end(tally, setup_s)
    env = environment(root)
    # a 90th percentile needs ten or more samples beyond it
    p90 = statistics.quantiles(tally.times, n=10)[8] if not trace and len(tally.times) >= 100 else None
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, call_p90_s=p90, env=env, errors=tally.errors, wrong=tally.wrong,
                  op_times=tally.times, spans=tracer.spans if trace else None)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8"
    )

    print(f"env {json.dumps(env)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} operations,"
          f" {tally.failed} failed, error_rate={tally.failed / tally.attempted:.4g} ratio")
    for reason, n in sorted(tally.errors.items()):
        print(f"  failure x{n}: {reason}")
    for name, unit in units.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"  {name:40s} {metrics[name]:.6g} {unit}{note}")
    if p90 is not None:
        print(f"  {'call_p90_s':40s} {p90:.6g} s (of {len(tally.times)} operations; not in the result line)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
