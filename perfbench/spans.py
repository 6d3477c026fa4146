"""Span wrappers installed around the package's public functions from outside.

``install`` wraps every public function that a ``greenreg`` module
defines and rebinds that name in every ``greenreg`` module that holds it
(``regression.normalized_green``, ``density.integrate``,
``cli.predict``, ...), so calls between modules and within a module both
pass through a wrapper.  Each call becomes a span with a parent, start
and end; spans are kept in memory per operation and folded into per-name
totals (calls, time, self time) and counters when the operation ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_green(counts, args, kwargs, out, exc):
    if exc is None:
        counts["kernel.green_closed.evals"] += np.size(out)


def _count_solve(counts, args, kwargs, out, exc):
    n = np.shape(_arg(args, kwargs, 0, "a"))[0]
    b = np.shape(_arg(args, kwargs, 1, "b"))
    k = b[1] if len(b) == 2 else 1
    counts["numerics.solve_linear.calls"] += 1
    counts["numerics.solve_linear.rhs_cols"] += k
    counts["numerics.lu_flops"] += 2.0 / 3.0 * n**3 + 2.0 * n * n * k


def _count_integrate(counts, args, kwargs, out, exc):
    counts["numerics.integrate.calls"] += 1


def _count_predict(counts, args, kwargs, out, exc):
    n = len(_arg(args, kwargs, 1, "samples"))
    m = len(_arg(args, kwargs, 2, "grid"))
    counts["regression.block_bytes"] += 8 * (n * n + n * m + m * m)
    if exc is None:
        counts["regression.clamped"] += out.clamped_count


def _count_solution(counts, args, kwargs, out, exc):
    n = len(_arg(args, kwargs, 1, "samples"))
    counts["regression.block_bytes"] += 8 * np.size(_arg(args, kwargs, 3, "x")) * n


def _count_density(counts, args, kwargs, out, exc):
    counts["density.density_stats.calls"] += 1
    if isinstance(exc, ArithmeticError):
        counts["density.mass_failures"] += 1


def _count_svg(counts, args, kwargs, out, exc):
    if exc is None:
        counts["svg.bytes_out"] += len(out.encode("utf-8"))


# work counted at a boundary, from the arguments and result of the call;
# lu_flops and block_bytes are computed from shapes, not measured
COUNTERS = {
    "kernel.green_closed": _count_green,
    "numerics.solve_linear": _count_solve,
    "numerics.integrate": _count_integrate,
    "regression.predict": _count_predict,
    "regression.discretized_solution": _count_solution,
    "density.density_stats": _count_density,
    "svg.band_plot": _count_svg,
    "svg.curve_plot": _count_svg,
}


KEEP_OPS = 20  # operations whose raw spans are kept


class Tracer:
    """Records nested spans per operation; raw spans are kept for the first KEEP_OPS."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.ops = 0
        self._op = None
        self._stack: list[list] = []  # open spans: [id, child_s]
        self._next_id = 0

    def begin_op(self, op_id) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self.ops += 1
        self._op = None

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        out = exc = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        except BaseException as e:
            exc = e
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[1]
            counter = COUNTERS.get(name)
            if counter is not None:
                counter(self.counts, args, kwargs, out, exc)
            if self.ops < KEEP_OPS:
                self.spans.append((self._op, span_id, parent, name, start, end))

    def dump(self) -> dict:
        return {"ops": self.ops, "totals": self.totals, "counts": dict(self.counts), "spans": self.spans}

    def merge(self, other: dict) -> None:
        """Fold in the dump of a tracer that ran in another process."""
        for name, (calls, total, self_s) in other["totals"].items():
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += total
            tot[2] += self_s
        for name, value in other["counts"].items():
            self.counts[name] += value
        if self.ops < KEEP_OPS:
            # number the other tracer's operations after this one's
            self.spans.extend((self.ops + s[0], *s[1:]) for s in other["spans"])
        self.ops += other["ops"]


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "greenreg" or n.startswith("greenreg.")]


def _public_function(attr: str, obj) -> bool:
    return (
        inspect.isfunction(obj)
        and not attr.startswith("_")
        and obj.__module__.startswith("greenreg")
        and not obj.__name__.startswith("_")
    )


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    traced.perfbench_span = name
    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every public package function in every module that binds it.

    Returns the undo list for :func:`restore`.  Raises RuntimeError if a
    package module still holds an unwrapped public function afterwards.
    """
    modules = _package_modules()
    wrappers = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if _public_function(attr, obj) and obj.__module__ == mod.__name__:
                short = mod.__name__.partition(".")[2] or mod.__name__
                wrappers[obj] = _wrap(tracer, f"{short}.{attr}", obj)
    undo = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                undo.append((mod, attr, obj))
    left = [
        f"{mod.__name__}.{attr}"
        for mod in modules
        for attr, obj in vars(mod).items()
        if _public_function(attr, obj) and not hasattr(obj, "perfbench_span")
    ]
    if left:
        restore(undo)
        raise RuntimeError(f"unwrapped package functions remain: {left}")
    return undo


def restore(undo: list[tuple]) -> None:
    for mod, attr, obj in reversed(undo):
        setattr(mod, attr, obj)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds for numpy and scipy.linalg (cumulative) and the package's own modules (self)."""
    out = {"import.numpy_s": 0.0, "import.scipy_linalg_s": 0.0, "import.greenreg_self_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "numpy":
            out["import.numpy_s"] = int(cum_us) / 1e6
        elif name == "scipy.linalg":
            out["import.scipy_linalg_s"] = int(cum_us) / 1e6
        elif name == "greenreg" or name.startswith("greenreg."):
            out["import.greenreg_self_s"] += int(self_us) / 1e6
    return out
