"""Independent mpmath references for every output the benchmark checks.

Nothing here calls the package.  The kernel is evaluated from its
textbook hyperbolic form, including the cosh/tanh form of the L1 norm,
which cancels badly for large a; the working precision is therefore at
least 60 + a decimal digits.  Predictions use two-neighbour kriging:
the kernel is the covariance of a Markov bridge, so a query's weights
sit only on its bracketing sites, with the boundary a pinned site of
value 0.

Tolerances are fixed here, from the 12-significant-digit output format,
and are the same for every seed.  A value ``v`` checked against a
reference ``r`` with magnitude scale ``s`` passes when
``|v - r| <= RTOL * (|r| + s)``.
"""

from __future__ import annotations

import bisect
import math
import xml.etree.ElementTree as ET

import mpmath
import numpy as np

# 12 significant digits round to 5e-12 relative; the rest is the dense
# solver's error, which grows as sites close up (about 1e-10 at a
# smallest gap of 5e-8 among 1000 sites)
RTOL = 1e-8
# density outputs come from composite Simpson, which the package itself
# trusts to a mass error of 1e-8; each output on the x scale (mean, std,
# central masses) must agree to ten times that, the variance via its root
DENSITY_ATOL = 1e-7
# svg coordinates carry 6 significant digits
SVG_RTOL = 1e-5
# matrix entries are printed with three decimals
MATRIX_ATOL = 5e-4 + 1e-12


class Mismatch(AssertionError):
    """An output disagrees with its reference."""


def _dps(a: float) -> int:
    return 60 + int(math.ceil(a))


def _g(a, x, y):
    lo, hi = min(x, y), max(x, y)
    if a == 0:
        return lo * (1 - hi)
    return mpmath.sinh(a * lo) * mpmath.sinh(a * (1 - hi)) / (a * mpmath.sinh(a))


def _l1(a, y):
    if a == 0:
        return y * (1 - y) / 2
    return (1 - mpmath.cosh(a * y) + mpmath.tanh(a / 2) * mpmath.sinh(a * y)) / (a * a)


def _close(value: float, ref, scale, rtol: float, what: str) -> None:
    value, ref = float(value), float(ref)
    if not abs(value - ref) <= rtol * (abs(ref) + float(scale)):
        raise Mismatch(f"{what}: got {value!r}, reference {ref!r}")


def green_h(a: float, x: float, y: float) -> float:
    """H(x, y) = G(x, y) / L1(y)."""
    with mpmath.workdps(_dps(a)):
        a_, x_, y_ = mpmath.mpf(a), mpmath.mpf(x), mpmath.mpf(y)
        return float(_g(a_, x_, y_) / _l1(a_, y_))


def predict_row(a: float, xi, eta, x: float) -> tuple[float, float, float]:
    """(mean, variance, H(x, x)) at query ``x`` by two-neighbour kriging."""
    k = bisect.bisect_left(xi, x)
    with mpmath.workdps(_dps(a)):
        a_, x_ = mpmath.mpf(a), mpmath.mpf(x)
        prior = _g(a_, x_, x_) / _l1(a_, x_)
        if k < len(xi) and xi[k] == x:
            return float(eta[k]), 0.0, float(prior)
        left = (mpmath.mpf(xi[k - 1]), mpmath.mpf(eta[k - 1])) if k > 0 else (mpmath.mpf(0), 0)
        right = (mpmath.mpf(xi[k]), mpmath.mpf(eta[k])) if k < len(xi) else (mpmath.mpf(1), 0)
        (xl, el), (xr, er) = left, right
        if a == 0:
            wl, wr = (xr - x_) / (xr - xl), (x_ - xl) / (xr - xl)
        else:
            span = mpmath.sinh(a_ * (xr - xl))
            wl, wr = mpmath.sinh(a_ * (xr - x_)) / span, mpmath.sinh(a_ * (x_ - xl)) / span
        mean = wl * el + wr * er
        var = prior
        for w, site, inside in ((wl, xl, k > 0), (wr, xr, k < len(xi))):
            if inside:
                var -= w * _g(a_, x_, site) / _l1(a_, site)
        return float(mean), float(var), float(prior)


def solve_row(a: float, xi, eta, delta: float, x: float) -> tuple[float, float]:
    """(u(x), delta * sum |G(x, xi_i) eta_i|) for the superposed response."""
    with mpmath.workdps(_dps(a)):
        a_, x_ = mpmath.mpf(a), mpmath.mpf(x)
        terms = [_g(a_, x_, mpmath.mpf(s)) * mpmath.mpf(e) for s, e in zip(xi, eta)]
        d = mpmath.mpf(delta)
        return float(d * mpmath.fsum(terms)), float(d * mpmath.fsum(abs(t) for t in terms))


def density_row(a: float, y: float) -> dict[str, float]:
    """Mean, variance, std and central masses of x -> H(x, y), by mpmath.quad split at y."""
    with mpmath.workdps(_dps(a)):
        a_, y_ = mpmath.mpf(a), mpmath.mpf(y)
        norm = _l1(a_, y_)
    with mpmath.workdps(30):
        a_, y_ = mpmath.mpf(a), mpmath.mpf(y)
        norm = mpmath.mpf(norm)

        def dens(x):
            return _g(a_, x, y_) / norm

        def quad(f, lo, hi):
            pts = [lo, y_, hi] if lo < y_ < hi else [lo, hi]
            return mpmath.quad(f, pts)

        mean = quad(lambda x: x * dens(x), 0, 1)
        variance = quad(lambda x: (x - mean) ** 2 * dens(x), 0, 1)
        std = mpmath.sqrt(variance)
        out = {"mean": mean, "variance": variance, "std": std}
        for name, k in (("p_1s", 1), ("p_2s", 2)):
            lo, hi = max(mpmath.mpf(0), mean - k * std), min(mpmath.mpf(1), mean + k * std)
            out[name] = quad(dens, lo, hi) if lo < hi else mpmath.mpf(0)
        return {k: float(v) for k, v in out.items()}


def uniform_queries(delta: float) -> np.ndarray:
    """The package's default query grid: i * delta for i = 1 .. ceil(1/delta) - 1."""
    return np.arange(1, math.ceil(1.0 / delta)) * delta


def axis_grid(delta: float) -> np.ndarray:
    """The package's curve grid: 0, delta, ..., 1, clamped at 1."""
    return np.minimum(np.arange(math.ceil(1.0 / delta) + 1) * delta, 1.0)


# ---- checks on whole outputs -------------------------------------------------


def _table(lines: list[str], width: int) -> np.ndarray:
    """Comma-separated numbers, ``width`` per row."""
    try:
        flat = np.array(",".join(lines).split(","), dtype=float)
    except ValueError as exc:
        raise Mismatch(f"unparsable number: {exc}") from None
    if flat.size % width:
        raise Mismatch(f"{flat.size} numbers do not fill rows of {width}")
    return flat.reshape(-1, width)


def _is_printed(printed: np.ndarray, exact: np.ndarray) -> bool:
    """Whether ``printed`` is ``exact`` rounded to 12 significant digits."""
    return printed.shape == exact.shape and bool(np.all(np.abs(printed - exact) <= 5e-12 * np.abs(exact)))


def parse_predict_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != "x_star,mean,variance,std,band_lo,band_hi":
        raise Mismatch("predict CSV header missing")
    if not lines[-1].startswith("# clamped="):
        raise Mismatch("predict CSV has no '# clamped=' trailer")
    return _table(lines[1:-1], 6)


def check_predict(text: str, a: float, xi, eta, queries: np.ndarray, sample) -> int:
    """Check a predict CSV table; returns its row count."""
    rows = parse_predict_csv(text)
    if rows.shape != (queries.size, 6):
        raise Mismatch(f"predict table has shape {rows.shape}, expected ({queries.size}, 6)")
    if not _is_printed(rows[:, 0], queries):
        raise Mismatch("predict x_star column differs from the query grid")
    return check_predict_rows(rows[:, 1:], a, xi, eta, queries, sample)


def check_predict_rows(cols: np.ndarray, a: float, xi, eta, queries: np.ndarray, sample) -> int:
    """Check (mean, variance, std, band_lo, band_hi) rows.

    Rows in ``sample`` are compared with the oracle; every row is checked
    for a nonnegative variance and a band of mean -+ 2 std.
    """
    mean, var, std, lo, hi = np.asarray(cols, dtype=float).T
    if np.any(var < 0.0) or np.any(std < 0.0):
        raise Mismatch("negative variance or std in prediction")
    # the band is mean -+ 2 std of the printed values, up to the last digit
    tol = 1e-11 * (np.abs(mean) + 2.0 * std) + 1e-300
    if np.any(np.abs(lo - (mean - 2.0 * std)) > tol) or np.any(np.abs(hi - (mean + 2.0 * std)) > tol):
        raise Mismatch("prediction band differs from mean -+ 2 std")
    eta_scale = float(np.max(np.abs(eta)))
    xi_list = [float(v) for v in xi]
    for j in sample:
        x = float(queries[j])
        ref_mean, ref_var, prior = predict_row(a, xi_list, eta, x)
        _close(mean[j], ref_mean, eta_scale, RTOL, f"mean at x={x!r}, a={a}")
        _close(var[j], ref_var, prior, RTOL, f"variance at x={x!r}, a={a}")
        _close(std[j] ** 2, ref_var, prior, RTOL, f"std at x={x!r}, a={a}")
    return queries.size


def check_matrix(text: str, a: float, xi) -> int:
    rows = [[float(v) for v in ln.split(",")] for ln in text.splitlines() if ln]
    n = len(xi)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise Mismatch(f"matrix is not {n}x{n}")
    for i in range(n):
        for j in range(n):
            ref = green_h(a, float(xi[i]), float(xi[j]))
            if not abs(rows[i][j] - ref) <= MATRIX_ATOL:
                raise Mismatch(f"matrix[{i},{j}]={rows[i][j]!r}, reference {ref!r}, a={a}")
    return n * n


def check_density_values(got: dict[str, float], a: float, y: float) -> None:
    ref = density_row(a, y)
    got = dict(got, variance=math.sqrt(max(got["variance"], 0.0)))
    ref["variance"] = math.sqrt(ref["variance"])
    for name, value in ref.items():
        if not abs(got[name] - value) <= DENSITY_ATOL:
            raise Mismatch(f"density {name} at y={y!r}, a={a}: got {got[name]!r}, reference {value!r}")


def parse_density_text(text: str) -> dict[str, float]:
    out = {}
    for ln in text.splitlines():
        key, _, value = ln.partition("=")
        out[key] = float(value)
    if sorted(out) != ["mean", "p_1s", "p_2s", "std", "variance"]:
        raise Mismatch(f"density output has keys {sorted(out)}")
    return out


def parse_solve_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != "x,u":
        raise Mismatch("solve CSV header missing")
    return _table(lines[1:], 2)


def check_solve(text: str, a: float, xi, eta, delta: float, sample) -> int:
    rows = parse_solve_csv(text)
    grid = axis_grid(delta)
    if rows.shape != (grid.size, 2):
        raise Mismatch(f"solve table has shape {rows.shape}, expected ({grid.size}, 2)")
    if not _is_printed(rows[:, 0], grid):
        raise Mismatch("solve x column differs from the grid")
    if rows[0, 1] != 0.0 or rows[-1, 1] != 0.0:
        raise Mismatch("solve endpoint rows are not exactly zero")
    for k in sample:
        x = float(grid[k])
        ref, scale = solve_row(a, xi, eta, delta, x)
        _close(rows[k, 1], ref, scale, RTOL, f"u at x={x!r}, a={a}")
    return grid.size


def _points(attr: str) -> np.ndarray:
    return _table([attr.replace(" ", ",")], 2)


def _svg_root(text: str) -> ET.Element:
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise Mismatch(f"svg is not well-formed: {exc}") from None


def _close_points(got: np.ndarray, want: np.ndarray, what: str) -> None:
    if got.shape != want.shape:
        raise Mismatch(f"{what}: {got.shape[0]} points, expected {want.shape[0]}")
    if np.any(np.abs(got - want) > SVG_RTOL * np.abs(want) + 1e-300):
        raise Mismatch(f"{what}: coordinates differ from the table")


def check_band_svg(text: str, table_text: str) -> None:
    """Band polygon before the mean polyline, both matching the predict table."""
    root = _svg_root(text)
    tags = [el.tag.rpartition("}")[2] for el in root]
    if tags[:2] != ["polygon", "polyline"]:
        raise Mismatch(f"band svg starts with {tags[:2]}, expected polygon then polyline")
    rows = parse_predict_csv(table_text)
    x, mean, _var, _std, lo, hi = rows.T
    band = np.column_stack([np.concatenate([x, x[::-1]]), -np.concatenate([hi, lo[::-1]])])
    _close_points(_points(root[0].get("points")), band, "band polygon")
    _close_points(_points(root[1].get("points")), np.column_stack([x, -mean]), "mean polyline")


def check_curve_svg(text: str, xs: np.ndarray, ys: np.ndarray) -> None:
    root = _svg_root(text)
    tags = [el.tag.rpartition("}")[2] for el in root]
    if tags != ["polyline"]:
        raise Mismatch(f"curve svg holds {tags}, expected one polyline")
    _close_points(_points(root[0].get("points")), np.column_stack([xs, -ys]), "curve polyline")
