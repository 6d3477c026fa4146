"""Seeded inputs: sample sets, density anchors and the CSV files the CLI reads.

The same seed always gives the same inputs.  Floats are written with
``repr(float(v))``: numpy 2 scalars print as ``np.float64(...)``, which
the package's CSV reader rejects.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# the kernel coefficients every workload cycles through
A_VALUES = (0.0, 1.0, 10.0, 100.0)

# the five-point set of the package README
PAPER_XI = (0.1, 0.3, 0.5, 0.7, 0.9)
PAPER_ETA = (1.0, 2.0, 3.0, 4.0, 5.0)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream), so adding a stream moves no other."""
    key = [int(seed)] + [ord(c) for c in stream]
    return np.random.default_rng(key)


def sites(rng: np.random.Generator, n: int, min_gap: float) -> np.ndarray:
    """Sorted uniform abscissae strictly inside (0, 1), pairwise >= ``min_gap`` apart."""
    while True:
        xi = np.sort(rng.uniform(0.0, 1.0, n))
        if xi[0] > 0.0 and xi[-1] < 1.0 and np.diff(xi).min() >= min_gap:
            return xi


def ordinates(rng: np.random.Generator, xi: np.ndarray) -> np.ndarray:
    """A smooth curve plus Gaussian noise, sampled at ``xi``."""
    smooth = 2.0 * np.sin(2.0 * np.pi * xi) + np.cos(5.0 * xi)
    return smooth + 0.1 * rng.standard_normal(xi.size)


def sample_set(rng: np.random.Generator, n: int, min_gap: float) -> tuple[np.ndarray, np.ndarray]:
    xi = sites(rng, n, min_gap)
    return xi, ordinates(rng, xi)


def anchors(rng: np.random.Generator, count: int) -> np.ndarray:
    """Density anchor points y, uniform in the open interval (0, 1)."""
    y = rng.uniform(0.0, 1.0, count)
    while np.any(y == 0.0):
        y[y == 0.0] = rng.uniform(0.0, 1.0, int(np.count_nonzero(y == 0.0)))
    return y


def write_csv(path: Path, xi, eta) -> None:
    lines = ["x,y"]
    lines.extend(f"{float(x)!r},{float(v)!r}" for x, v in zip(xi, eta))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
