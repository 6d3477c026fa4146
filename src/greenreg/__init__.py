"""Regression with a normalized Green's-function kernel on the unit interval.

The kernel is the Green's function of -u'' + a^2 u = f with zero
Dirichlet data, rescaled so every section integrates to one.  Sections
of the rescaled kernel serve double duty: probability densities (with
moments and central-interval masses) and covariance entries for
noise-free Bayesian prediction with mean, variance and a 2-sigma band.
"""

from .density import DensityStats, density_stats
from .kernel import KernelParams, green_closed, l1_norm, normalized_green
from .regression import (
    Prediction,
    QueryGrid,
    SampleSet,
    build_cov_matrix,
    discretized_solution,
    predict,
)

__version__ = "0.1.0"

__all__ = [
    "DensityStats",
    "KernelParams",
    "Prediction",
    "QueryGrid",
    "SampleSet",
    "build_cov_matrix",
    "density_stats",
    "discretized_solution",
    "green_closed",
    "l1_norm",
    "normalized_green",
    "predict",
]
