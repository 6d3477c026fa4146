"""Independent reference implementations the tests compare the package against.

The package predicts from the two sites bracketing each query and never
forms a covariance matrix; here the same quantities come from the dense
block formulas, with H = G / L1 taken straight from its definition and
the data system solved by ``np.linalg.solve`` (LAPACK LU).  The sine
series is a second evaluation of G that shares no code with the closed
form, and composite Simpson integrates the sections that the package
normalizes in closed form.
"""

from typing import NamedTuple

import numpy as np

from greenreg.kernel import _simpson, green_closed, l1_norm

SERIES_CHUNK = 4096


class JointBlocks(NamedTuple):
    """The three covariance blocks of the joint (data, query) model.

    data_cov : (N, N), entry (i, j) = H(xi_i, xi_j)
    cross_cov : (N, M), entry (i, j) = H(x*_j, xi_i)
    query_cov : (M, M), entry (i, j) = H(x*_i, x*_j)
    """

    data_cov: np.ndarray
    cross_cov: np.ndarray
    query_cov: np.ndarray


def h(params, x, y):
    """H(x, y) = G(x, y) / L1(y), the quotient as defined."""
    return green_closed(params, x, y) / l1_norm(params, y)


def joint_blocks(params, samples, x) -> JointBlocks:
    """Covariance blocks of the sites ``samples.xi`` and the queries ``x``.

    The cross block anchors the kernel section at the data site, so row
    i is the impulse response of site i sampled along the queries.
    """
    xi = samples.xi
    return JointBlocks(
        data_cov=h(params, xi[:, None], xi[None, :]),
        cross_cov=h(params, x[None, :], xi[:, None]),
        query_cov=h(params, x[:, None], x[None, :]),
    )


def dense_posterior(params, samples, x):
    """Predictive mean and full covariance (diagonal unclamped) at ``x``.

    mean = cross_cov^T data_cov^{-1} eta and
    cov = query_cov - cross_cov^T data_cov^{-1} cross_cov.
    """
    blocks = joint_blocks(params, samples, x)
    solved = np.linalg.solve(blocks.data_cov, np.column_stack((samples.eta, blocks.cross_cov)))
    mean = blocks.cross_cov.T @ solved[:, 0]
    return mean, blocks.query_cov - blocks.cross_cov.T @ solved[:, 1:]


def simpson_split(f, y):
    """Integral of ``f`` over [0, 1] by the package's fixed Simpson rule.

    The rule runs on [0, y] and on [y, 1] separately, so that no panel
    straddles the kink of a kernel section anchored at y.
    """
    return _simpson(f, 0.0, y) + _simpson(f, y, 1.0)


def green_series(a, x, y, terms=100_000):
    """Sine series of G truncated after ``terms`` terms.

    Sum over n of 2 sin(n pi x) sin(n pi y) / ((n pi)^2 + a^2); the tail
    is bounded by 2 / (pi^2 terms), about 2e-6 at the default.  Inputs
    broadcast; scalars in, scalar out.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    xb = np.broadcast_to(x, shape).ravel()
    yb = np.broadcast_to(y, shape).ravel()
    acc = np.zeros(xb.size)
    for start in range(1, terms + 1, SERIES_CHUNK):
        n_pi = np.arange(start, min(start + SERIES_CHUNK, terms + 1))[:, None] * np.pi
        acc += np.einsum(
            "nk,nk,n->k",
            np.sin(n_pi * xb),
            np.sin(n_pi * yb),
            2.0 / (n_pi[:, 0] ** 2 + a * a),
        )
    out = acc.reshape(shape)
    return out if shape else float(out)
