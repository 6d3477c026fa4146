"""Independent reference implementations the tests compare the package against.

The package's ``predict`` works from the two sites bracketing each query
and forms no covariance matrix; ``build_cov_matrix`` forms the data
matrix entry by entry in closed form and solves nothing.  Here the same
quantities come from the dense block formulas, with H = G / L1 taken
straight from its definition and the data system solved by
``np.linalg.solve`` (LAPACK LU).  The sine series is a second evaluation
of G that shares no code with the closed form.  A fixed composite Simpson
rule integrates the sections that the package normalizes in closed form,
and the inner product under which G reproduces point evaluation: the
package computes everything in closed form, so quadrature lives only
here.  Only public names are imported from the package.
"""

import sys
from typing import NamedTuple

import numpy as np

from greenreg.kernel import green_closed, l1_norm

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


def simpson(f, lo, hi):
    """Composite Simpson integral of ``f`` over [lo, hi] on 2048 panels."""
    n = 2048
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    fx = np.asarray(f(np.linspace(lo, hi, n + 1)), dtype=float)
    return float((weights @ fx) * (hi - lo) / (3.0 * n))


def simpson_split(f, y):
    """Integral of ``f`` over [0, 1] by :func:`simpson` on each side of y.

    The rule runs on [0, y] and on [y, 1] separately, so that no panel
    straddles the kink of a kernel section anchored at y.
    """
    return simpson(f, 0.0, y) + simpson(f, y, 1.0)


def _sinh_ratio(a, s):
    """(1 - exp(-2 a s)) / (1 - exp(-2 a)); s itself where 2 a is below the epsilon."""
    if 2.0 * a < sys.float_info.epsilon:
        return s
    return np.expm1(-2.0 * a * s) / np.expm1(-2.0 * a)


def green_dx_below(params, x, y):
    """d/dx G(x, y) on the branch x < y (left-sided limit at x = y).

    cosh(a x) sinh(a (1 - y)) / sinh(a), in decaying exponentials.
    """
    x = np.asarray(x, dtype=float)
    a = params.a
    cosh_part = np.exp(-a * (y - x)) * (1.0 + np.exp(-2.0 * a * x)) / 2.0
    return cosh_part * _sinh_ratio(a, 1.0 - y)


def green_dx_above(params, x, y):
    """d/dx G(x, y) on the branch x > y (right-sided limit at x = y).

    The mirror image of :func:`green_dx_below` under x -> 1 - x,
    y -> 1 - y, with the sign flipped.
    """
    x = np.asarray(x, dtype=float)
    a = params.a
    cosh_part = np.exp(-a * (x - y)) * (1.0 + np.exp(-2.0 * a * (1.0 - x))) / 2.0
    return -cosh_part * _sinh_ratio(a, y)


def inner_product(params, u, du, y):
    """Inner product of ``u`` with the kernel section at ``y`` in (0, 1).

    The integral over [0, 1] of u'(x) dG/dx(x, y) + a^2 u(x) G(x, y).  G
    is the reproducing kernel of this inner product, so the result is
    u(y) for any u vanishing at both ends, up to quadrature error.  The
    x-derivative of G jumps by -1 across x = y, so each side is
    integrated by :func:`simpson` with its one-sided derivative.  Both
    ``u`` and ``du`` must accept arrays.  The fixed rule resolves the
    layer of width 1/a around ``y`` only for a up to about 1000: for
    u = sin(pi x) the error is about 3e-9 at a = 100 and 4e-5 at
    a = 1000, but 0.1 at a = 1e4.
    """
    y = float(y)
    a_sq = params.a * params.a

    def below(x):
        return du(x) * green_dx_below(params, x, y) + a_sq * u(x) * green_closed(params, x, y)

    def above(x):
        return du(x) * green_dx_above(params, x, y) + a_sq * u(x) * green_closed(params, x, y)

    return simpson(below, 0.0, y) + simpson(above, y, 1.0)


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
