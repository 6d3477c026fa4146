"""Frozen reference values shared across the test modules.

The three-decimal matrices, the density summary table and the variance
decomposition pairs are golden values checked at their printed
precision.  The decomposition pairs were computed at the grid node
x* = 40/99 (see DECOMPOSITION_X_STAR), not at 0.4.  Everything in EXACT
was computed independently at 40-digit precision (mpmath) from the
closed forms and frozen at full double precision; tests compare against
these at tight tolerances.  ``mp_section`` computes the section
quantities afresh at 60 or more digits for the sweeps over a and y, and
``mp_posterior`` the dense predictive mean and variance at 80 digits.
``mp_green``, ``mp_l1`` and ``mp_h`` are the tests' one copy of the
textbook hyperbolic forms of G, L1 and H = G / L1.
"""

import functools
import math
import sys

import mpmath
import numpy as np

# five-point sample set used throughout
XI = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
ETA = np.array([1.0, 2.0, 3.0, 4.0, 5.0])

# normalized-kernel covariance on XI, three decimals
COV_A1 = np.array(
    [
        [2.119, 0.678, 0.392, 0.272, 0.207],
        [1.566, 2.061, 1.193, 0.827, 0.629],
        [1.076, 1.416, 2.041, 1.416, 1.076],
        [0.629, 0.827, 1.193, 2.061, 1.566],
        [0.207, 0.272, 0.392, 0.678, 2.119],
    ]
)
COV_A10 = np.array(
    [
        [6.841, 0.616, 0.080, 0.011, 0.002],
        [0.926, 5.254, 0.684, 0.096, 0.017],
        [0.125, 0.711, 5.068, 0.711, 0.125],
        [0.017, 0.096, 0.684, 5.254, 0.926],
        [0.002, 0.011, 0.080, 0.616, 6.841],
    ]
)

# density summary at y = 0.5, three decimals
DENSITY_TABLE = {
    1.0: dict(mean=0.5, variance=0.041, std=0.203, p_1s=0.652, p_2s=0.965),
    10.0: dict(mean=0.5, variance=0.017, std=0.129, p_1s=0.734, p_2s=0.936),
}

# predictive-variance decomposition on (XI, ETA):
# (prior term H(x*, x*), explained term h^T H^{-1} h), three decimals.
# The table's abscissa is x* = 40/99 = 0.40404..., the node of the
# 100-point grid linspace(0, 1, 100) nearest 0.4.  50-digit mpmath
# evaluation there (L1 by mp.quad) gives a=1 -> (2.0459152086,
# 1.6612960799) and a=10 -> (5.1013151907, 1.2327827475), which round to
# all four printed values; scanning x*, all four round to the table only
# for x* in [0.4039, 0.4044].  At x* = 0.4 the a=10 pair misses by 3.4e-3
# (the exact terms at 0.4 are first_term_a10/quad_term_a10 in EXACT).
DECOMPOSITION_X_STAR = 40 / 99
DECOMPOSITION_TABLE = {1.0: (2.046, 1.661), 10.0: (5.101, 1.233)}

EXACT = dict(
    # plain kernel values, a = 1
    g_half_a1=0.2310585786300049,  # G(0.5, 0.5)
    l1_half_a1=0.1131811160299261,  # integral of G(., 0.5)
    h_half_a1=2.041494082536798,  # H(0.5, 0.5)
    h_13_a1=0.6778480206901492,  # H(0.1, 0.3)
    h_31_a1=1.566126093630047,  # H(0.3, 0.1)
    h_51_a1=1.075821894436788,  # H(0.5, 0.1)
    h_half_a10=5.067836549063042,  # H(0.5, 0.5), a = 10
    # variance decomposition and prediction at x* = 0.4 on (XI, ETA)
    first_term_a1=2.0462956687371,
    quad_term_a1=1.66104780603295,
    var04_a1=0.385247862704153,
    mean04_a1=2.48755187238307,
    first_term_a10=5.10443069577088,
    quad_term_a10=1.23020978026199,
    var04_a10=3.87422091550889,
    mean04_a10=1.62013568415971,
    # density summaries at y = 0.5
    density_a1=dict(
        mean=0.5,
        variance=0.0411509554836181,
        std=0.202856982831792,
        p_1s=0.651538228636601,
        p_2s=0.965146418270973,
    ),
    density_a10=dict(
        mean=0.5,
        variance=0.016585163559904,
        std=0.128783397842672,
        p_1s=0.733869385203893,
        p_2s=0.935915678361465,
    ),
    # large-coefficient values, where sinh(a) alone would overflow or lose digits
    g_quarters_a50=1.388794386457827e-13,  # G(0.25, 0.75), a = 50
    g_quarters_a200=9.30018994005209e-47,
    g_quarters_a1000=3.562288203370643e-221,
    h_half_a50=25.0000000006944,
    h_half_a200=100.0,
    h_half_a1000=500.0,
    l1_03_a50=0.0003999998776390715,  # l1_norm(0.3), a = 50
)


# coefficients and anchors of the mpmath sweeps, from the a = 0 limit and
# a subnormal a up to MAX_COEFFICIENT, and anchors within 1e-4 of either end
SWEEP_COEFFICIENTS = [
    0.0, 5e-324, 1e-12, 1e-8, 1e-4, 0.5, 1.0, 10.0, 36.0, 100.0, 1e3, 1e6, 1e12, 1e100,
    math.sqrt(sys.float_info.max),
]
SWEEP_ANCHORS = [1e-4, 1e-3, 0.05, 0.3, 0.5, 0.77, 0.999, 1.0 - 1e-4]


@functools.cache
def mp_section(a, y):
    """L1(y) and the summary of x -> H(x, y), from the textbook hyperbolic forms.

    The section splits at y into a left side of length y and a right side
    of length 1 - y; on a side of length w the density in the distance t
    from y is proportional to sinh(a (w - t)), whose moments and CDF have
    antiderivatives in cosh and sinh.  The interval masses are differences
    of the full CDF.  Precision grows with the digits these forms lose:
    cosh(z) - 1 - z^2/2 for small z = a w, and a w - a d for large a.
    Below 1e-300, a is evaluated at its a = 0 limit, which the O(a^2)
    terms move by less than 1e-600.
    """
    tiny = a < 1e-300
    lost = 0.0 if tiny else 4.0 * max(0.0, -math.log10(a * min(y, 1.0 - y))) + max(0.0, math.log10(a))
    with mpmath.workdps(60 + int(lost)):
        y_ = mpmath.mpf(y)
        w_l, w_r = y_, 1 - y_
        if tiny:
            p_l = y_
            l1 = y_ * (1 - y_) / 2

            def moments(w):
                return w / 3, w * w / 6

            def cdf(w, d):
                return 1 - ((w - d) / w) ** 2

        else:
            a_ = mpmath.mpf(a)

            def mass(w):
                return (mpmath.cosh(a_ * w) - 1) / a_

            def moments(w):
                z = a_ * w
                m0 = (mpmath.cosh(z) - 1) / a_
                m1 = (mpmath.sinh(z) - z) / a_**2
                m2 = 2 * (mpmath.cosh(z) - 1 - z * z / 2) / a_**3
                return m1 / m0, m2 / m0

            def cdf(w, d):
                return (mpmath.cosh(a_ * w) - mpmath.cosh(a_ * (w - d))) / (mpmath.cosh(a_ * w) - 1)

            left = mass(w_l) * mpmath.sinh(a_ * w_r)
            right = mass(w_r) * mpmath.sinh(a_ * w_l)
            p_l = left / (left + right)
            l1 = (left + right) / (a_ * mpmath.sinh(a_))
        p_r = 1 - p_l
        m_l, s_l = moments(w_l)
        m_r, s_r = moments(w_r)
        shift = p_r * m_r - p_l * m_l
        variance = p_l * s_l + p_r * s_r - shift**2
        std = mpmath.sqrt(variance)

        def full_cdf(offset):
            if offset < 0:
                return p_l * (1 - cdf(w_l, min(-offset, w_l)))
            return p_l + p_r * cdf(w_r, min(offset, w_r))

        p_1s, p_2s = (full_cdf(shift + k * std) - full_cdf(shift - k * std) for k in (1, 2))
        return dict(
            l1=float(l1), mean=float(y_ + shift), variance=float(variance), std=float(std),
            p_1s=float(p_1s), p_2s=float(p_2s),
        )


def mp_green(a_, s, t):
    """G(s, t) = sinh(a min) sinh(a (1 - max)) / (a sinh a), at the working precision.

    The textbook hyperbolic form; min (1 - max) at a = 0.
    """
    lo, hi = min(s, t), max(s, t)
    if a_ == 0:
        return lo * (1 - hi)
    return mpmath.sinh(a_ * lo) * mpmath.sinh(a_ * (1 - hi)) / (a_ * mpmath.sinh(a_))


def mp_l1(a_, t):
    """L1(t) = 2 sinh(a t / 2) sinh(a (1 - t) / 2) / (a^2 cosh(a / 2)), at the working precision.

    The textbook hyperbolic form of the integral of G(., t); t (1 - t) / 2 at a = 0.
    """
    if a_ == 0:
        return t * (1 - t) / 2
    return 2 * mpmath.sinh(a_ * t / 2) * mpmath.sinh(a_ * (1 - t) / 2) / (a_**2 * mpmath.cosh(a_ / 2))


def mp_h(a_, s, t):
    """H(s, t) = G(s, t) / L1(t) from the textbook hyperbolic forms, at the working precision."""
    return mp_green(a_, s, t) / mp_l1(a_, t)


def mp_posterior(a, xi, eta, x, dps=80):
    """Predictive mean and variance at each query of ``x``, at ``dps`` digits.

    The dense formulas mean = c^T K^{-1} eta and variance
    H(x, x) - c^T K^{-1} c, with K[i, j] = H(xi_i, xi_j) and
    c_i = H(x, xi_i), where H = G / L1 is built from the textbook
    hyperbolic forms in mpmath.  The inputs are taken as the exact
    binary values of the doubles, so subnormal queries lose nothing.
    """
    with mpmath.workdps(dps):
        a_ = mpmath.mpf(a)
        sites = [mpmath.mpf(float(v)) for v in xi]
        data_cov = mpmath.matrix([[mp_h(a_, s, t) for t in sites] for s in sites])
        weights = mpmath.lu_solve(data_cov, mpmath.matrix([mpmath.mpf(float(v)) for v in eta]))
        means, variances = [], []
        for q in np.atleast_1d(x):
            q = mpmath.mpf(float(q))
            c = mpmath.matrix([mp_h(a_, q, s) for s in sites])
            explained = mpmath.lu_solve(data_cov, c)
            means.append(float(sum(c[i] * weights[i] for i in range(len(sites)))))
            variances.append(float(mp_h(a_, q, q) - sum(c[i] * explained[i] for i in range(len(sites)))))
        return np.array(means), np.array(variances)
