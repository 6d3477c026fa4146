"""Frozen reference values shared across the test modules.

The three-decimal matrices, the density summary table and the variance
decomposition pairs are golden values checked at their printed
precision.  The decomposition pairs were computed at the grid node
x* = 40/99 (see DECOMPOSITION_X_STAR), not at 0.4.  Everything in EXACT
was computed independently at 40-digit precision (mpmath) from the
closed forms and frozen at full double precision; tests compare against
these at tight tolerances.
"""

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
