"""The carpet's critical retention probability, bracketed by bisection.

The carpet survives with positive probability when log p + lambda_B > 0
and dies out almost surely when it is negative, with lambda_B the growth
exponent of the p = 1 column matrices (:mod:`mbpre.carpet`).
:func:`bisect_critical` brackets the root on the sign of log p + lambda_B,
with lambda_B from Ulam's method at two cell counts. Both values are
constants of the code, so they are stored here rather than recomputed,
and the module imports only ``math``: a bisection loads neither numpy nor
the model.
"""

import math

# Ulam cells of the coarser and the finer lambda_B below.
_ULAM_CELLS = (1000, 2000)

# repr of lyapunov.exponent_two_types(carpet.COLUMN_MATRICES, uniform, cells)
# at each of _ULAM_CELLS, uniform the i.i.d. law 1/3 on each column; the
# tests recompute both. They differ by 7e-8, and the value at 64000 cells
# is 0.9732052251.
_ULAM_LAMBDA_B = (0.9732052435535846, 0.9732051732497861)


def bisect_critical(*, iterations):
    """Critical retention probability bracket by bisection on [0.05, 0.95].

    lambda_B is Ulam's value at 1000 cells and at twice as many
    (``_ULAM_LAMBDA_B``). Each of at most ``iterations`` steps moves the
    upper end of the bracket to its midpoint when log(mid) + lambda_B,
    with the finer value, is positive, and the lower end when it is
    negative. The search stops undecided once |log(mid) + lambda_B| is no
    larger than the gap between the two values, or once the midpoint
    rounds to an end (after about 53 steps), so the bracket never
    collapses to a point. Nothing is sampled.
    Returns ``(p_low, p_high)``, with ``p_low < p_high``.
    """
    coarse, fine = _ULAM_LAMBDA_B
    lo, hi = 0.05, 0.95
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        growth = math.log(mid) + fine
        if not lo < mid < hi or abs(growth) <= abs(fine - coarse):
            break
        if growth > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi
