"""The random Sierpinski carpet and its diagonal-projection branching model.

Each retained square splits along its main diagonal into an upper and a
lower triangle, and the 45-degree projection (x, y) -> x - y sends a
depth-n triangle onto exactly one width-3^(-n) diagonal strip. Nested
strips subdivide 3-into-1, so the triangles over a fixed projection point
form a 2-type branching process whose environment letter is the strip's
position (0, 1, 2) inside its parent strip, i.i.d. uniform for a
Lebesgue-typical point. Retaining squares independently with probability p
scales every expectation matrix by p, which makes the critical retention
probability the root of log p + lambda_B = 0, with lambda_B the growth
exponent of the p = 1 matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError, InvariantError
from .model import (
    LETTER_BUDGET, EnvironmentLetter, IidEnvironment, ModelSpec, OffspringLaw, Record,
    child_seeds,
)

UPPER, LOWER = 0, 1

# Sub-triangles of a parent triangle, one subdivision level down, as
# (square, child_type, column) triples. Squares are indexed (i, j) in the
# 3x3 grid of the parent's bounding square with the middle (1, 1) never
# retained; the upper triangle of square (i, j) lies in diagonal strip
# i - j and the lower one in strip i - j + 1, and columns count the three
# strips covered by the parent triangle from its far edge towards its
# diagonal. Within each (parent, column) slot the contributing squares are
# pairwise distinct, so the type counts are independent Bernoulli sums.
CHILD_SQUARES = {
    UPPER: (
        ((0, 2), UPPER, 0),
        ((0, 1), UPPER, 1),
        ((1, 2), UPPER, 1),
        ((0, 2), LOWER, 1),
        ((0, 0), UPPER, 2),
        ((2, 2), UPPER, 2),
        ((0, 1), LOWER, 2),
        ((1, 2), LOWER, 2),
    ),
    LOWER: (
        ((1, 0), UPPER, 0),
        ((2, 1), UPPER, 0),
        ((0, 0), LOWER, 0),
        ((2, 2), LOWER, 0),
        ((2, 0), UPPER, 1),
        ((1, 0), LOWER, 1),
        ((2, 1), LOWER, 1),
        ((2, 0), LOWER, 2),
    ),
}

# Expectation matrices of the three column letters at p = 1.
COLUMN_MATRICES = (
    np.array([[1.0, 0.0], [2.0, 2.0]]),
    np.array([[2.0, 1.0], [1.0, 2.0]]),
    np.array([[2.0, 2.0], [0.0, 1.0]]),
)
for _m in COLUMN_MATRICES:
    _m.setflags(write=False)

_UNIFORM3 = IidEnvironment(np.array([1.0, 1.0, 1.0]) / 3.0)

# Ceiling on materialized squares in sample_carpet (~16 bytes each).
MAX_SQUARES = 10**7

# Ceiling on carpets in sample_projection_measures: every measure is kept
# and the CLI prints them all, about 140 bytes a sample.
MAX_PROJECTION_SAMPLES = 2**20

_MATRIX_TOL = 1e-12

# Deepest carpet whose square indices fit in int64: 3^39 < 2^63 < 3^40.
_MAX_DEPTH = 39

# SquareSet checks _TABLE_DIGITS base-3 digits per pass: bit k of
# _ONE_DIGITS[v] is set when digit k of v < 3^_TABLE_DIGITS is 1. Step k of
# the build lays the table of the lower k digits out for digit k = 0, 1, 2.
_TABLE_DIGITS = 8
_TABLE_SIZE = 3**_TABLE_DIGITS
_ONE_DIGITS = np.zeros(1, np.uint8)
for _k in range(_TABLE_DIGITS):
    _ONE_DIGITS = np.concatenate((_ONE_DIGITS, _ONE_DIGITS | (1 << _k), _ONE_DIGITS))


def _binomial_law(k_upper, k_lower, p):
    """Independent Binomial(k_upper, p) x Binomial(k_lower, p) counts."""
    atoms, probs = [], []
    for a in range(k_upper + 1):
        pa = math.comb(k_upper, a) * p**a * (1.0 - p) ** (k_upper - a)
        for b in range(k_lower + 1):
            pb = math.comb(k_lower, b) * p**b * (1.0 - p) ** (k_lower - b)
            atoms.append((a, b))
            probs.append(pa * pb)
    # degenerate p keeps zero-probability atoms out of the support
    keep = [(z, q) for z, q in zip(atoms, probs) if q > 0.0]
    return OffspringLaw.from_pairs(keep)


def build_carpet_model(p):
    """The 2-type, 3-letter carpet projection model at retention probability ``p`` in (0, 1].

    At p = 1 every law degenerates to the point mass at its maximal counts
    and the expectation matrices equal the base column matrices. A letter
    whose expectation matrix differs from ``p`` times its base matrix raises
    :class:`InvariantError`.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("retention probability must lie in (0, 1]")
    letters = []
    for column in range(3):
        laws = []
        for parent in (UPPER, LOWER):
            k_u = sum(
                1 for _, child, col in CHILD_SQUARES[parent] if col == column and child == UPPER
            )
            k_l = sum(
                1 for _, child, col in CHILD_SQUARES[parent] if col == column and child == LOWER
            )
            laws.append(_binomial_law(k_u, k_l, p))
        letters.append(EnvironmentLetter(f"col{column}", tuple(laws)))
    model = ModelSpec(2, tuple(letters), _UNIFORM3)
    for letter, base in zip(model.letters, COLUMN_MATRICES):
        if np.max(np.abs(letter.expectation - p * base)) > _MATRIX_TOL:
            raise InvariantError(
                f"carpet letter {letter.name!r} expectation differs from p * base matrix"
            )
    return model


def lambda_b(steps_per_batch, batches, seed):
    """Monte Carlo estimate of the growth exponent of the p = 1 matrices."""
    from .lyapunov import estimate_exponent  # loaded only when an exponent runs

    return estimate_exponent(
        COLUMN_MATRICES,
        _UNIFORM3,
        kind="sum",
        steps_per_batch=steps_per_batch,
        batches=batches,
        seed=seed,
    )


def critical_p(estimate):
    """Interval for the critical retention probability from a lambda_B estimate.

    log p + lambda_B crosses zero at p = e^(-lambda_B) exactly, so the
    confidence interval for lambda_B maps onto one for p.
    """
    if estimate.point <= 0:
        raise ValueError("lambda_B estimate must be positive")
    return (
        math.exp(-(estimate.point + estimate.half_width)),
        math.exp(-(estimate.point - estimate.half_width)),
    )


def bisect_critical(*, iterations, trials, horizon, cap, seed):
    """Critical retention probability bracket by survival bisection on [0.05, 0.95].

    Step k simulates ``trials`` carpet trials at the bracket's midpoint to
    ``horizon`` generations (a population over ``cap`` counts as alive),
    seeded from child k of ``SeedSequence(seed)``, and moves the upper end
    to the midpoint when there is any surviving trial, the lower end
    otherwise. Slowly dying subcritical lines still alive at the horizon
    count as survivors, so the bracket can sit below the critical probability.
    The search stops early once the midpoint rounds to an end (after about
    53 steps), so the bracket never collapses to a point.
    Returns ``(p_low, p_high)``, with ``p_low < p_high``.
    """
    from . import extinction  # loaded only when a bisection runs

    lo, hi = 0.05, 0.95
    for child in child_seeds(seed, iterations):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        model = build_carpet_model(mid)
        res = extinction.survival_estimate(model, 0, trials, horizon, cap=cap, seed=child)
        if res.surviving_trials:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _digit_blocks(v, depth):
    """Values of the base-3 digits of ``v``, ``_TABLE_DIGITS`` at a time, lowest first.

    Divides only while digits remain past the block, into one quotient and
    one remainder reused by every later division; the last block is the
    quotient itself, or ``v`` when it has at most ``_TABLE_DIGITS`` digits.
    """
    rem = None
    for _ in range(depth, _TABLE_DIGITS, -_TABLE_DIGITS):
        v, rem = np.divmod(v, _TABLE_SIZE, out=(None, None) if rem is None else (v, rem))
        yield rem
    yield v


class SquareSet(Record):
    """Retained squares (i, j) of a depth-n carpet approximation.

    Construction rejects an index outside [0, 3^n) and a square whose two
    indices share a base-3 digit 1 at some position, a square inside a
    removed middle cell. The digits are checked ``_TABLE_DIGITS`` at a time
    by table lookup, straight from the two columns: at depth 8 or less the
    check allocates two bytes a square, and a deeper one adds one quotient
    and one remainder per coordinate.
    """

    depth: int
    squares: np.ndarray

    def __post_init__(self):
        sq = np.asarray(self.squares, dtype=np.int64).reshape(-1, 2)
        sq.setflags(write=False)
        object.__setattr__(self, "squares", sq)
        if self.depth < 0:
            raise InvariantError("depth must be non-negative")
        if sq.size:
            if sq.min() < 0 or sq.max() >= 3**self.depth:
                raise InvariantError("square indices out of range for the depth")
            x, y = sq.T  # views of the columns
            for low_x, low_y in zip(_digit_blocks(x, self.depth), _digit_blocks(y, self.depth)):
                ones = _ONE_DIGITS[low_x]
                ones &= _ONE_DIGITS[low_y]
                if ones.any():
                    raise InvariantError("a square has the middle-cell digit pair (1, 1)")

    def __len__(self):
        return self.squares.shape[0]


# Digit offsets (di, dj) of the 8 non-middle children, in child order.
_CHILD_DI, _CHILD_DJ = np.array(
    [(di, dj) for di in range(3) for dj in range(3) if (di, dj) != (1, 1)],
    dtype=np.int64,
).T


def sample_carpet(p, depth, rng):
    """Sample retained squares of a depth-n random carpet, branch-only.

    Expands only surviving squares level by level, each of the 8 non-middle
    children kept independently with probability ``p``. The expected square
    count (8p)^depth must stay under ``MAX_SQUARES``, and the budget is also
    enforced per level before any allocation.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("retention probability must lie in (0, 1]")
    if not 1 <= depth <= _MAX_DEPTH:
        raise ValueError(
            f"depth must lie in [1, {_MAX_DEPTH}]: deeper square indices overflow int64"
        )
    if (8.0 * p) ** depth > MAX_SQUARES:
        raise BudgetError(
            f"expected square count (8p)^depth = {(8.0 * p) ** depth:.3g} "
            f"exceeds the budget of {MAX_SQUARES}"
        )
    squares = np.zeros((1, 2), dtype=np.int64)
    for _ in range(depth):
        if len(squares) * 8 > MAX_SQUARES:
            raise BudgetError(
                f"level population {len(squares)} * 8 exceeds the budget of {MAX_SQUARES}"
            )
        kept = np.flatnonzero(rng.random(len(squares) * 8) < p)
        child = kept & 7
        kept >>= 3  # now each kept child's parent
        # each level is built in the (n, 2) array that SquareSet keeps
        squares = squares.take(kept, axis=0)
        squares *= 3
        squares[:, 0] += _CHILD_DI[child]
        squares[:, 1] += _CHILD_DJ[child]
        if len(squares) == 0:
            break
    return SquareSet(depth, squares)


def projection_measure(square_set):
    """Lebesgue measure of the diagonal projection of the square set.

    In units of 3^-n the union of the segments [d - 1, d + 1] over the
    sorted diagonals d has the integer length 2 + sum(min(gap, 2)) over
    neighbouring gaps, which is divided by the integer 3^n once, so the
    result is the correctly rounded measure at every depth.
    """
    if len(square_set) == 0:
        return 0.0
    d = square_set.squares[:, 0] - square_set.squares[:, 1]
    d.sort()
    gaps = np.diff(d)
    np.minimum(gaps, 2, out=gaps)
    return int(2 + gaps.sum()) / 3**square_set.depth


def sample_projection_measures(p, depth, samples, seed):
    """Projection measures of ``samples`` independent depth-``depth`` carpets.

    Carpet k draws from child k of ``SeedSequence(seed)``, so a measure
    does not depend on how many samples follow it. Over
    ``MAX_PROJECTION_SAMPLES`` samples is a BudgetError, raised before the
    first carpet.
    """
    if samples > MAX_PROJECTION_SAMPLES:
        raise BudgetError(
            f"{samples} samples exceed the budget of {MAX_PROJECTION_SAMPLES} carpets"
        )
    return np.array(
        [
            projection_measure(sample_carpet(p, depth, np.random.default_rng(child)))
            for child in child_seeds(seed, samples)
        ]
    )


class OffspringStats(Record):
    """Empirical offspring statistics from the raw geometric construction."""

    mean: np.ndarray
    pmf: dict
    samples: int


def empirical_offspring_stats(p, column, parent_type, samples, rng):
    """Sample one subdivision level geometrically and count column children.

    Retains each contributing square independently with probability ``p``
    and counts the surviving sub-triangles of the given parent falling in
    the given column, by child type. The resulting joint pmf must agree
    with the law ``build_carpet_model`` assigns to the same slot. ``rng``
    is a Generator or a seed, passed through ``np.random.default_rng``. Over
    ``LETTER_BUDGET`` draws (samples x squares) is a BudgetError; it and a
    ``p`` outside (0, 1] are raised before anything is drawn.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("retention probability must lie in (0, 1]")
    if column not in (0, 1, 2):
        raise ValueError("column must be 0, 1, or 2")
    if parent_type not in (UPPER, LOWER):
        raise ValueError("parent_type must be 0 (upper) or 1 (lower)")
    rows = [(sq, child) for sq, child, col in CHILD_SQUARES[parent_type] if col == column]
    if samples * len(rows) > LETTER_BUDGET:
        raise BudgetError(
            f"{samples} samples x {len(rows)} squares exceeds the budget of "
            f"{LETTER_BUDGET} draws"
        )
    kept = np.random.default_rng(rng).random((samples, len(rows))) < p
    upper_cols = [k for k, (_, child) in enumerate(rows) if child == UPPER]
    lower_cols = [k for k, (_, child) in enumerate(rows) if child == LOWER]
    n_upper = kept[:, upper_cols].sum(axis=1)
    n_lower = kept[:, lower_cols].sum(axis=1)
    mean = np.array([n_upper.mean(), n_lower.mean()])
    pairs, counts = np.unique(np.column_stack([n_upper, n_lower]), axis=0, return_counts=True)
    pmf = {(int(a), int(b)): c / samples for (a, b), c in zip(pairs, counts)}
    return OffspringStats(mean, pmf, samples)

