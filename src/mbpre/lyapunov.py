"""Growth exponents of random products of non-negative matrices.

The exponent along a word is (1/n) log of a scalar reduction of the matrix
product: the entry sum ("sum"), the minimum column sum ("colmin"), or the
minimum row sum ("rowmin"). For a good family all three share one almost
sure limit, estimated here by Monte Carlo with batch-means confidence
intervals.

One kernel serves every matrix size and every alphabet. Its chunk length
C is ``_CHUNK``, or ``_FLOATS`` // N^2 where that is smaller, so memory
stays bounded in the type count N. It first builds a table of all L^k
products of k consecutive letters, each divided by its entry sum with the
log of the sum kept; k is the largest value with
max(L, 2)^k <= min(C, n // 16), so the table holds at most C products and
costs at most n / 8 small ones. The word is read as n // k base-L
symbols, each naming one table entry, plus the fewer than k tail letters.
The symbols are gathered C at a time by ``take`` into one (C, N, N)
stack and multiplied as a pairwise tree, adjacent pairs in order; at each
level every product is divided by its entry sum and the logs of the
divisors are summed. Each chunk's product is folded into one running
product, renormalized the same way, so words of 1e7 steps neither
overflow nor underflow. Products of allowable matrices are allowable, so
an allowable family needs no step checks. For any other family the
positivity patterns of all letter prefixes are scanned first, C letters
at a time, and the first step at which a reduction of the prefix is zero
raises :class:`DegenerateProductError`. All batches of
:func:`estimate_exponent` share one word length, so it builds the table
once for all of them.

For an allowable 2 x 2 family under an i.i.d. environment,
:func:`exponent_two_types` computes the exponent deterministically, by
Ulam's discretization of the transfer operator on the projective line
(Furstenberg & Kesten 1960; Froyland 1999). It is an approximation whose
error shrinks with the cell count, not a bound.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import KINDS, BudgetError, DegenerateProductError
from .matcore import allowability_offenders
from .model import Record, check_word, child_seeds, mean_half_width

# The axes each kind sums an (..., N, N) product over before taking the
# least sum: all entries, the columns, the rows. The float reduction and
# the prefix scan's zero test both read it.
_AXES = dict(zip(KINDS, ((-2, -1), -2, -1)))

# Symbols per gathered chunk, letters per prefix-scan chunk, and the table
# size cap: (C, N, N) floats stay small, and a chunk is long enough that the
# per-level numpy calls are amortized. Past N = 32 the cap is _FLOATS / N^2,
# so the table and a chunk hold at most 32 MB each.
_CHUNK = 4096
_FLOATS = 1 << 22

# Ulam's method: the power iteration stops once an iterate moves less than
# _ULAM_TOL in L1, and raises BudgetError after _ULAM_ITERATIONS iterations;
# cells times letters is at most _ULAM_BUDGET, so a call holds tens of MB
# at most. The cell averages use the 8-point Gauss-Legendre rule on
# [-1, 1], whose nodes and weights are symmetric: the positive half of
# numpy.polynomial.legendre.leggauss(8), which the CLI does not import.
_ULAM_TOL = 1e-15
_ULAM_ITERATIONS = 10_000
_ULAM_BUDGET = 1 << 20
_HALF_NODES = (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_HALF_WEIGHTS = (
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
)
_GAUSS_NODES = np.array([-x for x in reversed(_HALF_NODES)] + list(_HALF_NODES))
_GAUSS_WEIGHTS = np.array(list(reversed(_HALF_WEIGHTS)) + list(_HALF_WEIGHTS))


class LyapunovEstimate(Record):
    """Point estimate of an exponent in nats per step, with a 95% CI half-width."""

    kind: str
    point: float
    half_width: float
    steps_per_batch: int
    batches: int

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _family(matrices):
    """The letter matrices as one (L, N, N) float array."""
    mats = [np.asarray(m, dtype=float) for m in matrices]
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("matrices must share one square shape")
    return np.stack(mats)


def _scan_prefixes(carry, patterns, kind, offset):
    """Prefix patterns of one chunk, continuing ``carry``; returns the last.

    A doubling scan: after the pass with shift s, entry i holds the product
    of letters i-2s+1..i. The first prefix whose entry sum, or whose
    ``kind`` reduction, is zero raises at its step, counted from 1.
    """
    shift = 1
    while shift < len(patterns):
        patterns[shift:] = patterns[:-shift] @ patterns[shift:]
        shift *= 2
    patterns = carry @ patterns
    dead = ~patterns.any(axis=_AXES["sum"])
    # a least sum is zero when one of the sums is: fold the axes left over
    bad = ~patterns.any(axis=_AXES[kind])
    bad = bad.any(axis=tuple(range(1, bad.ndim)))
    if bad.any():
        k = int(bad.argmax())
        raise DegenerateProductError(offset + k + 1, "sum" if dead[k] else kind)
    return patterns[-1]


def _symbol_length(n_letters, n, chunk):
    """Letters per table symbol: the largest k >= 1 with max(L, 2)^k <= min(chunk, n // 16).

    The base is at least 2 so that a one-letter family still gets a finite k.
    """
    base, cap = max(n_letters, 2), min(chunk, n // 16)
    k = 1
    while base ** (k + 1) <= cap:
        k += 1
    return k


def _product_table(mats, k):
    """All L^k products of k letters, each divided by its entry sum, and the summed logs.

    Entry s is the product of the letters of s written in base L with k
    digits, first letter most significant, multiplied one letter at a time.
    A product that is exactly zero leaves NaN entries; a word that uses it
    is degenerate, and the prefix scan raises before the entry is read.
    """
    n_letters, n = mats.shape[:2]
    table, logs = np.eye(n)[None], np.zeros(1)
    for _ in range(k):
        table = np.matmul(table[:, None], mats).reshape(-1, n, n)
        sums = np.einsum("kij->k", table)
        table /= sums[:, None, None]
        logs = (logs[:, None] + np.log(sums).reshape(-1, n_letters)).ravel()
    return table, logs


def exponent_along_word(matrices, word, kind="sum"):
    """(1/n) log reduction of the matrix product along a non-empty word.

    Letters must be integers in [0, len(matrices)). A reduction of a prefix
    product hitting zero, which a word of allowable matrices cannot
    produce, raises :class:`DegenerateProductError` naming the first such
    step. A product that is not zero but underflows to zero in floating
    point raises too, naming the last step of the chunk where it shows; a
    chunk spans C symbols of k letters, the last one also the tail.
    """
    _check_kind(kind)
    mats = _family(matrices)
    word = check_word(word, len(mats))
    return _word_exponent(mats, word, kind, _kernel_tables(mats, word.size))


def _kernel_tables(mats, n_steps):
    """C, k, the product table with its logs, and whether to scan prefixes, for n-letter words."""
    n = mats.shape[1]
    size = max(1, min(_CHUNK, _FLOATS // (n * n)))
    k = _symbol_length(len(mats), n_steps, size)
    with np.errstate(divide="ignore", invalid="ignore"):
        table, table_logs = _product_table(mats, k)
    return size, k, table, table_logs, any(allowability_offenders(m) for m in mats)


def _word_exponent(mats, word, kind, tables):
    """:func:`exponent_along_word` on a checked word, with its :func:`_kernel_tables`."""
    size, k, table, table_logs, check_steps = tables
    n_letters, n = mats.shape[:2]
    n_symbols = word.size // k
    digits = word[: n_symbols * k].reshape(n_symbols, k)
    symbols = np.ravel_multi_index(digits.T, (n_letters,) * k)
    eye = np.eye(n)[None]
    run, pattern, log_scale = np.eye(n), np.eye(n, dtype=bool), 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, n_symbols, size):
            chunk = symbols[first : first + size]
            block = table.take(chunk, axis=0)
            log_scale += float(table_logs[chunk].sum())
            start, end = first * k, (first + len(chunk)) * k
            if first + size >= n_symbols:
                block = np.concatenate((block, mats.take(word[end:], axis=0)))
                end = word.size
            if check_steps:
                for at in range(start, end, size):
                    letters = mats.take(word[at : at + size], axis=0)
                    pattern = _scan_prefixes(pattern, letters > 0, kind, at)
            while len(block) > 1:
                if len(block) % 2:
                    block = np.concatenate((block, eye))
                block = block[0::2] @ block[1::2]
                sums = np.einsum("kij->k", block)
                block /= sums[:, None, None]
                log_scale += float(np.log(sums).sum())
            run = run @ block[0]
            s = float(run.sum())
            if not run.sum(axis=_AXES[kind]).min() > 0.0:
                raise DegenerateProductError(end, kind if s > 0.0 else "sum")
            run /= s
            log_scale += math.log(s)
    return (log_scale + math.log(run.sum(axis=_AXES[kind]).min())) / word.size


def estimate_exponent(matrices, environment, *, kind="sum", steps_per_batch, batches, seed):
    """Batch-means Monte Carlo estimate of the exponent.

    ``matrices`` is the expectation-matrix family and ``environment`` a
    distribution over as many letters; a model passes
    ``model.expectation_matrices(), model.environment``. Batch ``b`` samples
    an independent environment word of ``steps_per_batch`` letters from
    child ``b`` of ``SeedSequence(seed)``, so results are reproducible
    bit-for-bit.
    """
    _check_kind(kind)
    if steps_per_batch < 100:
        raise ValueError("steps_per_batch must be >= 100")
    if batches < 2:
        raise ValueError("batches must be >= 2")
    matrices = _family(matrices)
    if len(matrices) != environment.n_letters:
        raise ValueError(
            f"{len(matrices)} matrices for an environment over {environment.n_letters} letters"
        )

    # every batch draws steps_per_batch letters in [0, L), so the batches
    # share one table and their words need no check
    tables = _kernel_tables(matrices, steps_per_batch)
    values = np.array(
        [
            _word_exponent(
                matrices,
                environment.sample_word(steps_per_batch, np.random.default_rng(child)),
                kind,
                tables,
            )
            for child in child_seeds(seed, batches)
        ]
    )
    point = float(values.mean())
    return LyapunovEstimate(kind, point, mean_half_width(values), steps_per_batch, batches)


def exponent_two_types(matrices, environment, cells):
    """Top exponent of i.i.d. products of an allowable 2 x 2 family, by Ulam's method.

    A row vector u = (x, 1 - x) goes to uM / (uM 1) under letter M, a
    monotone Moebius map of x in [0, 1]. [0, 1] is split into ``cells``
    equal cells; each letter of positive mass sends a cell onto an
    interval, and the cell's mass, times the letter's, goes to the cells
    that interval overlaps in proportion to the overlap (all of it to the
    cell holding an image that is a single point). Power iteration from
    the uniform vector gives the stationary vector nu, stopping once the
    L1 change is below ``_ULAM_TOL``. Furstenberg's formula then gives
    lambda = sum over cells of nu(cell) sum_k pi_k <log(x r_0 + (1 - x) r_1)>,
    with r_i the row sums of letter k and each cell average by 8-point
    Gauss-Legendre.

    Raises ``ValueError`` for matrices that are not 2 x 2, an environment
    whose transition rows are not all its letter masses (one that is not
    i.i.d.), a letter of positive mass that is not allowable or fewer than
    one cell, and :class:`BudgetError` for more than
    ``_ULAM_BUDGET`` cells times letters or an iteration that has not
    converged after ``_ULAM_ITERATIONS`` steps.
    """
    mats = _family(matrices)
    if mats.shape[1:] != (2, 2):
        raise ValueError("Ulam's method here takes 2 x 2 matrices")
    if len(mats) != environment.n_letters:
        raise ValueError(
            f"{len(mats)} matrices for an environment over {environment.n_letters} letters"
        )
    if (environment.transition != environment.letter_mass).any():
        raise ValueError("Ulam's method here takes i.i.d. letters")
    if cells < 1:
        raise ValueError("cells must be >= 1")
    live = environment.letter_mass > 0
    mats, mass = mats[live], environment.letter_mass[live]
    if any(allowability_offenders(m) for m in mats):
        raise ValueError("Ulam's method needs an allowable family")
    if cells * len(mats) > _ULAM_BUDGET:
        raise BudgetError(
            f"{cells} cells x {len(mats)} letters exceed the budget of {_ULAM_BUDGET}"
        )
    rows = mats.sum(axis=2)
    edges = np.arange(cells + 1) / cells
    # the cells each letter's images overlap, as (source, target, weight)
    # triples: images of consecutive cells are adjacent, so a letter has at
    # most 2 * cells of them
    triples = []
    for m, r, pi in zip(mats, rows, mass):
        image = edges * m[0, 0] + (1.0 - edges) * m[1, 0]
        image /= edges * r[0] + (1.0 - edges) * r[1]
        lo, hi = np.minimum(image[:-1], image[1:]), np.maximum(image[:-1], image[1:])
        first = np.minimum((lo * cells).astype(np.intp), cells - 1)
        count = np.minimum((hi * cells).astype(np.intp), cells - 1) - first + 1
        source = np.repeat(np.arange(cells), count)
        target = np.arange(source.size) - np.repeat(np.cumsum(count) - count - first, count)
        lo, hi = lo[source], hi[source]
        overlap = np.minimum(hi, edges[target + 1]) - np.maximum(lo, edges[target])
        width = hi - lo
        share = np.divide(overlap, width, out=np.ones_like(width), where=width > 0)
        triples.append((source, target, pi * share))
    source, target, weight = (np.concatenate(t) for t in zip(*triples))
    nu = np.full(cells, 1.0 / cells)
    for _ in range(_ULAM_ITERATIONS):
        step = np.bincount(target, weights=nu[source] * weight, minlength=cells)
        step /= step.sum()
        change = float(np.abs(step - nu).sum())
        nu = step
        if change < _ULAM_TOL:
            break
    else:
        raise BudgetError(
            f"Ulam's power iteration moved {change:.3g} in L1 after {_ULAM_ITERATIONS} steps"
        )
    # log(uM 1) at each cell's Gauss nodes, one node at a time: (L, cells)
    slope, base = (rows[:, 0] - rows[:, 1])[:, None], rows[:, 1:]
    average = np.zeros(cells)
    for t, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        x = (np.arange(cells) + 0.5 * (t + 1.0)) / cells
        average += 0.5 * w * (mass @ np.log(x * slope + base))
    return float(nu @ average)
