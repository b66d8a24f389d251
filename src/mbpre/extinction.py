"""Extinction vectors, population simulation, and survival estimation.

The probability that the population seeded by one type-k individual is gone
after n generations is the k-th component of the n-fold backward pgf
composition evaluated at 0; its limit in n is the extinction vector of the
environment realization. Direct simulation of the generation process gives
an independent estimator of the same quantities.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .errors import BudgetError
from .model import (
    LETTER_BUDGET, Z95, Record, check_word, child_seeds, mean_half_width, word_dtype
)

# First depth probed by the doubling convergence loop.
_DEPTH0 = 64
# Trials or annealed environments run together; trial chunk c draws from
# child c of SeedSequence(seed).
_CHUNK = 1024
# Ceiling on trials in one run, which keeps about 48.5 bytes a trial.
MAX_TRIALS = 2**22
# Bytes of gathered float exponents one composition block holds; a block
# has at least one letter, however many rows it spans. Larger blocks take
# fewer gathers, but 256 kB ones raised the peak RSS of an 8-environment
# annealed launch by 0.25 MB. Also the bytes of int64 exponent rows one
# slice of a trial generation gathers, at least one row.
_BLOCK_BYTES = 1 << 17


class ExtinctionVector(Record):
    """Per-starting-type extinction probabilities at a composition depth."""

    q: np.ndarray
    depth: int
    converged: bool = True

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if not np.all((q >= 0) & (q <= 1)):
            raise ValueError("extinction probabilities must lie in [0, 1]")


def _compose(table, words, s):
    """Backward pgf composition along each row of ``words``, starting at ``s``.

    ``table`` is ``ModelSpec.pgf_table``, ``words`` an (E, d) array of letter
    indices and ``s`` an (E, N) array in [0, 1]^N, which is copied once and
    never written. Row e of the result is f_{w_0} o ... o f_{w_{d-1}}(s_e)
    for that row's word w. A point in [0, 1]^N makes every power, product
    and mass non-negative, and outputs are capped at 1, so every step's
    argument stays in range.

    The letters are read a block at a time, last block first: one ``take``
    each gathers the block's float exponents (B, E, N, K, N) and masses
    (B, E, N, K, 1), B letters filling ``_BLOCK_BYTES`` of exponents and at
    least one, and :func:`_compose_block` steps through them. A block is
    freed before the next is gathered, so with one-letter blocks a call
    holds one (E, N, K, N) array.
    """
    exps, masses = table
    n_types, k_max = exps.shape[1:3]
    # power casts integer exponents to float at every step; cast them once
    fexps, masses = exps.astype(float), masses[..., None]
    s = np.array(s, dtype=float)
    prod = np.empty((s.shape[0], n_types, 1, k_max))
    step = max(1, _BLOCK_BYTES // (s.shape[0] * fexps[0].nbytes))
    for stop in range(words.shape[1], 0, -step):
        cols = words[:, max(0, stop - step) : stop].T
        _compose_block(fexps.take(cols, axis=0), masses.take(cols, axis=0), s, prod)
    return s


def _compose_block(block, mblock, s, prod):
    """Compose a block's letters, last first, into ``s`` in place.

    A step raises its letter's gathered exponents to the rows' points in
    place, multiplies the N type factors left to right as ``np.prod`` does
    (into ``prod``, (E, N, 1, K)), takes the mass-weighted sum by one
    batched matmul into ``s`` and caps it at 1 with min; a sum of
    non-negative terms needs no lower clamp. The matmul,
    not ``.sum(-1)``, takes the dot product of ``OffspringLaw.pgf``, so a
    law of the largest support size gives the same bits by either route.
    """
    point, out = s[:, None, None, :], s[..., None, None]
    # type i's factors of every letter in the block, as (E, N, 1, K) rows
    factors = [block[..., None, :, i] for i in range(block.shape[-1])]
    for b in range(block.shape[0] - 1, -1, -1):
        t = block[b]
        np.power(point, t, out=t)
        v = factors[0][b]
        for f in factors[1:]:
            v = np.multiply(v, f[b], out=prod)
        np.matmul(v, mblock[b], out=out)
        np.minimum(s, 1.0, out=s)


def extinction_fixed_env(model, word):
    """Backward pgf composition at 0 along a fixed environment word."""
    word = check_word(word, model.n_letters)
    q = _compose(model.pgf_table, word[None, :], np.zeros((1, model.n_types)))
    return ExtinctionVector(q[0], int(word.size))


def _converge(model, n_envs, seeds, tol, max_depth):
    """Depth doubling for ``n_envs`` environments, one per seed, in lockstep chunks.

    Chunks of ``_CHUNK`` environments run one after another. At depth d each
    environment still active redraws its whole depth-d word from a fresh
    ``default_rng(seed)``, which starts with its shorter words, so no
    generator and no word is kept between depths, and row e of a chunk
    equals a run of its seed alone. The arguments are checked before any
    seed is reached. Yields, chunk by chunk, the chunk's (E, N) extinction
    vectors, the depth each row stopped at and whether it met ``tol``; no
    chunk is kept once the next one starts.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_depth < 2:
        raise ValueError("max_depth must be >= 2")
    rows = min(n_envs, _CHUNK)
    if rows * max_depth > LETTER_BUDGET:
        raise BudgetError(
            f"{rows} environments x max_depth {max_depth} exceeds the budget of "
            f"{LETTER_BUDGET} stored letters"
        )
    env, table = model.environment, model.pgf_table
    seeds = iter(seeds)
    for _ in range(0, n_envs, _CHUNK):
        chunk = list(islice(seeds, _CHUNK))
        q = np.zeros((len(chunk), model.n_types))
        depth = np.zeros(len(chunk), dtype=np.int64)
        converged = np.zeros(len(chunk), dtype=bool)
        active = np.arange(len(chunk))
        prev = None
        d = _DEPTH0
        while active.size:
            d = min(d, max_depth)
            words = np.empty((active.size, d), dtype=word_dtype(model.n_letters))
            for row, e in enumerate(active):
                words[row] = env.sample_word(d, np.random.default_rng(chunk[e]))
            cur = _compose(table, words, np.zeros((active.size, model.n_types)))
            # 1 is absorbing for pgf compositions: deeper words cannot move it
            done = np.all(cur == 1.0, axis=1)
            if prev is not None:
                done |= np.max(np.abs(cur - prev), axis=1) < tol
            q[active], depth[active], converged[active] = cur, d, done
            if d >= max_depth:
                break
            active, prev = active[~done], cur.compress(~done, axis=0)
            d *= 2
        yield q, depth, converged


def extinction_converged(model, seed, tol=1e-9, max_depth=1 << 16):
    """Extinction vector of one sampled environment, by depth doubling.

    Evaluates the backward composition at depths 64, 128, 256, ... until two
    consecutive evaluations agree within ``tol`` in sup norm. Hitting
    ``max_depth`` first returns the last vector with ``converged=False``
    rather than raising: near-critical models legitimately converge slowly.
    A generator ``seed`` is refused, as each depth restarts the seed's stream.
    """
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise ValueError("seed must be an int or SeedSequence, not a generator")
    [(q, depth, converged)] = _converge(model, 1, [seed], tol, max_depth)
    return ExtinctionVector(q[0], int(depth[0]), bool(converged[0]))


def annealed_extinction(model, n_envs, tol=1e-9, max_depth=1 << 16, seed=0):
    """Mean extinction vector over independent environment realizations.

    Environment e samples its word from child e of ``SeedSequence(seed)``;
    environments advance together in chunks of ``_CHUNK``. Returns
    ``(mean_q, share_converged)`` where the share counts realizations whose
    depth-doubling loop met ``tol``. ``min(n_envs, _CHUNK) * max_depth``,
    the letters of one chunk, may not exceed ``LETTER_BUDGET``
    (:class:`BudgetError`). Memory does not grow with ``n_envs``: each
    chunk's rows are added to a running total and dropped.
    """
    if n_envs < 1:
        raise ValueError("n_envs must be >= 1")
    total, n_converged = np.zeros(model.n_types), 0
    for q, _, converged in _converge(model, n_envs, child_seeds(seed, n_envs), tol, max_depth):
        # with the total as its first row, the chunk's axis-0 sum adds every
        # row in environment order, as one q.mean(axis=0) over all rows does
        total = np.concatenate((total[None], q)).sum(axis=0)
        n_converged += int(np.count_nonzero(converged))
    return total / n_envs, n_converged / n_envs


def _check_cap(model, cap):
    """Require ``cap`` >= 1 and int64 room for a generation drawn from ``cap`` parents.

    A simulation stops once the total population exceeds ``cap``, so a
    generation drawn from at most ``cap`` parents has at most ``cap`` times
    the largest atom total of any law.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    largest = int(model.pgf_table[0].sum(axis=-1).max())
    if cap * largest > np.iinfo(np.int64).max:
        raise ValueError(
            f"cap {cap} x largest offspring total {largest} overflows int64 counts"
        )


def _wilson(successes, n):
    """Share of successes among ``n`` and its Wilson 95% half-width."""
    phat = successes / n
    denom = 1.0 + Z95 * Z95 / n
    return phat, Z95 * math.sqrt(phat * (1.0 - phat) / n + Z95 * Z95 / (4.0 * n * n)) / denom


def _chunk_outcomes(model, start_type, rows, horizon, cap, rng):
    """Simulate ``rows`` trials in lockstep; see :func:`_trial_outcomes`.

    Each generation walks the live rows in slices of ``_BLOCK_BYTES`` of
    (N K, N) int64 exponent rows, and at least one row. A slice draws the
    atom counts of its (trial, parent type) pairs in one multinomial call
    over the ``pgf_table`` masses of each trial's letter, and sums the
    atoms' count vectors into the next generation by one integer matmul of
    the hits against the letter's exponent rows. Consecutive multinomial
    calls over row slices draw what one call over all rows draws, so the
    outcomes do not depend on the slice size, and a generation's gathers
    stay bounded in bytes however large the laws. Trials that stopped are
    dropped from the live rows after every generation.

    A trial's outcome reads Z_{n*} and Z_{n*//2}, and n*//2 <= horizon//2,
    so the totals of generations 0 to horizon//2 are kept in columns of
    their own and every later generation's total overwrites one last
    column: a (rows, horizon//2 + 2) history, one store a generation.
    """
    exps, masses = model.pgf_table
    n_letters, n_types, k_max, _ = exps.shape
    exps = exps.reshape(n_letters, n_types * k_max, n_types)
    step = max(1, _BLOCK_BYTES // exps[0].nbytes)
    words = model.environment.sample_word(horizon, rng, rows=rows)
    last = horizon // 2 + 1
    totals = np.zeros((rows, last + 1), dtype=np.int64)
    totals[:, 0] = 1
    gen = np.full(rows, horizon)
    live = np.arange(rows)
    z = np.zeros((rows, n_types), dtype=np.int64)
    z[:, start_type] = 1
    for g in range(1, horizon + 1):
        letters = words[live, g - 1]
        nz = np.empty_like(z)
        for i in range(0, live.size, step):
            lt = letters[i : i + step]
            hits = rng.multinomial(z[i : i + step], masses.take(lt, axis=0))
            np.matmul(
                hits.reshape(-1, 1, n_types * k_max), exps.take(lt, axis=0),
                out=nz[i : i + step, None],
            )
        z = nz
        total = z.sum(axis=1)
        totals[live, min(g, last)] = total
        stop = (total == 0) | (total > cap)
        gen[live[stop]] = g
        live, z = live[~stop], z.compress(~stop, axis=0)
        if not live.size:
            break
    r = np.arange(rows)
    return gen, totals[r, np.minimum(gen, last)], totals[r, gen // 2]


def _trial_outcomes(model, start_type, trials, horizon, cap, seed):
    """``(n*, Z_{n*}, Z_{n*//2})`` arrays over trials, in trial order.

    Every trial starts from one ``start_type`` individual in a fresh
    environment realization and stops at extinction, once the total
    population Z_n exceeds ``cap``, or at the horizon; ``n*`` is its last
    simulated generation. Z_{n*} tells how it ended: 0 when extinct, above
    ``cap`` when capped. Trials run in chunks of ``_CHUNK``, chunk c from
    child c of ``SeedSequence(seed)``, so a chunk's outcomes do not depend
    on how many trials follow it. More than ``MAX_TRIALS`` trials, or a
    chunk holding more than ``LETTER_BUDGET`` (trial, generation) entries,
    raises :class:`BudgetError` before anything is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise BudgetError(f"{trials} trials exceed the budget of {MAX_TRIALS} trials")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    _check_cap(model, cap)
    if not 0 <= start_type < model.n_types:
        raise ValueError(f"start_type must be in [0, {model.n_types})")
    rows = min(trials, _CHUNK)
    if rows * (horizon + 1) > LETTER_BUDGET:
        raise BudgetError(
            f"{rows} trials x (horizon {horizon} + 1) exceeds the budget of "
            f"{LETTER_BUDGET} stored generations"
        )
    children = child_seeds(seed, -(-trials // _CHUNK))
    parts = [
        _chunk_outcomes(
            model, start_type, min(_CHUNK, trials - c * _CHUNK), horizon, cap,
            np.random.default_rng(child),
        )
        for c, child in enumerate(children)
    ]
    return tuple(np.concatenate(field) for field in zip(*parts))


class SurvivalEstimate(Record):
    """Survival share and conditioned growth rate from one pass of trials.

    ``survival`` is the share of trials alive at the horizon and
    ``half_width`` its Wilson 95% half-width. A capped trial counts as
    alive, which for supercritical populations misclassifies with
    probability vanishing in the cap.

    ``growth_rate`` is the mean growth rate over the second half of each of
    the ``surviving_trials``: (log Z_{n*} - log Z_{m}) / (n* - m),
    m = floor(n*/2), where Z_n is the total population at generation n and
    ``n*`` the last simulated generation: the horizon, or the cap-crossing
    generation for capped trials. On survival Z_n ~ W e^{n lambda}, so the
    random factor W cancels in the difference, whereas the plain
    (1/n*) log Z_{n*} is biased by E[log W | survival]/n*. A smaller bias
    remains and falls with the horizon. On the carpet at p = 0.40 with
    20000 trials (seeds 1 and 2), the estimate missed log p + lambda_B by
    -8.3% and -6.8% at horizon 40, -4.9% and -4.4% at 80, -1.2% and -0.2%
    at 160, and +0.0% and -0.9% at 320. At horizon 40 the 95% half-width
    (about 0.0019) does not cover that gap.

    ``growth_half_width`` is the 95% half-width of the per-trial rates' mean.
    ``growth_rate`` is ``None`` when no trial survives, and
    ``growth_half_width`` is ``None`` below 2 survivors.
    """

    survival: float
    half_width: float
    growth_rate: float | None
    growth_half_width: float | None
    surviving_trials: int


def survival_estimate(model, start_type, trials, horizon, cap=10**6, seed=0):
    """:class:`SurvivalEstimate` of ``trials`` trials, each simulated once.

    The trials, their seeding and their budgets are those of :func:`_trial_outcomes`.
    """
    gen, total, half_total = _trial_outcomes(model, start_type, trials, horizon, cap, seed)
    alive = total > 0
    gen = gen[alive]
    rates = (np.log(total[alive]) - np.log(half_total[alive])) / (gen - gen // 2)
    n = int(rates.size)
    return SurvivalEstimate(
        *_wilson(n, total.size),
        float(rates.mean()) if n else None,
        mean_half_width(rates) if n > 1 else None,
        n,
    )
