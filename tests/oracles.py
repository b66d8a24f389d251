"""Independent brute-force oracles and random-instance generators for tests.

Everything here recomputes quantities by a route disjoint from the library
implementation: exact distribution evolution on probability grids,
dictionary convolutions, and exhaustive word enumeration.
"""

import math

import numpy as np

from mbpre import (
    DegenerateProductError,
    EnvironmentLetter,
    IidEnvironment,
    ModelSpec,
    OffspringLaw,
)


def law_as_dict(law):
    return {tuple(int(v) for v in z): float(p) for z, p in zip(law.counts, law.probs)}


def convolve_dicts(d1, d2):
    out = {}
    for z1, p1 in d1.items():
        for z2, p2 in d2.items():
            z = tuple(a + b for a, b in zip(z1, z2))
            out[z] = out.get(z, 0.0) + p1 * p2
    return out


def pgf_of_dict(d, s):
    return sum(p * math.prod(si**zi for si, zi in zip(s, z)) for z, p in d.items())


def _law_grid(law):
    shape = tuple(int(v) + 1 for v in law.counts.max(axis=0))
    g = np.zeros(shape)
    for z, p in zip(law.counts, law.probs):
        g[tuple(z)] += p
    return g


def _conv2(a, b):
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i, j in zip(*np.nonzero(a)):
        out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
    return out


def _powers(grid, up_to):
    powers = [np.ones((1, 1))]
    for _ in range(up_to):
        powers.append(_conv2(powers[-1], grid))
    return powers


def extinction_by_enumeration(model, word, start_type):
    """P(Z_n = 0 | Z_0 = e_start) by exact evolution of the count distribution.

    Two-type models only. Evolves the joint distribution of the population
    vector through the first n-1 generations on a probability grid, then
    closes with the zero-offspring masses of the final letter.
    """
    assert model.n_types == 2
    word = [int(w) for w in word]
    dist = np.zeros((2, 2))
    dist[(1, 0) if start_type == 0 else (0, 1)] = 1.0
    for idx in word[:-1]:
        letter = model.letters[idx]
        g0, g1 = _law_grid(letter.laws[0]), _law_grid(letter.laws[1])
        pow0 = _powers(g0, dist.shape[0] - 1)
        pow1 = _powers(g1, dist.shape[1] - 1)
        # largest offspring vector any state in `dist` can produce
        out0 = (dist.shape[0] - 1) * (g0.shape[0] - 1) + (dist.shape[1] - 1) * (g1.shape[0] - 1)
        out1 = (dist.shape[0] - 1) * (g0.shape[1] - 1) + (dist.shape[1] - 1) * (g1.shape[1] - 1)
        new = np.zeros((out0 + 1, out1 + 1))
        for z0, z1 in zip(*np.nonzero(dist)):
            off = _conv2(pow0[z0], pow1[z1])
            new[: off.shape[0], : off.shape[1]] += dist[z0, z1] * off
        dist = new
    letter = model.letters[word[-1]]
    p0 = law_as_dict(letter.laws[0]).get((0, 0), 0.0)
    p1 = law_as_dict(letter.laws[1]).get((0, 0), 0.0)
    z0s, z1s = np.nonzero(dist)
    return float(sum(dist[a, b] * p0**a * p1**b for a, b in zip(z0s, z1s)))


def random_law(rng, n_types=2, max_count=2, zero_heavy=False):
    """A random finite-support law with counts in {0..max_count}^N."""
    grid = np.stack(
        np.meshgrid(*[np.arange(max_count + 1)] * n_types, indexing="ij"), axis=-1
    ).reshape(-1, n_types)
    k = int(rng.integers(1, len(grid) + 1))
    picks = rng.choice(len(grid), size=k, replace=False)
    probs = rng.random(k) + 1e-3
    if zero_heavy and not any((grid[i] == 0).all() for i in picks):
        picks = np.append(picks[:-1], 0)
        probs[-1] = 3.0
    probs = probs / probs.sum()
    return OffspringLaw(grid[picks], probs)


def random_model(rng, n_types=2, max_letters=3, max_count=2, zero_heavy=True):
    """A random i.i.d.-environment model for oracle comparisons."""
    n_letters = int(rng.integers(1, max_letters + 1))
    letters = []
    for li in range(n_letters):
        laws = tuple(
            random_law(rng, n_types, max_count, zero_heavy=zero_heavy)
            for _ in range(n_types)
        )
        letters.append(EnvironmentLetter(f"L{li}", laws))
    probs = rng.random(n_letters) + 0.1
    return ModelSpec(n_types, tuple(letters), IidEnvironment(probs / probs.sum()))


def random_allowable_matrix(rng, n=2, sparsity=0.3):
    """Non-negative matrix with a positive entry in every row and column."""
    while True:
        m = rng.random((n, n)) * (rng.random((n, n)) > sparsity)
        if (m.sum(axis=0) > 0).all() and (m.sum(axis=1) > 0).all():
            return m


def mean_exponent_brackets(matrices, depth):
    """Exact sub/super-additive brackets on the uniform-i.i.d. exponent.

    Averaging (1/n) log of the entry sum over every word of length n gives
    an upper bound decreasing to the exponent; the minimum column sum gives
    a lower bound increasing to it.
    """
    mats = [np.asarray(m, float) for m in matrices]
    tot = [0.0, 0.0, 0]

    def rec(prod, level, acc):
        if level == depth:
            tot[0] += acc + math.log(prod.sum(axis=0).min())
            tot[1] += acc + math.log(prod.sum())
            tot[2] += 1
            return
        for m in mats:
            nxt = prod @ m
            s = nxt.sum()
            rec(nxt / s, level + 1, acc + math.log(s))

    rec(np.eye(mats[0].shape[0]), 0, 0.0)
    return tot[0] / tot[2] / depth, tot[1] / tot[2] / depth


def markov_word_per_letter(env, n, rng):
    """A Markov environment word drawn one ``searchsorted`` call per letter.

    This is the sampler's original letter-by-letter loop, kept as the
    reference its words must equal, random draws included.
    """
    word = np.empty(n, dtype=np.int64)
    state = int(np.searchsorted(np.cumsum(env.initial), rng.random(), side="right"))
    word[0] = min(state, env.n_letters - 1)
    cdfs = np.cumsum(env.transition, axis=1)
    u = rng.random(n - 1)
    for k in range(1, n):
        state = min(int(np.searchsorted(cdfs[state], u[k - 1], side="right")), env.n_letters - 1)
        word[k] = state
    return word


def exponent_sequential(matrices, word, kind="sum"):
    """(1/n) log reduction of the product, one letter multiplied per step.

    This is the exponent kernel's original per-step loop, kept as the
    reference the pairwise-tree kernel must equal within rounding: the
    running product is divided by its entry sum after every step, and the
    first step whose entry sum or ``kind`` reduction is zero raises
    :class:`DegenerateProductError`.
    """
    reduce = {
        "sum": lambda p: p.sum(),
        "colmin": lambda p: p.sum(axis=0).min(),
        "rowmin": lambda p: p.sum(axis=1).min(),
    }[kind]
    mats = [np.asarray(m, dtype=float) for m in matrices]
    p = np.eye(mats[0].shape[0])
    log_scale = 0.0
    for step, idx in enumerate(word, start=1):
        p = p @ mats[idx]
        s = p.sum()
        if s <= 0.0:
            raise DegenerateProductError(step, "sum")
        if kind != "sum" and reduce(p) <= 0.0:
            raise DegenerateProductError(step, kind)
        p /= s
        log_scale += math.log(s)
    return (log_scale + math.log(reduce(p))) / len(word)


def iid_word_choice(env, n, rng, rows=None):
    """An i.i.d. environment word drawn by ``rng.choice(p=probs)``.

    This is the sampler's original draw, kept as the reference its words
    must equal, random draws included. With ``rows`` it is a (rows, n) block.
    """
    shape = (n,) if rows is None else (rows, n)
    return rng.choice(env.n_letters, size=shape, p=env.probs)


def carpet_levels_broadcast(p, depth, rng):
    """The (i, j) squares of a depth-n random carpet, as an (M, 2) array.

    This is the carpet sampler's original level expansion, kept as the
    reference its squares must equal, random draws included: each level
    broadcasts every square to its 8 non-middle children, then masks them
    by one uniform per child.
    """
    di, dj = np.array([(a, b) for a in range(3) for b in range(3) if (a, b) != (1, 1)]).T
    x = y = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        keep = rng.random(x.size * 8) < p
        x = (3 * x[:, None] + di).ravel()[keep]
        y = (3 * y[:, None] + dj).ravel()[keep]
        if x.size == 0:
            break
    return np.column_stack((x, y))


def projection_intervals_unique(squares, depth):
    """Merged diagonal-projection intervals of (i, j) squares at ``depth``.

    This is the original sweep, kept as the reference: it drops repeated
    diagonals with ``np.unique`` and merges by a running maximum.
    """
    d = np.unique(squares[:, 0] - squares[:, 1])
    scale = 3.0**depth
    lo, hi = (d - 1) / scale, (d + 1) / scale
    run_hi = np.maximum.accumulate(hi)
    starts = np.ones(len(d), dtype=bool)
    starts[1:] = lo[1:] > run_hi[:-1]
    idx = np.flatnonzero(starts)
    return np.column_stack([lo[starts], run_hi[np.r_[idx[1:] - 1, len(d) - 1]]])


def compose_prod_clip(table, words, s):
    """Backward pgf composition as the kernel first computed it.

    Integer exponents, ``np.prod`` over the type axis and ``np.clip``: kept
    as the reference whose bits ``extinction._compose`` must equal.
    """
    exps, masses = table
    for j in range(words.shape[1] - 1, -1, -1):
        idx = words[:, j]
        v = np.prod(s[:, None, None, :] ** exps[idx], axis=-1)
        s = np.clip((v[..., None, :] @ masses[idx][..., :, None])[..., 0, 0], 0.0, 1.0)
    return s


def pgf_prod_clip(law, s):
    """``law``'s pgf at ``s`` in [0, 1]^N as ``OffspringLaw.pgf`` first computed it.

    Integer exponents, ``np.prod`` over the type axis and ``np.clip``: kept
    as the reference whose bits ``OffspringLaw.pgf`` must equal.
    """
    s = np.asarray(s, dtype=float)
    return np.clip(np.prod(s[..., None, :] ** law.counts, axis=-1) @ law.probs, 0.0, 1.0)


def markov_irreducible_by_dfs(transition):
    """True iff every letter reaches every other along positive transitions.

    Depth-first search from each letter over the graph a -> b whenever
    ``transition[a, b] > 0``.
    """
    n = len(transition)
    for root in range(n):
        seen = {root}
        stack = [root]
        while stack:
            a = stack.pop()
            for b in range(n):
                if transition[a][b] > 0 and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if len(seen) < n:
            return False
    return True
