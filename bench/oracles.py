"""Independent reference computations for the benchmark's correctness checks.

Everything here works from a model file (plain JSON) with numpy and the
standard library only; nothing imports ``mbpre``. The quantities are exact
or deterministic bounds (exponent brackets by word enumeration and
Jensen's inequality, Galton-Watson extinction by pgf iteration, brute-force
positive-word search) or Monte Carlo estimates made with this module's own
samplers and pgf compositions.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# Statistical checks accept a discrepancy up to this many standard errors,
# so a correct program fails one with probability below 1e-6.
Z_CHECK = 5.0
# Exact binomial tests reject when either tail is below this.
TAIL_ALPHA = 1e-6


# ---------------------------------------------------------------------------
# Model files


class Model:
    """A model document as arrays: per letter, per parent type, (counts, probs)."""

    def __init__(self, doc):
        self.n_types = int(doc["n_types"])
        self.laws = [
            [
                (
                    np.array([e["z"] for e in law], dtype=np.int64),
                    np.array([e["p"] for e in law], dtype=float),
                )
                for law in letter["laws"]
            ]
            for letter in doc["letters"]
        ]
        self.n_letters = len(self.laws)
        env = doc["environment"]
        self.env_kind = env["kind"]
        if self.env_kind == "iid":
            self.initial = np.array(env["probs"], dtype=float)
            self.transition = np.tile(self.initial, (self.n_letters, 1))
        else:
            self.initial = np.array(env["initial"], dtype=float)
            self.transition = np.array(env["transition"], dtype=float)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls(json.load(fh))

    def expectations(self):
        """Mean offspring matrices M[a][i, j]: type-j children of a type-i parent."""
        return np.array(
            [[probs @ counts for counts, probs in letter] for letter in self.laws]
        )


def dump_model(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def product_binomial_law(row, p):
    """Atoms of independent Binomial(row[j], p) child counts, as model-file entries."""
    entries = []
    for z in itertools.product(*(range(k + 1) for k in row)):
        mass = 1.0
        for k, c in zip(row, z):
            mass *= math.comb(k, c) * p**c * (1.0 - p) ** (k - c)
        if mass > 0.0:
            entries.append({"z": [int(c) for c in z], "p": mass})
    return entries


def binomial_model_doc(bases, p, environment):
    """Model whose letter ``a`` gives type-i parents Binomial(bases[a][i, j], p) children."""
    bases = np.asarray(bases, dtype=np.int64)
    return {
        "n_types": int(bases.shape[1]),
        "letters": [
            {"name": f"L{a}", "laws": [product_binomial_law(row, p) for row in base]}
            for a, base in enumerate(bases)
        ],
        "environment": environment,
    }


# Diagonal-projection column matrices of the Sierpinski carpet at p = 1:
# type-j triangles in column a below a type-i triangle. Squares in one
# (parent, column) slot are distinct, so retention makes the counts
# independent binomials.
CARPET_BASES = (
    ((1, 0), (2, 2)),
    ((2, 1), (1, 2)),
    ((2, 2), (0, 1)),
)


def carpet_doc(p):
    return binomial_model_doc(
        CARPET_BASES, p, {"kind": "iid", "probs": [1.0 / 3.0] * 3}
    )


# ---------------------------------------------------------------------------
# Pgf evaluation, composition and word sampling


def law_pgf(law, s):
    """Pgf of one law at the rows of ``s`` (shape (W, N)); 0**0 is 1."""
    counts, probs = law
    return np.prod(s[:, None, :] ** counts[None, :, :], axis=2) @ probs


def compose_at_zero(model, words):
    """f_{w_0} o ... o f_{w_{D-1}} (0) for every row of ``words`` (shape (W, D))."""
    n_words, depth = words.shape
    s = np.zeros((n_words, model.n_types))
    for j in range(depth - 1, -1, -1):
        col = words[:, j]
        nxt = np.empty_like(s)
        for a in range(model.n_letters):
            rows = col == a
            if rows.any():
                sub = s[rows]
                nxt[rows] = np.column_stack([law_pgf(law, sub) for law in model.laws[a]])
        s = nxt
    return s


def sample_words(model, n_words, length, rng):
    """``n_words`` environment words of ``length`` letters from the stationary chain."""
    cum_init = np.cumsum(model.initial)
    cum_trans = np.cumsum(model.transition, axis=1)
    last = model.n_letters - 1
    words = np.empty((n_words, length), dtype=np.int64)
    state = np.minimum(np.searchsorted(cum_init, rng.random(n_words), side="right"), last)
    words[:, 0] = state
    for j in range(1, length):
        u = rng.random(n_words)
        state = np.minimum((cum_trans[state] <= u[:, None]).sum(axis=1), last)
        words[:, j] = state
    return words


# ---------------------------------------------------------------------------
# Growth-exponent bracket


def exponent_bracket(mats, initial, transition, k):
    """Deterministic bracket [lower, upper] for the growth exponent.

    lower: the mean of (1/k) log(min column sum) of the k-letter products,
    weighted by cylinder probability; min column sums are supermultiplicative,
    so this stays below the exponent for every k. upper: log of the
    spectral radius of the block matrix with blocks P[a, b] * M_b, which
    bounds the growth of the mean product (Jensen's inequality).
    """
    mats = np.asarray(mats, dtype=float)
    n_letters, n, _ = mats.shape
    half = k // 2
    pre_w, pre_p, pre_last = _enumerate(mats, initial, transition, half, first=True)
    suf_w, suf_p, suf_first = _enumerate(mats, initial, transition, k - half, first=False)
    total = 0.0
    # join prefixes and suffixes in blocks to bound memory
    block = max(1, 200_000 // max(1, len(suf_w)))
    for start in range(0, len(pre_w), block):
        pw = pre_w[start : start + block]
        weight = pre_p[start : start + block, None] * transition[
            pre_last[start : start + block][:, None], suf_first[None, :]
        ] * suf_p[None, :]
        prod = np.einsum("xij,yjk->xyik", pw, suf_w)
        colmin = prod.sum(axis=2).min(axis=2)
        live = weight > 0
        total += float((weight[live] * np.log(colmin[live])).sum())
    lower = total / k
    big = np.zeros((n_letters * n, n_letters * n))
    for a in range(n_letters):
        for b in range(n_letters):
            big[a * n : (a + 1) * n, b * n : (b + 1) * n] = transition[a, b] * mats[b]
    upper = math.log(max(abs(np.linalg.eigvals(big))))
    return lower, upper


def _enumerate(mats, initial, transition, length, first):
    """Products over all words of ``length`` letters with their weights.

    Prefixes (``first``) carry the full cylinder probability and their last
    letter; suffixes carry only the transition weights inside the word and
    their first letter.
    """
    n_letters = mats.shape[0]
    words = np.array(list(itertools.product(range(n_letters), repeat=length)))
    prods = mats[words[:, 0]]
    weights = initial[words[:, 0]] if first else np.ones(len(words))
    for j in range(1, length):
        prods = np.einsum("xij,xjk->xik", prods, mats[words[:, j]])
        weights = weights * transition[words[:, j - 1], words[:, j]]
    return prods, weights, (words[:, -1] if first else words[:, 0])


# ---------------------------------------------------------------------------
# Small exact quantities


def stationary(transition):
    """Stationary vector of an irreducible transition matrix, by a linear solve."""
    n = transition.shape[0]
    a = np.vstack([transition.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(a, b, rcond=None)[0]
    return pi / pi.sum()


def irreducible(transition):
    reach = np.eye(len(transition), dtype=bool) | (transition > 0)
    for _ in range(len(transition)):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    return bool(reach.all())


def cylinder_probability(model, word):
    p = float(model.initial[word[0]])
    for a, b in zip(word[:-1], word[1:]):
        p *= float(model.transition[a, b])
    return p


def shortest_positive_word(model, max_len=8):
    """Length of the shortest positive-probability word with an all-positive product.

    Brute force over all words by increasing length; None past ``max_len``.
    """
    for length in range(1, max_len + 1):
        for word in itertools.product(range(model.n_letters), repeat=length):
            if cylinder_probability(model, word) > 0 and (word_product(model, word) > 0).all():
                return length
    return None


def word_product(model, word):
    mats = model.expectations()
    return np.linalg.multi_dot([np.eye(model.n_types)] + [mats[a] for a in word])


def allowable(model):
    """True if every expectation matrix has a positive entry in each row and column."""
    return all(
        (m.sum(axis=0) > 0).all() and (m.sum(axis=1) > 0).all() for m in model.expectations()
    )


def second_moment_bound(model):
    """Largest E[z_i z_j] - delta_ij E[z_i] over all laws."""
    best = -np.inf
    for letter in model.laws:
        for counts, probs in letter:
            z = counts.astype(float)
            m = (z * probs[:, None]).T @ z - np.diag(probs @ z)
            best = max(best, float(m.max()))
    return best


def uniform_alpha(model):
    """Least P(at least one type-j child) over (letter, parent i, child j) with M[i, j] > 0."""
    best = np.inf
    for letter in model.laws:
        for counts, probs in letter:
            mean = probs @ counts
            for j in np.flatnonzero(mean > 0):
                best = min(best, float(probs[counts[:, j] > 0].sum()))
    return best


def strongly_regular(model):
    """True if some positive-mass letter gives every parent type P(>= 2 children) > 0."""
    mass = model.initial
    for a, letter in enumerate(model.laws):
        if mass[a] > 0 and all(
            probs[counts.sum(axis=1) <= 1].sum() < 1.0 for counts, probs in letter
        ):
            return True
    return False


def gw_extinction_by(generation, p, offspring=8):
    """P(a Binomial(offspring, p) Galton-Watson tree is extinct by ``generation``)."""
    s = 0.0
    for _ in range(generation):
        s = (1.0 - p + p * s) ** offspring
    return s


def binomial_consistent(k, n, p):
    """Exact two-sided test: k successes in n trials are plausible at rate p."""
    pmf = [math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(n + 1)]
    return sum(pmf[k:]) >= TAIL_ALPHA and sum(pmf[: k + 1]) >= TAIL_ALPHA


def intervals_meet(a_lo, a_hi, b_lo, b_hi):
    return a_lo <= b_hi and b_lo <= a_hi
