"""Non-negative allowable matrices: reductions, products, positivity patterns.

A square non-negative matrix is *allowable* when every row and every column
holds a strictly positive entry. Positivity patterns of non-negative
matrices multiply without cancellation, so reachability questions about
products reduce to a finite boolean semigroup explored here by
breadth-first search.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import BudgetError

MAX_PATTERN_STATES = 10**6


def norm_sum(b):
    """Sum of all entries."""
    return float(np.asarray(b, dtype=float).sum())


def col_min(b):
    """Smallest column sum."""
    return float(np.asarray(b, dtype=float).sum(axis=0).min())


def row_min(b):
    """Smallest row sum."""
    return float(np.asarray(b, dtype=float).sum(axis=1).min())


def allowability_offenders(b):
    """Why ``b`` is not allowable: ``("row", i)`` for each all-zero row, then
    ``("column", j)`` for each all-zero column; empty when it is allowable."""
    b = np.asarray(b, dtype=float)
    rows = np.flatnonzero(~(b.sum(axis=1) > 0))
    cols = np.flatnonzero(~(b.sum(axis=0) > 0))
    return [("row", int(i)) for i in rows] + [("column", int(j)) for j in cols]


def is_allowable(b):
    """True iff every row and every column has a positive entry."""
    return not allowability_offenders(b)


def product_along_word(matrices, word):
    """Left-to-right product of ``matrices[word[0]] @ matrices[word[1]] ...``.

    The empty word gives the identity.
    """
    mats = [np.asarray(m, dtype=float) for m in matrices]
    n = mats[0].shape[0]
    out = np.eye(n)
    for idx in word:
        if not 0 <= idx < len(mats):
            raise IndexError(f"letter index {idx} out of range for {len(mats)} matrices")
        out = out @ mats[idx]
    return out


def positivity_pattern(b):
    """Boolean mask of strictly positive entries."""
    return np.asarray(b, dtype=float) > 0


def boolean_product(p, q):
    """Pattern of the product of two matrices with these patterns."""
    return (p.astype(np.uint8) @ q.astype(np.uint8)) > 0


def find_positive_product_word(patterns, start, allowed, max_word_len=None):
    """Shortest admissible word whose letter-pattern product is all-positive, or None.

    A word is admissible when its first letter ``i`` has ``start[i]`` and each
    step from letter ``a`` to letter ``b`` has ``allowed[a, b]``; ``start``
    is an (L,) and ``allowed`` an (L, L) boolean array over the L patterns.
    Breadth-first search over (pattern, last letter) states under right
    multiplication; among shortest witnesses the lexicographically smallest
    word is returned. Words longer than ``max_word_len`` are not explored.
    Exploring more than ``min(2 ** (n * n) * L, MAX_PATTERN_STATES)`` states
    raises :class:`BudgetError`, which is distinct from the search closing
    without a witness (None).
    """
    pats = [np.asarray(p, dtype=bool) for p in patterns]
    n, L = pats[0].shape[0], len(pats)
    if any(p.shape != (n, n) for p in pats):
        raise ValueError("patterns must share one square shape")
    start = np.asarray(start, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    if start.shape != (L,) or allowed.shape != (L, L):
        raise ValueError(f"start must have shape ({L},) and allowed shape ({L}, {L})")
    max_states = min(2 ** (n * n) * L, MAX_PATTERN_STATES)
    if max_word_len is not None and max_word_len < 1:
        raise ValueError("max_word_len must be >= 1")
    successors = [np.flatnonzero(row).tolist() for row in allowed]

    seen = set()
    queue = deque()

    def visit(pattern, word):
        key = (pattern.tobytes(), word[-1])
        if key in seen:
            return None
        seen.add(key)
        if len(seen) > max_states:
            raise BudgetError(
                f"positive-word search exceeded {max_states} explored states"
            )
        if pattern.all():
            return word
        if max_word_len is None or len(word) < max_word_len:
            queue.append((pattern, word))
        return None

    for i in np.flatnonzero(start).tolist():
        hit = visit(pats[i], [i])
        if hit is not None:
            return hit
    while queue:
        pattern, word = queue.popleft()
        for i in successors[word[-1]]:
            hit = visit(boolean_product(pattern, pats[i]), word + [i])
            if hit is not None:
                return hit
    return None
