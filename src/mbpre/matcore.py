"""The positivity hypotheses: allowable matrices and a positive product word.

A square non-negative matrix is *allowable* when every row and every column
holds a strictly positive entry. Patterns of non-negative matrices multiply
without cancellation, so the positive-word search runs on booleans.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import BudgetError

MAX_PATTERN_STATES = 10**6
# Bytes of N x N pattern keys the positive-word search may hold: at most
# this many over N^2 states are explored, so N <= 16 keeps the full budget.
PATTERN_BYTES = 1 << 28


def allowability_offenders(b):
    """Why ``b`` is not allowable: ``("row", i)`` for each all-zero row, then
    ``("column", j)`` for each all-zero column; empty when it is allowable."""
    b = np.asarray(b, dtype=float)
    rows = np.flatnonzero(~(b.sum(axis=1) > 0))
    cols = np.flatnonzero(~(b.sum(axis=0) > 0))
    return [("row", int(i)) for i in rows] + [("column", int(j)) for j in cols]


def find_positive_product_word(patterns, start, allowed):
    """Shortest admissible word whose letter-pattern product is all-positive, or None.

    A word is admissible when its first letter ``i`` has ``start[i]`` and each
    step from letter ``a`` to letter ``b`` has ``allowed[a, b]``; ``start``
    is an (L,) and ``allowed`` an (L, L) boolean array over the L patterns.
    Breadth-first search over (pattern, last letter) states under right
    multiplication; numpy's boolean matmul ORs the ANDs, so no count of
    witnesses can wrap. Among shortest witnesses the lexicographically
    smallest word is returned. Exploring more than
    ``min(MAX_PATTERN_STATES, PATTERN_BYTES // N**2)`` states raises
    :class:`BudgetError`, which is distinct from the search closing without
    a witness (None).
    """
    pats = [np.asarray(p, dtype=bool) for p in patterns]
    n, L = pats[0].shape[0], len(pats)
    if any(p.shape != (n, n) for p in pats):
        raise ValueError("patterns must share one square shape")
    start = np.asarray(start, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    if start.shape != (L,) or allowed.shape != (L, L):
        raise ValueError(f"start must have shape ({L},) and allowed shape ({L}, {L})")
    max_states = min(MAX_PATTERN_STATES, PATTERN_BYTES // (n * n))
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
        queue.append((pattern, word))
        return None

    for i in np.flatnonzero(start).tolist():
        hit = visit(pats[i], [i])
        if hit is not None:
            return hit
    while queue:
        pattern, word = queue.popleft()
        for i in successors[word[-1]]:
            hit = visit(pattern @ pats[i], word + [i])
            if hit is not None:
                return hit
    return None
