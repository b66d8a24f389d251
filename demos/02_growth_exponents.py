"""
Growth exponents of random matrix products
==========================================

The long-run growth rate of the population is the exponent of the random
product of expectation matrices along the environment. This script
estimates it by renormalized products with batch-means confidence
intervals, checks that the three scalar reductions agree, and shows the
exact scaling identity that underlies the critical-retention computation.
"""

import math

import numpy as np

from mbpre import IidEnvironment, estimate_exponent, exponent_along_word
from mbpre.carpet import COLUMN_MATRICES

env = IidEnvironment([1 / 3, 1 / 3, 1 / 3])

# A deterministic value first: one word, evaluated in log space.
word = np.random.default_rng(0).integers(0, 3, size=10_000)
val = exponent_along_word(COLUMN_MATRICES, word, "sum")
print(f"(1/n) log ||product|| along one 10k-letter word: {val:.5f}")

# Monte Carlo estimate with a 95% batch-means interval.
for kind in ("sum", "colmin", "rowmin"):
    est = estimate_exponent(
        COLUMN_MATRICES, env, kind=kind, steps_per_batch=50_000, batches=16, seed=42
    )
    print(f"kind={kind:7s} point={est.point:.5f} +/- {est.half_width:.5f}")

# Scaling a matrix family by a constant shifts the exponent by its log,
# exactly, word by word. This is what turns an exponent estimate into a
# critical retention probability for the carpet model.
p = 0.37
scaled = [p * m for m in COLUMN_MATRICES]
shift = exponent_along_word(scaled, word, "sum") - val
print(f"shift from scaling by {p}: {shift:.12f} (log p = {math.log(p):.12f})")
