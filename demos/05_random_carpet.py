"""
Random carpets and their diagonal projections
=============================================

Sampling the square-retention construction directly gives the geometric
side of the story: the measure of the projection onto the x - y axis
shrinks to zero below the critical retention probability and stabilizes
above it. The branching model predicts exactly where the flip happens.
"""

import numpy as np

from mbpre import (
    critical_p,
    lambda_b,
    projection_intervals,
    projection_measure,
    sample_carpet,
)
from mbpre.carpet import intervals_to_csv, square_set_to_text

# The critical retention interval from the exponent of the p = 1 matrices.
est = lambda_b(50_000, 16, seed=0)
lo, hi = critical_p(est)
print(f"lambda_B = {est.point:.4f} +/- {est.half_width:.4f}")
print(f"critical retention interval: [{lo:.4f}, {hi:.4f}]")
print()

# Mean projection measure by depth, above and below the critical point:
# 100 samples a cell, but 10 at depth 8, where one sample at p = 0.70
# holds about 900 000 squares.
print(f"{'p':>6} " + " ".join(f"depth {d}" for d in (2, 4, 6, 8)))
for p in (0.15, 0.30, 0.45, 0.70):
    row = []
    for depth in (2, 4, 6, 8):
        samples = 10 if depth == 8 else 100
        children = np.random.SeedSequence((int(p * 100), depth)).spawn(samples)
        vals = [
            projection_measure(sample_carpet(p, depth, np.random.default_rng(c)))
            for c in children
        ]
        row.append(np.mean(vals))
    print(f"{p:6.2f} " + " ".join(f"{v:7.4f}" for v in row))
print()

# One sample, exported in the two text formats.
sq = sample_carpet(0.5, 2, np.random.default_rng(11))
print(f"one depth-2 sample at p=0.5: {len(sq)} squares")
print(square_set_to_text(sq))
print("merged projection intervals (lo,hi):")
print(intervals_to_csv(sq))
print("total measure:", projection_measure(sq))
assert np.isclose(
    projection_measure(sq),
    np.diff(projection_intervals(sq), axis=1).sum(),
)
