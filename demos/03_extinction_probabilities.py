"""
Extinction probabilities two ways
=================================

The chance that the population seeded by one individual dies out is the
limit of backward pgf compositions at 0. For a model with an analytically
known answer this script compares the composition route against direct
population simulation, then looks at the carpet model on both sides of its
critical retention probability.
"""

import numpy as np

from mbpre import (
    EnvironmentLetter,
    IidEnvironment,
    ModelSpec,
    OffspringLaw,
    annealed_extinction,
    build_carpet_model,
    extinction_converged,
    extinction_fixed_env,
    survival_estimate,
)

# Two decoupled lines: each type bears 0 children with chance 1/4 and two
# children of its own type otherwise. The single-type extinction equation
# q = 1/4 + (3/4) q^2 has smallest root 1/3.
line0 = OffspringLaw.from_pairs([((0, 0), 0.25), ((2, 0), 0.75)])
line1 = OffspringLaw.from_pairs([((0, 0), 0.25), ((0, 2), 0.75)])
model = ModelSpec(2, (EnvironmentLetter("only", (line0, line1)),), IidEnvironment([1.0]))

q = extinction_converged(model, seed=0, tol=1e-12)
print(f"composition:  q = {q.q}  (depth {q.depth}, analytic 1/3)")

surv = survival_estimate(model, 0, trials=20_000, horizon=200, seed=1)
print(f"simulation:   1 - q^(0) ~ {surv.survival:.4f} +/- {surv.half_width:.4f}  (analytic 2/3)")

# Finite-depth extinction probabilities increase with depth.
word = [0] * 16
for depth in (1, 2, 4, 8, 16):
    print(f"  q_{depth:<2d} = {extinction_fixed_env(model, word[:depth]).q}")

# The carpet model: below the critical retention probability extinction is
# certain; above it the process survives with positive probability, so the
# per-environment extinction vectors average strictly below 1.
for p in (0.15, 0.40):
    mean_q, share = annealed_extinction(
        build_carpet_model(p), n_envs=50, tol=1e-9, seed=3
    )
    print(f"carpet p={p}: mean q = {np.round(mean_q, 4)} (converged share {share})")
