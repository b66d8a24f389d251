"""
Auditing the survival analysis with inequality oracles
======================================================

The survival criterion rests on an affine majorant construction: shrink
the expectation matrices, dominate the pgfs near 1, clamp arguments into a
box where the domination holds. Every inequality in that chain is
executable, so a model can be audited mechanically, and a corrupted
parameter set shows up as a counterexample with the seed that found it.
"""

import math

from mbpre import ProofParams, build_carpet_model, build_proof_params, lambda_b, oracle_suite

model = build_carpet_model(0.40).model
lam = math.log(0.40) + lambda_b(20_000, 8, seed=1).point
print(f"exponent at retention 0.40: {lam:+.4f}")

params = build_proof_params(model, lam)
print(
    f"params: rho={params.rho:.4f} alpha={params.alpha:.4f} "
    f"delta={params.delta:.5f} mu={params.mu:.4f} u={params.u:.4f}"
)
print()

report = oracle_suite(model, lam, samples=5000, seed=2)
for check in report.checks:
    print(f"  {'ok ' if check.passed else 'FAIL'} {check.check:34s} ({check.samples} points)")
print("all passed:", report.all_passed)
print()

# Negative control: widen the clamp box 200-fold (moment_bound / 200, so
# that delta x 200 still meets its formula) and claim the contraction
# floor mu = 1. The construction guarantees neither, so checks must fail:
# the clamped majorant leaves [0, 1] and stops dominating the pgfs, and the
# report names each failed check with a counterexample. The demo exits
# non-zero if none fails.
bad = ProofParams(
    rho=params.rho,
    alpha=params.alpha,
    n_types=params.n_types,
    moment_bound=params.moment_bound / 200,
    delta=params.delta * 200,
    mu=1.0,
    u=params.u,
    exponent=params.exponent,
)
corrupted = oracle_suite(model, lam, samples=5000, seed=2, params=bad)
for check in corrupted.checks:
    if not check.passed:
        print("corrupted params tripped:", check.check)
        print("  counterexample:", check.counterexample)
if corrupted.all_passed:
    raise SystemExit("corrupted params slipped through: the negative control failed")
