"""
Survival classification across a parameter sweep
================================================

A verdict needs two ingredients: the structural hypotheses (allowable
expectation matrices, a positive-probability word with strictly positive
product, strong regularity for the critical case) and the sign of the
growth exponent, judged through its confidence interval. This script
sweeps the carpet's retention probability across its critical point.
"""

from mbpre import build_carpet_model, check_conditions, classify, estimate_exponent

report = check_conditions(build_carpet_model(0.5))
print("hypotheses on the carpet model:")
print("  allowable:            ", report.allowable_ok)
print("  positive word:        ", report.positive_word,
      f"(cylinder probability {report.positive_word_probability:.4f})")
print("  uniform alpha:        ", round(report.uniform_alpha, 6))
print("  second moment bound:  ", round(report.second_moment_bound, 6))
print("  strongly regular:     ", report.strongly_regular,
      f"(witness {report.strong_regularity_witness})")
print()

print(f"{'p':>6} {'exponent':>10} {'half-width':>11}  verdict")
for p in (0.15, 0.25, 0.35, 0.45, 0.60, 0.80):
    model = build_carpet_model(p)
    rep = check_conditions(model)
    est = estimate_exponent(
        model.expectation_matrices(),
        model.environment,
        kind="sum",
        steps_per_batch=20_000,
        batches=16,
        seed=5,
    )
    verdict = classify(rep, est)
    print(f"{p:6.2f} {est.point:10.4f} {est.half_width:11.5f}  {verdict.kind}")

print()
print("The flip happens at p* = exp(-lambda_B), about 0.378 for this family.")
