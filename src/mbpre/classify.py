"""Hypothesis checks and survival/extinction verdicts.

The trichotomy — positive exponent means survival with positive
probability, negative means almost sure extinction, zero means extinction
for strongly regular models — only applies when the expectation matrices
are allowable and some positive-probability word multiplies to a strictly
positive matrix. ``check_conditions`` verifies those hypotheses;
``classify`` turns a Monte Carlo exponent estimate into a verdict using
interval logic on the confidence interval rather than the bare point
estimate.
"""

from __future__ import annotations

import numpy as np

from .matcore import allowability_offenders, find_positive_product_word
from .model import Record, second_moment_bound, uniform_allowability_alpha


class ConditionReport(Record):
    """Outcome of the hypothesis checks on a model."""

    ergodic_env_ok: bool
    allowable_ok: bool
    allowability_offenders: tuple
    positive_word: tuple | None
    positive_word_probability: float | None
    positive_word_log_probability: float | None
    second_moment_bound: float
    uniform_alpha: float | None
    strongly_regular: bool
    strong_regularity_witness: str | None


class Verdict(Record):
    """Survival classification with the estimate and the rule that applied."""

    kind: str
    lambda_estimate: object
    rationale: str


def check_conditions(model):
    """Verify every hypothesis of the survival trichotomy on a model.

    Findings are reported, never thrown: a failed condition shows up as a
    false flag plus the offending letters.
    """
    offenders = [
        {"letter": letter.name, "axis": axis, "index": index}
        for letter in model.letters
        for axis, index in allowability_offenders(letter.expectation)
    ]
    allowable_ok = not offenders

    env = model.environment
    support = env.letter_mass > 0
    steps = env.step_pattern
    word = word_prob = word_log_prob = None
    if allowable_ok:
        # the Boolean search is exact and walks only positive-probability steps, so
        # its witness stands; the float cylinder probability reads 0.0 if it
        # underflows, its log does not
        patterns = [m > 0 for m in model.expectation_matrices()]
        found = find_positive_product_word(patterns, support, steps)
        if found is not None:
            word = tuple(found)
            word_prob = env.cylinder_probability(found)
            word_log_prob = env.cylinder_log_probability(found)

    alpha = uniform_allowability_alpha(model) if allowable_ok else None

    witness = None
    for letter, on in zip(model.letters, support):
        if on and all(law.low_offspring_mass() < 1.0 for law in letter.laws):
            witness = letter.name
            break

    # the letter process is ergodic iff its chain on the letters of positive
    # mass is irreducible, iff some power of I + its step pattern is positive
    inner = steps[support][:, support]
    power = find_positive_product_word([np.eye(len(inner), dtype=bool) | inner], [True], [[True]])

    return ConditionReport(
        ergodic_env_ok=power is not None,
        allowable_ok=allowable_ok,
        allowability_offenders=tuple(offenders),
        positive_word=word,
        positive_word_probability=word_prob,
        positive_word_log_probability=word_log_prob,
        second_moment_bound=second_moment_bound(model),
        uniform_alpha=alpha,
        strongly_regular=witness is not None,
        strong_regularity_witness=witness,
    )


def classify(report, estimate):
    """Map a condition report and an exponent estimate to a verdict.

    The confidence interval decides: entirely positive means survival with
    positive probability, entirely negative means almost sure extinction.
    An interval straddling zero cannot certify the exact-zero case, so a
    strongly regular model gets the caveated "critical_extinction" verdict
    and anything else is inconclusive.
    """
    if not report.allowable_ok or report.positive_word is None:
        missing = []
        if not report.allowable_ok:
            missing.append("some expectation matrix is not allowable")
        if report.positive_word is None:
            missing.append("no positive-probability word with strictly positive product")
        return Verdict("inconclusive", estimate, "hypotheses unmet: " + "; ".join(missing))
    lo = estimate.point - estimate.half_width
    hi = estimate.point + estimate.half_width
    if lo > 0:
        return Verdict(
            "survives_positively",
            estimate,
            "exponent confidence interval entirely positive: the population "
            "survives with positive probability in almost every environment",
        )
    if hi < 0:
        return Verdict(
            "almost_sure_extinction",
            estimate,
            "exponent confidence interval entirely negative: the population "
            "dies out almost surely in almost every environment",
        )
    if report.strongly_regular:
        return Verdict(
            "critical_extinction",
            estimate,
            "exponent confidence interval straddles zero: extinction is almost "
            "sure if the exponent is exactly zero (the model is strongly "
            "regular), but the sign is unresolved at this precision",
        )
    return Verdict(
        "inconclusive",
        estimate,
        "exponent confidence interval straddles zero and strong regularity "
        "is unavailable",
    )
