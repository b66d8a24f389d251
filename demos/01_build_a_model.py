"""
Building a branching model
==========================

A model consists of environment letters, each carrying one finite-support
offspring law per parent type, plus a distribution over infinite letter
sequences. This script builds a tiny two-letter model by hand, inspects
its generating functions and expectation matrices, and round-trips it
through the JSON codec.
"""

import numpy as np

from mbpre import (
    EnvironmentLetter,
    IidEnvironment,
    ModelSpec,
    OffspringLaw,
    parse_model,
    second_moment_bound,
    uniform_allowability_alpha,
    write_model,
)

# Two types. In the "boom" letter both types reproduce vigorously; in the
# "bust" letter they barely hang on.
boom = EnvironmentLetter(
    "boom",
    (
        OffspringLaw.from_pairs([((2, 1), 0.6), ((1, 0), 0.3), ((0, 0), 0.1)]),
        OffspringLaw.from_pairs([((0, 2), 0.7), ((1, 1), 0.3)]),
    ),
)
bust = EnvironmentLetter(
    "bust",
    (
        OffspringLaw.from_pairs([((1, 0), 0.3), ((0, 0), 0.7)]),
        OffspringLaw.from_pairs([((0, 1), 0.4), ((0, 0), 0.6)]),
    ),
)
model = ModelSpec(2, (boom, bust), IidEnvironment([0.5, 0.5]))

# The pgf of a law evaluated at s = 0 is its chance of producing nothing;
# at s = 1 it must return the total mass.
law = boom.laws[0]
print("boom/type-0 law: P(no children) =", law.pgf([0.0, 0.0]))
print("boom/type-0 law: pgf at 1      =", law.pgf([1.0, 1.0]))

# Expectation matrices collect mean counts by (parent, child) type.
for letter in model.letters:
    print(f"M[{letter.name}] =\n{letter.expectation}")

# Two scalars the survival theory cares about: a uniform lower bound on the
# mass behind every positive mean entry, and an upper bound on second
# factorial moments.
print("uniform allowability alpha:", uniform_allowability_alpha(model))
print("second moment bound:       ", second_moment_bound(model))

# Sampling uses an explicit seeded generator.
rng = np.random.default_rng(7)
draws = np.stack([law.sample(rng) for _ in range(5)])
print("five draws from boom/type-0:\n", draws)

# The JSON codec round-trips exactly; unknown keys are rejected on parse.
text = write_model(model)
assert write_model(parse_model(text)) == text
print("JSON round trip: ok,", len(text), "bytes")
