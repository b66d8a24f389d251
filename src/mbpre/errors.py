"""Exception types shared across the package, and the reduction kinds they name."""

# The scalar reductions of a matrix product that an exponent is taken of
# and that a DegenerateProductError names: entry sum, least column sum,
# least row sum.
KINDS = ("sum", "colmin", "rowmin")


class ModelFormatError(ValueError):
    """A model document violates the JSON schema.

    ``path`` locates the offending element, e.g. ``letters[0].laws[1][2].p``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class InvariantError(ValueError):
    """A structural invariant of a model object is violated."""


class NotAllowableError(InvariantError):
    """An expectation matrix has an all-zero row or column."""

    def __init__(self, letter, axis, index):
        self.letter = letter
        self.axis = axis  # "row" or "column"
        self.index = index
        super().__init__(
            f"expectation matrix of letter {letter!r} is not allowable: "
            f"{axis} {index} is all zero"
        )


class DegenerateProductError(RuntimeError):
    """A matrix product lost allowability (a reduction hit exactly zero)."""

    def __init__(self, step, kind):
        self.step = step
        self.kind = kind
        super().__init__(f"{kind} reduction of the running product is 0 at step {step}")


class BudgetError(RuntimeError):
    """A state or memory budget was exceeded before the result was obtained."""


class NoSurvivorsError(RuntimeError):
    """No simulated trial survived to the horizon."""
