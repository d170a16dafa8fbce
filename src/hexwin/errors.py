"""Exception taxonomy shared across the package.

The CLI maps these onto stable exit codes: usage errors exit 1, I/O errors
exit 2, numeric or consistency failures exit 3.
"""


class InputError(ValueError):
    """Caller passed arguments that violate an operation's preconditions."""


class ShapeError(InputError):
    """Array arguments have inconsistent or unsupported shapes."""


class DegenerateInputError(InputError):
    """Input is structurally valid but degenerate (e.g. zero lattice spacing)."""


class CoverageError(RuntimeError):
    """A spot's offset from its nearest window center exceeds the slot radius."""


class SlotCollisionError(RuntimeError):
    """Two spots mapped to the same (window, slot) of one partition."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""
