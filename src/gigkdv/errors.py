"""Exception types shared across the package, and the positive-real check."""

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def positive(message: str, *values):
    """Each value as a float array (a lone value unpacked); DomainError with
    `message` unless every entry lies in (0, inf)."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    # min and max propagate nan, so a nan fails as well
    if not all(a.size == 0 or (a.min() > 0.0 and a.max() < np.inf) for a in arrays):
        raise DomainError(message)
    return arrays[0] if len(arrays) == 1 else arrays


class IllConditionedError(ArithmeticError):
    """A matrix operand is too close to singular for the requested operation.

    Raised when a condition-number estimate exceeds the module ceiling;
    involution/Jacobian tolerances are meaningless past that point.
    """


class NotSpdError(ValueError):
    """A matrix expected to be symmetric positive definite is not."""
