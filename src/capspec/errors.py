"""Exception hierarchy.

Two branches: ValidationError for bad inputs or incompatible requests (the CLI
maps these to exit code 2) and NumericalError for computations that failed on
admissible inputs (exit code 3). What counts as an integer or a real is
decided once, below: numpy integers and floats are, bools and strs never.
"""

import numpy as np


class CapspecError(Exception):
    """Base class for all package errors."""


class ValidationError(CapspecError):
    """Input rejected as malformed or incompatible with the request."""


class SchemaError(ValidationError):
    """A data file failed schema validation."""


class FamilyMismatch(ValidationError):
    """Bound family incompatible with the sequence's problem type or order."""


class DomainError(ValidationError):
    """Values outside the domain of a bound family (e.g. lambda_1 <= n - 2)."""


class GuardViolation(ValidationError):
    """A spectrum fails a precondition required by the requested check."""


class NumericalError(CapspecError):
    """A numerical procedure failed on otherwise valid input."""


class NotPositiveDefinite(NumericalError):
    """Cholesky pivot at or below threshold; matrix not usably positive."""


class NoConvergence(NumericalError):
    """An iteration exhausted its budget without meeting its tolerance."""


class QuadratureNotConverged(NumericalError):
    """Node doubling moved assembled matrix entries beyond tolerance."""


class ModeCapTooSmall(NumericalError):
    """Angular mode cap cannot certify the requested eigenvalue count."""


class BracketFailure(NumericalError):
    """No finite bound: no predicate failure at or below Lambda_k 2^64, or
    the coefficients or sums of the bound overflow the float range."""


class MonotonicityViolation(NumericalError):
    """Refinement increased an eigenvalue beyond the allowed slack."""


class DiscriminantNegative(NumericalError):
    """Closed-form discriminant negative: the family gives no real bound."""


def _is_int(value) -> bool:
    """An int or a numpy integer, never a bool (which Python counts as one)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An integer or a Python or numpy float, never a bool or a str."""
    return _is_int(value) or isinstance(value, (float, np.floating))


def _real(value, message: str) -> float:
    """value as a float if it is a real within the float range, else ValidationError(message)."""
    try:
        if _is_real(value):
            return float(value)
    except OverflowError:
        pass
    raise ValidationError(message)


def _reals(values, message: str) -> np.ndarray:
    """values as a float array: an integer or float array as it stands, else
    entry by entry through _real, so no bool or str inside a list passes."""
    array = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if array.dtype.kind not in "iuf":
        array = np.array([_real(value, message) for value in array.flat]).reshape(array.shape)
    return array.astype(float, copy=False)
