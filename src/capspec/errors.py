"""Exception hierarchy.

Two branches: ValidationError for bad inputs or incompatible requests (the CLI
maps these to exit code 2) and NumericalError for computations that failed on
admissible inputs (exit code 3).
"""


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
