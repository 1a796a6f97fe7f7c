"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: DataError, DomainError and OSError -> 3;
any ArithmeticError (a NumericalError, an overflow, a division by zero) -> 4.
"""


class IncomedynError(Exception):
    """Base class for all package errors."""


class DomainError(IncomedynError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DataError(IncomedynError, ValueError):
    """Input data violates a schema or a structural invariant."""


class NumericalError(IncomedynError, ArithmeticError):
    """A numerical procedure failed (overflow, NaN, no convergence)."""


class TimeStepError(NumericalError):
    """The requested time step is too large for the evolution scheme.

    Carries ``suggested_dt`` so callers can retry.
    """

    def __init__(self, message, suggested_dt):
        super().__init__(message)
        self.suggested_dt = suggested_dt
