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

