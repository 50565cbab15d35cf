"""Error taxonomy shared across the package.

Three failure kinds are kept apart on purpose: bad mathematical input
(DomainError), bad usage such as malformed files or mismatched lengths
(UsageError), and numerical routines that cannot certify their own output
(NumericError and its quadrature specialization).  Detected inequality
violations are *results*, never exceptions.

Each class carries its CLI exit code and the prefix of its stderr line.
"""


class BJAuditError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    prefix = "error"


class DomainError(BJAuditError, ValueError):
    """A parameter lies outside its mathematical domain."""


class UsageError(BJAuditError, ValueError):
    """Malformed input data or inconsistent arguments."""


class NumericError(BJAuditError, ArithmeticError):
    """A numerical routine could not certify its result."""

    exit_code = 3
    prefix = "numeric error"


class QuadratureError(NumericError):
    """A quadrature's error estimate missed its tolerance."""
