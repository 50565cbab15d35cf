"""Error taxonomy shared across the package.

Three failure kinds are kept apart on purpose: bad mathematical input
(DomainError), bad usage such as malformed files or mismatched lengths
(UsageError), and numerical routines that cannot certify their own output
(NumericError and its quadrature specialization).  Detected inequality
violations are *results*, never exceptions.
"""


class BJAuditError(Exception):
    """Base class for all package errors."""


class DomainError(BJAuditError, ValueError):
    """A parameter lies outside its mathematical domain."""


class UsageError(BJAuditError, ValueError):
    """Malformed input data or inconsistent arguments."""


class NumericError(BJAuditError, ArithmeticError):
    """A numerical routine could not certify its result."""


class QuadratureError(NumericError):
    """A quadrature's error estimate missed its tolerance."""
