"""Exception types shared across the library.

Parameter and domain problems subclass ValueError so callers can keep the
usual ``except ValueError`` idiom; numeric failures subclass RuntimeError,
and a value beyond the double range subclasses ArithmeticError.
"""


class RenyiError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameterError(RenyiError, ValueError):
    """A distribution, process, or job parameter violates its constraints."""


class InvalidAlphaError(RenyiError, ValueError):
    """Order parameter outside (0, 1) or (1, inf), or unsupported for an op."""


class OutOfDomainError(RenyiError, ValueError):
    """A natural parameter lies outside the family's natural domain."""


class DimensionMismatchError(RenyiError, ValueError):
    """Operands have incompatible alphabet sizes, shapes, or dimensions."""


class NotPositiveDefiniteError(RenyiError, ValueError):
    """A matrix that must be symmetric positive definite is not."""


class NonpositivePsdError(RenyiError, ValueError):
    """A power spectral density is not strictly positive on the grid."""


class InfiniteSupportError(RenyiError, ValueError):
    """An operation requiring a finite-measure support got an infinite one."""


class ZeroMassError(RenyiError, ValueError):
    """A probability that must be strictly positive is zero."""


class DoubleRangeError(RenyiError, ArithmeticError):
    """A finite value lies outside the range of a double."""


class NonConvergenceError(RenyiError, RuntimeError):
    """An iterative or adaptive numeric routine failed to converge."""


class NotIrreducibleError(RenyiError, ValueError):
    """A matrix required to be irreducible has more than one closed class."""


class DegenerateRateError(RenyiError, ValueError):
    """Every weighted communication class is degenerate (eigenvalue zero)."""
