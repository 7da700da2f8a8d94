"""Error types shared across the package."""

import cmath
import math


class SiegelThetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SiegelThetaError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class ConvergenceError(SiegelThetaError):
    """A truncated series, product, or quadrature missed its error target.

    ``achieved`` carries the best bound that was obtained.
    """

    def __init__(self, message: str, achieved: float = math.inf):
        super().__init__(message)
        self.achieved = achieved


class PoleProximityError(SiegelThetaError):
    """Evaluation was requested too close to a pole to be meaningful."""


# The argument checks every public entry runs: each returns the value it was
# given (as a complex, for finite_complex) or raises DomainError naming it.
# An int past binary64 counts as the inf it rounds to, also in the message,
# which could not print an int of more than 4,300 digits.  A bool is an int
# to Python but neither a count, a real nor a complex number here: True
# would pass for 1.

def finite_complex(value, name: str) -> complex:
    """value as a complex with finite parts."""
    if type(value) is not complex:  # a complex is its own complex()
        if type(value) is bool:
            raise DomainError(f"{name} must be a complex number, got {value!r}")
        try:
            value = complex(value)
        except OverflowError:
            value = complex(math.inf if value > 0 else -math.inf)
        except (TypeError, ValueError):
            raise DomainError(f"{name} must be a complex number, got {value!r}") from None
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def finite_real(value, name: str):
    """value, an int or a float that is finite in binary64, unconverted."""
    try:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value)):
            return value
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    raise DomainError(f"{name} must be a finite real, got {value!r}")


def positive_int(value, name: str) -> int:
    """value, an int >= 1."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return value
