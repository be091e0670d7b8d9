"""Exception types shared across the package, and the parameter checks.

Every error raised on bad input derives from ChancapError and from ValueError,
so callers can catch either the package hierarchy or the builtin they expect.

A numeric parameter's domain is decided by one of three checks, each of
which raises ParameterOutOfRange and refuses a bool, which would otherwise
run as 0 or 1:

* _check_real: a positive real number (a tolerance, grid_step, step_size);
* _check_probability: a real number in [0, 1] (a canonical channel's
  probability, the mixture weight, support_threshold);
* _check_limit: an integer of at least a minimum, 1 unless given (an
  iteration limit, a size; 2 for the typewriter, 0 for an input symbol).

Four domains add one bound on top of their check, at the call site:
support_threshold must be below 1, grid_step at most 0.1, step_size 1 (or
None, which skips the check), and an input symbol below the channel's
input count.
"""

from __future__ import annotations

import numbers

__all__ = [
    "ChancapError",
    "InvalidDistribution",
    "DimensionMismatch",
    "AbsoluteContinuityViolation",
    "NonInteriorInput",
    "NegativeEntry",
    "RowNotStochastic",
    "ParameterOutOfRange",
    "TooManyInputs",
    "ParseError",
    "DroppedOutputColumnWarning",
]


class ChancapError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistribution(ChancapError, ValueError):
    """Weights cannot be interpreted as a probability distribution."""


class DimensionMismatch(ChancapError, ValueError):
    """Two objects that must share an alphabet have different sizes."""


class AbsoluteContinuityViolation(ChancapError, ValueError):
    """A divergence D(p || q) is infinite because q lacks mass where p has it."""


class NonInteriorInput(ChancapError, ValueError):
    """An operation that requires strictly positive weights got a boundary point."""


class NegativeEntry(ChancapError, ValueError):
    """A channel matrix contains a negative probability."""


class RowNotStochastic(ChancapError, ValueError):
    """A channel row does not sum to one within tolerance."""

    def __init__(self, row: int, deviation: float):
        self.row = row
        self.deviation = deviation
        super().__init__(
            f"row {row} is not a probability vector (sum deviates from 1 by {deviation:.3e})"
        )


class ParameterOutOfRange(ChancapError, ValueError):
    """A numeric parameter lies outside its documented domain."""


class TooManyInputs(ChancapError, ValueError):
    """Exhaustive search was asked for on an alphabet too large to enumerate."""


class ParseError(ChancapError, ValueError):
    """A channel file could not be parsed in the requested format."""


class DroppedOutputColumnWarning(UserWarning):
    """An all-zero output column was removed during channel construction."""


def _is_number(value, kind: type) -> bool:
    """True when value is an instance of kind, numbers.Real or numbers.Integral, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_real(name: str, value) -> None:
    """Raise ParameterOutOfRange unless value is a positive real number.

    `not 0 < value` rejects NaN too, which would never stop an iteration; a
    string or None would otherwise reach a comparison and raise a bare
    TypeError.
    """
    if not (_is_number(value, numbers.Real) and 0.0 < value):
        raise ParameterOutOfRange(f"{name} must be a positive real number, got {value!r}")


def _check_type(name: str, value, kind: type) -> None:
    """Raise InvalidDistribution unless value is a kind, not a bare array or anything else."""
    if not isinstance(value, kind):
        raise InvalidDistribution(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _check_probability(name: str, value) -> None:
    """Raise ParameterOutOfRange unless value is a real number in [0, 1]."""
    if not (_is_number(value, numbers.Real) and 0.0 <= value <= 1.0):
        raise ParameterOutOfRange(f"{name} must be in [0, 1], got {value!r}")


def _check_limit(name: str, value, minimum: int = 1) -> None:
    """Raise ParameterOutOfRange unless value is an integer of at least minimum.

    Any numpy or Python integer type passes; a float, even a whole one, does
    not, since range() would reject it with a bare TypeError and int() would
    truncate it.
    """
    if not _is_number(value, numbers.Integral):
        raise ParameterOutOfRange(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterOutOfRange(f"{name} must be at least {minimum}, got {value!r}")
