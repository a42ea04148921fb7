"""Exception taxonomy shared by all modules, and the one check of a count.

InputError maps to CLI exit code 2, NumericalError (and subclasses) to 3,
verification failures to 1.
"""
import numbers


class InputError(ValueError):
    """Malformed or inconsistent input: wrong degree, dimension, backend, config."""


class NonFiniteError(InputError):
    """A form field holds inf or NaN; solvers re-raise their own as NumericalError."""


class NumericalError(RuntimeError):
    """A numerical procedure could not complete (singular solve, divergence)."""


class DegenerateMetricError(NumericalError):
    """theta(E) fell below tolerance: the configuration left the almost-calibrated set."""

    def __init__(self, message, point=None, theta=None):
        super().__init__(message)
        self.point = point
        self.theta = theta


class ObstructionError(NumericalError):
    """Topological obstruction: no solution exists in this Chern class."""


def check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer of at least ``least``: a float
    (even 4.0) or a bool is refused, a numpy integer taken."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be at least {least}, got {value}")
