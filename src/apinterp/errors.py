"""Exception taxonomy shared by all modules, and the spec-key check."""

import inspect
import math
import numbers


class ApInterpError(Exception):
    """Base class for everything this package raises on purpose."""


class DomainError(ApInterpError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class TabulatedRangeError(DomainError):
    """A tabulated profile was evaluated outside its knot range."""


class NumericError(ApInterpError, RuntimeError):
    """A quadrature or iteration failed to reach its tolerance."""


class ConstructionError(NumericError):
    """An explicit construction (partition marching, radius fitting) failed."""


class InvariantViolation(ApInterpError):
    """Internal data broke a structural invariant (overlap, coincident points)."""


class InputError(ApInterpError, ValueError):
    """A configuration or data file could not be understood."""


def check_spec_keys(what: str, params: dict, build) -> None:
    """Raise InputError unless params are keyword arguments of build, name
    every argument build requires, and give an integer where build annotates
    int and a finite number where it annotates float."""
    accepted = inspect.signature(build).parameters
    for key, value in params.items():
        if key not in accepted:
            raise InputError(f"{what}: unknown key {key!r}")
        kind = accepted[key].annotation
        if kind in (int, float) and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
            raise InputError(f"{what}: key {key!r} must be a number, not {value!r}")
        if kind is int and not isinstance(value, numbers.Integral):
            raise InputError(f"{what}: key {key!r} must be an integer, not {value!r}")
        if kind is float and not math.isfinite(value):
            raise InputError(f"{what}: key {key!r} must be finite, not {value!r}")
    for name, param in accepted.items():
        if param.default is inspect.Parameter.empty and name not in params:
            raise InputError(f"{what}: missing key {name!r}")
