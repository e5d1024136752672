"""Exception types and the integer-argument check shared across the package."""

import numbers

__all__ = ["DomainError", "PreconditionError", "DegenerateDataError"]


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A caller-facing precondition (e.g. rate above the identification rate) is violated."""


class DegenerateDataError(ValueError):
    """Input data carries no usable information (e.g. all-zero probability estimates)."""


def _check_count(value, name: str, least: int = 1) -> int:
    """value as an int, or a ValueError naming `name` unless it is an integer
    (a bool is not) of at least `least`."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    return int(value)
