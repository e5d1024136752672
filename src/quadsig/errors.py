"""Exception types and the input contract: count, real and vector checks."""

import math
import numbers

import numpy as np

__all__ = ["DomainError", "PreconditionError", "DegenerateDataError"]


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A caller-facing precondition (e.g. rate above the identification rate) is violated."""


class DegenerateDataError(ValueError):
    """Input data carries no usable information (e.g. all-zero probability estimates)."""


def _check_count(value, name: str, least: int = 1, most=None, error=ValueError) -> int:
    """value as an int, or an `error` naming `name` unless it is an integer
    (a bool is not) of at least `least` and, if given, at most `most`."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and least <= value and (most is None or value <= most)):
        span = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise error(f"{name} must be an integer {span}, not {value!r:.40}")
    return int(value)


def _check_real(value, name: str, lo=-math.inf, hi=math.inf, ends="()", error=ValueError):
    """value as a float, or an `error` naming `name` unless it is a finite real
    number (a bool is not) between lo and hi, each end closed or open as
    `ends` writes it in interval notation: "()", "[)", "(]" or "[]"."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the largest double
        x = math.nan
    above = lo < x or (ends[0] == "[" and lo == x)
    if above and (x < hi or (ends[1] == "]" and x == hi)) and math.isfinite(x):
        return x
    span = f"{ends[0]}{lo}, {hi}{ends[1]}"
    raise error(f"{name} must be a finite real number in {span}, not {value!r:.40}")


def _check_vector(x, name: str = "vector") -> np.ndarray:
    """x as a nonempty 1-D float array of finite coordinates, or a ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a 1-D array with at least one coordinate")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite coordinates")
    return x
