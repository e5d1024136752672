"""Exception types shared across the package."""

__all__ = ["DomainError", "PreconditionError", "DegenerateDataError"]


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of the operation."""


class PreconditionError(ValueError):
    """A caller-facing precondition (e.g. rate above the identification rate) is violated."""


class DegenerateDataError(ValueError):
    """Input data carries no usable information (e.g. all-zero probability estimates)."""
