"""Exception types shared across the toolkit."""

__all__ = ["CapacityError", "ImpossibleOutcomeError", "ConsistencyError"]


class CapacityError(ValueError):
    """A request exceeds a size limit: the dense dimension cap or the
    likelihood kernel's limit on the smaller spin."""


class ImpossibleOutcomeError(ValueError):
    """A Bayesian update was requested for an outcome of probability zero."""


class ConsistencyError(RuntimeError):
    """An internal consistency check failed (e.g. probabilities not summing to one)."""
