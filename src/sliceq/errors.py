"""Exception types shared across the package."""


class SliceQError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SliceQError, ValueError):
    """Malformed or inconsistent input (dimension mismatch, bad parameters)."""


class UnboundedRegionError(SliceQError):
    """A slice type with an all-zero cost vector makes the state space infinite."""


class ProtocolViolationError(SliceQError):
    """An operation that the controller state does not permit (e.g. releasing
    a slice type with no active instance)."""


class DivergentQueueError(SliceQError):
    """Queue with workload >= 1 and no impatience: no steady state exists."""


class SeriesTruncationError(SliceQError):
    """A series did not converge within the configured term budget."""


class StrategyMismatchError(InvalidInputError):
    """Strategy was built for a different scenario (fingerprint mismatch)."""
