"""Exception hierarchy shared by every module.

Domain errors are the caller's fault (bad input, regime violation, capacity
cap); consistency errors mean two independent computations of the same
quantity disagreed, which is never acceptable and aborts the run.
"""


class KronsecError(Exception):
    """Base class for package errors."""


class DomainError(KronsecError):
    """Invalid input or a violated precondition; names the failing condition."""


class CapacityError(DomainError):
    """Request exceeds a configured capacity bound; only the CLI checks caps."""


class PrecisionError(DomainError):
    """A numeric certificate could not be tightened below the precision floor."""


class ConsistencyError(KronsecError):
    """Two independent routes to the same value disagreed (internal fault)."""
