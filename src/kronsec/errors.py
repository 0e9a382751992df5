"""Exception hierarchy shared by every module.

Domain errors are the caller's fault (bad input, regime violation, capacity
cap); consistency errors mean two independent computations of the same
quantity disagreed, which is never acceptable and aborts the run.
Each class names the `kind` the CLI reports for it and the CLI's `exit_code`.
"""


class KronsecError(Exception):
    """Base class for package errors."""

    kind = "error"
    exit_code = 1


class DomainError(KronsecError):
    """Invalid input or a violated precondition; names the failing condition."""

    kind = "domain"


class CapacityError(DomainError):
    """Request exceeds a configured capacity bound; only the CLI checks caps."""

    kind = "capacity"


class PrecisionError(DomainError):
    """A numeric certificate could not be tightened below the precision floor."""

    kind = "precision"


class ConsistencyError(KronsecError):
    """Two independent routes to the same value disagreed (internal fault)."""

    kind = "consistency"
    exit_code = 2
