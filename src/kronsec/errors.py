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


def require_int(what: str, value, least: int = 0, most: int | None = None) -> int:
    """value, if it is an int (a bool or a float is not) in least..most; else a DomainError naming `what`.

    The one check of an integer argument: every exported function runs its
    sizes, degrees and indices through it before using them.
    """
    if type(value) is not int:
        raise DomainError(f"{what} must be an int, got {value!r}")
    if most is not None and not least <= value <= most:
        raise DomainError(f"{what} {value} out of range {least}..{most}")
    if value < least:
        raise DomainError(f"{what} must be nonnegative, got {value}" if least == 0
                          else f"expected {what} >= {least}, got {value}")
    return value


def require_str(what: str, value) -> str:
    """value, if it is a str; else a DomainError naming `what`. The one check of a text argument."""
    if not isinstance(value, str):
        raise DomainError(f"{what} must be a str, got {value!r}")
    return value
