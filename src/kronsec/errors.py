"""Exception hierarchy shared by every module.

Domain errors are the caller's fault (bad input, regime violation, capacity
cap); consistency errors mean two independent computations of the same
quantity disagreed, which is never acceptable and aborts the run.
Each class names the `kind` the CLI reports for it and the CLI's `exit_code`.
The argument checks every module shares live here too: require_int,
require_str and checked_cache.
"""

from functools import cache, wraps


class KronsecError(Exception):
    """Base class for package errors."""

    kind = "error"
    exit_code = 1


class DomainError(KronsecError):
    """Invalid input or a violated precondition; names the failing condition."""

    kind = "domain"


class CapacityError(DomainError):
    """Request exceeds a capacity bound.

    The CLI checks the configured caps before it computes; apolarity's
    sylvester_json raises it for a value past Python's int-to-string limit.
    """

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


def checked_cache(check):
    """A functools cache that only arguments passed by `check` reach.

    check(*args, **kwargs) raises a DomainError on a bad argument and
    returns the positional arguments to look up, so a value equal to a valid
    key (True for 1, 2.0 for 2) or an unhashable one (a list) is refused on
    every call, not only on a miss. The decorated function carries the
    cache's cache_info and cache_clear, and the cache itself as `cached`
    for a hot loop whose arguments are valid already.
    """
    def decorate(fn):
        cached = cache(fn)

        @wraps(fn)
        def checked(*args, **kwargs):
            return cached(*check(*args, **kwargs))

        checked.cached, checked.cache_info, checked.cache_clear = cached, cached.cache_info, cached.cache_clear
        return checked

    return decorate
