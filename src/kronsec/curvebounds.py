"""Integer Riemann-Roch bookkeeping for line bundles on a smooth curve.

Pure arithmetic on (genus, degree) pairs: no geometry is represented, only
the numeric thresholds under which the cohomological statements are
unconditional. Every function refuses inputs outside its validity range
rather than returning a formula that might silently be off by h^1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, require_int


@dataclass(frozen=True)
class CurveContext:
    """A genus-g curve carrying a base line bundle of degree n."""

    genus: int
    degree: int

    def __post_init__(self):
        require_int("genus", self.genus)
        require_int("degree", self.degree)


def h0(ctx: CurveContext, twist: int) -> int:
    """dim H^0 of the bundle twisted down by `twist` points: n - twist + 1 - g.

    Valid only where the twisted degree n - twist exceeds 2g - 2, which kills
    h^1; outside that range the formula is not the dimension and the call is
    rejected by name.
    """
    require_int("twist", twist)
    g, n = ctx.genus, ctx.degree
    if not n - twist > 2 * g - 2:
        raise DomainError(
            f"h0 formula needs n - twist > 2g - 2: {n} - {twist} <= {2 * g - 2}, "
            "h1 may be nonzero here"
        )
    return n - twist + 1 - g


def separates_2k(ctx: CurveContext, k: int) -> bool:
    """Whether degree-n sections separate any 2k points: 2g - 2 - n + 2k < 0."""
    require_int("k", k)
    return 2 * ctx.genus - 2 - ctx.degree + 2 * k < 0


def max_admissible_k(ctx: CurveContext) -> int:
    """Largest k with 2k-point separation guaranteed: max(0, (n+1)//2 - g).

    Requires n > 2g - 2 so the base bundle itself is nonspecial.
    """
    g, n = ctx.genus, ctx.degree
    if not n > 2 * g - 2:
        raise DomainError(f"max_admissible_k needs n > 2g - 2: {n} <= {2 * g - 2}")
    return max(0, (n + 1) // 2 - g)
