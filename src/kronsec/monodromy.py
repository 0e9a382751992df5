"""Root monodromy of closed loops in the space of squarefree polynomials.

A loop is a list of closed segments deforming the coefficient vector of a
degree-n polynomial and returning to it; the permutation it induces on the
base roots is read off where every root ends.

A half-twist is answered in closed form. Its polynomial at every t is the
product of the n - 2 still base roots and the moving pair mid -+ (D/2) w(t),
with mid = (a + b) / 2 and D = b - a for the pair a, b, and |w| >= 1/2. So
the pair sweeps the segment [a, mid - D/4], the circle |z - mid| = |D|/4 and
the segment [mid + D/4, b], and never comes nearer than |D|/2 to itself.
When every still root clears that path by more than the tolerance and
|D|/2 exceeds it too, the polynomial stays squarefree along the loop, and
the roots at base positions i and i + 1 swap. Both checks are exact integer
comparisons on the grid, scaled by 4 so that the points 4a, 3a + b, a + 3b,
4b and the centre 2(a + b) are integers: each segment by projection, the
circle by (A - R - S)^2 > 4RS with A + R > S, for A the squared distance of
a still root from the centre, R the squared radius and S the squared
tolerance. A half-twist that fails them is a precision error, "root
collision suspected", and is never answered.

Circles, and half-twists on the continued route (track_roots(...,
continued=True), which tests use to check the closed form), are continued
numerically. Roots are continued along sampled parameter steps by a linear
predictor plus Newton correction in intpoly.newton, the fixed-point kernel
that also refines Sylvester supports: each root is a pair of Python ints
scaled by 2^F, with F = precision_bits + ceil(log2(8 / tolerance)), so the
kernel carries precision_bits bits (96 by default) below the Newton target
tolerance/8. Before that exact Newton call, a few complex-float Newton steps
on a float copy of the step's coefficients move the predicted start toward
its root; the float start keeps the predicted point where its first step
already converged, where floats fail, and where Horner's float rounding
bound is not clearly below the least root gap. It only chooses where exact
Newton starts: the exact kernel and the exact step tests below accept or
refuse every step. Coefficients are held for u = z / 2^s, with 2^s a power
of two at least every base root modulus, so small or clustered roots keep
their relative precision. A step is accepted only while no moving root moved
half the least distance from a moving root to another root and each stays
more than the tolerance from all others, by exact comparisons of squared
integers, and only where the grid's rounding could not alone make a Newton
step past the target; else the step is halved, down to a hard floor of
2^-20 of the initial step. A continued half-twist corrects only its two
moving roots, on the fixed product of the n - 2 still roots times one moving
quadratic; a circle rescales one coefficient and corrects all n roots. The
step parameter t and the step h are exact dyadics, integer numerators over
one power of two 2^D, so the step loop builds no Fraction; every path point
is an exact rational turn floored once, so every loop runs on the stdlib
alone. The loop's StepStats count continued steps only.

A base equal to prod(z - j), j = 1..n, the base of every generator loop,
starts from its exact roots, which land on the grid exactly. Any other base
has its roots seeded by intpoly.aberth_seeds, refined by intpoly.isolate
into inclusion discs proven pairwise apart, the one completeness proof of
Sylvester supports too, and floored onto the grid. On the grid the base
roots must stay more than the tolerance apart, and each final root must end
nearer than half the least base gap to one base root; that match reads off
the permutation of the starting roots that the loop induces.

Segment vocabulary (all segments are themselves closed loops at the base):

  half_twist(i)   exchange the i-th and (i+1)-th base roots (sorted by real
                  part, then imaginary part, 1-based) by shrinking them to a
                  disc of radius one quarter of their gap around their
                  midpoint, rotating by pi counterclockwise, and expanding
                  back; all other roots stay put.
  circle(j, r)    move coefficient j once counterclockwise around the origin
                  along the circle of radius r it starts on.

Paths compose left to right; the tracked permutation of a concatenation is
"second after first".
"""

from __future__ import annotations

import cmath
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import intpoly
from .characters import character_table
from .config import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS
from .errors import ConsistencyError, DomainError, PrecisionError, require_int
from .permutations import (
    compose,
    cycle_notation,
    identity_perm,
    validate_word,
)

DEFAULT_TOLERANCE = 2.0**-48
DEFAULT_MAX_STEP = 1.0 / 32
# Random generator words defining_rep_decomposition tracks by default, and
# the CLI's --samples default.
DEFAULT_SAMPLE_LOOPS = 3
STEP_FLOOR_RATIO = 2.0**-20
# A step must not span most of a closed segment: a step that lands back on
# the base sees no root move. 1/8 is the largest step the acceptance checks run.
MAX_STEP_CAP = 1.0 / 8
# The float start: at most FLOAT_STEPS complex-float Newton steps, stopping
# once a step is below FLOAT_CONVERGED, and trusted only while FLOAT_MARGIN
# times Horner's rounding bound stays below the least root gap.
FLOAT_STEPS = 8
FLOAT_CONVERGED = 2.0**-50
FLOAT_MARGIN = 64


# --- segments ----------------------------------------------------------------

@dataclass(frozen=True)
class HalfTwist:
    """Counterclockwise exchange of adjacent base roots i and i+1 (1-based)."""

    i: int

    def describe(self) -> str:
        return f"half_twist({self.i})"


@dataclass(frozen=True)
class CoefficientCircle:
    """Coefficient `index` rides its origin-centered circle once, counterclockwise."""

    index: int
    radius: float

    def describe(self) -> str:
        return f"circle({self.index}, {self.radius})"


Segment = HalfTwist | CoefficientCircle

_SEGMENT_RE = re.compile(r"^\s*(half_twist|circle)\s*\(\s*([^)]*)\)\s*$")


def parse_segment(spec) -> Segment:
    """Accept the strings "half_twist(2)" and "circle(0, 1.0)"."""
    m = _SEGMENT_RE.match(str(spec))
    if not m:
        raise DomainError(f"unparsable segment {spec!r}")
    kind, args = m.group(1), [a.strip() for a in m.group(2).split(",") if a.strip()]
    try:
        if kind == "half_twist":
            if len(args) != 1:
                raise DomainError(f"half_twist takes one index, got {spec!r}")
            return HalfTwist(int(args[0]))
        if len(args) != 2:
            raise DomainError(f"circle takes (coefficient_index, radius), got {spec!r}")
        return CoefficientCircle(int(args[0]), float(Fraction(args[1])))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"bad segment argument in {spec!r}: {exc}") from None


def parse_loop_spec(data: dict):
    """Split a loop description mapping into (base, segments, tolerance)."""
    if not isinstance(data, dict):
        raise DomainError("loop spec must be a JSON object")
    if "base" not in data or "segments" not in data:
        raise DomainError("loop spec needs 'base' and 'segments'")
    if not isinstance(data["base"], list) or not isinstance(data["segments"], list):
        raise DomainError("loop spec 'base' and 'segments' must be lists")
    base = [_as_complex(c) for c in data["base"]]
    segments = [parse_segment(s) for s in data["segments"]]
    return base, segments, _positive_real("tolerance", data.get("tolerance", DEFAULT_TOLERANCE))


def _positive_real(what: str, value, most: float = math.inf) -> float:
    """value as a float; a DomainError unless it is a number with 0 < value <= most, and finite."""
    # JSON true and false would otherwise pass as the numbers 1 and 0.
    if isinstance(value, bool):
        raise DomainError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a number, got {value!r}") from None
    if not 0 < x < math.inf or x > most:
        raise DomainError(f"{what} must be positive and " + ("finite" if most == math.inf else f"at most {most}")
                          + f", got {x}")
    return x


def _as_complex(entry) -> complex:
    # JSON true and false would otherwise pass as the numbers 1 and 0.
    if any(isinstance(x, bool) for x in (entry if isinstance(entry, (list, tuple)) else (entry,))):
        raise DomainError(f"bad complex coefficient {entry!r}")
    try:
        if isinstance(entry, (list, tuple)):
            if len(entry) != 2:
                raise DomainError(f"complex coefficient entries are [re, im], got {entry!r}")
            value = complex(float(entry[0]), float(entry[1]))
        else:
            value = complex(entry)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"bad complex coefficient {entry!r}") from None
    if not cmath.isfinite(value):
        raise DomainError(f"complex coefficient {entry!r} is not finite")
    return value


# --- the fixed-point grid -----------------------------------------------------
#
# Tracking works in u = z / 2^s, with 2^s at least every base root modulus
# and the tolerance, so the monic polynomial in u has coefficients of size at
# most binomial(n, k) however large or small its roots are. u is held in
# intpoly's fixed point at F fractional bits. Every root decision (the base
# gap, each step, the final match) compares squared ints, so none of them
# rounds, and scaling by 2^s changes none of them.

@dataclass(frozen=True)
class _Grid:
    """u = z / 2^scale held in units of 2^-bits; the squared Newton target and root separation in those units."""

    precision_bits: int
    bits: int
    scale: int
    newton_sq: int
    separation_sq: int


def _grid(precision_bits: int, tolerance: float, roots) -> _Grid:
    """The grid: a root z is held as floor(2^F z), F = precision_bits + ceil(log2(8 / tolerance)).

    That is u = z / 2^s at F + s fractional bits, precision_bits bits below
    the Newton target tolerance / 8. With tolerance = m * 2^e and
    1/2 <= m < 1, ceil(log2(8 / tolerance)) = 4 - e, and the target is
    m * 2^(precision_bits + 1) grid units of u: an integer, as
    precision_bits >= 53 and 2^53 * m is one.
    """
    mantissa, exp = math.frexp(tolerance)
    # The least s with |a|, |b| < 2^(s + e), plus one when both are nonzero, so 2^s > |z|.
    e, gauss = intpoly.gaussian(roots)
    scale = max([exp] + [max(abs(a), abs(b)).bit_length() - e + bool(a and b) for a, b in gauss if a or b])
    target = int(mantissa * 2**53) << (precision_bits + 1 - 53)
    return _Grid(precision_bits, precision_bits + 4 - exp + scale, scale, target**2, (8 * target) ** 2)


def _dist_sq(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _gap_sq(roots, moving):
    """The least squared distance from a root at an index in `moving` to any other root; inf if there is none."""
    gap = math.inf
    for m in moving:
        xm, ym = roots[m]
        for k, (x, y) in enumerate(roots):
            if k != m and (d := (x - xm) ** 2 + (y - ym) ** 2) < gap:
                gap = d
    return gap


def _turn(num: int, den: int, bits: int) -> tuple[int, int]:
    """The point at fraction num / den of a counterclockwise unit turn, in fixed point, floored once.

    It is i^k ((1 - s^2) + 2is) / (1 + s^2) with k = floor(4u), s = 4u - k,
    u = num / den. A common factor g of num and den scales x, y and their
    denominator by g^2, so the point does not depend on the pair being reduced.
    """
    k, r = divmod(4 * num, den)
    x, y, norm = den * den - r * r, 2 * r * den, den * den + r * r
    for _ in range(k % 4):
        x, y = -y, x
    return (x << bits) // norm, (y << bits) // norm


def _monic(coeffs0, grid: _Grid):
    """Descending fixed-point coefficients, in u, of the base over its leading coefficient.

    The coefficient of z^k becomes a_k * 2^(s(k - n)) in u, read exactly by intpoly.gaussian and floored once.
    """
    _, gauss = intpoly.gaussian(coeffs0)
    return [(x // d, y // d) for x, y, d in intpoly.monic_parts(gauss, grid.bits, grid.scale)]


def _seeds(base) -> list[complex]:
    """Float seeds of the roots of a base, from intpoly.aberth_seeds.

    The base is first proven squarefree, exactly, by intpoly.squarefree.
    """
    if not intpoly.squarefree(base):
        raise DomainError("base polynomial is not resolvably squarefree at this tolerance")
    if (seeds := intpoly.aberth_seeds(base)) is None:
        raise PrecisionError("base roots did not converge")
    return seeds


def _refined(base, seeds, grid: _Grid):
    """The roots of the base on the grid, sorted by real part, then imaginary part, refined from the seeds.

    intpoly.isolate refines each seed into an inclusion disc of radius below
    2^-T, T = max(F, precision_bits) for the grid's F fractional bits of z,
    and proves the discs pairwise apart, so the seeds found every root; that
    is decided before the centres are floored onto a grid that may be
    coarser than their gaps.
    """
    f = grid.bits - grid.scale
    _, pairs = intpoly.gaussian(base)
    if (found := intpoly.isolate(pairs, seeds, max(f, grid.precision_bits))) is None:
        raise PrecisionError("base roots did not converge")
    return sorted((x >> bits - f, y >> bits - f) for (x, y), bits, _ in found)


def _half_twist_path(i: int, base_roots, bits: int):
    """Coefficients along half_twist(i) at t = num / den, as one function.

    The moving pair is mid -+ half*w with w running 1 -> 1/2, then half a
    turn to -1/2 with w^2 = _turn(3t - 1) / 4, then -1/2 -> -1. Its sum
    S = a + b never changes and its product is (S^2 - D^2 w^2) / 4 with
    D = b - a, so with Q the product of the n - 2 still roots the polynomial
    is Q z (z - S) + c(t) Q: one O(n) update per step.
    """
    a, b = base_roots[i - 1], base_roots[i]
    q = [(1 << bits, 0)]
    for r in base_roots[:i - 1] + base_roots[i + 1:]:
        q = intpoly.times_linear(q, r, bits)
    s = (a[0] + b[0], a[1] + b[1])
    d = (b[0] - a[0], b[1] - a[1])
    fixed_part = intpoly.times_linear(q, s, bits) + [(0, 0)]
    s2, d2 = intpoly.times(s, s, bits), intpoly.times(d, d, bits)

    def coeffs_at(num: int, den: int):
        if den < 3 * num <= 2 * den:
            w2 = _turn(3 * num - den, den, bits - 2)
        else:
            # w = 1 - 3t/2 up to t = 1/3 and -(3t - 1)/2 from t = 2/3.
            w = 2 * den - 3 * num if 3 * num <= den else 3 * num - den
            w2 = ((w * w << bits) // (4 * den * den), 0)
        dw = intpoly.times(d2, w2, bits)
        c = ((s2[0] - dw[0]) >> 2, (s2[1] - dw[1]) >> 2)
        return fixed_part[:2] + [(fr + cq[0], fi + cq[1])
                                 for (fr, fi), cq in zip(fixed_part[2:], (intpoly.times(c, x, bits) for x in q))]

    return coeffs_at


def _clears_segment(z, p, q, s: int) -> bool:
    """Whether z is farther than sqrt(s) from the segment [p, q], p != q, all Gaussian integers.

    Past either end the nearest point is that end; between them the squared
    distance is cross^2 / |q - p|^2, compared without division.
    """
    vx, vy = q[0] - p[0], q[1] - p[1]
    wx, wy = z[0] - p[0], z[1] - p[1]
    dot, length_sq = wx * vx + wy * vy, vx * vx + vy * vy
    if dot <= 0:
        return wx * wx + wy * wy > s
    if dot >= length_sq:
        return _dist_sq(z, q) > s
    cross = wx * vy - wy * vx
    return cross * cross > s * length_sq


def _half_twist_clears(i: int, base_roots, separation_sq: int) -> bool:
    """Whether the closed-form path of half_twist(i) stays more than the tolerance from every root it passes.

    Scaled by 4, the pair a, b sweeps the segments [4a, 3a + b] and
    [a + 3b, 4b] and the circle about 2(a + b) of squared radius
    R = |b - a|^2, and the squared tolerance becomes S = 16 separation_sq.
    The pair is never nearer than |b - a| / 2 to itself, so 4R > S. A still root at
    squared distance A from the centre clears the circle when
    |sqrt(A) - sqrt(R)| > sqrt(S), that is A + R > S and (A - R - S)^2 > 4RS.
    """
    (ax, ay), (bx, by) = base_roots[i - 1], base_roots[i]
    s = 16 * separation_sq
    radius_sq = (bx - ax) ** 2 + (by - ay) ** 2
    if 4 * radius_sq <= s:
        return False
    ends = ((4 * ax, 4 * ay), (3 * ax + bx, 3 * ay + by)), ((ax + 3 * bx, ay + 3 * by), (4 * bx, 4 * by))
    centre = (2 * (ax + bx), 2 * (ay + by))
    for x, y in base_roots[:i - 1] + base_roots[i + 1:]:
        z = (4 * x, 4 * y)
        if not all(_clears_segment(z, p, q, s) for p, q in ends):
            return False
        a = _dist_sq(z, centre)
        if not (a + radius_sq > s and (a - radius_sq - s) ** 2 > 4 * radius_sq * s):
            return False
    return True


def _circle_path(index: int, monic, bits: int):
    """Coefficients along circle(index, r) at t = num / den: one coefficient times _turn(num, den)."""
    k = len(monic) - 1 - index

    def coeffs_at(num: int, den: int):
        out = list(monic)
        out[k] = intpoly.times(monic[k], _turn(num, den, bits), bits)
        return out

    return coeffs_at


# --- tracking -----------------------------------------------------------------

@dataclass(frozen=True)
class StepStats:
    min_step: float
    steps: int
    halvings: int


@dataclass(frozen=True)
class MonodromyLoop:
    """A tracked loop: the induced root permutation and its step records."""

    permutation: tuple[int, ...]
    refinement: StepStats


def track_roots(
    base,
    segments,
    tolerance: float = DEFAULT_TOLERANCE,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    max_step: float = DEFAULT_MAX_STEP,
    *,
    continued: bool = False,
) -> MonodromyLoop:
    """Continue all roots of `base` around the closed path and read the permutation.

    base: ascending coefficients (constant term first) of a squarefree
    polynomial, each one intpoly.dyadic reads exactly (intpoly.readable);
    segments: a list of Segment values (each closed at base);
    max_step: the first and largest step in t, a number in (0, 1/8];
    continued: track half-twists step by step too, as circles are, instead
    of by their closed form; the two routes check each other.
    A base equal to prod(z - j), j = 1..n, starts from its roots 1..n; the
    roots of any other base are seeded and refined by _seeds and _refined.
    """
    if not isinstance(continued, bool):
        raise DomainError(f"continued must be True or False, got {continued!r}")
    require_int("precision_bits", precision_bits, least=MIN_PRECISION_BITS)
    tolerance = _positive_real("tolerance", tolerance)
    max_step = _positive_real("max_step", max_step, MAX_STEP_CAP)
    if not segments:
        raise DomainError("a loop needs at least one segment")
    try:
        base = list(base)
    except TypeError:
        raise DomainError(f"the base must be a sequence of coefficients, got {base!r}") from None
    if len(base) < 2:
        raise DomainError("monodromy needs degree >= 1")
    for c in base:
        if not intpoly.readable(c):
            raise DomainError(f"base coefficient {c!r} is not an int, a finite float, complex, mpf or mpc")
    if base[-1] == 0:
        raise DomainError("leading coefficient of the base polynomial must be nonzero")
    _validate_segments(segments, base)
    # Python compares int, float, complex, Fraction and mpf with an int
    # exactly, so only the polynomial prod(z - j) itself passes.
    integer_roots = list(range(1, len(base)))
    roots0 = integer_roots if base == intpoly.from_roots(integer_roots) else _seeds(base)
    grid = _grid(precision_bits, tolerance, roots0)
    # z = U / 2^(F - s) for a grid value U of u; the integer roots land on the grid exactly.
    base_roots = ([intpoly.fixed(r, grid.bits - grid.scale) for r in roots0] if roots0 is integer_roots
                  else _refined(base, roots0, grid))
    base_gap = _gap_sq(base_roots, range(len(base_roots)))
    if base_gap <= grid.separation_sq:
        raise DomainError("base polynomial is not resolvably squarefree at this tolerance")

    current = base_roots
    stats = {"steps": 0, "halvings": 0, "min_step": max_step}
    for seg_index, seg in enumerate(segments):
        where = f"segment {seg_index} ({seg.describe()})"
        if isinstance(seg, HalfTwist):
            # Roots are continued in tracked order; the pair to move is the one
            # now sitting at base positions i and i+1.
            moving = [min(range(len(current)), key=lambda k: _dist_sq(current[k], base_roots[j]))
                      for j in (seg.i - 1, seg.i)]
            if not continued:
                if not _half_twist_clears(seg.i, base_roots, grid.separation_sq):
                    raise PrecisionError(f"the path of {where} comes within the tolerance of a root; "
                                         "root collision suspected")
                current = list(current)
                current[moving[0]], current[moving[1]] = base_roots[seg.i], base_roots[seg.i - 1]
                continue
            coeffs_at = _half_twist_path(seg.i, base_roots, grid.bits)
        else:
            coeffs_at = _circle_path(seg.index, _monic(base, grid), grid.bits)
            moving = range(len(current))
        current = _track_segment(coeffs_at, moving, current, grid, max_step, stats, where)
    return MonodromyLoop(permutation=_match(current, base_roots, base_gap), refinement=StepStats(**stats))


def _validate_segments(segs, coeffs0):
    n = len(coeffs0) - 1
    for seg in segs:
        if isinstance(seg, HalfTwist):
            require_int("half_twist index", seg.i, least=1, most=n - 1)
        elif isinstance(seg, CoefficientCircle):
            start = coeffs0[require_int("circle coefficient index", seg.index, most=n)]
            if abs(start) == 0:
                raise DomainError(f"circle segment needs a nonzero coefficient {seg.index}")
            # Comparisons, unlike a difference, read an int past the float range exactly.
            radius = _positive_real("circle radius", seg.radius)
            slack = 1e-9 * max(1.0, radius)
            if not radius - slack <= abs(start) <= radius + slack:
                raise DomainError(
                    f"circle radius {seg.radius} does not pass through coefficient {seg.index} = {start}"
                )
        else:
            raise DomainError(f"{seg!r} is not a Segment; parse_segment reads the text form")


def _float_start(floats, z, bits: int, gap_u: float):
    """z moved onto its root by complex-float Newton steps, on the grid of 2^-bits; z itself when floats cannot help.

    floats are the descending coefficients as complex floats, and gap_u the
    least squared root gap in units of u. Steps stop once one is below
    FLOAT_CONVERGED or |P(w)| is within Horner's rounding bound
    (n + 1) eps sum |c_k| |z|^k, where floats can tell w from the root no
    better. z comes back unchanged when the first step already stops, when
    floats fail (a zero derivative, an overflow, a value that is not finite,
    no stop in FLOAT_STEPS steps), or when FLOAT_MARGIN times that bound over
    |P'(w)| is not below the gap: there the float iterate could sit nearer
    another root. The point is only a start: intpoly.newton and the step
    tests decide whether the step is accepted.
    """
    one = 1 << bits
    # int / int rounds once at any size, where float() overflows past about 2^1024.
    w = complex(z[0] / one, z[1] / one)
    try:
        size, aw = 0.0, abs(w)
        for c in floats:
            size = size * aw + abs(c)
        noise = len(floats) * sys.float_info.epsilon * size
        for k in range(FLOAT_STEPS):
            p = dp = 0j
            for c in floats:
                dp = dp * w + p
                p = p * w + c
            step = p / dp
            w -= step
            if abs(step) < FLOAT_CONVERGED or abs(p) <= noise:
                break
        else:
            return z
        if k == 0 or not cmath.isfinite(w):
            return z
        # Squared in floats: the gap comes as a float in units of u, and a bound past the float range is inf.
        bound = FLOAT_MARGIN * noise / abs(dp)
        if not bound * bound < gap_u:
            return z
    except (ZeroDivisionError, OverflowError):
        return z
    return intpoly.fixed(w, bits)


def _track_segment(coeffs_at, moving, current, grid: _Grid, max_step, stats, where):
    """Continue the roots at indices `moving` from t = 0 to 1; the others stay put.

    A step is accepted when Newton converged on every moving root, each moved
    less than half the least distance, before the step, from a moving root to
    any other root (4 moved^2 < gap^2), and each stays more than the tolerance
    from every other root. Gaps among still roots need no check: they do not
    change, and a root moving less than half its distance to every other root
    cannot take another's place. Newton is trusted only where n + 1 units of
    rounding in the value, about one a Horner step while |u| <= 1, could not
    alone make a step past the target. When the step falls below the floor,
    the error says whether Newton or the root gaps refused the last try.
    A try makes one intpoly.newton call per moving root, started where
    _float_start moves the linear predictor's point; the float copy of the
    try's coefficients is made once a try.

    t, the step h, the floor and max_step are exact dyadics, held as integer
    numerators over one denominator unit = 2^D: max_step and the floor ratio
    are floats, and every other value is made from them by halving, doubling
    and the clip 1 - t. A halving that meets an odd numerator first doubles
    unit and every numerator. The path points and the predictor floor
    quotients that a common factor of numerator and denominator does not
    change, so every step is the one exact rationals give.
    """
    gap = _gap_sq(current, moving)
    one = 1 << grid.bits
    (h_max, unit), (ratio, ratio_unit) = max_step.as_integer_ratio(), STEP_FLOOR_RATIO.as_integer_ratio()
    h_max, floor, unit = h_max * ratio_unit, h_max * ratio, unit * ratio_unit
    t, h = 0, h_max
    # Until a step is accepted the predictor, led by prev_roots = current, predicts no move.
    prev_roots, prev_h = current, h
    streak = 0
    while t < unit:
        h = min(h, unit - t)
        desc = coeffs_at(t + h, unit)
        floats = [complex(x / one, y / one) for x, y in desc]
        # A lone root has gap inf, and inf / int overflows once the int is past the float range.
        gap_u = gap / (one * one) if gap < math.inf else gap
        corrected = list(current)
        moved = 0
        ok = converged = True
        for m in moving:
            # Linear predictor: continue the last accepted step, scaled to this one.
            (zr, zi), (pr, pi) = current[m], prev_roots[m]
            start = _float_start(floats, (zr + (zr - pr) * h // prev_h, zi + (zi - pi) * h // prev_h),
                                 grid.bits, gap_u)
            z = intpoly.newton(desc, start, grid.bits, grid.newton_sq, len(desc))
            if z is None:
                ok = converged = False
                break
            corrected[m] = z
            moved = max(moved, _dist_sq(z, current[m]))
        if ok:
            pairwise = _gap_sq(corrected, moving)
            ok = 4 * moved < gap and pairwise > grid.separation_sq
        if not ok:
            stats["halvings"] += 1
            streak = 0
            if h & 1:
                t, h, floor, h_max, prev_h, unit = (v << 1 for v in (t, h, floor, h_max, prev_h, unit))
            h >>= 1
            if h < floor:
                raise PrecisionError(
                    f"step size fell below the floor near t={t / unit:.6f} in {where}; "
                    + (f"precision ran out at {grid.precision_bits} bits" if not converged
                       else "root collision suspected")
                )
            continue
        prev_roots, prev_h = current, h
        current, gap = corrected, pairwise
        t += h
        stats["steps"] += 1
        stats["min_step"] = min(stats["min_step"], h / unit)
        streak += 1
        if streak >= 4 and h < h_max:
            h = min(h_max, h * 2)
            streak = 0
    return current


def _match(finals, base_roots, base_gap):
    """The base root each final root ends on, nearer than half the least base gap.

    The root tracked from base root k is finals[k]; base_gap is the least
    squared distance between two base roots, so the test 4 d^2 < base_gap
    is exact.
    """
    perm = []
    for k, z in enumerate(finals):
        dists = [_dist_sq(z, r) for r in base_roots]
        j = min(range(len(base_roots)), key=dists.__getitem__)
        if 4 * dists[j] >= base_gap:
            raise ConsistencyError(
                f"the root tracked from base root {k + 1} ends no nearer than half "
                "the least base root gap to any base root"
            )
        perm.append(j)
    if len(set(perm)) != len(perm):
        raise ConsistencyError("final-to-initial root matching is not a bijection")
    return tuple(perm)


# --- canonical constructions ---------------------------------------------------

def base_with_integer_roots(n: int):
    """Ascending coefficients of prod_{j=1..n} (z - j), exact integers."""
    require_int("generator loop degree n", n, least=2)
    return intpoly.from_roots(range(1, n + 1))


def word_loop(n: int, word, **kwargs) -> MonodromyLoop:
    """Track the concatenation of generator half-twists named by `word`."""
    base = base_with_integer_roots(n)
    word = validate_word(n, word)
    if not word:
        raise DomainError("word_loop needs at least one letter")
    return track_roots(base, [HalfTwist(i) for i in word], **kwargs)


@dataclass(frozen=True)
class SphericalCheck:
    loop: MonodromyLoop
    identity: bool


def spherical_word_check(n: int, **kwargs) -> SphericalCheck:
    """Track the relation word 1..n-1, n-1..1; its monodromy must be trivial."""
    require_int("generator loop degree n", n, least=2)
    word = list(range(1, n)) + list(range(n - 1, 0, -1))
    loop = word_loop(n, word, **kwargs)
    return SphericalCheck(loop=loop, identity=loop.permutation == identity_perm(n))


@dataclass(frozen=True)
class DefiningRepReport:
    """Tracked generators, the group they generate, and the character split."""

    generator_permutations: tuple[tuple[int, ...], ...]
    word_checks_ok: bool
    group_order: int
    decomposition: dict


def _require_connected_transpositions(n: int, perms) -> None:
    """Transpositions generate S_n exactly when their graph on the n points is connected.

    Raises ConsistencyError naming the first generator that is not a
    transposition, or the connected components of the roots (1-based).
    """
    label = list(range(n))
    for i, p in enumerate(perms, start=1):
        moved = [x for x in range(n) if p[x] != x]
        if len(moved) != 2:
            raise ConsistencyError(
                f"tracked generator {i} is {cycle_notation(p)}, not a transposition"
            )
        old, new = label[moved[0]], label[moved[1]]
        label = [new if lab == old else lab for lab in label]
    components: dict[int, list[int]] = {}
    for x, lab in enumerate(label):
        components.setdefault(lab, []).append(x + 1)
    if len(components) > 1:
        raise ConsistencyError(
            "tracked transpositions leave the roots disconnected: "
            + ", ".join("{" + ", ".join(map(str, c)) + "}" for c in components.values())
        )


def defining_rep_decomposition(n: int, sample_loops: int = DEFAULT_SAMPLE_LOOPS, seed: int = 0,
                               **kwargs) -> DefiningRepReport:
    """Decompose the permutation action of tracked loops on the n roots.

    Tracks every standard generator loop plus `sample_loops` random generator
    words (each tracked word must match the composition of the tracked
    generator permutations), verifies the tracked generators are
    transpositions with a connected graph on the roots, so that they generate
    all of S_n, then splits the fixed-point character against the character
    table. The split must come out {(n): 1, (n-1, 1): 1}; callers assert that.
    """
    require_int("generator loop degree n", n, least=2)
    require_int("sample_loops", sample_loops)
    gen_perms = [word_loop(n, [i], **kwargs).permutation for i in range(1, n)]
    _require_connected_transpositions(n, gen_perms)

    rng = random.Random(seed)
    word_checks_ok = True
    for _ in range(sample_loops):
        word = [rng.randrange(1, n) for _ in range(rng.randrange(2, 2 * n))]
        tracked = word_loop(n, word, **kwargs).permutation
        expected = identity_perm(n)
        for letter in word:
            expected = compose(gen_perms[letter - 1], expected)
        if tracked != expected:
            word_checks_ok = False

    table = character_table(n)
    weighed = table.weigh(cc.cycle_type.count(1) for cc in table.classes)
    decomposition = {lam: m for lam in table.irreducibles if (m := table.weighed_multiplicity(weighed, lam))}
    return DefiningRepReport(
        generator_permutations=tuple(gen_perms),
        word_checks_ok=word_checks_ok,
        group_order=factorial(n),
        decomposition=decomposition,
    )
