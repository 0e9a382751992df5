"""Root monodromy of closed loops in the space of squarefree polynomials.

A loop is a list of closed segments deforming the coefficient vector of a
degree-n polynomial and returning to it. Roots are continued along sampled
parameter steps by a linear predictor plus Newton correction in
intpoly.newton, the fixed-point kernel that also refines Sylvester supports:
each root is a pair of Python ints scaled by 2^F, with F = precision_bits +
ceil(log2(8 / tolerance)), so the kernel carries precision_bits bits (96 by
default) below the Newton target tolerance/8. Coefficients are held for
u = z / 2^s, with 2^s a power of two at least every base root modulus, so
small or clustered roots keep their relative precision. A step is accepted
only while no moving root moved half the least distance from a moving root
to another root and each stays more than the tolerance from all others, by
exact comparisons of squared integers; else the step is halved, down to a
hard floor of 2^-20 of the initial step. A half-twist corrects only its two
moving roots, on the fixed product of the n - 2 still roots times one moving
quadratic; a circle rescales one coefficient. A base equal to prod(z - j),
j = 1..n, the base of every generator loop, starts from its exact roots, which
land on the grid exactly; any other base has its roots isolated by mpmath
and floored onto the grid. Every path point is an exact rational turn
floored once, so a loop on prod(z - j) runs on the stdlib alone. On the grid
the base roots must stay more than the tolerance apart, and each final root
must end nearer than half the least base gap to one base root; that match
reads off the permutation of the starting roots that the loop induces.

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
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath

from . import intpoly
from .characters import character_table
from .config import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS
from .errors import ConsistencyError, DomainError, PrecisionError
from .permutations import (
    compose,
    cycle_notation,
    identity_perm,
)

DEFAULT_TOLERANCE = 2.0**-48
DEFAULT_MAX_STEP = 1.0 / 32
STEP_FLOOR_RATIO = 2.0**-20


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
    return base, segments, _checked_tolerance(data.get("tolerance", DEFAULT_TOLERANCE))


def _checked_tolerance(tolerance) -> float:
    """The tolerance as a float; a DomainError unless it is a positive finite number."""
    # JSON true and false would otherwise pass as the numbers 1 and 0.
    if isinstance(tolerance, bool):
        raise DomainError(f"tolerance must be a number, got {tolerance!r}")
    try:
        value = float(tolerance)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"tolerance must be a number, got {tolerance!r}") from None
    if not 0 < value < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {value}")
    return value


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


# --- base roots ---------------------------------------------------------------

def _sorted_roots(coeffs, precision_bits: int):
    with mpmath.workprec(precision_bits):
        try:
            raw = mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)], maxsteps=200, extraprec=80)
        except mpmath.libmp.NoConvergence as exc:
            raise PrecisionError(f"base roots did not converge: {exc}") from None
    return sorted(raw, key=lambda z: (mpmath.re(z), mpmath.im(z)))


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
    return _Grid(precision_bits + 4 - exp + scale, scale, target**2, (8 * target) ** 2)


def _dist_sq(a, b) -> int:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def _gap_sq(roots, moving):
    """The least squared distance from a root at an index in `moving` to any other root; inf if there is none."""
    moving = set(moving)
    return min((_dist_sq(roots[m], z) for m in moving for k, z in enumerate(roots) if k > m or k not in moving),
               default=math.inf)


def _turn(u: Fraction, bits: int) -> tuple[int, int]:
    """The point at fraction u of a counterclockwise unit turn, in fixed point, floored once.

    It is i^k ((1 - s^2) + 2is) / (1 + s^2) with k = floor(4u), s = 4u - k.
    """
    k, r = divmod(4 * u.numerator, q := u.denominator)
    x, y, den = q * q - r * r, 2 * r * q, q * q + r * r
    for _ in range(k % 4):
        x, y = -y, x
    return (x << bits) // den, (y << bits) // den


def _monic(coeffs0, grid: _Grid):
    """Descending fixed-point coefficients, in u, of the base over its leading coefficient.

    The coefficient of z^k becomes a_k * 2^(s(k - n)) in u, read exactly by intpoly.gaussian and floored once.
    """
    _, gauss = intpoly.gaussian(coeffs0)
    (lead_r, lead_i), n = gauss[-1], len(gauss) - 1
    norm = lead_r * lead_r + lead_i * lead_i
    out = []
    for k in range(n, -1, -1):
        cr, ci = gauss[k]
        shift = grid.bits + grid.scale * (k - n)
        up, den = max(0, shift), norm << max(0, -shift)
        out.append((((cr * lead_r + ci * lead_i) << up) // den, ((ci * lead_r - cr * lead_i) << up) // den))
    return out


def _half_twist_path(i: int, base_roots, bits: int):
    """Coefficients along half_twist(i) at t, as one function.

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

    def coeffs_at(t: Fraction):
        num, den = t.numerator, t.denominator
        if den < 3 * num <= 2 * den:
            w2 = _turn(3 * t - 1, bits - 2)
        else:
            # w = 1 - 3t/2 up to t = 1/3 and -(3t - 1)/2 from t = 2/3.
            w = 2 * den - 3 * num if 3 * num <= den else 3 * num - den
            w2 = ((w * w << bits) // (4 * den * den), 0)
        dw = intpoly.times(d2, w2, bits)
        c = ((s2[0] - dw[0]) >> 2, (s2[1] - dw[1]) >> 2)
        return fixed_part[:2] + [(fr + cq[0], fi + cq[1])
                                 for (fr, fi), cq in zip(fixed_part[2:], (intpoly.times(c, x, bits) for x in q))]

    return coeffs_at


def _circle_path(index: int, monic, bits: int):
    """Coefficients along circle(index, r) at t: one coefficient times _turn(t)."""
    k = len(monic) - 1 - index

    def coeffs_at(t: Fraction):
        out = list(monic)
        out[k] = intpoly.times(monic[k], _turn(t, bits), bits)
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
) -> MonodromyLoop:
    """Continue all roots of `base` around the closed path and read the permutation.

    base: ascending coefficients (constant term first) of a squarefree
    polynomial; segments: a list of Segment values (each closed at base).
    A base equal to prod(z - j), j = 1..n, starts from its roots 1..n;
    mpmath isolates the roots of any other base.
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise DomainError(f"precision must be at least {MIN_PRECISION_BITS} bits, got {precision_bits}")
    tolerance = _checked_tolerance(tolerance)
    if not segments:
        raise DomainError("a loop needs at least one segment")
    base = list(base)
    if len(base) < 2:
        raise DomainError("monodromy needs degree >= 1")
    if base[-1] == 0:
        raise DomainError("leading coefficient of the base polynomial must be nonzero")
    _validate_segments(segments, base)
    # Python compares int, float, complex, Fraction and mpf with an int
    # exactly, so only the polynomial prod(z - j) itself passes.
    integer_roots = list(range(1, len(base)))
    roots0 = integer_roots if base == intpoly.from_roots(integer_roots) else _sorted_roots(base, precision_bits)
    grid = _grid(precision_bits, tolerance, roots0)
    # z = U / 2^(F - s) for a grid value U of u.
    base_roots = [intpoly.fixed(r, grid.bits - grid.scale) for r in roots0]
    base_gap = _gap_sq(base_roots, range(len(base_roots)))
    if base_gap <= grid.separation_sq:
        raise DomainError("base polynomial is not resolvably squarefree at this tolerance")
    monic = _monic(base, grid)

    current = base_roots
    stats = {"steps": 0, "halvings": 0, "min_step": max_step}
    for seg_index, seg in enumerate(segments):
        if isinstance(seg, HalfTwist):
            coeffs_at = _half_twist_path(seg.i, base_roots, grid.bits)
            # Roots are continued in tracked order; the pair to move is the one
            # now sitting at base positions i and i+1.
            moving = [min(range(len(current)), key=lambda k: _dist_sq(current[k], base_roots[j]))
                      for j in (seg.i - 1, seg.i)]
        else:
            coeffs_at = _circle_path(seg.index, monic, grid.bits)
            moving = range(len(current))
        current = _track_segment(coeffs_at, moving, current, grid, max_step, stats,
                                 f"segment {seg_index} ({seg.describe()})")
    return MonodromyLoop(permutation=_match(current, base_roots, base_gap), refinement=StepStats(**stats))


def _validate_segments(segs, coeffs0):
    n = len(coeffs0) - 1
    for seg in segs:
        if isinstance(seg, HalfTwist):
            if not 1 <= seg.i <= n - 1:
                raise DomainError(f"half_twist index {seg.i} out of range 1..{n - 1}")
        elif isinstance(seg, CoefficientCircle):
            if not 0 <= seg.index <= n:
                raise DomainError(f"circle coefficient index {seg.index} out of range 0..{n}")
            start = coeffs0[seg.index]
            if abs(start) == 0:
                raise DomainError(f"circle segment needs a nonzero coefficient {seg.index}")
            # Comparisons, unlike a difference, read an int past the float range exactly.
            slack = 1e-9 * max(1.0, seg.radius)
            if not seg.radius - slack <= abs(start) <= seg.radius + slack:
                raise DomainError(
                    f"circle radius {seg.radius} does not pass through coefficient {seg.index} = {start}"
                )
        else:
            raise DomainError(f"{seg!r} is not a Segment; parse_segment reads the text form")


def _track_segment(coeffs_at, moving, current, grid: _Grid, max_step, stats, where):
    """Continue the roots at indices `moving` from t = 0 to 1; the others stay put.

    A step is accepted when Newton converged on every moving root, each moved
    less than half the least distance, before the step, from a moving root to
    any other root (4 moved^2 < gap^2), and each stays more than the tolerance
    from every other root. Gaps among still roots need no check: they do not
    change, and a root moving less than half its distance to every other root
    cannot take another's place.
    """
    gap = _gap_sq(current, moving)
    t = Fraction(0)
    h = Fraction(max_step)
    floor = h * Fraction(STEP_FLOOR_RATIO)
    prev_roots = None
    prev_h = None
    streak = 0
    while t < 1:
        if h >= 1 - t:
            h = 1 - t
        desc = coeffs_at(t + h)
        num, den = (h / prev_h).as_integer_ratio() if prev_roots is not None else (0, 1)
        corrected = list(current)
        moved = 0
        ok = True
        for m in moving:
            # Linear predictor: continue the last accepted step, scaled to this one.
            (zr, zi), (pr, pi) = current[m], (prev_roots or current)[m]
            z = intpoly.newton(desc, (zr + (zr - pr) * num // den, zi + (zi - pi) * num // den),
                               grid.bits, grid.newton_sq)
            if z is None:
                ok = False
                break
            corrected[m] = z
            moved = max(moved, _dist_sq(z, current[m]))
        if ok:
            pairwise = _gap_sq(corrected, moving)
            ok = 4 * moved < gap and pairwise > grid.separation_sq
        if not ok:
            stats["halvings"] += 1
            h = h / 2
            streak = 0
            if h < floor:
                raise PrecisionError(
                    f"step size fell below the floor near t={float(t):.6f} in {where}; "
                    "root collision suspected"
                )
            continue
        prev_roots, prev_h = current, h
        current, gap = corrected, pairwise
        t += h
        stats["steps"] += 1
        stats["min_step"] = min(stats["min_step"], float(h))
        streak += 1
        if streak >= 4 and h < max_step:
            h = min(Fraction(max_step), h * 2)
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
    if n < 2:
        raise DomainError(f"generator loops need degree >= 2, got {n}")
    return intpoly.from_roots(range(1, n + 1))


def word_loop(n: int, word, **kwargs) -> MonodromyLoop:
    """Track the concatenation of generator half-twists named by `word`."""
    if not word:
        raise DomainError("word_loop needs at least one letter")
    return track_roots(base_with_integer_roots(n), [HalfTwist(i) for i in word], **kwargs)


@dataclass(frozen=True)
class SphericalCheck:
    loop: MonodromyLoop
    identity: bool


def spherical_word_check(n: int, **kwargs) -> SphericalCheck:
    """Track the relation word 1..n-1, n-1..1; its monodromy must be trivial."""
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


def defining_rep_decomposition(n: int, sample_loops: int = 3, seed: int = 0, **kwargs) -> DefiningRepReport:
    """Decompose the permutation action of tracked loops on the n roots.

    Tracks every standard generator loop plus `sample_loops` random generator
    words (each tracked word must match the composition of the tracked
    generator permutations), verifies the tracked generators are
    transpositions with a connected graph on the roots, so that they generate
    all of S_n, then splits the fixed-point character against the character
    table. The split must come out {(n): 1, (n-1, 1): 1}; callers assert that.
    """
    if n < 2:
        raise DomainError(f"the defining action needs n >= 2 roots, got {n}")
    if sample_loops < 0:
        raise DomainError(f"sample_loops must be nonnegative, got {sample_loops}")
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
    fixed = tuple(cc.cycle_type.count(1) for cc in table.classes)
    decomposition = {lam: m for lam in table.irreducibles if (m := table.multiplicity(fixed, lam))}
    return DefiningRepReport(
        generator_permutations=tuple(gen_perms),
        word_checks_ok=word_checks_ok,
        group_order=factorial(n),
        decomposition=decomposition,
    )
