"""Root monodromy of closed loops in the space of squarefree polynomials.

A loop is a list of closed segments deforming the coefficient vector of a
degree-n polynomial and returning to it. Roots are continued along sampled
parameter steps by a linear predictor plus Newton correction at extended
precision (mpmath, 96 bits by default), with nearest-neighbor matching
accepted only while every root moved less than half the minimal pairwise
root distance; otherwise the step is halved, down to a hard floor of 2^-20
of the initial step. The permutation of the starting roots induced by the
loop is the output; it is read off exactly once the final roots are matched
back to the initial ones.

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

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath

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

    def roots_at(self, t: float, base_roots):
        rs = list(base_roots)
        a, b = rs[self.i - 1], rs[self.i]
        mid = (a + b) / 2
        half = (b - a) / 2
        if t <= 1 / 3:
            s = 1 - (3 * t) / 2  # radius factor 1 -> 1/2
            lo, hi = mid - half * s, mid + half * s
        elif t <= 2 / 3:
            phase = mpmath.expjpi(3 * t - 1)
            lo, hi = mid - half * phase / 2, mid + half * phase / 2
        else:
            s = (3 * t - 2) / 2 + mpmath.mpf(1) / 2  # 1/2 -> 1, swapped
            lo, hi = mid + half * s, mid - half * s
        rs[self.i - 1], rs[self.i] = lo, hi
        return rs

    def coeffs_at(self, t: float, ctx: "TrackContext"):
        return _poly_from_roots(self.roots_at(t, ctx.base_roots), ctx.leading)

    def describe(self) -> str:
        return f"half_twist({self.i})"


@dataclass(frozen=True)
class CoefficientCircle:
    """Coefficient `index` rides its origin-centered circle once, counterclockwise."""

    index: int
    radius: float

    def coeffs_at(self, t: float, ctx: "TrackContext"):
        coeffs = list(ctx.base_coeffs)
        coeffs[self.index] = coeffs[self.index] * mpmath.expjpi(2 * t)
        return coeffs

    def describe(self) -> str:
        return f"circle({self.index}, {self.radius})"


Segment = HalfTwist | CoefficientCircle

_SEGMENT_RE = re.compile(r"^\s*(half_twist|circle)\s*\(\s*([^)]*)\)\s*$")


def parse_segment(spec) -> Segment:
    """Accept "half_twist(2)" / "circle(0, 1.0)" strings or explicit dicts."""
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "half_twist":
            return HalfTwist(int(spec["i"]))
        if kind == "circle":
            return CoefficientCircle(int(spec["index"]), float(spec["radius"]))
        raise DomainError(f"unknown segment type {kind!r}")
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
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad segment argument in {spec!r}: {exc}") from None


def parse_loop_spec(data: dict):
    """Split a loop description mapping into (base, segments, tolerance)."""
    if "base" not in data or "segments" not in data:
        raise DomainError("loop spec needs 'base' and 'segments'")
    base = [_as_complex(c) for c in data["base"]]
    segments = [parse_segment(s) for s in data["segments"]]
    tolerance = float(data.get("tolerance", DEFAULT_TOLERANCE))
    if tolerance <= 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    return base, segments, tolerance


def _as_complex(entry) -> complex:
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise DomainError(f"complex coefficient entries are [re, im], got {entry!r}")
        return complex(float(entry[0]), float(entry[1]))
    return complex(entry)


# --- polynomial helpers -------------------------------------------------------

def _poly_from_roots(roots, leading):
    coeffs = [mpmath.mpc(leading)]
    for r in roots:
        nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * (-r)
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs  # ascending


def _eval_poly(coeffs, z):
    acc = mpmath.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _eval_dpoly(coeffs, z):
    acc = mpmath.mpc(0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * z + i * coeffs[i]
    return acc


def _min_gap(roots):
    best = None
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = abs(roots[i] - roots[j])
            if best is None or d < best:
                best = d
    return best


def _sorted_roots(coeffs):
    deg = len(coeffs) - 1
    if deg < 1:
        raise DomainError("monodromy needs degree >= 1")
    if coeffs[-1] == 0:
        raise DomainError("leading coefficient of the base polynomial must be nonzero")
    raw = mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)], maxsteps=200, extraprec=80)
    return sorted(raw, key=lambda z: (mpmath.re(z), mpmath.im(z)))


# --- tracking -----------------------------------------------------------------

@dataclass(frozen=True)
class TrackContext:
    base_coeffs: tuple
    base_roots: tuple
    leading: object


@dataclass(frozen=True)
class StepStats:
    initial_step: float
    min_step: float
    steps: int
    halvings: int


@dataclass(frozen=True)
class MonodromyLoop:
    """A tracked loop: its data, the induced root permutation, and step records."""

    base: tuple
    segments: tuple
    permutation: tuple[int, ...]
    refinement: StepStats
    tolerance: float
    precision_bits: int

    def notation(self) -> str:
        return cycle_notation(self.permutation)


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
    """
    if precision_bits < MIN_PRECISION_BITS:
        raise DomainError(f"precision must be at least {MIN_PRECISION_BITS} bits, got {precision_bits}")
    if tolerance <= 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    if not segments:
        raise DomainError("a loop needs at least one segment")
    segs = [parse_segment(s) if not isinstance(s, (HalfTwist, CoefficientCircle)) else s for s in segments]
    with mpmath.workprec(precision_bits):
        coeffs0 = [mpmath.mpc(c) for c in base]
        roots0 = _sorted_roots(coeffs0)
        gap0 = _min_gap(roots0)
        if gap0 is not None and gap0 <= tolerance:
            raise DomainError("base polynomial is not resolvably squarefree at this tolerance")
        ctx = TrackContext(
            base_coeffs=tuple(coeffs0), base_roots=tuple(roots0), leading=coeffs0[-1]
        )
        _validate_segments(segs, ctx)

        current = list(roots0)
        stats = {"steps": 0, "halvings": 0, "min_step": max_step}
        for seg_index, seg in enumerate(segs):
            current = _track_segment(seg, ctx, current, tolerance, max_step, stats, seg_index)

        perm = _match(current, roots0, tolerance)
    return MonodromyLoop(
        base=tuple(complex(c) for c in base),
        segments=tuple(segs),
        permutation=perm,
        refinement=StepStats(
            initial_step=max_step,
            min_step=stats["min_step"],
            steps=stats["steps"],
            halvings=stats["halvings"],
        ),
        tolerance=tolerance,
        precision_bits=precision_bits,
    )


def _validate_segments(segs, ctx):
    n = len(ctx.base_coeffs) - 1
    for seg in segs:
        if isinstance(seg, HalfTwist):
            if not 1 <= seg.i <= n - 1:
                raise DomainError(f"half_twist index {seg.i} out of range 1..{n - 1}")
        else:
            if not 0 <= seg.index <= n:
                raise DomainError(f"circle coefficient index {seg.index} out of range 0..{n}")
            start = ctx.base_coeffs[seg.index]
            if abs(start) == 0:
                raise DomainError(f"circle segment needs a nonzero coefficient {seg.index}")
            if abs(abs(start) - seg.radius) > 1e-9 * max(1.0, seg.radius):
                raise DomainError(
                    f"circle radius {seg.radius} does not pass through coefficient "
                    f"{seg.index} = {complex(start)}"
                )


def _track_segment(seg, ctx, current, tolerance, max_step, stats, seg_index):
    t = mpmath.mpf(0)
    h = mpmath.mpf(max_step)
    floor = mpmath.mpf(max_step) * STEP_FLOOR_RATIO
    prev_roots = None
    prev_h = None
    streak = 0
    while t < 1:
        remaining = 1 - t
        if h >= remaining:
            h = remaining
            t_next = mpmath.mpf(1)
        else:
            t_next = t + h
        coeffs = seg.coeffs_at(t_next, ctx)
        gap = _min_gap(current)
        guard = gap / 2 if gap is not None else mpmath.inf
        if prev_roots is not None and prev_h:
            ratio = h / prev_h
            predicted = [c + (c - p) * ratio for c, p in zip(current, prev_roots)]
        else:
            predicted = list(current)
        corrected = _newton_all(coeffs, predicted, tolerance)
        ok = corrected is not None
        if ok:
            moved = max(abs(a - b) for a, b in zip(corrected, current))
            pairwise = _min_gap(corrected)
            ok = moved < guard and (pairwise is None or pairwise > tolerance)
        if not ok:
            stats["halvings"] += 1
            h = h / 2
            streak = 0
            if h < floor:
                raise PrecisionError(
                    f"step size fell below the floor near t={float(t):.6f} in segment "
                    f"{seg_index} ({seg.describe()}); root collision suspected"
                )
            continue
        prev_roots, prev_h = current, h
        current = corrected
        t = t_next
        stats["steps"] += 1
        stats["min_step"] = min(stats["min_step"], float(h))
        streak += 1
        if streak >= 4 and h < max_step:
            h = min(mpmath.mpf(max_step), h * 2)
            streak = 0
    return current


def _newton_all(coeffs, guesses, tolerance):
    target = mpmath.mpf(tolerance) / 8
    out = []
    for z in guesses:
        z = mpmath.mpc(z)
        converged = False
        for _ in range(60):
            d = _eval_dpoly(coeffs, z)
            if d == 0:
                break
            step = _eval_poly(coeffs, z) / d
            z -= step
            if abs(step) < target:
                converged = True
                break
        if not converged:
            return None
        out.append(z)
    return out


def _match(finals, initials, tolerance):
    gap = _min_gap(initials)
    guard = gap / 2 if gap is not None else mpmath.inf
    perm = []
    for z in finals:
        dists = [abs(z - r) for r in initials]
        j = min(range(len(initials)), key=dists.__getitem__)
        if dists[j] >= guard:
            raise ConsistencyError(
                f"final root {complex(z)} is not within half the base root gap of any base root"
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
    coeffs = [1]
    for r in range(1, n + 1):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += -r * c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def standard_generator_loop(n: int, i: int, **kwargs) -> MonodromyLoop:
    """Track the half-twist of roots i, i+1 over the base with roots 1..n."""
    if not 1 <= i <= n - 1:
        raise DomainError(f"generator index must satisfy 1 <= i <= {n - 1}, got {i}")
    return track_roots(base_with_integer_roots(n), [HalfTwist(i)], **kwargs)


def word_loop(n: int, word, **kwargs) -> MonodromyLoop:
    """Track the concatenation of generator half-twists named by `word`."""
    if not word:
        raise DomainError("word_loop needs at least one letter")
    return track_roots(base_with_integer_roots(n), [HalfTwist(i) for i in word], **kwargs)


@dataclass(frozen=True)
class SphericalCheck:
    n: int
    loop: MonodromyLoop
    identity: bool


def spherical_word_check(n: int, **kwargs) -> SphericalCheck:
    """Track the relation word 1..n-1, n-1..1; its monodromy must be trivial."""
    word = list(range(1, n)) + list(range(n - 1, 0, -1))
    loop = word_loop(n, word, **kwargs)
    return SphericalCheck(n=n, loop=loop, identity=loop.permutation == identity_perm(n))


@dataclass(frozen=True)
class DefiningRepReport:
    """Tracked generators, the group they generate, and the character split."""

    n: int
    generator_permutations: tuple[tuple[int, ...], ...]
    word_samples: int
    word_checks_ok: bool
    group_order: int
    decomposition: dict
    seed: int


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
    from .characters import character_table

    if n < 2:
        raise DomainError(f"the defining action needs n >= 2 roots, got {n}")
    gen_perms = [standard_generator_loop(n, i, **kwargs).permutation for i in range(1, n)]
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
    decomposition = {}
    for lam in table.irreducibles:
        mult = table.inner_product(table.row(lam), fixed)
        if mult:
            decomposition[lam] = mult
    return DefiningRepReport(
        n=n,
        generator_permutations=tuple(gen_perms),
        word_samples=sample_loops,
        word_checks_ok=word_checks_ok,
        group_order=factorial(n),
        decomposition=decomposition,
        seed=seed,
    )
