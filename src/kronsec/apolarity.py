"""Apolarity of binary forms: catalecticants, secant membership, Sylvester decomposition.

A binary form of degree n is stored by its n+1 rational coefficients
(a_0, ..., a_n) meaning sum_i a_i x^(n-i) y^i. The degree-k catalecticant is
the matrix of the literal differentiation pairing q |-> q(d/dx, d/dy) p on the
monomial bases, with falling-factorial scaling and no binomial renormalization,
so entry (i, j) is a_(i+j) times an explicit integer. Its kernel is the
degree-k slice of the apolar ideal of p:

  * nontrivial kernel at degree k  <=>  p lies on the k-th secant of the
    degree-n power curve;
  * a squarefree kernel form of minimal degree k factors into k distinct
    linear forms whose dual points support an exact rank-k decomposition;
  * a non-squarefree unique generator means rank n - k + 2 (Sylvester's
    alternative) and no finite support is reported.

The minimal such k is r, the rank of the middle catalecticant. It is
found mod a prime and certified exactly: the rows of C_mid independent mod
p give r_p <= r, and an exact nonzero kernel of the rows of C_(r_p)
independent mod p, checked against every row of C_(r_p), gives r <= r_p.
That kernel is the annihilator space of the Sylvester path. When a check
fails (an unlucky prime) the exact route runs instead: the rank of C_mid
over Q, then the kernel of all of C_r. Every catalecticant is built once
as integer rows: the rows of C_k scaled to a Hankel matrix of integers.

Every support comes from intpoly's float Aberth-Ehrlich seeds, one per
root. Rational points are exact: one matcher proposes them, compared
exactly on integers, and exact evaluation verifies them; their coefficients
come by partial fractions over the annihilator and an exact rebuild. Each
seed the matcher leaves over is refined by intpoly.newton on the integer
annihilator into a certified disc whose exact, rounded-up radius is below a
configurable target, and the matcher runs again on the refined centres.
The points, one per seed, are checked pairwise disjoint, which proves them
all the roots, and a numeric solve gives the coefficients. mpmath.polyroots
supplies the approximations only when the seeds fail: none come back, a
refinement stalls, or two discs meet.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import comb, factorial, gcd, inf, isqrt, lcm, ldexp, nextafter
from operator import mul
from typing import Sequence

import mpmath

from . import intpoly, ratmat
from .config import DEFAULT_PRECISION_BITS
from .errors import ConsistencyError, DomainError, PrecisionError

RESAMPLE_BOUND = 32
# Largest denominator of an exact support point; a rational root with a
# larger one comes out as a certified approximation.
DENOMINATOR_BOUND = 10**12
# Guard bits the numeric coefficient solve works at above `precision_bits`;
# the CLI prints approximate values with the digits that read this precision
# back, so the printed certificate rebuilds the form within its error_bound.
SOLVE_GUARD_BITS = 96
# A float seed with |im| <= NEAR_REAL |z| is taken as real: floats cannot
# tell a real root from one this near the axis, and Newton keeps a real
# start real.
NEAR_REAL = 1e-12


# --- the form type and its text format --------------------------------------

@dataclass(frozen=True)
class BinaryForm:
    """A nonzero homogeneous polynomial sum a_i x^(n-i) y^i of degree n >= 1."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise DomainError(f"form degree must be >= 1, got {self.degree}")
        if len(self.coeffs) != self.degree + 1:
            raise DomainError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )
        if not any(self.coeffs):
            raise DomainError("the zero form is not admitted as a BinaryForm")

    def __str__(self) -> str:
        return format_form(self)


def form(degree: int, coeffs) -> BinaryForm:
    return BinaryForm(degree, tuple(Fraction(c) for c in coeffs))


_FORM_RE = re.compile(r"^\s*deg\s*=\s*(\d+)\s*;\s*coeffs\s*=\s*(.*?)\s*$")


def parse_form(text: str) -> BinaryForm:
    """Parse "deg=3; coeffs=1,0,0,1"; rationals may be written p/q."""
    m = _FORM_RE.match(text)
    if not m:
        raise DomainError(f"not a form literal: {text!r} (expected 'deg=n; coeffs=a_0,...,a_n')")
    degree = int(m.group(1))
    try:
        coeffs = tuple(Fraction(part.strip()) for part in m.group(2).split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad coefficient list in {text!r}: {exc}") from exc
    return BinaryForm(degree, coeffs)


def format_form(f: BinaryForm) -> str:
    return f"deg={f.degree}; coeffs=" + ",".join(str(c) for c in f.coeffs)


def add_forms(p: BinaryForm, q: BinaryForm) -> BinaryForm | None:
    """Coefficientwise sum; None encodes the zero form."""
    if p.degree != q.degree:
        raise DomainError(f"cannot add forms of degrees {p.degree} and {q.degree}")
    coeffs = tuple(a + b for a, b in zip(p.coeffs, q.coeffs))
    if not any(coeffs):
        return None
    return BinaryForm(p.degree, coeffs)


def power_form(alpha, beta, n: int, scale=1) -> BinaryForm:
    """scale * (alpha x + beta y)^n."""
    a, b, s = Fraction(alpha), Fraction(beta), Fraction(scale)
    if not (a or b):
        raise DomainError("power_form needs (alpha, beta) != (0, 0)")
    return BinaryForm(n, tuple(s * comb(n, j) * a ** (n - j) * b**j for j in range(n + 1)))


# --- catalecticants ----------------------------------------------------------

def _moments(n: int, coeffs: Sequence) -> list:
    """b_m = a_m m! (n-m)!, so that row i of C_k times i! (n-k-i)! is (b_i, ..., b_(i+k)).

    Entry (i, j) of C_k is a_(i+j) (n-i-j)!/(n-k-i)! (i+j)!/i! (falling
    factorials), which is b_(i+j) / (i! (n-k-i)!).
    """
    return [a * factorial(m) * factorial(n - m) for m, a in enumerate(coeffs)]


def _hankel(b: list, k: int) -> list[list]:
    """The rows (b_i, ..., b_(i+k)), i = 0..n-k: C_k with row i times i! (n-k-i)!."""
    return [b[i:i + k + 1] for i in range(len(b) - k)]


def _integer_moments(p: BinaryForm) -> list[int]:
    """_moments of p times the lcm of its denominators, over the gcd of the numerators.

    Scaling the form by a nonzero rational and a row by a nonzero integer
    keeps every row space, so _hankel of these integers has the ranks and
    kernels of the catalecticants; ratmat clears the same row contents.
    """
    scale = lcm(*(a.denominator for a in p.coeffs))
    ints = [a.numerator * (scale // a.denominator) for a in p.coeffs]
    content = gcd(*ints)
    return _moments(p.degree, [x // content for x in ints])


def catalecticant(p: BinaryForm, k: int) -> ratmat.Matrix:
    """The (n-k+1) x (k+1) catalecticant of p at operator degree k, as row lists.

    It is the matrix of q |-> q(d/dx, d/dy) p from degree-k operators to
    degree-(n-k) forms.

    Column j is (d/dx)^(k-j) (d/dy)^j applied to p on the basis x^(n-k-i) y^i,
    so entry (i, j) is a_(i+j) (n-i-j)!/(n-k-i)! (i+j)!/i! (see _moments).
    """
    n = p.degree
    if not 1 <= k <= n:
        raise DomainError(f"operator degree must satisfy 1 <= k <= {n}, got {k}")
    rows = _hankel(_moments(n, p.coeffs), k)
    return [[x / (factorial(i) * factorial(n - k - i)) for x in row] for i, row in enumerate(rows)]


def _annihilates(basis: list[list[Fraction]], rows: list[list[int]]) -> bool:
    """Every vector of basis is exactly orthogonal to every integer row."""
    for v in basis:
        scale = lcm(*(x.denominator for x in v))
        w = [x.numerator * (scale // x.denominator) for x in v]
        if any(sum(map(mul, row, w)) for row in rows):
            return False
    return True


def _apolar_kernel(p: BinaryForm, degree_only: bool = False) -> tuple[int, list[list[Fraction]] | None]:
    """r = min_apolar_degree(p) and ratmat.kernel_basis of C_r, proven from ranks mod a prime.

    With P = intpoly.SQUAREFREE_PRIME and mid = max(1, n // 2):
      * the rows of C_mid independent mod P are independent over Q, so
        k = max(1, their number) <= r;
      * the exact kernel of the rows of C_k independent mod P contains
        ker C_k; a nonzero basis of it annihilating every row of C_k is
        ker C_k itself, so C_k has a kernel and r <= k.
    Then r = k, and the RREF basis, which depends only on the kernel, is
    the one of all of C_r. When a check fails, P divides a minor that
    matters, and the exact rank of C_mid and the kernel of C_r decide.
    With degree_only, a C_mid of full rank mod P proves r = k alone (its
    rank over Q lies between), and no kernel is computed: (k, None).
    """
    prime, mid = intpoly.SQUAREFREE_PRIME, max(1, p.degree // 2)
    b = _integer_moments(p)
    b_mod = [x % prime for x in b]
    middle_rank = len(ratmat.independent_rows_mod_p(_hankel(b_mod, mid), prime))
    k = max(1, middle_rank)
    if degree_only and middle_rank == min(p.degree - mid, mid) + 1:
        return k, None
    rows = _hankel(b, k)
    kept = ratmat.independent_rows_mod_p(_hankel(b_mod, k), prime)
    basis = ratmat.kernel_basis([rows[i] for i in kept])
    if basis and _annihilates(basis, rows):
        return k, basis
    r = ratmat.rank(_hankel(b, mid))
    return r, ratmat.kernel_basis(_hankel(b, r))


def min_apolar_degree(p: BinaryForm) -> int:
    """Smallest k >= 1 whose catalecticant has a kernel: r = rank C_(n//2).

    The apolar ideal of a binary form is a complete intersection with
    generators in degrees r <= n + 2 - r (Sylvester), and the middle
    catalecticant has rank exactly r. For n = 1, C_1 of the nonzero linear
    form has rank 1. The rank is taken mod a prime and proven by full rank
    or by one exact kernel on the rows of C_r independent mod that prime,
    with the exact rank as the fallback (_apolar_kernel).
    """
    return _apolar_kernel(p, degree_only=True)[0]


def kernel_dimension(p: BinaryForm, k: int) -> int:
    """dim ker C_k = max(0, k - r + 1) + max(0, k - n - 1 + r), r = min_apolar_degree(p).

    The two terms count the degree-k multiples of the apolar generators of
    degrees r and n + 2 - r.
    """
    n = p.degree
    if not 1 <= k <= n:
        raise DomainError(f"operator degree must satisfy 1 <= k <= {n}, got {k}")
    r = min_apolar_degree(p)
    return max(0, k - r + 1) + max(0, k - n - 1 + r)


def secant_membership(p: BinaryForm, k: int) -> bool:
    """True when some degree-k operator annihilates p (nontrivial kernel)."""
    return kernel_dimension(p, k) > 0


# --- one integer polynomial per annihilator ---------------------------------

def _dehomogenize(coeffs: Sequence[Fraction], k: int) -> tuple[int, list[int]]:
    """(multiplicity of the root (1:0), integer coefficients of q(t, 1) ascending).

    q(t, 1) is scaled by the lcm of its denominators; every later step (the
    squarefree test, rational root checks, root isolation and Newton) reads
    these integers.
    """
    at_inf = 0
    while at_inf <= k and not coeffs[at_inf]:
        at_inf += 1
    univ = [coeffs[k - d] for d in range(k - at_inf + 1)]
    scale = lcm(*(c.denominator for c in univ))
    return at_inf, [int(c * scale) for c in univ]


# --- certified root isolation ------------------------------------------------

@dataclass(frozen=True)
class SupportPoint:
    """A projective point (alpha : beta); exact, or certified within `radius`."""

    alpha: object  # Fraction when exact, mpmath.mpc otherwise
    beta: object
    exact: bool
    radius: float | None = None


def normalize_point(alpha, beta) -> tuple[int, int]:
    """Canonical coprime integer pair with beta > 0, or (1, 0) at infinity."""
    a, b = Fraction(alpha), Fraction(beta)
    if not (a or b):
        raise DomainError("(0, 0) is not a projective point")
    if not b:
        return (1, 0)
    t = a / b
    return (t.numerator, t.denominator)


def _certified_roots(at_inf: int, ints: list[int], precision_bits: int) -> list[SupportPoint]:
    """All projective roots of a squarefree form given by _dehomogenize, exact when rational.

    The approximations of the finite roots are the float seeds of
    intpoly.aberth_seeds, a near-real seed put on the real axis, so that a
    real root keeps an imaginary part of exactly 0 through Newton. When
    there are no seeds, or _roots_from finds them wanting (a refinement
    stalls or two discs meet), mpmath.polyroots supplies the approximations
    instead and the same _roots_from runs on them.
    """
    points = [SupportPoint(Fraction(1), Fraction(0), exact=True)] if at_inf else []
    if len(ints) == 1:
        return points

    seeds = intpoly.aberth_seeds(ints)
    if seeds is not None:
        seeds = [complex(z.real) if abs(z.imag) <= NEAR_REAL * abs(z) else z for z in seeds]
        try:
            return points + _roots_from(ints, seeds, precision_bits)
        except PrecisionError:  # a refinement stalled or two discs met
            pass
    try:
        with mpmath.workprec(max(96, precision_bits + 32)):
            approx = mpmath.polyroots([mpmath.mpf(c) for c in reversed(ints)], maxsteps=220, extraprec=120)
    except mpmath.libmp.NoConvergence as exc:
        raise PrecisionError(f"support roots did not converge: {exc}") from None
    return points + _roots_from(ints, approx, precision_bits)


def _roots_from(ints: list[int], approx: Sequence, precision_bits: int) -> list[SupportPoint]:
    """The finite roots of U from deg(U) approximations: exact points ascending, then certified discs.

    _rational_roots matches rational roots to the approximations. Each one
    it leaves over is refined by _refine_root on the full polynomial until
    the inclusion radius deg * |U(z)/U'(z)| drops below 2^-precision_bits,
    which certifies a true root within the disc, and the matcher runs again
    on the refined centres for a rational root the approximation was too
    coarse to match. Nothing is deflated. There is one point per
    approximation, so pairwise disjoint discs prove the points are all the
    roots. The discs are ordered by (|im|, re, im), which is polyroots'
    order with its conjugate pairs in a fixed order.
    """
    roots, leftovers = _rational_roots(ints, approx)
    refined = [_refine_root(ints, z, precision_bits) for z in leftovers]
    more, leftovers = _rational_roots(ints, [z for z, _ in refined], taken=set(roots))
    radius = dict(refined)
    points = [SupportPoint(Fraction(r.numerator), Fraction(r.denominator), exact=True) for r in sorted(roots + more)]
    points += sorted((SupportPoint(z, mpmath.mpf(1), exact=False, radius=radius[z]) for z in leftovers),
                     key=lambda pt: (abs(pt.alpha.imag), pt.alpha.real, pt.alpha.imag))
    if refined:  # exact points alone are distinct roots already
        _require_disjoint_discs(points)
    return points


def _require_disjoint_discs(points: list[SupportPoint]) -> None:
    """Raise PrecisionError unless the finite points hold pairwise distinct roots.

    Each approximate point's disc holds a root and an exact point is one, so
    pairwise disjoint discs, |z_i - z_j| > r_i + r_j (radius 0 for an exact
    point), prove that the points are distinct roots. Every pair is
    compared, exactly, on the dyadic centres and radii: a refined centre
    can land on a root exactly, with radius 0, where another point is.
    """
    discs = []
    for pt in points:
        if pt.exact:
            discs.append((pt.alpha / pt.beta, Fraction(0), Fraction(0)))
        else:
            e, [(a, b)] = intpoly.gaussian([pt.alpha])
            discs.append((Fraction(a, 1 << e), Fraction(b, 1 << e), Fraction(pt.radius)))
    for i, (x1, y1, r1) in enumerate(discs):
        for x2, y2, r2 in discs[i + 1:]:
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 <= (r1 + r2) ** 2:
                raise PrecisionError(
                    f"two inclusion discs meet near {float(x1)}{float(y1):+}j; the roots are not separated"
                )


def _rational_roots(ints: list[int], approx: Sequence, taken=frozenset()) -> tuple[list[Fraction], list]:
    """The rational roots of U that the approximations match, and the approximations matching none.

    Each approximation z (a float seed, a polyroots value or a refined
    centre) takes the first continued-fraction convergent p/q
    (q <= DENOMINATOR_BOUND) of its real part that is not in `taken`, lies
    strictly nearer to z than half its distance to every other
    approximation and passes the exact identity sum_i c_i p^i q^(d-i) = 0
    (q | c_d tested first, as for any root p/q in lowest terms). So a seed
    near -8/3 never takes the root -3 of its neighbour, one off the real
    axis takes nothing, and no root is taken twice: two such discs are
    disjoint. Distances are compared exactly on intpoly.gaussian's
    integers. The roots come in the order of their approximations; a
    leftover only says that z matched no rational root.
    """
    e, gauss = intpoly.gaussian(approx)
    roots, leftovers = [], []
    for j, (z, (a, b)) in enumerate(zip(approx, gauss)):
        # 4^e |z - w|^2 for the nearest other approximation w, or None
        gap = min(((a - c) ** 2 + (b - d) ** 2 for k, (c, d) in enumerate(gauss) if k != j), default=None)
        for p, q in _convergents(a, 1 << e):
            # |p/q - z| < |z - w| / 2, both sides times 2^(e+1) q and squared
            near = gap is None or 4 * (((p << e) - q * a) ** 2 + (q * b) ** 2) < q * q * gap
            if (near and not ints[-1] % q and intpoly.horner(ints, p, 0, q) == (0, 0)
                    and Fraction(p, q) not in taken):
                roots.append(Fraction(p, q))
                break
        else:
            leftovers.append(z)
    return roots, leftovers


def _convergents(num: int, den: int):
    """The continued-fraction convergents p/q of num/den (den > 0) with q <= DENOMINATOR_BOUND, in order."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > DENOMINATOR_BOUND:
            return
        yield p1, q1


def _refine_root(ints: list[int], z0, precision_bits: int) -> tuple:
    """Newton-refine z0 against the integer polynomial until certified.

    Each rung runs intpoly.newton on the grid of 2^-bits (U's coefficients
    as c << bits) until a step is below 2^-precision_bits. The certificate
    is the classical inclusion bound: for any z with U'(z) != 0,
    some root lies within deg(U) * |U(z)/U'(z)| of z. It is evaluated
    exactly at the grid point z, compared with 2^-precision_bits, and
    returned as a float rounded up (0.0 only at a root), with z as an mpc.
    """
    target = Fraction(1, 4**precision_bits)
    # A grid relative to the root, as the printed digits are: 2^-72 of the
    # target times 2^e <= max(1, |z0|). Finer grids leave the error bound
    # below the digits' rounding; 2^-64 left it up to 30x larger.
    e = max(1, max(map(abs, intpoly.fixed(z0, 0))).bit_length()) - 1
    for extra in (72, 160, 400, 900):
        bits = precision_bits + max(8, extra - e)
        z = intpoly.newton([(c << bits, 0) for c in reversed(ints)], intpoly.fixed(z0, bits),
                           bits, 1 << 2 * (bits - precision_bits))
        if z is not None:
            radius_sq = _radius_squared(ints, *z, bits)
            if radius_sq is not None and radius_sq < target:
                with mpmath.workprec(1 + max(x.bit_length() for x in z)):
                    return mpmath.mpc(*(mpmath.mpf((x, -bits)) for x in z)), _sqrt_up(radius_sq)
    raise PrecisionError(
        f"root isolation stalled above the precision floor 2^-{precision_bits}"
    )


def _radius_squared(ints: list[int], a: int, b: int, e: int) -> Fraction | None:
    """(deg * |U(z)/U'(z)|)^2 exactly at z = (a + b i) / 2^e, or None when U'(z) = 0.

    Homogeneous Horner gives 2^(e deg) U(z) and 2^(e (deg - 1)) U'(z) exactly.
    """
    deg = len(ints) - 1
    dx, dy = intpoly.horner(intpoly.derivative(ints), a, b, 1 << e)
    if not (dx or dy):
        return None
    x, y = intpoly.horner(ints, a, b, 1 << e)
    return Fraction(deg * deg * (x * x + y * y), (dx * dx + dy * dy) << 2 * e)


def _sqrt_up(square: Fraction) -> float:
    """A float no smaller than the square root of a nonnegative Fraction."""
    num, den = square.numerator, square.denominator
    if not num:
        return 0.0
    k = max(0, 64 + (den.bit_length() - num.bit_length() + 1) // 2)
    # sqrt(square) * 2^k < isqrt(num * 4^k // den) + 1 exactly
    return nextafter(ldexp(isqrt((num << 2 * k) // den) + 1, -k), inf)


# --- Sylvester decomposition -------------------------------------------------

@dataclass(frozen=True)
class SecantCertificate:
    """Outcome of sylvester_decompose.

    annihilator has degree k, the first k whose catalecticant has a kernel,
    so the form lies on the k-th secant; rank is the Waring rank (k in the
    squarefree case, n - k + 2 otherwise). support/coefficients are present
    exactly when the annihilator used is squarefree: exact Fractions by
    partial fractions and an exact rebuild when support_exact, else from a
    numeric solve whose residual is error_bound.
    """

    rank: int
    annihilator: BinaryForm
    support: tuple[SupportPoint, ...] | None
    coefficients: tuple | None
    support_exact: bool
    error_bound: float | None


def _pencil_squarefree(basis, k: int):
    """A squarefree element of the kernel pencil and its _dehomogenize data.

    Scans the basis, then small combinations of its first two vectors.
    """
    pencil = ()
    if len(basis) >= 2:
        pencil = ([a + t * b for a, b in zip(basis[0], basis[1])] for t in range(1, 2 * k + 2))
    for vec in chain(basis, pencil):
        at_inf, ints = _dehomogenize(vec, k)
        if at_inf <= 1 and intpoly.squarefree(ints):
            return vec, at_inf, ints
    return None


def sylvester_decompose(p: BinaryForm, precision_bits: int = DEFAULT_PRECISION_BITS) -> SecantCertificate:
    """Minimal Waring decomposition data for a binary form.

    The first nontrivial catalecticant kernel sits at k = min_apolar_degree(p),
    the rank of the middle catalecticant; _apolar_kernel certifies k with
    the kernel of C_k, which is then the annihilator space. A squarefree
    kernel form there yields rank k with explicit support and coefficients;
    a non-squarefree unique generator yields rank n - k + 2 with no support.
    """
    n = p.degree
    k, basis = _apolar_kernel(p)
    found = _pencil_squarefree(basis, k)
    if found is None:
        if len(basis) > 1:
            raise ConsistencyError(
                f"kernel pencil of dimension {len(basis)} at degree {k} with no "
                f"squarefree member for {p}"
            )
        return SecantCertificate(rank=n - k + 2, annihilator=BinaryForm(k, tuple(basis[0])), support=None,
                                 coefficients=None, support_exact=True, error_bound=None)

    square, at_inf, ints = found
    points = _certified_roots(at_inf, ints, precision_bits)
    all_exact = all(pt.exact for pt in points)
    if all_exact:
        coeffs, residual = _solve_coefficients_exact(points, ints, p), None
    else:
        coeffs, residual = _solve_coefficients_numeric(points, p, precision_bits)
    return SecantCertificate(rank=k, annihilator=BinaryForm(k, tuple(square)), support=tuple(points),
                             coefficients=tuple(coeffs), support_exact=all_exact, error_bound=residual)


def _power_sum(n: int, points, weights) -> list[int]:
    """Coefficients of sum_i w_i (a_i x + b_i y)^n for integers, by incremental powers."""
    sums = [0] * (n + 1)
    for w, (a, b) in zip(weights, points):
        left = list(accumulate([w] + [a] * n, mul))  # w a^j
        sums = [t + x * y for t, x, y in zip(sums, reversed(left), accumulate([1] + [b] * n, mul))]
    return [comb(n, j) * t for j, t in enumerate(sums)]


def _solve_coefficients_exact(points, ints: list[int], p: BinaryForm) -> list[Fraction]:
    """The c_i of p = sum c_i (p_i x + q_i y)^n by partial fractions, checked by an exact rebuild.

    With b_j = a_j / C(n, j) and s_m = b_(n-m), s_m = sum q_i^n c_i t_i^m for
    m < n over the roots t_i = p_i / q_i of U = sum u_l t^l (`ints`). So a
    finite point has q^n c = N(t) / U'(t), N_r = sum_(l>r) u_l s_(l-r-1) for
    r < deg U (the Lagrange inverse of the transposed Vandermonde system),
    and (1 : 0) takes c = a_0 - sum c_i p_i^n.
    """
    n, d = p.degree, len(ints) - 1
    s = [p.coeffs[n - m] / comb(n, m) for m in range(d)]
    scale = lcm(*(x.denominator for x in s))
    s = [x.numerator * (scale // x.denominator) for x in s]
    numer = [sum(ints[l] * s[l - r - 1] for l in range(r + 1, d + 1)) for r in range(d)]  # scale * N
    deriv = intpoly.derivative(ints)
    pts = [(int(pt.alpha), int(pt.beta)) for pt in points]
    # q^(d-1) scale N(p/q) over scale q^(d-1) U'(p/q) q^n, both by exact Horner
    weight = {(a, b): Fraction(intpoly.horner(numer, a, 0, b)[0],
                               scale * intpoly.horner(deriv, a, 0, b)[0] * b**n)
              for a, b in pts if b}
    weight[1, 0] = p.coeffs[0] - sum(c * a**n for (a, _), c in weight.items())  # read if (1 : 0) is a point
    coeffs = [weight[pt] for pt in pts]
    den = lcm(*(c.denominator for c in coeffs))
    rebuilt = _power_sum(n, pts, [c.numerator * (den // c.denominator) for c in coeffs])
    if rebuilt != [den * a for a in p.coeffs]:
        raise ConsistencyError(f"exact reconstruction mismatch for {p}")
    return coeffs


def _mp(x):
    """An mpmath number for a support coordinate; a Fraction goes through its integers."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpc(x)


def _solve_coefficients_numeric(points, p: BinaryForm, precision_bits: int):
    n, prec = p.degree, precision_bits + SOLVE_GUARD_BITS
    # Entries at twice the working precision, so the residual of the values
    # returned does not hide in the solve's own rounding.
    with mpmath.workprec(2 * prec):
        cols = [[comb(n, j) * al ** (n - j) * be**j for j in range(n + 1)]
                for al, be in ((_mp(pt.alpha), _mp(pt.beta)) for pt in points)]
        rhs = [_mp(c) for c in p.coeffs]
    with mpmath.workprec(prec):
        # The columns differ in scale by many orders of magnitude and the
        # normal equations inside lu_solve square that spread, so solve with
        # every column divided by its largest entry and unscale the solution.
        col_max = [max(map(abs, col)) for col in cols]
        scaled = mpmath.matrix([[col[j] / m for col, m in zip(cols, col_max)] for j in range(n + 1)])
        # least squares through lu_solve: qr_solve cannot factor complex
        # overdetermined systems, and the residual is checked below anyway
        try:  # lu_solve raises ZeroDivisionError on a numerically singular matrix
            solved = mpmath.lu_solve(scaled, mpmath.matrix(rhs))
        except ZeroDivisionError:
            raise PrecisionError(f"singular coefficient solve for {p}: support points too close") from None
        sol = [y / m for y, m in zip(solved, col_max)]
    with mpmath.workprec(2 * prec):
        residual = max(abs(sum(col[j] * c for col, c in zip(cols, sol)) - rhs[j]) for j in range(n + 1))
        if residual > max(map(abs, rhs)) * mpmath.mpf(2) ** (-(precision_bits // 2)):
            raise PrecisionError(
                f"numeric reconstruction residual {mpmath.nstr(residual)} too large for {p}"
            )
    return sol, float(residual)


# --- rank sampling -----------------------------------------------------------

@dataclass(frozen=True)
class RankSample:
    """A deterministic rank-k instance: the form plus its hidden decomposition."""

    form: BinaryForm
    points: tuple[tuple[int, int], ...]
    coefficients: tuple[int, ...]


def _point_pool() -> list[tuple[int, int]]:
    pool = [(1, 0)]
    for beta in range(1, 21):
        for alpha in range(-20, 21):
            if gcd(alpha, beta) == 1:
                pool.append((alpha, beta))
    return pool


def sample_rank_k_instance(n: int, k: int, seed: int) -> RankSample:
    """Sample a generic rank-k form: k distinct small points, nonzero weights.

    Verifies genericity (minimal apolar degree exactly k; as 2k <= n + 1 the
    degree-k kernel is then one-dimensional) and resamples up to a fixed
    bound on failure.
    """
    if not 1 <= k <= (n + 1) // 2:
        raise DomainError(f"rank sampling needs 1 <= k <= (n+1)//2 = {(n + 1) // 2}, got {k}")
    rng = random.Random(seed)
    pool = _point_pool()
    for _ in range(RESAMPLE_BOUND):
        pts = tuple(sorted(rng.sample(pool, k)))
        weights = tuple(rng.choice([c for c in range(-9, 10) if c]) for _ in range(k))
        coeffs = _power_sum(n, pts, weights)
        if not any(coeffs):
            continue
        f = form(n, coeffs)
        if min_apolar_degree(f) != k:
            continue
        return RankSample(form=f, points=pts, coefficients=weights)
    raise ConsistencyError(
        f"rank-{k} sampling failed {RESAMPLE_BOUND} times for degree {n}, seed {seed}"
    )


# --- Vandermonde ranks and joins ----------------------------------------------

def _parse_node(node) -> tuple[int, int]:
    """A number, a string (a rational or "inf"), or an [alpha, beta] pair as a list or tuple."""
    pair = isinstance(node, (list, tuple))
    if pair and len(node) != 2:
        raise DomainError(f"bad node {node!r}: a pair node is [alpha, beta]")
    # JSON true and false would otherwise pass as the numbers 1 and 0.
    if any(isinstance(x, bool) for x in (node if pair else (node,))):
        raise DomainError(f"bad node {node!r}: a boolean is not a number")
    try:
        if isinstance(node, str):
            text = node.strip()
            if text in ("inf", "oo", "infinity"):
                return (1, 0)
            return normalize_point(Fraction(text), 1)
        if pair:
            return normalize_point(*node)
        return normalize_point(Fraction(node), 1)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"bad node {node!r}: {exc}") from None


def vandermonde_rank(nodes: Sequence, degree: int) -> int:
    """Exact rank of the moment matrix of the given projective nodes.

    Row for node t is (1, t, ..., t^degree); the point at infinity contributes
    (0, ..., 0, 1). Equality with min(#nodes, degree + 1) for distinct nodes is
    the classical Vandermonde statement and is what callers test. That full
    rank is proven mod a prime (independent rows mod p are independent over
    Q); the exact rank decides only when a prime loses it.
    """
    if degree < 0:
        raise DomainError(f"moment degree must be nonnegative, got {degree}")
    pts = [_parse_node(nd) for nd in nodes]
    if len(set(pts)) != len(pts):
        raise DomainError(f"repeated nodes rejected: {sorted(set(p for p in pts if pts.count(p) > 1))}")
    rows = [[al**j * be ** (degree - j) for j in range(degree + 1)] for al, be in pts]
    full = min(len(rows), degree + 1)
    if len(ratmat.independent_rows_mod_p(rows, intpoly.SQUAREFREE_PRIME)) == full:
        return full
    return ratmat.rank(rows)


@dataclass(frozen=True)
class JoinRank:
    """First catalecticant kernel degrees of p, q, and p + q.

    c is 0 exactly when p + q is the zero form: every coefficient of a
    nonzero form sits in its catalecticant, so its degree is at least 1.
    """

    a: int
    b: int
    c: int


def join_rank_check(p: BinaryForm, q: BinaryForm) -> JoinRank:
    """Subadditivity witness: c <= a + b always; equality is the generic case.

    The product of annihilators of p and q annihilates p + q, which forces the
    bound; a violation would be an internal fault and raises.
    """
    total = add_forms(p, q)  # rejects mismatched degrees before any rank
    a = min_apolar_degree(p)
    b = min_apolar_degree(q)
    if total is None:
        return JoinRank(a=a, b=b, c=0)
    c = min_apolar_degree(total)
    if c > a + b:
        raise ConsistencyError(
            f"join subadditivity violated: c={c} > a+b={a + b} for {p} and {q}"
        )
    return JoinRank(a=a, b=b, c=c)
