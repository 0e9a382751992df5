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

Rational support points are recovered exactly (numeric isolation, then
rational reconstruction verified by exact evaluation); irrational or complex
points are certified intervals: each carries a radius proven to contain a
root, refined below a configurable precision target.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence

import mpmath

from . import ratmat
from .config import DEFAULT_PRECISION_BITS
from .errors import ConsistencyError, DomainError, PrecisionError

RESAMPLE_BOUND = 32


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

def _falling(x: int, k: int) -> int:
    out = 1
    for step in range(k):
        out *= x - step
    return out


@dataclass(frozen=True)
class CatalecticantMatrix:
    """Matrix of q |-> q(d/dx, d/dy) p from degree-k operators to degree-(n-k) forms."""

    source_degree: int
    target_degree: int
    entries: tuple[tuple[Fraction, ...], ...]

    def rows(self) -> ratmat.Matrix:
        return [list(row) for row in self.entries]


def catalecticant(p: BinaryForm, k: int) -> CatalecticantMatrix:
    """The (n-k+1) x (k+1) catalecticant of p at operator degree k.

    Column j is the operator (d/dx)^(k-j) (d/dy)^j applied to p, written on the
    basis x^(n-k-i) y^i. Literal differentiation: entry (i, j) equals
    a_(i+j) * (n-i-j)(n-i-j-1)...(n-k-i+1) * (i+j)(i+j-1)...(i+1).
    """
    n = p.degree
    if not 1 <= k <= n:
        raise DomainError(f"operator degree must satisfy 1 <= k <= {n}, got {k}")
    entries = tuple(
        tuple(
            p.coeffs[i + j] * _falling(n - i - j, k - j) * _falling(i + j, j)
            for j in range(k + 1)
        )
        for i in range(n - k + 1)
    )
    return CatalecticantMatrix(source_degree=k, target_degree=n - k, entries=entries)


def min_apolar_degree(p: BinaryForm) -> int:
    """Smallest k >= 1 whose catalecticant has a kernel: r = rank C_(n//2).

    The apolar ideal of a binary form is a complete intersection with
    generators in degrees r <= n + 2 - r (Sylvester), and the middle
    catalecticant has rank exactly r. For n = 1, C_1 of the nonzero linear
    form has rank 1.
    """
    return ratmat.rank(catalecticant(p, max(1, p.degree // 2)).rows())


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


# --- univariate helpers over Fraction ---------------------------------------

def _poly_degree(c: list[Fraction]) -> int:
    for i in range(len(c) - 1, -1, -1):
        if c[i]:
            return i
    return -1


def _poly_eval(c: list[Fraction], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(c):
        acc = acc * t + coeff
    return acc


def _poly_derivative(c: list[Fraction]) -> list[Fraction]:
    return [i * c[i] for i in range(1, len(c))]


def _poly_rem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Remainder of num divided by den, ascending coefficients."""
    dn, dd = _poly_degree(num), _poly_degree(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = num[: dn + 1]
    lead = den[dd]
    for shift in range(dn - dd, -1, -1):
        factor = rem[dd + shift] / lead
        if factor:
            for i in range(dd + 1):
                rem[i + shift] -= factor * den[i]
    return rem[:dd] if dd > 0 else []


def _poly_gcd_is_constant(a: list[Fraction], b: list[Fraction]) -> bool:
    x, y = a[:], b[:]
    while _poly_degree(y) > 0:
        x, y = y, _poly_rem(x, y)
    return _poly_degree(y) == 0 or _poly_degree(x) <= 0


def _squarefree_form(coeffs: Sequence[Fraction], k: int) -> bool:
    """No repeated projective root: multiplicity at (1:0) <= 1 and gcd(U,U')=1."""
    inf_mult = 0
    while inf_mult <= k and not coeffs[inf_mult]:
        inf_mult += 1
    if inf_mult > 1:
        return False
    univ = [coeffs[k - d] for d in range(k - inf_mult + 1)]  # U(t) = q(t, 1), ascending
    if _poly_degree(univ) <= 0:
        return True
    return _poly_gcd_is_constant(univ, _poly_derivative(univ))


# --- certified root isolation ------------------------------------------------

def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man, 1) * (Fraction(2) ** exp if exp >= 0 else Fraction(1, 2 ** (-exp)))
    return -v if sign else v


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


def _certified_roots(coeffs: Sequence[Fraction], k: int, precision_bits: int) -> list[SupportPoint]:
    """All k projective roots of a squarefree degree-k form, exact when rational.

    Rational roots are found by reconstructing candidates from numeric
    approximations and verifying them by exact evaluation; nothing is
    deflated. Every other approximation is refined by Newton iteration on the
    full polynomial until the inclusion radius deg * |U(z)/U'(z)| drops below
    2^-precision_bits; that bound certifies a true root within the disc.
    """
    points: list[SupportPoint] = []
    inf_mult = 0
    while inf_mult <= k and not coeffs[inf_mult]:
        inf_mult += 1
    if inf_mult == 1:
        points.append(SupportPoint(Fraction(1), Fraction(0), exact=True))
    elif inf_mult > 1:
        raise ConsistencyError("repeated root at infinity in a form asserted squarefree")

    univ = [coeffs[k - d] for d in range(k - inf_mult + 1)]
    deg = _poly_degree(univ)
    if deg <= 0:
        return points

    scale = lcm(*(c.denominator for c in univ))
    ints = [int(c * scale) for c in univ]

    with mpmath.workprec(max(96, precision_bits + 32)):
        approx = mpmath.polyroots([mpmath.mpf(c) for c in reversed(ints)], maxsteps=220, extraprec=120)

    frac_coeffs = [Fraction(c) for c in ints]
    leftovers = []
    for z in approx:
        if abs(mpmath.im(z)) < mpmath.mpf(2) ** (-24):
            cand = _mpf_to_fraction(mpmath.re(z)).limit_denominator(10**12)
            if _poly_eval(frac_coeffs, cand) == 0 and not any(
                pt.exact and pt.beta and Fraction(pt.alpha) / Fraction(pt.beta) == cand
                for pt in points
            ):
                points.append(SupportPoint(Fraction(cand.numerator), Fraction(cand.denominator), exact=True))
                continue
        leftovers.append(z)

    for z in leftovers:
        refined, radius = _refine_root(ints, z, precision_bits)
        points.append(SupportPoint(refined, mpmath.mpf(1), exact=False, radius=float(radius)))

    if len(points) != k:
        raise ConsistencyError(
            f"recovered {len(points)} roots from a squarefree form of degree {k}"
        )
    return points


def _refine_root(ints: list[int], z0, precision_bits: int):
    """Newton-refine z0 against the integer polynomial until certified.

    The certificate is the classical inclusion bound: for any z with
    U'(z) != 0, some root lies within deg(U) * |U(z)/U'(z)| of z.
    """
    deg = len(ints) - 1
    target = mpmath.mpf(2) ** (-precision_bits)
    for prec in (precision_bits + 64, precision_bits + 160, precision_bits + 400, precision_bits + 900):
        with mpmath.workprec(prec):
            z = mpmath.mpc(z0)
            for _ in range(80):
                u = mpmath.polyval([mpmath.mpf(c) for c in reversed(ints)], z)
                du = mpmath.polyval(
                    [mpmath.mpf(i * ints[i]) for i in range(deg, 0, -1)], z
                )
                if du == 0:
                    break
                step = u / du
                z -= step
                if abs(step) < mpmath.mpf(2) ** (-(prec - 8)):
                    break
            u = mpmath.polyval([mpmath.mpf(c) for c in reversed(ints)], z)
            du = mpmath.polyval([mpmath.mpf(i * ints[i]) for i in range(deg, 0, -1)], z)
            if du != 0:
                radius = deg * abs(u / du)
                if radius < target:
                    return z, radius
    raise PrecisionError(
        f"root isolation stalled above the precision floor 2^-{precision_bits}"
    )


# --- Sylvester decomposition -------------------------------------------------

@dataclass(frozen=True)
class SecantCertificate:
    """Outcome of sylvester_decompose.

    kernel_degree is the first k whose catalecticant has a kernel; rank is the
    Waring rank (kernel_degree in the squarefree case, n - k + 2 otherwise).
    support/coefficients are present exactly when the annihilator used is
    squarefree; they are exact Fractions unless support_exact is False, in
    which case error_bound reports the certified radius / residual.
    """

    form: BinaryForm
    kernel_degree: int
    rank: int
    member: bool
    annihilator: BinaryForm
    support: tuple[SupportPoint, ...] | None
    coefficients: tuple | None
    support_exact: bool
    error_bound: float | None


def _pencil_squarefree(basis, k: int):
    """A squarefree element of the kernel pencil, scanning small combinations."""
    for vec in basis:
        if _squarefree_form(vec, k):
            return vec
    if len(basis) >= 2:
        g1, g2 = basis[0], basis[1]
        for t in range(1, 2 * k + 2):
            cand = [a + t * b for a, b in zip(g1, g2)]
            if _squarefree_form(cand, k):
                return cand
    return None


def sylvester_decompose(p: BinaryForm, precision_bits: int = DEFAULT_PRECISION_BITS) -> SecantCertificate:
    """Minimal Waring decomposition data for a binary form.

    The first nontrivial catalecticant kernel sits at k = min_apolar_degree(p),
    the rank of the middle catalecticant. A squarefree kernel form there
    yields rank k with explicit support and coefficients; a non-squarefree
    unique generator yields rank n - k + 2 with no support.
    """
    n = p.degree
    k = min_apolar_degree(p)
    basis = ratmat.kernel_basis(catalecticant(p, k).rows())
    square = _pencil_squarefree(basis, k)
    if square is None:
        if len(basis) > 1:
            raise ConsistencyError(
                f"kernel pencil of dimension {len(basis)} at degree {k} with no "
                f"squarefree member for {p}"
            )
        ann = BinaryForm(k, tuple(basis[0]))
        return SecantCertificate(
            form=p,
            kernel_degree=k,
            rank=n - k + 2,
            member=True,
            annihilator=ann,
            support=None,
            coefficients=None,
            support_exact=True,
            error_bound=None,
        )

    ann = BinaryForm(k, tuple(square))
    points = _certified_roots(square, k, precision_bits)
    all_exact = all(pt.exact for pt in points)
    if all_exact:
        coeffs, residual = _solve_coefficients_exact(points, p), None
    else:
        coeffs, residual = _solve_coefficients_numeric(points, p, precision_bits)
    return SecantCertificate(
        form=p,
        kernel_degree=k,
        rank=k,
        member=True,
        annihilator=ann,
        support=tuple(points),
        coefficients=tuple(coeffs),
        support_exact=all_exact,
        error_bound=residual,
    )


def _solve_coefficients_exact(points, p: BinaryForm) -> list[Fraction]:
    n = p.degree
    a = [[Fraction(0)] * len(points) for _ in range(n + 1)]
    for i, pt in enumerate(points):
        al, be = Fraction(pt.alpha), Fraction(pt.beta)
        for j in range(n + 1):
            a[j][i] = comb(n, j) * al ** (n - j) * be**j
    sol = ratmat.solve(a, list(p.coeffs))
    if sol is None:
        raise ConsistencyError(f"support of {p} does not span it, decomposition impossible")
    recon = [
        sum(a[j][i] * sol[i] for i in range(len(points))) for j in range(n + 1)
    ]
    if recon != list(p.coeffs):
        raise ConsistencyError(f"exact reconstruction mismatch for {p}")
    return sol


def _mp(x):
    """An mpmath number for a support coordinate; a Fraction goes through its integers."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpc(x)


def _solve_coefficients_numeric(points, p: BinaryForm, precision_bits: int):
    n = p.degree
    with mpmath.workprec(precision_bits + 96):
        rows = n + 1
        cols = len(points)
        mat = mpmath.matrix(rows, cols)
        for i, pt in enumerate(points):
            al, be = _mp(pt.alpha), _mp(pt.beta)
            for j in range(rows):
                mat[j, i] = mpmath.binomial(n, j) * al ** (n - j) * be**j
        rhs = mpmath.matrix([_mp(c) for c in p.coeffs])
        # The columns differ in scale by many orders of magnitude and the
        # normal equations inside lu_solve square that spread, so solve with
        # every column divided by its largest entry and unscale the solution.
        col_max = [max(abs(mat[j, i]) for j in range(rows)) for i in range(cols)]
        scaled = mpmath.matrix([[mat[j, i] / col_max[i] for i in range(cols)] for j in range(rows)])
        # least squares through lu_solve: qr_solve cannot factor complex
        # overdetermined systems, and the residual is checked below anyway
        sol = [y / m for y, m in zip(mpmath.lu_solve(scaled, rhs), col_max)]
        residual = max(
            abs(sum(mat[j, i] * sol[i] for i in range(cols)) - rhs[j]) for j in range(rows)
        )
        scale = max(abs(rhs[j]) for j in range(rows))
        if residual > scale * mpmath.mpf(2) ** (-(precision_bits // 2)):
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
    resamples: int


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
    bound on failure, reporting the count.
    """
    if not 1 <= k <= (n + 1) // 2:
        raise DomainError(f"rank sampling needs 1 <= k <= (n+1)//2 = {(n + 1) // 2}, got {k}")
    rng = random.Random(seed)
    pool = _point_pool()
    for attempt in range(RESAMPLE_BOUND):
        pts = tuple(sorted(rng.sample(pool, k)))
        weights = tuple(rng.choice([c for c in range(-9, 10) if c]) for _ in range(k))
        coeffs = [Fraction(0)] * (n + 1)
        for (al, be), c in zip(pts, weights):
            for j in range(n + 1):
                coeffs[j] += c * comb(n, j) * al ** (n - j) * be**j
        if not any(coeffs):
            continue
        f = BinaryForm(n, tuple(coeffs))
        if min_apolar_degree(f) != k:
            continue
        return RankSample(form=f, points=pts, coefficients=weights, resamples=attempt)
    raise ConsistencyError(
        f"rank-{k} sampling failed {RESAMPLE_BOUND} times for degree {n}, seed {seed}"
    )


# --- Vandermonde ranks and joins ----------------------------------------------

def _parse_node(node) -> tuple[int, int]:
    if isinstance(node, str):
        text = node.strip()
        if text in ("inf", "oo", "infinity"):
            return (1, 0)
        return normalize_point(Fraction(text), 1)
    if isinstance(node, tuple):
        return normalize_point(*node)
    return normalize_point(Fraction(node), 1)


def vandermonde_rank(nodes: Sequence, degree: int) -> int:
    """Exact rank of the moment matrix of the given projective nodes.

    Row for node t is (1, t, ..., t^degree); the point at infinity contributes
    (0, ..., 0, 1). Equality with min(#nodes, degree + 1) for distinct nodes is
    the classical Vandermonde statement and is what callers test.
    """
    if degree < 0:
        raise DomainError(f"moment degree must be nonnegative, got {degree}")
    pts = [_parse_node(nd) for nd in nodes]
    if len(set(pts)) != len(pts):
        raise DomainError(f"repeated nodes rejected: {sorted(set(p for p in pts if pts.count(p) > 1))}")
    rows = [
        [Fraction(al**j * be ** (degree - j)) for j in range(degree + 1)]
        for al, be in pts
    ]
    return ratmat.rank(rows)


@dataclass(frozen=True)
class JoinRank:
    """First catalecticant kernel degrees of p, q, and p + q."""

    a: int
    b: int
    c: int
    sum_is_zero: bool


def join_rank_check(p: BinaryForm, q: BinaryForm) -> JoinRank:
    """Subadditivity witness: c <= a + b always; equality is the generic case.

    The product of annihilators of p and q annihilates p + q, which forces the
    bound; a violation would be an internal fault and raises.
    """
    a = min_apolar_degree(p)
    b = min_apolar_degree(q)
    total = add_forms(p, q)
    if total is None:
        return JoinRank(a=a, b=b, c=0, sum_is_zero=True)
    c = min_apolar_degree(total)
    if c > a + b:
        raise ConsistencyError(
            f"join subadditivity violated: c={c} > a+b={a + b} for {p} and {q}"
        )
    return JoinRank(a=a, b=b, c=c, sum_is_zero=False)
