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
from itertools import chain
from math import comb, gcd, lcm
from typing import Sequence

import mpmath

from . import ratmat
from .config import DEFAULT_PRECISION_BITS
from .errors import ConsistencyError, DomainError, PrecisionError

RESAMPLE_BOUND = 32
# The prime of the modular squarefree certificate; any prime is sound, and
# one this large rarely divides a leading coefficient or a discriminant.
SQUAREFREE_PRIME = 2**31 - 1
# Guard bits the numeric coefficient solve works at above `precision_bits`;
# the CLI prints approximate coefficients at the same precision, so the
# printed certificate rebuilds the form within its own error_bound.
SOLVE_GUARD_BITS = 96


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


def catalecticant(p: BinaryForm, k: int) -> ratmat.Matrix:
    """The (n-k+1) x (k+1) catalecticant of p at operator degree k, as row lists.

    It is the matrix of q |-> q(d/dx, d/dy) p from degree-k operators to
    degree-(n-k) forms.

    Column j is the operator (d/dx)^(k-j) (d/dy)^j applied to p, written on the
    basis x^(n-k-i) y^i. Literal differentiation: entry (i, j) equals
    a_(i+j) * (n-i-j)(n-i-j-1)...(n-k-i+1) * (i+j)(i+j-1)...(i+1).
    """
    n = p.degree
    if not 1 <= k <= n:
        raise DomainError(f"operator degree must satisfy 1 <= k <= {n}, got {k}")
    return [
        [p.coeffs[i + j] * _falling(n - i - j, k - j) * _falling(i + j, j) for j in range(k + 1)]
        for i in range(n - k + 1)
    ]


def min_apolar_degree(p: BinaryForm) -> int:
    """Smallest k >= 1 whose catalecticant has a kernel: r = rank C_(n//2).

    The apolar ideal of a binary form is a complete intersection with
    generators in degrees r <= n + 2 - r (Sylvester), and the middle
    catalecticant has rank exactly r. For n = 1, C_1 of the nonzero linear
    form has rank 1.
    """
    return ratmat.rank(catalecticant(p, max(1, p.degree // 2)))


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


def _coprime_mod_p(ints: list[int]) -> bool:
    """p does not divide lc(U), and U, U' are coprime in F_p[t] for p = SQUAREFREE_PRIME.

    That proves U squarefree over Q (Brown 1971): a repeated factor g^2 | U
    over Z keeps its degree mod p, because lc(g) divides lc(U), and its image
    would divide both U and U' mod p. False only means "maybe".
    """
    p = SQUAREFREE_PRIME
    if not ints[-1] % p:
        return False
    a = [c % p for c in ints]
    b = [i * c % p for i, c in enumerate(a)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _squarefree(at_inf: int, ints: list[int]) -> bool:
    """No repeated projective root: at_inf <= 1 and gcd(U, U') is constant.

    A coprimality certificate mod a prime answers most inputs. Otherwise the
    gcd runs as a primitive remainder sequence over Z (Collins 1967): each
    pseudo-remainder is divided by its content, which keeps the coefficients
    from the growth that makes a Euclid over Q hang at high degree.
    """
    if at_inf > 1:
        return False
    if _coprime_mod_p(ints):
        return True
    a, b = ints, [i * c for i, c in enumerate(ints)][1:]
    while len(b) > 1:
        rem = a[:]
        while len(rem) >= len(b):
            top, shift = rem[-1], len(rem) - len(b)
            rem = [b[-1] * c for c in rem]
            for i, c in enumerate(b):
                rem[shift + i] -= top * c
            while rem and not rem[-1]:
                rem.pop()
        content = gcd(*rem)
        a, b = b, [c // content for c in rem]
    return len(b) == 1 or len(ints) == 1  # a constant U has no root to repeat


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

    Rational roots are found by reconstructing candidates p/q from numeric
    approximations and verifying them by the exact integer identity
    sum_i c_i p^i q^(d-i) = 0; nothing is deflated. Every other approximation
    is refined by Newton iteration on the full polynomial until the inclusion
    radius deg * |U(z)/U'(z)| drops below 2^-precision_bits; that bound
    certifies a true root within the disc.
    """
    points = [SupportPoint(Fraction(1), Fraction(0), exact=True)] if at_inf else []
    deg = len(ints) - 1
    if deg <= 0:
        return points

    with mpmath.workprec(max(96, precision_bits + 32)):
        approx = mpmath.polyroots([mpmath.mpf(c) for c in reversed(ints)], maxsteps=220, extraprec=120)

    leftovers = []
    for z in approx:
        if abs(mpmath.im(z)) < mpmath.mpf(2) ** (-24):
            cand = Fraction(*mpmath.libmp.to_rational(mpmath.re(z)._mpf_)).limit_denominator(10**12)
            num, den = cand.numerator, cand.denominator
            pt = SupportPoint(Fraction(num), Fraction(den), exact=True)
            if pt not in points and not sum(c * num**i * den ** (deg - i) for i, c in enumerate(ints)):
                points.append(pt)
                continue
        leftovers.append(z)

    for z in leftovers:
        refined, radius = _refine_root(ints, z, precision_bits)
        points.append(SupportPoint(refined, mpmath.mpf(1), exact=False, radius=float(radius)))

    if len(points) != at_inf + deg:
        raise ConsistencyError(
            f"recovered {len(points)} roots from a squarefree form of degree {at_inf + deg}"
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
            u_coeffs = [mpmath.mpf(c) for c in reversed(ints)]
            tiny = mpmath.mpf(2) ** (-(prec - 8))
            z = mpmath.mpc(z0)
            for _ in range(80):
                u, du = mpmath.polyval(u_coeffs, z, derivative=True)
                if du == 0:
                    break
                step = u / du
                z -= step
                if abs(step) < tiny:
                    break
            u, du = mpmath.polyval(u_coeffs, z, derivative=True)
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

    annihilator has degree k, the first k whose catalecticant has a kernel,
    so the form lies on the k-th secant; rank is the Waring rank (k in the
    squarefree case, n - k + 2 otherwise).
    support/coefficients are present exactly when the annihilator used is
    squarefree; they are exact Fractions unless support_exact is False, in
    which case error_bound reports the certified radius / residual.
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
        if _squarefree(at_inf, ints):
            return vec, at_inf, ints
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
    basis = ratmat.kernel_basis(catalecticant(p, k))
    found = _pencil_squarefree(basis, k)
    if found is None:
        if len(basis) > 1:
            raise ConsistencyError(
                f"kernel pencil of dimension {len(basis)} at degree {k} with no "
                f"squarefree member for {p}"
            )
        ann = BinaryForm(k, tuple(basis[0]))
        return SecantCertificate(
            rank=n - k + 2,
            annihilator=ann,
            support=None,
            coefficients=None,
            support_exact=True,
            error_bound=None,
        )

    square, at_inf, ints = found
    ann = BinaryForm(k, tuple(square))
    points = _certified_roots(at_inf, ints, precision_bits)
    all_exact = all(pt.exact for pt in points)
    if all_exact:
        coeffs, residual = _solve_coefficients_exact(points, p), None
    else:
        coeffs, residual = _solve_coefficients_numeric(points, p, precision_bits)
    return SecantCertificate(
        rank=k,
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
    with mpmath.workprec(precision_bits + SOLVE_GUARD_BITS):
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
        coeffs = [Fraction(0)] * (n + 1)
        for (al, be), c in zip(pts, weights):
            for j in range(n + 1):
                coeffs[j] += c * comb(n, j) * al ** (n - j) * be**j
        if not any(coeffs):
            continue
        f = BinaryForm(n, tuple(coeffs))
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
