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
found mod a prime and certified exactly: the rank r_p <= r of C_mid mod p
is read off the linear complexity of the moments mod p (Berlekamp-Massey),
and a nonzero kernel of C_(r_p), checked against every row, gives r <= r_p.
Where that kernel is one-dimensional, its vector is the connection
polynomial of a second Berlekamp-Massey run mod a larger prime, rationally
reconstructed; otherwise it is the exact kernel of the rows of C_(r_p)
independent mod p. That kernel is the annihilator space of the Sylvester
path. When a check fails (an unlucky prime) the exact route runs instead:
the rank of C_mid over Q, then the kernel of all of C_r. Every
catalecticant is built once as integer rows: the rows of C_k scaled to a
Hankel matrix of integers.

The support points (1 : 0) and (0 : 1) are read off the annihilator's
coefficients. Every rational point is exact, and no float decides which
they are: intpoly.rational_roots lifts the roots of U mod a small prime
p-adically, reconstructs each rational one and proves it by one exact
Horner, and divides U by their linear factors. Only the cofactor's roots,
the irrational ones, get intpoly's float Aberth-Ehrlich seeds, one per
root, and intpoly.isolate refines each on the full integer annihilator into
a certified disc whose exact radius is below
2^-(precision_bits + SOLVE_GUARD_BITS), and proves the discs apart from
each other and from the rational points, which makes them, one per root,
all the roots. mpmath.polyroots approximates the cofactor's roots only when
the seeds fail: none come back, a refinement stalls, or two discs meet. That
fallback is the one place the certificate loads mpmath.

Every coefficient comes by partial fractions over the annihilator U
(Kung-Rota), weight = N(t) / U'(t) for one numerator N built from the
form, evaluated exactly on integers in the chart, t = x/y or y/x, where the
point is small. One routine takes the weights of every support and
rebuilds the form from them once, on integers. On an exact support the
weights are Fractions and the rebuild's residual must be 0. Otherwise the
weights at the refined centres are rounded to precision_bits +
SOLVE_GUARD_BITS bits, and the error bound is the exact residual plus an
allowance for their printed digits; no linear system is solved. Both are
taken at a working precision: intpoly.interval_horner evaluates each
centre's weight and the rebuild's power sums on a fixed-point grid
WORKING_GUARD_BITS finer than the printed bits, with a proven bound on its
error, and each rounding the intervals decide is the one the exact
integers give. A rounding they leave undecided (a bit length, a half-way
point or a float boundary inside the interval, or a derivative that may
vanish) is taken from the exact integers, so the certificate and every
error are those of the exact route.

Every approximate value is the exact dyadic it is, a pair (m, k) meaning
m 2^k with m odd as mpmath normalizes it (kronsec.numerals), and a complex
one a pair of them: the refined centres, the rounded weights and the error
bound. sylvester_json prints them with numerals, the characters mpmath.nstr
prints; sylvester_decompose converts them exactly to mpmath numbers at its
return.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, inf, isqrt, lcm, nextafter
from operator import mul
from typing import Sequence

from . import intpoly, numerals, ratmat
from .config import DEFAULT_PRECISION_BITS, MIN_PRECISION_BITS
from .errors import CapacityError, ConsistencyError, DomainError, PrecisionError, require_int, require_str

RESAMPLE_BOUND = 32
# Guard bits above `precision_bits`: approximate support points are refined
# to discs of radius below 2^-(precision_bits + SOLVE_GUARD_BITS) and their
# weights rounded to that many bits, and sylvester_json prints them with the
# digits that read this precision back. error_bound allows a relative error of
# 2^-(precision_bits + SOLVE_GUARD_BITS) in each printed value, so the
# printed certificate rebuilds the form within it.
SOLVE_GUARD_BITS = 96
# Fractional bits past prec = precision_bits + SOLVE_GUARD_BITS of the grid
# on which _coefficients decides a centre's weight and the error bound, when
# the centres' own grid is not finer: the intervals it gets are about
# 2^-WORKING_GUARD_BITS of the printed ulp of the value they bound, so a
# rounding they leave undecided, which the exact integers then settle, comes
# about that rarely. (A part of a weight far smaller than the weight itself,
# as the imaginary part of a nearly real one, is known only to the weight's
# ulp, and is settled exactly more often.)
WORKING_GUARD_BITS = 64
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
        require_int("form degree", self.degree, least=1)
        if not isinstance(self.coeffs, tuple):
            raise DomainError(f"form coefficients must be a tuple, got {self.coeffs!r}")
        if len(self.coeffs) != self.degree + 1:
            raise DomainError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(_rational(f"form coefficient {i}", c)
                                                 for i, c in enumerate(self.coeffs)))
        if not any(self.coeffs):
            raise DomainError("the zero form is not admitted as a BinaryForm")

    def __str__(self) -> str:
        return format_form(self)


def _rational(what: str, value) -> Fraction:
    """value as a Fraction: an int (not a bool), a Fraction or a finite float; else a DomainError naming `what`."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, OverflowError):  # nan, inf
            pass
    raise DomainError(f"{what} must be a finite int, Fraction or float, got {value!r}")


def form(degree: int, coeffs) -> BinaryForm:
    """The form sum coeffs[i] x^(degree-i) y^i; coeffs is any iterable."""
    try:
        coeffs = tuple(coeffs)
    except TypeError:
        raise DomainError(f"form coefficients must be iterable, got {coeffs!r}") from None
    return BinaryForm(degree, coeffs)


_FORM_RE = re.compile(r"^\s*deg\s*=\s*(\d+)\s*;\s*coeffs\s*=\s*(.*?)\s*$")


def parse_form(text: str) -> BinaryForm:
    """Parse "deg=3; coeffs=1,0,0,1"; rationals may be written p/q."""
    m = _FORM_RE.match(require_str("form literal", text))
    if not m:
        raise DomainError(f"not a form literal: {text!r} (expected 'deg=n; coeffs=a_0,...,a_n')")
    try:
        degree = int(m.group(1))
    except ValueError:  # past Python's int-to-string limit
        raise DomainError(f"the form degree has more digits than Python's int-to-string limit of "
                          f"{sys.get_int_max_str_digits()}") from None
    try:
        coeffs = tuple(_coefficient(part.strip()) for part in m.group(2).split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad coefficient list in {text!r}: {exc}") from exc
    return BinaryForm(degree, coeffs)


def _coefficient(part: str) -> Fraction:
    """Fraction(part), read by int first: int takes every integer literal Fraction takes, with the same value.

    Fraction's own parse is a regular expression; any other literal (p/q,
    a decimal point or an exponent) or a failure of int (past its digit
    limit, say) goes to Fraction, whose value or error is then the answer.
    """
    try:
        return Fraction(int(part))
    except ValueError:
        return Fraction(part)


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
    a, b, s = (_rational("power_form alpha", alpha), _rational("power_form beta", beta),
               _rational("power_form scale", scale))
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
    ints, _ = _cleared(p.coeffs)
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
    require_int("operator degree k", k, least=1, most=n)
    rows = _hankel(_moments(n, p.coeffs), k)
    return [[x / (factorial(i) * factorial(n - k - i)) for x in row] for i, row in enumerate(rows)]


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with ints[i] = values[i] d, d the lcm of the denominators of the rationals `values` (1 for none)."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _annihilates(basis: list[list[Fraction]], rows: list[list[int]]) -> bool:
    """Every vector of basis is exactly orthogonal to every integer row."""
    for v in basis:
        w, _ = _cleared(v)
        if any(sum(map(mul, row, w)) for row in rows):
            return False
    return True


def _apolar_kernel(p: BinaryForm, degree_only: bool = False) -> tuple[int, list[list[Fraction]] | None]:
    """r = min_apolar_degree(p) and ratmat.kernel_basis of C_r, proven from ranks mod a prime.

    With P = intpoly.SQUAREFREE_PRIME, read at each call, and mid = max(1, n // 2):
      * C_mid mod P has rank min(L, n + 2 - L, mid + 1, n - mid + 1), which
        is min(L, n + 2 - L), L the linear complexity of the integer moments
        mod P (Berlekamp-Massey): the Hankel matrices of those n + 1 terms
        have characteristic degrees L and n + 2 - L over F_P. That rank is
        at most r, as the rows of a maximal minor nonzero mod P are
        independent over Q, so k = max(1, rank) <= r; no row of C_mid is
        eliminated;
      * when the rank is k and 2k < n + 2, the kernel is lifted
        (_lifted_kernel): Berlekamp-Massey runs again mod intpoly.LIFT_PRIME,
        on the moments when L = k and on the moments reversed otherwise.
        When that run has length k, its connection polynomial, rationally
        reconstructed, with the reversal undone and divided by its last
        nonzero entry, is the answer once it annihilates every row of C_k
        exactly. The proof: r >= k from C_mid; a nonzero v with C_k v = 0
        gives r <= k; rank_P C_k = min(L, n + 2 - L, k + 1, n - k + 1) = k,
        so dim ker_Q C_k <= 1; and the RREF vector of a one-dimensional
        kernel is its generator divided by its last nonzero entry;
      * otherwise (a kernel of dimension 2, an entry past the reconstruction
        bound, a run of another length), the exact kernel of the rows of C_k
        independent mod P contains ker C_k; a nonzero basis of it
        annihilating every row of C_k is ker C_k itself, so C_k has a
        kernel and r <= k.
    Then r = k, and the RREF basis, which depends only on the kernel, is
    the one of all of C_r. When a check fails, P divides a minor that
    matters, and the exact rank of C_mid and the kernel of C_r decide.
    With degree_only, a C_mid of full rank mod P proves r = k alone (its
    rank over Q lies between), and no kernel is computed: (k, None).
    """
    prime, n = intpoly.SQUAREFREE_PRIME, p.degree
    mid = max(1, n // 2)
    b = _integer_moments(p)
    b_mod = [x % prime for x in b]
    length = intpoly.linear_complexity(b_mod, prime)
    middle_rank = min(length, n + 2 - length, mid + 1, n - mid + 1)
    k = max(1, middle_rank)
    if degree_only and middle_rank == min(n - mid, mid) + 1:
        return k, None
    rows = _hankel(b, k)
    if middle_rank and 2 * k < n + 2:
        basis = _lifted_kernel(b, k, length == k, rows)
        if basis:
            return k, basis
    kept = ratmat.independent_rows_mod_p(_hankel(b_mod, k), prime)
    basis = ratmat.kernel_basis([rows[i] for i in kept])
    if basis and _annihilates(basis, rows):
        return k, basis
    r = ratmat.rank(_hankel(b, mid))
    return r, ratmat.kernel_basis(_hankel(b, r))


def _lifted_kernel(b: list[int], k: int, forward: bool, rows: list[list[int]]) -> list[list[Fraction]] | None:
    """[v], the one RREF vector of ker C_k read off the connection polynomial mod intpoly.LIFT_PRIME, or None.

    Run on b (forward) or on b reversed, a connection polynomial c of length
    k gives s_i + c_1 s_(i-1) + ... + c_k s_(i-k) = 0, so c reversed is a
    kernel vector of the Hankel matrix of the sequence it ran on; of the
    reversed moments that matrix is C_k with rows and columns reversed, and
    c itself is one of C_k. None when the run's length is not k, an entry
    has no reconstruction within the bound (the first such entry ends the
    reconstruction), or v fails to annihilate `rows`, the integer rows of C_k.
    """
    m = intpoly.LIFT_PRIME
    length, conn = intpoly.connection(b if forward else b[::-1], m)
    if length != k:
        return None
    v = []
    for c in conn:
        pair = intpoly.rational(c, m)
        if pair is None:  # past the reconstruction bound: the kept-rows route decides
            return None
        v.append(Fraction(*pair))
    v = v[::-1] if forward else v
    last = next(x for x in reversed(v) if x)
    v = [x / last for x in v]
    return [v] if _annihilates([v], rows) else None


def min_apolar_degree(p: BinaryForm) -> int:
    """Smallest k >= 1 whose catalecticant has a kernel: r = rank C_(n//2).

    The apolar ideal of a binary form is a complete intersection with
    generators in degrees r <= n + 2 - r (Sylvester), and the middle
    catalecticant has rank exactly r. For n = 1, C_1 of the nonzero linear
    form has rank 1. The rank is taken mod a prime and proven by full rank,
    or by one kernel vector of C_r lifted from a second Berlekamp-Massey run
    and checked against every row of C_r, or else by one exact kernel on the
    rows of C_r independent mod that prime, with the exact rank as the
    fallback (_apolar_kernel).
    """
    return _apolar_kernel(p, degree_only=True)[0]


def kernel_dimension(p: BinaryForm, k: int) -> int:
    """dim ker C_k = max(0, k - r + 1) + max(0, k - n - 1 + r), r = min_apolar_degree(p).

    The two terms count the degree-k multiples of the apolar generators of
    degrees r and n + 2 - r.
    """
    n = p.degree
    require_int("operator degree k", k, least=1, most=n)
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
    return at_inf, _cleared([coeffs[k - d] for d in range(k - at_inf + 1)])[0]


# --- certified root isolation ------------------------------------------------

@dataclass(frozen=True)
class SupportPoint:
    """A projective point (alpha : beta); exact, or certified within `radius`."""

    alpha: object  # Fraction when exact; else mpmath.mpc, or its Gaussian dyadic inside the package
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
    """All projective roots of a squarefree form given by _dehomogenize: exact points ascending, then certified discs.

    (1 : 0) is read off the coefficients (at_inf), and the rational roots of
    U come exactly from intpoly.rational_roots, with the cofactor C of U over
    their linear factors. Only C's roots are approximated: by the float seeds
    of intpoly.aberth_seeds, a near-real seed put on the real axis so that a
    real root keeps an imaginary part of exactly 0 through Newton; or, when
    there are none or intpoly.isolate finds a refinement stalled or two discs
    meeting, by mpmath.polyroots of C at the refinement target. isolate
    refines each on the full U until deg * |U(z)/U'(z)| < 2^-(precision_bits
    + SOLVE_GUARD_BITS), the precision the coefficients are rounded to, and
    proves the discs apart from each other and from the exact roots: deg U
    points, so the discs hold the other roots, one each. The discs are
    ordered by (|im|, re, im), polyroots' order with its conjugate pairs
    fixed, |im| rounded to 53 bits (_order). A disc's centre is its
    Gaussian dyadic, and its beta the dyadic 1.
    """
    points = [SupportPoint(Fraction(1), Fraction(0), exact=True)] if at_inf else []
    roots, cofactor = intpoly.rational_roots(ints)
    points += [SupportPoint(Fraction(a), Fraction(b), exact=True) for a, b in sorted(roots, key=lambda r: Fraction(*r))]
    pairs, bits, exact = [(c, 0) for c in ints], precision_bits + SOLVE_GUARD_BITS, [(a, 0, b) for a, b in roots]
    seeds = intpoly.aberth_seeds(cofactor)
    found = None if seeds is None else intpoly.isolate(
        pairs, [complex(z.real) if abs(z.imag) <= NEAR_REAL * abs(z) else z for z in seeds], bits, exact)
    if found is None:
        import mpmath  # loaded only here: the seeds failed

        try:
            with mpmath.workprec(bits):
                approx = mpmath.polyroots([mpmath.mpf(c) for c in reversed(cofactor)], maxsteps=220, extraprec=120)
        except mpmath.libmp.NoConvergence as exc:
            raise PrecisionError(f"support roots did not converge: {exc}") from None
        found = intpoly.isolate(pairs, approx, bits, exact)
    if found is None:
        raise PrecisionError(f"root isolation stalled above the precision floor 2^-{bits} or two inclusion discs "
                             "meet; the roots are not separated")
    discs = [SupportPoint((numerals.normal(x, -e), numerals.normal(y, -e)), (1, 0), exact=False,
                          radius=intpoly.sqrt_up(Fraction(*square))) for (x, y), e, square in found]
    return points + sorted(discs, key=_order)


def _order(pt: SupportPoint) -> tuple[Fraction, Fraction, Fraction]:
    """(|im|, re, im) of a disc's centre, |im| rounded to 53 bits, the nearest and a tie to even.

    The two centres of a conjugate pair differ in their last bits, and the
    rounding makes their |im| tie, so the real part orders them: the order
    mpmath's abs gives at its default precision, which certificates print.
    """
    re, im = pt.alpha
    m, k = abs(im[0]), im[1]
    drop = m.bit_length() - 53
    if drop > 0:
        q, r = divmod(m, 1 << drop)
        m, k = q + (2 * r > 1 << drop or 2 * r == 1 << drop and q & 1), k + drop
    return _fraction((m, k)), _fraction(re), _fraction(im)


def _fraction(value) -> Fraction:
    """The dyadic (m, k) as the Fraction m 2^k."""
    m, k = value
    return Fraction(m << k) if k >= 0 else Fraction(m, 1 << -k)


# --- Sylvester decomposition -------------------------------------------------

@dataclass(frozen=True)
class SecantCertificate:
    """Outcome of sylvester_decompose.

    annihilator has degree k, the first k whose catalecticant has a kernel,
    so the form lies on the k-th secant; rank is the Waring rank (k in the
    squarefree case, n - k + 2 otherwise). support/coefficients are present
    exactly when the annihilator used is squarefree: exact Fractions by
    partial fractions and an exact rebuild when support_exact, else the same
    partial fractions at the refined centres as mpc values. error_bound, an
    mpf rounded up, bounds every coefficient of the rebuild from those values
    printed to a relative 2^-(precision_bits + SOLVE_GUARD_BITS): the exact
    residual plus that allowance. Inside the package (_sylvester) each mpc
    and mpf is the Gaussian dyadic or dyadic it holds.
    """

    rank: int
    annihilator: BinaryForm
    support: tuple[SupportPoint, ...] | None
    coefficients: tuple | None
    support_exact: bool
    error_bound: object  # an mpf, or its dyadic inside the package


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
    Approximate values come as mpmath numbers, converted exactly from the
    dyadics _sylvester computes.
    """
    cert = _sylvester(p, precision_bits)
    if cert.support_exact:
        return cert
    return replace(cert, support=tuple(map(_mpmath_point, cert.support)),
                   coefficients=tuple(map(_to_mpmath, cert.coefficients)), error_bound=_to_mpmath(cert.error_bound))


def _mpmath_point(pt: SupportPoint) -> SupportPoint:
    """The point as sylvester_decompose returns it: a disc's centre an mpc and its beta an mpf."""
    return pt if pt.exact else replace(pt, alpha=_to_mpmath(pt.alpha), beta=_to_mpmath(pt.beta))


def _to_mpmath(value):
    """The mpf holding a dyadic, or the mpc holding a Gaussian dyadic, exactly."""
    import mpmath  # the public types of approximate values

    if isinstance(value[0], int):
        m, k = value
        return mpmath.mp.make_mpf((int(m < 0), abs(m), k, abs(m).bit_length()))
    return mpmath.mp.make_mpc(tuple(_to_mpmath(part)._mpf_ for part in value))


def _sylvester(p: BinaryForm, precision_bits: int) -> SecantCertificate:
    """sylvester_decompose(p) with every approximate value the dyadic it is."""
    require_int("precision_bits", precision_bits, least=MIN_PRECISION_BITS)
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
    coeffs, bound = _coefficients(points, at_inf, ints, p, precision_bits)
    return SecantCertificate(rank=k, annihilator=BinaryForm(k, tuple(square)), support=tuple(points),
                             coefficients=tuple(coeffs), support_exact=bound is None, error_bound=bound)


def _numerator(poly: list[int], moments: Sequence[Fraction]) -> tuple[list[int], int]:
    """(scale * N, scale) for U = sum u_l t^l (`poly`) and the moments s_m, m < deg U.

    N_r = sum_(l>r) u_l s_(l-r-1), r < deg U, is the polynomial part of
    U(t) sum_m s_m t^-(m+1). When s_m = sum_i c_i t_i^m over the roots t_i
    of the squarefree U, that series is sum_i c_i / (t - t_i), so
    N = sum_i c_i U(t) / (t - t_i) and c_i = N(t_i) / U'(t_i): the Lagrange
    inverse of the transposed Vandermonde system (Kung-Rota, Bull. AMS 1984).
    scale is the lcm of the denominators of the moments read.
    """
    d = len(poly) - 1
    s, scale = _cleared(moments[:d])
    return [sum(poly[l] * s[l - r - 1] for l in range(r + 1, d + 1)) for r in range(d)], scale


def _charts(at_inf: int, ints: list[int], p: BinaryForm) -> tuple:
    """The partial fractions of p over its annihilator in t = x/y and in tau = y/x, as (N, scale * D) each.

    With b_j = a_j / C(n, j), p = sum w_i (A_i x + B_i y)^n gives
    b_j = sum w_i A_i^(n-j) B_i^j. In t = A/B the moments s_m = b_(n-m)
    are sums over the finite points, with U = `ints`; in tau = B/A the
    moments s_m = b_m are sums over every point but (0 : 1), with
    V(tau) = tau^k U(1/tau) (tau = 0 is the point (1 : 0)). Each chart
    needs its moments only below its degree, at most n. The tau lists are
    reversed, so that Horner at (A, B) reads them at tau = B/A.
    """
    n = p.degree
    b = [a / comb(n, j) for j, a in enumerate(p.coeffs)]
    v = [0] * at_inf + ints[::-1]
    v = v[:len(v) - (not v[-1])]  # the top coefficient U(0) vanishes when t = 0 is a point
    (nt, st), (nv, sv) = _numerator(ints, b[::-1]), _numerator(v, b)
    return tuple(([(c, 0) for c in numer[::o]], intpoly.derivative([(s * c, 0) for c in poly])[::o])
                 for numer, s, poly, o in ((nt, st, ints, 1), (nv, sv, v, -1)))


def _weight(charts, n: int, a: int, b: int, q: int, centre: bool = False) -> tuple[int, int, int]:
    """(x, y, den), den > 0: the weight (x + y i) / den of the point (a + b i : q) in p = sum w (A x + B y)^n.

    A point with |A| <= |q| is read in t, where it is a root of U, and
    any other, (1 : 0) included, in tau: w = N(t) / (U'(t) q^n) or
    N(tau) / (V'(tau) A^n), each by one exact homogeneous Horner. With
    `centre`, q = 2^e and the weight is that of the point printed as
    ((a + b i) / q : 1), q^n times the above: N(t) / U'(t) as it stands in
    t, and the numerator shifted by e n in tau. At an
    exact root both charts give the same rational. At an approximate centre
    the chart where the point is small keeps its weight from carrying the
    others' error: the root near 527 of the degree-23 form
    "0,-8,3,-3,7,-7,2,8,0,-2,-2,8,5,2,9,3,-4,-1,2,0,4,0,7,-6" has a weight
    near 2e-62, and read in t alone the certificate's error bound was
    7.8e-17, against 9.0e-56 in two charts.
    """
    shift = 0
    if a * a + b * b <= q * q:
        (numer, deriv), power = charts[0], (1 if centre else q**n, 0)
    else:
        (numer, deriv), power = charts[1], (1, 0)
        for _ in range(n):
            power = (power[0] * a - power[1] * b, power[0] * b + power[1] * a)
        shift = (q.bit_length() - 1) * n if centre else 0
    x, y = intpoly.horner(numer, a, b, q)
    x, y = x << shift, y << shift
    u, v = intpoly.horner(deriv, a, b, q)
    u, v = u * power[0] - v * power[1], u * power[1] + v * power[0]
    if not (u or v):
        raise PrecisionError(f"singular coefficient evaluation: the annihilator's derivative vanishes at {a}{b:+}i over {q}")
    if not v:
        return (x, y, u) if u > 0 else (-x, -y, -u)
    return x * u + y * v, y * u - x * v, u * u + v * v


def _centre_weight(charts, n: int, a: int, b: int, e: int, bits: int, prec: int):
    """The two parts of the weight of the centre (a + b i) / 2^e, as _mpf rounds _weight's (x, y, den), or None.

    _weight's integers are Horner values at z = (a + b i) / 2^e itself: in
    the chart it picks, with N its numerator list of degree m as stored (in
    tau reversed, so read at z) and D its derivative list, times t^n in tau,
    of degree m', x + y i = 2^(e m) N(z), times 2^(e n) in tau, and
    u + v i = 2^(e m') D(z). intpoly.interval_horner gives N(z) and D(z)
    on the grid of 2^-bits (bits >= e) within proven errors, which make
    x + y i and u + v i intervals, and so den = |u| on the real axis, else
    |u + v i|^2, and the parts of (x + y i)(u - v i): _mpf decides each
    quotient from them. None when it does not, or when u + v i may be 0 (a
    singular evaluation) or, off the real axis, v may be 0: _weight decides
    those.
    """
    tau = a * a + b * b > 1 << 2 * e
    numer, deriv = charts[tau]
    deriv = [(0, 0)] * n * tau + deriv
    z = (a << bits - e, b << bits - e)
    (px, py, pe), (qx, qy, qe) = (intpoly.interval_horner(pairs, z, bits)[-1] for pairs in (numer, deriv))
    sp, sq = e * (len(numer) - 1 + n * tau) - bits, e * (len(deriv) - 1) - bits
    if not b:  # every chart coefficient is real: y = v = 0, and w = x / u
        if abs(qx) <= qe:
            return None
        sign = 1 if qx > 0 else -1
        x = _mpf((sign * px - pe, sign * px + pe, sp), (abs(qx) - qe, abs(qx) + qe, sq), prec)
        return None if x is None else (x, (0, 0))
    if abs(qy) <= qe:
        return None
    # |P Q* - p q*| <= |P - p| |Q| + |p| |Q - q| and ||Q|^2 - |q|^2| <= |Q - q| (|Q| + |q|), |p| <= |px| + |py|
    pm, qm = abs(px) + abs(py), abs(qx) + abs(qy)
    err, norm, norm_err = pe * (qm + qe) + qe * pm, qx * qx + qy * qy, qe * (2 * qm + qe)
    den = (norm - norm_err, norm + norm_err, 2 * sq)
    parts = [_mpf((c - err, c + err, sp + sq), den, prec) for c in (px * qx + py * qy, py * qx - px * qy)]
    return None if any(part is None for part in parts) else tuple(parts)


def _mpf(num, den, prec: int, up: bool = False) -> tuple[int, int] | None:
    """num / den (den > 0) on prec bits as the dyadic of an mpf, m 2^-shift, as the exact quotient of integers gives it, or None.

    shift = prec - 1 - bitlen(|num|) + bitlen(den), so that |num / den|
    2^shift lies in [2^(prec - 2), 2^prec), and m is the integer nearest
    num 2^shift / den, a tie rounded up, toward +inf (not to even), or with
    `up` the least integer no smaller. So m has prec - 1 or prec bits, or
    is 2^prec where the rounding carries; num = 0 gives 0. num and den are
    ints, or intervals (lo, hi, s) holding an unknown integer between lo 2^s
    and hi 2^s: the mpf is then the one every integer there gives, and None
    when they do not all give one, their bit lengths or their m differing.
    The dyadic is normalized (numerals.normal), as mpmath would hold m 2^-shift.
    """
    (nlo, nhi, ns), (dlo, dhi, ds) = (x if isinstance(x, tuple) else (x, x, 0) for x in (num, den))
    size, den_size = _bit_length(nlo, nhi, ns), _bit_length(dlo, dhi, ds)
    if size is None or den_size is None:
        return None
    shift = prec - 1 - size + den_size
    # the quotient is monotone in each bound, so its least and largest values are at two corners
    low, high = (_rounded(n, d, ns - ds + shift, up) for n, d in (((nlo, dhi), (nhi, dlo)) if nlo > 0 else
                                                                   ((nlo, dlo), (nhi, dhi))))
    if low != high:
        return None
    return numerals.normal(low, -shift)


def _bit_length(lo: int, hi: int, s: int) -> int | None:
    """The bit length of |x| for every integer x between lo 2^s and hi 2^s, lo <= hi, or None when they differ."""
    if lo <= 0 <= hi:
        return None if hi > lo else 0
    small, large = sorted((abs(lo), abs(hi)))
    return s + small.bit_length() if small.bit_length() == large.bit_length() else None


def _rounded(num: int, den: int, k: int, up: bool) -> int:
    """num 2^k / den (den > 0) rounded to the nearest integer, a tie up, or with `up` up to an integer."""
    top, bottom = (num << k, den) if k >= 0 else (num, den << -k)
    return -(-top // bottom) if up else (2 * top + bottom) // (2 * bottom)


def _grid(values) -> tuple[int, list[tuple[int, int]]]:
    """e >= 0 and Gaussian integers (a, b) with each Gaussian dyadic (a + b i) / 2^e exactly, one e for all: the least."""
    e = max([0] + [-k for value in values for _, k in value])
    return e, [tuple(m << k + e for m, k in value) for value in values]


def _homogeneous(points) -> tuple[int, list[tuple[tuple[int, int], int]]]:
    """e and each point as (A, B), A a Gaussian integer: (p, q) for an exact one, (2^e z, 2^e) for a centre z."""
    e, centres = _grid([pt.alpha for pt in points if not pt.exact])
    centres = iter(centres)
    return e, [((int(pt.alpha), 0), int(pt.beta)) if pt.exact else (next(centres), 1 << e) for pt in points]


def _gaussian_power_sum(n: int, points, weights) -> list[tuple[int, int]]:
    """sum_i w_i A_i^(n-j) B_i^j, j = 0..n, for Gaussian integers w_i, A_i and integers B_i.

    The package's one power sum: times C(n, j) it gives the coefficients of
    sum_i w_i (A_i x + B_i y)^n. A centre's B is a power of two, and
    multiplying by B^j is a shift: on the forms plans, full products made
    the residual's two power sums about four times slower.
    """
    sums = [(0, 0)] * (n + 1)
    for (x, y), ((a, b), q) in zip(weights, points):
        left = [(x, y)]  # w A^m
        for _ in range(n):
            x, y = x * a - y * b, x * b + y * a
            left.append((x, y))
        s, q_pow = q.bit_length() - 1, 1
        for j in range(n + 1):
            x, y = left[n - j]
            if q and q == 1 << s:
                x, y = x << s * j, y << s * j
            else:
                x, y, q_pow = x * q_pow, y * q_pow, q_pow * q
            sums[j] = (sums[j][0] + x, sums[j][1] + y)
    return sums


def _ceil_abs(x: int, y: int) -> int:
    """The least integer no smaller than |x + y i|; no square root when a part is 0, as on a real weight."""
    if not (x and y):
        return abs(x or y)
    return intpoly.ceil_sqrt(x * x + y * y)


def _max_ceil_abs(values, extras, shift: int) -> int:
    """max_j (_ceil_abs(*values[j]) << shift) + extras[j], with _ceil_abs taken only where it can decide.

    Each |x + y i| is first bracketed by the top 64 bits of its larger part:
    with a = |x| >> g and b = |y| >> g, isqrt(a^2 + b^2) 2^g <= _ceil_abs(x, y)
    <= ceil_sqrt((a + 1)^2 + (b + 1)^2) 2^g, with no square of x or y taken.
    A j whose upper end falls below the largest lower end cannot give the maximum.
    """
    ends = []
    for (x, y), extra in zip(values, extras):
        g = max(0, max(abs(x), abs(y)).bit_length() - 64)
        a, b = abs(x) >> g, abs(y) >> g
        ends.append(((isqrt(a * a + b * b) << (g + shift)) + extra,
                     (intpoly.ceil_sqrt((a + 1) ** 2 + (b + 1) ** 2) << (g + shift)) + extra))
    floor = max(low for low, _ in ends)
    return max(((_ceil_abs(*value) << shift) + extra
                for value, extra, (_, high) in zip(values, extras, ends) if high >= floor))


def _coefficients(points, at_inf: int, ints: list[int], p: BinaryForm, precision_bits: int):
    """The c_i of p = sum c_i (A_i x + B_i y)^n, _weight at each point or centre, and the bound of their rebuild.

    The form is rebuilt once over one denominator D. On an all-exact
    support the weights are Fractions over their lcm D, the residual must be
    exactly 0 (else a ConsistencyError), and the bound is None. Otherwise
    each part of each weight is _mpf's rounding to prec = precision_bits +
    SOLVE_GUARD_BITS bits of _weight's x / den and y / den, a Gaussian
    dyadic, and the bound, a dyadic, is
    exact: the largest |sum_i C(n, j) c_i A_i^(n-j) B_i^j - a_j| over the
    values returned, plus (n + 2) 2^-prec times sum_i C(n, j) |c_i|
    |A_i|^(n-j) |B_i|^j, which covers any printing of each part within a
    relative 2^-prec (a term's n + 1 factors each err by at most that),
    rounded up to an mpf. A bound above 2^-(precision_bits // 2) of the
    largest coefficient is a PrecisionError.

    A centre's weight and the bound are first decided on the working grid of
    2^-bits, bits = max(e, prec + WORKING_GUARD_BITS) for the centres' grid
    2^-e (_centre_weight, _interval_bound); a value their intervals leave
    undecided, and every exact point's weight, is taken from the exact
    integers (_weight, _exact_bound), so both routes give the same values
    and raise the same errors.
    """
    n, prec = p.degree, precision_bits + SOLVE_GUARD_BITS
    charts = _charts(at_inf, ints, p)
    e, homog = _homogeneous(points)
    target, scale = _cleared(p.coeffs)
    scales = [comb(n, j) * scale for j in range(n + 1)]
    if all(pt.exact for pt in points):
        coeffs = [Fraction(x, den) for x, _, den in (_weight(charts, n, a, b, q) for (a, b), q in homog)]
        numerators, den = _cleared(coeffs)
        sums = _gaussian_power_sum(n, homog, [(x, 0) for x in numerators])
        if any(c * x != t * den or y for c, (x, y), t in zip(scales, sums, target)):
            raise ConsistencyError(f"exact reconstruction mismatch for {p}")
        return coeffs, None
    bits = max(e, prec + WORKING_GUARD_BITS)
    coeffs = []
    for pt, ((a, b), q) in zip(points, homog):
        parts = None if pt.exact else _centre_weight(charts, n, a, b, e, bits, prec)
        if parts is None:
            # a centre prints as (z : 1)
            x, y, den = _weight(charts, n, a, b, q, centre=not pt.exact)
            parts = _mpf(x, den, prec), _mpf(y, den, prec)
        coeffs.append(parts)
    f, weights = _grid(coeffs)
    rebuild = (points, homog, weights, target, scales, e, f, prec, precision_bits)
    bound, too_large = _interval_bound(*rebuild, bits) or _exact_bound(*rebuild)
    if too_large:
        raise PrecisionError(f"numeric reconstruction residual {numerals.nstr(bound, 6)} too large for {p}")
    return coeffs, bound


def _exact_bound(points, homog, weights, target, scales, e, f, prec, precision_bits):
    """_coefficients' bound from the exact rebuild, and whether it is too large.

    Every term c_i A_i^(n-j) B_i^j is over 2^(f + e n): a centre's
    c (A / 2^e)^(n-j) is c 2^-(e n) A^(n-j) (2^e)^j.
    """
    n = len(scales) - 1
    weights = [(x << e * n, y << e * n) if pt.exact else (x, y) for pt, (x, y) in zip(points, weights)]
    target = [t << f + e * n for t in target]
    residuals = [(c * x - t, c * y) for c, (x, y), t in zip(scales, _gaussian_power_sum(n, homog, weights), target)]
    sizes = _gaussian_power_sum(n, [((_ceil_abs(*a), 0), q) for a, q in homog], [(_ceil_abs(*w), 0) for w in weights])
    # the largest residual plus allowance, times scale 2^(f + e n + prec)
    worst = _max_ceil_abs(residuals, [(n + 2) * c * size for c, (size, _) in zip(scales, sizes)], prec)
    bound = _mpf(worst, scales[0] << f + e * n + prec, 53, up=True)
    return bound, worst << precision_bits // 2 > max(map(abs, target)) << prec


def _interval_bound(points, homog, weights, target, scales, e, f, prec, precision_bits, bits):
    """_exact_bound's bound and verdict, decided from power sums on the grid of 2^-bits (bits >= e), or None.

    In _exact_bound's units each term w A^(n-j) B^j of a centre is w 2^(e n)
    z^(n-j), z = A / 2^e, and its size ceil|w| ceil|A|^(n-j) 2^(e j) is
    ceil|w| 2^(e n) rho^(n-j), rho = ceil|A| / 2^e: 2^s times step n - j
    of intpoly.interval_horner on the monomials w t^n and ceil|w| t^n, s =
    e n - bits. An exact point's terms are exact there. So every residual,
    size and the largest of them is an interval in units of 2^s, and _mpf
    and one comparison decide what _exact_bound gives, or leave it undecided.
    """
    n = len(scales) - 1
    s = e * n - bits
    carry = 1 << max(0, -s)  # a ceiling in _exact_bound's units, in units of 2^s
    rows = []  # for each point and j = 0..n: its term, the term's error, and its size, low and high
    for pt, (x, y), ((a, b), q) in zip(points, weights, homog):
        if pt.exact:
            # w 2^(e n) a^(n-j) q^j, exact; ceil|w 2^(e n)| is 2^bits |w| (exact for a real w) plus at most carry
            norm, powers = (x * x + y * y) << 2 * bits, [a ** (n - j) * q**j for j in range(n + 1)]
            size = (isqrt(norm), intpoly.ceil_sqrt(norm) + carry * bool(y))
            rows.append([(x * c << bits, y * c << bits, 0, size[0] * abs(c), size[1] * abs(c)) for c in powers])
        else:
            terms = intpoly.interval_horner([(0, 0)] * n + [(x, y)], (a << bits - e, b << bits - e), bits)
            sizes = intpoly.interval_horner([(0, 0)] * n + [(_ceil_abs(x, y), 0)], (_ceil_abs(a, b) << bits - e, 0),
                                            bits)
            rows.append([(tx, ty, err, v - size_err, v + size_err)
                         for (tx, ty, err), (v, _, size_err) in zip(reversed(terms), reversed(sizes))])
    low = high = 0
    for c, t, column in zip(scales, target, zip(*rows)):
        x, y, err, small, large = map(sum, zip(*column))
        x, y, err = c * x - (t << f + bits), c * y, c * err
        norm = x * x + y * y
        low = max(low, (max(0, isqrt(norm) - err) << prec) + (n + 2) * c * small)
        high = max(high, (intpoly.ceil_sqrt(norm) + err + carry << prec) + (n + 2) * c * large)
    bound = _mpf((low, high, s), scales[0] << f + e * n + prec, 53, up=True)
    top = max(map(abs, target)) << f + bits + prec
    if bound is None or low << precision_bits // 2 <= top < high << precision_bits // 2:
        return None
    return bound, low << precision_bits // 2 > top


def sylvester_json(p: BinaryForm, precision_bits: int) -> dict:
    """The certificate of sylvester_decompose(p) as the JSON object `kronsec sylvester` prints.

    Exact values print as str gives them, approximate ones, dyadics, with
    the digits that read them back, as mpmath.nstr prints them
    (numerals.nstr). A support disc's radius covers the distance those
    digits move its centre, and the error bound is rounded up to a float.
    A value past Python's int-to-string limit is a CapacityError.
    """
    cert = _sylvester(p, precision_bits)

    def digits(x) -> int:
        # The digits that read back every bit of the refined precision, or of a
        # longer mantissa, as a refined centre far from 0 has.
        bits = max(abs(m).bit_length() for m, _ in ((x,) if isinstance(x[0], int) else x))
        return numerals.repr_dps(max(precision_bits + SOLVE_GUARD_BITS, bits))

    def text(x) -> str:
        # An exact value, or the annihilator, as str gives it. Past Python's
        # int-to-string limit str raises ValueError: the request is too large
        # to print, not a fault of the package.
        try:
            return str(x)
        except ValueError:
            raise CapacityError(f"an exact value of the certificate has more digits than Python's "
                                f"int-to-string limit of {sys.get_int_max_str_digits()}") from None

    def number(x, exact: bool) -> str:
        return text(x) if exact else numerals.nstr(x, digits(x))

    def radius(pt) -> float:
        # The certified radius about the refined centre plus the distance its
        # printed digits move it, rounded up: a disc of this radius about the
        # printed centre holds a root. A part m 2^k printed as d 10^t moves by
        # d 10^t - m 2^k; both parts are put over one denominator 2^twos 5^fives,
        # and the squared distance is reduced by one gcd.
        n = digits(pt.alpha)
        parts = [(*numerals.decimal(m, k, n), m, k) for m, k in pt.alpha]
        fives = max(0, *(-t for _, t, _, _ in parts))
        twos = max(fives, *(-k for _, _, _, k in parts))
        moved = [((d * 5 ** (t + fives)) << (t + twos)) - ((m * 5**fives) << (k + twos)) for d, t, m, k in parts]
        square = Fraction(sum(x * x for x in moved), 5 ** (2 * fives) << 2 * twos)
        return nextafter(pt.radius + intpoly.sqrt_up(square), inf)

    def bound(x) -> float | str:
        # The least float no smaller than the bound wherever a normal double
        # holds it. Past the double range (JSON, RFC 8259, has no Infinity) and
        # below it (where float() gives 0.0 or drops digits) it prints as
        # approximate values do.
        value = _fraction(x)
        if not sys.float_info.min <= value <= sys.float_info.max:
            return number(x, False)
        up = float(value)
        return up if up >= value else nextafter(up, inf)

    return {
        "form": format_form(p),
        "kernel_degree": cert.annihilator.degree,
        "rank": cert.rank,
        "member": True,  # p lies on the secant of its first kernel degree
        "annihilator": text(cert.annihilator),
        "support": None if cert.support is None else [
            {"alpha": number(q.alpha, q.exact), "beta": number(q.beta, q.exact), "exact": q.exact,
             "radius": None if q.radius is None else radius(q)} for q in cert.support],
        "coefficients": None if cert.coefficients is None
                        else [number(c, cert.support_exact) for c in cert.coefficients],
        "support_exact": cert.support_exact,
        "error_bound": None if cert.error_bound is None else bound(cert.error_bound),
    }


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
    require_int("form degree", n, least=1)
    require_int("rank k", k, least=1, most=(n + 1) // 2)
    rng = random.Random(seed)
    pool = _point_pool()
    for _ in range(RESAMPLE_BOUND):
        pts = tuple(sorted(rng.sample(pool, k)))
        weights = tuple(rng.choice([c for c in range(-9, 10) if c]) for _ in range(k))
        sums = _gaussian_power_sum(n, [((a, 0), b) for a, b in pts], [(w, 0) for w in weights])
        coeffs = [comb(n, j) * x for j, (x, _) in enumerate(sums)]
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
    require_int("moment degree", degree)
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
