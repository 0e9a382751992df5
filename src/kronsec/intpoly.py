"""Integer polynomials, exact and in Gaussian-integer fixed point, on the stdlib alone.

A polynomial is a list of coefficients, ascending unless said otherwise:
ints, or Gaussian integers as pairs (a, b) = a + bi.
A complex number x + iy is held either exactly as ints (a, b) over one power
of two, (a + bi) / 2^e, or in fixed point as (X, Y) with x + iy ~ (X + iY) /
2^bits, where sums are exact and each product is floored back to `bits`
fractional bits. `dyadic` is the package's one exact reader of floats and
mpmath numbers, and `readable` says which values it reads; `fixed` and
`gaussian` put values on a grid through it.
`apolarity` certifies Sylvester supports with these routines and `monodromy`
tracks loop roots with them. They share one root engine: `aberth_seeds`
seeds the roots of a Sylvester annihilator and of a loop base, and
`isolate` has `certified_root` refine each by `newton`, rung by rung, into
an inclusion disc proven small enough, then proves the discs pairwise apart
by one integer comparison each, which makes them all the roots. `squarefree`
and `aberth_seeds` read coefficients through `gaussian`, and
`certified_root` takes the Gaussian integers it gives, so one code path
serves integer and Gaussian-rational polynomials. `connection`
(Berlekamp-Massey mod p) gives apolarity the rank of its middle
catalecticant mod p without eliminating it, as `linear_complexity`, and,
run again mod LIFT_PRIME, a kernel vector of a catalecticant, whose
entries `rational` (Wang's rational reconstruction) reads back as fractions.
"""

import cmath
import sys
from math import gcd, inf, isqrt, ldexp, nextafter, pi
from operator import mul

NEWTON_ITERATIONS = 60
# The extra fractional bits of the grids certified_root refines a root on,
# past the bits its caller needs, finer rung by rung: the first serves a
# root that is not too ill-conditioned, and each later one a root whose
# derivative is so small that the rounding of the coarser grid keeps Newton
# from its target.
RUNGS = (72, 160, 400, 900)
# The package's one modular prime: for the squarefree certificate here and
# for the catalecticant and Vandermonde ranks of apolarity, each certified
# or redone exactly. Any prime is sound for the ranks, and any p = 3 mod 4
# for the squarefree certificate, which works in the field F_p[i]; one this
# large rarely divides a leading coefficient, a discriminant or a maximal
# minor. It differs from the benchmark oracle's prime, so the two never
# share an unlucky case.
SQUAREFREE_PRIME = 2**31 - 1
# The prime apolarity runs Berlekamp-Massey mod a second time to lift a
# one-dimensional catalecticant kernel: `rational` reads back entries up to
# sqrt(LIFT_PRIME / 2), about 2^63, and an exact product checks the lift.
LIFT_PRIME = 2**127 - 1


def dyadic(x) -> tuple[int, int]:
    """Integers (m, k) with x = m * 2^k exactly, for an int, a float or an mpf.

    An mpf is read off its _mpf_ tuple: converting it outside its working
    precision would round it to 53 bits.
    """
    if isinstance(x, (int, float)):
        num, den = x.as_integer_ratio()
        return num, 1 - den.bit_length()
    sign, man, exp, _ = x._mpf_
    return -man if sign else man, exp


def readable(z) -> bool:
    """Whether `dyadic` reads each part of z exactly: an int (not a bool), a finite float, complex, mpf or mpc.

    mpmath marks inf and nan by a negative bit count in the _mpf_ tuple;
    `dyadic` would read them as 0.
    """
    if isinstance(z, int):
        return not isinstance(z, bool)
    if isinstance(z, (float, complex)):
        return cmath.isfinite(z)
    parts = getattr(z, "_mpc_", None) or (getattr(z, "_mpf_", None),)
    return all(p is not None and p[3] >= 0 for p in parts)


def fixed(z, bits: int) -> tuple[int, int]:
    """floor(2^bits z), part by part, of an int, a float, a complex, an mpf or an mpc."""
    parts = [dyadic(z.real), dyadic(z.imag)]
    return tuple(m << (k + bits) if k + bits >= 0 else m >> -(k + bits) for m, k in parts)


def gaussian(approx) -> tuple[int, list[tuple[int, int]]]:
    """e >= 0 and integers (a, b) with z = (a + b i) / 2^e exactly, one e for every z.

    Each z is an int, a float, a complex, an mpf or an mpc; all of them are dyadic.
    """
    e = max([0] + [-dyadic(x)[1] for z in approx for x in (z.real, z.imag)])
    return e, [fixed(z, e) for z in approx]


def horner(pairs, a: int, b: int, q: int) -> tuple[int, int]:
    """q^d U((a + b i) / q) as a Gaussian integer (x, y), by homogeneous Horner with no rounding.

    That is sum_i u_i (a + b i)^i q^(d-i) for Gaussian-integer u_i; with
    q != 0 it is (0, 0) exactly when U((a + b i) / q) = 0. The powers q^k
    are shifts at a dyadic q = 2^s, the grid of every refined centre, so
    each c q^k is one small int times a power of two; any other q, the
    point (1 : 0) at q = 0 included, multiplies them out.
    """
    (x, y), q_pow, s = pairs[-1], 1, _log2(q)
    for cr, ci in reversed(pairs[:-1]):
        q_pow = q_pow * q if s is None else q_pow << s
        x, y = x * a - y * b + cr * q_pow, x * b + y * a + ci * q_pow
    return x, y


def interval_horner(pairs, z, bits: int) -> list[tuple[int, int, int]]:
    """Horner's rule for U at z = (z_0 + z_1 i) / 2^bits on the grid of 2^-bits, each step with a proven error bound.

    pairs are Gaussian integers, ascending, and z lies on the grid exactly.
    Step k, for k = deg down to 0, gives (X, Y, E) with
    |2^bits S_k - (X + Y i)| <= E for the partial sum S_k = sum_(l >= k)
    u_l z^(l - k): the last is U(z), and for the monomial w t^d the steps
    are w z^j, j = 0..d. Each step floors both parts of one product, an
    error below sqrt(2) < 2 ulps, and carries the earlier error times |z|:
    the running error bound of Horner's rule (Higham, Accuracy and
    Stability, 5.1), E <- ceil(E mag / 2^bits) + 2 with mag >= 2^bits |z|.
    While |z| <= 1 it grows by at most 2 a step; past 1 it grows as the
    value does, so the relative error stays as small.
    """
    zr, zi = z
    mag = ceil_sqrt(zr * zr + zi * zi)
    (x, y), err = pairs[-1], 0
    x, y = x << bits, y << bits
    steps = [(x, y, err)]
    for cr, ci in reversed(pairs[:-1]):
        x, y = ((x * zr - y * zi) >> bits) + (cr << bits), ((x * zi + y * zr) >> bits) + (ci << bits)
        err = -(-err * mag >> bits) + 2
        steps.append((x, y, err))
    return steps


def horner_with_derivative(pairs, a: int, b: int, q: int):
    """horner(pairs, a, b, q) and horner(derivative(pairs), a, b, q), in one homogeneous Horner pass.

    With w = a + b i, each step takes D <- D w + P and P <- P w + c q^k, so
    D ends as q^(d-1) U'(w / q) beside P = q^d U(w / q), for degree d >= 1;
    q^k as in horner.
    """
    (x, y), (dx, dy), q_pow, s = pairs[-1], (0, 0), 1, _log2(q)
    for cr, ci in reversed(pairs[:-1]):
        q_pow = q_pow * q if s is None else q_pow << s
        dx, dy = dx * a - dy * b + x, dx * b + dy * a + y
        x, y = x * a - y * b + cr * q_pow, x * b + y * a + ci * q_pow
    return (x, y), (dx, dy)


def _log2(q: int) -> int | None:
    """s with q = 2^s, or None when q is no power of two, as q = 0 and every q < 0."""
    return q.bit_length() - 1 if q > 0 and not q & (q - 1) else None


def derivative(pairs):
    return [(k * a, k * b) for k, (a, b) in enumerate(pairs)][1:]


def from_roots(roots) -> list[int]:
    """Ascending coefficients of prod (z - r); exact on integer input."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def times(a, b, bits: int) -> tuple[int, int]:
    return (a[0] * b[0] - a[1] * b[1]) >> bits, (a[0] * b[1] + a[1] * b[0]) >> bits


def times_linear(desc, r, bits: int):
    """Descending fixed-point coefficients of desc(z) * (z - r)."""
    out = list(desc) + [(0, 0)]
    for k, c in enumerate(desc, start=1):
        rc = times(r, c, bits)
        out[k] = (out[k][0] - rc[0], out[k][1] - rc[1])
    return out


def coprime_mod_p(coeffs) -> bool:
    """p does not divide lc(U), and U, U' are coprime in F_p[i][t] for p = SQUAREFREE_PRIME.

    U's coefficients are any numbers gaussian reads exactly. As p = 3 mod 4,
    -1 is no square mod p and F_p[i] is a field. That proves U squarefree
    over Q(i) (Brown 1971): a repeated factor g^2 | U over Z[i] keeps its
    degree mod p, because lc(g) divides lc(U), and its image would divide
    both U and U' mod p. False only means "maybe".
    """
    p = SQUAREFREE_PRIME
    return _coprime(*_with_derivative(coeffs), lambda poly: _trimmed([(x % p, y % p) for x, y in poly]))


def squarefree(coeffs) -> bool:
    """No repeated root: gcd(U, U') is constant, for U with coefficients gaussian reads exactly.

    A coprimality certificate mod a prime answers most inputs. Otherwise the
    gcd runs as a primitive remainder sequence over Z[i] (Collins 1967):
    each step of a pseudo-remainder is divided by the gcd of its integer
    parts, which keeps the coefficients from the growth that makes a Euclid
    over Q(i) hang at high degree.
    """
    u, du = _with_derivative(coeffs)
    return not du or coprime_mod_p(coeffs) or _coprime(u, du, _primitive)  # a constant U has no root to repeat


def _with_derivative(coeffs):
    _, u = gaussian(coeffs)
    return u, derivative(u)


def _trimmed(poly):
    while poly and poly[-1] == (0, 0):
        poly.pop()
    return poly


def _primitive(poly):
    content = gcd(*(part for c in poly for part in c)) or 1
    return _trimmed([(a // content, b // content) for a, b in poly])


def _coprime(a, b, reduce) -> bool:
    """gcd(a, b) is constant, by pseudo-remainders of Gaussian polynomials, each passed through reduce.

    reduce maps into F_p[i] or divides by a nonzero integer, and drops
    leading zeros; False when it lowers the degree of a, as it does when p
    divides lc(a).
    """
    if len(a) > len(a := reduce(a)):  # the length before reduce, then after
        return False
    b = reduce(b)
    while len(b) > 1:
        lead_r, lead_i = b[-1]
        while len(a) >= len(b):
            (top_r, top_i), shift = a[-1], len(a) - len(b)
            a = [(lead_r * x - lead_i * y, lead_r * y + lead_i * x) for x, y in a]
            for k, (x, y) in enumerate(b, start=shift):
                a[k] = (a[k][0] - top_r * x + top_i * y, a[k][1] - top_r * y - top_i * x)
            a = reduce(a)
        a, b = b, a
    return len(b) == 1


def linear_complexity(seq, p: int) -> int:
    """The linear complexity of seq mod the prime p: the length `connection` returns."""
    return connection(seq, p)[0]


def connection(seq, p: int) -> tuple[int, list[int]]:
    """(L, c) for seq mod the prime p, by Berlekamp-Massey (Massey 1969).

    L is the linear complexity, the least L with c_1, ..., c_L in F_p and
    s_i + c_1 s_(i-1) + ... + c_L s_(i-L) = 0 mod p for i = L, ...,
    len(seq) - 1; 0 when every term is 0 mod p. c = [1, c_1, ..., c_L] is
    the connection polynomial ascending, L + 1 residues, c_L = 0 when its
    degree is below L; it is the only one of length L when 2L <= len(seq).
    Each term costs one discrepancy of at most L products, O(len(seq) L) in
    all. apolarity reads the rank of a Hankel matrix off L: the Hankel
    matrices of a sequence have characteristic degrees L and len(seq) + 1 - L
    over any field (Heinig-Rost 1984); and c, reversed, is a vector of the
    kernel of the one with L + 1 columns.
    """
    seq = [x % p for x in seq]
    conn, prev = [1], [1]  # the connection polynomial, and the one before its last length change
    length, gap, last = 0, 1, 1  # L, the steps since that change, and the discrepancy it met
    for i, s in enumerate(seq):
        d = (s + sum(map(mul, conn[1:], reversed(seq[i - length:i])))) % p
        if not d:
            gap += 1
            continue
        f = d * pow(last, -1, p)
        new = conn + [0] * (gap + len(prev) - len(conn))
        for j, c in enumerate(prev, start=gap):
            new[j] = (new[j] - f * c) % p
        if 2 * length <= i:
            length, prev, last, gap = i + 1 - length, conn, d, 1
        else:
            gap += 1
        conn = new
    return length, conn + [0] * (length + 1 - len(conn))


def rational(u: int, m: int) -> tuple[int, int] | None:
    """(a, b) with a = u b mod m, |a| <= sqrt(m / 2), 0 < b <= sqrt(m / 2) and gcd(a, b) = 1, or None.

    Wang's rational reconstruction (SYMSAC 1981): the extended Euclid of m
    and u, run until the remainder is within the bound, and its cofactor
    there is the only candidate for b, the pair being unique when 2 a b < m.
    """
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def aberth_seeds(coeffs) -> list[complex] | None:
    """Float approximations of the roots of U by Aberth-Ehrlich sweeps, or None.

    U's coefficients are any numbers gaussian reads exactly, ints or
    Gaussian rationals. The sweeps run in t = 2^s u, with 2^s Fujiwara's
    root radius read off the bit lengths of the coefficients, so every root
    of U(2^s u) is at most 2 in size (4 when c_deg is not real) and the
    seeds are scaled back: roots past 2^512 that still fit in a float get
    seeds too. They start on a circle of Fujiwara's radius and update one
    root at a time (Aberth 1973, Ehrlich 1967). A root stops moving once
    |U(u)| is within the rounding error of Horner's rule, so clustered roots
    end at the accuracy floats allow rather than never converging. Near a
    root 0 it holds only at 0.0, so a root 0 is read off U(0) = 0 instead:
    it gets the seed 0j, first, and the sweeps run on U / t. A constant U
    gets []. None when a seed is still moving after the budget of sweeps, a
    sweep leaves the float range or a seed scaled back would.
    """
    _, pairs = gaussian(coeffs)
    zeros = 0
    while zeros < len(pairs) - 1 and pairs[zeros] == (0, 0):
        zeros += 1
    pairs = pairs[zeros:]
    deg = len(pairs) - 1
    # |c| < 2^size(c), and |c_deg| >= 2^(size(c_deg) - 1) when c_deg is real,
    # so |c_k / c_deg| < 2^(s (deg - k)), or twice that for a non-real c_deg
    sizes = [max(abs(a), abs(b)).bit_length() + bool(a and b) for a, b in pairs]
    s = max((-((sizes[-1] - size - 1) // (deg - k)) for k, size in enumerate(sizes[:-1]) if size), default=0)
    monic = [complex(x / d, y / d) for x, y, d in monic_parts(pairs, 0, s)]  # int / int rounds once
    radius = 2 * max(((abs(a) / 2 if k == deg else abs(a)) ** (1 / k) for k, a in enumerate(monic) if k),
                     default=0.0)
    z = [radius * cmath.exp(1j * (2 * pi * j / deg + pi / (2 * deg))) for j in range(deg)]
    tol = 4 * deg * sys.float_info.epsilon
    done = [False] * deg
    # The budget: about two sweeps a root for the seeds to part, one a bit of
    # the span of the coefficients' sizes, about the bits a seed descends to
    # reach a small cluster, and the bits of a float for the last approach.
    # No seed descends past the least positive float, 2^-(mant_dig - min_exp)
    # = 2^-1074, so the span counts up to mant_dig - min_exp bits; clusters
    # from 2^-40 to 2^-3000 beside 1, 2 and 3 settled within 311 sweeps.
    descent = min(max(sizes) - min(filter(None, sizes)), sys.float_info.mant_dig - sys.float_info.min_exp)
    try:
        for _ in range(2 * deg + descent + sys.float_info.mant_dig):
            for j, zj in enumerate(z):
                if done[j]:
                    continue
                u = du = 0j
                size, az = 0.0, abs(zj)
                for a in monic:
                    du = du * zj + u
                    u = u * zj + a
                    size = size * az + abs(a)
                if not cmath.isfinite(u) or not cmath.isfinite(du):
                    return None
                if abs(u) <= tol * size:
                    done[j] = True
                    continue
                ratio = u / du
                repel = sum(1 / (zj - zk) for k, zk in enumerate(z) if k != j)
                z[j] = zj - ratio / (1 - ratio * repel)
            if all(done):
                return [0j] * zeros + [complex(ldexp(w.real, s), ldexp(w.imag, s)) for w in z]
    except (ZeroDivisionError, OverflowError):
        # U'(u) = 0 or two seeds at one point; or abs() in a sweep, or ldexp
        # on a seed scaled back, past the float range
        pass
    return None


def monic_parts(pairs, bits: int, scale: int):
    """c_k / c_deg at t = 2^scale u in units of 2^-bits, k = deg down to 0, as exact (x, y, d): (x + y i) / d.

    pairs are Gaussian integers (a, b) = a + b i, ascending. The value is
    c_k conj(c_deg) 2^(bits + scale (k - deg)) / |c_deg|^2; a caller rounds
    x / d or floors x // d.
    """
    deg, (lead_r, lead_i) = len(pairs) - 1, pairs[-1]
    norm = lead_r * lead_r + lead_i * lead_i
    for k in range(deg, -1, -1):
        (a, b), shift = pairs[k], bits + scale * (k - deg)
        up, den = max(0, shift), norm << max(0, -shift)
        yield (a * lead_r + b * lead_i) << up, (b * lead_r - a * lead_i) << up, den


def newton(desc, z, bits: int, step_sq: int, noise: int = 0):
    """Newton-correct z on the polynomial with descending fixed-point coefficients.

    Horner gives the value u and derivative d together; the step u/d is one
    integer complex division. Returns the corrected root once |step|^2 <
    step_sq, or None at a zero derivative or after NEWTON_ITERATIONS steps.
    With noise > 0 it also returns None when `noise` units of rounding in u
    could alone make a step that large (noise 2^bits / |d| >= the target):
    there the grid is too coarse to tell a root from a point near one.
    """
    zr, zi = z
    (lead_r, lead_i), rest = desc[0], desc[1:]
    for _ in range(NEWTON_ITERATIONS):
        ur, ui, dr, di = lead_r, lead_i, 0, 0
        for cr, ci in rest:
            dr, di = ((dr * zr - di * zi) >> bits) + ur, ((dr * zi + di * zr) >> bits) + ui
            ur, ui = ((ur * zr - ui * zi) >> bits) + cr, ((ur * zi + ui * zr) >> bits) + ci
        den = dr * dr + di * di
        if not den:
            return None
        sr = ((ur * dr + ui * di) << bits) // den
        si = ((ui * dr - ur * di) << bits) // den
        zr, zi = zr - sr, zi - si
        if sr * sr + si * si < step_sq:
            return (zr, zi) if (noise * noise << 2 * bits) < step_sq * den else None
    return None


def certified_root(pairs, z0, precision_bits: int):
    """z0 refined to a grid point within 2^-precision_bits of a root of U, proven, or None.

    U's coefficients are Gaussian integers (a, b) = a + b i, ascending. Rung
    by rung, newton runs on the grid of 2^-bits, relative to the root as
    printed digits are: 2^-72 of the target times 2^e <= max(1, |z0|) on the
    first rung (2^-64 left Sylvester error bounds up to 30x larger). The
    certificate is the classical inclusion bound: for any z with U'(z) != 0,
    some root lies within deg(U) |U(z)/U'(z)| of z, evaluated exactly by
    one homogeneous Horner pass and compared with 2^-precision_bits on integers.
    Returns ((x, y), bits, (num, den)): the point (x + y i) / 2^bits and its
    squared radius num / den, 0 only at a root.
    """
    deg = len(pairs) - 1
    e = max(1, max(map(abs, fixed(z0, 0))).bit_length()) - 1
    for extra in RUNGS:
        bits = precision_bits + max(8, extra - e)
        z = newton([(a << bits, b << bits) for a, b in reversed(pairs)], fixed(z0, bits),
                   bits, 1 << 2 * (bits - precision_bits))
        if z is not None:
            (x, y), (dx, dy) = horner_with_derivative(pairs, *z, 1 << bits)
            num, den = deg * deg * (x * x + y * y), (dx * dx + dy * dy) << 2 * bits
            if num << 2 * precision_bits < den:
                return z, bits, (num, den)
    return None


def isolate(pairs, seeds, precision_bits: int, exact=()):
    """Each seed refined by certified_root and proven a root of its own, or None.

    exact holds known roots (a, b, q) of U, (a + b i) / q, pairwise distinct.
    A disc (x + y i) / 2^bits is held on its own grid with the integer radius
    r = ceil(2^bits sqrt(num / den)), an upper bound; discs c1 / q1, c2 / q2
    of radii r1 / q1, r2 / q2 are apart when |c1 q2 - c2 q1|^2 > (r1 q2 + r2 q1)^2,
    an exact root being a disc of radius 0. Every disc is compared with every
    other and with every exact root: deg U points, each a disc holding a root
    or an exact root, pairwise apart, are all the roots of U. Returns
    certified_root's triples in seed order; None when a refinement stalls or
    two discs meet.
    """
    found = [certified_root(pairs, z, precision_bits) for z in seeds]
    if None in found:
        return None
    discs = [(x, y, 1 << bits, ceil_sqrt(-((-num << 2 * bits) // den))) for (x, y), bits, (num, den) in found]
    points = [(a, b, q, 0) for a, b, q in exact]
    for i, (x1, y1, q1, r1) in enumerate(discs):
        for x2, y2, q2, r2 in discs[i + 1:] + points:
            if (x1 * q2 - x2 * q1) ** 2 + (y1 * q2 - y2 * q1) ** 2 <= (r1 * q2 + r2 * q1) ** 2:
                return None
    return found


def ceil_sqrt(n: int) -> int:
    """The least integer no smaller than the square root of n >= 0."""
    return isqrt(n - 1) + 1 if n else 0


def sqrt_up(square) -> float:
    """A float no smaller than the square root of a nonnegative Fraction."""
    num, den = square.numerator, square.denominator
    if not num:
        return 0.0
    k = max(0, 64 + (den.bit_length() - num.bit_length() + 1) // 2)
    # sqrt(square) * 2^k < isqrt(num * 4^k // den) + 1 exactly
    return nextafter(ldexp(isqrt((num << 2 * k) // den) + 1, -k), inf)
