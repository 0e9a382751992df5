"""Integer polynomials, exact and in Gaussian-integer fixed point, on the stdlib alone.

A polynomial is a list of int coefficients, ascending unless said otherwise.
A complex number x + iy is held either exactly as ints (a, b) over one power
of two, (a + bi) / 2^e, or in fixed point as (X, Y) with x + iy ~ (X + iY) /
2^bits, where sums are exact and each product is floored back to `bits`
fractional bits. `dyadic` is the package's one exact reader of floats and
mpmath numbers; `fixed` and `gaussian` put values on a grid through it.
`apolarity` certifies Sylvester supports with these routines and `monodromy`
tracks loop roots with them; `newton` serves both.
"""

import cmath
import sys
from math import gcd, ldexp, pi

NEWTON_ITERATIONS = 60
# Aberth-Ehrlich sweeps aberth_seeds may take. apolarity certifies a
# Sylvester support from the seeds; a seed still moving after the last
# sweep gives no seeds, and the support's roots come from the
# mpmath.polyroots fallback instead.
ABERTH_SWEEPS = 60
# The package's one modular prime: for the squarefree certificate here and
# for the catalecticant and Vandermonde ranks of apolarity, each certified
# or redone exactly. Any prime is sound, and one this large rarely divides
# a leading coefficient, a discriminant or a maximal minor. It differs from
# the benchmark oracle's prime, so the two never share an unlucky case.
SQUAREFREE_PRIME = 2**31 - 1


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


def horner(ints: list[int], a: int, b: int, q: int) -> tuple[int, int]:
    """q^d U((a + b i) / q) as a Gaussian integer (x, y), by homogeneous Horner with no rounding.

    That is sum_i c_i (a + b i)^i q^(d-i); with b = 0 and q != 0 it is (0, 0)
    exactly when U(a/q) = 0.
    """
    x, y, q_pow = ints[-1], 0, 1
    for c in reversed(ints[:-1]):
        q_pow *= q
        x, y = x * a - y * b + c * q_pow, x * b + y * a
    return x, y


def derivative(ints: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(ints)][1:]


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


def coprime_mod_p(ints: list[int]) -> bool:
    """p does not divide lc(U), and U, U' are coprime in F_p[t] for p = SQUAREFREE_PRIME.

    That proves U squarefree over Q (Brown 1971): a repeated factor g^2 | U
    over Z keeps its degree mod p, because lc(g) divides lc(U), and its image
    would divide both U and U' mod p. False only means "maybe".
    """
    p = SQUAREFREE_PRIME
    if not ints[-1] % p:
        return False
    a = [c % p for c in ints]
    b = [c % p for c in derivative(ints)]
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


def squarefree(ints: list[int]) -> bool:
    """No repeated root: gcd(U, U') is constant.

    A coprimality certificate mod a prime answers most inputs. Otherwise the
    gcd runs as a primitive remainder sequence over Z (Collins 1967): each
    pseudo-remainder is divided by its content, which keeps the coefficients
    from the growth that makes a Euclid over Q hang at high degree.
    """
    if coprime_mod_p(ints):
        return True
    a, b = ints, derivative(ints)
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


def aberth_seeds(ints: list[int]) -> list[complex] | None:
    """Float approximations of the roots of U by Aberth-Ehrlich sweeps, or None.

    Starts on a circle of Fujiwara's root radius and updates one root at a
    time (Aberth 1973, Ehrlich 1967). A root stops moving once |U(z)| is
    within the rounding error of Horner's rule, so clustered roots end at
    the accuracy floats allow rather than never converging. A seed at the
    root 0, where that test holds only at 0.0 itself, stops once
    |z| <= tol * radius for the starting radius. When the sweeps overflow,
    they run once more in t = 2^s u, with 2^s Fujiwara's radius read off
    the bit lengths of the coefficients, and the seeds are scaled back; so
    roots past 2^512 that still fit in a float get seeds too.
    """
    try:
        return _aberth_sweeps(ints, 0)
    except OverflowError:
        pass
    deg, top = len(ints) - 1, ints[-1].bit_length()
    # |c_k / c_deg| < 2^(bl(c_k) - bl(c_deg) + 1), so every root of U(2^s u) is at most 2 in size
    s = max((-((top - c.bit_length() - 1) // (deg - k)) for k, c in enumerate(ints[:-1]) if c), default=0)
    try:
        seeds = _aberth_sweeps(ints, s)
        return None if seeds is None else [complex(ldexp(z.real, s), ldexp(z.imag, s)) for z in seeds]
    except OverflowError:
        return None


def _aberth_sweeps(ints: list[int], s: int) -> list[complex] | None:
    """aberth_seeds on U(2^s u) in u; None when a seed does not settle, OverflowError on overflow."""
    deg = len(ints) - 1
    # c_k 2^(s k) / (c_deg 2^(s deg)): int / int rounds once, raising only if a quotient overflows
    monic = [(c << max(0, -s * (deg - k))) / (ints[-1] << max(0, s * (deg - k)))
             for k, c in reversed(list(enumerate(ints)))]
    bound = max((abs(monic[k]) ** (1 / k) for k in range(1, deg)), default=0.0)
    radius = 2 * max(bound, (abs(monic[deg]) / 2) ** (1 / deg))
    z = [radius * cmath.exp(1j * (2 * pi * j / deg + pi / (2 * deg))) for j in range(deg)]
    tol = 4 * deg * sys.float_info.epsilon
    done = [False] * deg
    for _ in range(ABERTH_SWEEPS):
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
                raise OverflowError("Aberth sweep left the float range")
            if abs(u) <= tol * size or az <= tol * radius:
                done[j] = True
                continue
            try:
                ratio = u / du
                repel = sum(1 / (zj - zk) for k, zk in enumerate(z) if k != j)
                z[j] = zj - ratio / (1 - ratio * repel)
            except ZeroDivisionError:
                return None
        if all(done):
            return z
    return None


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
