"""Shared oracles for the test suite, a time bound for a block, and seeded loop bases.

Everything in this file is computed from first principles with the standard
library only: enumeration by brute force, the pentagonal-number recurrence,
permutation-character reduction, and direct differentiation. Tests freeze
package results against these independent routes, so nothing here may import
from the package's computational internals.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
import random
import re
import signal
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import comb, factorial


class Overtime(BaseException):
    """Raised by the alarm of within_seconds; not an Exception, so no handler in kronsec can catch it."""


@contextlib.contextmanager
def within_seconds(seconds: float):
    """Run the block under a SIGALRM timer; Overtime is raised inside it once `seconds` have passed.

    On exit the timer is disarmed and the previous SIGALRM handler restored.
    """
    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spread_half_twist(seed: int) -> tuple[int, list[complex], int]:
    """n, n roots of modulus 1e-4, 1 or 1e4 at random angles, and a half-twist index i in 1..n-1."""
    rng = random.Random(seed)
    n = rng.randint(11, 14)
    roots = [rng.choice([1e-4, 1, 1e4]) * cmath.exp(2j * math.pi * rng.random()) for _ in range(n)]
    return n, roots, rng.randint(1, n - 1)


def oracle_class_inner_product(class_sizes, a, b) -> Fraction:
    """(1/n!) sum_C |C| a(C) b(C) of two class functions; n! is the sum of the class sizes."""
    return Fraction(sum(size * x * y for size, x, y in zip(class_sizes, a, b)), sum(class_sizes))


def oracle_partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts.append(total)
    return counts[n]


def oracle_partitions(n: int) -> set[tuple[int, ...]]:
    """All partitions of n, as the sorted compositions (brute force)."""
    if n == 0:
        return {()}
    found = set()
    for cuts in itertools.product([0, 1], repeat=n - 1):
        parts = []
        current = 1
        for cut in cuts:
            if cut:
                parts.append(current)
                current = 1
            else:
                current += 1
        parts.append(current)
        found.add(tuple(sorted(parts, reverse=True)))
    return found


@cache
def oracle_syt_count(lam: tuple[int, ...]) -> int:
    """Standard fillings counted by peeling corners, no hook formula."""
    if not lam:
        return 1
    total = 0
    for i, row in enumerate(lam):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if row > below:
            smaller = tuple(r - (j == i) for j, r in enumerate(lam))
            smaller = tuple(r for r in smaller if r)
            total += oracle_syt_count(smaller)
    return total


def oracle_cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def oracle_cycle_census(n: int) -> dict[tuple[int, ...], int]:
    """Class sizes by counting every permutation of S_n (n <= 7 or so)."""
    census: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        t = oracle_cycle_type(perm)
        census[t] = census.get(t, 0) + 1
    return census


def _revlex(parts) -> list[tuple[int, ...]]:
    return sorted(parts, reverse=True)


def _perm_character_value(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Permutation character of the Young subgroup S_mu at cycle type rho.

    Counts the assignments of the cycles of rho to the rows of mu filling
    each row exactly. This is the coefficient extraction from the product of
    power sums, done by explicit search.
    """

    def assign(cycles, loads):
        if not cycles:
            return 1
        first, rest = cycles[0], cycles[1:]
        total = 0
        for i, load in enumerate(loads):
            if load >= first:
                total += assign(rest, loads[:i] + (load - first,) + loads[i + 1:])
        return total

    return assign(tuple(rho), tuple(mu))


@cache
def oracle_character_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Irreducible characters of S_n by reducing permutation characters.

    Rows of the transition matrix from permutation to irreducible characters
    are unitriangular against reverse-lex order, so subtracting the already
    known irreducibles from each permutation character in that order leaves
    exactly the new irreducible.
    """
    census = oracle_cycle_census(n)
    classes = _revlex(census)
    order = factorial(n)

    def inner(a, b):
        total = sum(census[c] * a[c] * b[c] for c in classes)
        q = Fraction(total, order)
        assert q.denominator == 1
        return q.numerator

    table: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for mu in _revlex(census):
        row = {rho: _perm_character_value(mu, rho) for rho in classes}
        for lam, known in table.items():
            m = inner(row, known)
            if m:
                row = {rho: row[rho] - m * known[rho] for rho in classes}
        assert inner(row, row) == 1
        table[mu] = row
    return table


def oracle_is_horizontal_strip(inner: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    """outer/inner is a horizontal strip: containment plus no stacked cells."""
    if len(inner) > len(outer):
        return False
    padded = tuple(inner) + (0,) * (len(outer) - len(inner))
    for i, out_row in enumerate(outer):
        if out_row < padded[i]:
            return False
        if i + 1 < len(outer) and outer[i + 1] > padded[i]:
            return False
    return True


def oracle_apply_operator(q_coeffs, p_degree: int, p_coeffs) -> list[Fraction]:
    """q(d/dx, d/dy) applied to p, coefficient list of the result.

    q = sum_j q_coeffs[j] x^(k-j) y^j with k = len(q_coeffs) - 1, and
    p = sum_i p_coeffs[i] x^(n-i) y^i. Differentiation is carried out one
    monomial at a time with falling factorials.
    """
    k = len(q_coeffs) - 1
    n = p_degree

    def falling(x, m):
        out = 1
        for t in range(m):
            out *= x - t
        return out

    result = [Fraction(0)] * (n - k + 1)
    for j, b in enumerate(q_coeffs):
        if not b:
            continue
        for i, a in enumerate(p_coeffs):
            if not a:
                continue
            # d/dx^(k-j) d/dy^j on x^(n-i) y^i
            if n - i < k - j or i < j:
                continue
            c = Fraction(b) * Fraction(a) * falling(n - i, k - j) * falling(i, j)
            result[i - j] += c
    return result


def oracle_catalecticant(p_degree: int, p_coeffs, k: int) -> list[list[Fraction]]:
    """The degree-k catalecticant as rows: column j applies x^(k-j) y^j as an operator to p."""
    cols = [oracle_apply_operator([int(i == j) for i in range(k + 1)], p_degree, p_coeffs)
            for j in range(k + 1)]
    return [list(row) for row in zip(*cols)]


def oracle_rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over GF(p) by Gaussian elimination with inverses mod p."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def oracle_power_sum_coeffs(n: int, points, weights) -> list[Fraction]:
    """Coefficients of sum_i w_i (a_i x + b_i y)^n by direct expansion."""
    coeffs = [Fraction(0)] * (n + 1)
    for (a, b), w in zip(points, weights):
        for j in range(n + 1):
            coeffs[j] += Fraction(w) * comb(n, j) * Fraction(a) ** (n - j) * Fraction(b) ** j
    return coeffs


def _oracle_determinant(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def oracle_rref(a) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns by textbook Gauss-Jordan over Fraction.

    Each pivot row is divided by its pivot and the pivot column is cleared
    in every other row, one Fraction operation per cell.
    """
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def oracle_has_repeated_root(q_coeffs) -> bool:
    """Whether the binary form sum_j q_j x^(k-j) y^j has a repeated projective root.

    A double root at (1:0) means q_0 = q_1 = 0. Otherwise the finite roots
    are those of U(t) = q(t, 1), and U has a repeated one exactly when the
    resultant of U and U', the determinant of their Sylvester matrix, is 0.
    """
    if not q_coeffs[0] and not q_coeffs[1]:
        return True
    u = list(q_coeffs[1:] if not q_coeffs[0] else q_coeffs)  # descending powers of t
    d = len(u) - 1
    if d < 2:
        return False
    du = [(d - i) * c for i, c in enumerate(u[:-1])]
    size = 2 * d - 1
    sylvester = [[0] * i + u + [0] * (size - d - 1 - i) for i in range(d - 1)]
    sylvester += [[0] * i + du + [0] * (size - d - i) for i in range(d)]
    return _oracle_determinant(sylvester) == 0


def oracle_rational_roots(u) -> list[Fraction]:
    """The rational roots of U = sum u_i t^i (ascending integers, not all 0), ascending, by trying each candidate.

    A root 0 is read off the zero coefficients at the bottom; with them
    dropped, every other root is +-a/b with a | u_0 and b | u_d, and each
    such candidate is evaluated exactly.
    """
    low = next(i for i, c in enumerate(u) if c)
    u = u[low:]

    def divisors(m):
        m = abs(m)
        return {k for j in range(1, math.isqrt(m) + 1) if m % j == 0 for k in (j, m // j)}

    candidates = {sign * Fraction(a, b) for a in divisors(u[0]) for b in divisors(u[-1]) for sign in (1, -1)}
    d = len(u) - 1  # b^d U(a / b) = sum u_i a^i b^(d - i), on integers
    roots = {x for x in candidates
             if not sum(c * x.numerator**i * x.denominator ** (d - i) for i, c in enumerate(u))}
    return sorted(roots | {Fraction(0)} if low else roots)


def oracle_form(text: str) -> tuple[int, list[Fraction]]:
    """(n, [a_0, ..., a_n]) of a form literal "deg=n; coeffs=a_0,...,a_n", each a_i read by Fraction."""
    degree, coeffs = re.fullmatch(r"\s*deg\s*=\s*(\d+)\s*;\s*coeffs\s*=\s*(.*?)\s*", text).groups()
    return int(degree), [Fraction(c.strip()) for c in coeffs.split(",")]


def oracle_printed(text: str) -> tuple[Fraction, Fraction]:
    """A printed exact or approximate value, read exactly as a Gaussian rational (re, im)."""
    parts = re.fullmatch(r"\((\S+) ([+-]) (\S+)j\)", text)
    if parts:
        re_part, sign, im_part = parts.groups()
        return Fraction(re_part), Fraction(sign + im_part)
    return Fraction(text), Fraction(0)


def _oracle_times(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _oracle_homogeneous(u, w, q: int):
    """q^d U(w / q) and q^(d-1) U'(w / q) as Gaussian integers, for U = sum u_i t^i of degree d (u ascending integers), w = (x, y) = x + y i and q > 0.

    Horner's rule on sum u_i w^i q^(d-i) and on its derivative in w.
    """
    (x, y), value, slope, power = w, (u[-1], 0), (0, 0), 1
    for c in reversed(u[:-1]):
        power *= q
        slope = (slope[0] * x - slope[1] * y + value[0], slope[0] * y + slope[1] * x + value[1])
        value = (value[0] * x - value[1] * y + c * power, value[0] * y + value[1] * x)
    return value, slope


def _oracle_apart(points) -> bool:
    """Whether the discs (centre, radius) are pairwise disjoint: |c1 - c2| > r1 + r2 for every pair."""
    return all((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 > (r + s) ** 2
               for i, (a, r) in enumerate(points) for b, s in points[i + 1:])


def oracle_check_certificate(form_text: str, payload: dict) -> None:
    """Assert that a printed `sylvester` certificate of the form proves what it claims, from its digits alone.

    The annihilator annihilates the form (oracle_apply_operator), and with
    no support it has a repeated root. Otherwise, with U(t) = q(t, 1) for
    the annihilator q and its roots at (1 : 0) dropped:
      * every exact point is a root of U, by exact evaluation;
      * every disc (c, r) holds a root: one exact Newton step from c to N,
        and |N - c| + deg U |U(N) / U'(N)| <= r, compared on squares. Some
        root of U lies within deg U |U(z) / U'(z)| of any z with U'(z) != 0;
      * the discs and the exact points (radius 0) are pairwise apart and
        number deg U, so each holds one root and together they hold all;
      * the printed points and weights, read exactly, rebuild every
        coefficient of the form within error_bound (exactly when it is null).
    """
    n, coeffs = oracle_form(form_text)
    k, q = oracle_form(payload["annihilator"])
    assert payload["kernel_degree"] == k, payload
    assert not any(oracle_apply_operator(q, n, coeffs)), "the annihilator does not annihilate the form"
    if payload["support"] is None:
        assert oracle_has_repeated_root(q), "no support, but the annihilator has no repeated root"
        return
    assert payload["rank"] == k == len(payload["support"]) == len(payload["coefficients"]), payload
    at_inf = next(i for i, c in enumerate(q) if c)
    scale = math.lcm(*(c.denominator for c in q))
    u = [int(c * scale) for c in q[at_inf:]][::-1]  # U(t), ascending in t, over the integers
    d = len(u) - 1
    finite = []
    for pt in payload["support"]:
        (a, b), (beta, _) = oracle_printed(pt["alpha"]), oracle_printed(pt["beta"])
        if beta:
            finite.append(((a / beta, b / beta), Fraction(pt["radius"] or 0), pt["exact"]))
        else:
            assert pt["exact"] and (a, b) != (0, 0)
    assert len(payload["support"]) - len(finite) == at_inf <= 1, "points at (1 : 0)"
    assert len(finite) == d, "the points are not deg U in number"
    for z, r, exact in finite:
        den = math.lcm(z[0].denominator, z[1].denominator)
        w = (int(z[0] * den), int(z[1] * den))
        value, slope = _oracle_homogeneous(u, w, den)
        if exact:
            assert value == (0, 0), f"the exact point {z} is no root"
            continue
        # The Newton point (w slope - value) conj(slope) / (den |slope|^2), rounded down to N = (X + Y i) / 2^bits, a
        # grid far finer than r: the inclusion bound holds at any point, so rounding N costs the proof nothing.
        norm = slope[0] ** 2 + slope[1] ** 2
        assert r and norm, f"U' vanishes at the centre {z}, or its radius is 0"
        bits = max(0, r.denominator.bit_length() - r.numerator.bit_length()) + 64 + 2 * d.bit_length()
        top = _oracle_times((w[0] * slope[0] - w[1] * slope[1] - value[0], w[0] * slope[1] + w[1] * slope[0] - value[1]),
                            (slope[0], -slope[1]))
        point = tuple((part << bits) // (den * norm) for part in top)
        value, slope = _oracle_homogeneous(u, point, 1 << bits)
        norm = slope[0] ** 2 + slope[1] ** 2
        assert norm, f"U' vanishes at the Newton point of {z}"
        moved = Fraction(sum((p * den - (c << bits)) ** 2 for p, c in zip(point, w)), (den << bits) ** 2)
        inclusion = Fraction(d * d * (value[0] ** 2 + value[1] ** 2), norm << 2 * bits)
        # sqrt(moved) + sqrt(inclusion) <= r, squared twice
        room = r * r + moved - inclusion
        assert moved <= r * r and room >= 0 and 4 * r * r * moved <= room * room, f"no root proven in the disc about {z}"
    assert _oracle_apart([(z, r) for z, r, _ in finite]), "two discs or exact points meet"
    bound = Fraction(payload["error_bound"] or 0)
    rebuilt = [(Fraction(0), Fraction(0))] * (n + 1)
    for pt, c in zip(payload["support"], payload["coefficients"]):
        alpha, beta = oracle_printed(pt["alpha"]), oracle_printed(pt["beta"])
        left = [oracle_printed(c)]  # c alpha^m
        for _ in range(n):
            left.append(_oracle_times(left[-1], alpha))
        right = (Fraction(1), Fraction(0))  # beta^j
        for j in range(n + 1):
            x, y = _oracle_times(left[n - j], right)
            rebuilt[j] = (rebuilt[j][0] + comb(n, j) * x, rebuilt[j][1] + comb(n, j) * y)
            right = _oracle_times(right, beta)
    for j, ((x, y), target) in enumerate(zip(rebuilt, coeffs)):
        assert (x - target) ** 2 + y * y <= bound * bound, f"coefficient {j} is not rebuilt within error_bound"


def oracle_last_letter_tableaux(lam: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Standard tableaux of shape lam by brute force, in last-letter order.

    Every filling of the diagram by 1..n is tried; the standard ones are
    sorted by the rows holding n, n-1, ..., 1.
    """
    n = sum(lam)
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    found = []
    for values in itertools.permutations(range(1, n + 1)):
        at = dict(zip(cells, values))
        if all(at[i, j] < at.get((i, j + 1), n + 1) and at[i, j] < at.get((i + 1, j), n + 1)
               for i, j in cells):
            row_of = {v: i for (i, _), v in at.items()}
            key = tuple(row_of[v] for v in range(n, 0, -1))
            found.append((key, tuple(tuple(at[i, j] for j in range(row)) for i, row in enumerate(lam))))
    return [t for _, t in sorted(found)]


def oracle_seminormal_generator(tableaux, i: int) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
    """Columns of s_i in Young's seminormal form, read off tableau positions, rows sorted.

    Column c is the image of the basis vector of tableaux[c]. With i at
    (r, j) and i+1 at (r', j') in that tableau: the same row gives 1, the same
    column -1, and otherwise the axial distance d = (j' - r') - (j - r) gives
    1/d on the diagonal and beta = 1 (d > 0) or 1 - 1/d^2 (d < 0) at the
    tableau with i and i+1 swapped.
    """
    index = {t: c for c, t in enumerate(tableaux)}
    swap = {i: i + 1, i + 1: i}
    columns = []
    for c, t in enumerate(tableaux):
        at = {v: (r, j) for r, row in enumerate(t) for j, v in enumerate(row)}
        (r1, j1), (r2, j2) = at[i], at[i + 1]
        if r1 == r2:
            columns.append(((c, Fraction(1)),))
        elif j1 == j2:
            columns.append(((c, Fraction(-1)),))
        else:
            d = (j2 - r2) - (j1 - r1)
            swapped = tuple(tuple(swap.get(v, v) for v in row) for row in t)
            beta = Fraction(1) if d > 0 else 1 - Fraction(1, d * d)
            columns.append(tuple(sorted([(c, Fraction(1, d)), (index[swapped], beta)])))
    return tuple(columns)


def dense_from_columns(dim: int, columns) -> list[list[Fraction]]:
    """The dim x dim matrix whose column c holds the (row, entry) pairs columns[c]."""
    matrix = [[Fraction(0)] * dim for _ in range(dim)]
    for c, entries in enumerate(columns):
        for r, v in entries:
            matrix[r][c] = v
    return matrix


def dense_product(a, b) -> list[list[Fraction]]:
    """Plain row-times-column product of two dense matrices."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def dense_identity(dim: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]


def corrupted(rep, letter: int, a=None, o=None, b=None):
    """A seminormal rep with the arrays (a, o, b) of one letter changed.

    Each of a, o and b that is given is either a dict of the entries to
    change, c -> new entry, or a whole new tuple; the rest of rep is kept.
    """
    arrays = list(rep.arrays)
    arrays[letter - 1] = tuple(
        new if isinstance(new, tuple) else tuple((new or {}).get(c, x) for c, x in enumerate(old))
        for old, new in zip(arrays[letter - 1], (a, o, b)))
    return replace(rep, arrays=tuple(arrays))
