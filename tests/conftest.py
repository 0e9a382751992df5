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
import signal
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
