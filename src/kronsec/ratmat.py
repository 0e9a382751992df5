"""Exact linear algebra over Fraction, and a modular pass that exact answers certify.

Matrices come in and go out as lists of lists of Fraction (or of int), and
nothing ever touches a float. Inside, every row is cleared of denominators
and eliminated fraction-free over the integers (Bareiss 1968): each step
divides exactly by the previous pivot, so entries stay minors of the input
and no cell update pays for a gcd. Only the answers are turned back into
Fractions; `kernel_basis` eliminates forward only and back-substitutes
fraction-free. `independent_rows_mod_p` eliminates integer rows mod a prime
instead: rows independent mod p are independent over Q, so the count is a
lower bound on the rank, and a caller that needs the rank itself proves the
matching upper bound exactly (apolarity checks an exact kernel against
every row) or falls back to `rank`. No command calls `mat_mul` or `solve`;
the benchmark tracer still spans both by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Dense product a b, skipping zero entries.

    Seminormal words act on sparse columns, so no command calls it; the
    benchmark tracer (perfbench/tracing.py) still spans it by name.
    """
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] += aik * bk[j]
    return out


def _integer_rows(a: Matrix) -> list[list[int]]:
    """Each row times the lcm of its denominators, divided by its content.

    Scaling a row by a nonzero rational keeps the row space, so the RREF,
    the pivots, the kernel and the solutions are those of `a`.
    """
    out = []
    for row in a:
        scale = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (scale // x.denominator) for x in row]
        content = gcd(*ints)
        out.append([v // content for v in ints] if content > 1 else ints)
    return out


def _eliminate(m: list[list[int]], reduced: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of integer rows in place; (pivot columns, d).

    Forward only, m ends in row echelon form. With `reduced`, every pivot is
    also cleared above (fraction-free Gauss-Jordan): each pivot entry then
    equals d, the last pivot, and m is d times the RREF. d is 1 without a
    pivot.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    d = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i in range(0 if reduced else r + 1, rows):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // d for x, y in zip(m[i], top)]
        pivots.append(c)
        d = p
    return pivots, d


def independent_rows_mod_p(m: list[list[int]], p: int) -> list[int]:
    """Indices of the rows of m that are independent mod the prime p, taken greedily from the top.

    Each row is reduced mod p against the rows kept so far, in the order
    they were kept (each is 1 at its pivot and 0 at the pivots kept before
    it), and kept when something is left. Rows independent mod p have a
    maximal minor that is nonzero mod p, hence nonzero, so their number is
    at most the rank r over Q; it is less only when p divides every r x r
    minor of m.
    """
    kept: list[int] = []
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row), in the order kept
    cols = len(m[0]) if m else 0
    for i, row in enumerate(m):
        if len(kept) == cols:
            break
        v = row
        for c, b in basis:
            f = v[c] % p
            if f:  # entries are reduced once, after the last subtraction
                v = [x - f * y for x, y in zip(v, b)]
        v = [x % p for x in v]
        c = next((c for c, x in enumerate(v) if x), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            basis.append((c, [x * inv % p for x in v]))
            kept.append(i)
    return kept


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices; `a` is not modified."""
    m = _integer_rows(a)
    pivots, d = _eliminate(m, reduced=True)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(a: Matrix) -> int:
    return len(_eliminate(_integer_rows(a), reduced=False)[0])


def kernel_basis(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column: the RREF basis.

    The vector of free column f is 1 at f, 0 at the other free columns and
    minus column f of the RREF at the pivots, the one kernel vector of that
    shape. Forward elimination leaves it a triangular system, solved by
    fraction-free back substitution: d x is an integer vector (Cramer, d
    the last pivot), so every division in it is exact. That skips the
    clearing above the pivots, about half the cost of the reduced form.
    """
    if not a:
        return []
    cols = len(a[0])
    m = _integer_rows(a)
    pivots, d = _eliminate(m, reduced=False)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        solved: list[tuple[int, int]] = []  # (pivot column, d x there), from the last pivot up
        for r in reversed(range(len(pivots))):
            row = m[r]
            t = d * row[fc] + sum(row[pc] * x for pc, x in solved)
            solved.append((pivots[r], -t // row[pivots[r]]))
        for pc, x in solved:
            v[pc] = Fraction(x, d)
        basis.append(v)
    return basis


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of a x = b, free variables zero, or None if there is none.

    Exact Sylvester coefficients come from partial fractions, so no command
    calls it; the benchmark tracer (perfbench/tracing.py) still spans it by name.
    """
    if not a:
        return [] if not any(b) else None
    cols = len(a[0])
    m = _integer_rows([row + [Fraction(bi)] for row, bi in zip(a, b)])
    pivots, d = _eliminate(m, reduced=True)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(m[r][cols], d)
    return x
