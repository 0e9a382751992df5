"""Exact linear algebra over Fraction.

Matrices come in and go out as lists of lists of Fraction, and nothing ever
touches a float. Inside, every row is cleared of denominators and eliminated
fraction-free over the integers (Bareiss 1968): each step divides exactly by
the previous pivot, so entries stay minors of the input and no cell update
pays for a gcd. Only the answers are turned back into Fractions.
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


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices; `a` is not modified."""
    m = _integer_rows(a)
    pivots, d = _eliminate(m, reduced=True)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(a: Matrix) -> int:
    return len(_eliminate(_integer_rows(a), reduced=False)[0])


def kernel_basis(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    m = _integer_rows(a)
    pivots, d = _eliminate(m, reduced=True)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], d)
        basis.append(v)
    return basis


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of a x = b, or None when the system is inconsistent.

    Free variables are set to zero; callers that need the full affine space
    should combine with kernel_basis.
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
