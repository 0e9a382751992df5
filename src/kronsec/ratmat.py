"""Exact linear algebra over Fraction.

Everything works on lists of lists of Fraction and never touches floats.
Elimination is plain Gauss-Jordan with exact pivoting, easy to audit.
"""

from __future__ import annotations

from fractions import Fraction

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


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices (copy, in place safe)."""
    m = [row[:] for row in a]
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


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    echelon, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -echelon[r][fc]
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
    aug = [row[:] + [Fraction(bi)] for row, bi in zip(a, b)]
    echelon, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = echelon[r][cols]
    return x
