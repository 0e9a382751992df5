import random
from fractions import Fraction
from math import lcm

import pytest
from conftest import oracle_rank_mod_p, oracle_rref

from kronsec import ratmat


def _random_low_rank(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    """Rows drawn from the span of a few random rational rows, some of them zero."""
    entry = lambda: Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 10]))
    span = [[entry() for _ in range(cols)] for _ in range(rng.randint(0, min(rows, cols)))]
    a = []
    for _ in range(rows):
        weights = [] if rng.random() < 0.15 else [entry() for _ in span]
        a.append([sum((w * v[j] for w, v in zip(weights, span)), Fraction(0)) for j in range(cols)])
    if cols > 1 and rng.random() < 0.2:
        dead = rng.randrange(cols)
        for row in a:
            row[dead] = Fraction(0)
    return a


def _matrices():
    rng = random.Random(20240611)
    yield []
    yield [[]]
    yield [[Fraction(0)] * 4 for _ in range(3)]
    yield [[Fraction(0), Fraction(3, 2), Fraction(-1, 3), Fraction(0)]]
    yield [[Fraction(2)], [Fraction(0)], [Fraction(-5, 7)]]
    yield [[Fraction(0)], [Fraction(0)]]
    yield [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]]
    for _ in range(400):
        yield _random_low_rank(rng, rng.randint(1, 7), rng.randint(1, 7))


def _oracle_kernel(a):
    if not a:
        return []
    cols = len(a[0])
    echelon, pivots = oracle_rref(a)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -echelon[r][fc]
        basis.append(v)
    return basis


def _oracle_solve(a, b):
    if not a:
        return [] if not any(b) else None
    cols = len(a[0])
    echelon, pivots = oracle_rref([row + [bi] for row, bi in zip(a, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = echelon[r][cols]
    return x


def _times(a, x):
    return [sum((p * q for p, q in zip(row, x)), Fraction(0)) for row in a]


def test_elimination_matches_textbook_gauss_jordan():
    rng = random.Random(7)
    inconsistent = consistent = 0
    for a in _matrices():
        before = [row[:] for row in a]
        assert ratmat.rref(a) == oracle_rref(a)
        assert a == before
        pivots = oracle_rref(a)[1]
        assert ratmat.rank(a) == len(pivots)
        basis = ratmat.kernel_basis(a)
        assert basis == _oracle_kernel(a)
        assert all(not any(_times(a, v)) for v in basis)
        cols = len(a[0]) if a else 0
        for b in ([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in a],
                  _times(a, [Fraction(rng.randint(-3, 3)) for _ in range(cols)])):
            x = ratmat.solve(a, b)
            assert x == _oracle_solve(a, b)
            if x is None:
                inconsistent += 1
            else:
                consistent += 1
                assert _times(a, x) == b
    assert inconsistent > 50 and consistent > 400


@pytest.mark.parametrize("p", [2, 7, 2**31 - 1])
def test_rows_independent_mod_p_are_the_greedy_basis_mod_p(p):
    # Row i is kept exactly when it raises the rank mod p of the rows above
    # it; the kept rows are then independent over Q as well, so their number
    # bounds the rank over Q from below.
    for a in _matrices():
        scale = lcm(*(x.denominator for row in a for x in row))
        rows = [[int(x * scale) for x in row] for row in a]
        kept = ratmat.independent_rows_mod_p(rows, p)
        assert kept == [i for i in range(len(rows))
                        if oracle_rank_mod_p(rows[:i + 1], p) > oracle_rank_mod_p(rows[:i], p)]
        assert len(oracle_rref([rows[i] for i in kept])[1]) == len(kept) <= len(oracle_rref(rows)[1])


@pytest.mark.parametrize("a, b", [
    ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [Fraction(1), Fraction(3)]),
    ([[Fraction(0), Fraction(0)]], [Fraction(1, 3)]),
    ([[]], [Fraction(1)]),
    ([], [Fraction(2)]),
], ids=["parallel-rows", "zero-row", "no-columns", "empty"])
def test_inconsistent_systems_have_no_solution(a, b):
    assert ratmat.solve(a, b) is None
