"""Young's seminormal representation of S_n with exact rational entries.

The basis is the set of standard tableaux of the given shape in last-letter
order (compare the rows holding n, then n-1, and so on). Each adjacent
transposition s_i acts on a basis vector v_T through the axial distance
d = content(i+1) - content(i) in T:

    same row of T      ->  v_T
    same column of T   -> -v_T
    otherwise          ->  (1/d) v_T + beta v_{sT},  sT = T with i, i+1 swapped,
                           beta = 1 when d > 0, else 1 - 1/d^2

so every entry is a Fraction and the defining S_n relations hold exactly,
not approximately. Traces of word products are therefore literal
character values and can be checked against the border-strip recursion.

This is the content/axial-distance action of Okounkov-Vershik (1996), and it
is stored as such: column c of s_i holds the one or two (row, entry) pairs of
s_i v_T. Words act on sparse vectors, one basis vector at a time, so each
relation is checked by applying both of its sides to every basis vector:
O(n^2 dim) work in place of dense dim x dim products. Every matrix the module
returns, word images included, comes in that column format; none is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import ConsistencyError, DomainError
from .partitions import Partition, dimension, format_partition, size, validate_partition
from .permutations import perm_of_word

Tableau = tuple[tuple[int, ...], ...]


@cache
def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """All standard Young tableaux of shape lam, in last-letter order.

    The letter n sits in a corner. Going through the corner rows from top to
    bottom and appending n to that row of every tableau of the smaller shape,
    taken in its own order, lists the tableaux by the row of n, then of n-1,
    and so on: last-letter order by construction.
    """
    n = size(lam)
    if n == 0:
        return ((),)
    found: list[Tableau] = []
    for i, row in enumerate(lam):
        if row == (lam[i + 1] if i + 1 < len(lam) else 0):
            continue
        smaller = lam[:i] + ((row - 1,) if row > 1 else ()) + lam[i + 1:]
        for t in standard_tableaux(smaller):
            found.append(t[:i] + ((t[i] if i < len(t) else ()) + (n,),) + t[i + 1:])
    return tuple(found)


def _positions(t: Tableau) -> dict[int, tuple[int, int]]:
    return {v: (i, j) for i, row in enumerate(t) for j, v in enumerate(row)}


def _swap_values(t: Tableau, a: int, b: int) -> Tableau:
    sub = {a: b, b: a}
    return tuple(tuple(sub.get(v, v) for v in row) for row in t)


Column = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class SeminormalRep:
    """Exact action of the adjacent transpositions s_1 .. s_{n-1}.

    generators[i - 1][c] is column c of s_i: the (row, entry) pairs of s_i v_c.
    """

    shape: Partition
    n: int
    dim: int
    tableaux: tuple[Tableau, ...]
    generators: tuple[tuple[Column, ...], ...]


def build_rep(lam: Partition) -> SeminormalRep:
    """Construct the seminormal representation for shape lam."""
    lam = validate_partition(lam)
    n = size(lam)
    if n < 1:
        raise DomainError("seminormal representation needs a nonempty shape")
    dim = dimension(lam)
    tabs = standard_tableaux(lam)
    if len(tabs) != dim:
        raise ConsistencyError(
            f"tableau count {len(tabs)} disagrees with hook-length dimension {dim} "
            f"for {format_partition(lam)}"
        )
    index = {t: c for c, t in enumerate(tabs)}
    gens = []
    for i in range(1, n):
        cols: list[Column] = []
        for c, t in enumerate(tabs):
            pos = _positions(t)
            (ri, ci), (rj, cj) = pos[i], pos[i + 1]
            if ri == rj:
                cols.append(((c, Fraction(1)),))
            elif ci == cj:
                cols.append(((c, Fraction(-1)),))
            else:
                d = (cj - rj) - (ci - ri)
                a = Fraction(1, d)
                other = index[_swap_values(t, i, i + 1)]
                beta = Fraction(1) if d > 0 else 1 - a * a
                cols.append(((c, a), (other, beta)))
        gens.append(tuple(cols))
    return SeminormalRep(shape=lam, n=n, dim=dim, tableaux=tabs, generators=tuple(gens))


def _apply(rep: SeminormalRep, word, vec: dict[int, Fraction]) -> dict[int, Fraction]:
    """The word product s_{w1} s_{w2} ... applied to a sparse vector, rightmost letter first.

    Zero entries are dropped, so two results are equal exactly when the
    vectors are.
    """
    for letter in word:
        if not 1 <= letter <= rep.n - 1:
            raise DomainError(
                f"word letter {letter} out of range 1..{rep.n - 1} for shape "
                f"{format_partition(rep.shape)}"
            )
    for letter in reversed(word):
        columns = rep.generators[letter - 1]
        out: dict[int, Fraction] = {}
        for c, x in vec.items():
            for r, v in columns[c]:
                out[r] = out.get(r, 0) + v * x
        vec = {r: x for r, x in out.items() if x}
    return vec


def _basis(c: int) -> dict[int, Fraction]:
    return {c: Fraction(1)}


def evaluate_word(rep: SeminormalRep, word) -> tuple[Column, ...]:
    """Columns of the word product s_{w1} s_{w2} ... (leftmost applied last).

    Column c holds the nonzero (row, entry) pairs of the image of v_c, by row,
    in the format of SeminormalRep.generators.
    """
    return tuple(tuple(sorted(_apply(rep, word, _basis(c)).items())) for c in range(rep.dim))


def word_trace(rep: SeminormalRep, word) -> Fraction:
    """Trace of the word product; equals the character at the word's cycle type."""
    return sum((_apply(rep, word, _basis(c)).get(c, 0) for c in range(rep.dim)), Fraction(0))


def word_cycle_type(rep: SeminormalRep, word) -> Partition:
    from .permutations import cycle_type

    return cycle_type(perm_of_word(rep.n, list(word)))


def check_relations(rep: SeminormalRep) -> dict[str, bool]:
    """Exact verification of the defining S_n relations on the generators.

    Each relation is a pair of words whose products must agree on every
    basis vector.
    """
    n = rep.n

    def holds(lhs, rhs) -> bool:
        return all(
            _apply(rep, lhs, _basis(c)) == _apply(rep, rhs, _basis(c)) for c in range(rep.dim)
        )

    return {
        "involution": all(holds([i, i], []) for i in range(1, n)),
        "braid": all(holds([i, i + 1, i], [i + 1, i, i + 1]) for i in range(1, n - 1)),
        "commutation": all(holds([i, j], [j, i]) for i in range(1, n) for j in range(i + 2, n)),
    }


def spherical_relation_image(rep: SeminormalRep) -> tuple[Column, ...]:
    """Columns of the relation word 1, 2, ..., n-1, n-1, ..., 2, 1.

    In S_n the word telescopes to the identity, so column c must be exactly
    ((c, 1),); callers treat anything else as a broken build.
    """
    word = list(range(1, rep.n)) + list(range(rep.n - 1, 0, -1))
    return evaluate_word(rep, word)
