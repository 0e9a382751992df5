"""Young's seminormal representation of S_n with exact rational entries.

The basis is the set of standard tableaux of the given shape in last-letter
order (compare the rows holding n, then n-1, and so on). Each adjacent
transposition s_i acts on a basis vector v_T through the axial distance
d = content(i+1) - content(i) in T:

    same row of T      ->  v_T
    same column of T   -> -v_T
    otherwise          ->  (1/d) v_T + beta v_{sT},  sT = T with i, i+1 swapped,
                           beta = 1 when d > 0, else 1 - 1/d^2

This is the content/axial-distance action of Okounkov-Vershik (1996), and it
is stored as such: column c of s_i holds the one or two (row, Fraction) pairs
of s_i v_T. Every matrix the module returns, word images included, comes in
that column format; none is dense.

Words are multiplied out on Python ints, not Fractions. The contents of a
shape lam lie in [1 - l, lam_1 - 1], l its number of rows, so every axial
distance has 1 <= |d| <= lam_1 + l - 2 = h, and with the common denominator
D = lcm(1, ..., h)^2 the matrix D s_i has integer entries. A word of length L
then acts as D^-L times a product of integer matrices, applied to one basis
vector at a time on sparse int vectors, with no gcd anywhere in the loop; the
O(n^2) relations cost O(n^2 dim) in all, in place of dense dim x dim products. The integer columns are read off `generators` (an
entry that D does not clear is a ConsistencyError, never rounded), and the
exact answers come back at the edge:

- a relation with sides of lengths L1 <= L2 holds exactly when the integer
  images agree after the shorter side is multiplied by D^(L2 - L1);
- a trace is the integer diagonal sum divided by D^L, which must leave no
  remainder, as a character value is an integer;
- evaluate_word divides each integer entry by D^L into a Fraction.

So the defining S_n relations hold exactly, not approximately, and traces of
word products are literal character values that can be checked against the
border-strip recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import Iterator

from .errors import ConsistencyError, DomainError
from .partitions import Partition, dimension, format_partition, size, validate_partition
from .permutations import cycle_type, perm_of_word

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
IntColumn = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SeminormalRep:
    """Exact action of the adjacent transpositions s_1 .. s_{n-1}.

    generators[i - 1][c] is column c of s_i: the (row, entry) pairs of s_i v_c,
    where v_c belongs to the tableau standard_tableaux(shape)[c].
    """

    shape: Partition
    n: int
    dim: int
    generators: tuple[tuple[Column, ...], ...]

    @cached_property
    def _scaled(self) -> tuple[int, tuple[tuple[IntColumn, ...], ...]]:
        """The common denominator D and the integer columns of D s_1, ..., D s_{n-1}."""
        h = self.shape[0] + len(self.shape) - 2
        denominator = lcm(*range(1, h + 1)) ** 2

        def cleared(v) -> int:
            x, rem = divmod(v.numerator * denominator, v.denominator)
            if rem:
                raise ConsistencyError(
                    f"generator entry {v} of {format_partition(self.shape)} is not cleared "
                    f"by the common denominator {denominator}"
                )
            return x

        return denominator, tuple(tuple(tuple((r, cleared(v)) for r, v in column) for column in gen)
                                  for gen in self.generators)


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
    positions = [_positions(t) for t in tabs]
    gens = []
    for i in range(1, n):
        cols: list[Column] = []
        for c, (t, pos) in enumerate(zip(tabs, positions)):
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
    return SeminormalRep(shape=lam, n=n, dim=dim, generators=tuple(gens))


def _images(rep: SeminormalRep, word, lift: int = 1) -> Iterator[dict[int, int]]:
    """lift D^L times the word product s_{w1} s_{w2} ... applied to v_0, v_1, ..., rightmost letter first.

    D is the common denominator of rep and L the length of the word, so every
    entry is an int. Yields one sparse image per basis vector, in basis order.
    Zero entries are dropped, so two images are equal exactly when the
    vectors are.
    """
    for letter in word:
        if not 1 <= letter <= rep.n - 1:
            raise DomainError(
                f"word letter {letter} out of range 1..{rep.n - 1} for shape "
                f"{format_partition(rep.shape)}"
            )
    scaled = rep._scaled[1]
    columns = [scaled[letter - 1] for letter in reversed(word)]
    rest = columns[1:]
    for c in range(rep.dim):
        # The first letter's image is its integer column, times lift.
        vec = {r: v * lift for r, v in columns[0][c] if v} if columns else {c: lift}
        for gen in rest:
            out: dict[int, int] = {}
            for k, x in vec.items():
                for r, v in gen[k]:
                    out[r] = out.get(r, 0) + v * x
            vec = {r: x for r, x in out.items() if x}
        yield vec


def evaluate_word(rep: SeminormalRep, word) -> tuple[Column, ...]:
    """Columns of the word product s_{w1} s_{w2} ... (leftmost applied last).

    Column c holds the nonzero (row, entry) pairs of the image of v_c, by row,
    in the format of SeminormalRep.generators.
    """
    scale = rep._scaled[0] ** len(word)
    return tuple(tuple((r, Fraction(x, scale)) for r, x in sorted(image.items()))
                 for image in _images(rep, word))


def word_trace(rep: SeminormalRep, word) -> Fraction:
    """Trace of the word product; equals the character at the word's cycle type."""
    total = sum(image.get(c, 0) for c, image in enumerate(_images(rep, word)))
    scale = rep._scaled[0] ** len(word)
    trace, rem = divmod(total, scale)
    if rem:
        raise ConsistencyError(
            f"trace of word {list(word)} for {format_partition(rep.shape)} is "
            f"{Fraction(total, scale)}, not an integer"
        )
    return Fraction(trace)


def word_cycle_type(rep: SeminormalRep, word) -> Partition:
    return cycle_type(perm_of_word(rep.n, list(word)))


def check_relations(rep: SeminormalRep) -> dict[str, bool]:
    """Exact verification of the defining S_n relations on the generators.

    Each relation is a pair of words whose products must agree on every
    basis vector; the integer images of the shorter word are lifted to the
    scale of the longer one.
    """
    n = rep.n
    denominator = rep._scaled[0]

    def holds(shorter, longer) -> bool:
        lift = denominator ** (len(longer) - len(shorter))
        return all(a == b for a, b in zip(_images(rep, shorter, lift), _images(rep, longer)))

    return {
        "involution": all(holds([], [i, i]) for i in range(1, n)),
        "braid": all(holds([i, i + 1, i], [i + 1, i, i + 1]) for i in range(1, n - 1)),
        "commutation": all(holds([i, j], [j, i]) for i in range(1, n) for j in range(i + 2, n)),
    }


def spherical_relation_image(rep: SeminormalRep) -> tuple[Column, ...]:
    """Columns of the relation word 1, 2, ..., n-1, n-1, ..., 2, 1.

    In S_n the word telescopes to the identity by s_i^2 = 1 alone, so column c
    must be exactly ((c, 1),); anything else is a broken build. rep-check calls
    this only when check_relations finds the involution relation false.
    """
    word = list(range(1, rep.n)) + list(range(rep.n - 1, 0, -1))
    return evaluate_word(rep, word)
