"""Young's seminormal representation of S_n with exact rational entries.

The basis is the set of standard tableaux of the given shape in last-letter
order (compare the rows holding n, then n-1, and so on). Each adjacent
transposition s_i acts on a basis vector v_T through the axial distance
d = c(i+1) - c(i), c the content vector of T (c(v) = column - row of v):

    d = 1      ->  v_T     (i, i+1 in the same row of T)
    d = -1     -> -v_T     (i, i+1 in the same column of T)
    otherwise  ->  (1/d) v_T + beta v_{sT},  beta = 1 when d > 0, else 1 - 1/d^2,

sT the tableau whose content vector has entries i and i+1 swapped. This is
the content/axial-distance action of Okounkov-Vershik (1996): a tableau is
determined by its content vector, and |d| = 1 exactly when i and i+1 share
a row or a column.

It is built once, on Python ints. The contents of a shape lam lie in
[1 - l, lam_1 - 1], l its number of rows, so 1 <= |d| <= lam_1 + l - 2 = h,
and with D = lcm(1, ..., h)^2 every D s_i is an integer matrix, stored as
three integer arrays (a, o, b): column c of D s_i is a[c] v_c + b[c] v_{o[c]},
a diagonal entry and at most one partner entry. Every word product and every
relation test reads these arrays. A word of length L acts as D^-L times a
product of them, applied to one basis vector at a time on sparse int
vectors, with no gcd in the loop. The exact answers come back at the edge:

- each relation family has one exact, sufficient integer test over c on
  the arrays (s_i^2 = 1, the braid and the commutation of one pair of
  letters each cost O(dim)). Only where a test fails are the words
  multiplied out: a relation with sides of lengths L1 <= L2 holds exactly
  when the integer images agree after the shorter side is multiplied by
  D^(L2 - L1);
- a trace is the integer diagonal sum divided by D^L, which must leave no
  remainder, as a character value is an integer;
- evaluate_word divides each integer entry by D^L into a Fraction, so
  evaluate_word(rep, [i]) is s_i.

So the defining S_n relations hold exactly, and traces of word products are
literal character values that can be checked against the border-strip
recursion.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm
from typing import Iterator

from .characters import mn_value
from .errors import ConsistencyError, DomainError
from .partitions import Partition, dimension, format_partition, size, validate_partition
from .permutations import class_word, cycle_type, perm_of_word, validate_word

Tableau = tuple[tuple[int, ...], ...]


def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """All standard Young tableaux of shape lam, in last-letter order.

    lam is checked here, outside the cache, so a key equal to a partition
    (a bool part) cannot hit it.
    """
    return _standard_tableaux(validate_partition(lam))


@cache
def _standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """standard_tableaux of a validated lam.

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
        for t in _standard_tableaux(smaller):
            found.append(t[:i] + ((t[i] if i < len(t) else ()) + (n,),) + t[i + 1:])
    return tuple(found)


Column = tuple[tuple[int, Fraction], ...]
Arrays = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SeminormalRep:
    """Exact action of the adjacent transpositions s_1 .. s_{n-1}.

    arrays[i - 1] = (a, o, b), three tuples of dim ints: column c of D s_i,
    D = denominator, is a[c] v_c + b[c] v_{o[c]}, v_c the basis vector of
    standard_tableaux(shape)[c]. build_rep writes a[c] = D // d for the axial
    distance d, and o[c] = c, b[c] = 0 when |d| = 1, else the tableau with
    i, i+1 swapped and D or D - D // (d * d); both divisions are exact, as
    d^2 divides D = lcm(1, ..., h)^2 for |d| <= h. Arrays other than n - 1
    letters of three tuples of dim ints, each partner a row 0 <= o[c] < dim,
    are a DomainError.
    """

    shape: Partition
    n: int
    dim: int
    denominator: int
    arrays: tuple[Arrays, ...]

    def __post_init__(self):
        rows = set(range(self.dim))
        if not (type(self.arrays) is tuple and len(self.arrays) == self.n - 1 and all(
                type(letter) is tuple and len(letter) == 3
                and all(type(part) is tuple and len(part) == self.dim and set(map(type, part)) <= {int}
                        for part in letter)
                and rows.issuperset(letter[1]) for letter in self.arrays)):
            raise DomainError(
                f"a seminormal representation of S_{self.n} needs n - 1 letters, each three tuples "
                f"(a, o, b) of {self.dim} ints with every partner 0 <= o[c] < {self.dim}"
            )


def build_rep(lam: Partition) -> SeminormalRep:
    """Construct the seminormal representation for shape lam."""
    lam = validate_partition(lam)
    n = size(lam)
    if n < 1:
        raise DomainError("seminormal representation needs a nonempty shape")
    dim = dimension(lam)
    tabs = _standard_tableaux(lam)
    if len(tabs) != dim:
        raise ConsistencyError(
            f"tableau count {len(tabs)} disagrees with hook-length dimension {dim} "
            f"for {format_partition(lam)}"
        )
    contents = []
    for t in tabs:
        at = {v: j - r for r, row in enumerate(t) for j, v in enumerate(row)}
        contents.append(tuple(at[v] for v in range(1, n + 1)))
    index = {content: c for c, content in enumerate(contents)}
    h = lam[0] + len(lam) - 2  # every axial distance has 1 <= |d| <= h
    denominator = lcm(*range(1, h + 1)) ** 2
    arrays = []
    for i in range(1, n):
        a, o, b = [], [], []
        for c, content in enumerate(contents):
            d = content[i] - content[i - 1]
            a.append(denominator // d)
            if d in (1, -1):
                o.append(c)
                b.append(0)
            else:
                o.append(index[content[:i - 1] + (content[i], content[i - 1]) + content[i + 1:]])
                b.append(denominator if d > 0 else denominator - denominator // (d * d))
        arrays.append((tuple(a), tuple(o), tuple(b)))
    return SeminormalRep(shape=lam, n=n, dim=dim, denominator=denominator, arrays=tuple(arrays))


def _images(rep: SeminormalRep, word, lift: int = 1) -> Iterator[dict[int, int]]:
    """lift D^L times the word product s_{w1} s_{w2} ... applied to v_0, v_1, ..., rightmost letter first.

    D is the common denominator of rep and L the length of the word, so every
    entry is an int. Yields one sparse image per basis vector, in basis order.
    Each letter adds a[k] x to row k and b[k] x to row o[k] for every entry x
    at row k; zero entries are dropped, so two images are equal exactly when
    the vectors are. The callers pass words already checked by validate_word.
    """
    letters = [rep.arrays[letter - 1] for letter in reversed(word)]
    for c in range(rep.dim):
        vec = {c: lift}
        for a, o, b in letters:
            out: dict[int, int] = {}
            for k, x in vec.items():
                out[k] = out.get(k, 0) + a[k] * x
                if b[k]:
                    r = o[k]
                    out[r] = out.get(r, 0) + b[k] * x
            vec = {r: x for r, x in out.items() if x}
        yield vec


def evaluate_word(rep: SeminormalRep, word) -> tuple[Column, ...]:
    """Columns of the word product s_{w1} s_{w2} ... (leftmost applied last).

    Column c holds the nonzero (row, Fraction) pairs of the image of v_c, by
    row; evaluate_word(rep, [i]) is s_i.
    """
    word = validate_word(rep.n, word)
    scale = rep.denominator ** len(word)
    return tuple(tuple((r, Fraction(x, scale)) for r, x in sorted(image.items()))
                 for image in _images(rep, word))


def word_trace(rep: SeminormalRep, word) -> Fraction:
    """Trace of the word product; equals the character at the word's cycle type."""
    word = validate_word(rep.n, word)
    total = sum(image.get(c, 0) for c, image in enumerate(_images(rep, word)))
    scale = rep.denominator ** len(word)
    trace, rem = divmod(total, scale)
    if rem:
        raise ConsistencyError(
            f"trace of word {list(word)} for {format_partition(rep.shape)} is "
            f"{Fraction(total, scale)}, not an integer"
        )
    return Fraction(trace)


def word_cycle_type(rep: SeminormalRep, word) -> Partition:
    return cycle_type(perm_of_word(rep.n, word))


def _involution_holds(x: Arrays, square: int) -> bool:
    """A sufficient test that X^2 = square times the identity, X the letter with arrays x.

    X^2 v_c = (a[c]^2 + b[c] b[o[c]]) v_c + b[c] (a[c] + a[o[c]]) v_{o[c]}
    when o[o[c]] = c, whether or not o[c] = c.
    """
    a, o, b = x
    return all(o[o[c]] == c and a[c] * a[c] + b[c] * b[o[c]] == square and b[c] * (a[c] + a[o[c]]) == 0
               for c in range(len(a)))


def _commutation_holds(x: Arrays, y: Arrays) -> bool:
    """A sufficient test that X Y = Y X: the paths of X Y v_c and Y X v_c, one letter
    each time on the diagonal or to its partner, land on the same four rows
    with equal coefficients.
    """
    ax, ox, bx = x
    ay, oy, by = y
    return all(ox[oy[c]] == oy[ox[c]] and bx[c] * ay[c] == bx[c] * ay[ox[c]]
               and by[c] * ax[c] == by[c] * ax[oy[c]] and by[c] * bx[oy[c]] == bx[c] * by[ox[c]]
               for c in range(len(ax)))


def _braid_holds(x: Arrays, y: Arrays) -> bool:
    """A sufficient test that X Y X = Y X Y.

    The eight paths of each side from v_c fall in six groups by their row:
    c (with o[o[c]] = c for both letters), o_x c, o_y c, o_x o_y c, o_y o_x c,
    and o_x o_y o_x c on the left against o_y o_x o_y c on the right, which
    must be one row wherever that group's coefficient is nonzero. Equal
    coefficient sums on every group give equal images.
    """
    ax, ox, bx = x
    ay, oy, by = y
    for c in range(len(ax)):
        xc, yc = ox[c], oy[c]
        if ox[xc] != c or oy[yc] != c:
            return False
        xyx = bx[c] * by[xc] * bx[oy[xc]]
        if xyx != by[c] * bx[yc] * by[ox[yc]] or (xyx and ox[oy[xc]] != oy[ox[yc]]):
            return False
        if (ax[c] * ax[c] * ay[c] + bx[c] * ay[xc] * bx[xc] != ay[c] * ay[c] * ax[c] + by[c] * ax[yc] * by[yc]
                or bx[c] * (ay[xc] * ax[xc] + ax[c] * ay[c]) != ay[c] * bx[c] * ay[xc]
                or by[c] * (ax[yc] * ay[yc] + ay[c] * ax[c]) != ax[c] * by[c] * ax[yc]
                or ax[c] * by[c] * bx[yc] != by[c] * bx[yc] * ay[ox[yc]]
                or bx[c] * by[xc] * ax[oy[xc]] != ay[c] * bx[c] * by[xc]):
            return False
    return True


def check_relations(rep: SeminormalRep) -> dict[str, bool]:
    """Exact verification of the defining S_n relations on the generators.

    Each relation is a pair of words whose products must agree on every
    basis vector. It is first put to one exact, sufficient test on the
    arrays of its letters. Where that test fails, the words are multiplied
    out: the integer images of the shorter word are lifted to the scale of
    the longer one and compared. So every verdict is the literal one.
    """
    n, arrays = rep.n, rep.arrays
    denominator = rep.denominator

    def holds(shorter, longer) -> bool:
        lift = denominator ** (len(longer) - len(shorter))
        return all(a == b for a, b in zip(_images(rep, shorter, lift), _images(rep, longer)))

    return {
        "involution": all(_involution_holds(arrays[i - 1], denominator ** 2) or holds([], [i, i])
                          for i in range(1, n)),
        "braid": all(_braid_holds(arrays[i - 1], arrays[i]) or holds([i, i + 1, i], [i + 1, i, i + 1])
                     for i in range(1, n - 1)),
        "commutation": all(_commutation_holds(arrays[i - 1], arrays[j - 1]) or holds([i, j], [j, i])
                           for i in range(1, n) for j in range(i + 2, n)),
    }


def spherical_relation_image(rep: SeminormalRep) -> tuple[Column, ...]:
    """Columns of the relation word 1, 2, ..., n-1, n-1, ..., 2, 1.

    In S_n the word telescopes to the identity by s_i^2 = 1 alone, so column c
    must be exactly ((c, 1),); anything else is a broken build. rep_check
    calls this only when check_relations finds the involution relation false.
    """
    word = list(range(1, rep.n)) + list(range(rep.n - 1, 0, -1))
    return evaluate_word(rep, word)


def rep_check(lam: Partition, words: int, seed: int) -> dict:
    """The report `kronsec rep-check` prints for shape lam: relations, spherical identity, traces.

    `words` random words of 1 to 2n - 1 letters, drawn by random.Random(seed),
    are traced and compared with characters.mn_value at their cycle types.
    """
    rep = build_rep(lam)
    relations = check_relations(rep)
    # Each fact below is read off the proven relations, and worked out literally
    # only where its hypothesis fails. By s_i^2 = 1 alone the spherical word
    # 1..n-1, n-1..1 telescopes to the identity. By all three, rho factors
    # through S_n, so each cycle type's class word is traced once for its words.
    spherical = relations["involution"] or all(
        col == ((c, 1),) for c, col in enumerate(spherical_relation_image(rep)))
    by_class: dict | None = {} if all(relations.values()) else None
    rng = random.Random(seed)
    traces_ok = True
    sampled = words if rep.n >= 2 else 0
    for _ in range(sampled):
        word = [rng.randrange(1, rep.n) for _ in range(rng.randrange(1, 2 * rep.n))]
        mu = word_cycle_type(rep, word)
        if by_class is None:
            trace = word_trace(rep, word)
        elif (trace := by_class.get(mu)) is None:
            trace = by_class[mu] = word_trace(rep, class_word(mu))
        if trace != mn_value(rep.shape, mu):
            traces_ok = False
    return {"shape": format_partition(rep.shape), "n": rep.n, "dim": rep.dim,
            **relations, "spherical_identity": spherical,
            "word_samples": sampled, "word_traces_ok": traces_ok,
            "seed": seed}
