"""Small permutation utilities shared by the representation and monodromy code.

A permutation on n letters is a tuple ``p`` of length n with ``p[i]`` the
0-based image of i. Composition is function composition: ``compose(p, q)``
applies q first, then p, matching matrix products ``M_p @ M_q``.
"""

from __future__ import annotations

from .errors import DomainError, require_int
from .partitions import Partition, validate_partition


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


def validate_word(n: int, word) -> tuple[int, ...]:
    """Return ``word`` as a tuple after checking it is a word in s_1, ..., s_{n-1}.

    Each letter is an int (a bool or a float is not) in 1..n-1.
    """
    require_int("n", n)
    try:
        letters = tuple(word)
    except TypeError:
        raise DomainError(f"a word is a sequence of generator indices, got {word!r}") from None
    for letter in letters:
        if type(letter) is not int or not 1 <= letter <= n - 1:
            raise DomainError(f"generator index {letter!r} is not an int in 1..{n - 1}")
    return letters


def perm_of_word(n: int, word: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Product of adjacent transpositions, first letter applied last.

    Matches the matrix convention: the image of word (a, b) is the permutation
    of s_a composed after s_b, exactly like ``M_a @ M_b``. Composing p after
    s_a swaps the entries of p at a - 1 and a.
    """
    word = validate_word(n, word)
    p = list(range(n))
    for a in word:
        p[a - 1], p[a] = p[a], p[a - 1]
    return tuple(p)


def class_word(mu: Partition) -> tuple[int, ...]:
    """The word s_1 ... s_{mu_1-1} s_{mu_1+1} ... s_{mu_1+mu_2-1} ... of cycle type mu.

    Each part m takes the next m letters a+1, ..., a+m, and s_{a+1} ... s_{a+m-1}
    is an m-cycle on them, so the word has length |mu| - len(mu), the least
    of any word of that cycle type; the word of 1^n is empty.
    """
    word: list[int] = []
    start = 0
    for part in validate_partition(mu):
        word.extend(range(start + 1, start + part))
        start += part
    return tuple(word)


def cycles(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycle decomposition in 0-based labels, fixed points included.

    p must rearrange range(len(p)) into ints (a bool is not one); on a
    tuple that does not, the cycle walk may never return to its start.
    """
    if any(type(x) is not int for x in p) or sorted(p) != list(range(len(p))):
        raise DomainError(f"not a permutation of 0..{len(p) - 1}: {p!r}")
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        out.append(tuple(cyc))
    return out


def cycle_type(p: tuple[int, ...]) -> Partition:
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def cycle_notation(p: tuple[int, ...]) -> str:
    """1-based cycle notation with fixed points omitted; identity is "()"."""
    nontrivial = [c for c in cycles(p) if len(c) > 1]
    if not nontrivial:
        return "()"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in nontrivial)


def generated_group(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Closure of the generators under composition (plain BFS).

    Costs the order of the group, n! for S_n, so no command calls it; the
    benchmark tracer (perfbench/tracing.py) still spans it by name.
    """
    if not gens:
        return set()
    n = len(gens[0])
    seen = {identity_perm(n)}
    frontier = [identity_perm(n)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen
