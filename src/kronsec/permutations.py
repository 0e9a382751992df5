"""Small permutation utilities shared by the representation and monodromy code.

A permutation on n letters is a tuple ``p`` of length n with ``p[i]`` the
0-based image of i. Composition is function composition: ``compose(p, q)``
applies q first, then p, matching matrix products ``M_p @ M_q``.
"""

from __future__ import annotations

from .partitions import Partition


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q."""
    return tuple(p[q[i]] for i in range(len(p)))


def adjacent_transposition(n: int, i: int) -> tuple[int, ...]:
    """The transposition (i, i+1) in 1-based labels, as a 0-based tuple."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index must satisfy 1 <= i <= {n - 1}, got {i}")
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def perm_of_word(n: int, word: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Product of adjacent transpositions, first letter applied last.

    Matches the matrix convention: the image of word (a, b) is the permutation
    of s_a composed after s_b, exactly like ``M_a @ M_b``.
    """
    p = identity_perm(n)
    for letter in word:
        p = compose(p, adjacent_transposition(n, letter))
    return p


def cycles(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycle decomposition in 0-based labels, fixed points included."""
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


def generated_group(gens: list[tuple[int, ...]], limit: int | None = None) -> set[tuple[int, ...]]:
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
                    if limit is not None and len(seen) >= limit:
                        raise ValueError(f"group closure exceeded limit {limit}")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen
