"""Integer partitions as Young diagrams and S_n cycle types.

A partition is a plain tuple of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. Tuples keep everything hashable and cheap,
so enumeration results can be cached and used as dict keys downstream.
"""

from __future__ import annotations

import re
from functools import cache
from math import factorial
from typing import NamedTuple

from .errors import DomainError

Partition = tuple[int, ...]


def validate_partition(parts) -> Partition:
    """Return ``parts`` as a tuple after checking it is a partition."""
    lam = tuple(parts)
    for p in lam:
        if not isinstance(p, int) or p <= 0:
            raise DomainError(f"partition parts must be positive integers, got {p!r}")
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise DomainError(f"partition parts must be weakly decreasing, got {lam}")
    return lam


def size(lam: Partition) -> int:
    return sum(lam)


@cache
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first, (1^n) last."""
    if n < 0:
        raise DomainError(f"cannot partition a negative integer, got {n}")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def dimension(lam: Partition) -> int:
    """Number of standard tableaux of shape lam, by the hook length formula."""
    n = size(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    dim, rem = divmod(factorial(n), hooks)
    if rem:
        raise AssertionError(f"hook product does not divide {n}! for {lam}")
    return dim


def attach_first_row(lam: Partition, n: int) -> Partition:
    """Prepend a new first row so the result is a partition of n.

    The new row has n - |lam| boxes and must be at least as long as the
    current first row.
    """
    if n < 0:
        raise DomainError(f"target size must be nonnegative, got {n}")
    k = size(lam)
    new_row = n - k
    if lam and new_row < lam[0]:
        raise DomainError(
            f"attach_first_row needs n - |lam| >= lam_1: {n} - {k} = {new_row} < {lam[0]}"
        )
    if new_row < 0:
        raise DomainError(f"attach_first_row needs n >= |lam|: {n} < {k}")
    if new_row == 0:
        return ()  # only reachable for lam = (), n = 0
    return (new_row,) + lam


def has_long_first_row(lam: Partition) -> bool:
    """True when the first row holds at least (|lam| - 1) / 2 boxes.

    Equivalently, stripping the first row leaves at most (|lam| + 1) / 2
    boxes. Kept in halved-integer form to avoid rationals.
    """
    if not lam:
        return True
    return 2 * lam[0] >= size(lam) - 1


class CycleClass(NamedTuple):
    """A conjugacy class of S_n: its cycle type and its cardinality."""

    cycle_type: Partition
    cls_size: int


def class_size(mu: Partition) -> int:
    """|conjugacy class of cycle type mu| = n! / prod_j j^{m_j} m_j!."""
    n = size(mu)
    centralizer = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for j, m in mult.items():
        centralizer *= j**m * factorial(m)
    sz, rem = divmod(factorial(n), centralizer)
    if rem:
        raise AssertionError(f"centralizer order does not divide {n}! for {mu}")
    return sz


@cache
def conjugacy_classes(n: int) -> tuple[CycleClass, ...]:
    """Conjugacy classes of S_n, indexed by cycle type in reverse-lex order.

    n = 0 is admitted and yields the single empty class of the trivial group;
    that convention closes the base cases of induction/restriction sums.
    """
    if n < 0:
        raise DomainError(f"symmetric group degree must be nonnegative, got {n}")
    return tuple(CycleClass(mu, class_size(mu)) for mu in partitions_of(n))


def contains(inner: Partition, outer: Partition) -> bool:
    """Diagram containment: every row of inner fits in the same row of outer."""
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


_PARTITION_RE = re.compile(r"^\[\s*(?:\d+\s*(?:,\s*\d+\s*)*)?\]$")


def parse_partition(text: str) -> Partition:
    """Parse the bracket format: "[5,1]" -> (5, 1), "[]" -> ()."""
    s = text.strip()
    if not _PARTITION_RE.match(s):
        raise DomainError(f"not a partition literal: {text!r} (expected e.g. [5,1] or [])")
    body = s[1:-1].strip()
    if not body:
        return ()
    return validate_partition(int(p) for p in body.split(","))


def format_partition(lam: Partition) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


