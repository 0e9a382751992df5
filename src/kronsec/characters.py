"""Exact S_n character arithmetic.

Irreducible character values come from the Murnaghan-Nakayama border-strip
recursion, memoized on (shape, remaining cycle type). Everything downstream
(Kronecker coefficients, tensor decompositions, the character route to
Littlewood-Richardson numbers) is an exact class-weighted sum over a cached
character table, with every division checked to be exact: a non-integral or
negative multiplicity is an internal fault, not a value.

Littlewood-Richardson coefficients are deliberately computed twice, by the
combinatorial tableaux rule (`lr_coefficient`) and by restricting characters
to a Young subgroup (`lr_by_characters`). The two routes share no code path;
`lr_checked` runs both and treats disagreement as a hard failure.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .errors import ConsistencyError, DomainError
from .partitions import (
    CycleClass,
    Partition,
    attach_first_row,
    conjugacy_classes,
    contains,
    format_partition,
    partitions_of,
    size,
    validate_partition,
)


def _betas(lam: Partition, rows: int) -> list[int]:
    """First-column hook lengths (beta numbers) for a diagram padded to `rows`."""
    return [lam[i] + (rows - 1 - i) if i < len(lam) else (rows - 1 - i) for i in range(rows)]


def _partition_from_betas(betas: list[int]) -> Partition:
    bs = sorted(betas, reverse=True)
    rows = len(bs)
    return tuple(p for p in (bs[i] - (rows - 1 - i) for i in range(rows)) if p > 0)


def _strip_removals(lam: Partition, r: int):
    """Yield (sign, smaller shape) for every removable border strip of size r."""
    rows = len(lam) if lam else 1
    betas = _betas(lam, rows)
    present = set(betas)
    for b in betas:
        target = b - r
        if target < 0 or target in present:
            continue
        height = sum(1 for other in betas if target < other < b)
        sign = -1 if height % 2 else 1
        yield sign, _partition_from_betas([target if x == b else x for x in betas])


@cache
def mn_value(lam: Partition, mu: Partition) -> int:
    """Character value chi^lam at cycle type mu, by Murnaghan-Nakayama."""
    if size(lam) != size(mu):
        raise DomainError(
            f"shape and cycle type must partition the same n: |{format_partition(lam)}| = "
            f"{size(lam)} vs |{format_partition(mu)}| = {size(mu)}"
        )
    if not lam:
        return 1
    r, rest = mu[0], mu[1:]
    return sum(sign * mn_value(smaller, rest) for sign, smaller in _strip_removals(lam, r))


class CharacterTable:
    """Full character table of S_n: rows are shapes, columns are cycle types.

    Both axes use the reverse-lexicographic partition order: row 0 is the
    trivial character, the identity class (1^n) is the last column, so the
    final column lists the irreducible dimensions.
    """

    def __init__(self, n: int, irreducibles, classes, values):
        self.n = n
        self.irreducibles: tuple[Partition, ...] = irreducibles
        self.classes: tuple[CycleClass, ...] = classes
        self.values: tuple[tuple[int, ...], ...] = values
        self._row_index = {lam: i for i, lam in enumerate(irreducibles)}
        self._col_index = {cc.cycle_type: j for j, cc in enumerate(classes)}

    def chi(self, lam: Partition, mu: Partition) -> int:
        return self.values[self._row_index[lam]][self._col_index[mu]]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self._row_index[lam]]

    def inner_product(self, row_a, row_b) -> int:
        """<a, b> = (1/n!) sum_C |C| a(C) b(C), checked to be an integer."""
        total = sum(cc.cls_size * x * y for cc, x, y in zip(self.classes, row_a, row_b))
        value, rem = divmod(total, factorial(self.n))
        if rem:
            raise ConsistencyError(
                f"class-weighted inner product is not integral for n={self.n}: {total}/{self.n}!"
            )
        return value


@cache
def _table(n: int) -> CharacterTable:
    shapes = partitions_of(n)
    classes = conjugacy_classes(n)
    values = tuple(
        tuple(mn_value(lam, cc.cycle_type) for cc in classes) for lam in shapes
    )
    return CharacterTable(n, shapes, classes, values)


def character_table(n: int) -> CharacterTable:
    if n < 1:
        raise DomainError(f"character table needs n >= 1, got {n}")
    return _table(n)


def _common_degree(*shapes: Partition) -> int:
    sizes = {size(lam) for lam in shapes}
    if len(sizes) != 1:
        raise DomainError(
            "all shapes must partition the same n, got sizes "
            + ", ".join(f"|{format_partition(s)}|={size(s)}" for s in shapes)
        )
    return sizes.pop()


def kronecker(lam: Partition, om: Partition, sig: Partition) -> int:
    """Multiplicity of chi^sig in chi^lam * chi^om (pointwise product).

    Exact throughout: the class-weighted sum must be divisible by n! and
    nonnegative, anything else aborts as an internal fault.
    """
    n = _common_degree(lam, om, sig)
    if n == 0:
        return 1
    t = character_table(n)
    return _multiplicity(t, _pointwise(t, lam, om), lam, om, sig)


def tensor_decompose(lam: Partition, om: Partition) -> dict[Partition, int]:
    """All nonzero multiplicities in chi^lam tensor chi^om, keyed by shape."""
    n = _common_degree(lam, om)
    if n == 0:
        return {(): 1}
    t = character_table(n)
    product = _pointwise(t, lam, om)
    out = {}
    for sig in partitions_of(n):
        m = _multiplicity(t, product, lam, om, sig)
        if m:
            out[sig] = m
    return out


def _pointwise(t: CharacterTable, lam: Partition, om: Partition) -> tuple[int, ...]:
    """The character chi^lam * chi^om, one value per class of t."""
    return tuple(a * b for a, b in zip(t.row(lam), t.row(om)))


def _multiplicity(t: CharacterTable, product, lam: Partition, om: Partition, sig: Partition) -> int:
    value = t.inner_product(product, t.row(sig))
    if value < 0:
        raise ConsistencyError(
            f"negative Kronecker multiplicity {value} for "
            f"{format_partition(lam)}, {format_partition(om)}, {format_partition(sig)}"
        )
    return value


# --- Littlewood-Richardson, route one: the tableaux rule -------------------

def lr_coefficient(lam: Partition, om: Partition, sig: Partition) -> int:
    """c^sig_{lam,om} by counting Littlewood-Richardson skew tableaux.

    Fillings of sig/lam with content om, rows weakly and columns strictly
    increasing, whose reverse reading word (each row right to left, rows top
    to bottom) is a lattice word. Pure backtracking; shapes here are tiny.
    """
    lam, om, sig = validate_partition(lam), validate_partition(om), validate_partition(sig)
    if size(sig) != size(lam) + size(om):
        raise DomainError(
            f"size mismatch: |{format_partition(sig)}| != "
            f"|{format_partition(lam)}| + |{format_partition(om)}|"
        )
    if not contains(lam, sig):
        return 0
    if not om:
        return 1 if sig == lam else 0

    rows = len(sig)
    lam_row = [lam[i] if i < len(lam) else 0 for i in range(rows)]
    cells = []  # reverse reading order: top row right-to-left, then next row
    for i in range(rows):
        for j in range(sig[i] - 1, lam_row[i] - 1, -1):
            cells.append((i, j))

    values = len(om)
    grid = [[0] * sig[i] for i in range(rows)]
    counts = [0] * (values + 1)
    remaining = list(om)

    def fill(pos: int) -> int:
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        right = grid[i][j + 1] if j + 1 < sig[i] else values
        above = grid[i - 1][j] if i > 0 and j >= lam_row[i - 1] and j < sig[i - 1] else 0
        total = 0
        for v in range(above + 1, right + 1):
            if not remaining[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            grid[i][j] = v
            counts[v] += 1
            remaining[v - 1] -= 1
            total += fill(pos + 1)
            grid[i][j] = 0
            counts[v] -= 1
            remaining[v - 1] += 1
        return total

    return fill(0)


# --- Littlewood-Richardson, route two: induced characters ------------------

def lr_by_characters(lam: Partition, om: Partition, sig: Partition) -> int:
    """c^sig_{lam,om} as <chi^sig restricted to S_k x S_m, chi^lam x chi^om>.

    Sums chi^sig over concatenated cycle types, weighted by both class sizes,
    and divides by k! m! exactly. Shares nothing with the tableaux route.
    """
    lam, om, sig = validate_partition(lam), validate_partition(om), validate_partition(sig)
    k, m = size(lam), size(om)
    if size(sig) != k + m:
        raise DomainError(
            f"size mismatch: |{format_partition(sig)}| != "
            f"|{format_partition(lam)}| + |{format_partition(om)}|"
        )
    total = 0
    for mu, mu_size in conjugacy_classes(k):
        x_lam = mn_value(lam, mu)
        if not x_lam:
            continue
        for nu, nu_size in conjugacy_classes(m):
            x_om = mn_value(om, nu)
            if not x_om:
                continue
            joint = tuple(sorted(mu + nu, reverse=True))
            total += mu_size * nu_size * x_lam * x_om * mn_value(sig, joint)
    value, rem = divmod(total, factorial(k) * factorial(m))
    if rem:
        raise ConsistencyError(
            f"restriction inner product not divisible by {k}! {m}! for "
            f"{format_partition(lam)}, {format_partition(om)}, {format_partition(sig)}"
        )
    if value < 0:
        raise ConsistencyError(
            f"negative LR multiplicity {value} for "
            f"{format_partition(lam)}, {format_partition(om)}, {format_partition(sig)}"
        )
    return value


def lr_checked(lam: Partition, om: Partition, sig: Partition) -> int:
    """Both LR routes; any disagreement aborts as an internal fault."""
    by_tableaux = lr_coefficient(lam, om, sig)
    by_chars = lr_by_characters(lam, om, sig)
    if by_tableaux != by_chars:
        raise ConsistencyError(
            f"LR routes disagree for {format_partition(lam)}, {format_partition(om)}, "
            f"{format_partition(sig)}: tableaux {by_tableaux} vs characters {by_chars}"
        )
    return by_tableaux


# --- Pieri ------------------------------------------------------------------

def pieri_decompose(lam: Partition, n: int) -> dict[Partition, int]:
    """Shapes obtained from lam by adding a horizontal strip of n - |lam| boxes.

    Each shape appears with multiplicity exactly 1 (Pieri). This is the
    decomposition of the module induced from (lam x trivial) on S_k x S_{n-k}.
    """
    lam = validate_partition(lam)
    k = size(lam)
    if n < k:
        raise DomainError(f"pieri_decompose needs n >= |lam|: {n} < {k}")
    strip = n - k
    out: dict[Partition, int] = {}

    def build(row: int, prefix: list[int], left: int):
        # row extends lam by one extra row at the bottom; interlacing keeps
        # the added boxes a horizontal strip.
        if row == len(lam) + 1:
            if left == 0:
                out[tuple(p for p in prefix if p > 0)] = 1
            return
        lo = lam[row] if row < len(lam) else 0
        hi = lam[row - 1] if row > 0 else lam[0] + strip if lam else strip
        hi = min(hi, lo + left)
        for val in range(lo, hi + 1):
            prefix.append(val)
            build(row + 1, prefix, left - (val - lo))
            prefix.pop()

    build(0, [], strip)
    return out


def pieri_distinguished(lam: Partition, n: int) -> Partition:
    """The one summand of pieri_decompose(lam, n) whose first row is <= n - |lam|.

    Defined in the regime 2|lam| <= n + 1 where the new first row is long
    enough to sit on top of lam; equals attach_first_row(lam, n) and is
    cross-checked against the full decomposition before being returned.
    """
    lam = validate_partition(lam)
    k = size(lam)
    if 2 * k > n + 1:
        raise DomainError(f"regime violation: 2|lam| <= n + 1 fails ({2 * k} > {n + 1})")
    target = attach_first_row(lam, n)  # rejects n - |lam| < lam_1
    hits = [
        mu for mu in pieri_decompose(lam, n) if (mu[0] if mu else 0) <= n - k
    ]
    if hits != [target]:
        raise ConsistencyError(
            f"expected exactly one short-first-row summand {format_partition(target)}, "
            f"found {[format_partition(h) for h in hits]}"
        )
    return target
