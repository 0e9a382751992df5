"""Exact S_n character arithmetic.

Irreducible character values come from the Murnaghan-Nakayama rule on the
abacus, with shapes stored as bead bitmasks (beta-sets). The power sum of a
class's tail, p_(mu_2 mu_3 ...), is expanded in the Schur basis one part at a
time (`_expansion`), and every value chi^lam(mu) is one backward strip step
of size mu_1 off the tail's expansion (`_strip`): `mn_value` reads one value,
and `_rows` reads whole rows for the table, for Kronecker coefficients and for
tensor decompositions. The last two build no table: a Kronecker coefficient
sums three rows, and a tensor decomposition expands its class-weighted power
sums in the Schur basis by one forward step per first part. Every such sum,
every multiplicity read off the cached table (`chartable`, the brion records,
the defining representation) and the restriction sum of `lr_by_characters`
is divided by its group order checked exact (`_multiplicity`): a
non-integral or negative multiplicity is an internal fault, not a value.

Littlewood-Richardson coefficients are deliberately computed twice, by the
combinatorial tableaux rule (`lr_coefficient`) and by restricting characters
to a Young subgroup (`lr_by_characters`). The two routes share no code path;
`lr_checked` runs both and treats disagreement as a hard failure.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby
from math import factorial
from operator import mul

from .errors import ConsistencyError, DomainError, checked_cache, require_int
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


def _beads(lam: Partition, beads: int) -> int:
    """Bitmask of the beta-set of lam on `beads` beads: bit lam_i + beads - 1 - i for each i."""
    mask = (1 << (beads - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + beads - 1 - i)
    return mask


@cache
def _expansion(mu: Partition) -> dict[int, int]:
    """p_mu in the Schur basis: bead mask of lam on |mu| beads -> chi^lam(mu), nonzero only.

    p_mu = p_{mu_1} * p_{mu_2 mu_3 ...}, and p_r * s_nu adds each border strip
    of size r to nu: on the abacus one bead moves from b to an empty b + r,
    with sign (-1)^(beads strictly between). James-Kerber 1981, section 2.7.
    """
    if not mu:
        return {0: 1}
    out: dict[int, int] = {}
    _forward(mu[0], _expansion(mu[1:]), out)
    return {mask: value for mask, value in out.items() if value}


def _forward(r: int, terms: dict[int, int], out: dict[int, int]) -> None:
    """Add p_r * sum(value * s_mask over terms) to out, masks on r more beads."""
    low = (1 << r) - 1
    between = low >> 1
    for mask, value in terms.items():
        mask = (mask << r) | low
        movable = mask & ~(mask >> r)
        while movable:
            bit = movable & -movable
            movable ^= bit
            moved = mask ^ bit ^ (bit << r)
            jumped = (mask >> bit.bit_length()) & between
            out[moved] = out.get(moved, 0) + (-value if jumped.bit_count() & 1 else value)


def _strip(mask: int, r: int, tail: dict[int, int]) -> int:
    """chi^lam(r, rest) for the shape lam with bead mask `mask`, from tail = _expansion(rest).

    The backward Murnaghan-Nakayama step: chi^lam(r, rest) sums chi^nu(rest)
    over the shapes nu left by removing a border strip of size r from lam. On
    the abacus one bead moves from p back to an empty p - r, with sign
    (-1)^(beads strictly between). `mask` is on r + |rest| beads and nu has
    at most |rest| parts, so its low r beads are all full, and dropping them
    reads nu on |rest| beads in the expansion of rest.
    """
    low = (1 << r) - 1
    between = low >> 1
    value = 0
    movable = mask & ~(mask << r) & ~low
    while movable:
        bit = movable & -movable
        movable ^= bit
        if term := tail.get((mask ^ bit ^ (bit >> r)) >> r):
            jumped = (mask >> (bit >> r).bit_length()) & between
            value += -term if jumped.bit_count() & 1 else term
    return value


def _rows(n: int, shapes) -> list[list[int]]:
    """chi^lam at every class of S_n in conjugacy_classes order, one row per shape, by `_strip`."""
    steps = [(mu[0], _expansion(mu[1:])) for mu, _ in conjugacy_classes(n) if mu]
    # S_0 has one class, the empty cycle type, and takes no step.
    return [[_strip(mask, r, tail) for r, tail in steps] or [1] for mask in (_beads(lam, n) for lam in shapes)]


def _multiplicity(total: int, order: int, *shapes: Partition) -> int:
    """total / order, a multiplicity of the character labelled by `shapes`, checked integral and nonnegative."""
    value, rem = divmod(total, order)
    if rem or value < 0:
        label = ", ".join(map(format_partition, shapes))
        raise ConsistencyError(
            f"class-weighted inner product is not integral for {label}: {total}/{order}" if rem
            else f"negative multiplicity {value} for {label}"
        )
    return value


def _shape_and_cycle_type(lam, mu) -> tuple[Partition, Partition]:
    lam, mu = validate_partition(lam), validate_partition(mu)
    if size(lam) != size(mu):
        raise DomainError(
            f"shape and cycle type must partition the same n: |{format_partition(lam)}| = "
            f"{size(lam)} vs |{format_partition(mu)}| = {size(mu)}"
        )
    return lam, mu


@checked_cache(_shape_and_cycle_type)
def mn_value(lam: Partition, mu: Partition) -> int:
    """Character value chi^lam at cycle type mu, by Murnaghan-Nakayama.

    Both arguments are validated before the cache is read. lr_by_characters,
    whose shapes are valid already, reads the cache as mn_value.cached: its
    triple loop makes most of the calls, and checking each one costs the
    reps workload about 13% of its ops per second (BENCH_cli_returns.json).
    """
    return _strip(_beads(lam, size(mu)), mu[0], _expansion(mu[1:])) if mu else 1


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

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self._row_index[lam]]

    def weigh(self, values) -> tuple[int, ...]:
        """|C| f(C) for each class C of the class function f: weigh once, then read many rows against it."""
        return tuple(cc.cls_size * v for cc, v in zip(self.classes, values))

    def product(self, lam: Partition, om: Partition) -> tuple[int, ...]:
        """The character chi^lam * chi^om, one value per class."""
        return tuple(a * b for a, b in zip(self.row(lam), self.row(om)))

    def weighed_multiplicity(self, weighed, sig: Partition) -> int:
        """Multiplicity of chi^sig in the class function whose weigh() is `weighed`, checked nonnegative."""
        return _multiplicity(sum(map(mul, weighed, self.row(sig))), factorial(self.n), sig)


@cache
def _table(n: int) -> CharacterTable:
    shapes = partitions_of(n)
    return CharacterTable(n, shapes, conjugacy_classes(n), tuple(map(tuple, _rows(n, shapes))))


def character_table(n: int) -> CharacterTable:
    return _table(require_int("character table n", n, least=1))


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

    The class-weighted sum of three rows from `_rows`. Exact throughout: the
    sum must be divisible by n! and nonnegative, anything else aborts as an
    internal fault.
    """
    lam, om, sig = validate_partition(lam), validate_partition(om), validate_partition(sig)
    n = _common_degree(lam, om, sig)
    rows = _rows(n, (lam, om, sig))
    total = sum(cc.cls_size * a * b * c for cc, a, b, c in zip(conjugacy_classes(n), *rows))
    return _multiplicity(total, factorial(n), lam, om, sig)


def tensor_decompose(lam: Partition, om: Partition) -> dict[Partition, int]:
    """All nonzero multiplicities in chi^lam tensor chi^om, keyed by shape in partitions_of order.

    F = sum over classes mu of |C_mu| chi^lam(mu) chi^om(mu) p_mu is n! times
    the decomposition in the Schur basis. It is expanded by Horner over the
    first part: conjugacy_classes lists the classes grouped by first part r,
    and each group's weighted tail expansions, added into one dict, take one
    forward step of p_r. Every coefficient is divided by n! checked exact.
    """
    lam, om = validate_partition(lam), validate_partition(om)
    n = _common_degree(lam, om)
    if not n:  # S_0 is the trivial group
        return {(): 1}
    schur: dict[int, int] = {}
    weighted = zip(conjugacy_classes(n), *_rows(n, (lam, om)))
    for r, group in groupby(weighted, key=lambda entry: entry[0].cycle_type[0]):
        combined: dict[int, int] = {}
        for (mu, cls_size), a, b in group:
            if weight := cls_size * a * b:
                for mask, value in _expansion(mu[1:]).items():
                    combined[mask] = combined.get(mask, 0) + weight * value
        _forward(r, combined, schur)
    order = factorial(n)
    return {sig: m for sig in partitions_of(n)
            if (m := _multiplicity(schur.get(_beads(sig, n), 0), order, lam, om, sig))}


# --- Littlewood-Richardson, route one: the tableaux rule -------------------

def lr_coefficient(lam: Partition, om: Partition, sig: Partition) -> int:
    """c^sig_{lam,om} by counting Littlewood-Richardson skew tableaux.

    Fillings of sig/lam with content om, rows weakly and columns strictly
    increasing, whose reverse reading word (each row right to left, rows top
    to bottom) is a lattice word. Pure backtracking; shapes here are tiny.
    """
    return _lr_tableaux(*_lr_triple(lam, om, sig))


def _lr_triple(lam, om, sig) -> tuple[Partition, Partition, Partition]:
    """The three shapes of an LR coefficient, validated, with |sig| = |lam| + |om|."""
    lam, om, sig = validate_partition(lam), validate_partition(om), validate_partition(sig)
    if size(sig) != size(lam) + size(om):
        raise DomainError(
            f"size mismatch: |{format_partition(sig)}| != "
            f"|{format_partition(lam)}| + |{format_partition(om)}|"
        )
    return lam, om, sig


def _lr_tableaux(lam: Partition, om: Partition, sig: Partition) -> int:
    """lr_coefficient on a triple _lr_triple has validated."""
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
    return _lr_characters(*_lr_triple(lam, om, sig))


def _lr_characters(lam: Partition, om: Partition, sig: Partition) -> int:
    """lr_by_characters on a triple _lr_triple has validated."""
    k, m = size(lam), size(om)
    total = 0
    for mu, mu_size in conjugacy_classes(k):
        x_lam = mn_value.cached(lam, mu)
        if not x_lam:
            continue
        for nu, nu_size in conjugacy_classes(m):
            x_om = mn_value.cached(om, nu)
            if not x_om:
                continue
            joint = tuple(sorted(mu + nu, reverse=True))
            total += mu_size * nu_size * x_lam * x_om * mn_value.cached(sig, joint)
    return _multiplicity(total, factorial(k) * factorial(m), lam, om, sig)


def lr_checked(lam: Partition, om: Partition, sig: Partition) -> int:
    """Both LR routes on one validation of the triple; any disagreement aborts as an internal fault."""
    lam, om, sig = _lr_triple(lam, om, sig)
    by_tableaux = _lr_tableaux(lam, om, sig)
    by_chars = _lr_characters(lam, om, sig)
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
    require_int("pieri size n", n)
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
    require_int("pieri size n", n)
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
