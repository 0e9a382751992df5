import itertools
import random
from functools import cache
from math import comb, factorial

import pytest
from conftest import (
    oracle_character_table,
    oracle_class_inner_product,
    oracle_cycle_census,
    oracle_is_horizontal_strip,
)

import kronsec.characters as characters
from kronsec.characters import (
    character_table,
    kronecker,
    lr_by_characters,
    lr_checked,
    lr_coefficient,
    mn_value,
    pieri_decompose,
    pieri_distinguished,
    tensor_decompose,
)
from kronsec.errors import ConsistencyError, DomainError
from kronsec.partitions import (
    attach_first_row,
    conjugacy_classes,
    conjugate,
    dimension,
    has_long_first_row,
    partitions_of,
    size,
)

# Frozen from a hand calculation with the standard S_3/S_4 tables; classes in
# reverse-lex order, so the identity class (1^n) is the last column.
S3_TABLE = {
    (3,): (1, 1, 1),
    (2, 1): (-1, 0, 2),
    (1, 1, 1): (1, -1, 1),
}
S4_TABLE = {
    (4,): (1, 1, 1, 1, 1),
    (3, 1): (-1, 0, -1, 1, 3),
    (2, 2): (0, -1, 2, 0, 2),
    (2, 1, 1): (1, 0, -1, -1, 3),
    (1, 1, 1, 1): (-1, 1, 1, -1, 1),
}


def test_s3_and_s4_tables_frozen():
    t3 = character_table(3)
    for lam, row in S3_TABLE.items():
        assert t3.row(lam) == row
    t4 = character_table(4)
    for lam, row in S4_TABLE.items():
        assert t4.row(lam) == row


@pytest.mark.parametrize("n", range(1, 9))
def test_table_matches_permutation_character_reduction(n):
    oracle = oracle_character_table(n)
    table = character_table(n)
    for lam in table.irreducibles:
        expected = oracle[lam]
        for cc, value in zip(table.classes, table.row(lam)):
            assert value == expected[cc.cycle_type]


def test_mn_sign_character_is_conjugation():
    # chi^{lam'}(mu) = sign(mu) chi^lam(mu), sign(mu) = (-1)^(n - #parts)
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                sign = (-1) ** (n - len(mu))
                assert mn_value(conjugate(lam), mu) == sign * mn_value(lam, mu)


def test_mn_dimension_column():
    for n in range(13):
        for lam in partitions_of(n):
            assert mn_value(lam, (1,) * n) == dimension(lam)


def test_mn_size_mismatch_rejected():
    with pytest.raises(DomainError):
        mn_value((2, 1), (2, 2))


def test_row_orthogonality_small():
    for n in range(1, 13):
        t = character_table(n)
        sizes = [cc.cls_size for cc in t.classes]
        for a in t.irreducibles:
            for b in t.irreducibles:
                assert oracle_class_inner_product(sizes, t.row(a), t.row(b)) == (1 if a == b else 0)


def test_column_orthogonality_small():
    # sum_lam chi^lam(mu) chi^lam(nu) = delta_{mu,nu} n!/|C_mu|, the centralizer order
    for n in range(1, 13):
        t = character_table(n)
        columns = list(zip(*t.values))
        for j, (cc, column) in enumerate(zip(t.classes, columns)):
            centralizer = factorial(n) // cc.cls_size
            for k, other in enumerate(columns):
                dot = sum(x * y for x, y in zip(column, other))
                assert dot == (centralizer if j == k else 0)


def test_table_past_the_default_n_cap():
    n = 15
    t = character_table(n)
    for lam in t.irreducibles:
        assert t.row(lam)[-1] == dimension(lam)
        for cc, value in zip(t.classes, t.row(lam)):
            assert mn_value(lam, cc.cycle_type) == value == forward_value(lam, cc.cycle_type)


def test_kronecker_known_values():
    assert kronecker((2, 1), (2, 1), (3,)) == 1
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker((2, 1), (2, 1), (1, 1, 1)) == 1
    assert kronecker((5, 1), (5, 1), (4, 2)) == 1
    # pairing with the trivial character picks out equality
    assert kronecker((3, 1), (4,), (3, 1)) == 1
    assert kronecker((3, 1), (4,), (2, 2)) == 0


def test_kronecker_symmetric_in_all_arguments():
    for n in (3, 4, 5):
        shapes = partitions_of(n)
        for lam, om, sig in itertools.combinations_with_replacement(shapes, 3):
            base = kronecker(lam, om, sig)
            for perm in itertools.permutations((lam, om, sig)):
                assert kronecker(*perm) == base


def test_kronecker_size_mismatch_rejected():
    with pytest.raises(DomainError, match="same n"):
        kronecker((2,), (1,), (1,))


def test_empty_shapes_are_the_trivial_group():
    assert kronecker((), (), ()) == 1
    assert tensor_decompose((), ()) == {(): 1}
    with pytest.raises(DomainError, match="n >= 1"):
        character_table(0)


def test_multiplicity_rejects_what_is_no_character():
    t = character_table(3)  # classes (3), (2,1), (1,1,1) of sizes 2, 3, 1
    with pytest.raises(ConsistencyError, match="not integral"):
        t.weighed_multiplicity(t.weigh((1, 0, 0)), (3,))
    with pytest.raises(ConsistencyError, match="negative"):
        t.weighed_multiplicity(t.weigh(tuple(-x for x in t.row((2, 1)))), (2, 1))
    assert t.weighed_multiplicity(t.weigh(t.product((2, 1), (2, 1))), (2, 1)) == 1


def test_tensor_decomposition_example():
    got = tensor_decompose((5, 1), (5, 1))
    assert got == {(6,): 1, (5, 1): 1, (4, 2): 1, (4, 1, 1): 1}


def test_tensor_decomposition_reconstructs_pointwise_product():
    for n in (3, 4, 5):
        t = character_table(n)
        for lam in partitions_of(n):
            for om in partitions_of(n):
                decomp = tensor_decompose(lam, om)
                for j in range(len(t.classes)):
                    product = t.row(lam)[j] * t.row(om)[j]
                    total = sum(m * t.row(sig)[j] for sig, m in decomp.items())
                    assert total == product


@pytest.mark.parametrize(
    "bad", [(1, 2), (2, 0, 1), (3, -1, 1)], ids=["increasing", "zero-part", "negative-part"]
)
def test_kron_and_tensor_reject_what_is_no_partition(bad):
    # A bead mask of (1, 2) puts two beads on one bit: checked before any mask is built.
    with pytest.raises(DomainError, match="partition parts"):
        kronecker(bad, (3,), (3,))
    with pytest.raises(DomainError, match="partition parts"):
        kronecker((3,), (3,), bad)
    with pytest.raises(DomainError, match="partition parts"):
        tensor_decompose(bad, (3,))
    with pytest.raises(DomainError, match="partition parts"):
        tensor_decompose((3,), bad)


@pytest.mark.parametrize("lam, mu", [
    ((1, 2), (1, 1, 1)),
    ((3, -1, 1), (3,)),
    ((3,), (3, -1, 1)),
    ((2, 0, 1), (3,)),
    ((3,), (2, 0, 1)),
    ((3,), (1, 2)),
], ids=["increasing-shape", "negative-shape", "negative-type", "zero-shape", "zero-type",
        "increasing-type"])
def test_mn_value_rejects_what_is_no_partition(lam, mu):
    # Twice: functools.cache keeps no exception, so the second call checks again.
    for _ in range(2):
        with pytest.raises(DomainError, match="partition parts"):
            mn_value(lam, mu)


# --- The row and Horner routes against the character table ----------------


def forward_value(lam, mu):
    """chi^lam(mu) by the forward column read: the full expansion of p_mu at lam's bead mask.

    The package reads every value by a backward strip step off the expansion
    of mu's tail; this read shares only the expansion with it.
    """
    return characters._expansion(mu).get(characters._beads(lam, size(mu)), 0)


def forward_kronecker(lam, om, sig):
    n = size(lam)
    total = sum(cls_size * forward_value(lam, mu) * forward_value(om, mu) * forward_value(sig, mu)
                for mu, cls_size in conjugacy_classes(n))
    g, rem = divmod(total, factorial(n))
    assert rem == 0 and g >= 0
    return g


def table_kronecker(lam, om, sig):
    t = character_table(size(lam))
    return t.weighed_multiplicity(t.weigh(t.product(lam, om)), sig)


def table_tensor(lam, om):
    t = character_table(size(lam))
    weighed = t.weigh(t.product(lam, om))
    return {sig: m for sig in t.irreducibles if (m := t.weighed_multiplicity(weighed, sig))}


@cache
def oracle_multiplicities(n):
    """{(lam, om, sig): g} over every triple of S_n, from the permutation-character table."""
    table, census = oracle_character_table(n), oracle_cycle_census(n)
    shapes = partitions_of(n)
    out = {}
    for lam, om, sig in itertools.product(shapes, repeat=3):
        total = sum(census[mu] * table[lam][mu] * table[om][mu] * table[sig][mu] for mu in census)
        g, rem = divmod(total, factorial(n))
        assert rem == 0
        out[lam, om, sig] = g
    return out


def seeded_shapes(n, count, arity):
    rng = random.Random(1000 + n)
    return [tuple(rng.choice(partitions_of(n)) for _ in range(arity)) for _ in range(count)]


def test_kronecker_rows_match_the_table_and_the_oracle():
    for n in range(1, 7):
        oracle = oracle_multiplicities(n)
        for triple in itertools.product(partitions_of(n), repeat=3):
            assert kronecker(*triple) == table_kronecker(*triple) == oracle[triple]
    for n in range(7, 17):
        for triple in seeded_shapes(n, 12, 3):
            assert kronecker(*triple) == table_kronecker(*triple) == forward_kronecker(*triple)


def test_tensor_horner_matches_the_table_and_the_oracle():
    for n in range(1, 8):
        oracle = oracle_multiplicities(n)
        for lam, om in itertools.product(partitions_of(n), repeat=2):
            got = tensor_decompose(lam, om)
            assert list(got.items()) == list(table_tensor(lam, om).items())
            assert got == {sig: g for sig in partitions_of(n) if (g := oracle[lam, om, sig])}
    for n in range(8, 17):
        for lam, om in seeded_shapes(n, 6, 2):
            got = tensor_decompose(lam, om)
            assert list(got.items()) == list(table_tensor(lam, om).items())
            # partitions_of order: reverse-lex, that is descending tuples.
            assert list(got) == sorted(got, reverse=True)


def patched_expansion(monkeypatch, alter):
    """Serve every tail expansion of size < 6 through alter(mu, clean copy), never recursing."""
    clean = {mu: dict(characters._expansion(mu)) for k in range(6) for mu in partitions_of(k)}
    monkeypatch.setattr(characters, "_expansion", lambda mu: alter(mu, dict(clean[mu])))


def test_a_perturbed_tail_is_not_integral(monkeypatch):
    def bump(mu, expansion):
        if mu == (1,):  # chi^(1)((1)) = 1 becomes 2
            expansion[0b10] += 1
        return expansion

    patched_expansion(monkeypatch, bump)
    with pytest.raises(ConsistencyError, match="not integral"):
        kronecker((3,), (3,), (3,))
    with pytest.raises(ConsistencyError, match="not integral"):
        tensor_decompose((3,), (3,))


def test_sign_flipped_tails_give_a_negative_multiplicity(monkeypatch):
    def flip(mu, expansion):
        return {mask: -value for mask, value in expansion.items()}

    patched_expansion(monkeypatch, flip)
    with pytest.raises(ConsistencyError, match="negative multiplicity"):
        kronecker((3, 1), (3, 1), (2, 2))
    with pytest.raises(ConsistencyError, match="negative multiplicity"):
        tensor_decompose((3, 1), (3, 1))


# --- Littlewood-Richardson ---------------------------------------------------


def test_lr_pieri_special_case():
    # One-row second factor: multiplicity is 1 exactly on horizontal strips.
    for k in range(1, 5):
        for a in range(5):
            for lam in partitions_of(a):
                for sig in partitions_of(a + k):
                    expected = 1 if oracle_is_horizontal_strip(lam, sig) else 0
                    assert lr_coefficient(lam, (k,), sig) == expected


def test_lr_column_special_case():
    # One-column second factor: vertical strips, checked through conjugates.
    for k in range(1, 4):
        for a in range(5):
            for lam in partitions_of(a):
                for sig in partitions_of(a + k):
                    expected = 1 if oracle_is_horizontal_strip(conjugate(lam), conjugate(sig)) else 0
                    assert lr_coefficient(lam, (1,) * k, sig) == expected


def test_lr_symmetry_and_conjugation():
    for total in range(2, 7):
        for a in range(total + 1):
            for lam in partitions_of(a):
                for om in partitions_of(total - a):
                    for sig in partitions_of(total):
                        c = lr_coefficient(lam, om, sig)
                        assert lr_coefficient(om, lam, sig) == c
                        assert lr_coefficient(conjugate(lam), conjugate(om), conjugate(sig)) == c


def test_lr_dimension_sum_rule():
    # sum_sigma c^sigma f^sigma = binom(a+b, a) f^lam f^om
    for total in range(1, 8):
        for a in range(total + 1):
            for lam in partitions_of(a):
                for om in partitions_of(total - a):
                    lhs = sum(
                        lr_coefficient(lam, om, sig) * dimension(sig)
                        for sig in partitions_of(total)
                    )
                    assert lhs == comb(total, a) * dimension(lam) * dimension(om)


def test_lr_routes_agree():
    for total in range(2, 7):
        for a in range(total + 1):
            for lam in partitions_of(a):
                for om in partitions_of(total - a):
                    for sig in partitions_of(total):
                        assert lr_coefficient(lam, om, sig) == lr_by_characters(lam, om, sig)


def test_lr_known_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_coefficient((), (), ()) == 1


def test_lr_size_mismatch_rejected():
    with pytest.raises(DomainError):
        lr_coefficient((2,), (1,), (2, 2))  # |sigma| = 4 != 3


def test_lr_checked_passes_and_detects_corruption(monkeypatch):
    assert lr_checked((2, 1), (2, 1), (3, 2, 1)) == 2
    # lr_checked runs the body of each route on the triple it validated once
    monkeypatch.setattr(characters, "_lr_characters", lambda *args: 99)
    with pytest.raises(ConsistencyError):
        lr_checked((2, 1), (2, 1), (3, 2, 1))


def test_lr_checked_validates_each_shape_once(monkeypatch):
    calls = []
    validate = characters.validate_partition
    monkeypatch.setattr(characters, "validate_partition", lambda lam: calls.append(lam) or validate(lam))
    for triple, want in [(((2, 1), (2, 1), (3, 2, 1)), 2), (((3, 1), (2,), (4, 2)), 1), (((), (1,), (1,)), 1)]:
        calls.clear()
        assert lr_checked(*triple) == want
        assert calls == list(triple)
    calls.clear()
    with pytest.raises(DomainError):
        lr_checked((2,), (1,), (2, 2))
    assert len(calls) == 3


# --- Pieri decompositions -----------------------------------------------------


def test_pieri_terms_are_exactly_horizontal_strip_extensions():
    for n in range(1, 9):
        for k in range(n + 1):
            for lam in partitions_of(k):
                got = pieri_decompose(lam, n)
                for sig in partitions_of(n):
                    expected = 1 if oracle_is_horizontal_strip(lam, sig) else 0
                    assert got.get(sig, 0) == expected


def test_pieri_multiplicities_all_one():
    for n in range(1, 9):
        for lam in partitions_of(3):
            if size(lam) > n:
                continue
            assert all(m == 1 for m in pieri_decompose(lam, n).values())


def test_pieri_needs_room():
    with pytest.raises(DomainError):
        pieri_decompose((3,), 2)


def test_pieri_distinguished_examples():
    assert pieri_distinguished((1,), 2) == (1, 1)
    assert pieri_distinguished((2, 1), 8) == (5, 2, 1)
    assert pieri_distinguished((), 5) == (5,)


def test_pieri_distinguished_is_unique_short_first_row_term():
    # In the regime 2|lam| <= n + 1 exactly one summand keeps its first row
    # within n - |lam| boxes, and that summand is the attached completion.
    for n in range(1, 10):
        for k in range((n + 1) // 2 + 1):
            for lam in partitions_of(k):
                if lam and n - k < lam[0]:
                    continue
                if 2 * k > n + 1:
                    continue
                target = pieri_distinguished(lam, n)
                assert target == attach_first_row(lam, n)
                assert has_long_first_row(target)
                decomp = pieri_decompose(lam, n)
                assert decomp[target] == 1
                hits = [sig for sig in decomp if (sig[0] if sig else 0) <= n - k]
                assert hits == [target]


def test_pieri_distinguished_regime_errors():
    with pytest.raises(DomainError, match="regime"):
        pieri_distinguished((2, 2), 5)  # 2|lam| = 8 > 6
    with pytest.raises(DomainError):
        pieri_distinguished((2,), 3)  # attach has no room: 3 - 2 < 2
