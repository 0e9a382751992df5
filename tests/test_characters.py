from math import comb

import pytest
from conftest import oracle_character_table, oracle_is_horizontal_strip

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


@pytest.mark.parametrize("n", range(1, 7))
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
    for n in range(8):
        for lam in partitions_of(n):
            assert mn_value(lam, (1,) * n) == dimension(lam)


def test_mn_size_mismatch_rejected():
    with pytest.raises(DomainError):
        mn_value((2, 1), (2, 2))


def test_row_orthogonality_small():
    for n in range(1, 8):
        t = character_table(n)
        for a in t.irreducibles:
            for b in t.irreducibles:
                assert t.inner_product(t.row(a), t.row(b)) == (1 if a == b else 0)


def test_kronecker_known_values():
    assert kronecker((2, 1), (2, 1), (3,)) == 1
    assert kronecker((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker((2, 1), (2, 1), (1, 1, 1)) == 1
    assert kronecker((5, 1), (5, 1), (4, 2)) == 1
    # pairing with the trivial character picks out equality
    assert kronecker((3, 1), (4,), (3, 1)) == 1
    assert kronecker((3, 1), (4,), (2, 2)) == 0


def test_kronecker_symmetric_in_all_arguments():
    import itertools

    for n in (3, 4, 5):
        shapes = partitions_of(n)
        for lam, om, sig in itertools.combinations_with_replacement(shapes, 3):
            base = kronecker(lam, om, sig)
            for perm in itertools.permutations((lam, om, sig)):
                assert kronecker(*perm) == base


def test_kronecker_size_mismatch_rejected():
    with pytest.raises(DomainError, match="same n"):
        kronecker((2,), (1,), (1,))


def test_tensor_decomposition_example():
    got = tensor_decompose((5, 1), (5, 1))
    assert got == {(6,): 1, (5, 1): 1, (4, 2): 1, (4, 1, 1): 1}


def test_tensor_decomposition_reconstructs_pointwise_product():
    for n in (3, 4, 5):
        t = character_table(n)
        for lam in partitions_of(n):
            for om in partitions_of(n):
                decomp = tensor_decompose(lam, om)
                for j, cc in enumerate(t.classes):
                    product = t.chi(lam, cc.cycle_type) * t.chi(om, cc.cycle_type)
                    total = sum(m * t.chi(sig, cc.cycle_type) for sig, m in decomp.items())
                    assert total == product


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
    import kronsec.characters as characters

    monkeypatch.setattr(characters, "lr_by_characters", lambda *args: 99)
    with pytest.raises(ConsistencyError):
        lr_checked((2, 1), (2, 1), (3, 2, 1))


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
