import pytest
from conftest import oracle_cycle_census, oracle_partition_count, oracle_partitions, oracle_syt_count
from math import factorial

from kronsec.errors import DomainError
from kronsec.partitions import (
    attach_first_row,
    conjugacy_classes,
    contains,
    dimension,
    format_partition,
    has_long_first_row,
    parse_partition,
    partitions_of,
    size,
    validate_partition,
)


@pytest.mark.parametrize("n", range(13))
def test_enumeration_matches_brute_force(n):
    assert set(partitions_of(n)) == oracle_partitions(n)


@pytest.mark.parametrize("n", range(41))
def test_counts_follow_pentagonal_recurrence(n):
    assert len(partitions_of(n)) == oracle_partition_count(n)


def test_reverse_lex_order():
    for n in range(11):
        parts = partitions_of(n)
        assert list(parts) == sorted(parts, reverse=True)
        if n:
            assert parts[0] == (n,)
            assert parts[-1] == (1,) * n


def test_max_part_bound():
    assert partitions_of(5, max_part=2) == ((2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))
    assert partitions_of(4, max_part=1) == ((1, 1, 1, 1),)
    assert partitions_of(0) == ((),)


def test_negative_rejected():
    with pytest.raises(DomainError):
        partitions_of(-1)


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sizes_against_census(n):
    census = oracle_cycle_census(n)
    got = {c.cycle_type: c.cls_size for c in conjugacy_classes(n)}
    assert got == census


def test_class_sizes_sum_to_group_order():
    for n in range(11):
        assert sum(c.cls_size for c in conjugacy_classes(n)) == factorial(n)


def test_empty_group_has_single_class():
    classes = conjugacy_classes(0)
    assert len(classes) == 1
    assert classes[0].cycle_type == ()
    assert classes[0].cls_size == 1


def test_dimension_counts_standard_fillings():
    for n in range(7):
        for lam in partitions_of(n):
            assert dimension(lam) == oracle_syt_count(lam)


def test_dimension_known_values():
    assert dimension((2, 1)) == 2
    assert dimension((3, 2)) == 5
    assert dimension((4, 4)) == 14
    assert dimension(()) == 1


@pytest.mark.parametrize("bad", [(1, 2), (2, 0, 1), (3, -1, 1)],
                         ids=["increasing", "zero-part", "negative-part"])
def test_dimension_rejects_what_is_no_partition(bad):
    with pytest.raises(DomainError, match="partition parts"):
        dimension(bad)


@pytest.mark.parametrize("bad", [(True,), (2, True), (2.0, 1), ("2",)],
                         ids=["true", "true-tail", "float", "str"])
def test_validate_partition_takes_only_int_parts(bad):
    with pytest.raises(DomainError, match="positive integers"):
        validate_partition(bad)


def test_attach_first_row():
    assert attach_first_row((1,), 2) == (1, 1)
    assert attach_first_row((2, 1), 8) == (5, 2, 1)
    assert attach_first_row((), 4) == (4,)
    assert attach_first_row((), 0) == ()


def test_attach_first_row_needs_room():
    with pytest.raises(DomainError, match="attach_first_row"):
        attach_first_row((2,), 3)
    with pytest.raises(DomainError):
        attach_first_row((3, 3), 7)


@pytest.mark.parametrize("lam, n", [((1, 2), 8), ((True,), 3), ((2, 0, 1), 8)],
                         ids=["increasing", "bool", "zero-part"])
def test_attach_first_row_takes_only_partitions(lam, n):
    # (1, 2) would come back as the non-partition (5, 1, 2), and (True,) as (2, True).
    with pytest.raises(DomainError, match="partition parts"):
        attach_first_row(lam, n)


def test_attach_result_always_a_partition_with_long_first_row():
    for n in range(12):
        for k in range(n + 1):
            for lam in partitions_of(k):
                if lam and n - k < lam[0]:
                    continue
                big = attach_first_row(lam, n)
                assert size(big) == n
                assert all(big[i] >= big[i + 1] for i in range(len(big) - 1))
                if 2 * k <= n + 1:
                    assert has_long_first_row(big)


def test_long_first_row_threshold():
    assert has_long_first_row((3, 2))
    assert has_long_first_row((2, 2, 1))  # 2*2 equals 5 - 1 exactly
    assert not has_long_first_row((2, 2, 2))
    assert not has_long_first_row((1, 1, 1, 1))
    assert has_long_first_row((1,))
    assert has_long_first_row(())


def test_contains():
    assert contains((1,), (2, 1))
    assert not contains((2, 2), (3, 1))
    assert contains((), ())


def test_parse_and_format_round_trip():
    for text in ("[]", "[1]", "[5,1]", "[3,3,2,1]"):
        assert format_partition(parse_partition(text)) == text
    assert parse_partition("[ 2, 1 ]") == (2, 1)


@pytest.mark.parametrize("bad", ["", "2,1", "[2,3]", "[0]", "[1,]", "[a]", "[-1]"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(DomainError):
        parse_partition(bad)
