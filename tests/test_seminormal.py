import random
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import (
    dense_from_columns,
    dense_identity,
    dense_product,
    oracle_last_letter_tableaux,
    oracle_syt_count,
)

from kronsec.characters import mn_value
from kronsec.errors import DomainError
from kronsec.partitions import dimension, partitions_of
from kronsec.seminormal import (
    build_rep,
    check_relations,
    evaluate_word,
    spherical_relation_image,
    standard_tableaux,
    word_cycle_type,
    word_trace,
)


def test_tableau_counts_match_dimension():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert len(standard_tableaux(lam)) == oracle_syt_count(lam)


def test_tableaux_are_standard():
    for lam in [(3, 2), (2, 2, 1), (4, 1)]:
        for t in standard_tableaux(lam):
            flat = sorted(v for row in t for v in row)
            assert flat == list(range(1, sum(lam) + 1))
            for row in t:
                assert all(a < b for a, b in zip(row, row[1:]))
            for i in range(len(t) - 1):
                assert all(t[i][j] < t[i + 1][j] for j in range(len(t[i + 1])))


def test_last_letter_order_frozen_for_shape_32():
    # Sorted by the rows holding n, n-1, ...: higher placements of the large
    # letters come first, so the row-reading filling comes last.
    first = standard_tableaux((3, 2))[0]
    last = standard_tableaux((3, 2))[-1]
    assert first == ((1, 3, 5), (2, 4))
    assert last == ((1, 2, 3), (4, 5))


def test_tableaux_come_in_last_letter_order_up_to_size_7():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert list(standard_tableaux(lam)) == oracle_last_letter_tableaux(lam)


def test_generators_satisfy_relations_up_to_size_5():
    for n in range(2, 6):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            flags = check_relations(rep)
            assert flags == {"involution": True, "braid": True, "commutation": True}


def test_relations_hold_at_dimension_768():
    assert check_relations(build_rep((4, 3, 2, 1))) == {
        "involution": True, "braid": True, "commutation": True,
    }


def _corrupt(rep, i, column):
    """rep with the columns of s_i replaced by column(c, entries)."""
    gens = list(rep.generators)
    gens[i - 1] = tuple(column(c, entries) for c, entries in enumerate(gens[i - 1]))
    return replace(rep, generators=tuple(gens))


def test_check_relations_flags_corrupted_generators():
    rep = build_rep((3, 2))
    # Swapping 1/d and beta in one two-entry column of s_2 breaks s_2^2 = 1.
    target = next(c for c, entries in enumerate(rep.generators[1]) if len(entries) == 2)

    def swapped(c, entries):
        if c != target:
            return entries
        (r1, v1), (r2, v2) = entries
        return ((r1, v2), (r2, v1))

    broken = _corrupt(rep, 2, swapped)
    assert check_relations(broken)["involution"] is False
    assert spherical_relation_image(broken) != tuple(((c, 1),) for c in range(broken.dim))
    # s_1 -> -1 squares to 1 and commutes with everything, but
    # (-1) s_2 (-1) = s_2 differs from s_2 (-1) s_2 = -1.
    minus_one = _corrupt(rep, 1, lambda c, entries: ((c, Fraction(-1)),))
    assert check_relations(minus_one) == {"involution": True, "braid": False, "commutation": True}
    # s_1 -> s_3 keeps its braid with s_2 (s_3 s_2 s_3 = s_2 s_3 s_2),
    # but s_3 s_4 != s_4 s_3.
    as_s3 = _corrupt(rep, 1, lambda c, entries: rep.generators[2][c])
    assert check_relations(as_s3) == {"involution": True, "braid": True, "commutation": False}


def test_word_evaluation_against_dense_products():
    rng = random.Random(4)
    for lam in [(3, 1), (2, 2), (3, 2), (2, 2, 1)]:
        rep = build_rep(lam)
        n = rep.n
        for _ in range(25):
            word = [rng.randrange(1, n) for _ in range(rng.randrange(1, 9))]
            dense = dense_identity(rep.dim)
            for letter in word:
                dense = dense_product(dense, dense_from_columns(rep.dim, rep.generators[letter - 1]))
            assert dense_from_columns(rep.dim, evaluate_word(rep, word)) == dense


def test_traces_match_characters():
    rng = random.Random(11)
    for n in range(2, 7):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            for _ in range(20):
                word = [rng.randrange(1, n) for _ in range(rng.randrange(1, 2 * n))]
                expected = mn_value(lam, word_cycle_type(rep, word))
                assert word_trace(rep, word) == Fraction(expected)


def test_identity_word_trace_is_dimension():
    for lam in [(4,), (3, 2), (2, 2, 2)]:
        rep = build_rep(lam)
        assert word_trace(rep, []) == dimension(lam)


def test_spherical_relation_image_is_identity():
    for n in range(2, 7):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            image = dense_from_columns(rep.dim, spherical_relation_image(rep))
            assert image == dense_identity(rep.dim)


def test_entries_are_exact_fractions():
    rep = build_rep((3, 2))
    for i in range(1, rep.n):
        for row in dense_from_columns(rep.dim, rep.generators[i - 1]):
            for entry in row:
                assert isinstance(entry, Fraction)


def test_generator_index_bounds():
    rep = build_rep((2, 1))
    with pytest.raises(DomainError):
        evaluate_word(rep, [3])
    with pytest.raises(DomainError):
        evaluate_word(rep, [0])


def test_single_row_and_column_are_one_dimensional():
    top = build_rep((4,))
    assert top.dim == 1 and all(
        dense_from_columns(1, top.generators[i - 1])[0][0] == 1 for i in range(1, 4))
    sign = build_rep((1, 1, 1, 1))
    assert sign.dim == 1 and all(
        dense_from_columns(1, sign.generators[i - 1])[0][0] == -1 for i in range(1, 4))
