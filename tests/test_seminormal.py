import random
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import (
    dense_from_columns,
    dense_identity,
    dense_product,
    oracle_last_letter_tableaux,
    oracle_seminormal_generator,
    oracle_syt_count,
)

from kronsec import seminormal
from kronsec.characters import mn_value
from kronsec.errors import ConsistencyError, DomainError
from kronsec.partitions import dimension, partitions_of
from kronsec.permutations import class_word, perm_of_word
from kronsec.seminormal import (
    _images,
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


def test_generators_match_the_tableau_position_rule_up_to_size_7():
    # build_rep reads content vectors; the oracle reads the positions of i and
    # i+1 in each tableau. Both must give the same s_i for every i.
    for n in range(2, 8):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            tabs = standard_tableaux(lam)
            for i in range(1, n):
                assert evaluate_word(rep, [i]) == oracle_seminormal_generator(tabs, i)


def _corrupt(rep, i, column):
    """rep with the integer columns of D s_i replaced by column(c, entries)."""
    columns = list(rep.columns)
    columns[i - 1] = tuple(column(c, entries) for c, entries in enumerate(columns[i - 1]))
    return replace(rep, columns=tuple(columns))


def test_check_relations_flags_corrupted_generators():
    rep = build_rep((3, 2))
    # Swapping 1/d and beta in one two-entry column of s_2 breaks s_2^2 = 1.
    target = next(c for c, entries in enumerate(rep.columns[1]) if len(entries) == 2)

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
    minus_one = _corrupt(rep, 1, lambda c, entries: ((c, -rep.denominator),))
    assert check_relations(minus_one) == {"involution": True, "braid": False, "commutation": True}
    # s_1 -> s_3 keeps its braid with s_2 (s_3 s_2 s_3 = s_2 s_3 s_2),
    # but s_3 s_4 != s_4 s_3.
    as_s3 = _corrupt(rep, 1, lambda c, entries: rep.columns[2][c])
    assert check_relations(as_s3) == {"involution": True, "braid": True, "commutation": False}


SOUND = {"involution": True, "braid": True, "commutation": True}


def literal_relations(rep):
    """The relations decided by multiplying each pair of words out, as integer images."""
    n = rep.n

    def holds(shorter, longer):
        lift = rep.denominator ** (len(longer) - len(shorter))
        return all(a == b for a, b in zip(_images(rep, shorter, lift), _images(rep, longer)))

    return {
        "involution": all(holds([], [i, i]) for i in range(1, n)),
        "braid": all(holds([i, i + 1, i], [i + 1, i, i + 1]) for i in range(1, n - 1)),
        "commutation": all(holds([i, j], [j, i]) for i in range(1, n) for j in range(i + 2, n)),
    }


def test_array_verdicts_are_the_literal_verdicts_up_to_size_9():
    for n in range(1, 10):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            assert check_relations(rep) == literal_relations(rep) == SOUND


def _corruptions(rng, rep):
    """One seeded corruption of one letter of rep: the letter and its new column function."""
    n, dim = rep.n, rep.dim
    i = rng.randrange(1, n)
    cols = rep.columns[i - 1]
    pairs = [c for c in range(dim) if len(cols[c]) == 2]
    kind = rng.choice(["moved", "swapped", "letter", "shuffled", "partners", "paired", "three"]
                      if pairs else ["moved", "letter", "three"])
    if kind == "moved":
        target = rng.randrange(dim)
        k = rng.randrange(len(cols[target]))
        delta = rng.choice([-2, -1, 1, 2])
        return i, lambda c, entries: entries if c != target else tuple(
            (r, v + delta if m == k else v) for m, (r, v) in enumerate(entries))
    if kind == "swapped":
        target = rng.choice(pairs)
        return i, lambda c, entries: entries if c != target else (
            (entries[0][0], entries[1][1]), (entries[1][0], entries[0][1]))
    if kind == "letter":
        other = rng.choice([j for j in range(1, n) if j != i] or [i])
        return i, lambda c, entries: rep.columns[other - 1][c]
    if kind == "three":
        target = rng.randrange(dim)
        extra = (rng.randrange(dim), rng.choice([0, 0, 1, -rep.denominator]))
        return i, lambda c, entries: entries if c != target else entries + (extra,)
    # The partner rows of the two-entry columns, permuted: among all of them
    # ("shuffled"); among columns with the same two values ("partners"), which
    # keeps every coefficient; or, keeping the partner map an involution, by
    # re-pairing the pairs that agree on their values and on the diagonal of
    # a neighbouring letter ("paired"), so that every braid path with that
    # letter meets the same coefficients and only the rows move.
    neighbour = rep.columns[rng.choice([j for j in (i - 1, i + 1) if 1 <= j < n] or [i]) - 1]
    values = {c: (cols[c][0][1], cols[c][1][1], neighbour[c][0][1]) for c in pairs}
    groups = {}
    for c in pairs:
        r = cols[c][1][0]
        if kind == "shuffled":
            groups.setdefault((), []).append((c, r))
        elif kind == "partners":
            groups.setdefault(values[c], []).append((c, r))
        elif c < r:
            groups.setdefault((values[c], values[r]), []).append((c, r))
    partner = {}
    for group in groups.values():
        rows = [r for _, r in group]
        rng.shuffle(rows)
        for (c, _), r in zip(group, rows):
            partner[c] = r
            if kind == "paired":
                partner[r] = c
    return i, lambda c, entries: entries if c not in partner else (entries[0], (partner[c], entries[1][1]))


def test_array_verdicts_are_the_literal_verdicts_on_seeded_corruptions():
    rng = random.Random(45)
    shapes = [lam for n in range(3, 7) for lam in partitions_of(n) if dimension(lam) > 1]
    verdicts = set()
    for _ in range(480):
        rep = build_rep(rng.choice(shapes))
        broken = _corrupt(rep, *_corruptions(rng, rep))
        expected = literal_relations(broken)
        assert check_relations(broken) == expected, broken
        verdicts.add(tuple(expected.values()))
    assert len(verdicts) >= 5


def test_only_the_literal_route_proves_an_involution_whose_partners_do_not_pair_up():
    # Column c becomes D v_c + b v_c' and column c' becomes -D v_c'. The
    # partner of c' is c' itself, so the array test fails; yet
    # (D s)^2 v_c = D^2 v_c + (b D - D b) v_c' = D^2 v_c, so s^2 = 1 holds.
    rep = build_rep((3, 2))
    c, partner = next((c, entries[1][0]) for c, entries in enumerate(rep.columns[1]) if len(entries) == 2)
    d = rep.denominator

    def lopsided(k, entries):
        if k == c:
            return ((c, d), entries[1])
        return ((partner, -d),) if k == partner else entries

    broken = _corrupt(rep, 2, lopsided)
    assert not seminormal._involution_holds(seminormal._coxeter_arrays(broken)[1], d * d)
    assert check_relations(broken)["involution"] is True


def test_a_braid_whose_paths_meet_equal_coefficients_on_other_rows_fails():
    # Two pairs of s_5 on (3,2,1) with the same values, and the same s_4
    # diagonal where s_4 has a partner too, trade partners. s_5 still squares
    # to 1, and every path of s_4 s_5 s_4 and s_5 s_4 s_5 meets the
    # coefficients it met before; only the rows of the last path group
    # differ, so the braid fails.
    rep = build_rep((3, 2, 1))
    cols, neighbour = rep.columns[4], rep.columns[3]
    groups = {}
    for c, entries in enumerate(cols):
        if len(entries) == 2 and len(neighbour[c]) == 2 and c < (r := entries[1][0]):
            key = (entries[0][1], entries[1][1], neighbour[c][0][1], neighbour[r][0][1])
            groups.setdefault(key, []).append((c, r))
    (c1, r1), (c2, r2) = next(group for group in groups.values() if len(group) > 1)[:2]
    partner = {c1: r2, r2: c1, c2: r1, r1: c2}
    broken = _corrupt(rep, 5, lambda c, entries: entries if c not in partner else (
        entries[0], (partner[c], entries[1][1])))
    assert check_relations(broken) == literal_relations(broken) == {
        "involution": True, "braid": False, "commutation": False}


def test_a_sound_build_multiplies_no_words_out(monkeypatch):
    calls = []
    monkeypatch.setattr(seminormal, "_images", lambda *args: calls.append(args) or _images(*args))
    assert check_relations(build_rep((4, 3, 2, 1))) == SOUND
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert check_relations(build_rep(lam)) == SOUND
    assert calls == []


def test_word_evaluation_against_dense_products():
    # Words up to length 2n, the empty word included, on every shape of size
    # at most 6, against dense Fraction products of the generators.
    rng = random.Random(4)
    for n in range(2, 7):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            gens = [dense_from_columns(rep.dim, evaluate_word(rep, [i])) for i in range(1, n)]
            for _ in range(8):
                word = [rng.randrange(1, n) for _ in range(rng.randrange(0, 2 * n + 1))]
                dense = dense_identity(rep.dim)
                for letter in word:
                    dense = dense_product(dense, gens[letter - 1])
                assert dense_from_columns(rep.dim, evaluate_word(rep, word)) == dense


def test_a_repeated_row_adds_up_on_the_first_letter_as_on_later_ones():
    # Sound builds never repeat a row in a column; a hand-made one may. The
    # first letter applied then reads the column as every later letter does,
    # summing the entries: s_1 v_0 = 2 v_0, and [1, 1] is the square of [1].
    rep = build_rep((2, 1))
    doubled = _corrupt(rep, 1, lambda c, entries: ((0, rep.denominator), (0, rep.denominator)) if c == 0 else entries)
    once = dense_from_columns(rep.dim, evaluate_word(doubled, [1]))
    assert once[0][0] == 2
    assert dense_from_columns(rep.dim, evaluate_word(doubled, [1, 1])) == dense_product(once, once)
    assert word_trace(doubled, [1, 1]) == sum(dense_product(once, once)[c][c] for c in range(rep.dim))


def test_results_are_fractions_at_the_edge():
    rep = build_rep((3, 2, 1))
    word = [1, 3, 2, 5, 4, 2]
    assert type(word_trace(rep, word)) is Fraction
    image = evaluate_word(rep, word)
    assert all(type(v) is Fraction for column in image for _, v in column)
    assert any(v.denominator > 1 for column in image for _, v in column)


def test_involution_holds_on_every_shape_up_to_size_6():
    # [i, i] against []: the sides differ in length, so the empty side is
    # lifted by D^2 before the integer images are compared.
    for n in range(2, 7):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            assert check_relations(rep)["involution"] is True
            identity = tuple(((c, 1),) for c in range(rep.dim))
            assert all(evaluate_word(rep, [i, i]) == identity for i in range(1, n))


def test_a_trace_that_is_not_an_integer_is_an_error():
    # s_1 -> (1/2) identity, D s_1 = (D // 2) identity: its trace 3/2 is no character value.
    rep = build_rep((3, 1))
    halved = _corrupt(rep, 1, lambda c, entries: ((c, rep.denominator // 2),))
    with pytest.raises(ConsistencyError, match="not an integer"):
        word_trace(halved, [1])


def test_traces_match_characters():
    rng = random.Random(11)
    for n in range(2, 7):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            for _ in range(20):
                word = [rng.randrange(1, n) for _ in range(rng.randrange(1, 2 * n))]
                expected = mn_value(lam, word_cycle_type(rep, word))
                assert word_trace(rep, word) == Fraction(expected)


def test_class_word_traces_are_the_literal_traces_up_to_size_8():
    # The relations hold, so the trace of a word depends only on its cycle
    # type: the class word's trace equals that of seeded random words of the
    # same type (the class word conjugated by a random word) and mn_value,
    # and the empty word of 1^n traces the dimension.
    rng = random.Random(23)
    for n in range(1, 9):
        for lam in partitions_of(n):
            rep = build_rep(lam)
            for mu in partitions_of(n):
                short = class_word(mu)
                trace = word_trace(rep, short)
                assert trace == mn_value(lam, mu)
                for _ in range(2):
                    w = [rng.randrange(1, n) for _ in range(rng.randrange(0, n))]
                    word = w + list(short) + w[::-1]
                    assert word_cycle_type(rep, word) == mu
                    assert word_trace(rep, word) == trace
            assert word_trace(rep, class_word((1,) * n)) == rep.dim


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
        for row in dense_from_columns(rep.dim, evaluate_word(rep, [i])):
            for entry in row:
                assert isinstance(entry, Fraction)


def test_generator_index_bounds():
    rep = build_rep((2, 1))
    with pytest.raises(DomainError):
        evaluate_word(rep, [3])
    with pytest.raises(DomainError):
        evaluate_word(rep, [0])


def test_letters_that_are_not_ints_are_domain_errors():
    # True is an int subclass but no letter; a float must not reach the column index.
    rep = build_rep((2, 1))
    for letter in (1.0, True, "1"):
        with pytest.raises(DomainError, match="not an int"):
            word_trace(rep, [letter])
        with pytest.raises(DomainError, match="not an int"):
            evaluate_word(rep, [2, letter])


def test_standard_tableaux_takes_only_partitions():
    # (True,) equals the cached key (1,), so the check must run before the cache is read.
    assert standard_tableaux([2, 1]) == standard_tableaux((2, 1))
    assert standard_tableaux((1,)) == (((1,),),)
    for bad in [(1, 2), (2, 0, 1), (True,), (2, 1.0)]:
        with pytest.raises(DomainError, match="partition parts"):
            standard_tableaux(bad)


def test_out_of_range_letters_are_domain_errors():
    with pytest.raises(DomainError, match="generator index"):
        perm_of_word(3, [3])
    with pytest.raises(DomainError, match="generator index"):
        word_cycle_type(build_rep((2, 1)), [0])


def test_single_row_and_column_are_one_dimensional():
    top = build_rep((4,))
    assert top.dim == 1 and all(
        dense_from_columns(1, evaluate_word(top, [i]))[0][0] == 1 for i in range(1, 4))
    sign = build_rep((1, 1, 1, 1))
    assert sign.dim == 1 and all(
        dense_from_columns(1, evaluate_word(sign, [i]))[0][0] == -1 for i in range(1, 4))
