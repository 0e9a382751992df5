import random
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import (
    corrupted,
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


def _scalar(rep, x):
    """The arrays of the letter x times the identity: a[c] = x, no partners."""
    return (x,) * rep.dim, tuple(range(rep.dim)), (0,) * rep.dim


def _first_pair(arrays):
    """The first column c of a letter's arrays with a partner row other than c."""
    return next(c for c, r in enumerate(arrays[1]) if r != c)


def test_check_relations_flags_corrupted_generators():
    rep = build_rep((3, 2))
    # Swapping 1/d and beta in one two-entry column of s_2 breaks s_2^2 = 1.
    a, _, b = rep.arrays[1]
    target = _first_pair(rep.arrays[1])
    broken = corrupted(rep, 2, a={target: b[target]}, b={target: a[target]})
    assert check_relations(broken)["involution"] is False
    assert spherical_relation_image(broken) != tuple(((c, 1),) for c in range(broken.dim))
    # s_1 -> -1 squares to 1 and commutes with everything, but
    # (-1) s_2 (-1) = s_2 differs from s_2 (-1) s_2 = -1.
    minus_one = corrupted(rep, 1, *_scalar(rep, -rep.denominator))
    assert check_relations(minus_one) == {"involution": True, "braid": False, "commutation": True}
    # s_1 -> s_3 keeps its braid with s_2 (s_3 s_2 s_3 = s_2 s_3 s_2),
    # but s_3 s_4 != s_4 s_3.
    as_s3 = corrupted(rep, 1, *rep.arrays[2])
    assert check_relations(as_s3) == {"involution": True, "braid": True, "commutation": False}


def test_malformed_arrays_are_domain_errors():
    # n - 1 letters, each three tuples of dim ints, every partner a row of the
    # basis: a partner outside 0..dim-1 would index past the arrays, or from
    # their end.
    rep = build_rep((2, 1))
    a, o, b = rep.arrays[0]
    for bad in [lambda: replace(rep, arrays=rep.arrays[:-1]),
                lambda: replace(rep, arrays=rep.arrays + rep.arrays[:1]),
                lambda: corrupted(rep, 1, a=a + (0,)),
                lambda: corrupted(rep, 2, b=rep.arrays[1][2][:-1]),
                lambda: replace(rep, arrays=((list(a), o, b),) + rep.arrays[1:]),
                lambda: corrupted(rep, 1, a={0: Fraction(rep.denominator)}),
                lambda: corrupted(rep, 1, o={0: rep.dim}),
                lambda: corrupted(rep, 1, o={0: 7}),
                lambda: corrupted(rep, 1, o={0: -1})]:
        with pytest.raises(DomainError, match="needs n - 1 letters"):
            bad()
    assert corrupted(rep, 1, o={0: 1}).arrays[0][1] == (1,) + o[1:]


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
    """One seeded corruption of one letter of rep: the letter and the entries of its arrays that change."""
    n, dim = rep.n, rep.dim
    i = rng.randrange(1, n)
    a, o, b = rep.arrays[i - 1]
    pairs = [c for c in range(dim) if o[c] != c]
    kind = rng.choice(["moved", "swapped", "letter", "shuffled", "partners", "paired"]
                      if pairs else ["moved", "letter"])
    if kind == "moved":
        target = rng.randrange(dim)
        delta = rng.choice([-2, -1, 1, 2])
        if rng.randrange(2 if target in pairs else 1):
            return i, {"b": {target: b[target] + delta}}
        return i, {"a": {target: a[target] + delta}}
    if kind == "swapped":
        target = rng.choice(pairs)
        return i, {"a": {target: b[target]}, "b": {target: a[target]}}
    if kind == "letter":
        other = rng.choice([j for j in range(1, n) if j != i] or [i])
        return i, dict(zip("aob", rep.arrays[other - 1]))
    # The partner rows of the two-entry columns, permuted: among all of them
    # ("shuffled"); among columns with the same two values ("partners"), which
    # keeps every coefficient; or, keeping the partner map an involution, by
    # re-pairing the pairs that agree on their values and on the diagonal of
    # a neighbouring letter ("paired"), so that every braid path with that
    # letter meets the same coefficients and only the rows move.
    neighbour = rep.arrays[rng.choice([j for j in (i - 1, i + 1) if 1 <= j < n] or [i]) - 1][0]
    values = {c: (a[c], b[c], neighbour[c]) for c in pairs}
    groups = {}
    for c in pairs:
        r = o[c]
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
    return i, {"o": partner}


def test_array_verdicts_are_the_literal_verdicts_on_seeded_corruptions():
    rng = random.Random(45)
    shapes = [lam for n in range(3, 7) for lam in partitions_of(n) if dimension(lam) > 1]
    verdicts = set()
    for _ in range(480):
        rep = build_rep(rng.choice(shapes))
        i, changes = _corruptions(rng, rep)
        broken = corrupted(rep, i, **changes)
        expected = literal_relations(broken)
        assert check_relations(broken) == expected, broken
        verdicts.add(tuple(expected.values()))
    assert len(verdicts) >= 5


def test_only_the_literal_route_proves_an_involution_whose_partners_do_not_pair_up():
    # Column c becomes D v_c + b v_c' and column c' becomes -D v_c'. The
    # partner of c' is c' itself, so the array test fails; yet
    # (D s)^2 v_c = D^2 v_c + (b D - D b) v_c' = D^2 v_c, so s^2 = 1 holds.
    rep = build_rep((3, 2))
    c = _first_pair(rep.arrays[1])
    partner = rep.arrays[1][1][c]
    d = rep.denominator
    broken = corrupted(rep, 2, a={c: d, partner: -d}, o={partner: partner}, b={partner: 0})
    assert not seminormal._involution_holds(broken.arrays[1], d * d)
    assert check_relations(broken)["involution"] is True


def test_a_braid_whose_paths_meet_equal_coefficients_on_other_rows_fails():
    # Two pairs of s_5 on (3,2,1) with the same values, and the same s_4
    # diagonal where s_4 has a partner too, trade partners. s_5 still squares
    # to 1, and every path of s_4 s_5 s_4 and s_5 s_4 s_5 meets the
    # coefficients it met before; only the rows of the last path group
    # differ, so the braid fails.
    rep = build_rep((3, 2, 1))
    (a, o, b), (na, no, _) = rep.arrays[4], rep.arrays[3]
    groups = {}
    for c in range(rep.dim):
        if o[c] != c and no[c] != c and c < (r := o[c]):
            groups.setdefault((a[c], b[c], na[c], na[r]), []).append((c, r))
    (c1, r1), (c2, r2) = next(group for group in groups.values() if len(group) > 1)[:2]
    broken = corrupted(rep, 5, o={c1: r2, r2: c1, c2: r1, r1: c2})
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
    # Sound builds give a partner row other than c wherever b[c] != 0; a
    # hand-made one may set o[c] = c with b[c] != 0. Every letter applied,
    # the first included, then adds both entries into row c:
    # s_1 v_0 = 2 v_0, and [1, 1] is the square of [1].
    rep = build_rep((2, 1))
    doubled = corrupted(rep, 1, a={0: rep.denominator}, o={0: 0}, b={0: rep.denominator})
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
    halved = corrupted(rep, 1, *_scalar(rep, rep.denominator // 2))
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
