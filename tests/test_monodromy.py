from itertools import combinations
from math import factorial
from types import SimpleNamespace

import pytest

import kronsec.monodromy as monodromy
import kronsec.permutations as permutations
from kronsec.errors import ConsistencyError, DomainError
from kronsec.monodromy import (
    CoefficientCircle,
    HalfTwist,
    base_with_integer_roots,
    defining_rep_decomposition,
    parse_loop_spec,
    parse_segment,
    spherical_word_check,
    standard_generator_loop,
    track_roots,
    word_loop,
)
from kronsec.permutations import compose, cycle_notation, identity_perm


def test_parse_segment_texts():
    assert parse_segment("half_twist(2)") == HalfTwist(2)
    circle = parse_segment("circle(1, 3/2)")
    assert isinstance(circle, CoefficientCircle)
    assert circle.index == 1
    with pytest.raises(DomainError):
        parse_segment("spiral(1)")
    with pytest.raises(DomainError):
        parse_segment("half_twist()")


def test_parse_loop_spec_requires_base_and_segments():
    with pytest.raises(DomainError):
        parse_loop_spec({"segments": ["half_twist(1)"]})
    with pytest.raises(DomainError):
        parse_loop_spec({"base": [1, 0, 1]})
    base, segs, tol = parse_loop_spec(
        {"base": [-1, 0, 1], "segments": ["half_twist(1)"], "tolerance": 1e-10}
    )
    assert len(segs) == 1 and tol == 1e-10


def test_base_with_integer_roots_is_monic_with_distinct_roots():
    for n in range(2, 7):
        coeffs = base_with_integer_roots(n)
        assert len(coeffs) == n + 1
        assert coeffs[-1] == 1


def test_single_half_twist_swaps_adjacent_roots():
    for n in (2, 3, 5):
        for i in range(1, n):
            loop = standard_generator_loop(n, i)
            expected = list(range(n))
            expected[i - 1], expected[i] = expected[i], expected[i - 1]
            assert loop.permutation == tuple(expected)


def test_far_generators_commute():
    a = word_loop(4, [1, 3]).permutation
    b = word_loop(4, [3, 1]).permutation
    assert a == b


def test_braid_relation_on_permutations():
    left = word_loop(3, [1, 2, 1]).permutation
    right = word_loop(3, [2, 1, 2]).permutation
    assert left == right == (2, 1, 0)


def test_word_composition_matches_permutation_product():
    # Tracking a two-letter word must compose the single-letter permutations
    # in path order: the second loop acts after the first.
    for word in ([1, 2], [2, 1], [1, 1], [2, 3, 1]):
        n = 4
        whole = word_loop(n, word).permutation
        acc = identity_perm(n)
        for letter in word:
            step = standard_generator_loop(n, letter).permutation
            acc = compose(step, acc)
        assert whole == acc


def test_spherical_relation_word_is_trivial():
    for n in (2, 3, 4, 5):
        check = spherical_word_check(n)
        assert check.identity
        assert check.loop.notation() == "()"


def test_full_circle_of_constant_coefficient_swaps_square_roots():
    # z^2 - c: dragging c once around the origin interchanges the two roots.
    loop = track_roots((-1, 0, 1), (CoefficientCircle(0, 1.0),))
    assert loop.permutation == (1, 0)
    assert cycle_notation(loop.permutation) == "(1 2)"


def test_circle_radius_must_match_base_coefficient():
    with pytest.raises(DomainError, match="radius"):
        track_roots((-1, 0, 1), (CoefficientCircle(0, 2.0),))


def test_step_halving_invariance():
    base = base_with_integer_roots(4)
    segs = (HalfTwist(2), HalfTwist(1), HalfTwist(3))
    coarse = track_roots(base, segs, max_step=1.0 / 16)
    fine = track_roots(base, segs, max_step=1.0 / 32)
    assert coarse.permutation == fine.permutation
    assert fine.refinement.steps > coarse.refinement.steps


def test_precision_floor_is_validated():
    with pytest.raises(DomainError):
        track_roots((-1, 0, 1), (HalfTwist(1),), precision_bits=20)


def test_defining_rep_decomposition_small():
    report = defining_rep_decomposition(3, seed=5)
    assert report.group_order == 6
    assert report.word_checks_ok
    assert report.decomposition == {(3,): 1, (2, 1): 1}
    assert report.seed == 5


def test_defining_rep_decomposition_never_closes_the_group(monkeypatch):
    def closure(*args, **kwargs):
        raise AssertionError("generated_group called")

    monkeypatch.setattr(permutations, "generated_group", closure)
    report = defining_rep_decomposition(4, sample_loops=1, seed=0)
    assert report.group_order == 24
    assert report.decomposition == {(4,): 1, (3, 1): 1}


def _tracked_as(monkeypatch, perms):
    """Make standard_generator_loop report the given permutations."""
    monkeypatch.setattr(monodromy, "standard_generator_loop",
                        lambda n, i, **kwargs: SimpleNamespace(permutation=perms[i - 1]))


def test_a_tracked_three_cycle_is_a_consistency_error(monkeypatch):
    _tracked_as(monkeypatch, [(1, 2, 0, 3), (0, 2, 1, 3), (0, 1, 3, 2)])
    with pytest.raises(ConsistencyError, match=r"generator 1 is \(1 2 3\), not a transposition"):
        defining_rep_decomposition(4, sample_loops=0)


def test_disconnected_tracked_transpositions_are_a_consistency_error(monkeypatch):
    # (1 2), (1 2), (3 4): transpositions, but roots {1, 2} and {3, 4} never meet.
    _tracked_as(monkeypatch, [(1, 0, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)])
    with pytest.raises(ConsistencyError, match=r"disconnected: \{1, 2\}, \{3, 4\}"):
        defining_rep_decomposition(4, sample_loops=0)


def test_connected_transpositions_are_exactly_the_generating_sets():
    # The theorem the generator check rests on, against the group closure:
    # every set of three transpositions of S_4.
    n = 4
    swaps = []
    for a, b in combinations(range(n), 2):
        p = list(range(n))
        p[a], p[b] = b, a
        swaps.append(tuple(p))
    for gens in combinations(swaps, n - 1):
        generates = len(permutations.generated_group(list(gens))) == factorial(n)
        try:
            monodromy._require_connected_transpositions(n, gens)
            connected = True
        except ConsistencyError:
            connected = False
        assert connected == generates, gens


def test_degenerate_base_rejected():
    with pytest.raises(DomainError):
        track_roots((1, 2, 1), (HalfTwist(1),))  # double root at -1
    with pytest.raises(DomainError):
        track_roots((1,), ())  # constant polynomial has no roots


def test_half_twist_index_range():
    with pytest.raises(DomainError, match="out of range"):
        track_roots((-1, 0, 1), (HalfTwist(2),))
