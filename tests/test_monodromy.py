import cmath
import math
import random
from fractions import Fraction
from itertools import combinations
from math import factorial
from types import SimpleNamespace

import mpmath
import pytest
from conftest import Overtime, spread_half_twist, within_seconds

import kronsec.intpoly as intpoly
import kronsec.monodromy as monodromy
import kronsec.permutations as permutations
from kronsec.errors import ConsistencyError, DomainError, PrecisionError
from kronsec.monodromy import (
    CoefficientCircle,
    HalfTwist,
    base_with_integer_roots,
    defining_rep_decomposition,
    parse_loop_spec,
    parse_segment,
    spherical_word_check,
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
    for n in range(2, 11):
        coeffs = base_with_integer_roots(n)
        assert len(coeffs) == n + 1
        assert coeffs[-1] == 1
        assert all(type(c) is int for c in coeffs)
        for root in range(1, n + 1):
            assert sum(c * root**i for i, c in enumerate(coeffs)) == 0


def test_single_half_twist_swaps_adjacent_roots():
    for n in (2, 3, 5):
        for i in range(1, n):
            loop = word_loop(n, [i])
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
            step = word_loop(n, [letter]).permutation
            acc = compose(step, acc)
        assert whole == acc


def test_spherical_relation_word_is_trivial():
    for n in (2, 3, 4, 5):
        check = spherical_word_check(n)
        assert check.identity
        assert cycle_notation(check.loop.permutation) == "()"


def test_full_circle_of_constant_coefficient_swaps_square_roots():
    # z^2 - c: dragging c once around the origin interchanges the two roots.
    loop = track_roots((-1, 0, 1), (CoefficientCircle(0, 1.0),))
    assert loop.permutation == (1, 0)
    assert cycle_notation(loop.permutation) == "(1 2)"


@pytest.mark.parametrize("base, segments, tolerance, expected", [
    pytest.param((1e-30, 0, 1), (CoefficientCircle(0, 1e-30),), 1e-20, (1, 0), id="roots-1e-15"),
    pytest.param((-1e30, 0, 1), (CoefficientCircle(0, 1e30), HalfTwist(1)), monodromy.DEFAULT_TOLERANCE,
                 (0, 1), id="roots-1e15"),
    # Roots j * 1e-13: a grid fixed in z alone would lose them to the
    # rounding of the constant coefficient.
    pytest.param((2.4e-51, -5e-38, 3.5e-25, -1e-12, 1), (HalfTwist(2),), monodromy.DEFAULT_TOLERANCE,
                 (0, 2, 1, 3), id="roots-j-1e-13"),
])
def test_roots_far_from_unit_size(base, segments, tolerance, expected):
    assert track_roots(base, segments, tolerance=tolerance).permutation == expected


def _fuzz_base(rng, family, n):
    """Ascending coefficients of a degree-n base from one of four families."""
    def disc(radius):
        return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))

    def turn():
        return cmath.exp(2j * math.pi * rng.random())

    if family == 0:
        return [disc(3) for _ in range(n)] + [1]
    if family == 1:
        return intpoly.from_roots([rng.choice([1e-2, 1, 1e2]) * turn() for _ in range(n)])
    if family == 2:
        c = disc(5)
        return intpoly.from_roots([c, c + 10.0 ** -rng.randint(3, 7) * turn()] + [disc(5) for _ in range(n - 2)])
    return [rng.choice([-1, 1]) * rng.randint(1, 20)] + [rng.randint(-20, 20) for _ in range(n - 1)] + [rng.choice([1, 2, 3])]


def _closed_and_continued(base, i, **kwargs):
    """The outcome of half_twist(i) on base in closed form and on the continued route: a permutation or an error."""
    outcomes = []
    for continued in (False, True):
        try:
            outcomes.append(track_roots(base, [HalfTwist(i)], continued=continued, **kwargs).permutation)
        except (PrecisionError, DomainError) as exc:
            outcomes.append(exc)
    return outcomes


def test_a_half_twist_on_a_random_base_swaps_its_pair_or_stops_typed():
    # Bases with tight root pairs, spread magnitudes and integer coefficients;
    # a half-twist must answer with its transposition, or refuse with a
    # precision or domain error, well inside its time bound. Wherever the
    # continued route answers, the closed form gives the same permutation.
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(3, 10)
        base = _fuzz_base(rng, trial % 4, n)
        i = rng.randint(1, n - 1)
        try:
            with within_seconds(5):
                closed, continued = _closed_and_continued(base, i)
        except Overtime:
            pytest.fail(f"half_twist({i}) on {base} ran past 5 s")
        for outcome in (closed, continued):
            assert isinstance(outcome, (PrecisionError, DomainError)) or outcome == _transposition(n, i), (base, i)
        if isinstance(continued, tuple):
            assert closed == continued, (base, i)


def test_the_closed_form_matches_the_continued_route_on_480_fuzz_half_twists():
    # _fuzz_base seeds 0-5, 40 trials each, continued at max_step 1/32 and
    # 0.1. Where the continued route answers, the closed form answers the
    # same; three of its precision errors here, on tight pairs of families 1
    # and 2, clear the closed-form path and answer with the transposition.
    answered_only_closed = 0
    for seed in range(6):
        rng = random.Random(seed)
        for trial in range(40):
            n = rng.randint(3, 10)
            base = _fuzz_base(rng, trial % 4, n)
            i = rng.randint(1, n - 1)
            closed = track_roots(base, [HalfTwist(i)]).permutation
            assert closed == _transposition(n, i), (seed, trial)
            for max_step in (1 / 32, 0.1):
                try:
                    continued = track_roots(base, [HalfTwist(i)], max_step=max_step, continued=True).permutation
                except PrecisionError:
                    answered_only_closed += 1
                    continue
                assert continued == closed, (seed, trial, max_step)
    assert answered_only_closed == 3


# half_twist(i) moves its pair a, b along [a, mid - D/4], the circle
# |z - mid| = |D|/4 and [mid + D/4, b], mid = (a + b) / 2, D = b - a. A
# still root strictly inside a segment piece would sort between a and b, so
# on a segment "on" is within the tolerance 2^-48, beside the piece's middle
# and 1/2 off the circle; 1.5 + 2.25i is on the circle of 0 and 1 + 4i
# exactly, its real part past 1 keeping the pair adjacent.
@pytest.mark.parametrize("roots, i, expected", [
    pytest.param([-(2.0**-50) + 0.5j, 0, 4j], 2, None, id="on-the-first-segment"),
    pytest.param([-(2.0**-46) + 0.5j, 0, 4j], 2, (0, 2, 1), id="off-the-first-segment"),
    pytest.param([0, 1 + 4j, 1.5 + 2.25j], 1, None, id="on-the-circle"),
    pytest.param([0, 1 + 4j, 1.5 + 2.3j], 1, (1, 0, 2), id="off-the-circle"),
    pytest.param([0, 4j, 2.0**-50 + 3.5j], 1, None, id="on-the-last-segment"),
    pytest.param([0, 4j, 2.0**-46 + 3.5j], 1, (1, 0, 2), id="off-the-last-segment"),
])
def test_a_still_root_on_the_half_twist_path_is_a_precision_error(roots, i, expected):
    base = intpoly.from_roots(roots)
    if expected is None:
        with pytest.raises(PrecisionError, match=rf"path of segment 0 \(half_twist\({i}\)\) comes within the "
                                                 "tolerance of a root; root collision suspected"):
            track_roots(base, [HalfTwist(i)])
    else:
        assert track_roots(base, [HalfTwist(i)]).permutation == expected


def test_continued_must_be_a_bool():
    with pytest.raises(DomainError, match="continued must be True or False, got 1"):
        track_roots((-1, 0, 1), [HalfTwist(1)], continued=1)


def test_every_isolated_base_root_lies_on_its_own_polyroots_root():
    # The oracle is mpmath.polyroots at 256 bits. Each root the tracker starts
    # from on a base other than prod(z - j), on all four fuzz families and on
    # spread bases, lies within tolerance/8 of one oracle root, a different
    # one for each, and the certified disc about each refined seed, on the
    # base's Gaussian-integer coefficients, holds an oracle root.
    tolerance = monodromy.DEFAULT_TOLERANCE
    rng = random.Random(31)
    bases = [_fuzz_base(rng, family, rng.randint(3, 10)) for family in range(4) for _ in range(3)]
    bases += [intpoly.from_roots(spread_half_twist(seed)[1]) for seed in range(6)]
    for base in bases:
        seeds = monodromy._seeds(base)
        grid = monodromy._grid(96, tolerance, seeds)
        roots = monodromy._refined(base, seeds, grid)
        _, pairs = intpoly.gaussian(base)
        discs = [intpoly.certified_root(pairs, s, max(grid.bits - grid.scale, 96)) for s in seeds]
        with mpmath.workprec(256):
            oracle = mpmath.polyroots([mpmath.mpc(c) for c in reversed(base)], maxsteps=100, extraprec=256)
            unit = mpmath.mpf(2) ** (grid.scale - grid.bits)
            nearest = []
            for x, y in roots:
                dists = [abs(mpmath.mpc(x, y) * unit - r) for r in oracle]
                nearest.append(min(range(len(oracle)), key=dists.__getitem__))
                assert dists[nearest[-1]] < tolerance / 8, base
            for (x, y), bits, (num, den) in discs:
                centre = mpmath.mpc(mpmath.mpf((x, -bits)), mpmath.mpf((y, -bits)))
                assert min(abs(centre - r) for r in oracle) <= mpmath.sqrt(mpmath.mpf(num) / den), base
        assert sorted(nearest) == list(range(len(oracle))), base
    # z^2 + 1 has U'(0) = 0: Newton cannot step from 0 on any rung.
    assert intpoly.certified_root([(1, 0), (0, 0), (1, 0)], 0j, 96) is None


def test_one_horner_pass_gives_the_value_and_the_derivative():
    # The pass certified_root evaluates U and U' with, against horner on U and on derivative(U).
    rng = random.Random(33)

    def gaussian_int(size):
        return rng.randint(-(2**size), 2**size), rng.randint(-(2**size), 2**size)

    for _ in range(200):
        pairs = [gaussian_int(rng.choice([3, 40, 200])) for _ in range(rng.randint(2, 14))]
        for q in (1, 1 << rng.randint(1, 120)):
            a, b = gaussian_int(rng.choice([2, 60, 180]))
            assert intpoly.horner_with_derivative(pairs, a, b, q) == (
                intpoly.horner(pairs, a, b, q), intpoly.horner(intpoly.derivative(pairs), a, b, q)), (pairs, a, b, q)


def _gap_sq_by_sets(roots, moving):
    """The set-and-generator definition of _gap_sq: the oracle for its loop."""
    moving = set(moving)
    return min((monodromy._dist_sq(roots[m], z)
                for m in moving for k, z in enumerate(roots) if k > m or k not in moving), default=math.inf)


def test_gap_sq_is_the_least_distance_from_a_moving_root():
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 9)
        size = rng.choice([3, 30, 120])
        roots = [(rng.randint(-(2**size), 2**size), rng.randint(-(2**size), 2**size)) for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            roots[rng.randrange(n)] = roots[rng.randrange(n)]  # a repeated root is a gap of 0
        for moving in (range(n), [rng.randrange(n)], rng.sample(range(n), rng.randint(0, n)), []):
            assert monodromy._gap_sq(roots, moving) == _gap_sq_by_sets(roots, moving), (roots, moving)
    assert monodromy._gap_sq([(0, 0), (3, 4)], []) == math.inf
    assert monodromy._gap_sq([(5, 5)], [0]) == math.inf


def _fuzz_half_twist(seed, trial):
    """The base and index of trial `trial` of a fuzz run seeded `seed`, as the fuzz test draws them."""
    rng = random.Random(seed)
    for family in range(trial + 1):
        n = rng.randint(3, 10)
        base = _fuzz_base(rng, family % 4, n)
        i = rng.randint(1, n - 1)
    return base, i


# Recorded with exact Fraction step parameters: every pinned half-twist halves
# its step, at max_step 1/32 = 2^-5 and at 0.1 = 3602879701896397 * 2^-55,
# whose halvings meet an odd numerator at once.
@pytest.mark.parametrize("seed, trial, max_step, permutation, stats", [
    (0, 1, 1 / 32, (0, 1, 2, 3, 5, 4, 6), (0.00390625, 45, 6)),
    (0, 1, 0.1, (0, 1, 2, 3, 5, 4, 6), (0.006249999999999973, 32, 10)),
    (0, 2, 1 / 32, (0, 2, 1), (6.103515625e-05, 74, 18)),
    (0, 2, 0.1, (0, 2, 1), (4.8828125e-05, 63, 22)),
    (0, 10, 1 / 32, (1, 0, 2), (3.814697265625e-06, 115, 28)),
    (0, 10, 0.1, (1, 0, 2), (3.0517578125e-06, 103, 31)),
    (3, 5, 1 / 32, (1, 0, 2, 3), (0.00390625, 43, 5)),
    (3, 5, 0.1, (1, 0, 2, 3), (0.003125, 38, 11)),
    (1, 26, 1 / 32, (0, 2, 1), (5.960464477539063e-08, 123, 37)),
])
def test_the_step_schedule_is_the_exact_rational_one(seed, trial, max_step, permutation, stats):
    base, i = _fuzz_half_twist(seed, trial)
    loop = track_roots(base, [HalfTwist(i)], max_step=max_step, continued=True)
    assert loop.permutation == permutation
    assert loop.refinement == monodromy.StepStats(*stats)


def test_a_step_floor_message_keeps_its_exact_t():
    base, i = _fuzz_half_twist(1, 26)
    with pytest.raises(PrecisionError) as caught:
        track_roots(base, [HalfTwist(i)], max_step=0.1, continued=True)
    assert str(caught.value) == ("step size fell below the floor near t=0.000000 in segment 0 (half_twist(2)); "
                                 "root collision suspected")


def _refused_at_the_end(monkeypatch, refusals):
    """Make intpoly.newton refuse the first `refusals` tries whose step ends at t = 1."""
    path, newton = monodromy._half_twist_path, intpoly.newton
    at_end, refused = [False], []

    def watched(*args):
        coeffs_at = path(*args)

        def at(num, den):
            at_end[0] = num == den
            return coeffs_at(num, den)

        return at

    def refusing(*args):
        if at_end[0] and len(refused) < refusals:
            refused.append(args)
            return None
        return newton(*args)

    monkeypatch.setattr(monodromy, "_half_twist_path", watched)
    monkeypatch.setattr(intpoly, "newton", refusing)


# With max_step 0.1 the last step of a segment is clipped to 1 - t, an odd
# numerator, so halving it doubles every numerator and the denominator first.
# Recorded with exact Fraction step parameters.
@pytest.mark.parametrize("refusals, max_step, stats", [
    (1, 0.1, (0.049999999999999975, 11, 1)),
    (2, 0.1, (0.024999999999999988, 12, 2)),
    (1, 1 / 32, (0.015625, 33, 1)),
    (2, 1 / 32, (0.0078125, 34, 2)),
])
def test_a_refused_clipped_step_halves_as_exact_rationals_do(monkeypatch, refusals, max_step, stats):
    _refused_at_the_end(monkeypatch, refusals)
    loop = word_loop(3, [1], max_step=max_step, continued=True)
    assert loop.permutation == (1, 0, 2)
    assert loop.refinement == monodromy.StepStats(*stats)


@pytest.mark.parametrize("max_step", [0.1, 1 / 32])
def test_a_clipped_step_refused_to_the_floor_names_t_and_the_precision(monkeypatch, max_step):
    _refused_at_the_end(monkeypatch, math.inf)
    with pytest.raises(PrecisionError) as caught:
        word_loop(3, [1], max_step=max_step, continued=True)
    assert str(caught.value) == ("step size fell below the floor near t=1.000000 in segment 0 (half_twist(1)); "
                                 "precision ran out at 96 bits")


def _floats(desc, bits):
    """The complex floats _track_segment hands the float start."""
    one = 1 << bits
    return [complex(x / one, y / one) for x, y in desc]


def test_the_float_start_keeps_a_start_beside_a_tight_pair():
    # Roots 1e-7 apart, as in fuzz family 2. Started 2^-24 off one of them,
    # float Newton would end nearer the other; Horner's rounding bound is
    # not clearly below their gap, so the start comes back unchanged.
    base = intpoly.from_roots([0.5 + 0.25j, 0.5 + 0.25j + 1e-7, -1.0, 2 - 1j])
    seeds = monodromy._seeds(base)
    grid = monodromy._grid(96, monodromy.DEFAULT_TOLERANCE, seeds)
    roots = monodromy._refined(base, seeds, grid)
    floats, one = _floats(monodromy._monic(base, grid), grid.bits), 1 << grid.bits
    x, y = roots[1]
    start = (x + (one >> 24), y + (one >> 25))
    gap_u = monodromy._gap_sq(roots, [1]) / (one * one)
    assert monodromy._float_start(floats, start, grid.bits, gap_u) == start
    # With no gap to keep, the same start moves, and lands nearer root 3 than root 2.
    moved = monodromy._float_start(floats, start, grid.bits, math.inf)
    assert monodromy._dist_sq(moved, roots[2]) < monodromy._dist_sq(moved, roots[1])


def test_the_float_start_keeps_a_start_at_a_zero_derivative():
    # z^2 + 1 at z = 0: P'(0) = 0.
    bits = 100
    desc = [(1 << bits, 0), (0, 0), (1 << bits, 0)]
    assert monodromy._float_start(_floats(desc, bits), (0, 0), bits, math.inf) == (0, 0)


def test_the_float_start_keeps_a_start_whose_first_step_is_converged():
    # A start 2^-60 from a root of prod(u - j/8): the first step is below 2^-50.
    bits = 150
    roots = [intpoly.fixed(j / 8, bits) for j in range(1, 6)]
    desc = [(1 << bits, 0)]
    for r in roots:
        desc = intpoly.times_linear(desc, r, bits)
    start = (roots[2][0] + (1 << bits - 60), roots[2][1])
    assert monodromy._float_start(_floats(desc, bits), start, bits, 1 / 64) == start


@pytest.mark.parametrize("precision_bits", [96, 4096])
def test_the_float_start_moves_a_rotating_start_nearer_its_root(precision_bits):
    # Mid-rotation of half_twist(2) on prod(z - j), j = 1..4, the moving pair
    # sits at 5/2 -+ i/4. A start 10^-2 off goes to within 2^-40 of the root
    # found by exact Newton; at 4096 bits the grid ints are far past the float range.
    roots0 = [1, 2, 3, 4]
    grid = monodromy._grid(precision_bits, monodromy.DEFAULT_TOLERANCE, roots0)
    root_bits = grid.bits - grid.scale
    base_roots = [intpoly.fixed(r, root_bits) for r in roots0]
    desc = monodromy._half_twist_path(2, base_roots, grid.bits)(1, 2)
    start = intpoly.fixed(complex(2.51, 0.26), root_bits)
    root = intpoly.newton(desc, start, grid.bits, grid.newton_sq)
    assert monodromy._dist_sq(root, intpoly.fixed(complex(2.5, 0.25), root_bits)) < 1 << 2 * (root_bits - 40)
    gap_u = monodromy._gap_sq(base_roots, [1, 2]) / (1 << 2 * grid.bits)
    moved = monodromy._float_start(_floats(desc, grid.bits), start, grid.bits, gap_u)
    assert monodromy._dist_sq(moved, root) < 1 << 2 * (grid.bits - 40)


@pytest.mark.parametrize("precision_bits", [96, 4096])
def test_a_lone_root_circles_at_any_precision(precision_bits):
    # One root has no gap to keep: the float start's gap is inf, which must
    # never be divided by a grid int past the float range.
    loop = track_roots((-1, 1), [CoefficientCircle(0, 1.0)], precision_bits=precision_bits)
    assert loop.permutation == (0,)


def _outcome(base, i, precision_bits):
    try:
        loop = track_roots(base, [HalfTwist(i)], precision_bits=precision_bits, continued=True)
    except PrecisionError as exc:
        return str(exc)
    return loop.permutation, loop.refinement


@pytest.mark.parametrize("precision_bits", [96, 192])
def test_the_float_start_changes_no_permutation_and_no_step_record(monkeypatch, precision_bits):
    # The float start only picks where exact Newton begins: with it and with
    # the predictor alone, fuzz half-twists of families 0-3 and spread bases
    # give the same permutations, StepStats and errors.
    cases = [_fuzz_half_twist(seed, trial) for seed in (0, 3) for trial in range(8)]
    cases += [(intpoly.from_roots(roots), i) for n, roots, i in map(spread_half_twist, (0, 2, 10))]
    float_start, moved = monodromy._float_start, []

    def counted(floats, z, bits, gap_u):
        out = float_start(floats, z, bits, gap_u)
        moved.append(out != z)
        return out

    monkeypatch.setattr(monodromy, "_float_start", counted)
    with_floats = [_outcome(base, i, precision_bits) for base, i in cases]
    assert sum(moved) > len(moved) // 4  # the float start does move starts here
    monkeypatch.setattr(monodromy, "_float_start", lambda floats, z, bits, gap_u: z)
    assert [_outcome(base, i, precision_bits) for base, i in cases] == with_floats


def _transposition(n, i):
    perm = list(range(n))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


# With moduli from 1e-4 to 1e4 on one grid the moving pair's derivative is
# so small that a unit of rounding moves it past the Newton target at 96
# bits. Seeds 0, 1, 36 and 76 once ended off every base root, a consistency
# error, and seed 10 in "root collision suspected". The closed form needs
# no Newton step: it answers at 96 bits what the continued route does at 192.
@pytest.mark.parametrize("seed", [0, 1, 10, 36, 76])
def test_spread_magnitudes_run_out_of_precision_at_96_bits_and_answer_at_192(seed):
    n, roots, i = spread_half_twist(seed)
    base = intpoly.from_roots(roots)
    with pytest.raises(PrecisionError) as caught:
        track_roots(base, [HalfTwist(i)], precision_bits=96, continued=True)
    assert str(caught.value).endswith(f"in segment 0 (half_twist({i})); precision ran out at 96 bits")
    answer = track_roots(base, [HalfTwist(i)], precision_bits=192, continued=True).permutation
    assert answer == _transposition(n, i)
    assert track_roots(base, [HalfTwist(i)], precision_bits=96).permutation == answer


@pytest.mark.parametrize("base", [
    (-(2**2200), 0, 1),
    (1, 0, -(2**2200)),
    (1e308, 0, 5e-324),
], ids=["roots-2-to-the-1100", "roots-2-to-the-minus-1100", "float-extremes"])
def test_base_roots_outside_the_float_range_are_a_precision_error(base):
    # Roots near 2^1100 or 1e316 have no float seeds, and roots near 2^-1100
    # would all be seeded 0.0, which no rung can part: either way a typed
    # error, never an OverflowError. (mpmath isolated the roots near 2^-1100,
    # and the base gap check called them a domain error.)
    with pytest.raises(PrecisionError, match="base roots did not converge"):
        track_roots(base, [HalfTwist(1)])


@pytest.mark.parametrize("roots", [
    [1j, 2j],
    [1 + 1j, -2, 3j],
    [0, 1 - 2j, -1 + 1j, 2],
], ids=["i-and-2i", "three-gaussian", "zero-and-three"])
def test_a_squarefree_gaussian_base_swaps_its_pair(roots):
    # intpoly.squarefree proves these bases squarefree over Z[i] before seeding.
    assert track_roots(intpoly.from_roots(roots), [HalfTwist(1)]).permutation == _transposition(len(roots), 1)


@pytest.mark.parametrize("roots", [[1, 2j], [1 + 1j, -2, 3j]], ids=["one-and-2i", "three-gaussian"])
def test_a_repeated_seed_is_a_precision_error(monkeypatch, roots):
    # Both seeds refine onto one root, so two inclusion discs meet.
    seeds = intpoly.aberth_seeds
    monkeypatch.setattr(intpoly, "aberth_seeds", lambda coeffs: seeds(coeffs)[:1] * (len(coeffs) - 1))
    with pytest.raises(PrecisionError, match="base roots did not converge"):
        track_roots(intpoly.from_roots(roots), [HalfTwist(1)])


def test_a_tolerance_coarser_than_refined_roots_is_a_domain_error():
    # The roots +-i are certified apart at 96 bits, and only then floored
    # onto the grid of 2^33 that tolerance 1e40 gives, far inside the tolerance.
    with pytest.raises(DomainError, match="not resolvably squarefree"):
        track_roots((1, 0, 1), [HalfTwist(1)], tolerance=1e40)


def test_a_tolerance_coarser_than_the_integer_roots_is_a_domain_error():
    # 1e40 puts the grid above 2^-precision: the integer roots 1, 2 are read
    # onto it with a negative shift, floored, and then found not separated.
    with pytest.raises(DomainError, match="not resolvably squarefree"):
        track_roots((2, -3, 1), (HalfTwist(1),), tolerance=1e40)


@pytest.mark.parametrize("tolerance", [math.inf, math.nan])
def test_tolerance_must_be_positive_and_finite(tolerance):
    with pytest.raises(DomainError, match="positive and finite"):
        track_roots((-1, 0, 1), (HalfTwist(1),), tolerance=tolerance)
    with pytest.raises(DomainError, match="positive and finite"):
        parse_loop_spec({"base": [-1, 0, 1], "segments": ["half_twist(1)"], "tolerance": tolerance})


# 0, nan and inf once raised ZeroDivisionError, ValueError and OverflowError;
# -0.1 ended in a step floor error near t=-1.2; 0.3 and 1.0 returned the identity.
@pytest.mark.parametrize("max_step", [0.0, math.nan, math.inf, -0.1, 0.3, 1.0, True, "fast", None])
def test_max_step_must_be_a_positive_number_at_most_an_eighth(max_step):
    with pytest.raises(DomainError, match="max_step must be"):
        word_loop(3, [1], max_step=max_step)


def _mpmath_newton(coeffs, z, target):
    """Reference: Newton on mpmath.polyval until the step is below target."""
    descending = coeffs[::-1]
    for _ in range(100):
        u, d = mpmath.polyval(descending, z, derivative=True)
        step = u / d
        z -= step
        if abs(step) < target:
            return z
    raise AssertionError("reference Newton did not converge")


def test_fixed_point_newton_agrees_with_an_mpmath_reference():
    rng = random.Random(14)
    tolerance = monodromy.DEFAULT_TOLERANCE
    for _ in range(24):
        n = rng.randrange(2, 15)
        scale = 2.0 ** rng.randrange(-30, 31)
        roots = []
        while len(roots) < n:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(z - r) > 0.2 for r in roots):
                roots.append(z)
        roots = [r * scale for r in roots]
        coeffs = [1]
        for r in roots:
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        with mpmath.workprec(96):
            coeffs0 = [mpmath.mpc(c) for c in coeffs]
            grid = monodromy._grid(96, tolerance, [mpmath.mpc(r) for r in roots])
            root_bits = grid.bits - grid.scale
            monic = monodromy._monic(coeffs0, grid)
        for r in roots:
            guess = mpmath.mpc(r + complex(0.01, 0.01) * scale)
            fixed = intpoly.newton(monic, intpoly.fixed(guess, root_bits), grid.bits, grid.newton_sq)
            assert fixed is not None
            with mpmath.workprec(256):
                reference = _mpmath_newton(coeffs0, guess, tolerance * 2.0**-60)
                tracked = mpmath.mpc(mpmath.mpf((fixed[0], -root_bits)), mpmath.mpf((fixed[1], -root_bits)))
                assert abs(tracked - reference) < tolerance


def _exact(x) -> Fraction:
    """x as a Fraction; an mpf through mpmath's own rational reader."""
    return Fraction(*mpmath.libmp.to_rational(x._mpf_)) if isinstance(x, mpmath.mpf) else Fraction(x)


def _monic_by_fractions(coeffs0, grid):
    """The base over its leading coefficient in u, floored from exact Fractions: the oracle for _monic."""
    lead_r, lead_i = _exact(coeffs0[-1].real), _exact(coeffs0[-1].imag)
    norm = lead_r * lead_r + lead_i * lead_i
    n = len(coeffs0) - 1
    out = []
    for k in range(n, -1, -1):
        cr, ci = _exact(coeffs0[k].real), _exact(coeffs0[k].imag)
        unit = Fraction(2) ** (grid.bits + grid.scale * (k - n)) / norm
        out.append((math.floor((cr * lead_r + ci * lead_i) * unit),
                    math.floor((ci * lead_r - cr * lead_i) * unit)))
    return out


def test_gaussian_is_exact_and_monic_floors_as_the_fraction_formula():
    big = 2**1100 - 3
    assert big.bit_length() == 1100
    with mpmath.workprec(1200):
        values = [0, -7, big, 0.0, -0.375, 2.0**-1074, 1e300, complex(-1.5, 2.0**-60), 0j,
                  mpmath.mpf(0), mpmath.mpf(-1) / 3, mpmath.mpf(big) * mpmath.mpf(2) ** -1500,
                  mpmath.mpc(-2.5, mpmath.mpf(1) / 7), mpmath.mpc(big, 0)]
    e, gauss = intpoly.gaussian(values)
    for z, (a, b) in zip(values, gauss):
        assert (Fraction(a, 2**e), Fraction(b, 2**e)) == (_exact(z.real), _exact(z.imag)), z
    assert any(a % 2 or b % 2 for a, b in gauss)  # e is the least common exponent
    assert intpoly.gaussian([3, 0.5j]) == (1, [(6, 0), (0, 1)])

    rng = random.Random(22)
    for bits in (96, 1024):
        for _ in range(40):
            n = rng.randrange(1, 10)

            def part():
                return mpmath.mpf((rng.getrandbits(bits) - (1 << bits - 1), rng.randrange(-bits - 40, 41 - bits)))

            with mpmath.workprec(bits):
                coeffs0 = [mpmath.mpc(part(), part() if rng.random() < 0.8 else 0) for _ in range(n + 1)]
            grid = monodromy._Grid(precision_bits=bits, bits=bits + rng.randrange(0, 80),
                                   scale=rng.randrange(-50, 51), newton_sq=0, separation_sq=0)
            assert monodromy._monic(coeffs0, grid) == _monic_by_fractions(coeffs0, grid)


def test_circle_radius_must_match_base_coefficient(monkeypatch):
    # The segments are checked before the base roots are isolated, and a
    # coefficient past the float range is compared without overflow.
    def no_isolation(*args, **kwargs):
        raise AssertionError("base roots were isolated")

    monkeypatch.setattr(intpoly, "aberth_seeds", no_isolation)
    for base in [(-1, 0, 1), (1, 0, 1), (-(10**400), 0, 1)]:
        with pytest.raises(DomainError, match="radius"):
            track_roots(base, [CoefficientCircle(0, 2.0)])


@pytest.mark.parametrize("bits", [53, 96, 1024])
def test_the_turn_is_exact_at_the_quarters_and_runs_counterclockwise(bits):
    one = 1 << bits
    quarters = [(one, 0), (0, one), (-one, 0), (0, -one), (one, 0)]
    assert [monodromy._turn(j, 4, bits) for j in range(5)] == quarters
    # The pair need not be reduced: t = 2j / 8 is the point at j / 4.
    assert [monodromy._turn(2 * j, 8, bits) for j in range(5)] == quarters
    points = [monodromy._turn(j, 64, bits) for j in range(65)]
    for x, y in points:
        # Each part is floored once from a point on the circle of radius 2^bits.
        assert abs(x * x + y * y - 4**bits) <= 2 ** (bits + 2)
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        assert x1 * y2 - y1 * x2 > 0


def test_grid_scale_is_the_magnitude_mpmath_gives():
    rng = random.Random(24)

    def part():
        return mpmath.mpf((rng.getrandbits(rng.randrange(1, 200)) - 2**80, rng.randrange(-400, 300)))

    roots = [1, -1, 7, 2**40, 2**40 - 1, 2**40 + 1, -(2**70), 0.5, 0.75, 2.0**-60, -3.1e-200, 1e300,
             complex(0, 2**-30), complex(3, -4), complex(-(2**20), 2**20 - 1)]
    with mpmath.workprec(200):
        roots += [mpmath.mpc(mpmath.mpf(2) ** 33, 0), mpmath.mpc(0, -mpmath.mpf(2) ** -33),
                  mpmath.mpc(mpmath.mpf(2) ** 33 + 1, 1), mpmath.mpc(1, mpmath.mpf(1) / 3)]
        for _ in range(200):
            kind = rng.randrange(4)
            x = part() if kind != 1 else 0
            y = part() if kind != 0 else 0
            roots.append(mpmath.mpc(x, y) if kind < 3 else rng.choice([1, -1]) * rng.getrandbits(300))
    tolerance = 2.0**-1070  # below every root, so the scale is the root's alone
    for r in roots:
        if r:
            assert monodromy._grid(96, tolerance, [r]).scale == int(mpmath.mag(r)), r


def test_step_halving_invariance():
    base = base_with_integer_roots(4)
    segs = (HalfTwist(2), HalfTwist(1), HalfTwist(3))
    coarse = track_roots(base, segs, max_step=1.0 / 16, continued=True)
    fine = track_roots(base, segs, max_step=1.0 / 32, continued=True)
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


def test_defining_rep_decomposition_never_closes_the_group(monkeypatch):
    def closure(*args, **kwargs):
        raise AssertionError("generated_group called")

    monkeypatch.setattr(permutations, "generated_group", closure)
    report = defining_rep_decomposition(4, sample_loops=1, seed=0)
    assert report.group_order == 24
    assert report.decomposition == {(4,): 1, (3, 1): 1}


def test_negative_sample_loops_is_a_domain_error_before_any_tracking(monkeypatch):
    def tracked(*args, **kwargs):
        raise AssertionError("a loop was tracked")

    monkeypatch.setattr(monodromy, "word_loop", tracked)
    with pytest.raises(DomainError, match="sample_loops must be nonnegative, got -3"):
        defining_rep_decomposition(2, sample_loops=-3)


def _tracked_as(monkeypatch, perms):
    """Make each one-letter generator loop report the given permutations."""
    monkeypatch.setattr(monodromy, "word_loop",
                        lambda n, word, **kwargs: SimpleNamespace(permutation=perms[word[0] - 1]))


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


def test_match_rejects_a_final_root_half_the_least_base_gap_away():
    base = [(0, 0), (10, 0), (30, 0)]
    assert monodromy._match([(10, 0), (4, 1), (30, 0)], base, 100) == (1, 0, 2)
    with pytest.raises(ConsistencyError, match="root tracked from base root 2 ends no nearer than half"):
        monodromy._match([(10, 0), (5, 0), (30, 0)], base, 100)


def test_two_final_roots_on_one_base_root_are_not_a_bijection(monkeypatch):
    monkeypatch.setattr(monodromy, "_track_segment",
                        lambda coeffs_at, moving, current, *rest: [current[0], current[0], current[2]])
    with pytest.raises(ConsistencyError, match="not a bijection"):
        track_roots(base_with_integer_roots(3), (HalfTwist(1),), continued=True)


def test_degenerate_base_rejected():
    with pytest.raises(DomainError):
        track_roots((1, 2, 1), (HalfTwist(1),))  # double root at -1
    with pytest.raises(DomainError):
        track_roots((1,), ())  # constant polynomial has no roots


def test_track_roots_takes_segment_values_only():
    with pytest.raises(DomainError, match="not a Segment"):
        track_roots((-1, 0, 1), ["half_twist(1)"])


def test_half_twist_index_range():
    with pytest.raises(DomainError, match="out of range"):
        track_roots((-1, 0, 1), (HalfTwist(2),))


@pytest.mark.parametrize("precision_bits", [53, 96])
def test_integer_root_base_gives_the_loop_isolation_gives(monkeypatch, precision_bits):
    # prod(z - j) starts from its exact roots 1..n. Twice that base is not
    # recognised, so its roots are seeded and refined onto the grid; half-twists
    # read only the roots, so both must track to the same permutation and step
    # records.
    isolations = []
    seeds = intpoly.aberth_seeds
    monkeypatch.setattr(intpoly, "aberth_seeds", lambda coeffs: isolations.append(1) or seeds(coeffs))
    rng = random.Random(17)
    for n in range(2, 9):
        for _ in range(2):
            word = [rng.randrange(1, n) for _ in range(rng.randrange(1, n + 1))]
            exact = word_loop(n, word, precision_bits=precision_bits)
            assert not isolations
            doubled = [2 * c for c in base_with_integer_roots(n)]
            assert track_roots(doubled, [HalfTwist(i) for i in word], precision_bits=precision_bits) == exact
            assert isolations == [1]
            isolations.clear()


@pytest.mark.parametrize("base, segments", [
    (base_with_integer_roots(3), [HalfTwist(1), HalfTwist(2)]),
    ((-1, 0, 1), [HalfTwist(1)]),
], ids=["integer-roots", "isolated"])
def test_base_may_be_a_one_shot_iterable(base, segments):
    assert track_roots((c for c in base), segments) == track_roots(base, segments)
