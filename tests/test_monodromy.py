import cmath
import math
import random
from fractions import Fraction
from itertools import combinations
from math import factorial
from types import SimpleNamespace

import mpmath
import pytest
from conftest import Overtime, within_seconds

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


def test_a_half_twist_on_a_random_base_swaps_its_pair_or_stops_typed():
    # Bases with tight root pairs, spread magnitudes and integer coefficients;
    # a half-twist must answer with its transposition, or refuse with a
    # precision or domain error, well inside its time bound.
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(3, 10)
        base = _fuzz_base(rng, trial % 4, n)
        i = rng.randint(1, n - 1)
        expected = list(range(n))
        expected[i - 1], expected[i] = expected[i], expected[i - 1]
        try:
            with within_seconds(5):
                assert track_roots(base, [HalfTwist(i)]).permutation == tuple(expected), (base, i)
        except (PrecisionError, DomainError):
            pass
        except Overtime:
            pytest.fail(f"half_twist({i}) on {base} ran past 5 s")


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
            grid = monodromy._Grid(bits=bits + rng.randrange(0, 80), scale=rng.randrange(-50, 51),
                                   newton_sq=0, separation_sq=0)
            assert monodromy._monic(coeffs0, grid) == _monic_by_fractions(coeffs0, grid)


def test_circle_radius_must_match_base_coefficient(monkeypatch):
    # The segments are checked before the base roots are isolated, and a
    # coefficient past the float range is compared without overflow.
    def no_isolation(*args, **kwargs):
        raise AssertionError("base roots were isolated")

    monkeypatch.setattr(monodromy, "_sorted_roots", no_isolation)
    for base in [(-1, 0, 1), (1, 0, 1), (-(10**400), 0, 1)]:
        with pytest.raises(DomainError, match="radius"):
            track_roots(base, [CoefficientCircle(0, 2.0)])


@pytest.mark.parametrize("bits", [53, 96, 1024])
def test_the_turn_is_exact_at_the_quarters_and_runs_counterclockwise(bits):
    one = 1 << bits
    quarters = [(one, 0), (0, one), (-one, 0), (0, -one), (one, 0)]
    assert [monodromy._turn(Fraction(j, 4), bits) for j in range(5)] == quarters
    points = [monodromy._turn(Fraction(j, 64), bits) for j in range(65)]
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
        track_roots(base_with_integer_roots(3), (HalfTwist(1),))


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
    # recognised, so mpmath isolates the same roots; half-twists read only
    # the roots, so both must track to the same permutation and step records.
    isolations = []
    polyroots = mpmath.polyroots
    monkeypatch.setattr(mpmath, "polyroots", lambda *a, **k: isolations.append(1) or polyroots(*a, **k))
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
