"""intpoly: isolate's refined seeds, each proven a root of its own or None; Horner's shift route and its
fixed-point route with a running error bound; Berlekamp-Massey and rational reconstruction; rational roots
by Hensel lifting."""

import random
from fractions import Fraction
from math import gcd, isqrt

import mpmath
from conftest import oracle_rank_mod_p, oracle_rational_roots

from kronsec import intpoly


def _pairs(ints):
    return [(c, 0) for c in ints]


def test_roots_nearer_than_the_target_are_parted_by_their_radii():
    # 1 and 1 + 2^-195 are a root of (t - 1)(2^195 t - 2^195 - 1) each. Their
    # centres at precision 192 are nearer than 2^(1 - 192), so a bound on the
    # centre gaps refused them; their discs are far smaller than that gap.
    a = 2**195
    pairs = _pairs([a + 1, -2 * a - 1, a])
    with mpmath.workprec(300):
        seeds = [mpmath.mpf(1) + mpmath.mpf(2) ** -250, mpmath.mpf(1) + mpmath.mpf(2) ** -195 - mpmath.mpf(2) ** -250]
    found = intpoly.isolate(pairs, seeds, 192)
    assert found is not None
    first, second = (Fraction(x, 1 << bits) for (x, _), bits, _ in found)
    assert abs(first - 1) < Fraction(1, 2**192) and abs(second - 1 - Fraction(1, a)) < Fraction(1, 2**192)
    assert abs(second - first) < Fraction(2, 2**192)


def test_a_stalled_refinement_is_none(monkeypatch):
    monkeypatch.setattr(intpoly, "newton", lambda *args: None)
    assert intpoly.isolate(_pairs([-2, 0, 1]), [1.4, -1.4], 96) is None


def test_the_triples_come_in_seed_order():
    pairs = _pairs([6, -5, -2, 1])  # (t + 2)(t - 1)(t - 3)
    for seeds in ([3.1, -2.2, 0.9], [0.9, 3.1, -2.2], [-2.2, 0.9, 3.1]):
        found = intpoly.isolate(pairs, seeds, 96)
        assert found == [intpoly.certified_root(pairs, s, 96) for s in seeds]
        assert [round(x / 2**bits) for (x, _), bits, _ in found] == [round(s) for s in seeds]


def test_discs_meet_by_their_own_radii_on_their_own_grids(monkeypatch):
    # The disc about 0 of radius 2^-10 on the grid of 2^-10, and one of
    # radius 2^-11 on the grid of 2^-11: tangent at the centre 3 * 2^-11,
    # which counts as meeting, and apart at 4 * 2^-11.
    for x, apart in ((3, False), (4, True)):
        triples = {0: ((0, 0), 10, (1, 2**20)), 1: ((x, 0), 11, (1, 2**22))}
        monkeypatch.setattr(intpoly, "certified_root", lambda pairs, z, bits: triples[z])
        found = intpoly.isolate([(-1, 0), (0, 0), (1, 0)], [0, 1], 8)
        assert found == ([triples[0], triples[1]] if apart else None)


def _hankel_rank(seq, k: int, p: int) -> int:
    """Rank mod p of the Hankel matrix with rows seq[i:i + k + 1], by the conftest elimination."""
    return oracle_rank_mod_p([seq[i:i + k + 1] for i in range(len(seq) - k)], p)


def _sequences(rng, n: int):
    """Length-(n + 1) sequences: moments sum_i w_i A_i^(n-m) B_i^m of small supports, the
    points (1 : 0) and (0 : 1) among them, the unit sequences at both ends, zeros and random."""
    points = [(1, 0), (0, 1)] + [(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
    support = rng.sample(points, rng.randint(1, 4))
    weights = [rng.choice([-2, -1, 1, 3]) for _ in support]
    yield [sum(w * a ** (n - m) * b**m for w, (a, b) in zip(weights, support)) for m in range(n + 1)]
    yield [sum(w * a ** (n - m) * b**m for w, (a, b) in zip(weights, ((1, 0), (0, 1)))) for m in range(n + 1)]
    yield [0] * n + [1]
    yield [1] + [0] * n
    yield [0] * (n + 1)
    yield [rng.randint(-3, 3) for _ in range(n + 1)]


def test_linear_complexity_gives_every_hankel_rank():
    # The Hankel matrices of n + 1 terms have characteristic degrees L and
    # n + 2 - L over any field, so the (n - k + 1) x (k + 1) one has rank
    # min(L, n + 2 - L, k + 1, n - k + 1); at 43 many moments vanish mod p.
    rng = random.Random(20261020)
    for p in (intpoly.SQUAREFREE_PRIME, 43):
        for _ in range(60):
            n = rng.randint(1, 16)
            for seq in _sequences(rng, n):
                length = intpoly.linear_complexity(seq, p)
                for k in range(n + 1):
                    assert min(length, n + 2 - length, k + 1, n - k + 1) == _hankel_rank(seq, k, p), (p, seq, k)
    assert intpoly.linear_complexity([0, 0, 0, 1], 43) == 4
    assert intpoly.linear_complexity([5, 0, 0, 0], 43) == 1
    assert intpoly.linear_complexity([43, 86, 0], 43) == 0


def test_the_connection_polynomial_satisfies_its_recurrence():
    # c = [1, c_1, ..., c_L] gives s_i + c_1 s_(i-1) + ... + c_L s_(i-L) = 0
    # mod p for every i >= L, at the lift prime too, and L is the length
    # linear_complexity reports.
    rng = random.Random(20261021)
    for p in (intpoly.SQUAREFREE_PRIME, intpoly.LIFT_PRIME, 43):
        for _ in range(40):
            n = rng.randint(1, 16)
            for seq in _sequences(rng, n):
                length, conn = intpoly.connection(seq, p)
                assert length == intpoly.linear_complexity(seq, p), (p, seq)
                assert len(conn) == length + 1 and conn[0] == 1, (p, seq, conn)
                assert all(0 <= c < p for c in conn), (p, seq, conn)
                for i in range(length, n + 1):
                    assert sum(c * seq[i - j] for j, c in enumerate(conn)) % p == 0, (p, seq, conn, i)
    assert intpoly.connection([0, 0, 0, 1], 43)[0] == 4
    assert intpoly.connection([5, 0, 0, 0], 43) == (1, [1, 0])
    assert intpoly.connection([43, 86, 0], 43) == (0, [1])
    assert intpoly.connection([1, 2, 4, 8, 16], 43) == (1, [1, 41])


def _small_fractions(m: int) -> dict[int, tuple[int, int]]:
    """u -> (a, b) for every a / b in lowest terms with |a|, b <= sqrt(m / 2), u = a / b mod m."""
    bound = isqrt(m // 2)
    return {a * pow(b, -1, m) % m: (a, b) for b in range(1, bound + 1) for a in range(-bound, bound + 1)
            if gcd(a, b) == 1}


def test_rational_reconstruction_finds_exactly_the_small_fractions():
    # At a small prime every residue is tried: the fractions within the
    # bound come back, and every other residue is None.
    for m in (43, 1009, 10007):
        small = _small_fractions(m)
        assert len(small) == sum(1 for b in range(1, isqrt(m // 2) + 1)
                                 for a in range(-isqrt(m // 2), isqrt(m // 2) + 1) if gcd(a, b) == 1), m
        for u in range(m):
            assert intpoly.rational(u, m) == small.get(u), (m, u)
    m = intpoly.LIFT_PRIME
    bound = isqrt(m // 2)
    assert 2 * bound * bound < m < 2 * (bound + 1) ** 2
    rng = random.Random(4911)
    cases = [(bound, bound), (-bound, bound), (bound, 1), (-bound, 1), (1, bound), (0, 1), (-1, 1), (6, 4)]
    cases += [(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(300)]
    cases += [(rng.randint(-2**20, 2**20), rng.randint(1, 2**20)) for _ in range(300)]
    for a, b in cases:
        x = Fraction(a, b)
        assert intpoly.rational(a * pow(b, -1, m) % m, m) == (x.numerator, x.denominator), (a, b)
    # Past the bound the answer is another fraction or None, never a / b.
    for a, b in ((bound + 1, 1), (1, bound + 2), (2**70 + 1, 3)):
        assert intpoly.rational(a * pow(b, -1, m) % m, m) != (a, b)


def _times_factors(u, factors):
    """U times each factor, all ascending integer coefficients."""
    for f in factors:
        u = [sum(u[i] * f[k - i] for i in range(len(u)) if 0 <= k - i < len(f)) for k in range(len(u) + len(f) - 1)]
    return u


def test_rational_roots_are_the_roots_the_oracle_tries():
    # Products of linear factors b t - a and of small quadratics and cubics,
    # some times t, against every a / b with a | u_0 and b | u_d. The first
    # cases pin the prime choice and the lift: 1 and 104 meet mod 103, 103
    # divides the leading coefficient of 103 t - 1, and 10007 / 9999 is as
    # large as max(|u_0|, |u_d|), so only a lift past 2 max(|u_0|, |u_d|)^2
    # reconstructs it. t^2 - 2, t^2 - 3 and t^2 + 1 have roots mod many
    # primes that lift to no rational root.
    rng = random.Random(5150)
    cases = [[-1, 1], [2, 3], [0, 1], [0, -2, 3], _times_factors([-1, 1], [[-104, 1]]), _times_factors([-1, 103], [[-2, 1]]),
             _times_factors([-10007, 9999], [[-1, -1, 1]]), _times_factors([-2, 0, 1], [[-3, 0, 1], [1, 0, 1], [-5, 2]])]
    for _ in range(200):
        factors = [[-rng.randint(-12, 12), rng.randint(1, 12)] for _ in range(rng.randint(0, 5))]
        factors += [[rng.randint(-9, 9) or 1 for _ in range(rng.choice([3, 4]))] for _ in range(rng.randint(0, 2))]
        factors += [[0, 1]] * (rng.random() < 0.3)
        cases.append(_times_factors([rng.choice([-3, -1, 1, 2])], factors))
    checked = 0
    for u in cases:
        if len(u) < 2 or not intpoly.squarefree(u):
            continue
        checked += 1
        roots, cofactor = intpoly.rational_roots(u)
        assert sorted(Fraction(a, b) for a, b in roots) == oracle_rational_roots(u), u
        assert all(b > 0 and gcd(a, b) == 1 for a, b in roots), u
        assert _times_factors(cofactor, [[-a, b] for a, b in roots]) == u, u
    assert checked > 160


def test_the_root_prime_keeps_the_degree_and_the_roots_apart():
    # 103 divides the leading coefficient of the first and makes 1 and 104
    # one double root of the second; 107 does neither.
    assert intpoly.ROOT_PRIME_START == 103
    assert intpoly.root_prime(_times_factors([-1, 103], [[-2, 1]])) == 107
    assert intpoly.root_prime(_times_factors([-1, 1], [[-104, 1]])) == 107
    assert intpoly.root_prime([-2, 0, 1]) == 103
    assert intpoly.roots_mod_p([-2, 0, 1], 103) == sorted(r for r in range(103) if (r * r - 2) % 103 == 0)


def _homogeneous_value(pairs, a: int, b: int, q: int) -> tuple[int, int]:
    """sum_i u_i (a + b i)^i q^(d - i), term by term on Gaussian integers (x, y) = x + y i."""
    d, total = len(pairs) - 1, (0, 0)
    for i, (cr, ci) in enumerate(pairs):
        x, y = cr * q ** (d - i), ci * q ** (d - i)
        for _ in range(i):
            x, y = x * a - y * b, x * b + y * a
        total = (total[0] + x, total[1] + y)
    return total


def test_the_shift_route_of_horner_is_the_multiply_route():
    # q = 2^s adds shifted coefficients; q = 0, the point (1 : 0), 1, odd
    # and negative q multiply. Every route gives the homogeneous value.
    rng = random.Random(46)
    for q in [0, 1, 2, 2**7, 2**100, 3, 45, -4, -1]:
        for _ in range(20):
            pairs = [(rng.randint(-9, 9), rng.choice([0, rng.randint(-9, 9)])) for _ in range(rng.randint(1, 9))]
            a, b = rng.randint(-2**40, 2**40), rng.choice([0, rng.randint(-50, 50)])
            value = _homogeneous_value(pairs, a, b, q)
            assert intpoly.horner(pairs, a, b, q) == value, (pairs, a, b, q)
            if len(pairs) > 1:
                assert intpoly.horner_with_derivative(pairs, a, b, q) == (
                    value, _homogeneous_value(intpoly.derivative(pairs), a, b, q)), (pairs, a, b, q)


def test_the_interval_horner_bounds_the_error_of_every_step():
    # Each step k is 2^bits S_k(z) within its error, S_k = sum_(l >= k) u_l z^(l-k),
    # against the exact homogeneous value q^(d-k) S_k(z) at q = 2^bits; for
    # |z| <= 1 and past it, with real and Gaussian coefficients up to 10^60.
    rng = random.Random(50)
    used = 0.0
    for _ in range(400):
        bits, d = rng.randint(1, 300), rng.randint(0, 30)
        pairs = [(rng.randint(-10**60, 10**60) >> rng.randint(0, 190), rng.choice([0, rng.randint(-10**20, 10**20)]))
                 for _ in range(d + 1)]
        grow = rng.choice([0, 0, 1, 3, 20])  # |z| up to about 2^grow
        z = (rng.randint(-(1 << bits + grow), 1 << bits + grow) >> (grow == 0), rng.choice([0, rng.randint(-(1 << bits), 1 << bits)]))
        steps = intpoly.interval_horner(pairs, z, bits)
        assert len(steps) == d + 1
        for k, (x, y, err) in zip(range(d, -1, -1), steps):
            vx, vy = _homogeneous_value(pairs[k:], *z, 1 << bits)
            q = 1 << bits * (d - k)
            off = (Fraction(vx << bits, q) - x) ** 2 + (Fraction(vy << bits, q) - y) ** 2
            assert off <= err * err, (pairs, z, bits, k)
            if err:
                used = max(used, float(off / err**2))
    assert used > 0.05, used  # the bound is not idle: some step errs by more than a fifth of it


def test_the_interval_horner_steps_of_a_monomial_are_its_powers():
    # w t^d gives 2^bits w z^j at step j, both parts floored: z = 1/2 on 2
    # bits, and the bound goes ceil(E |z|) + 2 = 2, 3, 4, 4.
    steps = intpoly.interval_horner([(0, 0)] * 4 + [(3, -1)], (2, 0), 2)
    assert [(x, y) for x, y, _ in steps] == [(12, -4), (6, -2), (3, -1), (1, -1), (0, -1)]
    assert [err for _, _, err in steps] == [0, 2, 3, 4, 4]
