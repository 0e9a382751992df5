import importlib.util
import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import mpmath
import pytest
from conftest import (
    oracle_apply_operator,
    oracle_catalecticant,
    oracle_has_repeated_root,
    oracle_power_sum_coeffs,
    oracle_rank_mod_p,
    oracle_rref,
)
from test_cli import _RANK_15_POINTS

from kronsec.apolarity import (
    _dehomogenize,
    add_forms,
    catalecticant,
    form,
    format_form,
    join_rank_check,
    kernel_dimension,
    min_apolar_degree,
    normalize_point,
    parse_form,
    power_form,
    sample_rank_k_instance,
    secant_membership,
    sylvester_decompose,
    vandermonde_rank,
)
from kronsec.errors import ConsistencyError, DomainError, PrecisionError
from kronsec.intpoly import SQUAREFREE_PRIME, coprime_mod_p, squarefree
from kronsec import apolarity, intpoly, ratmat


# --- forms and parsing --------------------------------------------------------


def test_parse_format_round_trip():
    f = parse_form("deg=3; coeffs=1,0,-2/3,1")
    assert f.degree == 3
    assert f.coeffs == (1, 0, Fraction(-2, 3), 1)
    assert parse_form(format_form(f)) == f


@pytest.mark.parametrize("bad", ["", "deg=3 coeffs=1,0,0,1", "deg=2; coeffs=1,2",
                                 "deg=0; coeffs=1", "deg=2; coeffs=0,0,0",
                                 "deg=1; coeffs=1,1/0"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(DomainError):
        parse_form(bad)


def test_power_form_expansion():
    f = power_form(2, 3, 4)
    assert f.coeffs == tuple(oracle_power_sum_coeffs(4, [(2, 3)], [1]))


def test_add_forms():
    p = form(2, [1, 0, 1])
    q = form(2, [-1, 0, -1])
    assert add_forms(p, q) is None
    r = add_forms(p, form(2, [0, 1, 0]))
    assert r.coeffs == (1, 1, 1)
    with pytest.raises(DomainError):
        add_forms(p, form(3, [1, 0, 0, 0]))


# --- catalecticants against direct differentiation -----------------------------


def test_catalecticant_rows_realize_the_apolarity_pairing():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n)
        coeffs = [rng.randrange(-5, 6) for _ in range(n + 1)]
        if not any(coeffs):
            coeffs[0] = 1
        p = form(n, coeffs)
        cat = catalecticant(p, k)
        q = [Fraction(rng.randrange(-4, 5)) for _ in range(k + 1)]
        applied = oracle_apply_operator(q, n, p.coeffs)
        for i in range(n - k + 1):
            row_dot = sum(cat[i][j] * q[j] for j in range(k + 1))
            assert row_dot == applied[i]


def test_catalecticant_shape_and_degree_bounds():
    p = form(5, [1, 2, 3, 4, 5, 6])
    cat = catalecticant(p, 2)
    assert len(cat) == 4 and len(cat[0]) == 3
    with pytest.raises(DomainError):
        catalecticant(p, 0)
    with pytest.raises(DomainError):
        catalecticant(p, 6)
    for k in (0, 6):
        with pytest.raises(DomainError):
            kernel_dimension(p, k)


def test_kernel_vectors_annihilate_the_form():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randrange(1, 4)
        n = rng.randrange(2 * k, 2 * k + 6)
        pts = []
        while len(pts) < k:
            cand = (rng.randrange(-6, 7), rng.randrange(0, 4))
            if cand == (0, 0):
                continue
            cand = normalize_point(*cand)
            if cand not in pts:
                pts.append(cand)
        weights = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k)]
        p = form(n, oracle_power_sum_coeffs(n, pts, weights))
        basis = ratmat.kernel_basis(catalecticant(p, k))
        assert basis, "constructed rank-k form must be annihilated in degree k"
        for vec in basis:
            assert all(v == 0 for v in oracle_apply_operator(vec, n, p.coeffs))


def test_membership_known_cases():
    cubic = parse_form("deg=3; coeffs=1,0,0,1")  # x^3 + y^3
    assert not secant_membership(cubic, 1)
    assert secant_membership(cubic, 2)
    assert kernel_dimension(cubic, 2) == 1
    assert min_apolar_degree(cubic) == 2


def test_membership_of_pure_power():
    p = power_form(3, -2, 7)
    assert secant_membership(p, 1)
    assert kernel_dimension(p, 1) == 1


def _closed_form_cases():
    for n in range(1, 6):
        for coeffs in itertools.product((-1, 0, 1), repeat=n + 1):
            if any(coeffs):
                yield form(n, coeffs)
    for n in range(1, 16):
        for i in range(n + 1):
            yield form(n, [int(j == i) for j in range(n + 1)])


def test_one_rank_gives_every_kernel_dimension():
    # Reference: one elimination per degree k, against the closed form
    # dim ker C_k = max(0, k-r+1) + max(0, k-n-1+r) from the single rank r.
    for p in _closed_form_cases():
        n = p.degree
        dims = [k + 1 - ratmat.rank(catalecticant(p, k)) for k in range(1, n + 1)]
        assert min_apolar_degree(p) == 1 + next(i for i, d in enumerate(dims) if d), p
        for k, dim in enumerate(dims, start=1):
            assert kernel_dimension(p, k) == dim, (p, k)
            assert secant_membership(p, k) == (dim > 0), (p, k)


# --- catalecticant ranks mod a prime, certified exactly ---------------------------

# A prime above every degree below, so no factorial in a catalecticant
# vanishes mod it, and small enough that it often loses a rank.
SMALL_PRIME = 43


def _product_of_powers(n: int, l1, l2, j: int) -> list[Fraction]:
    """Coefficients of l1^(n-j) l2^j for linear forms l = (a, b) meaning a x + b y."""
    a = oracle_power_sum_coeffs(n - j, [l1], [1])
    b = oracle_power_sum_coeffs(j, [l2], [1])
    return [sum(a[i] * b[m - i] for i in range(len(a)) if 0 <= m - i < len(b)) for m in range(n + 1)]


def _modular_fuzz_forms(seed: int):
    """Forms of degree 1-40: rank-k power sums, products l1^(n-j) l2^j, random
    coefficients with denominators, and a quarter of them scaled by the
    package prime, by its inverse or by SMALL_PRIME."""
    rng = random.Random(seed)
    points = [(a, b) for a in range(-9, 10) for b in range(5) if gcd(a, b) == 1]
    while True:
        n = rng.randint(1, rng.choice([12, 25, 40]))  # fewer of the costly oracle eliminations
        kind = rng.randrange(3)
        if kind == 0:
            pts = rng.sample(points, rng.randint(1, n // 2 + 1))
            coeffs = oracle_power_sum_coeffs(n, pts, [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in pts])
        elif kind == 1:
            coeffs = _product_of_powers(n, *rng.sample(points, 2), rng.randint(0, n))
        else:
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 10])) for _ in range(n + 1)]
        if rng.random() < 0.25:
            scale = rng.choice([SQUAREFREE_PRIME, Fraction(1, SQUAREFREE_PRIME), SMALL_PRIME])
            coeffs = [c * scale for c in coeffs]
        if any(coeffs):
            yield form(n, coeffs)


def _oracle_apolar_kernel(p):
    """(rank of C_mid, RREF kernel basis of C_r) from catalecticants built by differentiation."""
    n = p.degree
    r = len(oracle_rref(oracle_catalecticant(n, p.coeffs, max(1, n // 2)))[1])
    echelon, pivots = oracle_rref(oracle_catalecticant(n, p.coeffs, r))
    basis = []
    for fc in (c for c in range(r + 1) if c not in pivots):
        v = [Fraction(0)] * (r + 1)
        v[fc] = Fraction(1)
        for row, pc in zip(echelon, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return r, basis


def _middle_rank_mod_p(p, prime: int) -> int:
    """Rank mod prime of the middle catalecticant of p scaled to coprime integer coefficients."""
    scale = lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * scale) for c in p.coeffs]
    content = gcd(*ints)
    middle = oracle_catalecticant(p.degree, [c // content for c in ints], max(1, p.degree // 2))
    return oracle_rank_mod_p([[int(x) for x in row] for row in middle], prime)


def test_modular_ranks_and_kernels_match_the_oracle(monkeypatch):
    exact_ranks = []
    rank = ratmat.rank
    monkeypatch.setattr(ratmat, "rank", lambda a: exact_ranks.append(a) or rank(a))
    fallbacks = 0
    for p in itertools.islice(_modular_fuzz_forms(20261019), 300):
        want = _oracle_apolar_kernel(p)
        assert apolarity._apolar_kernel(p) == want, p
        assert min_apolar_degree(p) == want[0], p
        assert not exact_ranks, p  # the package prime loses no rank on these forms
        with monkeypatch.context() as m:
            m.setattr(intpoly, "SQUAREFREE_PRIME", SMALL_PRIME)
            assert apolarity._apolar_kernel(p) == want, p
            assert min_apolar_degree(p) == want[0], p
        # Every C_k is a Hankel matrix of one sequence with its rows scaled,
        # and over any field the middle rank of such a sequence fixes all
        # the others. So the exact route runs exactly when the prime loses
        # the middle rank, and then gives the oracle's answer.
        assert bool(exact_ranks) == (_middle_rank_mod_p(p, SMALL_PRIME) < want[0]), p
        fallbacks += bool(exact_ranks)
        exact_ranks.clear()
    assert fallbacks >= 5, fallbacks


def test_the_sylvester_path_eliminates_only_the_independent_rows(monkeypatch):
    def no_rank(a):
        raise AssertionError("exact rank on the modular path")

    seen = []
    eliminate = ratmat._eliminate
    monkeypatch.setattr(ratmat, "rank", no_rank)
    monkeypatch.setattr(ratmat, "_eliminate", lambda m, reduced: seen.append(len(m)) or eliminate(m, reduced))
    weights = [(-1) ** i * (1 + i % 4) for i in range(15)]
    cert = sylvester_decompose(form(40, oracle_power_sum_coeffs(40, _RANK_15_POINTS, weights)))
    assert cert.rank == 15 and cert.support_exact
    assert seen and max(seen) <= 15
    # A generic form has a middle catalecticant of full rank mod p, which
    # proves its rank with no exact elimination at all.
    seen.clear()
    rng = random.Random(60)
    assert min_apolar_degree(form(60, [rng.randint(-9, 9) for _ in range(61)])) == 31
    assert seen == []


def test_the_package_prime_is_not_the_benchmark_oracle_prime():
    # perfbench checks apolar degrees mod its own prime; sharing it would let
    # one unlucky form fool the package and its check alike.
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    assert SQUAREFREE_PRIME != oracles.MERSENNE_61


# --- Sylvester certificates -----------------------------------------------------


def _support_set(cert):
    return {(int(pt.alpha), int(pt.beta)) for pt in cert.support}


def test_sylvester_on_sum_of_two_cubes():
    cert = sylvester_decompose(parse_form("deg=3; coeffs=1,0,0,1"))
    assert cert.rank == 2 and cert.annihilator.degree == 2
    assert cert.support_exact
    assert cert.annihilator.coeffs == (0, 1, 0)  # the operator xy
    assert _support_set(cert) == {(1, 0), (0, 1)}
    assert cert.coefficients == (1, 1)
    assert cert.error_bound is None


def test_sylvester_jump_branch_for_x_y_squared():
    # xy^2: kernel at k=2 is spanned by x^2 alone, which is not squarefree,
    # so the rank jumps to n - k + 2 = 3 and no support exists.
    cert = sylvester_decompose(parse_form("deg=3; coeffs=0,1/3,0,0"))
    assert cert.annihilator.degree == 2
    assert cert.rank == 3
    assert cert.support is None and cert.coefficients is None
    assert cert.error_bound is None


def test_sylvester_rank_one():
    cert = sylvester_decompose(parse_form("deg=4; coeffs=16,96,216,216,81"))
    assert cert.rank == 1
    assert _support_set(cert) == {(2, 3)}
    assert cert.coefficients == (1,)


def test_sylvester_reconstructs_the_form_exactly(monkeypatch):
    def no_solve(*args):
        raise AssertionError("exact coefficients need no linear solve")

    monkeypatch.setattr(ratmat, "solve", no_solve)
    rng = random.Random(9)
    cases = []
    for _ in range(15):
        n = rng.randrange(5, 12)
        k = rng.randrange(1, (n + 1) // 2 + 1)
        sample = sample_rank_k_instance(n, k, seed=rng.randrange(10**6))
        cases.append((n, sample.points, sample.coefficients))
    cases += [
        (3, [(1, 0), (0, 1)], [1, 1]),  # x^3 + y^3
        (40, _RANK_15_POINTS, [(-1) ** i * (1 + i % 4) for i in range(15)]),
        # negative points and a prime denominator just below DENOMINATOR_BOUND
        (7, [(-3, 1), (-5, 999_999_999_989), (2, 7)], [2, -1, Fraction(5, 3)]),
        (5, [(-2, 3)], [Fraction(7, 3)]),
        (6, [(1, 0)], [-4]),
    ]
    for n, points, weights in cases:
        f = form(n, oracle_power_sum_coeffs(n, points, weights))
        cert = sylvester_decompose(f)
        assert cert.rank == len(points) and cert.support_exact
        support = [(int(p.alpha), int(p.beta)) for p in cert.support]
        assert dict(zip(support, cert.coefficients)) == dict(zip(points, weights))
        assert tuple(oracle_power_sum_coeffs(n, support, cert.coefficients)) == f.coeffs


def test_exact_coefficients_check_the_rebuilt_form():
    # The support {(1:0), (0:1)} of x^3 + y^3 cannot carry x^3 + y^3 + xy^2.
    cert = sylvester_decompose(form(3, [1, 0, 0, 1]))
    _, ints = _dehomogenize(cert.annihilator.coeffs, 2)
    with pytest.raises(ConsistencyError):
        apolarity._solve_coefficients_exact(cert.support, ints, form(3, [1, 0, 1, 1]))


def test_sylvester_irrational_support_is_certified_numerically():
    # (x + r y)^4 + (x - r y)^4 with r^2 = 2 has rational coefficients but
    # no rational support; the annihilator x^2 - 2y^2 is still exact.
    p = form(4, [2, 0, 24, 0, 8])
    cert = sylvester_decompose(p)
    assert cert.rank == 2
    assert cert.annihilator.coeffs == (Fraction(-2), Fraction(0), Fraction(1))
    assert not cert.support_exact
    assert cert.error_bound is not None and cert.error_bound < 1e-20
    values = sorted(complex(pt.alpha / pt.beta).real for pt in cert.support)
    assert abs(values[0] + 2 ** -0.5) < 1e-10
    assert abs(values[1] - 2 ** -0.5) < 1e-10


def test_sylvester_wide_kernel_picks_a_squarefree_element():
    # For x^2 + y^2 the degree-2 kernel is two dimensional; the squarefree
    # member xy of the pencil gives the rational decomposition x^2 + y^2.
    cert = sylvester_decompose(form(2, [1, 0, 1]))
    assert cert.rank == 2 and cert.annihilator.degree == 2
    assert cert.support_exact
    assert _support_set(cert) == {(1, 0), (0, 1)}
    assert cert.coefficients == (1, 1)


def test_sylvester_complex_support():
    # 2x^3 - 6xy^2 is the real part of 2(x + iy)^3; its annihilator
    # X^2 + Y^2 has the conjugate roots (1 : i) and (1 : -i).
    cert = sylvester_decompose(form(3, [2, 0, -6, 0]))
    assert cert.rank == 2
    assert not cert.support_exact
    imags = sorted(complex(pt.alpha / pt.beta).imag for pt in cert.support)
    assert abs(imags[0] + 1) < 1e-10 and abs(imags[1] - 1) < 1e-10


LINEAR_FORMS = [(a, b) for a in range(-3, 4) for b in range(4) if a or b]


def _fuzz_forms(seed: int):
    """Random forms of degree 2-12 with coefficients in [-3, 3], and about one
    in four times a product l1^(n-j) l2^j of powers of two linear forms, whose
    annihilator is often not squarefree (the rank n - k + 2 branch)."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 12)
        coeffs = [rng.randint(-3, 3) for _ in range(n + 1)]
        if any(coeffs):
            yield form(n, coeffs)
        if rng.random() < 0.25:
            l1, l2 = rng.sample(LINEAR_FORMS, 2)
            if l1[0] * l2[1] != l1[1] * l2[0]:
                yield form(n, _product_of_powers(n, l1, l2, rng.randint(1, n - 1)))


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpc(x)


def test_sylvester_fuzz_against_the_oracles():
    forms = list(itertools.islice(_fuzz_forms(20261018), 150))
    for p in forms:
        n = p.degree
        cert = sylvester_decompose(p)
        k = cert.annihilator.degree
        ann = list(cert.annihilator.coeffs)
        assert not any(oracle_apply_operator(ann, n, p.coeffs)), p
        assert (cert.support is None) == oracle_has_repeated_root(ann), p
        assert cert.rank == (n - k + 2 if cert.support is None else k), p
        if cert.support is None:
            continue
        points = [(pt.alpha, pt.beta) for pt in cert.support]
        if cert.support_exact:
            assert oracle_power_sum_coeffs(n, points, cert.coefficients) == list(p.coeffs), p
            continue
        with mpmath.workprec(256):
            for j, target in enumerate(p.coeffs):
                rebuilt = sum(
                    _mp(c) * mpmath.binomial(n, j) * _mp(al) ** (n - j) * _mp(be) ** j
                    for (al, be), c in zip(points, cert.coefficients)
                )
                assert abs(rebuilt - _mp(target)) <= 2 * cert.error_bound, p


_P = SQUAREFREE_PRIME


@pytest.mark.parametrize("q", [
    [1, 0, -_P],
    [1, -1, -_P, _P],
    [_P, 1, 1],
    [_P * _P, 2 * _P, 1],
    [1, -2, 1],
    [0, _P, 3, -1],
    [_P, 0, 0, 0],
], ids=["t2-minus-p", "times-t-minus-1", "p-divides-lc", "square-p-divides-lc",
        "square", "root-at-infinity", "cube-at-zero"])
def test_squarefree_without_a_modular_certificate_runs_the_exact_test(q):
    # Each U here is either divisible by p in its leading coefficient or has
    # a repeated root mod p, so only the remainder sequence over Z decides.
    coeffs = [Fraction(c) for c in q]
    at_inf, ints = _dehomogenize(coeffs, len(q) - 1)
    assert not coprime_mod_p(ints)
    assert (at_inf <= 1 and squarefree(ints)) == (not oracle_has_repeated_root(coeffs))


def test_modular_certificate_never_claims_a_repeated_root_squarefree():
    rng = random.Random(31)
    certified = 0
    for _ in range(300):
        q = [1]
        for _ in range(rng.randint(1, 5)):
            a, b = rng.choice([(1, 0), (0, 1)] + [(rng.randint(-4, 4), rng.randint(1, 4))])
            for _ in range(rng.choice([1, 1, 2])):
                q = [x * a + y * b for x, y in zip(q + [0], [0] + q)]
        coeffs = [Fraction(c) for c in q]
        at_inf, ints = _dehomogenize(coeffs, len(q) - 1)
        is_squarefree = not oracle_has_repeated_root(coeffs)
        assert (at_inf <= 1 and squarefree(ints)) == is_squarefree, q
        if at_inf <= 1 and coprime_mod_p(ints):
            certified += 1
            assert is_squarefree, q
    assert certified > 50


# --- rational supports from float seeds -----------------------------------------


def _ints_with_roots(roots):
    """Ascending integer coefficients of prod (q t - p) over the roots p/q."""
    ints = [1]
    for r in map(Fraction, roots):
        p, q = r.numerator, r.denominator
        ints = [q * a - p * b for a, b in zip([0] + ints, ints + [0])]
    return ints


def _isolated(monkeypatch, ints):
    """The points _certified_roots gives with the float-seed path switched off."""
    with monkeypatch.context() as m:
        m.setattr(intpoly, "aberth_seeds", lambda ints: None)
        return apolarity._certified_roots(0, ints, 96)


def _seeded(ints):
    """The ascending roots when the float seeds match a rational root each, else None."""
    seeds = intpoly.aberth_seeds(ints)
    if seeds is None:
        return None
    roots, leftovers = apolarity._rational_roots(ints, seeds)
    return None if leftovers else sorted(roots)


def test_rational_supports_match_the_isolating_path(monkeypatch):
    # The float-seed path gives the certificate mpmath isolation gives, point
    # order included, and reaches every one of these all-rational supports.
    rng = random.Random(20261019)
    for _ in range(100):
        n = rng.randrange(4, 25)
        k = rng.randrange(1, (n + 1) // 2 + 1)
        f = sample_rank_k_instance(n, k, seed=rng.randrange(2**32)).form
        cert = sylvester_decompose(f)
        assert cert.support_exact, f
        with monkeypatch.context() as m:
            m.setattr(intpoly, "aberth_seeds", lambda ints: None)
            assert sylvester_decompose(f) == cert, f
        _, ints = _dehomogenize(list(cert.annihilator.coeffs), k)
        assert _seeded(ints) is not None, f


@pytest.mark.parametrize("roots", [
    [Fraction(j, 997) for j in range(3, 9)],
    [Fraction(1, 1000), Fraction(1, 1001), Fraction(-1, 1000), Fraction(-1, 1001)],
    [Fraction(-8, 3), -3, -2, Fraction(-5, 2), 0, 7],
], ids=["j-over-997", "thousandths", "neighbours-of-minus-8-thirds"])
def test_clustered_rational_roots_stay_exact_on_both_paths(monkeypatch, roots):
    ints = _ints_with_roots(roots)
    want = [apolarity.SupportPoint(Fraction(r.numerator), Fraction(r.denominator), exact=True)
            for r in sorted(map(Fraction, roots))]
    assert _seeded(ints) == sorted(map(Fraction, roots))
    assert apolarity._certified_roots(0, ints, 96) == want
    assert _isolated(monkeypatch, ints) == want


def test_coefficients_past_the_float_range_raise_no_overflow():
    # float() of a 1,100-bit int overflows; a common factor that size must not.
    big = 3**700
    ints = [big * c for c in _ints_with_roots([1, 2, Fraction(-1, 3)])]
    assert big.bit_length() > 1024
    assert _seeded(ints) == [Fraction(-1, 3), 1, 2]
    # a monic coefficient past the float range: the sweeps run in t = 2^s u,
    # and the seeds of the roots near +-3^350 ~ 2^555 come back in range
    seeds = intpoly.aberth_seeds([-big, 1, 1])
    root = float(3**350)
    assert sorted(z.real for z in seeds) == pytest.approx([-root, root], rel=1e-12)
    assert all(abs(z.imag) <= 1e-12 * root for z in seeds)


def test_a_seed_at_the_root_zero_stops_with_the_others(monkeypatch):
    # t(t - 1)(t - 2)(t - 3): Horner's relative test never holds near 0, so
    # the seed there stops by |z| against the starting radius.
    monkeypatch.setattr(intpoly, "ABERTH_SWEEPS", 8)
    seeds = intpoly.aberth_seeds([0, -6, 11, -6, 1])
    assert seeds is not None and len(seeds) == 4


def test_a_denominator_past_the_bound_comes_out_approximate(monkeypatch):
    tiny = Fraction(1, apolarity.DENOMINATOR_BOUND + 1)
    ints = _ints_with_roots([tiny, 2, -1])
    assert _seeded(ints) is None
    points = apolarity._certified_roots(0, ints, 96)
    assert points == _isolated(monkeypatch, ints)
    exact = [(pt.alpha, pt.beta) for pt in points if pt.exact]
    assert sorted(exact) == [(-1, 1), (2, 1)]
    (approx,) = [pt for pt in points if not pt.exact]
    with mpmath.workprec(256):
        assert abs(approx.alpha - _mp(tiny)) < 2.0**-96


def test_isolated_rational_roots_are_matched_exactly():
    # (t - 10^6)(10^12 t - 10^18 - 1)(t^2 - 2): the two rational roots are
    # 10^-12 apart near 10^6, closer than a float's spacing there, so only an
    # exact distance test matches them to their polyroots approximations.
    ints = [-2, 0, 1]
    for linear in ([-10**6, 1], [-10**18 - 1, 10**12]):
        ints = [a * linear[1] + b * linear[0] for a, b in zip([0] + ints, ints + [0])]
    points = apolarity._certified_roots(0, ints, 96)
    exact = [(pt.alpha, pt.beta) for pt in points if pt.exact]
    assert exact == [(10**6, 1), (10**18 + 1, 10**12)]
    approx = [pt for pt in points if not pt.exact]
    assert len(approx) == 2
    with mpmath.workprec(256):
        for pt, root in zip(approx, (-mpmath.sqrt(2), mpmath.sqrt(2))):
            assert abs(pt.alpha - root) <= pt.radius


def test_approximate_radius_bounds_the_exact_residual():
    # At the working precision Horner's rule gave U(z) = 0 for the root near
    # -0.107 and printed radius 0.0; exactly, deg |U(z)/U'(z)| is about 7.7e-51.
    cert = sylvester_decompose(parse_form("deg=3; coeffs=1,1,0,1"))
    ints = [1, 9, -3]  # the annihilator -3x^2 + 9xy + y^2 at (t : 1), ascending in t
    assert list(cert.annihilator.coeffs) == ints[::-1]
    assert not cert.support_exact
    for pt in cert.support:
        assert pt.alpha.imag == 0
        t = Fraction(*mpmath.libmp.to_rational(pt.alpha.real._mpf_))
        u = sum(c * t**i for i, c in enumerate(ints))
        du = sum(i * c * t ** (i - 1) for i, c in enumerate(ints) if i)
        residual = 2 * abs(u / du)
        assert 0 < residual <= Fraction(pt.radius) < Fraction(1, 2**96)
        with mpmath.workprec(400):
            root = min(((9 + s * mpmath.sqrt(93)) / 6 for s in (1, -1)), key=lambda r: abs(r - pt.alpha))
            assert abs(pt.alpha - root) <= pt.radius


def test_two_discs_on_one_root_are_a_precision_error(monkeypatch):
    # Two refinements that land on one root must not pass for two roots.
    refine = apolarity._refine_root
    starts = []

    def onto_the_first_root(ints, z0, precision_bits):
        starts.append(z0)
        return refine(ints, starts[0], precision_bits)

    monkeypatch.setattr(apolarity, "_refine_root", onto_the_first_root)
    with pytest.raises(PrecisionError, match="discs meet"):
        sylvester_decompose(parse_form("deg=3; coeffs=1,1,0,1"))
    # two float seeds, then the two polyroots values of the fallback
    assert [type(z) for z in starts] == [complex, complex, mpmath.mpf, mpmath.mpf]


def test_discs_that_meet_on_the_seed_route_fall_back_to_polyroots(monkeypatch):
    # One seed repeated refines to one root twice; the discs meet, and the
    # polyroots route certifies the roots the seed route gives unpatched.
    p = form(4, [2, 0, 24, 0, 8])
    want = sylvester_decompose(p)
    seeds, isolate, isolated = intpoly.aberth_seeds, mpmath.polyroots, []

    def isolating(*args, **kwargs):
        isolated.append(args)
        return isolate(*args, **kwargs)

    monkeypatch.setattr(intpoly, "aberth_seeds", lambda ints: seeds(ints)[:1] * (len(ints) - 1))
    monkeypatch.setattr(mpmath, "polyroots", isolating)
    got = sylvester_decompose(p)
    assert len(isolated) == 1
    assert (got.rank, got.annihilator, got.support_exact) == (want.rank, want.annihilator, False)
    for a, b in zip(got.support, want.support):
        assert abs(a.alpha - b.alpha) <= a.radius + b.radius


def test_a_disc_of_radius_zero_on_an_exact_root_is_not_a_second_root(monkeypatch):
    # t (10^15 t - 1)(t^2 + 1): the seeds of 0 and 10^-15 both stop near 0,
    # one matches 0 and the other refines onto 0 exactly, a disc of radius
    # 0. The pair meets, and the polyroots route places 10^-15.
    isolate, isolated = mpmath.polyroots, []
    monkeypatch.setattr(mpmath, "polyroots", lambda *args, **kwargs: isolated.append(args) or isolate(*args, **kwargs))
    points = apolarity._certified_roots(0, [0, -1, 10**15, -1, 10**15], 96)
    assert len(isolated) == 1
    assert points[0] == apolarity.SupportPoint(Fraction(0), Fraction(1), exact=True)
    with mpmath.workprec(256):
        for pt, root in zip(points[1:], (mpmath.mpf(10) ** -15, -1j, 1j)):
            assert abs(pt.alpha - root) <= pt.radius < 10**-40


def test_a_ladder_with_no_converged_rung_is_a_precision_error(monkeypatch):
    monkeypatch.setattr(intpoly, "newton", lambda desc, z, bits, step_sq: None)
    with pytest.raises(PrecisionError, match="stalled above the precision floor"):
        sylvester_decompose(form(4, [2, 0, 24, 0, 8]))


def test_a_singular_numeric_solve_is_a_precision_error():
    # Two equal columns: mpmath.lu_solve raises ZeroDivisionError.
    pt = apolarity.SupportPoint(mpmath.mpc(2), mpmath.mpf(1), exact=False, radius=2.0**-100)
    with pytest.raises(PrecisionError, match="singular"):
        apolarity._solve_coefficients_numeric([pt, pt], form(3, [1, 0, 0, 1]), 96)


@pytest.mark.parametrize("precision_bits", [53, 96, 256])
def test_the_numeric_solve_binomials_are_exact_at_its_precision(precision_bits):
    # The solve multiplies by math.comb; mpmath.binomial gave the same values.
    with mpmath.workprec(2 * (precision_bits + apolarity.SOLVE_GUARD_BITS)):
        assert all(mpmath.binomial(n, j) == comb(n, j) for n in range(161) for j in range(n + 1))


# --- seeded rank-k sampling -----------------------------------------------------


def test_sample_rank_k_is_deterministic_per_seed():
    a = sample_rank_k_instance(9, 3, seed=123)
    b = sample_rank_k_instance(9, 3, seed=123)
    assert a == b
    c = sample_rank_k_instance(9, 3, seed=124)
    assert a != c


def test_sample_rank_k_has_the_advertised_witnesses():
    sample = sample_rank_k_instance(11, 4, seed=7)
    assert len(sample.points) == 4
    assert len(set(sample.points)) == 4
    assert all(w != 0 for w in sample.coefficients)
    rebuilt = oracle_power_sum_coeffs(11, sample.points, sample.coefficients)
    assert tuple(rebuilt) == sample.form.coeffs


def test_sample_rank_k_rejects_bad_k():
    with pytest.raises(DomainError):
        sample_rank_k_instance(9, 0, seed=1)
    with pytest.raises(DomainError):
        sample_rank_k_instance(9, 6, seed=1)


# --- Vandermonde ranks ----------------------------------------------------------


def test_vandermonde_known_ranks():
    assert vandermonde_rank([0, 1, Fraction(1, 2), "inf"], 5) == 4
    assert vandermonde_rank([0, 1, 2, 3, 4], 3) == 4
    assert vandermonde_rank([0, 1], 6) == 2


def test_vandermonde_rank_past_a_prime_that_merges_two_nodes(monkeypatch):
    exact_ranks = []
    rank = ratmat.rank
    monkeypatch.setattr(ratmat, "rank", lambda a: exact_ranks.append(a) or rank(a))
    # 0 and 2^31 - 1 are distinct over Q and equal mod the package prime
    assert vandermonde_rank([0, 2**31 - 1], 3) == 2
    assert len(exact_ranks) == 1
    # a full rank mod p is a proof, so no exact rank runs
    assert vandermonde_rank([0, 1, Fraction(1, 2), "inf"], 5) == 4
    assert len(exact_ranks) == 1


def test_vandermonde_repeated_nodes_rejected():
    with pytest.raises(DomainError):
        vandermonde_rank([1, (2, 2)], 4)


def test_vandermonde_node_spellings_normalize_to_the_same_point():
    # (1, 2) and the rational 1/2 are the same projective point, so passing
    # both trips the repeated-node check.
    with pytest.raises(DomainError, match="repeated"):
        vandermonde_rank([(1, 2), Fraction(1, 2)], 3)
    assert vandermonde_rank([(1, 2), (2, 1), "inf"], 4) == 3


def test_vandermonde_pair_nodes_are_lists_or_tuples_of_two():
    assert vandermonde_rank([[1, 2], (2, 1), "inf"], 4) == 3
    for node in ([1, 2, 3], (1,)):
        with pytest.raises(DomainError, match=r"a pair node is \[alpha, beta\]"):
            vandermonde_rank([node], 2)


# --- joins ----------------------------------------------------------------------


def test_join_of_transverse_powers():
    p = power_form(1, 0, 4)
    q = power_form(0, 1, 4)
    result = join_rank_check(p, q)
    assert (result.a, result.b, result.c) == (1, 1, 2)


def test_join_zero_sum_flag():
    p = form(3, [1, 2, 0, 1])
    q = form(3, [-1, -2, 0, -1])
    result = join_rank_check(p, q)
    assert result.c == 0 and result.a >= 1 and result.b >= 1


def test_join_rejects_mismatched_degrees_before_any_rank(monkeypatch):
    def no_rank(p):
        raise AssertionError(f"ranked {p}")

    monkeypatch.setattr(apolarity, "min_apolar_degree", no_rank)
    with pytest.raises(DomainError, match="cannot add forms of degrees 4 and 2"):
        join_rank_check(form(4, [1, 0, 0, 0, 1]), form(2, [1, 0, 1]))


def test_join_subadditive_on_seeded_pairs():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(3, 11)
        coeffs_p = [rng.randrange(-6, 7) for _ in range(n + 1)]
        coeffs_q = [rng.randrange(-6, 7) for _ in range(n + 1)]
        if not any(coeffs_p):
            coeffs_p[0] = 1
        if not any(coeffs_q):
            coeffs_q[-1] = 1
        result = join_rank_check(form(n, coeffs_p), form(n, coeffs_q))
        assert result.c <= result.a + result.b


# --- projective point bookkeeping ------------------------------------------------


def test_normalize_point():
    assert normalize_point(2, 4) == (1, 2)
    assert normalize_point(-2, 4) == (-1, 2)
    assert normalize_point(3, 0) == (1, 0)
    assert normalize_point(Fraction(1, 3), Fraction(1, 2)) == (2, 3)
    with pytest.raises(DomainError):
        normalize_point(0, 0)
