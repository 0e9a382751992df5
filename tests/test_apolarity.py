import cmath
import hashlib
import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path
from types import SimpleNamespace

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
from test_cli import _RANK_15_POINTS, _power_sums

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


def test_cleared_puts_rationals_over_their_least_common_denominator():
    rng = random.Random(4701)
    cases = [[], [0], [5, -3], [Fraction(-1, 2), 0, 3], [Fraction(0), Fraction(-7, 6), Fraction(5, 4)]]
    cases += [[rng.choice([rng.randint(-99, 99), Fraction(rng.randint(-99, 99), rng.randint(1, 60))])
               for _ in range(rng.randint(1, 8))] for _ in range(300)]
    for values in cases:
        ints, d = apolarity._cleared(values)
        assert all(type(x) is int for x in ints) and type(d) is int and d >= 1, values
        assert [Fraction(x, d) for x in ints] == [Fraction(v) for v in values], values
        # d is the least: a prime dividing d and every ints[i] would divide out of both
        assert gcd(d, *ints) == 1, values


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
    # The rank-15 support holds both (1 : 0) and (0 : 1), so neither
    # orientation of the moments has linear complexity 15 and no kernel is
    # lifted: this pins the kept-rows route.
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
    assert intpoly.LIFT_PRIME != oracles.MERSENNE_61


def test_the_middle_catalecticant_is_never_eliminated(monkeypatch):
    # Its rank mod p comes from the linear complexity of the moments, and
    # the kernel of C_r of these exact supports is lifted from a second
    # Berlekamp-Massey run, so no catalecticant goes through
    # independent_rows_mod_p; a middle catalecticant of full rank mod p
    # needs no kernel at all.
    widths = []
    independent = ratmat.independent_rows_mod_p
    monkeypatch.setattr(ratmat, "independent_rows_mod_p", lambda m, p: widths.append(len(m[0])) or independent(m, p))
    rng = random.Random(4601)
    for _ in range(40):
        n = rng.randint(6, 30)
        k = rng.randint(1, n // 2 - 1)
        pts = rng.sample([(a, b) for a in range(-9, 10) for b in range(1, 5) if gcd(a, b) == 1], k)
        p = form(n, oracle_power_sum_coeffs(n, pts, [rng.choice([-2, -1, 1, 3]) for _ in pts]))
        widths.clear()
        r, _ = apolarity._apolar_kernel(p)
        assert r == k and widths == [], (p, widths)
        widths.clear()
        assert min_apolar_degree(p) == k and widths == [], (p, widths)
    widths.clear()
    assert min_apolar_degree(form(41, [rng.randint(-9, 9) for _ in range(42)])) == 21
    assert widths == []


def _spy_kernel_routes(monkeypatch) -> dict[str, list]:
    """Record each call of the lift's Berlekamp-Massey run (its sequence) and of the eliminations."""
    calls = {"lift": [], "independent_rows_mod_p": [], "kernel_basis": [], "rank": []}
    connection = intpoly.connection
    monkeypatch.setattr(intpoly, "connection", lambda seq, p: (
        calls["lift"].append(list(seq)) if p == intpoly.LIFT_PRIME else None) or connection(seq, p))
    for name in ("independent_rows_mod_p", "kernel_basis", "rank"):
        def spy(*args, name=name, original=getattr(ratmat, name)):
            calls[name].append(args)
            return original(*args)
        monkeypatch.setattr(ratmat, name, spy)
    return calls


# Neither (1 : 0) nor (0 : 1): a x + b y with a, b != 0.
_FINITE_POINTS = [(a, b) for a in range(-9, 10) for b in range(1, 5) if a and gcd(a, b) == 1]


def test_the_lifted_kernel_matches_the_oracle_in_both_orientations(monkeypatch):
    # The moments b_m carry a point (1 : 0) at m = 0 only and a point (0 : 1)
    # at m = n only. A (1 : 0) leaves the linear complexity of the moments k,
    # and the lift runs on them as they are; a (0 : 1) makes it n + 2 - k,
    # and the lift runs on them reversed. With both, neither orientation has
    # linear complexity k, and the kept rows of C_k decide.
    calls = _spy_kernel_routes(monkeypatch)
    rng = random.Random(4902)
    seen = {kind: 0 for kind in ("neither", "(1 : 0)", "(0 : 1)", "both")}
    for _ in range(80):
        kind = rng.choice(list(seen))
        special = {"neither": [], "(1 : 0)": [(1, 0)], "(0 : 1)": [(0, 1)], "both": [(1, 0), (0, 1)]}[kind]
        n = rng.randint(5, 24)
        k = rng.randint(max(1, len(special)), (n + 1) // 2)
        pts = special + rng.sample(_FINITE_POINTS, k - len(special))
        p = form(n, oracle_power_sum_coeffs(n, pts, [rng.choice([-3, -1, 1, 2, 5]) for _ in pts]))
        for routes in calls.values():
            routes.clear()
        want = _oracle_apolar_kernel(p)
        assert want[0] == k and len(want[1]) == 1, (kind, p)
        assert apolarity._apolar_kernel(p) == want, (kind, p)
        assert not calls["rank"], (kind, p)
        moments = apolarity._integer_moments(p)
        if kind == "both":
            assert calls["kernel_basis"] and calls["independent_rows_mod_p"], (kind, p)
            assert calls["lift"] in ([], [moments[::-1]]), (kind, p)
        else:
            assert not calls["kernel_basis"] and not calls["independent_rows_mod_p"], (kind, p)
            assert calls["lift"] == [moments[::-1] if kind == "(0 : 1)" else moments], (kind, p)
        seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def test_two_dimensional_kernels_are_never_lifted(monkeypatch):
    # A generic form of even degree n = 2m has a middle catalecticant of
    # full rank m + 1, 2 (m + 1) = n + 2, and a pencil of annihilators at
    # degree m + 1: one lifted vector would miss half of it.
    calls = _spy_kernel_routes(monkeypatch)
    rng = random.Random(4903)
    pencils = 0
    for _ in range(40):
        n = 2 * rng.randint(1, 5)
        p = form(n, [rng.randint(-9, 9) for _ in range(n + 1)])
        calls["lift"].clear()
        want = _oracle_apolar_kernel(p)
        if len(want[1]) != 2:
            continue
        assert apolarity._apolar_kernel(p) == want, p
        assert calls["lift"] == [], p
        pencils += 1
    assert pencils >= 30, pencils


def test_kernels_past_the_reconstruction_bound_fall_back(monkeypatch):
    # Points with coordinates near 2^40 make kernel entries past
    # sqrt(LIFT_PRIME / 2), about 2^63: the reconstruction is None or a
    # wrong small fraction, which fails the exact product check, and the
    # kept rows of C_k give the kernel.
    calls = _spy_kernel_routes(monkeypatch)
    rng = random.Random(4904)
    wrong = 0
    for _ in range(16):
        n = rng.randint(4, 8)
        pts = [(rng.randint(2**39, 2**40), rng.randint(2**39, 2**40)) for _ in range(2)]
        p = form(n, oracle_power_sum_coeffs(n, pts, [rng.choice([-2, 1, 3]) for _ in pts]))
        for routes in calls.values():
            routes.clear()
        want = _oracle_apolar_kernel(p)
        assert want[0] == 2 and max(max(abs(x.numerator), x.denominator) for x in want[1][0]) > 2**64, p
        assert apolarity._apolar_kernel(p) == want, p
        assert calls["lift"] and calls["kernel_basis"], p
        _, conn = intpoly.connection(calls["lift"][0], intpoly.LIFT_PRIME)
        wrong += all(intpoly.rational(c, intpoly.LIFT_PRIME) for c in conn)
    assert wrong >= 2, wrong  # some lifts reach the product check with every entry reconstructed


def test_a_lift_stops_at_the_first_entry_past_the_bound(monkeypatch):
    # The connection entries are reconstructed in order, and the first one
    # past the bound ends the lift: the entries after it are never read, and
    # the kept rows of C_k give the kernel the oracle gives.
    calls = _spy_kernel_routes(monkeypatch)
    rational, read = intpoly.rational, []
    monkeypatch.setattr(intpoly, "rational", lambda u, m: read.append(rational(u, m)) or read[-1])
    rng = random.Random(5001)
    stopped = skipped = 0
    for _ in range(16):
        n = rng.randint(4, 8)
        pts = [(rng.randint(2**39, 2**40), rng.randint(2**39, 2**40)) for _ in range(2)]
        p = form(n, oracle_power_sum_coeffs(n, pts, [rng.choice([-2, 1, 3]) for _ in pts]))
        want = _oracle_apolar_kernel(p)
        for routes in calls.values():
            routes.clear()
        read.clear()
        assert apolarity._apolar_kernel(p) == want, p
        _, conn = intpoly.connection(calls["lift"][0], intpoly.LIFT_PRIME)
        every = [rational(c, intpoly.LIFT_PRIME) for c in conn]
        if None in every:
            stopped, skipped = stopped + 1, skipped + len(every) - len(read)
            assert read == every[:every.index(None) + 1], p
        else:
            assert read == every, p
    assert stopped >= 4 and skipped >= 2, (stopped, skipped)


def test_a_prime_that_loses_the_middle_rank_falls_back(monkeypatch):
    # Mod 43 the middle rank k can fall below r; no lift can then pass the
    # product check, since a kernel of C_k would make r <= k, and the exact
    # rank decides.
    calls = _spy_kernel_routes(monkeypatch)
    monkeypatch.setattr(intpoly, "SQUAREFREE_PRIME", SMALL_PRIME)
    lost = 0
    for p in itertools.islice(_modular_fuzz_forms(4905), 150):
        want = _oracle_apolar_kernel(p)
        if _middle_rank_mod_p(p, SMALL_PRIME) == want[0]:
            continue
        for routes in calls.values():
            routes.clear()
        assert apolarity._apolar_kernel(p) == want, p
        assert calls["rank"], p
        lost += 1
    assert lost >= 3, lost


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
    at_inf, ints = _dehomogenize(cert.annihilator.coeffs, 2)
    with pytest.raises(ConsistencyError):
        apolarity._coefficients(cert.support, at_inf, ints, form(3, [1, 0, 1, 1]), 96)


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


def test_a_centre_weight_is_the_weight_of_its_homogeneous_point_times_q_to_the_n():
    # With centre=True _weight reads ((a + b i) / 2^e : 1): N(t) / U'(t) as
    # it stands in t, the numerator shifted by e n in tau; both charts.
    rng = random.Random(4602)
    for _ in range(40):
        n = rng.randint(2, 12)
        p = form(n, [rng.randint(-9, 9) or 1 for _ in range(n + 1)])
        ints = [rng.randint(-9, 9) for _ in range(rng.randint(1, n))] + [rng.randint(1, 9)]
        at_inf = rng.randint(0, 1)
        charts = apolarity._charts(at_inf, ints, p)
        for _ in range(6):
            e = rng.randint(0, 200)
            a, b = rng.randint(-(4 << e), 4 << e), rng.choice([0, rng.randint(-(4 << e), 4 << e)])
            try:
                x, y, den = apolarity._weight(charts, n, a, b, 1 << e, centre=True)
            except PrecisionError:  # U' vanishes at the point
                continue
            hx, hy, hden = apolarity._weight(charts, n, a, b, 1 << e)
            assert den > 0 and hden > 0
            assert (Fraction(x, den), Fraction(y, den)) == (Fraction(hx << e * n, hden), Fraction(hy << e * n, hden))


def test_the_bracketed_maximum_is_the_maximum_over_every_square_root():
    rng = random.Random(4603)

    def exact(x, y):
        return intpoly.ceil_sqrt(x * x + y * y)

    for _ in range(300):
        size = rng.choice([0, 8, 64, 65, 200, 3000])
        values = [(rng.choice([0, rng.getrandbits(size), -rng.getrandbits(size)]), rng.choice([0, rng.getrandbits(size)]))
                  for _ in range(rng.randint(1, 8))]
        values += rng.sample(values, rng.randint(0, len(values)))  # ties
        extras = [rng.choice([0, rng.getrandbits(size // 2 + 8)]) for _ in values]
        shift = rng.choice([0, 1, 96])
        want = max((exact(*value) << shift) + extra for value, extra in zip(values, extras))
        assert apolarity._max_ceil_abs(values, extras, shift) == want, (values, extras, shift)
        # A zero residual whose allowance is just below the maximum does
        # not hide the term that reaches it.
        assert apolarity._max_ceil_abs(values + [(0, 0)], extras + [want - 1], shift) == want
    # Parts whose bits below the bracket are all ones, near its upper end.
    for _ in range(200):
        g = rng.randint(1, 300)
        x = (rng.getrandbits(64) << g) | ((1 << g) - 1)
        y = rng.choice([0, (rng.getrandbits(64) << g) | ((1 << g) - 1)])
        assert apolarity._max_ceil_abs([(x, y), (0, 0)], [0, exact(x, y) - 1], 0) == exact(x, y), (x, y)


def test_ceil_abs_skips_the_square_root_of_a_real_or_imaginary_value(monkeypatch):
    monkeypatch.setattr(intpoly, "ceil_sqrt", lambda n: pytest.fail("a square root"))
    assert [apolarity._ceil_abs(x, y) for x, y in [(-7, 0), (0, 9), (0, 0), (3**500, 0)]] == [7, 9, 0, 3**500]
    monkeypatch.undo()
    assert apolarity._ceil_abs(3, -4) == 5 and apolarity._ceil_abs(1, 1) == 2


def test_printed_digits_read_back_as_integer_times_a_power_of_ten():
    with mpmath.workprec(200):
        values = [mpmath.mpf(1) / 3, -mpmath.mpf(2) ** 300 / 7, mpmath.mpf(2) ** -300, mpmath.mpf(0), mpmath.mpf(-5)]
        for x in values:
            for digits in (1, 15, 61):
                text = mpmath.nstr(x, digits)
                d, t = apolarity._decimal(text)
                assert Fraction(d) * Fraction(10) ** t == Fraction(text), text


def _mpf_value(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def test_mpf_rounds_a_quotient_half_up_on_prec_bits():
    # _mpf(num, den, prec) is m 2^-shift, shift = prec - 1 - bitlen(|num|) +
    # bitlen(den), so that |num / den| 2^shift lies in [2^(prec - 2), 2^prec),
    # and m the integer nearest num 2^shift / den, a tie rounded up toward
    # +inf, not to even and not away from 0; with up=True the least integer
    # no smaller. 2.5, 3.5, -2.5, -3.5 on 2 bits:
    assert [_mpf_value(apolarity._mpf(num, 2, 2)) for num in (5, 7, -5, -7)] == [3, 4, -2, -3]
    assert [_mpf_value(apolarity._mpf(num, 3, 2, up=True)) for num in (5, -5)] == [2, -1]
    rng = random.Random(5002)
    seen = set()
    for _ in range(3000):
        prec, up = rng.choice([2, 3, 8, 53, 200]), rng.random() < 0.3
        den = rng.randint(1, 1 << rng.randint(1, 250))
        if rng.random() < 0.4:  # often a tie: an odd multiple of den / 2^k
            odd = rng.randint(1 << prec - 1, 1 << prec + 1) | 1
            den, num = den << rng.randint(0, 40), odd * den * rng.choice([1, -1])
        else:
            num = rng.randint(-(1 << 250), 1 << 250) >> rng.randint(0, 250)
        got = apolarity._mpf(num, den, prec, up)
        if not num:
            assert got == 0
            continue
        shift = prec - 1 - abs(num).bit_length() + den.bit_length()
        x = Fraction(num, den) * Fraction(2) ** shift
        assert 2 ** (prec - 2) <= abs(x) < 2**prec
        m = -((-x.numerator) // x.denominator) if up else (x + Fraction(1, 2)).__floor__()
        assert _mpf_value(got) == m / Fraction(2) ** shift, (num, den, prec, up)
        seen.add(("up" if up else "tie" if x.denominator == 2 else "near", num > 0, abs(m).bit_length() - prec))
    # every sign, ties, and mantissas of prec - 1 and prec bits, and 2^prec where the rounding carries
    assert {(kind, sign, bits) for kind in ("tie", "near") for sign in (True, False) for bits in (-1, 0)} <= seen
    assert {("near", True, 1), ("up", True, 0), ("up", False, -1)} <= seen


def _integers_between(lo: int, hi: int, s: int) -> range:
    """The integers between lo 2^s and hi 2^s."""
    if s >= 0:
        return range(lo << s, (hi << s) + 1)
    return range(-((-lo) >> -s), (hi >> -s) + 1)


def test_mpf_of_intervals_is_the_mpf_of_every_integer_in_them():
    # An interval (lo, hi, s) holds an unknown integer between lo 2^s and hi
    # 2^s: _mpf gives the mpf that every integer in both intervals gives, or
    # None. Intervals near powers of two cross bit lengths, and small
    # mantissas put half-way points inside them.
    rng = random.Random(5003)
    decided = undecided = 0
    for _ in range(1500):
        prec, up = rng.choice([2, 3, 5]), rng.random() < 0.3
        ends = []
        for positive in (False, True):
            centre = rng.choice([1 << rng.randint(1, 10), rng.randint(1, 3000)])
            lo = centre * (1 if positive else rng.choice([1, -1])) - rng.randint(0, 3)
            lo = max(lo, 1) if positive else lo
            ends.append((lo, lo + rng.randint(0, 3 if positive else 5), rng.randint(-2, 2)))
        nums, dens = (_integers_between(*end) for end in ends)
        if not (nums and dens):
            continue
        got = apolarity._mpf(*ends, prec, up)
        if got is None:
            undecided += 1
            continue
        decided += 1
        assert {apolarity._mpf(x, d, prec, up)._mpf_ for x in nums for d in dens} == {got._mpf_}, (ends, prec, up)
    assert decided > 300 and undecided > 300, (decided, undecided)


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


def _no_isolation(*args, **kwargs):
    raise AssertionError("a support was isolated by mpmath.polyroots")


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


def test_roots_past_the_float_range_get_no_seeds():
    # The roots +-2^1100 of U(2^s u) are seeded in u; scaled back they are
    # past the float range, so there are no seeds, not an OverflowError.
    assert intpoly.aberth_seeds([-(2**2200), 0, 1]) is None
    assert intpoly.aberth_seeds([-(2**3300), 1, 0, 1]) is None


def test_the_sweep_budget_stops_at_the_float_range(monkeypatch):
    # With a stop rule that never fires, the seeds of t^2 - 2^100001 sweep the
    # whole budget: twice the degree, the span of the coefficients' sizes but
    # at most the mant_dig - min_exp = 1074 bits down to the least positive
    # float, and 53. Each sweep checks u and U'(u) of both roots for finiteness.
    info = sys.float_info
    monkeypatch.setattr(intpoly, "sys", SimpleNamespace(float_info=SimpleNamespace(
        epsilon=0.0, mant_dig=info.mant_dig, min_exp=info.min_exp)))
    checks = []
    monkeypatch.setattr(intpoly, "cmath", SimpleNamespace(
        exp=cmath.exp, isfinite=lambda z: checks.append(z) or cmath.isfinite(z)))
    assert intpoly.aberth_seeds([-(2 << 100000), 0, 1]) is None
    assert len(checks) == 2 * 2 * (2 * 2 + 1074 + 53)


def _gaussian_poly(lead, roots):
    """lead * prod (t - r) over Gaussian integers r = (a, b), as exact mpc coefficients, ascending."""
    poly = [lead]
    for a, b in roots:
        poly = [(x - a * u + b * v, y - a * v - b * u) for (x, y), (u, v) in zip([(0, 0)] + poly, poly + [(0, 0)])]
    with mpmath.workprec(max(64, *(abs(part).bit_length() for c in poly for part in c))):
        return [mpmath.mpc(x, y) for x, y in poly]


def test_gaussian_squarefree_matches_the_roots_it_was_built_from():
    # Gaussian leading coefficients and roots, some repeated: squarefree says
    # whether a root repeats, and the certificate mod p never calls a
    # repeated root squarefree.
    rng = random.Random(97)
    certified = 0
    for _ in range(300):
        lead = (rng.randint(-3, 3), rng.randint(1, 3))
        roots = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            roots.append(rng.choice(roots))
        coeffs = _gaussian_poly(lead, roots)
        is_squarefree = len(set(roots)) == len(roots)
        assert squarefree(coeffs) == is_squarefree, (lead, roots)
        if coprime_mod_p(coeffs):
            certified += 1
            assert is_squarefree, (lead, roots)
    assert certified > 100


@pytest.mark.parametrize("lead, roots, want", [
    ((_P, _P), [(0, 1), (-2, 0)], True),
    ((0, _P), [(1, 1), (1, 1)], False),
    ((1, 0), [(0, 1), (_P, 1)], True),
    ((1, 0), [(0, 1), (0, 1), (_P, 1)], False),
    ((2, 1), [(1, -1), (1 + _P, -1 - _P), (3, 0)], True),
], ids=["p-divides-lc", "p-divides-lc-double-root", "roots-equal-mod-p", "double-root-and-equal-mod-p",
        "gaussian-roots-equal-mod-p"])
def test_gaussian_squarefree_without_a_modular_certificate_runs_the_exact_test(lead, roots, want):
    # p divides lc(U) in Z[i], or two roots agree mod p, so only the
    # remainder sequence over Z[i] decides.
    coeffs = _gaussian_poly(lead, roots)
    assert not coprime_mod_p(coeffs)
    assert squarefree(coeffs) == want


def test_the_root_zero_is_read_off_the_coefficients(monkeypatch):
    # t(t - 1)(t - 2)(t - 3): U(0) = 0 gives the exact point 0, and the seeds
    # of U / t the others, with no polyroots call.
    monkeypatch.setattr(mpmath, "polyroots", _no_isolation)
    points = apolarity._certified_roots(0, [0, -6, 11, -6, 1], 96)
    assert points == [apolarity.SupportPoint(Fraction(j), Fraction(1), exact=True) for j in range(4)]


def test_the_root_zero_and_a_root_near_it_are_certified_from_seeds(monkeypatch):
    # t(10^e t - 1)(t^2 + 1): the seeds of 10^-e, -i and i come from U / t, so
    # nothing stops the seed of 10^-e near 0. Up to 10^-12 it is exact, then a
    # disc. The seeds used to fall back to polyroots from e = 15 on.
    monkeypatch.setattr(mpmath, "polyroots", _no_isolation)
    for e in range(1, 51):
        roots = [0, Fraction(1, 10**e), -1j, 1j]
        points = apolarity._certified_roots(0, [0, -1, 10**e, -1, 10**e], 96)
        exact = [pt.alpha / pt.beta for pt in points if pt.exact]
        assert exact == roots[:1 + (e <= 12)], e
        with mpmath.workprec(256):
            held = sorted(j for pt in points if not pt.exact for j, root in enumerate(roots)
                          if abs(pt.alpha - _mp(root)) <= pt.radius < 2.0**-96)
        assert held == list(range(len(exact), 4)), e


def test_the_package_never_seeds_a_polynomial_with_the_root_zero(monkeypatch):
    # Forms with the support point (0 : 1), so U(0) = 0: w y^n plus a sum
    # over rational points or over a conjugate pair c +- sqrt(d). aberth_seeds
    # reads t = 0 off U(0) = 0, so its sweeps, set up by monic_parts, run on U / t.
    parts, constants = intpoly.monic_parts, []
    monkeypatch.setattr(intpoly, "monic_parts", lambda pairs, *args: constants.append(pairs[0]) or parts(pairs, *args))
    rng = random.Random(41)
    pool = [pt for pt in apolarity._point_pool() if pt != (0, 1)]
    approximate = 0
    for _ in range(40):
        n = rng.randrange(5, 16)
        if rng.random() < 0.5:
            coeffs = _power_sums(n, rng.randint(-5, 5), rng.choice([-2, -1, 2, 3, 5]))
        else:
            k = rng.randrange(1, (n + 1) // 2)
            coeffs = oracle_power_sum_coeffs(n, rng.sample(pool, k), [rng.randint(1, 9) for _ in range(k)])
        coeffs[-1] += rng.choice([-3, -1, 1, 2])
        cert = sylvester_decompose(form(n, coeffs))
        assert apolarity.SupportPoint(Fraction(0), Fraction(1), exact=True) in cert.support, coeffs
        approximate += not cert.support_exact
    assert constants and (0, 0) not in constants and approximate >= 10


@pytest.mark.parametrize("e", range(51, 61))
def test_a_root_nearer_zero_than_the_seeds_reach_is_a_precision_error(e):
    # Past 10^-50 the seeds do not reach 10^-e and polyroots supplies the
    # approximations. Refined to 2^-96, the discs about 0 and 10^-e met, a
    # precision error; refined past SOLVE_GUARD_BITS more, they certify 0
    # exactly and discs about 10^-e, -i and i.
    points = apolarity._certified_roots(0, [0, -1, 10**e, -1, 10**e], 96)
    assert [(pt.alpha, pt.beta) for pt in points if pt.exact] == [(0, 1)]
    discs = [pt for pt in points if not pt.exact]
    assert len(discs) == 3
    for pt, (x, y) in zip(discs, [(Fraction(1, 10**e), 0), (0, -1), (0, 1)]):
        k, [(a, b)] = intpoly.gaussian([pt.alpha])
        assert (Fraction(a, 1 << k) - x) ** 2 + (Fraction(b, 1 << k) - y) ** 2 <= Fraction(pt.radius) ** 2


def _support_digest(points) -> str:
    """sha256 over every bit of the points: Fractions as text, centres by their exact mpf tuples, radii in hex."""
    return hashlib.sha256(repr([(str(pt.alpha), str(pt.beta), pt.radius) if pt.exact else
                                (pt.alpha._mpc_, pt.beta._mpf_, pt.radius.hex()) for pt in points]).encode()).hexdigest()


# The digest of both routes' points over the 60 polynomials below, computed
# where every support point was checked against every other after the second
# matcher pass: moving that proof into intpoly.isolate moved no point.
SUPPORTS_OF_U_OVER_T = "2a9eaed514e110b0c5a7b308d69fe99ec766b2fb454c307c9a3ba229b16eb478"


def test_seeds_of_u_over_t_certify_what_polyroots_certifies(monkeypatch):
    # U = t V(t) with V(0) != 0 from rational roots, one near 0 at times, and
    # quadratic factors: the seed route gives the exact points of the
    # polyroots route and, for every one of its discs, one disc of that
    # route that meets it; both give the points pinned by digest.
    rng = random.Random(20261029)
    checked, digests = 0, []
    for _ in range(60):
        roots = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 20)) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:
            roots.append(Fraction(1, 10 ** rng.randint(1, 30)))
        v = _ints_with_roots(roots)
        for _ in range(rng.randint(0, 3)):  # times c + b t + a t^2
            c, b, a = rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(-9, 9), rng.randint(1, 9)
            v = [c * x + b * y + a * z for x, y, z in zip(v + [0, 0], [0] + v + [0], [0, 0] + v)]
        ints = [0] + v
        if not squarefree(ints):
            continue
        checked += 1
        with monkeypatch.context() as m:
            m.setattr(mpmath, "polyroots", _no_isolation)
            seeded = apolarity._certified_roots(0, ints, 96)
        isolated = _isolated(monkeypatch, ints)
        assert apolarity.SupportPoint(Fraction(0), Fraction(1), exact=True) in seeded, ints
        assert [pt for pt in seeded if pt.exact] == [pt for pt in isolated if pt.exact], ints
        discs = [pt for pt in isolated if not pt.exact]
        assert len(discs) == len(seeded) - sum(pt.exact for pt in seeded), ints
        with mpmath.workprec(256):
            for pt in seeded:
                if not pt.exact:
                    meets = [d for d in discs if abs(pt.alpha - d.alpha) <= pt.radius + d.radius]
                    assert len(meets) == 1, ints
        digests += [_support_digest(seeded), _support_digest(isolated)]
    assert checked >= 45
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == SUPPORTS_OF_U_OVER_T


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
    with mpmath.workprec(512):
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
    refine = intpoly.certified_root
    starts = []

    def onto_the_first_root(pairs, z0, precision_bits):
        starts.append(z0)
        return refine(pairs, starts[0], precision_bits)

    monkeypatch.setattr(intpoly, "certified_root", onto_the_first_root)
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


def test_a_disc_of_radius_zero_on_an_exact_root_is_not_a_second_root():
    # A refined centre can land on a root exactly, radius 0, where an exact
    # root is; every disc is compared with every exact root, so the pair meets.
    for root in (Fraction(0), Fraction(-3, 4)):
        pairs = [(c, 0) for c in _ints_with_roots([root, 5])]
        seed = float(root)
        assert intpoly.certified_root(pairs, seed, 96)[2][0] == 0
        assert intpoly.isolate(pairs, [seed], 96) is not None
        assert intpoly.isolate(pairs, [seed], 96, exact=[(root.numerator, 0, root.denominator)]) is None


def test_discs_that_meet_past_the_float_range_are_a_precision_error():
    # Two seeds on the one root 2^1100 of t - 2^1100 meet, decided on
    # integers with no float, which overflows there.
    seeds = [mpmath.mpf(2) ** 1100] * 2
    assert intpoly.isolate([(-(2**1100), 0), (1, 0)], seeds, 96) is None
    with pytest.raises(PrecisionError, match="discs meet"):
        apolarity._roots_from([-(2**1100), 1], seeds, 96)


def test_the_second_pass_does_not_match_the_root_zero_again(monkeypatch):
    # The pinned degree-30 form of tests/test_cli.py has the annihilator
    # root 0 and a root near 0.1035 whose refined centre has the first
    # convergent 0/1. The seed 0j is not in the second pass, so only `taken`
    # keeps that centre from matching 0 a second time.
    cert = sylvester_decompose(form(30, [(7 * j) % 19 - 9 for j in range(31)]))
    at_inf, ints = _dehomogenize(list(cert.annihilator.coeffs), cert.annihilator.degree)
    assert (at_inf, ints[0]) == (0, 0)
    match, passes = apolarity._rational_roots, []
    monkeypatch.setattr(apolarity, "_rational_roots",
                        lambda ints, approx, taken=frozenset(): passes.append((approx, taken)) or match(ints, approx, taken))
    points = apolarity._certified_roots(0, ints, 96)
    assert points == list(cert.support)
    (first, _), (second, taken) = passes
    assert first[0] == 0j and taken == {0}
    assert match(ints, second, taken) == ([], second)
    assert match(ints, second)[0] == [0]


@pytest.mark.parametrize("swap", [False, True], ids=["own-discs", "swapped"])
def test_a_second_pass_root_must_lie_in_its_centres_disc(monkeypatch, swap):
    # The first pass is made to match nothing, so the roots 1 and 2 are
    # matched only on the refined centres; matched the wrong way round, each
    # lies in the other's disc, which would leave one disc's root unproven.
    match, calls = apolarity._rational_roots, []

    def second_pass_only(ints, approx, taken=frozenset()):
        calls.append(approx)
        if len(calls) == 1:
            return [], list(approx)
        roots, leftovers = match(ints, approx, taken)
        return roots[::-1] if swap else roots, leftovers

    monkeypatch.setattr(apolarity, "_rational_roots", second_pass_only)
    ints = _ints_with_roots([1, 2])
    if swap:
        with pytest.raises(PrecisionError, match="discs meet"):
            apolarity._roots_from(ints, [0.9, 2.1], 96)
    else:
        assert apolarity._roots_from(ints, [0.9, 2.1], 96) == [
            apolarity.SupportPoint(Fraction(j), Fraction(1), exact=True) for j in (1, 2)]


def test_a_ladder_with_no_converged_rung_is_a_precision_error(monkeypatch):
    monkeypatch.setattr(intpoly, "newton", lambda desc, z, bits, step_sq: None)
    with pytest.raises(PrecisionError, match="stalled above the precision floor"):
        sylvester_decompose(form(4, [2, 0, 24, 0, 8]))


def test_a_singular_numeric_solve_is_a_precision_error():
    # The centre 0 of U = t^2 - 2 is a zero of U', where no partial fraction exists.
    zero = apolarity.SupportPoint(mpmath.mpc(0), mpmath.mpf(1), exact=False, radius=2.0)
    with pytest.raises(PrecisionError, match="singular"):
        apolarity._coefficients([zero, zero], 0, [-2, 0, 1], form(4, [2, 0, 24, 0, 8]), 96)
    # Two equal centres off the roots of the annihilator xy of x^3 + y^3 each
    # take a weight, and the rebuild's residual refuses them.
    two = apolarity.SupportPoint(mpmath.mpc(2), mpmath.mpf(1), exact=False, radius=2.0**-100)
    with pytest.raises(PrecisionError, match="residual"):
        apolarity._coefficients([two, two], 1, [0, 1], form(3, [1, 0, 0, 1]), 96)


def _conjugate_pair_terms(n: int, s: Fraction, c: Fraction, a: Fraction, b: Fraction) -> list[Fraction]:
    """The coefficients of w (z x + y)^n + w' (z' x + y)^n, z = s + sqrt(c) and w = a + b sqrt(c), ' conjugating.

    With (s + sqrt(c))^m = P_m + Q_m sqrt(c), coefficient j is 2 C(n, j) (a P_m + b c Q_m), m = n - j.
    """
    powers, (p, q) = [], (Fraction(1), Fraction(0))
    for _ in range(n + 1):
        powers.append((p, q))
        p, q = p * s + q * c, p + q * s
    return [2 * comb(n, j) * (a * p + b * c * q) for j, (p, q) in enumerate(reversed(powers))]


def _working_precision_forms(seed: int):
    """(form, precision_bits) for the fuzz of the working-precision route.

    Half are generic forms, mostly of degree 2-14 and some of 15-60, with
    coefficients up to 10^60. The others sum conjugate pairs (s +- sqrt(c) : 1),
    some flipped to (1 : s +- sqrt(c)): Gaussian rationals (c = -d^2, often
    dyadic, so the refined centre is the root and the weight and the bound
    are exact values that fall on rounding boundaries), and quadratic
    irrationals up to 10^+-15 away from 1 (the tau chart); and up to three
    exact points, (1 : 0) and (0 : 1) among them.
    """
    rng = random.Random(seed)
    while True:
        bits = rng.choice([53, 53, 96, 96, 160, 300])
        if rng.random() < 0.5:
            n = rng.randint(2, 14) if rng.random() < 0.85 else rng.randint(15, 60)
            size = 10 ** rng.choice([1, 3, 12, 60])
            coeffs = [rng.randint(-size, size) for _ in range(n + 1)]
        else:
            pairs, rationals = rng.randint(1, 3), rng.randint(0, 3)
            n = rng.randint(4 * pairs + 2 * rationals - 1, 4 * pairs + 2 * rationals + 8)
            coeffs = [Fraction(0)] * (n + 1)
            for _ in range(pairs):
                s = Fraction(rng.randint(-40, 40), 1 << rng.randint(0, 3)) if rng.random() < 0.5 else \
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if rng.random() < 0.4:
                    c = -Fraction(rng.randint(1, 40), rng.choice([1, 2, 4, 8, 3])) ** 2
                else:
                    c = Fraction(rng.choice([2, 3, 5, 7, 10, -1, -3]))
                    c *= Fraction(10) ** rng.choice([0, 0, 12, -12, 30, -30])
                terms = _conjugate_pair_terms(n, s, c, Fraction(rng.randint(-9, 9) or 1), Fraction(rng.randint(-9, 9)))
                coeffs = [x + y for x, y in zip(coeffs, terms[::rng.choice([1, 1, 1, -1])])]
            for _ in range(rationals):
                a, b = rng.choice([(1, 0), (0, 1), (rng.randint(-9, 9), rng.randint(1, 5))])
                w = rng.randint(-9, 9) or 1
                coeffs = [x + w * comb(n, j) * Fraction(a) ** (n - j) * Fraction(b) ** j for j, x in enumerate(coeffs)]
        if any(coeffs):
            yield form(n, coeffs), bits


def _coefficient_certificate(call):
    """_coefficients' values for one call as exact tuples, or the class and message of its error."""
    try:
        coeffs, bound = apolarity._coefficients(*call)
    except PrecisionError as err:
        return type(err), str(err)
    return [pt.alpha._mpc_ for pt in call[0] if not pt.exact], [c._mpc_ for c in coeffs], bound._mpf_


def test_the_working_precision_route_gives_the_exact_certificate(monkeypatch):
    # Every support with a refined centre is taken twice: by the working
    # precision, where intervals decide every weight and the bound or leave
    # them to the exact integers, and by the exact integers alone. Besides
    # the supports of 300 forms, centres moved by about 2^-(precision_bits
    # // 2) of their size make residuals on either side of the PrecisionError
    # threshold, and a centre on a zero of U' is singular.
    calls, coefficients = [], apolarity._coefficients
    monkeypatch.setattr(apolarity, "_coefficients", lambda *call: calls.append(call) or coefficients(*call))
    for p, bits in itertools.islice(_working_precision_forms(5004), 300):
        try:
            sylvester_decompose(p, bits)
        except PrecisionError:  # the float seeds or the isolation cannot tell two roots apart
            pass
    monkeypatch.setattr(apolarity, "_coefficients", coefficients)
    calls = [call for call in calls if not all(pt.exact for pt in call[0])]
    rng = random.Random(5005)
    for points, *rest in calls[::3]:
        bits = rest[-1]
        with mpmath.workprec(4096):
            moved = [pt if pt.exact else apolarity.SupportPoint(
                pt.alpha + rng.choice([1, -1, 1j, -1j]) * mpmath.ldexp(1, mpmath.mag(pt.alpha) - bits // 2
                                                                       - rng.randint(-4, 24)),
                pt.beta, exact=False, radius=pt.radius) for pt in points]
        calls.append((moved, *rest))
    for _ in range(8):
        c, bits = rng.randint(2, 50), rng.choice([53, 96])
        zero, root = (apolarity.SupportPoint(mpmath.mpc(z), mpmath.mpf(1), exact=False, radius=2.0**-bits)
                      for z in (0, mpmath.sqrt(c)))
        points = [zero, root][::rng.choice([1, -1])]
        calls.append((points, 0, [-c, 0, 1], form(4, [rng.randint(1, 9) for _ in range(5)]), bits))
    routes = {"_centre_weight": [], "_interval_bound": []}
    for name, seen in routes.items():
        route = getattr(apolarity, name)
        monkeypatch.setattr(apolarity, name,
                            lambda *args, route=route, seen=seen: seen.append(route(*args)) or seen[-1])
    working = [_coefficient_certificate(call) for call in calls]
    for name in routes:
        monkeypatch.setattr(apolarity, name, lambda *args: None)
    for call, got in zip(calls, working):
        assert got == _coefficient_certificate(call), call
    ends = [got[1].split(":")[0].split(" ")[0] for got in working if got[0] is PrecisionError]
    assert len(calls) > 350 and ends.count("numeric") > 20 and ends.count("singular") == 8, (len(calls), ends)
    # both routes are taken: most values are decided at working precision, and some are not
    for (name, seen), least in zip(routes.items(), (1000, 300)):
        assert len(seen) > least and 0 < seen.count(None) < len(seen) // 10, (name, len(seen), seen.count(None))


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
