"""Top-level acceptance gate.

One test per shipping criterion, each printing a single PASS/FAIL line to the
terminal (straight through pytest's capture) so a run of this file reads as a
checklist. Every check is against exact arithmetic or an independently
constructed witness; nothing here trusts the module under test for its own
verdict.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from conftest import oracle_class_inner_product, oracle_power_sum_coeffs

from kronsec.apolarity import (
    form,
    join_rank_check,
    kernel_dimension,
    sample_rank_k_instance,
    secant_membership,
    sylvester_decompose,
    vandermonde_rank,
)
from kronsec.brionlab import summarize, sweep
from kronsec.characters import (
    character_table,
    lr_by_characters,
    lr_coefficient,
    mn_value,
    pieri_decompose,
    pieri_distinguished,
)
from kronsec.curvebounds import CurveContext, h0, max_admissible_k, separates_2k
from kronsec.monodromy import (
    HalfTwist,
    base_with_integer_roots,
    defining_rep_decomposition,
    spherical_word_check,
    track_roots,
)
from kronsec.partitions import attach_first_row, dimension, partitions_of
from kronsec.seminormal import build_rep, check_relations, word_cycle_type, word_trace

SEED = 20260819


@contextmanager
def criterion(capsys, num, label):
    start = time.time()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} FAIL  {label}", flush=True)
        raise
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} PASS  {label} ({elapsed:.1f}s)", flush=True)


def test_c01_sweep_to_10_has_no_violations(capsys):
    with criterion(capsys, 1, "identity sweep n<=10: zero violations"):
        counts = summarize(sweep(10))
        assert counts["records"] == 4524
        assert counts["violations"] == 0
        assert counts["no_sigma"] == 0


def test_c02_lr_routes_agree_exhaustively(capsys):
    with criterion(capsys, 2, "both LR routes agree for every |sigma| <= 8"):
        checked = 0
        for total in range(9):
            for a in range(total + 1):
                for lam in partitions_of(a):
                    for om in partitions_of(total - a):
                        for sig in partitions_of(total):
                            assert lr_coefficient(lam, om, sig) == lr_by_characters(lam, om, sig)
                            checked += 1
        assert checked == 6830


def test_c03_orthogonality_and_dimension_sums(capsys):
    with criterion(capsys, 3, "character orthogonality n<=10, dimension sums n<=8"):
        for n in range(1, 11):
            t = character_table(n)
            shapes = t.irreducibles
            sizes = [cc.cls_size for cc in t.classes]
            for i, a in enumerate(shapes):
                row_a = t.row(a)
                for b in shapes[i:]:
                    expected = 1 if a == b else 0
                    assert oracle_class_inner_product(sizes, row_a, t.row(b)) == expected
            order = factorial(n)
            for i, ci in enumerate(t.classes):
                for j, cj in enumerate(t.classes[i:], start=i):
                    total = sum(t.row(lam)[i] * t.row(lam)[j] for lam in shapes)
                    if ci.cycle_type == cj.cycle_type:
                        assert total * ci.cls_size == order
                    else:
                        assert total == 0
        for n in range(1, 9):
            assert sum(dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_c04_pieri_matches_lr_and_distinguished_is_unique(capsys):
    with criterion(capsys, 4, "row insertion = LR against one row; unique completion n<=9"):
        for n in range(1, 9):
            for k in range(min(4, n) + 1):
                for lam in partitions_of(k):
                    got = pieri_decompose(lam, n)
                    strip = n - k
                    om = (strip,) if strip else ()
                    for sig in partitions_of(n):
                        assert got.get(sig, 0) == lr_coefficient(lam, om, sig)
        for n in range(1, 10):
            for k in range((n + 1) // 2 + 1):
                for lam in partitions_of(k):
                    if 2 * k > n + 1 or (lam and n - k < lam[0]):
                        continue
                    target = pieri_distinguished(lam, n)
                    decomp = pieri_decompose(lam, n)
                    assert target == attach_first_row(lam, n)
                    assert decomp[target] == 1
                    short = [mu for mu in decomp if (mu[0] if mu else 0) <= n - k]
                    assert short == [target]


def test_c05_rank_samples_round_trip(capsys):
    with criterion(capsys, 5, "500 seeded rank-k instances certified and recovered"):
        rng = random.Random(SEED)
        for _ in range(500):
            n = rng.randrange(5, 21)
            k = rng.randrange(1, (n + 1) // 2 + 1)
            sample = sample_rank_k_instance(n, k, seed=rng.randrange(2**32))
            f = sample.form
            assert secant_membership(f, k)
            if k > 1:
                assert not secant_membership(f, k - 1)
            assert kernel_dimension(f, k) == 1
            cert = sylvester_decompose(f)
            assert cert.rank == k and cert.support_exact
            got = {(int(p.alpha), int(p.beta)): c
                   for p, c in zip(cert.support, cert.coefficients)}
            want = dict(zip(sample.points, (Fraction(w) for w in sample.coefficients)))
            assert got == want
            rebuilt = oracle_power_sum_coeffs(n, list(got), list(got.values()))
            assert tuple(rebuilt) == f.coeffs


def test_c06_vandermonde_ranks(capsys):
    with criterion(capsys, 6, "500 moment matrices have rank min(#nodes, n+1)"):
        rng = random.Random(SEED + 1)
        values = {Fraction(a, b) for a in range(-12, 13) for b in range(1, 5)}
        pool = sorted(values, key=str) + ["inf"]
        for _ in range(500):
            n = rng.randrange(1, 16)
            k = rng.randrange(1, 9)
            nodes = rng.sample(pool, min(2 * k, len(pool)))
            assert vandermonde_rank(nodes, n) == min(len(nodes), n + 1)


def test_c07_join_subadditivity_and_generic_equality(capsys):
    with criterion(capsys, 7, "500 joins subadditive; generic equality >= 95%"):
        rng = random.Random(SEED + 2)
        cohort = equal = 0
        for i in range(500):
            if i % 5 == 0:
                # raw random pair: subadditivity only
                n = rng.randrange(3, 13)
                coeffs_p = [rng.randrange(-9, 10) for _ in range(n + 1)]
                coeffs_q = [rng.randrange(-9, 10) for _ in range(n + 1)]
                if not any(coeffs_p):
                    coeffs_p[0] = 1
                if not any(coeffs_q):
                    coeffs_q[-1] = 1
                p, q = form(n, coeffs_p), form(n, coeffs_q)
            else:
                n = rng.randrange(7, 21)
                cap = (n + 1) // 2
                ka = rng.randrange(1, max(2, cap // 2 + 1))
                kb = rng.randrange(1, max(2, cap // 2 + 1))
                p = sample_rank_k_instance(n, ka, seed=rng.randrange(2**32)).form
                q = sample_rank_k_instance(n, kb, seed=rng.randrange(2**32)).form
            result = join_rank_check(p, q)
            assert result.c <= result.a + result.b
            if 2 * (result.a + result.b) <= n + 1:
                cohort += 1
                if result.c == result.a + result.b:
                    equal += 1
        assert cohort >= 100
        assert equal >= 0.95 * cohort


def test_c08_curve_bounds_exhaustive(capsys):
    with criterion(capsys, 8, "section bounds exhaustive for g<=6, n<=40"):
        for g in range(7):
            for n in range(max(0, 2 * g - 1), 41):
                ctx = CurveContext(genus=g, degree=n)
                for twist in range(n - 2 * g + 2):
                    assert h0(ctx, twist) == n - twist + 1 - g
                for k in range(0, 21):
                    assert separates_2k(ctx, k) == (2 * g - 2 - n + 2 * k < 0)
                best = max_admissible_k(ctx)
                assert best == max(0, (n + 1) // 2 - g)
                assert separates_2k(ctx, best) or best == 0
                assert not separates_2k(ctx, best + 1)


def test_c09_monodromy_group_facts(capsys):
    with criterion(capsys, 9, "relation word trivial, defining action splits, step-size stable"):
        for n in range(2, 9):
            assert spherical_word_check(n).identity
        for n in range(2, 9):
            report = defining_rep_decomposition(n, seed=SEED)
            assert report.word_checks_ok
            assert report.group_order == factorial(n)
            assert report.decomposition == {(n,): 1, (n - 1, 1): 1}
        # The continued route at three step sizes against the closed form.
        base = base_with_integer_roots(5)
        segs = (HalfTwist(2), HalfTwist(4), HalfTwist(2), HalfTwist(1))
        closed = track_roots(base, segs).permutation
        for step in (1.0 / 8, 1.0 / 16, 1.0 / 64):
            assert track_roots(base, segs, max_step=step, continued=True).permutation == closed


def test_c10_seminormal_relations_and_traces(capsys):
    with criterion(capsys, 10, "seminormal relations exact to size 6; 100 traces per shape"):
        rng = random.Random(SEED + 3)
        for n in range(2, 7):
            for lam in partitions_of(n):
                rep = build_rep(lam)
                assert check_relations(rep) == {
                    "involution": True,
                    "braid": True,
                    "commutation": True,
                }
                for _ in range(100):
                    word = [rng.randrange(1, n) for _ in range(rng.randrange(1, 2 * n + 1))]
                    expected = mn_value(lam, word_cycle_type(rep, word))
                    assert word_trace(rep, word) == expected
