"""Seeded operation plans for the three workloads, each op with its own check.

A plan is a list of rounds. Every round of a workload has the same slots
(operation kind and size); the seed only picks the values inside each slot,
so two seeds give inputs of the same shape and cost. An op is a kronsec
command line plus a check that reads the command's stdout and returns None
when the answer is right, or the reason it is wrong.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import oracles as o


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[str], "str | None"]


# --- forms -------------------------------------------------------------------

POINTS = [(1, 0)] + [(a, b) for b in range(1, 5) for a in range(-8, 9) if math.gcd(a, b) == 1]
WEIGHTS = [c for c in range(-9, 10) if c]
EXACT_DEGREES = range(5, 61, 5)
GENERIC_DEGREES = range(2, 33, 3)
NONSQUAREFREE_DEGREES = (6, 12, 18, 24)
# Group sizes that keep the percentiles inside groups of ops of nearly one
# cost, so they hold steady from seed to seed: the median falls among the
# joins, with as many cheaper ops (vdm) below them as dearer ops above, and
# the 90th percentile among the rank-15 forms of degree 35 and 40 and the
# generic forms of degree 26, just below the six dearest ops of a round.
JOINS = 16
VDMS = 21
EXTRA_RANK_15_AT_40 = 2


def _form_text(coeffs) -> str:
    return f"deg={len(coeffs) - 1}; coeffs=" + ",".join(str(c) for c in coeffs)


def _form_coeffs(text: str) -> list[Fraction]:
    return [Fraction(c) for c in text.split("coeffs=")[1].split(",")]


def _rank_k(rng, n, k, avoid=()):
    pts = rng.sample([p for p in POINTS if p not in avoid], k)
    weights = [rng.choice(WEIGHTS) for _ in pts]
    return pts, weights, o.power_sum(n, pts, weights)


def _random_form(rng, n):
    coeffs = [rng.randrange(-9, 10) for _ in range(n + 1)]
    if not any(coeffs):
        coeffs[0] = 1
    return coeffs


def _check_certificate(d, coeffs, kernel_degree) -> str | None:
    """Verdict on a sylvester certificate for a form of known kernel degree."""
    n = len(coeffs) - 1
    if _form_coeffs(d["form"]) != coeffs:
        return "form echoed wrong"
    if d["kernel_degree"] != kernel_degree or not d["member"]:
        return f"kernel degree {d['kernel_degree']}, expected {kernel_degree}"
    ann = _form_coeffs(d["annihilator"])
    if len(ann) != kernel_degree + 1 or any(o.apply_operator(ann, coeffs)):
        return "annihilator is not apolar to the form"
    if d["support"] is None:
        return None if d["rank"] == n - kernel_degree + 2 else "rank off Sylvester's alternative"
    if d["rank"] != kernel_degree or len(d["support"]) != kernel_degree:
        return "squarefree annihilator but rank differs from its degree"
    if d["support_exact"]:
        pts = [(Fraction(s["alpha"]), Fraction(s["beta"])) for s in d["support"]]
        weights = [Fraction(c) for c in d["coefficients"]]
        return None if o.power_sum(n, pts, weights) == coeffs else "power sums do not rebuild the form"
    pts = [(o.parse_complex(s["alpha"]), o.parse_complex(s["beta"])) for s in d["support"]]
    weights = [o.parse_complex(c) for c in d["coefficients"]]
    if not o.numeric_reconstruction_ok(n, pts, weights, coeffs, d["error_bound"]):
        return "numeric support does not rebuild the form within error_bound"
    return None


def sylvester_exact(rng, n, k) -> Op:
    pts, weights, coeffs = _rank_k(rng, n, k)
    hidden = o.normalized_support(pts, weights, n)

    def check(out):
        d = json.loads(out)
        verdict = _check_certificate(d, coeffs, k)
        if verdict or not d["support_exact"]:
            return verdict or "rational support reported as approximate"
        got = [(Fraction(s["alpha"]), Fraction(s["beta"])) for s in d["support"]]
        if o.normalized_support(got, [Fraction(c) for c in d["coefficients"]], n) != hidden:
            return "support differs from the unique hidden decomposition"
        return None

    return Op("sylvester-exact", ["sylvester", _form_text(coeffs)], check)


def sylvester_generic(rng, n) -> Op:
    coeffs = _random_form(rng, n)
    return Op("sylvester-generic", ["sylvester", _form_text(coeffs)],
              lambda out: _check_certificate(json.loads(out), coeffs, o.apolar_degree_mod_p(coeffs)))


def sylvester_nonsquarefree(rng, n) -> Op:
    """l1^(n-j) l2^j with j < n/2: unique annihilator of degree j+1, rank n-j+1."""
    j = max(1, n // 4)
    while True:
        a, b, c, e = (rng.randrange(-3, 4) for _ in range(4))
        if a * e - b * c:
            break
    coeffs = _product_of_powers(n, (a, b), (c, e), j)

    def check(out):
        d = json.loads(out)
        if d["support"] is not None:
            return "squarefree support reported for a form with a repeated factor"
        return _check_certificate(d, coeffs, j + 1)

    return Op("sylvester-nonsquarefree", ["sylvester", _form_text(coeffs)], check)


def _product_of_powers(n, l1, l2, j):
    coeffs = [1]
    for alpha, beta in [l1] * (n - j) + [l2] * j:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * alpha
            nxt[i + 1] += c * beta
        coeffs = nxt
    return coeffs


def join_pair(rng, n, a=None, b=None) -> Op:
    """As acceptance criterion c07: a raw random pair, or forms of ranks a and b."""
    if a is None:
        p, q = _random_form(rng, n), _random_form(rng, n)
    else:
        pts_p, _, p = _rank_k(rng, n, a)
        _, _, q = _rank_k(rng, n, b, avoid=pts_p)

    def check(out):
        d = json.loads(out)
        want_a = a or o.apolar_degree_mod_p(p)
        want_b = b or o.apolar_degree_mod_p(q)
        total = [x + y for x, y in zip(p, q)]
        zero = not any(total)
        want_c = 0 if zero else o.apolar_degree_mod_p(total)
        if (d["a"], d["b"], d["c"], d["sum_is_zero"]) != (want_a, want_b, want_c, zero):
            return f"join {d} expected a={want_a} b={want_b} c={want_c} zero={zero}"
        return None

    return Op("join", ["join", _form_text(p), _form_text(q)], check)


def secant(rng, n, k, d) -> Op:
    _, _, coeffs = _rank_k(rng, n, k)
    # k distinct points with k <= d + 1: rank C_d = min(k, n - d + 1)
    dim = d + 1 - min(k, n - d + 1)

    def check(out):
        got = json.loads(out)
        want = {"member": dim > 0, "kernel_dimension": dim}
        return None if got == want else f"secant {got}, expected {want}"

    return Op("secant", ["secant", _form_text(coeffs), str(d)], check)


NODE_VALUES = sorted({Fraction(a, b) for a in range(-12, 13) for b in range(1, 5)})


def vdm(rng, m, degree) -> Op:
    pool = [str(v) if v.denominator > 1 else v.numerator for v in NODE_VALUES] + ["inf"]
    nodes = rng.sample(pool, m)
    want = min(m, degree + 1)
    return Op("vdm", ["vdm", json.dumps(nodes), str(degree)],
              lambda out: None if json.loads(out) == {"rank": want} else f"rank {out.strip()}, expected {want}")


def forms_round(rng) -> list[Op]:
    ops = []
    for n in EXACT_DEGREES:
        k_hi = min(15, (n + 1) // 2)
        ops += [sylvester_exact(rng, n, k_hi), sylvester_exact(rng, n, max(1, k_hi // 3))]
    ops += [sylvester_exact(rng, 40, 15) for _ in range(EXTRA_RANK_15_AT_40)]
    ops += [sylvester_generic(rng, n) for n in GENERIC_DEGREES]
    ops += [sylvester_nonsquarefree(rng, n) for n in NONSQUAREFREE_DEGREES]
    ops += [join_pair(rng, n) for n in (6, 11)]
    ops += [join_pair(rng, 12 + i % 5, 1 + i % 3, 1 + i // 3 % 3) for i in range(JOINS)]
    ops += [secant(rng, 9 + 7 * i // 5, 2 + 8 * i // 15, 2 + 8 * i // 15 + i % 3 - 1) for i in range(16)]
    ops += [vdm(rng, 2 + 7 * i % 15, 1 + 5 * i % 15) for i in range(VDMS)]
    rng.shuffle(ops)
    return ops


# --- loops -------------------------------------------------------------------

GENERATOR_SIZES = range(3, 9)
SPHERICAL_SIZES = range(2, 9)
# Seeded words as (n, length, count). Short words cost about what the
# n = 7, 8 generator loops cost, so the median falls in one dense group; the
# long words form the group that holds the 90th percentile, below the
# spherical words of n = 6..8.
RANDOM_WORDS = ((4, 3, 10), (6, 6, 10))


def _loop_check(n, perm):
    def check(out):
        d = json.loads(out)
        if tuple(d["zero_based"]) != perm or d["permutation"] != o.cycle_string(perm):
            return f"loop gave {d['zero_based']}, expected {list(perm)}"
        return None

    return check


def generator_loop(n, i) -> Op:
    return Op("generator", ["monodromy", "--word", str(i), "--n", str(n)],
              _loop_check(n, o.transposition(n, i)))


def random_word(rng, n, length) -> Op:
    word = [rng.randrange(1, n) for _ in range(length)]
    return Op("word", ["monodromy", "--word", ",".join(map(str, word)), "--n", str(n)],
              _loop_check(n, o.word_permutation(n, word)))


def spherical(n) -> Op:
    ident = _loop_check(n, tuple(range(n)))

    def check(out):
        return ident(out) or (None if json.loads(out)["identity"] else "identity flag false")

    return Op("spherical", ["monodromy", "--spherical", "--n", str(n)], check)


def defining(rng, n=4, samples=2) -> Op:
    want = {
        "generators": [o.cycle_string(o.transposition(n, i)) for i in range(1, n)],
        "word_checks_ok": True,
        "group_order": math.factorial(n),
        "decomposition": {o.fmt((n,)): 1, o.fmt((n - 1, 1)): 1},
    }

    def check(out):
        d = json.loads(out)
        return None if all(d[key] == value for key, value in want.items()) else f"defining run gave {d}"

    return Op("defining", ["--seed", str(rng.randrange(2**31)), "monodromy", "--defining",
                           "--n", str(n), "--samples", str(samples)], check)


def coefficient_circle(rng) -> Op:
    """z^n - c with coefficient 0 carried once around its circle: roots shift one place.

    The angle of c keeps the real parts of the roots well apart, so sorting
    the base roots by real part is not decided by rounding.
    """
    n = rng.randrange(2, 6)
    while True:
        c = rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0.2, 0.8) * math.pi)
        roots = [abs(c) ** (1 / n) * cmath.exp(1j * (cmath.phase(c) + 2 * math.pi * j) / n)
                 for j in range(n)]
        order = sorted(range(n), key=lambda j: (roots[j].real, roots[j].imag))
        reals = sorted(r.real for r in roots)
        if min(b - a for a, b in zip(reals, reals[1:])) > 0.05:
            break
    position = {j: pos for pos, j in enumerate(order)}
    perm = tuple(position[(order[pos] + 1) % n] for pos in range(n))
    spec = {"base": [[-c.real, -c.imag]] + [0] * (n - 1) + [1],
            "segments": [f"circle(0, {abs(c)!r})"]}
    return Op("circle", ["monodromy", "--spec", json.dumps(spec)], _loop_check(n, perm))


def loops_round(rng) -> list[Op]:
    ops = [generator_loop(n, i) for n in GENERATOR_SIZES for i in range(1, n)]
    ops += [random_word(rng, n, length) for n, length, count in RANDOM_WORDS for _ in range(count)]
    ops += [spherical(n) for n in SPHERICAL_SIZES]
    ops += [defining(rng), coefficient_circle(rng)]
    rng.shuffle(ops)
    return ops


# --- reps --------------------------------------------------------------------

CHARTABLE_SIZES = range(1, 15)
# kron and tensor queries per n. Their cost is mostly the character table
# of S_n, so queries at one n cost nearly the same; the n = 11 group is
# sized so that the median latency of the workload falls inside it.
KRON_PER_N = {9: 2, 10: 3, 11: 12, 12: 4, 13: 6, 14: 8}
TENSOR_PER_N = {9: 2, 10: 3, 11: 8, 12: 4, 13: 4, 14: 6}
LR_COUNT = 10
SWEEP_N = 10
REP_CHECK_MAX_N = 8
REP_CHECK_WORDS = 5


def chartable(chars: o.CharacterOracle, n) -> Op:
    def check(out):
        d = json.loads(out)
        shapes = o.partitions(n)
        table = chars.table(n)
        want = {"n": n, "classes": [o.fmt(mu) for mu in shapes],
                "class_sizes": [o.class_size(mu) for mu in shapes],
                "shapes": [o.fmt(lam) for lam in shapes],
                "table": [[table[lam][mu] for mu in shapes] for lam in shapes]}
        return None if d == want else f"character table of S_{n} differs"

    return Op("chartable", ["chartable", str(n)], check)


def kron(rng, chars, n) -> Op:
    lam, om, sig = (rng.choice(o.partitions(n)) for _ in range(3))

    def check(out):
        want = chars.kronecker(lam, om, sig)
        return None if json.loads(out) == {"kron": want} else f"kron {out.strip()}, expected {want}"

    return Op("kron", ["kron", o.fmt(lam), o.fmt(om), o.fmt(sig)], check)


def tensor(rng, chars, n) -> Op:
    lam, om = rng.choice(o.partitions(n)), rng.choice(o.partitions(n))

    def check(out):
        terms = {}
        for sig in o.partitions(n):
            g = chars.kronecker(lam, om, sig)
            if g:
                terms[o.fmt(sig)] = g
        d = json.loads(out)
        ok = d == {"lambda": o.fmt(lam), "omega": o.fmt(om), "terms": terms}
        return None if ok and list(d["terms"]) == list(terms) else "tensor decomposition differs"

    return Op("tensor", ["tensor", o.fmt(lam), o.fmt(om)], check)


def lr(rng, chars) -> Op:
    k, m = rng.randrange(1, 6), rng.randrange(1, 6)
    lam, om, sig = rng.choice(o.partitions(k)), rng.choice(o.partitions(m)), rng.choice(o.partitions(k + m))

    def check(out):
        want = chars.lr(lam, om, sig)
        return None if json.loads(out) == {"lr": want} else f"lr {out.strip()}, expected {want}"

    return Op("lr", ["lr", o.fmt(lam), o.fmt(om), o.fmt(sig)], check)


def _records_check(chars, lines, totals=None) -> str | None:
    """Every record recomputed; the closing summary must tally the records."""
    *records, last = [json.loads(line) for line in lines]
    tally = {"records": len(records), "vanishing_ok": 0, "equality_ok": 0, "no_sigma": 0, "violations": 0}
    key = {"vanishing-ok": "vanishing_ok", "equality-ok": "equality_ok", "no-sigma": "no_sigma",
           "violation": "violations"}
    for r in records:
        tally[key[r["verdict"]]] += 1
        lam, om = o.parse(r["lambda"]), o.parse(r["omega"])
        if r["verdict"] == "no-sigma":
            continue
        big_l = (r["n"] - sum(lam),) + lam
        big_o = (r["n"] - sum(om),) + om
        kron_value = chars.kronecker(big_l, big_o, o.parse(r["Sigma"]))
        if r["kron"] != kron_value:
            return f"record {r} has kron {r['kron']}, expected {kron_value}"
        if r["sigma"] == "below-threshold":
            verdict = "vanishing-ok" if kron_value == 0 else "violation"
        else:
            lr_value = chars.lr(lam, om, o.parse(r["sigma"]))
            if r["lr"] != lr_value:
                return f"record {r} has lr {r['lr']}, expected {lr_value}"
            verdict = "equality-ok" if kron_value == lr_value else "violation"
        if r["verdict"] != verdict:
            return f"record {r} has verdict {r['verdict']}, expected {verdict}"
    if last != {"summary": tally}:
        return f"summary {last} does not tally the records {tally}"
    if totals is not None and (tally["vanishing_ok"], tally["equality_ok"]) != totals:
        return f"sweep totals {tally} differ from the enumerated {totals}"
    return None


def brion(chars, command) -> Op:
    totals = o.brion_sweep_totals(SWEEP_N) if command == "brion-sweep" else None
    return Op(command, [command, str(SWEEP_N)],
              lambda out: _records_check(chars, out.splitlines(), totals))


def rep_check(rng, lam) -> Op:
    n = sum(lam)
    want = {"shape": o.fmt(lam), "n": n, "dim": o.syt_count(lam), "involution": True, "braid": True,
            "commutation": True, "spherical_identity": True,
            "word_samples": REP_CHECK_WORDS if n >= 2 else 0, "word_traces_ok": True}
    seed = rng.randrange(2**31)

    def check(out):
        d = json.loads(out)
        return None if d == dict(want, seed=seed) else f"rep-check gave {d}"

    return Op("rep-check", ["--seed", str(seed), "rep-check", o.fmt(lam), "--words", str(REP_CHECK_WORDS)],
              check)


def reps_round(rng, chars: o.CharacterOracle) -> list[Op]:
    ops = [chartable(chars, n) for n in CHARTABLE_SIZES]
    ops += [kron(rng, chars, n) for n, count in KRON_PER_N.items() for _ in range(count)]
    ops += [tensor(rng, chars, n) for n, count in TENSOR_PER_N.items() for _ in range(count)]
    ops += [lr(rng, chars) for _ in range(LR_COUNT)]
    ops += [brion(chars, "brion-sweep"), brion(chars, "brion-boundary")]
    ops += [rep_check(rng, lam) for n in range(1, REP_CHECK_MAX_N + 1) for lam in o.partitions(n)]
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, rounds: int, chars: o.CharacterOracle) -> list[Op]:
    ops = []
    for r in range(rounds):
        rng = random.Random(f"{workload}:{seed}:{r}")
        if workload == "forms":
            ops += forms_round(rng)
        elif workload == "loops":
            ops += loops_round(rng)
        else:
            ops += reps_round(rng, chars)
    return ops
