"""Independent reference computations for checking kronsec answers.

Nothing here imports kronsec. Each routine reaches its answer by a route of
its own: characters by removing rim hooks from the diagram (the package
works on beta numbers), ranks of catalecticants over GF(p) built by direct
differentiation, power sums expanded term by term, and permutations
composed letter by letter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

MERSENNE_61 = 2**61 - 1


# --- partitions --------------------------------------------------------------

@cache
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n in reverse lexicographic order, (n) first."""
    if largest is None:
        largest = n
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(n, largest), 0, -1)
                 for rest in partitions(n - first, first))


def fmt(lam) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def parse(text: str) -> tuple[int, ...]:
    body = text.strip()[1:-1].strip()
    return tuple(int(p) for p in body.split(",")) if body else ()


def conjugate(lam) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def syt_count(lam) -> int:
    """Standard tableaux counted by n! over the hook product."""
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(lam)) // hooks


@cache
def class_size(mu) -> int:
    centralizer = 1
    for part in set(mu):
        m = mu.count(part)
        centralizer *= part**m * factorial(m)
    return factorial(sum(mu)) // centralizer


# --- characters by rim-hook removal on the diagram -----------------------------

def _rim_hooks(lam, r):
    """(sign, smaller shape) for every rim hook of length r in lam."""
    conj = conjugate(lam)
    for i, row in enumerate(lam):
        for j in range(row):
            leg = conj[j] - i - 1
            if (row - j - 1) + leg + 1 != r:
                continue
            rows = list(lam)
            for t in range(i, i + leg):
                rows[t] = lam[t + 1] - 1
            rows[i + leg] = j
            yield (-1) ** leg, tuple(p for p in rows if p)


class CharacterOracle:
    """Irreducible S_n characters chi^lam(mu), memoised per instance."""

    def __init__(self):
        self._memo: dict = {}
        self._tables: dict = {}

    def chi(self, lam, mu) -> int:
        if not lam:
            return 1
        key = (lam, mu)
        value = self._memo.get(key)
        if value is None:
            value = sum(sign * self.chi(rest, mu[1:]) for sign, rest in _rim_hooks(lam, mu[0]))
            self._memo[key] = value
        return value

    def table(self, n: int) -> dict:
        """{lam: {mu: chi}} over all partitions of n."""
        if n not in self._tables:
            shapes = partitions(n)
            self._tables[n] = {lam: {mu: self.chi(lam, mu) for mu in shapes} for lam in shapes}
        return self._tables[n]

    def kronecker(self, lam, om, sig) -> int:
        n = sum(lam)
        t = self.table(n)
        total = sum(class_size(mu) * t[lam][mu] * t[om][mu] * t[sig][mu] for mu in partitions(n))
        return total // factorial(n)

    def lr(self, lam, om, sig) -> int:
        """c^sig_{lam,om} as the restriction inner product to S_k x S_m."""
        k, m = sum(lam), sum(om)
        total = 0
        for mu in partitions(k):
            a = self.chi(lam, mu)
            if not a:
                continue
            for nu in partitions(m):
                b = self.chi(om, nu)
                if b:
                    joint = tuple(sorted(mu + nu, reverse=True))
                    total += class_size(mu) * class_size(nu) * a * b * self.chi(sig, joint)
        return total // (factorial(k) * factorial(m))


def brion_sweep_totals(n_max: int) -> tuple[int, int]:
    """(vanishing, equality) record counts of the identity sweep up to n_max.

    Counted from the definitions: for each n and each pair |lam| + |om| <= n/2,
    one vanishing record per Sigma of n with first row below n - |lam| - |om|,
    and one equality record per sigma of |lam| + |om|.
    """
    vanishing = equality = 0
    for n in range(1, n_max + 1):
        shapes = partitions(n)
        for total in range(n // 2 + 1):
            pairs = sum(len(partitions(a)) * len(partitions(total - a)) for a in range(total + 1))
            short = sum(1 for s in shapes if s[0] < n - total)
            vanishing += pairs * short
            equality += pairs * len(partitions(total))
    return vanishing, equality


# --- binary forms ------------------------------------------------------------

def power_sum(n: int, points, weights) -> list:
    """Coefficients of sum_i w_i (a_i x + b_i y)^n, term by term."""
    coeffs = [0] * (n + 1)
    for (a, b), w in zip(points, weights):
        for j in range(n + 1):
            coeffs[j] += w * comb(n, j) * a ** (n - j) * b**j
    return coeffs


def _falling(x: int, m: int) -> int:
    out = 1
    for t in range(m):
        out *= x - t
    return out


def apply_operator(q, p) -> list[Fraction]:
    """q(d/dx, d/dy) p by differentiating one monomial pair at a time."""
    k, n = len(q) - 1, len(p) - 1
    out = [Fraction(0)] * (n - k + 1)
    for j, b in enumerate(q):
        if not b:
            continue
        for i, a in enumerate(p):
            if a and n - i >= k - j and i >= j:
                out[i - j] += Fraction(b) * Fraction(a) * _falling(n - i, k - j) * _falling(i, j)
    return out


def _mod_p(x: Fraction, p: int) -> int:
    return x.numerator % p * pow(x.denominator % p, -1, p) % p


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def kernel_dimension_mod_p(coeffs, d: int, p: int = MERSENNE_61) -> int:
    """dim of the degree-d operators killing the form, computed over GF(p).

    Column j is (d/dx)^(d-j) (d/dy)^j applied to the form. The rank over
    GF(p) never exceeds the rank over Q, so this is an upper bound that is
    exact unless p divides every maximal nonzero minor.
    """
    cols = []
    for j in range(d + 1):
        q = [0] * (d + 1)
        q[j] = 1
        cols.append([_mod_p(v, p) for v in apply_operator(q, coeffs)])
    rows = [list(r) for r in zip(*cols)]
    return d + 1 - _rank_mod_p(rows, p)


def apolar_degree_mod_p(coeffs) -> int:
    """Smallest d whose catalecticant has a kernel."""
    n = len(coeffs) - 1
    return next(d for d in range(1, n + 1) if kernel_dimension_mod_p(coeffs, d) > 0)


def normalized_support(points, weights, n: int) -> dict:
    """{(p, q) coprime with q > 0, or (1, 0): weight} for sum w (a x + b y)^n."""
    out = {}
    for (a, b), w in zip(points, weights):
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            key, scale = (1, 0), a
        else:
            t = a / b
            key, scale = (t.numerator, t.denominator), b / t.denominator
        out[key] = out.get(key, 0) + Fraction(w) * scale**n
    return out


def parse_complex(text) -> complex:
    return complex(str(text).replace(" ", ""))


def numeric_reconstruction_ok(n: int, points, weights, target, error_bound: float) -> bool:
    """Rebuild the form in floating point and compare within the stated bound.

    The slack on each coefficient is error_bound plus a relative 1e-9 of the
    sum of absolute values of its terms, which covers rounding of the
    printed support and weights.
    """
    for j in range(n + 1):
        terms = [w * comb(n, j) * a ** (n - j) * b**j for (a, b), w in zip(points, weights)]
        slack = error_bound + 1e-9 * (sum(abs(t) for t in terms) + abs(float(target[j])))
        if abs(sum(terms) - float(target[j])) > slack:
            return False
    return True


# --- permutations ------------------------------------------------------------

def transposition(n: int, i: int) -> tuple[int, ...]:
    """(i i+1) in 1-based labels, as a 0-based image tuple."""
    p = list(range(n))
    p[i - 1], p[i] = i, i - 1
    return tuple(p)


def after(p, q) -> tuple[int, ...]:
    """p applied after q."""
    return tuple(p[q[i]] for i in range(len(q)))


def word_permutation(n: int, word) -> tuple[int, ...]:
    """Root permutation of generator loops tracked one after another."""
    perm = tuple(range(n))
    for letter in word:
        perm = after(transposition(n, letter), perm)
    return perm


def cycle_string(perm) -> str:
    """1-based cycles with fixed points left out; "()" for the identity."""
    seen, parts = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j + 1)
            j = perm[j]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"
