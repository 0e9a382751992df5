"""Harness tying Kronecker coefficients of long-first-row shapes to LR numbers.

For a pair of small diagrams lambda, omega with |lambda| + |omega| <= n/2,
write Lambda, Omega for the diagrams completed by a long first row to size n.
The harness checks, exhaustively per n:

  vanishing   every Sigma of n whose first row is shorter than
              n - |lambda| - |omega| has Kronecker multiplicity zero in
              Lambda tensor Omega;
  equality    for every sigma with |sigma| = |lambda| + |omega|, the
              multiplicity of the completed Sigma equals the
              Littlewood-Richardson number c^sigma_{lambda, omega}, itself
              computed by two independent routes.

Inside the stated range a violation verdict fails the suite. boundary_scan
runs the same evaluations just outside the range and only reports what it
sees; nothing is asserted there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .characters import _table, lr_checked
from .errors import DomainError, require_int
from .partitions import (
    Partition,
    format_partition,
    partitions_of,
    size,
    validate_partition,
)

VANISHING_OK = "vanishing-ok"
EQUALITY_OK = "equality-ok"
VIOLATION = "violation"
NO_SIGMA = "no-sigma"

BELOW_THRESHOLD = "below-threshold"

MODES = ("vanishing", "equality", "both")


@dataclass(frozen=True)
class BrionRecord:
    """One evaluated claim instance.

    For vanishing records sigma is None (serialized as "below-threshold"):
    the tested Sigma is not the completion of any small sigma. For no-sigma
    records Sigma is None: the small sigma admits no completion of size n, so
    kron and lr are not compared.
    """

    n: int
    lam: Partition
    omega: Partition
    sigma: Partition | None
    Sigma: Partition | None
    kron: int | None
    lr: int | None
    verdict: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda": format_partition(self.lam),
            "omega": format_partition(self.omega),
            "sigma": BELOW_THRESHOLD if self.sigma is None else format_partition(self.sigma),
            "Sigma": None if self.Sigma is None else format_partition(self.Sigma),
            "kron": self.kron,
            "lr": self.lr,
            "verdict": self.verdict,
        }


def _require_hypothesis(n: int, lam: Partition, omega: Partition) -> None:
    require_int("brion size n", n)
    total = size(lam) + size(omega)
    if 2 * total > n:
        raise DomainError(
            f"hypothesis violated: |lambda| + |omega| <= n/2 fails "
            f"({total} > {n}/2 for lambda={format_partition(lam)}, omega={format_partition(omega)})"
        )


def _require_stream(kind: str, n: int, mode: str) -> None:
    """The checks both generators run on their first pull, before any record."""
    require_int("brion size n", n)
    if mode not in MODES:
        raise DomainError(f"{kind} mode must be vanishing, equality, or both, got {mode!r}")


def _records(n: int, lam: Partition, omega: Partition, mode: str,
             lr_values: dict) -> Iterator[BrionRecord]:
    """The vanishing records of one pair, then its equality records, as mode selects.

    lr_values holds the LR number of each (lambda, omega, sigma) already
    checked in this stream; a triple not in it runs both routes once.
    """
    table = _table(n)
    a, b = size(lam), size(omega)
    # The callers' pairs fit under a new row n - |lam| >= lam_1, empty only at n = 0.
    big_l, big_o = ((n - a,) + lam, (n - b,) + omega) if n else ((), ())
    weighed = table.weigh(table.product(big_l, big_o))
    total = a + b
    threshold = n - total
    if mode != "equality":
        # No first row, not even the 0 of the empty Sigma, is shorter than 0.
        for big_s in partitions_of(n, threshold - 1) if threshold > 0 else ():
            value = table.weighed_multiplicity(weighed, big_s)
            yield BrionRecord(
                n=n,
                lam=lam,
                omega=omega,
                sigma=None,
                Sigma=big_s,
                kron=value,
                lr=None,
                verdict=VANISHING_OK if value == 0 else VIOLATION,
            )
    if mode != "vanishing":
        for sigma in partitions_of(total):
            # Sigma = (n - |sigma|,) + sigma needs a new row of at least sigma_1 (0 for sigma = ()).
            if threshold < (sigma[0] if sigma else 0):
                yield BrionRecord(
                    n=n,
                    lam=lam,
                    omega=omega,
                    sigma=sigma,
                    Sigma=None,
                    kron=None,
                    lr=None,
                    verdict=NO_SIGMA,
                )
                continue
            big_s = (threshold,) + sigma if threshold else ()
            kron_value = table.weighed_multiplicity(weighed, big_s)
            triple = (lam, omega, sigma)
            lr_value = lr_values.get(triple)
            if lr_value is None:
                # lr_checked is read from the module when called, so a wrapper set on it sees the call.
                lr_value = lr_values[triple] = lr_checked(lam, omega, sigma)
            yield BrionRecord(
                n=n,
                lam=lam,
                omega=omega,
                sigma=sigma,
                Sigma=big_s,
                kron=kron_value,
                lr=lr_value,
                verdict=EQUALITY_OK if kron_value == lr_value else VIOLATION,
            )


def verify_vanishing(n: int, lam: Partition, omega: Partition) -> list[BrionRecord]:
    """All short-first-row Sigma of n checked for zero multiplicity."""
    lam, omega = validate_partition(lam), validate_partition(omega)
    _require_hypothesis(n, lam, omega)
    return list(_records(n, lam, omega, "vanishing", {}))


def verify_equality(n: int, lam: Partition, omega: Partition) -> list[BrionRecord]:
    """All completions Sigma = attach_first_row(sigma, n) checked against both LR routes."""
    lam, omega = validate_partition(lam), validate_partition(omega)
    _require_hypothesis(n, lam, omega)
    return list(_records(n, lam, omega, "equality", {}))


def _scan(n: int, totals: range, mode: str, lr_values: dict) -> Iterator[BrionRecord]:
    """Records of the pairs with |lambda| + |omega| in totals whose completions exist.

    Both sizes are at most (n+1)/2 and both first rows fit under the new
    one, n - |lambda| >= lambda_1. Inside the hypothesis every pair passes.
    """
    half = (n + 1) // 2
    for total in totals:
        for a in range(max(0, total - half), min(total, half) + 1):
            for lam in partitions_of(a, n - a):
                for omega in partitions_of(total - a, n - total + a):
                    yield from _records(n, lam, omega, mode, lr_values)


def sweep(n_max: int, mode: str = "both") -> Iterator[BrionRecord]:
    """Every record for 1 <= n <= n_max inside the hypothesis, canonical order.

    Order: n ascending, then |lambda|+|omega| ascending, then |lambda|, then
    each diagram in reverse-lex order, vanishing records before equality
    records. Deterministic by construction, so repeated runs emit identical
    streams.

    LR numbers do not depend on n, so the stream checks each (lambda,
    omega, sigma) by both routes once, at the first n that reaches it, and
    reads the value again at every larger n. The values live in one dict
    local to this stream; a second sweep checks its triples afresh.
    """
    _require_stream("sweep", n_max, mode)
    lr_values: dict = {}
    for n in range(1, n_max + 1):
        yield from _scan(n, range(n // 2 + 1), mode, lr_values)


def boundary_scan(n: int, mode: str = "both") -> Iterator[BrionRecord]:
    """The same evaluations just outside the hypothesis, reported, not asserted.

    Visits pairs with |lambda| + |omega| > n/2 whose completions still exist
    and still have long first rows (|lambda| <= (n+1)/2, same for omega).
    Verdicts here are observations; no claim is made either way.
    """
    _require_stream("scan", n, mode)
    yield from _scan(n, range(n // 2 + 1, 2 * ((n + 1) // 2) + 1), mode, {})


def summarize(records) -> dict:
    """Totals for a record stream: the trailing summary object of reports."""
    counts = {VANISHING_OK: 0, EQUALITY_OK: 0, VIOLATION: 0, NO_SIGMA: 0}
    total = 0
    for r in records:
        counts[r.verdict] += 1
        total += 1
    return {
        "records": total,
        "vanishing_ok": counts[VANISHING_OK],
        "equality_ok": counts[EQUALITY_OK],
        "no_sigma": counts[NO_SIGMA],
        "violations": counts[VIOLATION],
    }
