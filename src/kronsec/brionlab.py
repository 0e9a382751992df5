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

from .characters import kronecker, lr_checked
from .errors import DomainError
from .partitions import (
    Partition,
    attach_first_row,
    format_partition,
    partitions_of,
    size,
)

VANISHING_OK = "vanishing-ok"
EQUALITY_OK = "equality-ok"
VIOLATION = "violation"
NO_SIGMA = "no-sigma"

BELOW_THRESHOLD = "below-threshold"


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
    total = size(lam) + size(omega)
    if 2 * total > n:
        raise DomainError(
            f"hypothesis violated: |lambda| + |omega| <= n/2 fails "
            f"({total} > {n}/2 for lambda={format_partition(lam)}, omega={format_partition(omega)})"
        )
    # attach_first_row re-raises with the failing inequality named
    attach_first_row(lam, n)
    attach_first_row(omega, n)


def _vanishing_records(n: int, lam: Partition, omega: Partition) -> Iterator[BrionRecord]:
    big_l = attach_first_row(lam, n)
    big_o = attach_first_row(omega, n)
    threshold = n - size(lam) - size(omega)
    for big_s in partitions_of(n):
        first = big_s[0] if big_s else 0
        if first >= threshold:
            continue
        value = kronecker(big_l, big_o, big_s)
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


def _equality_records(n: int, lam: Partition, omega: Partition) -> Iterator[BrionRecord]:
    big_l = attach_first_row(lam, n)
    big_o = attach_first_row(omega, n)
    for sigma in partitions_of(size(lam) + size(omega)):
        try:
            big_s = attach_first_row(sigma, n)
        except DomainError:
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
        kron_value = kronecker(big_l, big_o, big_s)
        lr_value = lr_checked(lam, omega, sigma)
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
    _require_hypothesis(n, lam, omega)
    return list(_vanishing_records(n, lam, omega))


def verify_equality(n: int, lam: Partition, omega: Partition) -> list[BrionRecord]:
    """All completions Sigma = attach(sigma, n) checked against both LR routes."""
    _require_hypothesis(n, lam, omega)
    return list(_equality_records(n, lam, omega))


def _pairs_inside(n: int):
    for total in range(n // 2 + 1):
        for a in range(total + 1):
            for lam in partitions_of(a):
                for omega in partitions_of(total - a):
                    yield lam, omega


def sweep(n_max: int, mode: str = "both") -> Iterator[BrionRecord]:
    """Every record for 1 <= n <= n_max inside the hypothesis, canonical order.

    Order: n ascending, then |lambda|+|omega| ascending, then |lambda|, then
    each diagram in reverse-lex order, vanishing records before equality
    records. Deterministic by construction, so repeated runs emit identical
    streams.
    """
    if mode not in ("vanishing", "equality", "both"):
        raise DomainError(f"sweep mode must be vanishing, equality, or both, got {mode!r}")
    for n in range(1, n_max + 1):
        for lam, omega in _pairs_inside(n):
            if mode in ("vanishing", "both"):
                yield from _vanishing_records(n, lam, omega)
            if mode in ("equality", "both"):
                yield from _equality_records(n, lam, omega)


def boundary_scan(n: int, mode: str = "both") -> Iterator[BrionRecord]:
    """The same evaluations just outside the hypothesis, reported, not asserted.

    Visits pairs with |lambda| + |omega| > n/2 whose completions still exist
    and still have long first rows (|lambda| <= (n+1)/2, same for omega).
    Verdicts here are observations; no claim is made either way.
    """
    if mode not in ("vanishing", "equality", "both"):
        raise DomainError(f"scan mode must be vanishing, equality, or both, got {mode!r}")
    half = (n + 1) // 2
    for total in range(n // 2 + 1, 2 * half + 1):
        for a in range(total + 1):
            b = total - a
            if a > half or b > half:
                continue
            for lam in partitions_of(a):
                if lam and n - a < lam[0]:
                    continue
                for omega in partitions_of(b):
                    if omega and n - b < omega[0]:
                        continue
                    if mode in ("vanishing", "both"):
                        yield from _vanishing_records(n, lam, omega)
                    if mode in ("equality", "both"):
                        yield from _equality_records(n, lam, omega)


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
