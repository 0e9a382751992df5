"""Machine-speed calibration: a fixed kernel timed between operations.

The benchmark's host is a few cores of a shared machine, and its speed
swings by up to a factor of two over seconds as other tenants load it. Every
operation is timed as measured, and is also scaled to a reference speed:

    scaled = measured * NOMINAL_PROBE_S / median(probe times around the op)

The probe is pure Python and imports nothing from kronsec, so no change to
the package can move it; a change that makes kronsec faster makes its scaled
times smaller in the same proportion. The probe times nearest an operation
are those taken just before it and just after it, plus those of its
WINDOW neighbours on either side. Set-up samples are scaled the same way,
by the probes taken just before and after each.
"""

from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter

# The probe's median time on the reference machine (2 cores, Python 3.11.7)
# in its quieter spells. Scaled times are in seconds of that machine.
NOMINAL_PROBE_S = 1.6e-3
PROBES_PER_OP = 2
WINDOW = 1
_MODULUS = 7**500 + 12345


def probe() -> int:
    """Fixed work in the mix kronsec does: exact rational elimination, JSON, big integers."""
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    doc = json.loads(json.dumps({"rows": [[str(x) for x in row] for row in m], "k": list(range(200))}))
    x = 3**400
    for _ in range(60):
        x = x * x % _MODULUS
    return len(doc["rows"]) + x % 7


def time_probes() -> list[float]:
    """PROBES_PER_OP probe times, in seconds."""
    times = []
    for _ in range(PROBES_PER_OP):
        start = perf_counter()
        probe()
        times.append(perf_counter() - start)
    return times


def factor(probe_times: list[float]) -> float:
    """What a time measured among these probe times is multiplied by to reach the reference speed."""
    return NOMINAL_PROBE_S / statistics.median(probe_times)


def scale_factors(probes_before: list[list[float]]) -> list[float]:
    """NOMINAL_PROBE_S over the local probe median, for each operation.

    `probes_before[i]` holds the probe times taken just before operation i;
    the list has one more entry than there are operations, taken after the
    last one.
    """
    ops = len(probes_before) - 1
    factors = []
    for i in range(ops):
        window = [t for slot in probes_before[max(0, i - WINDOW):i + WINDOW + 2] for t in slot]
        factors.append(factor(window))
    return factors
