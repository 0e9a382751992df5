"""kronsec benchmark: seeded closed-loop workloads through kronsec.cli.main.

Usage, from the repository root:

    python3 perfbench/run.py --workload forms|loops|reps --seed N --seconds S --trace 0|1

One client runs one operation at a time, in process, with the package's
memo caches emptied before each operation as a fresh `kronsec` call would
have them. Answers are checked after the timed plan by the oracles in
perfbench/oracles.py. Operation and set-up times are scaled to a reference
machine speed by the calibration probes of perfbench/calibrate.py; the raw
times are in the detail line. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))
from perfbench import calibrate, oracles, plans  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

WORKLOADS = ("forms", "loops", "reps")
# Seconds one round of each workload takes untraced on the reference
# machine (2 cores, Python 3.11.7, mpmath 1.3.0 pure-Python backend). The
# plan has round(seconds / ROUND_SECONDS) rounds, at least one, so a seed and
# a run length fix the operations exactly.
ROUND_SECONDS = {"forms": 16.5, "loops": 15.0, "reps": 25.0}
OP_CAP_S = 20.0  # an operation past this is stopped and counted as a timeout
RUN_BUDGET_S = 150.0  # operations not started by then are left out of the run
# Set-up is timed this many times, spread evenly over the plan: the speed
# of the machine drifts over seconds, and samples taken back to back would
# all see one state of it.
SETUP_SAMPLES = 9


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation; not an Exception, so kronsec cannot catch it."""


def _alarm(signum, frame):
    raise OpTimeout


def _caches(kronsec_modules):
    """Every functools cache in the package, keyed by "<module>.<function>"."""
    found = {}
    for mod in kronsec_modules:
        for value in vars(mod).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"] = value
    return found


class CacheStats:
    """Hits, misses and the largest size of each cache, summed over operations."""

    def __init__(self, caches):
        self.caches = caches
        self.hits = dict.fromkeys(caches, 0)
        self.misses = dict.fromkeys(caches, 0)
        self.peak = dict.fromkeys(caches, 0)

    def collect_and_clear(self):
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            self.peak[name] = max(self.peak[name], info.currsize)
            fn.cache_clear()


def run_plan(cli, ops, caches: CacheStats, deadline: float, between=None) -> list[dict]:
    """Run every op in order; record outcome, stdout and duration of each.

    Each duration is kept as measured ("seconds") and scaled to the
    reference speed by the calibration probes timed around it ("scaled").
    `between(i)`, when given, runs before op i, outside its timing.
    """
    results = []
    probes = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for _ in range(10):  # warm-up
            calibrate.probe()
        for i, op in enumerate(ops):
            if time.perf_counter() > deadline:
                break
            if between is not None:
                between(i)
            caches.collect_and_clear()
            gc.collect()
            probes.append(calibrate.time_probes())
            out, err = io.StringIO(), io.StringIO()
            outcome = None
            start = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = cli.main(op.argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if rc != 0:
                    kind = json.loads(err.getvalue().splitlines()[-1]).get("error", "error")
                    outcome = f"typed:{kind}"
            except OpTimeout:
                outcome = "timeout"
            except Exception as exc:  # a traceback escaping the CLI is the failure being counted
                outcome = f"crash:{type(exc).__name__}"
            elapsed = time.perf_counter() - start
            results.append({"op": op, "seconds": elapsed, "outcome": outcome, "stdout": out.getvalue()})
        caches.collect_and_clear()
        gc.collect()
        probes.append(calibrate.time_probes())
    finally:
        signal.signal(signal.SIGALRM, previous)
    for r, factor in zip(results, calibrate.scale_factors(probes)):
        r["scaled"] = r["seconds"] * factor
    return results


def verify(results) -> None:
    """Fill in the outcome of every op that returned: right, or wrong."""
    for r in results:
        if r["outcome"] is None:
            try:
                reason = r["op"].check(r["stdout"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
            r["outcome"] = "ok" if reason is None else "wrong"
            r["reason"] = reason
        r["stdout"] = None


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(results) -> dict:
    """Counts and the timing figures, scaled to the reference speed; raw ones with a raw_ prefix."""
    times = [r["scaled"] for r in results]
    raw = [r["seconds"] for r in results]
    ok = sum(1 for r in results if r["outcome"] == "ok")
    failures = {}
    for r in results:
        if r["outcome"] != "ok":
            failures[r["outcome"]] = failures.get(r["outcome"], 0) + 1
    return {
        "attempted": len(results),
        "ok": ok,
        "failures": dict(sorted(failures.items())),
        "wrong": [f"{r['op'].kind} {' '.join(r['op'].argv)[:200]}: {r['reason']}"
                  for r in results if r["outcome"] == "wrong"][:5],
        "op_time_s": sum(times),
        "ok_per_s": ok / sum(times),
        "op_ms_p50": 1000 * statistics.median(times),
        "op_ms_p90": 1000 * percentile(times, 0.9),
        "raw_op_time_s": sum(raw),
        "raw_ok_per_s": ok / sum(raw),
        "raw_op_ms_p50": 1000 * statistics.median(raw),
        "raw_op_ms_p90": 1000 * percentile(raw, 0.9),
        "p90_tail_samples": len(times) - math.ceil(0.9 * len(times)),
        "fail_frac": (len(results) - ok) / len(results),
        "ok_frac": ok / len(results),
    }


def time_setup() -> float:
    """Wall time of a fresh interpreter importing kronsec."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import kronsec"]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start


def layer_metrics(tracer: Tracer, caches: CacheStats) -> dict:
    """The per-layer readings named in BENCHMARK.json, from spans and caches."""
    m = {}
    calls_and_self = [
        "cli.main", "apolarity.sylvester_decompose", "apolarity.min_apolar_degree",
        "apolarity.catalecticant", "ratmat.rref", "ratmat.mat_mul", "mpmath.polyroots",
        "mpmath.polyval", "mpmath.lu_solve", "monodromy.track_roots", "permutations.generated_group",
        "characters.character_table", "characters.kronecker", "characters.tensor_decompose",
        "characters.lr_checked", "seminormal.build_rep", "seminormal.check_relations",
        "seminormal.spherical_relation_image", "seminormal.word_trace",
    ]
    for name in calls_and_self:
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    for name in ["apolarity.kernel_dimension", "apolarity.join_rank_check", "ratmat.rank",
                 "ratmat.kernel_basis", "ratmat.solve"]:
        m[f"{name}.calls"] = tracer.calls(name)
    for name in ["monodromy.defining_rep_decomposition", "characters.lr_coefficient",
                 "characters.lr_by_characters", "brionlab.sweep", "brionlab.boundary_scan"]:
        m[f"{name}.self_s"] = tracer.self_s(name)
    counts = tracer.counts
    m["ratmat.rref.cells"] = counts.get("ratmat.rref.cells", 0)
    m["ratmat.mat_mul.mults"] = counts.get("ratmat.mat_mul.mults", 0)
    steps = counts.get("monodromy.track_roots.steps", 0)
    halvings = counts.get("monodromy.track_roots.halvings", 0)
    m["monodromy.steps"] = steps
    m["monodromy.halvings"] = halvings
    m["monodromy.step_accept_ratio"] = steps / (steps + halvings) if steps + halvings else 0.0
    hits, misses = caches.hits["characters.mn_value"], caches.misses["characters.mn_value"]
    m["characters.mn_value.hits"] = hits
    m["characters.mn_value.misses"] = misses
    m["characters.mn_value.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["characters.mn_value.currsize"] = caches.peak["characters.mn_value"]
    m["partitions.partitions_of.hits"] = caches.hits["partitions.partitions_of"]
    m["partitions.partitions_of.misses"] = caches.misses["partitions.partitions_of"]
    m["seminormal.dim_total"] = counts.get("seminormal.build_rep.dim", 0)
    m["brionlab.records"] = (counts.get("brionlab.sweep.records", 0)
                             + counts.get("brionlab.boundary_scan.records", 0))
    return m


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("ok_per_s_delta"):
        return "1/s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "kronsec" / "__init__.py").is_file():
        sys.stderr.write(f"kronsec sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import kronsec
    from kronsec import cli

    if Path(kronsec.__file__).resolve().parent != SRC / "kronsec":
        sys.stderr.write(f"imported kronsec from {kronsec.__file__}, not from {SRC}\n")
        return 2

    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    chars = oracles.CharacterOracle()
    ops = plans.build(args.workload, args.seed, rounds, chars)
    modules = [m for name, m in sys.modules.items() if name.startswith("kronsec.")]
    deadline = started + RUN_BUDGET_S

    setup_samples, raw_setup_samples = [], []
    between = None
    if not args.trace:
        time_setup()  # warm-up: writes the bytecode caches
        stride = max(1, len(ops) // SETUP_SAMPLES)

        def between(i):
            if i % stride == 0 and len(setup_samples) < SETUP_SAMPLES:
                before = calibrate.time_probes()
                seconds = time_setup()
                raw_setup_samples.append(seconds)
                setup_samples.append(seconds * calibrate.factor(before + calibrate.time_probes()))

    results = run_plan(cli, ops, CacheStats(_caches(modules)), deadline, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verify(results)
    summary = summarize(results)

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
              "planned": len(ops), **summary}
    if args.trace:
        caches = CacheStats(_caches(modules))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_plan(cli, ops, caches, deadline)
        finally:
            tracer.uninstall()
        verify(traced)
        traced_summary = summarize(traced)
        metrics = layer_metrics(tracer, caches)
        metrics["trace.ok_per_s_delta"] = traced_summary["ok_per_s"] - summary["ok_per_s"]
        detail["traced"] = traced_summary
        detail["trace_overhead_ok_per_s"] = metrics["trace.ok_per_s_delta"]
        summary = traced_summary
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {
            "ok_per_s": summary["ok_per_s"],
            "op_ms_p50": summary["op_ms_p50"],
            "op_ms_p90": summary["op_ms_p90"],
            "ok_frac": summary["ok_frac"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"ok_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ok_frac": "ratio",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        detail["fail_frac"] = {"value": summary["fail_frac"], "unit": "ratio"}
        detail["raw_setup_s"] = statistics.median(raw_setup_samples)
    detail["wall_s"] = time.perf_counter() - started
    print(json.dumps(detail))
    wrong = summary["failures"].get("wrong", 0)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": summary["attempted"],
        "failed": summary["attempted"] - summary["ok"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
