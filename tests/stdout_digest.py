"""Digest of the CLI's output over the benchmark plans.

Usage, from the repository root:

    python3 tests/stdout_digest.py [--workloads forms loops reps] [--seeds 11 21] [--rounds 2]

Builds each plan with perfbench.plans.build, runs every operation through
kronsec.cli.main in this process, with the package's functools caches
emptied before each one as a fresh `kronsec` call would have them, and
prints one line per workload and seed: the sha256 over the argv, exit code,
stdout and stderr of every operation, in plan order. Two checkouts that
print the same lines gave byte-identical CLI output on those plans. The
script only reads perfbench/ and writes nothing; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from kronsec import cli  # noqa: E402
from perfbench import oracles, plans  # noqa: E402


def _caches():
    return [value for name, mod in sys.modules.items() if name.startswith("kronsec.")
            for value in vars(mod).values() if hasattr(value, "cache_clear") and hasattr(value, "cache_info")]


def run_op(argv) -> str:
    """The JSON record [argv, exit code, stdout, stderr] of one CLI call."""
    for cache in _caches():
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return json.dumps([argv, code, out.getvalue(), err.getvalue()])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=("forms", "loops", "reps"),
                        default=["forms", "loops", "reps"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[11, 21])
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            total = hashlib.sha256()
            ops = plans.build(workload, seed, args.rounds, oracles.CharacterOracle())
            for op in ops:
                total.update(run_op(op.argv).encode() + b"\n")
            print(f"{workload} seed={seed} rounds={args.rounds} ops={len(ops)} sha256={total.hexdigest()}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
