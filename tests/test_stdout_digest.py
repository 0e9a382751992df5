"""The CLI's stdout over the benchmark plans, pinned by digest.

tests/stdout_digest.py prints one sha256 per workload and seed over the
argv, exit code, stdout and stderr of every planned operation. Each line
below was printed when that workload's output last changed on purpose; a
change to any byte the CLI prints on these plans fails here until the new
lines are pinned and the change is declared in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "stdout_digest.py"

PINNED = """\
forms seed=11 rounds=1 ops=96 sha256=98760925447f3e34cf328782759c8c86a43a3224bdd5312570ab34cb7ec6d1e0
loops seed=11 rounds=1 ops=56 sha256=2b35120f55e5c5681ad8653628ede06dd57f76216836b1b500919dedca3173cf
reps seed=11 rounds=1 ops=154 sha256=87bcfcb79da12bf757a2c31266ea82140e50efe1e6133d1cceda28ea0ee6af1e
"""


def test_cli_stdout_matches_the_pinned_digests():
    run = subprocess.run([sys.executable, str(SCRIPT), "--seeds", "11", "--rounds", "1"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == PINNED
