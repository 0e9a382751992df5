"""Runtime limits and defaults, loadable from a key=value file.

Resolution order: built-in defaults, then the config file (the path in the
KRONSEC_CONFIG environment variable wins over an explicitly passed path),
then per-invocation command line flags on top.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import DomainError, require_int, require_str

ENV_VAR = "KRONSEC_CONFIG"

DEFAULT_N_CAP = 14
DEFAULT_PRECISION_BITS = 96
DEFAULT_SWEEP_CAP = 10
MIN_PRECISION_BITS = 53
# Fixed, not a Config field. At this bound `monodromy --spherical --n 8`
# took 16 s on a 2-core host.
MAX_PRECISION_BITS = 4096
# Largest seminormal dimension rep-check builds; fixed, not a Config field.
DEFAULT_DIM_CAP = 2000
# Bound on words * dim * n for `rep-check --words`; fixed, not a Config field.
# It charges each sampled word as traced over all dim basis vectors, as only a
# build whose relations fail does; a sound build costs its O(n^2) relations,
# each one O(dim) test on the column arrays, and one trace per distinct cycle
# type. It admits the default 5 words at every shape of size <= 14 and
# dimension <= DEFAULT_DIM_CAP (at most 5 * 1716 * 14 = 120,120, at [8,1^6]).
# At this bound `rep-check "[8,1,1,1,1,1,1]" --words 6`, the dearest command
# timed, took 0.31-0.32 s as a whole process on a 2-core host, and
# `rep-check "[7,3,2]" --words 6` took 0.28-0.29 s.
WORD_WORK_CAP = 150_000
# Bound on L * n * (n + 7) * max(1, b // 96) for a monodromy command that
# tracks at most L letters over n roots at b bits; fixed, not a Config
# field. A half-twist is one letter and a coefficient circle counts as n.
# The model was fitted to half-twists continued step by step over their two
# moving roots; they are now answered in closed form after an O(n) exact
# clearance test, so what the bound limits is the circles, which correct
# all n roots at every step. At this bound, in fresh processes on a 2-core
# host, 1,666 half-twists at n = 2 and 102 at n = 14 took 0.14-0.16 s
# (1.4-1.9 s and 0.5 s continued), 7 circles at n = 14 (98 letters) took
# 1.2-1.4 s at 96 bits, and the dearest admitted circles took 0.8 s at 1024
# bits (one at n = 12), 0.8-1.1 s at 2048 bits (n = 6 to 9) and 1.3 s at
# 4096 bits (one at n = 7).
LOOP_WORK_CAP = 30_000


@dataclass(frozen=True)
class Config:
    n_cap: int = DEFAULT_N_CAP
    precision_bits: int = DEFAULT_PRECISION_BITS
    sweep_cap: int = DEFAULT_SWEEP_CAP
    seed: int = 0
    output: str = "-"

    def __post_init__(self) -> None:
        require_int("n_cap", self.n_cap)
        require_int("precision_bits", self.precision_bits, least=MIN_PRECISION_BITS, most=MAX_PRECISION_BITS)
        require_int("sweep_cap", self.sweep_cap)


def parse_config_text(text: str) -> dict:
    """key=value lines; blank lines and # comments ignored. Each key is a `Config`
    field; its value converts by the type of the field's default (int or str)."""
    types = {f.name: type(f.default) for f in fields(Config)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise DomainError(f"unknown config key {key!r} on line {lineno}")
        try:
            values[key] = types[key](value)
        except ValueError:
            raise DomainError(f"config key {key} needs an integer, got {value!r}") from None
    return values


def load_config(path: str | None = None) -> Config:
    """Defaults, overlaid with the file at KRONSEC_CONFIG or the given path."""
    if path is not None:
        require_str("config path", path)
    chosen = os.environ.get(ENV_VAR) or path
    cfg = Config()
    if chosen:
        try:
            with open(chosen, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read config file {chosen}: {exc}") from None
        cfg = replace(cfg, **parse_config_text(text))
    return cfg
