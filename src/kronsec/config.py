"""Runtime limits and defaults, loadable from a key=value file.

Resolution order: built-in defaults, then the config file (the path in the
KRONSEC_CONFIG environment variable wins over an explicitly passed path),
then per-invocation command line flags on top.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import DomainError

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
# Bound on words * dim * n for `rep-check --words`, each sampled word of
# length < 2n being traced over all dim basis vectors; fixed, not a Config
# field. It admits the default 5 words at every shape of size <= 14 and
# dimension <= DEFAULT_DIM_CAP (at most 5 * 1716 * 14 = 120,120, at
# [8,1^6]). At this bound the dearest command timed,
# `rep-check "[8,1,1,1,1,1,1]" --words 6`, took 4.7 s on a 2-core host
# running at about 0.6 times the benchmark's reference speed.
WORD_WORK_CAP = 150_000
# Bound on L * n * (n + 7) * max(1, b // 96) for a monodromy command that
# tracks at most L letters over n roots at b bits; fixed, not a Config
# field. A half-twist is one letter; a coefficient circle corrects all n
# roots, so it counts as n. The model charges a half-twist for its two
# moving roots only, and its step count depends only on the distances from
# them, so two close still roots do not make one letter dear. At this
# bound, on a 2-core host running at twice the benchmark's reference speed,
# a command took 1.2 s at n = 2 (1,666 half-twists), 0.28 s at n = 14 (102
# half-twists) and 0.82 s at n = 14 (7 circles, 98 letters), at 96 bits. On
# a slower 2-core host, where the 1,666 half-twists took 2.4-3.0 s, the
# dearest admitted commands took 1.1-1.9 s at 1024 bits (one circle at
# n = 12), 1.9-2.2 s at 2048 bits (circles at n = 6 to 9) and 3.5-3.7 s at
# 4096 bits (one circle at n = 7).
LOOP_WORK_CAP = 30_000


@dataclass(frozen=True)
class Config:
    n_cap: int = DEFAULT_N_CAP
    precision_bits: int = DEFAULT_PRECISION_BITS
    sweep_cap: int = DEFAULT_SWEEP_CAP
    seed: int = 0
    output: str = "-"

    def __post_init__(self) -> None:
        if self.n_cap < 0:
            raise DomainError(f"n_cap must be nonnegative, got {self.n_cap}")
        if self.precision_bits < MIN_PRECISION_BITS:
            raise DomainError(
                f"precision_bits must be at least {MIN_PRECISION_BITS}, got {self.precision_bits}"
            )
        if self.precision_bits > MAX_PRECISION_BITS:
            raise DomainError(
                f"precision_bits must be at most {MAX_PRECISION_BITS}, got {self.precision_bits}"
            )
        if self.sweep_cap < 0:
            raise DomainError(f"sweep_cap must be nonnegative, got {self.sweep_cap}")


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
