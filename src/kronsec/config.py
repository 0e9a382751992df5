"""Runtime limits and defaults, loadable from a key=value file.

Resolution order: built-in defaults, then the config file (the path in the
KRONSEC_CONFIG environment variable wins over an explicitly passed path),
then per-invocation command line flags on top.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import DomainError

ENV_VAR = "KRONSEC_CONFIG"

DEFAULT_N_CAP = 14
DEFAULT_PRECISION_BITS = 96
DEFAULT_SWEEP_CAP = 10
MIN_PRECISION_BITS = 53
# Largest seminormal dimension rep-check builds; fixed, not a Config field.
DEFAULT_DIM_CAP = 2000


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
        if self.sweep_cap < 0:
            raise DomainError(f"sweep_cap must be nonnegative, got {self.sweep_cap}")


_INT_FIELDS = ("n_cap", "precision_bits", "sweep_cap", "seed")


def parse_config_text(text: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
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
        if key in _INT_FIELDS:
            try:
                values[key] = int(value)
            except ValueError:
                raise DomainError(f"config key {key} needs an integer, got {value!r}") from None
        elif key == "output":
            values[key] = value
        else:
            raise DomainError(f"unknown config key {key!r} on line {lineno}")
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
