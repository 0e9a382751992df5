"""Per-layer spans recorded from outside the package.

A span is one call into a public function of a kronsec module (or of the
mpmath boundary). The tracer swaps each such function for a timing wrapper
in every module namespace that holds it, including names imported with
`from ... import`, so no call escapes its span. Self time is a span's time
minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Functions whose calls become spans, by defining module. A function left
# out adds its time to the self time of the span that called it: the dense
# word products of seminormal.evaluate_word count toward word_trace and
# spherical_relation_image. characters.mn_value recurses through its cache
# and is not wrapped; its cache statistics are read instead.
SPANNED = {
    "kronsec.cli": ["main"],
    "kronsec.apolarity": [
        "sylvester_decompose", "min_apolar_degree", "kernel_dimension", "catalecticant",
        "join_rank_check", "vandermonde_rank",
    ],
    "kronsec.ratmat": [
        "rref", "rank", "kernel_basis", "solve", "mat_mul",
    ],
    "mpmath": ["polyroots", "polyval", "lu_solve"],
    "kronsec.monodromy": ["track_roots", "defining_rep_decomposition"],
    "kronsec.permutations": ["generated_group"],
    "kronsec.characters": [
        "character_table", "kronecker", "tensor_decompose", "lr_checked", "lr_coefficient",
        "lr_by_characters",
    ],
    "kronsec.partitions": ["parse_partition", "format_partition", "partitions_of", "size"],
    "kronsec.seminormal": [
        "build_rep", "check_relations", "spherical_relation_image", "word_trace",
    ],
    "kronsec.brionlab": ["sweep", "boundary_scan"],
}
# The partition helpers are hot inside characters; they are spanned only
# where the CLI imported them, so argument parsing and formatting leave
# cli.main's self time.
CLI_ONLY = {"kronsec.partitions"}
GENERATORS = {("kronsec.brionlab", "sweep"), ("kronsec.brionlab", "boundary_scan")}


def _rref_cells(args, kwargs, result):
    a = args[0]
    return {"cells": len(a) * (len(a[0]) if a else 0)}


def _mat_mul_mults(args, kwargs, result):
    a, b = args[0], args[1]
    return {"mults": len(a) * len(b) * (len(b[0]) if b else 0)}


def _loop_steps(args, kwargs, result):
    return {"steps": result.refinement.steps, "halvings": result.refinement.halvings}


def _rep_dim(args, kwargs, result):
    return {"dim": result.dim}


COUNTERS = {
    "ratmat.rref": _rref_cells,
    "ratmat.mat_mul": _mat_mul_mults,
    "monodromy.track_roots": _loop_steps,
    "seminormal.build_rep": _rep_dim,
}


class Tracer:
    """Span statistics keyed by "<layer>.<function>": calls, total and child time."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self._open: list[list[float]] = []
        self._saved: list[tuple] = []

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._open.append(frame)
        return frame

    def _leave(self, name: str, frame: list[float], elapsed: float, calls: int) -> None:
        self._open.pop()
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += calls
        st[1] += elapsed
        st[2] += frame[0]
        if self._open:
            self._open[-1][0] += elapsed

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, perf_counter() - start, 1)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0) + value
            return result

        return spanned

    def _wrap_generator(self, name: str, fn):
        """Each resumption of the generator is a span segment; one call per generator."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                inner = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, perf_counter() - start, 1)
            key = f"{name}.records"
            while True:
                frame = self._enter()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(name, frame, perf_counter() - start, 0)
                self.counts[key] = self.counts.get(key, 0) + 1
                yield item

        return spanned

    def install(self) -> None:
        """Wrap every binding of every spanned function across loaded modules."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "kronsec" or name.startswith("kronsec.") or name == "mpmath")}
        for home, names in SPANNED.items():
            layer = home.rsplit(".", 1)[-1]
            for fname in names:
                original = getattr(modules[home], fname)
                span = f"{layer}.{fname}"
                wrapper = (self._wrap_generator if (home, fname) in GENERATORS else self._wrap)(span, original)
                for mod_name, mod in modules.items():
                    if home in CLI_ONLY and mod_name != "kronsec.cli":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        st = self.stats.get(name, [0, 0.0, 0.0])
        return st[1] - st[2]
