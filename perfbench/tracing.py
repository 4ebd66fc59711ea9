"""Layer spans for perimod, recorded from outside the package.

Each traced function is replaced by a timing wrapper at every module-level
name in the perimod package that is bound to it.  Several modules import
these functions by name (`from .rings import pow_index_table` in dynamics,
`from .dynamics import counting_function` in claims, ...), so patching only
the defining module would leave those call sites untraced and their spans
silently empty.

Spans are aggregated in memory per name: calls, total time, and self time,
which is the total minus the time covered by traced child spans.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from typing import Callable, Optional

# (module, function) of every traced layer boundary.
SPANS = (
    ("rings", "pow_index_table"),
    ("rings", "enumerate_monic_irreducibles"),
    ("rings", "is_irreducible"),
    ("dynamics", "counting_function"),
    ("dynamics", "count_report"),
    ("dynamics", "orbit_decomposition"),
    ("dynamics", "residue_count_table"),
    ("claims", "verify_all"),
    ("claims", "render_report"),
    ("stats", "partial_average"),
    ("stats", "density"),
    ("cli", "parse_args"),
    ("cli", "run"),
)

# Work counts read off a span's result: metric name -> (span, function of result).
RESULT_COUNTS = {
    "claims.cells": ("claims.verify_all", lambda report: len(report.cells)),
    "stats.density.pairs": ("stats.density", lambda result: result.points[-1].population),
}


class Tracer:
    """Installs the span wrappers and holds their aggregates."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.child: dict[str, float] = {}
        self.counts: dict[str, int] = {name: 0 for name in RESULT_COUNTS}
        self._originals: dict[str, Callable] = {}
        self._misses_at_start: dict[str, int] = {}
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[tuple[str, Callable]]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every span at every binding site in the loaded perimod package."""
        import perimod

        for info in pkgutil.iter_modules(perimod.__path__):
            importlib.import_module(f"perimod.{info.name}")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "perimod" or name.startswith("perimod."))
        }
        for mod_name, fn_name in SPANS:
            name = f"{mod_name}.{fn_name}"
            original = getattr(modules[f"perimod.{mod_name}"], fn_name)
            count = next(
                ((metric, read) for metric, (span, read) in RESULT_COUNTS.items() if span == name),
                None,
            )
            wrapper = self._wrap(name, original, count)
            self._originals[name] = original
            self.calls[name] = 0
            self.total[name] = 0.0
            self.child[name] = 0.0
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            if hasattr(original, "cache_info"):
                self._misses_at_start[name] = original.cache_info().misses

    def metrics(self) -> dict[str, float]:
        """calls, s and self_s of every span, misses of cached spans, result counts."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.total[name] - self.child[name]
        for name, start in self._misses_at_start.items():
            out[f"{name}.misses"] = self._originals[name].cache_info().misses - start
        out.update(self.counts)
        return out
