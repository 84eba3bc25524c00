"""Spans around the engine's and planner's public entry points.

The benchmark does not change the program: with tracing on it replaces a
few module attributes with wrappers that open a span, call the original
and close the span. A span records its layer, its parent span, its wall
time and, for Spark layers, how many Spark jobs the call's job group ran
while it was open. Spans live in memory until the run ends.
"""
from __future__ import annotations

import importlib
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, layer). ``run_com``/``run_std`` are patched both where
# they are defined (``run_sj`` imports them at call time) and where the
# runner imported them. A missing attribute is skipped, so a later refactor
# that moves an entry point loses that layer's spans, not the benchmark.
ENTRY_POINTS = [
    ("repro.engine.runner", "Gater", "bitvector"),
    ("repro.engine.runner", "run_com", "com"),
    ("repro.engine.com", "run_com", "com"),
    ("repro.engine.runner", "run_std", "std"),
    ("repro.engine.std", "run_std", "std"),
    ("repro.engine.sj", "run_sj_phase1", "sj_phase1"),
    ("repro.core.planner", "optimize", "optimizer"),
]


@dataclass
class Span:
    layer: str
    label: str
    parent: int | None
    t0: float
    t1: float = 0.0
    jobs: int = 0
    children_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.children_s


@dataclass
class Tracer:
    """Records spans while ``active``; ``job_count`` reads the job count of
    the current call's job group (None outside Spark calls)."""

    active: bool = False
    job_count: Callable[[], int] | None = None
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, layer: str, label: str = ""):
        if not self.active:
            yield None
            return
        jobs0 = self.job_count() if self.job_count else 0
        parent = self._stack[-1] if self._stack else None
        sp = Span(layer, label, parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            sp.jobs = (self.job_count() if self.job_count else 0) - jobs0
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += sp.dur

    def take(self) -> list[Span]:
        """Spans recorded since the last call (one benchmark call)."""
        out, self.spans = self.spans, []
        return out

    def _wrap(self, fn, layer: str):
        def wrapper(*args, **kw):
            # optimize(tree, strategy, ...): label the span with the strategy.
            label = args[1] if layer == "optimizer" and len(args) > 1 else kw.get("strategy", "")
            with self.span(layer, str(label)):
                return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, layer in ENTRY_POINTS:
                mod = importlib.import_module(mod_name)
                if not hasattr(mod, attr):
                    continue
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, layer))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)
