"""In-memory spans and counters for the traced benchmark run.

Spans are recorded by the benchmark itself: explicitly around its own
calls into a layer, and through wrappers that `Tracer.patched` installs on
a few public functions for the duration of a traced repetition (the
program's source is never modified). Each span keeps its parent, so a
layer's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans plus named counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def totals(self) -> Counter[str]:
        """Inclusive seconds per span name."""
        out: Counter[str] = Counter()
        for s in self.spans:
            out[s.name] += s.duration
        return out

    def self_times(self) -> Counter[str]:
        """Seconds per span name not covered by a child span."""
        out: Counter[str] = Counter()
        for s in self.spans:
            out[s.name] += s.duration
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.duration
        return out

    def _timed(self, fn, span_name: str, count_name: str | None):
        def wrapper(*args, **kwargs):
            if count_name:
                self.count(count_name)
            with self.span(span_name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, fn, count_name: str):
        def wrapper(*args, **kwargs):
            self.count(count_name)
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self, functions, methods):
        """Route calls to public functions and methods through span wrappers.

        `functions`: (module, name, span_name or None, count_name or None);
        every `lqcoord` module that binds the function gets the wrapper, so
        calls made inside the program are traced too. `methods`:
        (module, class, method, span_name, count_name). Everything is
        restored on exit.
        """
        undo = []
        try:
            for mod_name, attr, span_name, count_name in functions:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = (self._timed(original, span_name, count_name)
                           if span_name else self._counted(original, count_name))
                for mod in [m for k, m in sys.modules.items()
                            if m is not None and k.split(".")[0] == "lqcoord"]:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
                            undo.append((mod, name, original))
            for mod_name, cls_name, attr, span_name, count_name in methods:
                cls = getattr(sys.modules[mod_name], cls_name)
                original = vars(cls)[attr]
                setattr(cls, attr, self._timed(original, span_name, count_name))
                undo.append((cls, attr, original))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)


class NullTracer:
    """Stands in for a Tracer where the run is untraced."""

    @contextmanager
    def span(self, name: str):
        yield
