"""Span tracing from outside the program.

A :class:`Tracer` rebinds public names that the package's modules
imported from each other (for example ``shrinklogit.simulation.irls_fit``)
to timing wrappers, so each call across a layer boundary records a span:
its name, start, end and the span that was open when it started. Spans
stay in memory until the run ends. :func:`restore` puts every original
name back.

A span's self time is its duration minus the part of that interval its
child spans cover. Pool workers forked after patching run the wrappers
too, but their spans stay in the worker, so a pooled run is traced on
the parent side only.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans and counters; patches names and restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``name`` may be a function of the call's positional arguments.
        ``observe(tracer, args, kwargs, result, error)`` runs after the
        call, outside the span, to record counters. The wrapper returns
        the original result and re-raises the original exception.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            span = Span(label, self.clock(), 0.0, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
                if observe is not None:
                    observe(self, args, kwargs, result, error)

        return traced

    def patch(self, module, attr, name, observe=None):
        """Rebind ``module.attr`` to a traced wrapper of its current value."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, observe))

    def restore(self):
        """Undo every patch, last first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, busy (total) seconds and self seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["busy_s"] += span.end - span.start
        entry["self_s"] += own
    return dict(totals)
