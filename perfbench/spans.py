"""Spans recorded around owpan's module-level functions, from outside owpan.

A span opens when a wrapped function is entered and closes when it
returns or raises.  Wrapped calls nest (``encode_frame`` calls
``rs_encode``, which calls ``_kernels.rs_encode_blocks``), so a span's
self time is its duration minus the durations of the spans it directly
encloses.  Everything runs on one thread, so children never overlap and
that subtraction is exact.

Spans are folded into per-name totals as they close instead of being
kept one by one: a traced sweep opens millions of spans, and only the
totals are reported.
"""

from __future__ import annotations

import time


class SpanStats:
    """Totals for one span name: calls, total and self nanoseconds, and
    the work units the name's ``after`` hook counted."""

    __slots__ = ("calls", "total_ns", "self_ns", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = 0


class Tracer:
    """Wraps module attributes in spans and restores them on ``close``.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        # one entry per open span: nanoseconds its closed children took
        self._children_ns: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a function that records span ``name``.

        ``after(args, result)``, when given, runs after a successful call
        and returns the work units to add to the span's ``work`` count.
        """
        fn = getattr(module, attr)
        setattr(module, attr, self.traced(fn, name, after))
        self._patches.append((module, attr, fn))

    def traced(self, fn, name: str, after=None):
        """Return ``fn`` wrapped in span ``name`` without patching anything."""
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._children_ns
        clock = self.clock

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - children
            if after is not None:
                stat.work += after(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def close(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def layer_self_ns(self) -> dict[str, int]:
        """Self time summed per layer; a span ``a.b.f`` belongs to layer ``a.b``."""
        layers: dict[str, int] = {}
        for name, stat in self.stats.items():
            layer = name.rsplit(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + stat.self_ns
        return layers
