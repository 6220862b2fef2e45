"""The xentrace-style trace ring: bounded, typed, span-correlated.

Records land in a fixed-size ring (old records are overwritten, like
xentrace's per-CPU buffers), timestamped with the simulator's virtual
cycle clock. *Spans* give per-packet correlation: a span is opened at
the start of a packet's path (or an upcall, or an ISR), every record
emitted while it is open carries its id, and nested spans remember their
parent — so one transmit packet can be reconstructed end-to-end from the
ring.

Tracing is toggleable: with ``enabled = False`` (the default), ``emit``
returns after one attribute test and ``span`` hands out a shared no-op
context manager, so the always-on metrics counters are the only cost
the fast path pays.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List, Optional

from .events import SPAN_BEGIN, SPAN_END
from .metrics import MetricsRegistry

#: what :meth:`Tracer.span` hands out while tracing is off
_NO_SPAN = contextlib.nullcontext()


class TraceEvent:
    """One ring record: sequence number, cycle timestamp, kind, the
    innermost open span (0 = none), and free-form args."""

    __slots__ = ("seq", "ts", "kind", "span", "args")

    def __init__(self, seq: int, ts: int, kind: str, span: int, args: Dict):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.span = span
        self.args = args

    def to_dict(self) -> Dict[str, object]:
        return {"seq": self.seq, "ts": self.ts, "kind": self.kind,
                "span": self.span, "args": self.args}

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"TraceEvent(#{self.seq} @{self.ts} {self.kind}"
                f" span={self.span} {self.args})")


class Span:
    """An open or completed interval: a packet, an upcall, an ISR. As a
    context manager it closes itself however its block exits."""

    __slots__ = ("tracer", "id", "name", "parent", "t0", "t1", "args")

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 parent: int, t0: int, args: Dict):
        self.tracer = tracer
        self.id = span_id
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1: Optional[int] = None
        self.args = args

    @property
    def duration(self) -> Optional[int]:
        return None if self.t1 is None else self.t1 - self.t0

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "t0": self.t0, "t1": self.t1, "args": self.args}

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info):
        self.tracer.end_span(self)


class Tracer:
    """Bounded ring of :class:`TraceEvent` plus the span machinery."""

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 capacity: int = 8192,
                 registry: Optional[MetricsRegistry] = None,
                 span_capacity: Optional[int] = None):
        if capacity < 1:
            raise ValueError("trace ring capacity must be >= 1")
        self.enabled = False
        self.clock = clock or (lambda: 0)
        self.capacity = capacity
        self.registry = registry
        self.span_capacity = span_capacity or capacity
        self._ring: List[Optional[TraceEvent]] = [None] * capacity
        self._emitted = 0
        self._span_stack: List[Span] = []
        self._next_span = 1
        #: completed spans, oldest first, bounded by span_capacity.
        self._spans: List[Span] = []
        #: completed spans evicted from ``_spans`` by the capacity bound.
        self.spans_dropped = 0

    # -- state --------------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total records emitted since the last clear (incl. overwritten)."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Records overwritten by ring wraparound."""
        return max(0, self._emitted - self.capacity)

    @property
    def current_span(self) -> int:
        return self._span_stack[-1].id if self._span_stack else 0

    def clear(self):
        """Forget everything, including span-id state — repeated runs in
        one process get identical span ids after a clear."""
        self._ring = [None] * self.capacity
        self._emitted = 0
        self._span_stack = []
        self._next_span = 1
        self._spans = []
        self.spans_dropped = 0

    # -- emission -----------------------------------------------------------

    def emit(self, kind: str, **args):
        if not self.enabled:
            return
        ev = TraceEvent(self._emitted, self.clock(), kind,
                        self.current_span, args)
        self._ring[self._emitted % self.capacity] = ev
        self._emitted += 1

    def begin_span(self, name: str, **args) -> Optional[Span]:
        """Open a span; returns ``None`` (a no-op handle) when disabled."""
        if not self.enabled:
            return None
        span = Span(self, self._next_span, name, self.current_span,
                    self.clock(), args)
        self._next_span += 1
        self.emit(SPAN_BEGIN, id=span.id, name=name, **args)
        self._span_stack.append(span)
        return span

    def span(self, name: str, **args):
        """A span around a ``with`` block: the opened :class:`Span`, or a
        shared no-op context manager while tracing is off."""
        if not self.enabled:
            return _NO_SPAN
        return self.begin_span(name, **args)

    def end_span(self, span: Optional[Span]):
        """Close ``span`` (tolerates None and out-of-order closes from
        exception paths: everything nested deeper is closed too)."""
        if span is None:
            return
        while self._span_stack:
            top = self._span_stack.pop()
            top.t1 = self.clock()
            self._complete(top)
            if top is span:
                return
        # span was not on the stack (tracer cleared mid-span): record it
        if span.t1 is None:
            span.t1 = self.clock()
            self._complete(span)

    def _complete(self, span: Span):
        self._spans.append(span)
        overflow = len(self._spans) - self.span_capacity
        if overflow > 0:
            del self._spans[:overflow]
            self.spans_dropped += overflow
            if self.registry is not None:
                self.registry.counter("trace.spans_dropped").value += overflow
        if self.enabled:
            ev = TraceEvent(self._emitted, span.t1, SPAN_END, span.parent,
                            {"id": span.id, "name": span.name,
                             "dur": span.duration})
            self._ring[self._emitted % self.capacity] = ev
            self._emitted += 1
        if self.registry is not None:
            self.registry.histogram(f"span.{span.name}.cycles").observe(
                span.duration or 0)

    # -- reading ------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Ring contents, oldest first."""
        if self._emitted <= self.capacity:
            return [e for e in self._ring[: self._emitted] if e is not None]
        start = self._emitted % self.capacity
        return [e for e in self._ring[start:] + self._ring[:start]
                if e is not None]

    def tail(self, n: int) -> List[TraceEvent]:
        """The newest ``n`` records; none for ``n <= 0``."""
        events = self.events()
        return events[max(len(events) - n, 0):]

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Completed spans, oldest first (optionally filtered by name)."""
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def span_tree(self, span: Span) -> List[Span]:
        """``span`` plus every completed descendant, by start time.

        Children complete (and land in ``_spans``) before their parents,
        so descendants are collected breadth-first from a children map
        rather than in completion order."""
        children: Dict[int, List[Span]] = {}
        for s in self._spans:
            children.setdefault(s.parent, []).append(s)
        out = [span]
        queue = [span.id]
        while queue:
            parent_id = queue.pop()
            for s in children.get(parent_id, ()):
                if s is not span:
                    out.append(s)
                    queue.append(s.id)
        return sorted(out, key=lambda s: (s.t0, s.id))

    def events_in_span(self, span: Span) -> List[TraceEvent]:
        """Ring records correlated to ``span`` or any descendant."""
        ids = {s.id for s in self.span_tree(span)}
        return [e for e in self.events() if e.span in ids]
