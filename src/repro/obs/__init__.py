"""Observability: the xentrace-style tracer and the metrics registry.

One :class:`Obs` instance hangs off every
:class:`~repro.machine.machine.Machine` (``machine.obs``) and bundles:

* ``registry`` — always-on named counters and cycle histograms; cycle
  accounting (:class:`~repro.metrics.cycles.CycleAccount`) and every
  instrumented subsystem (stlb, upcalls, support routines, hypervisor,
  NICs) write here, and the figure 7/8 profiles are views over it;
* ``tracer`` — the bounded trace ring with per-packet span correlation,
  off by default and near-zero-cost while off;
* ``profiler`` — the cycle-attribution profiler.

Layers mark spans with ``with tracer.span(...)`` and profile frames with
``obs.charge(category, cycles, phase="xen:hypercall")``, the phase
written in full, as the profile shows it.

Quickstart::

    system = repro.configs.build("domU-twin", n_nics=1)
    system.machine.obs.enable_tracing()
    system.transmit_packets(4)
    system.machine.obs.save("trace.json", meta={"config": "domU-twin"})

then ``python -m repro.obs render trace.json --span packet.tx``.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional

from . import events
from .export import (
    TRACE_SCHEMA,
    chrome_trace,
    load_trace,
    render_dashboard,
    render_spans,
    render_tail,
)
from .health import HEALTH_SCHEMA, HealthMonitor, WatchdogFault
from .metrics import Counter, Histogram, MetricsRegistry
from .prof import PROFILE_SCHEMA, Profiler
from .tracer import Span, TraceEvent, Tracer


class Obs:
    """The per-machine observability bundle."""

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 trace_capacity: int = 8192):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, capacity=trace_capacity,
                             registry=self.registry)
        #: cycle-attribution profiler; inert until bound to a machine
        #: (Machine.__init__) and enabled.
        self.profiler = Profiler(registry=self.registry)
        #: the machine's cycle account (set by Machine), which
        #: :meth:`charge` charges.
        self.account = None

    def charge(self, category: str, cycles: int,
               phase: Optional[str] = None):
        """Charge ``cycles`` to ``category``; while the profiler records,
        under the frame ``phase`` when one is given. Apart from the
        interpreter's ``native:`` frame, the only code that pushes a
        profile frame."""
        prof = self.profiler
        if phase is not None and prof.enabled:
            prof.push_phase(phase)
            try:
                self.account.charge(category, int(cycles))
            finally:
                prof.pop_phase()
        else:
            self.account.charge(category, int(cycles))

    # -- tracing toggle -----------------------------------------------------

    def enable_tracing(self):
        self.tracer.enabled = True

    def disable_tracing(self):
        self.tracer.enabled = False

    def set_clock(self, clock: Callable[[], int]):
        self.tracer.clock = clock

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, meta: Optional[Dict] = None) -> Dict:
        """The full trace document: counters, histograms, ring, spans."""
        reg = self.registry.snapshot()
        return {
            "schema": TRACE_SCHEMA,
            "meta": dict(meta or {}, dropped=self.tracer.dropped),
            "counters": reg["counters"],
            "histograms": reg["histograms"],
            "events": [e.to_dict() for e in self.tracer.events()],
            "spans": [s.to_dict() for s in self.tracer.spans()],
        }

    def save(self, path: str, meta: Optional[Dict] = None) -> Dict:
        doc = self.snapshot(meta=meta)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        return doc


__all__ = [
    "Counter",
    "HEALTH_SCHEMA",
    "HealthMonitor",
    "Histogram",
    "MetricsRegistry",
    "Obs",
    "PROFILE_SCHEMA",
    "Profiler",
    "Span",
    "TRACE_SCHEMA",
    "TraceEvent",
    "Tracer",
    "WatchdogFault",
    "chrome_trace",
    "events",
    "load_trace",
    "render_dashboard",
    "render_spans",
    "render_tail",
]
