"""Watchdog health probes over the metrics registry (``repro.obs.health``).

A :class:`HealthMonitor` is probed periodically (every N packets, or
from a maintenance timer) and turns registry counters plus a little
structural state into findings:

* **stalled rx/tx queues** — the twin's rx queue (or its held NIC
  interrupts) is non-empty while the corresponding delivery counters
  have not moved since the previous probe;
* **virq delivery latency SLO** — the ``health.virq_defer_cycles``
  histogram (observed by the twin whenever a deferred NIC interrupt is
  finally replayed) has a p99 above the configured bound;
* **crash loop** — the recovery breaker opened, or quarantines are
  accumulating probe over probe;
* **span leak** — trace spans are still open while no driver invocation
  is in flight, or completed spans are being dropped by the capacity
  bound.

Each probe appends a structured snapshot (``repro-health/v1``) to the
monitor and — when a twin with recovery is attached — into the PR 3
flight recorder (``RecoveryManager.flight_records``), so post-mortems
see health context next to the trace tail. With ``arm_recovery=True`` a
critical finding calls ``recovery.handle_abort(WatchdogFault(...))``:
the watchdog can quarantine a wedged instance just like a containable
fault would.
"""

from __future__ import annotations

from typing import Dict, List, Optional

HEALTH_SCHEMA = "repro-health/v1"

#: registry histogram fed by the twin's deferred-interrupt replay path.
VIRQ_DEFER_HISTOGRAM = "health.virq_defer_cycles"

SEV_INFO = "info"
SEV_WARNING = "warning"
SEV_CRITICAL = "critical"


class WatchdogFault(Exception):
    """Raised *into* recovery (never propagated) when the watchdog arms
    containment on a critical finding."""


def _finding(probe: str, severity: str, detail: str, **data) -> Dict:
    return {"probe": probe, "severity": severity, "detail": detail,
            "data": data}


class HealthMonitor:
    """Periodic health probes for one machine (optionally one twin)."""

    def __init__(self, machine, twin=None, arm_recovery: bool = False,
                 virq_defer_slo: int = 200_000,
                 crash_loop_quarantines: int = 2):
        self.machine = machine
        self.twin = twin
        self.registry = machine.obs.registry
        self.arm_recovery = arm_recovery
        #: p99 bound (simulated cycles) on deferred-virq replay latency.
        self.virq_defer_slo = virq_defer_slo
        self.crash_loop_quarantines = crash_loop_quarantines
        self.snapshots: List[Dict] = []
        self._last_counters: Dict[str, int] = {}
        self._last_spans_dropped = 0
        #: maintenance window (planned handover): None, or a dict with
        #: the owner's name and a callable returning the packet backlog
        #: the owner deliberately froze. While open, backlog the owner
        #: accounts for is not a stall, replay-latency blips are
        #: expected (the handover bench gates them instead), and a
        #: critical finding is recorded but does NOT arm recovery —
        #: arming mid-handover would dismantle the instance being
        #: swapped. A stall the owner does NOT account for still fires.
        self._maintenance: Optional[Dict] = None

    # -- maintenance window (planned handover, DESIGN.md §14) ----------------

    @property
    def in_maintenance(self) -> bool:
        return self._maintenance is not None

    def enter_maintenance(self, owner: str, held_backlog=None):
        """Open a maintenance window. ``held_backlog`` is a callable
        returning how many backlogged packets the owner is deliberately
        holding (frozen queues, parked batches); only backlog BEYOND
        that count can raise a stall finding while the window is open."""
        if self._maintenance is not None:
            raise RuntimeError(
                f"maintenance window already held by "
                f"{self._maintenance['owner']!r}")
        self._maintenance = {"owner": owner,
                             "held": held_backlog or (lambda: 0)}

    def exit_maintenance(self) -> str:
        """Close the window; returns the owner that held it."""
        if self._maintenance is None:
            raise RuntimeError("no maintenance window is open")
        owner = self._maintenance["owner"]
        self._maintenance = None
        return owner

    # -- probes --------------------------------------------------------------

    def _counter_moved(self, name: str) -> bool:
        now = self.registry.counter(name).value
        return now != self._last_counters.get(name, 0)

    def _probe_stalled_rx(self, findings: List[Dict]):
        twin = self.twin
        if twin is None:
            return
        backlog = twin.rx_backlog      # sums every queue shard + parked
        held = 0
        if self._maintenance is not None:
            # planned drain: the handover accounts for this many frozen
            # packets — only a RESIDUAL backlog is a real stall.
            held = self._maintenance["held"]()
        residual = backlog - held
        if residual <= 0:
            return
        if not (self._counter_moved("xen.virq_coalesced")
                or self._counter_moved("xen.virq")):
            findings.append(_finding(
                "stalled_rx", SEV_CRITICAL,
                f"{residual} rx packets queued and no virq "
                "delivered since the last probe",
                queued=residual, held=held,
            ))

    def _probe_stalled_tx(self, findings: List[Dict]):
        twin = self.twin
        if twin is None or self._maintenance is not None:
            # a planned freeze defers NIC interrupts on purpose; they
            # are replayed before the window closes.
            return
        deferred = sum(1 for e in twin.held if e.kind == "irq")
        if deferred and not self._counter_moved("xen.softirq"):
            findings.append(_finding(
                "stalled_tx", SEV_WARNING,
                f"{deferred} NIC interrupts deferred and "
                "no softirq scheduled since the last probe",
                deferred=deferred,
            ))

    def _probe_virq_latency(self, findings: List[Dict]):
        if self._maintenance is not None:
            # the handover window observes its own replay latencies into
            # this histogram; the bench gates the blip, not the watchdog.
            return
        hist = self.registry.histogram(VIRQ_DEFER_HISTOGRAM)
        if hist.count == 0:
            return
        p99 = hist.quantile(0.99)
        if p99 > self.virq_defer_slo:
            findings.append(_finding(
                "virq_latency", SEV_WARNING,
                f"deferred-virq replay p99 {p99} cycles exceeds SLO "
                f"{self.virq_defer_slo}",
                p99=p99, slo=self.virq_defer_slo, count=hist.count,
            ))

    def _probe_crash_loop(self, findings: List[Dict]):
        breaker = self.registry.counter("recovery.breaker_open").value
        if breaker > 0:
            findings.append(_finding(
                "crash_loop", SEV_CRITICAL,
                "recovery breaker is open (crash loop declared)",
                breaker_open=breaker,
            ))
            return
        q = self.registry.counter("recovery.quarantine").value
        moved = q - self._last_counters.get("recovery.quarantine", 0)
        if moved >= self.crash_loop_quarantines:
            findings.append(_finding(
                "crash_loop", SEV_WARNING,
                f"{moved} quarantines since the last probe",
                quarantines=moved,
            ))

    def _probe_span_leak(self, findings: List[Dict]):
        tracer = self.machine.obs.tracer
        open_spans = len(tracer._span_stack)
        in_driver = (self.twin is not None
                     and self.twin.xen.driver_depth > 0)
        if open_spans and not in_driver:
            findings.append(_finding(
                "span_leak", SEV_WARNING,
                f"{open_spans} spans still open with no driver "
                "invocation in flight",
                open=open_spans,
                names=[s.name for s in tracer._span_stack],
            ))
        dropped = tracer.spans_dropped - self._last_spans_dropped
        if dropped > 0:
            findings.append(_finding(
                "spans_dropped", SEV_INFO,
                f"{dropped} completed spans evicted by the capacity bound",
                dropped=dropped,
            ))

    # -- the probe cycle -----------------------------------------------------

    def probe(self) -> Dict:
        """Run every probe once; append and return the snapshot."""
        findings: List[Dict] = []
        self._probe_stalled_rx(findings)
        self._probe_stalled_tx(findings)
        self._probe_virq_latency(findings)
        self._probe_crash_loop(findings)
        self._probe_span_leak(findings)
        snap = {
            "schema": HEALTH_SCHEMA,
            "seq": len(self.snapshots),
            "cycles": self.machine.account.total,
            "ok": not any(f["severity"] == SEV_CRITICAL for f in findings),
            "findings": findings,
        }
        self.snapshots.append(snap)
        self._record_and_arm(snap)
        # baselines for the next probe's movement checks
        self._last_counters = self.registry.counters_snapshot()
        self._last_spans_dropped = self.machine.obs.tracer.spans_dropped
        return snap

    def _record_and_arm(self, snap: Dict):
        twin = self.twin
        recovery = getattr(twin, "recovery", None) if twin else None
        if recovery is not None and snap["findings"]:
            # one flight record per eventful snapshot, next to the trace
            # tails the recovery path already captures
            recovery.flight_records.append([
                {"kind": "health.snapshot", **snap}
            ])
        if (recovery is not None and self.arm_recovery and not snap["ok"]
                and self._maintenance is None
                and not recovery.degraded and not recovery.broken):
            reasons = "; ".join(f["detail"] for f in snap["findings"]
                                if f["severity"] == SEV_CRITICAL)
            try:
                recovery.handle_abort(WatchdogFault(reasons))
            except WatchdogFault:  # pragma: no cover - defensive
                pass

    # -- reporting -----------------------------------------------------------

    def report(self) -> Dict:
        """All snapshots plus a rollup, as one savable document."""
        worst = SEV_INFO
        order = {SEV_INFO: 0, SEV_WARNING: 1, SEV_CRITICAL: 2}
        nfindings = 0
        for snap in self.snapshots:
            for f in snap["findings"]:
                nfindings += 1
                if order[f["severity"]] > order[worst]:
                    worst = f["severity"]
        return {
            "schema": HEALTH_SCHEMA,
            "probes": len(self.snapshots),
            "findings": nfindings,
            "worst_severity": worst if nfindings else None,
            "ok": all(s["ok"] for s in self.snapshots),
            "snapshots": self.snapshots,
        }

    def save(self, path: str) -> Dict:
        import json

        doc = self.report()
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        return doc
