"""Planned handover: live binary swap and guest re-homing (DESIGN.md §14).

Recovery (PR 3) reacts to a fault that already happened: quarantine the
instance, drop what cannot be saved, serve traffic on the slow dom0 path
until a reload sticks. A *planned* handover inverts the contract — the
operator (or an upgrade pipeline) asks for the swap ahead of time, so
nothing may be dropped and the dom0 path is never entered. The
:class:`HandoverManager` runs a fixed state machine over one twin::

    request -> drain -> freeze -> swap -> replay -> resume

* **request** — admission control. A degraded/broken instance has no
  live fast path to hand over; the request falls back to the existing
  recovery reload (``fallback="recovery"`` in the report). Otherwise the
  replacement binary is re-verified *first*: a verification failure
  raises :class:`HandoverVetoed` before the old instance is disturbed.
  A re-home is refused with :class:`HandoverError` while dom0 has NIC
  interrupts held: their frames are still in the source NIC's ring and
  would demux to no guest once the guest has moved.
* **drain** — stop admitting work (NIC lines masked so new device
  interrupts latch in the device instead of firing; ``twin.frozen`` makes the
  twin hold new guest tx frames, byte-snapshotted, and NIC interrupts in
  its ``held`` ledger), then complete what is already in flight: flush
  every rx queue shard and drain softirqs on every vCPU. Batches
  addressed to a virq-masked guest stay held — their skbs remain valid
  across a planned swap and the guest's unmask hook is the single
  accounting event.
* **freeze** — assert quiescence: no driver invocation in flight, no
  pending softirqs, every queue shard empty. Anything the twin still
  has is an entry of ``twin.held`` (rx batches, tx frames, irqs), not
  in flight.
* **swap** — replace the binary via :meth:`reload_hyp_driver` (the
  CodeRegistry epoch bumps on unregister *and* register, so every JIT
  superblock compiled against the old program is invalidated), zero the
  ``__svm_anchorK`` elision anchor slots, flush the stlb and the
  indirect-call translation cache. For a re-homing handover this phase
  instead detaches the guest's :class:`TwinQueue` state from the source
  twin and adopts it on the target.
* **replay** — unfreeze, unmask the NIC lines (latched causes fire
  immediately and their masked-for latency is observed into the
  ``health.virq_defer_cycles`` histogram — the honest p99-blip metric
  the bench gates), re-run held interrupts in arrival order, replay
  held tx frames through whichever twin owns each device *now*, and
  re-fire the unmask hook for unmasked guests with held receives.
* **resume** — drain the resulting softirqs and close the maintenance
  window.

The watchdog (``obs/health.py``) holds a maintenance window for the
whole drain..resume span: backlog the handover accounts for is not a
stall, and a critical finding inside the window is recorded but does
not arm recovery (which would dismantle the instance mid-swap). A
stall the handover does NOT account for still fires — the window
suppresses false positives, not the watchdog.

Determinism: the handover charges no cycles of its own on the default
path — a run that never requests a handover is bit-identical to one
built without a :class:`HandoverManager`, and two identical runs that
request the handover at the same packet index are bit-identical to
each other (every phase is driven off machine state and the virtual
cycle account; there is no wall clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .twin import RX_KINDS


class HandoverError(RuntimeError):
    """A handover invariant failed (quiescence not reached, re-entrant
    request, bad target)."""


class HandoverVetoed(HandoverError):
    """The replacement binary failed re-verification; the old instance
    was not disturbed (the veto happens before the drain phase)."""


@dataclass
class HandoverReport:
    """What one handover did — returned by :meth:`swap_binary` /
    :meth:`rehome_guest` and appended to ``HandoverManager.history``."""

    kind: str                      # "swap" | "rehome"
    ok: bool = False
    #: "recovery" when the request fell back to the PR 3 reload path
    #: (degraded/broken source), else None.
    fallback: Optional[str] = None
    phases: List[str] = field(default_factory=list)
    phase_cycles: Dict[str, int] = field(default_factory=dict)
    #: cycles from the first NIC mask to the end of resume — the
    #: guest-visible blackout window.
    window_cycles: int = 0
    #: packets delivered to guests by the drain flush.
    drained_rx: int = 0
    #: held receive packets carried across the swap (or moved to the
    #: re-home target).
    carried_parked: int = 0
    #: NIC interrupts deferred during the freeze and replayed.
    replayed_irqs: int = 0
    #: guest tx frames admitted during the freeze and replayed.
    replayed_tx: int = 0
    epoch_before: int = 0
    epoch_after: int = 0


class HandoverManager:
    """Planned-handover state machine over one source twin."""

    def __init__(self, twin, health=None):
        self.twin = twin
        self.xen = twin.xen
        self.machine = twin.machine
        #: optional :class:`~repro.obs.health.HealthMonitor`; when set,
        #: the handover holds its maintenance window for the whole
        #: drain..resume span.
        self.health = health
        self.state = "idle"
        self.history: List[HandoverReport] = []
        registry = self.machine.obs.registry
        self._c = {name: registry.counter(f"handover.{name}")
                   for name in ("swap", "rehome", "fallback", "veto")}
        self._phase_start: Optional[Tuple[str, int]] = None

    # -- phase bookkeeping ---------------------------------------------------

    def _now(self) -> int:
        return self.machine.account.total

    def _begin(self, report: HandoverReport, phase: str):
        now = self._now()
        if self._phase_start is not None:
            prev, start = self._phase_start
            report.phase_cycles[prev] = now - start
        self._phase_start = (phase, now)
        self.state = phase
        report.phases.append(phase)

    def _finish(self, report: HandoverReport):
        if self._phase_start is not None:
            prev, start = self._phase_start
            report.phase_cycles[prev] = self._now() - start
            self._phase_start = None
        self.state = "idle"
        self.history.append(report)

    def _held_backlog(self) -> int:
        """Receive packets the twin deliberately holds — what the
        watchdog's stalled-rx probe subtracts inside the maintenance
        window."""
        return sum(len(e.data) for e in self.twin.held if e.kind in RX_KINDS)

    def _assert_quiescent(self):
        if self.xen.driver_depth:
            raise HandoverError(
                "cannot freeze: a driver invocation is in flight")
        pending = sum(len(v.softirqs) for v in self.xen.vcpus)
        if pending:
            raise HandoverError(
                f"cannot freeze: {pending} softirqs pending after drain")
        queued = sum(len(q.rx) for q in self.twin.queues)
        if queued:
            raise HandoverError(
                f"cannot freeze: {queued} rx packets still queued")

    def _replay_parked(self, twin):
        """Re-fire the unmask hook for every domain that still has held
        receives and an enabled virq — the swap must not leave packets
        waiting on an unmask edge that already happened."""
        domains = []
        for entry in twin.held:
            if entry.kind in RX_KINDS:
                domain = entry.dev.kernel.domain
                if domain not in domains:
                    domains.append(domain)
        for domain in domains:
            if domain.virq_enabled:
                twin._on_virq_unmask(domain)

    # -- the two handover kinds ----------------------------------------------

    def swap_binary(self,
                    mid_window_hook: Optional[Callable[[], None]] = None
                    ) -> HandoverReport:
        """Swap in a freshly re-verified copy of the driver binary with
        zero packet loss. ``mid_window_hook`` (tests/bench) runs between
        swap and replay — the worst moment for traffic to arrive."""
        if self.state != "idle":
            raise HandoverError(f"handover already in progress "
                                f"(state={self.state!r})")
        twin = self.twin
        report = HandoverReport(kind="swap")
        self._phase_start = None
        self._begin(report, "request")

        recovery = twin.recovery
        if recovery is not None and recovery.degraded:
            # a quarantined (or crash-looping) instance has no live fast
            # path to drain — the existing recovery reload IS the swap
            report.fallback = "recovery"
            report.ok = recovery.attempt_reload()
            self._c["fallback"].value += 1
            self._finish(report)
            return report

        # re-verify BEFORE any disruption: a bad binary vetoes the
        # handover with the old instance untouched. Under elision the
        # pre-elision binary is what gets proved, exactly as recovery
        # does (the transform is a pure function of the proofs).
        verify_report = twin.reverify(name=f"{twin.instance_name}:handover")
        if not verify_report.ok:
            self._c["veto"].value += 1
            self._finish(report)
            raise HandoverVetoed(
                "replacement binary failed re-verification; "
                "old instance left untouched")

        return self._run_window(report, twin,
                                swap=lambda: self._do_swap(
                                    report, verify_report, mid_window_hook))

    def _do_swap(self, report: HandoverReport, verify_report,
                 mid_window_hook: Optional[Callable[[], None]]):
        twin = self.twin
        report.epoch_before = self.machine.code.epoch
        # unregister + register both bump the epoch: every JIT superblock
        # compiled against the old program is invalidated
        twin.reload_hyp_driver(verify_report=verify_report)
        report.epoch_after = self.machine.code.epoch
        twin.reset_anchor_slots()
        twin.svm.flush()
        twin.hyp_runtime.call_xlate_cache.clear()
        if mid_window_hook is not None:
            mid_window_hook()

    def rehome_guest(self, dev, target) -> HandoverReport:
        """Move ``dev`` (its rx queue state, held receives and unmask
        hook) from this twin to a second live twin instance with zero
        packet loss. A degraded source is *evacuated*: its queues were
        already torn down at quarantine, so the drain flush is skipped
        and the carried payload batches move to the target. Raises
        :class:`HandoverError`, with nothing disturbed, while dom0 has
        NIC interrupts held."""
        if self.state != "idle":
            raise HandoverError(f"handover already in progress "
                                f"(state={self.state!r})")
        twin = self.twin
        if target is twin:
            raise HandoverError("re-homing target is the source twin")
        if not target.netdev_order:
            raise HandoverError("re-homing target has no NIC attached")
        report = HandoverReport(kind="rehome")
        self._phase_start = None
        self._begin(report, "request")
        held_irqs = sum(1 for e in twin.held if e.kind == "irq")
        if held_irqs:
            # their frames sit in the source NIC's ring; served after the
            # move they would demux to no guest and be dropped
            self._finish(report)
            raise HandoverError(
                f"cannot re-home: dom0 holds {held_irqs} NIC interrupts "
                "whose frames are still in the source ring")

        def do_rehome():
            report.epoch_before = report.epoch_after = self.machine.code.epoch
            pending = twin.detach_guest_device(dev)
            report.carried_parked = sum(len(e.data) for e in pending)
            target.adopt_guest_device(dev, pending)

        return self._run_window(report, twin, swap=do_rehome,
                                skip_flush=(twin.recovery is not None
                                            and twin.recovery.degraded),
                                extra_replay=target)

    # -- the shared drain..resume window -------------------------------------

    def _run_window(self, report: HandoverReport, twin,
                    swap: Callable[[], None],
                    skip_flush: bool = False,
                    extra_replay=None) -> HandoverReport:
        nics = list(twin.nics_by_irq.values())
        masked_at: Dict[int, int] = {}
        if self.health is not None:
            self.health.enter_maintenance(
                f"handover:{report.kind}:{twin.instance_name}",
                held_backlog=self._held_backlog)
        window_start = self._now()
        try:
            # drain: stop admission, complete what is in flight
            self._begin(report, "drain")
            for nic in nics:
                masked_at[nic.irq] = self._now()
                nic.mask_line()
            twin.frozen = True
            backlog_before = twin.rx_backlog
            if not skip_flush:
                twin.flush_rx()
                self.xen.drain_all_softirqs()
            report.drained_rx = max(0, backlog_before - twin.rx_backlog)

            # freeze: prove quiescence before touching the instance
            self._begin(report, "freeze")
            self._assert_quiescent()
            if report.kind == "swap":
                report.carried_parked = self._held_backlog()

            # swap (binary replace, or queue re-homing)
            self._begin(report, "swap")
            swap()

            # replay: deferred work re-runs in arrival order
            self._begin(report, "replay")
            twin.frozen = False
            held_irqs = [e.data for e in twin.held if e.kind == "irq"]
            report.replayed_irqs = len(held_irqs)
            now = self._now()
            for nic in nics:
                if nic.irq not in held_irqs and nic.pending_cause():
                    # causes latched while masked: the unmask below fires
                    # them; observe how long they waited (the p99 blip).
                    # A held irq's own sample starts earlier and covers it.
                    twin._h_virq_defer.observe(now - masked_at[nic.irq])
                nic.unmask_line()
            twin.retry_deferred_interrupts()
            report.replayed_tx = len(twin.replay_frozen_tx())
            self._replay_parked(twin)
            if extra_replay is not None:
                self._replay_parked(extra_replay)

            # resume: settle and reopen
            self._begin(report, "resume")
            self.xen.drain_all_softirqs()
            report.ok = True
        finally:
            twin.frozen = False
            for nic in nics:
                if nic.line_masked:
                    nic.unmask_line()
            if self.health is not None and self.health.in_maintenance:
                self.health.exit_maintenance()
            report.window_cycles = self._now() - window_start
            self._finish(report)
        self._c[report.kind].value += 1
        return report
