"""Fault containment and automatic twin-driver recovery.

The paper's safety story (§4.5) ends at "the driver is aborted"; this
module supplies the containment and recovery machinery that makes an
abort a survivable event instead of a simulation-ending crash:

1. **Quarantine** — when a driver invocation faults
   (:class:`~repro.core.svm.SvmProtectionFault`, a stack smash, an
   undeliverable upcall, ...), the faulting hypervisor instance is torn
   down: NIC lines are masked, in-flight upcall frames are unwound,
   dom0 locks the driver held are force-released, pool sk_buffs it was
   holding are reclaimed, every stlb translation and hypervisor mapping
   is invalidated, and the indirect-call cache is dropped. A flight
   recorder keeps the tail of the trace ring from the moment of the
   abort.

2. **Degraded mode** — guest traffic keeps flowing through the
   paravirtualized dom0 path: the fully-functional *VM instance* of the
   same driver (probe/open ran there) drives the NIC from dom0, with
   the hypervisor copying frames and demultiplexing receives by MAC.
   This is the classic split-driver data path: slower, but alive.

3. **Reload** — after a bounded backoff (counted in degraded
   operations), the rewritten binary is *re-verified* with the PR-1
   static verifier and reloaded at the same code base through the
   loader. A reload that faults again shortly after ("relapse") feeds a
   crash-loop circuit breaker; once the breaker opens the system stays
   on the degraded path permanently rather than thrashing.

Everything is observable: ``recovery.*`` counters in the metrics
registry, ``recovery.{quarantine,degraded,reload,breaker}`` trace
events, a ``recovery`` span around each quarantine, and the flight
recorder (``flight_records``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs.events import (
    RECOVERY_BREAKER,
    RECOVERY_DEGRADED,
    RECOVERY_QUARANTINE,
    RECOVERY_RELOAD,
    SPAN_RECOVERY,
)
from ..osmodel import layout as L
from ..osmodel.netdev import NetDevice
from ..osmodel.skbuff import SkBuff

if TYPE_CHECKING:  # pragma: no cover
    from .paravirt import ParavirtNetDevice
    from .twin import TwinDriverManager

#: Trace-ring records preserved per abort in the flight recorder.
FLIGHT_RECORD_TAIL = 32


@dataclass
class RecoveryPolicy:
    """Tunables for the retry/backoff/breaker state machine."""

    #: total reload attempts before the breaker opens unconditionally.
    max_reload_attempts: int = 5
    #: degraded operations to serve before the first reload attempt.
    backoff_initial: int = 2
    #: backoff growth per failed reload attempt.
    backoff_multiplier: int = 2
    #: consecutive relapses (abort soon after a reload) that open the
    #: crash-loop breaker.
    breaker_threshold: int = 3
    #: invocations a reloaded driver must survive for the relapse
    #: counter to reset.
    stable_invocations: int = 64


class RecoveryManager:
    """The containment/recovery state machine for one twin driver.

    States: ``active`` (hypervisor instance serving traffic),
    ``degraded`` (dom0 path serving traffic, reload pending), ``broken``
    (crash-loop breaker open; dom0 path permanently)."""

    def __init__(self, twin: "TwinDriverManager",
                 policy: Optional[RecoveryPolicy] = None):
        self.twin = twin
        self.xen = twin.xen
        self.machine = twin.machine
        self.policy = policy or RecoveryPolicy()
        self.state = "active"
        self.flight_records: List[List[Dict]] = []
        self.last_cause: Optional[Exception] = None
        self._reload_attempts = 0
        self._consecutive_relapses = 0
        self._ops_until_reload = 0
        self._reloaded_at_invocations: Optional[int] = None
        self._saved_rx_handler = None
        registry = self.machine.obs.registry
        self._tracer = self.machine.obs.tracer
        self._c = {
            name: registry.counter(f"recovery.{name}")
            for name in (
                "abort", "quarantine", "degraded_tx", "degraded_rx",
                "reload_attempt", "reload_success", "reload_failure",
                "breaker_open", "frames_unwound", "locks_released",
                "skbs_reclaimed", "recovered", "parked_carried",
            )
        }

    # -- state views ---------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while traffic must be served on the dom0 path."""
        return self.state in ("degraded", "broken")

    @property
    def broken(self) -> bool:
        return self.state == "broken"

    def counters_snapshot(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._c.items()}

    # -- abort entry point ---------------------------------------------------

    def handle_abort(self, exc: Exception):
        """Contain a faulted hypervisor driver instance: quarantine it and
        switch traffic to the degraded dom0 path."""
        self._c["abort"].value += 1
        self.last_cause = exc
        relapse = (
            self._reloaded_at_invocations is not None
            and self.twin.hyp_driver.invocations
            < self.policy.stable_invocations
        )
        if relapse:
            self._consecutive_relapses += 1
        else:
            self._consecutive_relapses = 0
        self._reloaded_at_invocations = None
        with self._tracer.span(SPAN_RECOVERY, cause=type(exc).__name__):
            self._quarantine(exc)
        if (self._consecutive_relapses >= self.policy.breaker_threshold
                or self._reload_attempts >= self.policy.max_reload_attempts):
            self._open_breaker()
        else:
            self.state = "degraded"
            self._ops_until_reload = (
                self.policy.backoff_initial
                * self.policy.backoff_multiplier ** self._reload_attempts
            )
        # Unmask only now that the state says "degraded"/"broken": pending
        # interrupt causes replayed by the unmask must route to the dom0
        # path, not re-enter the instance being dismantled.
        self._unmask_lines()

    def _quarantine(self, exc: Exception):
        """Tear down every resource the faulted instance could have left
        in a dangerous state."""
        twin = self.twin
        # Freeze the interrupt lines while the instance is dismantled.
        for nic in twin.nics_by_irq.values():
            nic.mask_line()
        # Flight recorder: capture the trace tail before anything else
        # overwrites it (works whenever tracing is enabled).
        tail = self.machine.obs.tracer.tail(FLIGHT_RECORD_TAIL)
        if tail:
            self.flight_records.append([ev.to_dict() for ev in tail])
        # Unwind in-flight upcall frames.
        frames = twin.upcalls.abort_unwind()
        self._c["frames_unwound"].value += frames
        # Force-release dom0 locks the dead instance held, and make sure
        # dom0 can take interrupts again (the driver may have died inside
        # a spin_lock_irqsave window).
        locks = twin.hyp_support.release_held_locks()
        self._c["locks_released"].value += locks
        # Drop interrupts held on the virq mask BEFORE re-enabling it:
        # the domain's unmask hook would otherwise replay them into the
        # instance being dismantled. Nothing is lost — their causes are
        # still latched in the (masked) NICs and are replayed onto the
        # degraded path when handle_abort unmasks the lines.
        twin.held[:] = [e for e in twin.held if e.kind != "irq"]
        twin.dom0_kernel.domain.enable_virq()
        # Carry batches held for virq-masked guests across the teardown
        # as payload bytes: their skbs are about to be reclaimed, but the
        # packets themselves must survive — they are delivered (and
        # accounted, exactly once) when the guest unmasks.
        carried = twin.snapshot_held_rx()
        self._c["parked_carried"].value += carried
        # Drop queued-but-undelivered receives and reclaim every pool
        # sk_buff the instance was holding.
        twin.drop_rx_backlog()
        skbs = twin.hyp_support.pool.reclaim_outstanding()
        self._c["skbs_reclaimed"].value += skbs
        # No stale translation survives: stlb table, chains, hypervisor
        # mappings and the indirect-call cache all go.
        twin.svm.invalidate_all()
        twin.hyp_runtime.call_xlate_cache.clear()
        # Route receives through dom0 while degraded.
        if self._saved_rx_handler is None:
            self._saved_rx_handler = twin.dom0_kernel.rx_handler
            twin.dom0_kernel.rx_handler = self._demux_rx
        self._c["quarantine"].value += 1
        self._tracer.emit(RECOVERY_QUARANTINE, cause=type(exc).__name__,
                          detail=str(exc), frames=frames, locks=locks,
                          skbs=skbs)

    def _unmask_lines(self):
        for nic in self.twin.nics_by_irq.values():
            nic.unmask_line()

    def _open_breaker(self):
        self.state = "broken"
        self._c["breaker_open"].value += 1
        self._tracer.emit(RECOVERY_BREAKER, reloads=self._reload_attempts,
                          relapses=self._consecutive_relapses)

    # -- degraded data path --------------------------------------------------

    def degraded_transmit(self, dev: "ParavirtNetDevice", buf: int,
                          frame_len: int) -> bool:
        """Serve one guest transmit on the dom0 path: copy the staged
        frame out of guest memory and push it through the VM instance
        (dom0's own twin) — the split-driver fallback."""
        self._c["degraded_tx"].value += 1
        self._tracer.emit(RECOVERY_DEGRADED, op="tx", len=frame_len)
        twin = self.twin
        costs = self.xen.costs
        frame = dev.kernel.domain.aspace.read_bytes(buf, frame_len)
        self.xen.charge_xen(costs.copy_cost(frame_len),
                            phase="recovery:tx_copy")

        def run_in_dom0() -> bool:
            kernel = twin.dom0_kernel
            ndev = NetDevice(kernel.domain.aspace, dev.netdev_addr)
            skb = kernel.alloc_skb(frame_len)
            try:
                skb.put(frame_len)
                kernel.memory_view().write_bytes(skb.data, frame)
                skb.dev = ndev.addr
                return kernel.transmit_skb(skb, ndev)
            except Exception:
                # don't leak the staged skb when the dom0 xmit path
                # itself blows up mid-flight
                skb.refcnt = 1
                kernel.free_skb(skb.addr)
                raise

        ok = self._run_vm_instance(run_in_dom0)
        self._maybe_recover()
        return bool(ok)

    def degraded_interrupt(self, irq: int):
        """Serve a NIC interrupt in dom0: the VM instance runs its own
        ISR; receives are demultiplexed to guests by :meth:`_demux_rx`."""
        self._c["degraded_rx"].value += 1
        self._tracer.emit(RECOVERY_DEGRADED, op="irq", irq=irq)
        twin = self.twin
        self.xen.charge_xen(self.xen.costs.virq_delivery,
                            phase="xen:virq_delivery")
        self._run_vm_instance(lambda: twin.dom0_kernel.handle_irq(irq))
        self._maybe_recover()

    def _run_vm_instance(self, fn):
        """Run ``fn``, a call into the VM instance, in dom0 as a driver
        invocation, the way :meth:`HypervisorDriver.invoke` runs the
        hypervisor instance: a NIC interrupt raised meanwhile waits as a
        softirq until the outermost invocation returns. Run nested, its
        ISR would clobber state the interrupted call still uses (DESIGN
        §6)."""
        xen = self.xen
        xen.driver_depth += 1
        try:
            return xen.run_in_domain(self.twin.dom0_kernel.domain, fn)
        finally:
            xen.driver_depth -= 1
            if xen.driver_depth == 0:
                xen.run_softirqs()

    def _demux_rx(self, skb_addr: int):
        """dom0 ``netif_rx`` handler while degraded: deliver the frame to
        the guests :meth:`~repro.core.twin.TwinDriverManager.rx_targets`
        picks; broadcast, multicast and unknown unicast also reach dom0's
        own stack. A guest whose virq is masked gets the frame held as an
        ``rx_bytes`` entry, behind anything already held for it, and its
        unmask hook delivers it."""
        twin = self.twin
        kernel = twin.dom0_kernel
        mem = kernel.memory_view()
        skb = SkBuff(mem, skb_addr)
        # eth_type_trans already pulled the header: MAC is at data - 14.
        dst_mac = mem.read_bytes(skb.data - L.ETH_HLEN, L.ETH_ALEN)
        costs = self.xen.costs
        pool = twin.hyp_support.pool
        is_pool = bool(skb.pool)
        if is_pool and skb.refcnt > 1:
            # A broadcast/multicast batch interrupted mid-drain leaves
            # extra references from deliveries that will never happen
            # (the faulted instance's queues were wiped). On the dom0
            # fallback path each skb is delivered exactly once below, so
            # a stale count would make every free a mere decrement and
            # leak the buffer out of the pool forever.
            skb.refcnt = 1
        targets = twin.rx_targets(dst_mac)
        if targets:
            payload = mem.read_bytes(skb.data, skb.len)
        for guest in targets:
            if guest.kernel.domain.virq_enabled:
                self.xen.charge_xen(costs.copy_cost(len(payload)),
                                    phase="recovery:rx_copy")
                self.xen.charge_xen(costs.virq_delivery,
                                    phase="xen:virq_delivery")
                guest.deliver_batch([payload])
            else:
                twin.hold("rx_bytes", guest, [payload])
        if dst_mac[0] & 1 or not targets:
            # broadcast/multicast, and unknown unicast, belong to dom0's
            # own stack too (never to whichever guest happens to be first)
            handler = self._saved_rx_handler or kernel._rx_deliver_local
            handler(skb_addr)
            if is_pool:
                pool.release(skb_addr)     # idempotent backstop
        elif is_pool:
            # pool buffers go back to the pool, not through dom0's
            # slab bookkeeping
            pool.release(skb_addr)
        else:
            kernel.free_skb(skb_addr)

    # -- reload --------------------------------------------------------------

    def _maybe_recover(self):
        if self.state != "degraded":
            return
        self._ops_until_reload -= 1
        if self._ops_until_reload <= 0:
            self.attempt_reload()

    def attempt_reload(self) -> bool:
        """Re-verify the rewritten binary and reload the hypervisor
        instance. Returns True when the driver is active again."""
        if self.state != "degraded":
            return False
        self._reload_attempts += 1
        self._c["reload_attempt"].value += 1
        self._tracer.emit(RECOVERY_RELOAD, attempt=self._reload_attempts)
        twin = self.twin
        try:
            # re-verify before trusting the binary again
            report = twin.reverify(name="hyp:reload")
            if not report.ok:
                from ..analysis.report import VerificationError
                raise VerificationError(report)
            twin.reload_hyp_driver(verify_report=report)
        except Exception as exc:   # verification or load failure
            self._c["reload_failure"].value += 1
            self._consecutive_relapses += 1
            self._tracer.emit(RECOVERY_RELOAD, attempt=self._reload_attempts,
                              ok=False, error=type(exc).__name__)
            if (self._consecutive_relapses >= self.policy.breaker_threshold
                    or self._reload_attempts
                    >= self.policy.max_reload_attempts):
                self._open_breaker()
            else:
                self._ops_until_reload = (
                    self.policy.backoff_initial
                    * self.policy.backoff_multiplier ** self._reload_attempts
                )
            return False
        # Back in business: restore the normal receive routing.
        if self._saved_rx_handler is not None:
            twin.dom0_kernel.rx_handler = self._saved_rx_handler
            self._saved_rx_handler = None
        self.state = "active"
        self._reloaded_at_invocations = 0
        self._c["reload_success"].value += 1
        self._c["recovered"].value += 1
        self._tracer.emit(RECOVERY_RELOAD, attempt=self._reload_attempts,
                          ok=True)
        return True
