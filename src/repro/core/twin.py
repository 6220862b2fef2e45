"""TwinDrivers orchestration (paper §3, §5).

:class:`TwinDriverManager` performs the whole twinning flow:

1. assemble the VM driver and **rewrite** it (SVM instrumentation);
2. set up the dom0 *identity* SVM runtime and load the rewritten binary
   into dom0 as the **VM instance** (the same rewritten driver is used for
   both instances — §5.1.2 — so code addresses differ by a constant);
3. set up the hypervisor stlb, the hypervisor support routines (Table 1),
   the upcall stubs for everything else, and load the **hypervisor
   instance** at its layout's code base (the k-th twin built on a
   hypervisor takes the k-th of its ``TWIN_LAYOUTS``);
4. route NIC interrupts to the hypervisor instance (softirq context,
   honouring dom0's virtual interrupt flag — §4.4);
5. implement the guest transmit path (header copy + guest-page fragment
   chaining) and the receive path (MAC demux, copy into guest, virtual
   interrupt) for :class:`~repro.core.paravirt.ParavirtNetDevice`.

Management operations (probe, open, stats, ethtool, watchdog timers)
keep running in the **VM instance** inside dom0 via :meth:`vm_call` and
:meth:`run_vm_maintenance`.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from ..analysis.report import VerificationError
from ..drivers import DriverSpec, E1000_SPEC
from ..machine.nic import NicDevice, flow_hash
from ..machine.paging import AddressSpace
from ..osmodel import layout as L
from ..osmodel.kernel import Kernel
from ..obs.events import (
    PACKET_RX_DEMUX,
    SPAN_IRQ,
    SPAN_PACKET_RX,
    SPAN_PACKET_TX,
)
from ..obs.health import VIRQ_DEFER_HISTOGRAM
from ..osmodel.netdev import NetDevice
from ..osmodel.skbuff import SkBuff
from ..xen.hypervisor import Hypervisor
from .hypsupport import HYPERVISOR_FAST_PATH, HypervisorSupport
from .loader import (
    DriverAborted,
    HypAllocator,
    HypervisorLoader,
    SvmRuntime,
    allocate_runtime_symbols,
)
from .loader import install_elision_hooks
from .paravirt import ParavirtNetDevice
from .recovery import RecoveryManager, RecoveryPolicy
from .rewriter import STLB_SYMBOL, apply_elision, rewrite_driver
from .svm import SvmManager, SvmMapExhausted, SvmProtectionFault
from .upcall import UpcallAborted, UpcallManager

#: Faults the containment boundary catches at hypervisor entry points.
#: Python-glue support calls run outside ``HypervisorDriver.invoke``, so
#: raw SVM faults appear here alongside the wrapped ``DriverAborted``.
CONTAINABLE_FAULTS = (DriverAborted, SvmProtectionFault, SvmMapExhausted,
                      UpcallAborted)

#: NAPI-style receive budget: packets delivered per guest per queue per
#: :meth:`TwinDriverManager.flush_rx` pass; leftovers are requeued and a
#: softirq continues the flush.
RX_BATCH_BUDGET = 64
#: Upper bound on frames accepted per :meth:`guest_transmit_batch` call.
TX_BATCH_MAX = 32


#: held-entry kinds that carry receives (part of the rx backlog).
RX_KINDS = ("rx", "rx_bytes")


class Held(NamedTuple):
    """One unit of work the twin accepted but cannot run yet: an entry
    of :attr:`TwinDriverManager.held`, released exactly once later.

    ``kind`` is one of:

    * ``"irq"`` — ``data`` is a NIC line deferred while dom0's virq was
      masked or the twin was frozen (``dev`` is None);
    * ``"tx"`` — ``data`` is ``(staging buf, frame bytes)`` for a guest
      frame admitted while frozen; the bytes are snapshotted at
      admission because the guest reuses its staging buffer;
    * ``"rx"`` — ``data`` is the skb addresses of a batch for a guest
      whose virq is masked, not yet copied or charged;
    * ``"rx_bytes"`` — the same batch snapshotted to payload bytes (it
      survives a quarantine or a re-home; its skbs are released).

    ``at`` is the cycle clock when the work was held."""

    kind: str
    dev: Optional["ParavirtNetDevice"]
    data: object
    at: int


class TwinQueue:
    """One shard of the twin's receive state (multiqueue RSS).

    Each queue owns its rx backlog, a lock-ownership word (which vCPU
    last flushed it — the contention model charges a cache-line handoff
    when that changes), and an stlb partition warmth tag (which guest's
    translations are hot in this queue's slice of the stlb — flushing a
    different guest pays a partition refill). With
    ``num_queues=1`` the single queue behaves exactly like the pre-SMP
    global rx queue and none of the contention charges fire."""

    def __init__(self, index: int):
        self.index = index
        #: queued (guest device, skb address) pairs awaiting flush.
        self.rx: List[Tuple["ParavirtNetDevice", int]] = []
        #: id of the vCPU that last held this queue's flush lock.
        self.lock_owner: Optional[int] = None
        #: MAC of the guest whose translations are hot in this queue's
        #: stlb partition (None = cold).
        self.last_guest: Optional[bytes] = None


class TwinDriverManager:
    """Orchestrates the whole twinning flow (paper §3/§5)."""

    def __init__(self, xen: Hypervisor, dom0_kernel: Kernel,
                 upcall_routines: Iterable[str] = (),
                 pool_size: int = 256,
                 program=None,
                 protect_stack: bool = False,
                 stlb_entries: int = 4096,
                 driver: Optional[DriverSpec] = None,
                 recovery: bool = True,
                 recovery_policy: Optional[RecoveryPolicy] = None,
                 elide: bool = False,
                 num_queues: int = 1):
        """``upcall_routines``: fast-path routine names to serve via
        upcalls instead of hypervisor implementations (figure 10).
        ``protect_stack`` enables the §4.5.1 extension (bounds checks on
        variable-offset stack accesses). ``stlb_entries`` sizes the stlb
        hash table (the paper's is 4096 entries / 16 MiB). ``driver``
        selects which driver to twin (default: the e1000 spec).
        The rewritten binary is always statically verified (annotated
        mode); a report that is not clean raises ``VerificationError``
        before any set-up, and the hypervisor loader checks it again.
        The report is kept on ``self.verify_report`` next to
        ``self.rewrite_stats``.
        ``recovery`` (default on) arms the fault-containment subsystem:
        faults at the hypervisor boundary quarantine the instance and
        degrade to the dom0 path instead of propagating; set it False to
        get the raw §4.5 abort semantics (tests).
        ``elide`` enables proof-based check elision: sites the verifier's
        abstract interpretation proved to stay inside an anchor's checked
        page pair reload the anchor's stored translation instead of
        re-running the stlb check (the proofs come from the verification
        report); both instances load the same transformed binary so
        ``code_offset`` stays a single constant.
        ``num_queues`` shards the receive path into N RSS queues, each
        with its own backlog, budget, lock ownership and stlb partition;
        1 (the default) reproduces the pre-SMP single-queue behaviour
        bit-for-bit.
        The twin's hypervisor VA layout and metric namespace come from
        ``xen``: the first twin built on it is ``hyp``, a second live
        instance (queue re-homing, DESIGN.md §14) is ``hyp2``."""
        self.xen = xen
        self.machine = xen.machine
        self.dom0_kernel = dom0_kernel
        self.protect_stack = protect_stack
        self.layout = layout = xen.next_twin_layout()
        self.instance_name = layout.name
        self.upcall_routines = frozenset(upcall_routines)
        unknown = self.upcall_routines - frozenset(HYPERVISOR_FAST_PATH)
        if unknown:
            raise ValueError(f"not fast-path routines: {sorted(unknown)}")
        if num_queues < 1:
            raise ValueError("num_queues must be >= 1")

        # 1. assemble + rewrite
        self.driver_spec = driver or E1000_SPEC
        self.program = (program if program is not None
                        else self.driver_spec.build_program())
        self.rewritten, self.rewrite_stats = rewrite_driver(
            self.program, protect_stack=protect_stack,
            stlb_entries=stlb_entries)
        # verify-then-load: the hypervisor proves the rewritten binary
        # safe before trusting it, and a refused binary is refused here,
        # before any of the set-up below takes memory, natives or a
        # module (the loader checks the report again: reload and
        # handover load through it)
        self.verify_report = self.reverify()
        if not self.verify_report.ok:
            raise VerificationError(self.verify_report)
        # prove-then-elide: consume the verifier's proofs to drop stlb
        # re-checks on proven sites. ``self.rewritten`` stays pre-elision
        # (it is what recovery re-verifies); ``self.loadable`` is what
        # both instances actually load.
        self.elision = None
        self.loadable = self.rewritten
        if elide:
            self.loadable, self.elision = apply_elision(
                self.rewritten, self.verify_report.proofs)

        # 2. dom0 identity runtime + VM instance
        dom0_syms = allocate_runtime_symbols(dom0_kernel.alloc_module_data)
        if self.elision is not None:
            # per-instance anchor slots (the identity instance stores raw
            # dom0 pointers, the hypervisor instance stores translated
            # ones — they must not share storage)
            self._alloc_anchor_slots(dom0_syms, dom0_kernel.alloc_module_data)
        self.identity_svm = SvmManager(
            self.machine, dom0_syms[STLB_SYMBOL],
            dom0_kernel.domain.aspace, identity=True,
            name=layout.vm_stlb,
            entries=stlb_entries,
        )
        self.dom0_runtime = SvmRuntime(
            self.machine, layout.vm_prefix, self.identity_svm, dom0_syms,
            translate_code=self._identity_translate_code,
            data_space=dom0_kernel.domain.aspace,
        )
        self.dom0_runtime.set_stack_bounds(L.KERNEL_STACK_BASE,
                                           L.KERNEL_STACK_TOP)
        self.vm_module = dom0_kernel.load_driver(
            self.loadable,
            extra_symbols=dom0_syms,
            extra_imports=self.dom0_runtime.imports,
        )
        if self.elision is not None:
            install_elision_hooks(self.vm_module.loaded, self.identity_svm,
                                  self.elision.elided_indices)

        # 3. hypervisor side
        self.hyp_alloc = HypAllocator(self.machine, layout.data_base)
        hyp_syms = allocate_runtime_symbols(self.hyp_alloc.alloc)
        if self.elision is not None:
            # placed in hyp runtime symbols so the loader's runtime
            # override wins over the dom0 addresses in vm_module
            self._alloc_anchor_slots(hyp_syms, self.hyp_alloc.alloc)
        self.svm = SvmManager(
            self.machine, hyp_syms[STLB_SYMBOL],
            dom0_kernel.domain.aspace, identity=False,
            map_base=layout.svm_map_base, name=f"{layout.name}-stlb",
            entries=stlb_entries,
        )
        hyp_data_space = AddressSpace(
            f"{layout.name}-data", self.machine.phys,
            self.machine.hypervisor_table
        )
        self.hyp_runtime = SvmRuntime(
            self.machine, layout.name, self.svm, hyp_syms,
            translate_code=None,  # installed by the loader
            data_space=hyp_data_space,
        )
        self.upcalls = UpcallManager(xen, dom0_kernel)
        self.hyp_support = HypervisorSupport(
            xen, dom0_kernel, self.svm, self, pool_size=pool_size,
            prefix=layout.name,
        )
        self._load_hyp_driver(self.verify_report)

        # guests & NICs
        self.guest_devices: List[ParavirtNetDevice] = []
        self.guests_by_mac: Dict[bytes, ParavirtNetDevice] = {}
        self.netdevs: Dict[int, int] = {}        # irq -> dom0 netdev addr
        self.netdev_order: List[int] = []
        self.nics_by_irq: Dict[int, NicDevice] = {}
        self.rx_dropped_no_guest = 0
        #: planned-handover admission gate: while True the twin accepts
        #: but holds all new work (tx frames, NIC irqs) so the handover
        #: can swap/rehome against a quiescent instance.
        self.frozen = False
        #: the hold-and-replay ledger: all work accepted but not yet run,
        #: in arrival order. Only the unmask hook, the handover replay
        #: and the quarantine teardown release from it.
        self.held: List[Held] = []

        # multiqueue sharding: per-queue rx backlogs, lock ownership and
        # stlb partitions; guests are steered to a queue by the RSS hash
        # of their MAC
        self.num_queues = num_queues
        self.queues = [TwinQueue(i) for i in range(num_queues)]
        self._guest_rx_queue: Dict[bytes, int] = {}
        #: netdev addr -> id of the vCPU that last held its tx lock.
        self._tx_lock_owner: Dict[int, int] = {}
        registry = self.machine.obs.registry
        self._h_rx_batch = registry.histogram("twin.rx_batch_size")
        self._h_tx_batch = registry.histogram("twin.tx_batch_size")
        #: deferred-virq replay latency (simulated cycles); the health
        #: watchdog checks its p99 against an SLO
        self._h_virq_defer = registry.histogram(VIRQ_DEFER_HISTOGRAM)

        # held NIC interrupts are replayed as soon as dom0 re-enables
        # its virtual interrupt flag (or is next scheduled with it set)
        dom0_kernel.domain.unmask_hooks.append(self._on_virq_unmask)

        # fault containment & recovery (None = raw abort semantics)
        self.recovery: Optional[RecoveryManager] = (
            RecoveryManager(self, recovery_policy) if recovery else None
        )
        xen.twins.append(self)

    # ------------------------------------------------------------------ setup

    def _alloc_anchor_slots(self, syms: Dict[str, int], alloc_fn) -> None:
        """Allocate this instance's ``__svm_anchorK`` slots into ``syms``.
        Elided sites reload them on every access, so they are cache-hot."""
        addrs = [alloc_fn(size) for _, size in self.elision.anchor_symbols]
        for (name, size), addr in zip(self.elision.anchor_symbols, addrs):
            syms[name] = addr
        if addrs:
            self.machine.cpu.add_hot_range(min(addrs), max(addrs) + 4)

    def attach_nic(self, nic: NicDevice) -> int:
        """Probe + open the NIC through the VM instance in dom0, then take
        over its interrupt line for the hypervisor driver. Returns the
        dom0 address of the net_device."""
        kernel = self.dom0_kernel
        ndev = kernel.create_netdev_for_nic(nic)
        self.vm_call(self.driver_spec.probe_symbol, [ndev.addr])
        self.vm_call(self.driver_spec.open_symbol, [ndev.addr])
        self.xen.register_irq_handler(nic.irq, self._handle_nic_irq)
        self.netdevs[nic.irq] = ndev.addr
        self.netdev_order.append(ndev.addr)
        self.nics_by_irq[nic.irq] = nic
        return ndev.addr

    def register_guest_device(self, dev: ParavirtNetDevice):
        self.guest_devices.append(dev)
        self.guests_by_mac[dev.mac] = dev
        # RSS steering: this guest's flows land on one queue, keyed by
        # the deterministic flow hash of its MAC
        self._guest_rx_queue[dev.mac] = flow_hash(dev.mac) % self.num_queues
        hooks = dev.kernel.domain.unmask_hooks
        if self._on_virq_unmask not in hooks:
            hooks.append(self._on_virq_unmask)
        if self.netdev_order:
            index = (len(self.guest_devices) - 1) % len(self.netdev_order)
            dev.netdev_addr = self.netdev_order[index]
        else:
            dev.netdev_addr = None

    # -- rx backlog ------------------------------------------------------------

    @property
    def rx_backlog(self) -> int:
        """Total packets queued-but-undelivered across all rx queues,
        including receives held for virq-masked guests."""
        queued = sum(len(q.rx) for q in self.queues)
        return queued + sum(len(e.data) for e in self.held
                            if e.kind in RX_KINDS)

    def drop_rx_backlog(self):
        """Discard every queued receive and every held ``rx`` batch
        (recovery teardown — the skbs are reclaimed wholesale by the
        pool). ``rx_bytes`` entries no longer reference instance state
        and stay deliverable."""
        for q in self.queues:
            q.rx.clear()
        self._take(lambda e: e.kind == "rx")

    # -- the hold-and-replay ledger -----------------------------------------

    def hold(self, kind: str, dev: Optional[ParavirtNetDevice], data):
        """Append one entry to :attr:`held`, stamped with the cycle clock."""
        self.held.append(Held(kind, dev, data, self.machine.account.total))

    def _take(self, match: Callable[[Held], bool]) -> List[Held]:
        """Remove the held entries ``match`` accepts and return them in
        arrival order."""
        taken: List[Held] = []
        kept: List[Held] = []
        for entry in self.held:
            (taken if match(entry) else kept).append(entry)
        self.held[:] = kept
        return taken

    def snapshot_held_rx(self, dev: Optional[ParavirtNetDevice] = None
                         ) -> int:
        """Convert held ``rx`` entries (all, or only ``dev``'s) in place
        to ``rx_bytes``, so they outlive this instance's skbs. Payloads
        are read through dom0's own address space (the stlb may already
        be gone), and each entry drops the one reference it holds through
        dom0's ``free_skb``: a shared broadcast skb is only decremented,
        the last reference returns the skb to its pool (or to dom0's
        slab). Returns the number of packets converted."""
        mem = self.dom0_kernel.memory_view()
        converted = 0
        for i, entry in enumerate(self.held):
            if entry.kind != "rx" or (dev is not None
                                      and entry.dev is not dev):
                continue
            payloads: List[bytes] = []
            for skb_addr in entry.data:
                skb = SkBuff(mem, skb_addr)
                payloads.append(mem.read_bytes(skb.data, skb.len))
                self.dom0_kernel.free_skb(skb_addr)
            self.held[i] = entry._replace(kind="rx_bytes", data=payloads)
            converted += len(payloads)
        return converted

    def _deliver_payloads(self, guest: ParavirtNetDevice,
                          payloads: List[bytes]):
        """Deliver an ``rx_bytes`` batch: the single accounting event for
        packets whose skbs are already released. Each packet is charged
        one copy (into the guest's buffers) and the batch one coalesced
        virq — the same shape as a normal flush, minus the dom0
        bookkeeping share (dom0's skbs are already gone)."""
        costs = self.xen.costs
        for payload in payloads:
            self.xen.charge_xen(costs.copy_cost(len(payload))
                                + costs.twin_rx_copy_extra,
                                phase="twin:rx_copy")
        self._h_rx_batch.observe(len(payloads))
        self.xen.deliver_coalesced_virq(guest.kernel.domain, len(payloads))
        guest.deliver_batch(payloads)

    def _on_virq_unmask(self, domain):
        """Unmask hook on dom0 and on every guest domain this twin serves:
        ``domain`` re-enabled its virtual interrupt flag (or was scheduled
        with it set), so work held for it may run. For dom0 that is the
        held NIC interrupts, re-run like :meth:`_handle_nic_irq` from a
        softirq (deferred while a driver invocation is in flight). For a
        guest it is its held receives: ``rx`` batches go back on their
        queues and a softirq flush copies, charges and delivers them
        (their first and only accounting); ``rx_bytes`` batches are
        delivered directly. While frozen nothing is released; the
        handover's replay phase calls this again after the swap."""
        if self.frozen or not self.held:
            return
        if domain is self.dom0_kernel.domain:
            if not any(e.kind == "irq" for e in self.held):
                return
            self.xen.raise_softirq(self.retry_deferred_interrupts)
        else:
            requeued = False
            for entry in self._take(lambda e: e.kind in RX_KINDS
                                    and e.dev.kernel.domain is domain):
                if entry.kind == "rx":
                    qi = self._guest_rx_queue.get(entry.dev.mac, 0)
                    self.queues[qi].rx.extend(
                        (entry.dev, s) for s in entry.data)
                    requeued = True
                else:
                    self._deliver_payloads(entry.dev, entry.data)
            if not requeued:
                return
            self.xen.raise_softirq(self.flush_rx)
        if self.xen.driver_depth == 0:
            self.xen.run_softirqs()

    # ------------------------------------------------------------ VM instance

    def vm_call(self, symbol: str, args) -> int:
        """Run a management routine in the VM instance (dom0 context)."""
        previous = self.xen.current
        self.xen.switch_to(self.dom0_kernel.domain)
        try:
            return self.dom0_kernel.call_driver(
                self.vm_module.symbol(symbol), args
            )
        finally:
            self.xen.switch_to(previous)

    def run_vm_maintenance(self) -> int:
        """Fire due dom0 timers (the VM instance's watchdog etc.)."""
        previous = self.xen.current
        self.xen.switch_to(self.dom0_kernel.domain)
        try:
            return self.dom0_kernel.run_due_timers()
        finally:
            self.xen.switch_to(previous)

    def reverify(self, name: Optional[str] = None):
        """Statically verify the rewritten binary in annotated mode (the
        rewriter's site annotations are cross-checked, not believed).
        Under elision this is the *pre-elision* binary — the transform
        is a pure function of its proofs, and the elided binary
        intentionally fails verification — so every load, reload, swap
        and recovery proves the same program."""
        from ..analysis.verifier import verify_program
        return verify_program(
            self.rewritten, annotations=self.rewrite_stats.annotations,
            protect_stack=self.protect_stack, name=name)

    def _load_hyp_driver(self, verify_report) -> None:
        """Load :attr:`loadable` as this instance's hypervisor driver at
        its code base, bound to the hypervisor support routines except
        the upcalled ones. The loader refuses a failed ``verify_report``."""
        support_bindings = {
            name: addr for name, addr in self.hyp_support.addresses.items()
            if name not in self.upcall_routines
        }
        loader = HypervisorLoader(self.xen, self.layout.code_base,
                                  self.layout.stack_base)
        self.hyp_driver = loader.load(
            self.loadable, self.vm_module, self.hyp_runtime,
            support_bindings, verify_report,
            upcall_factory=self.upcalls.make_stub,
            name=f"{self.instance_name}:{self.driver_spec.name}",
            elided_indices=(self.elision.elided_indices
                            if self.elision is not None else ()),
        )

    def reload_hyp_driver(self, verify_report=None) -> None:
        """Replace a quarantined hypervisor instance with a freshly loaded
        one at the same code base (``code_offset`` stays constant, so
        indirect-call translation is unchanged). Recovery and handover
        pass in the report of their own :meth:`reverify`; without one
        the binary is re-verified here."""
        if verify_report is None:
            verify_report = self.reverify()
        self.machine.code.unregister(self.hyp_driver.loaded)
        self._load_hyp_driver(verify_report)

    def reset_anchor_slots(self) -> int:
        """Zero this instance's ``__svm_anchorK`` slots (hypervisor side).
        A planned swap must not let a translation stored by the OLD
        program be the first thing the NEW program's elided sites reload;
        every anchor site re-stores before its elided reads, so zeroing
        is free on the fast path. Returns the number of slots cleared."""
        if self.elision is None:
            return 0
        space = self.hyp_runtime._data_space
        symbols = self.hyp_runtime.symbols
        cleared = 0
        for name, _size in self.elision.anchor_symbols:
            space.write_u32(symbols[name], 0)
            cleared += 1
        return cleared

    def _identity_translate_code(self, addr: int) -> int:
        vm = self.vm_module.loaded
        if vm.base <= addr < vm.end:
            return addr
        if self.machine.natives.is_native(addr):
            return addr
        raise SvmProtectionFault(addr, "indirect call outside the driver")

    # -------------------------------------------------------------- interrupts

    def _handle_nic_irq(self, irq: int):
        """NIC interrupt: §4.4 — run the driver handler in a schedulable
        softirq context, honouring dom0's virtual interrupt flag. If a
        driver invocation is in flight the softirq is deferred until it
        completes (a nested invocation would re-enter the per-CPU SVM
        spill slots)."""
        self.xen.raise_softirq(lambda: self._run_interrupt(irq))
        if self.xen.driver_depth == 0:
            self.xen.run_softirqs()

    def _run_interrupt(self, irq: int):
        if self.frozen:
            # planned handover in progress: hold like a masked dom0 —
            # the handover's replay phase re-runs these in arrival order
            self.hold("irq", None, irq)
            return
        if self.recovery is not None and self.recovery.degraded:
            self.recovery.degraded_interrupt(irq)
            return
        if not self.dom0_kernel.domain.virq_enabled:
            # dom0 masked driver interrupts (it may hold a shared lock):
            # hold until the flag is re-enabled.
            self.hold("irq", None, irq)
            return
        entry_vm, arg = self.dom0_kernel.irq_handlers[irq]
        entry = self.hyp_driver.entry_for_vm_address(entry_vm)
        with self.machine.obs.tracer.span(SPAN_IRQ, irq=irq):
            try:
                self.hyp_driver.invoke(entry, [irq, arg],
                                       upcalls=self.upcalls)
                self.flush_rx()
            except CONTAINABLE_FAULTS as exc:
                if self.recovery is None:
                    raise
                self.recovery.handle_abort(exc)
                # serve this interrupt on the degraded dom0 path (the
                # device may still have unconsumed causes / ring entries)
                self.recovery.degraded_interrupt(irq)

    def retry_deferred_interrupts(self):
        """Re-run the held NIC interrupts in arrival order, observing how
        long each waited into the virq-latency SLO histogram."""
        now = self.machine.account.total
        for entry in self._take(lambda e: e.kind == "irq"):
            self._h_virq_defer.observe(now - entry.at)
            self._run_interrupt(entry.data)

    def replay_frozen_tx(self) -> List[bool]:
        """Replay the held tx frames admitted during a handover freeze, in
        order. Each frame's bytes are restored into the guest's staging
        buffer (pure state restoration — the guest-side staging was
        charged at admission) and sent through whichever twin owns the
        device NOW, so frames from a re-homed guest go through the target
        instance."""
        if self.frozen:
            raise RuntimeError("cannot replay frozen tx while still frozen")
        results: List[bool] = []
        for entry in self._take(lambda e: e.kind == "tx"):
            dev, (buf, frame) = entry.dev, entry.data
            dev.kernel.domain.aspace.write_bytes(buf, frame)
            results.append(dev.twin.guest_transmit(dev, buf, len(frame)))
        return results

    # --------------------------------------------------------------- re-homing

    def detach_guest_device(self, dev: ParavirtNetDevice) -> List[Held]:
        """Remove ``dev`` from this twin for re-homing to another live
        instance. Its receives are snapshotted to ``rx_bytes`` entries
        (each skb reference released to THIS twin's pool) and returned
        in arrival order for the adopting twin: held batches first, then
        anything still queued — every held batch for a guest is older
        than every queued frame for it. Its held tx frames stay and
        replay through ``dev.twin``. The unmask hook is removed when no
        other device of that domain stays behind."""
        if dev not in self.guest_devices:
            raise ValueError(f"device {dev.mac.hex()} not on this twin")
        for q in self.queues:
            mine = [s for g, s in q.rx if g is dev]
            if mine:
                q.rx = [(g, s) for g, s in q.rx if g is not dev]
                self.hold("rx", dev, mine)
        self.snapshot_held_rx(dev)
        pending = self._take(lambda e: e.dev is dev and e.kind == "rx_bytes")

        self.guest_devices.remove(dev)
        del self.guests_by_mac[dev.mac]
        self._guest_rx_queue.pop(dev.mac, None)
        domain = dev.kernel.domain
        if not any(d.kernel.domain is domain for d in self.guest_devices):
            if self._on_virq_unmask in domain.unmask_hooks:
                domain.unmask_hooks.remove(self._on_virq_unmask)
        dev.netdev_addr = None
        return pending

    def adopt_guest_device(self, dev: ParavirtNetDevice,
                           pending: Iterable[Held] = ()):
        """Adopt a device detached from another twin: register it here
        (RSS steering, unmask hook, netdev binding), then deliver — or
        hold, if the guest's virq is masked — the ``rx_bytes`` entries
        that were in flight on the source instance, in their order."""
        dev.twin = self
        self.register_guest_device(dev)
        for entry in pending:
            if dev.kernel.domain.virq_enabled and not self.frozen:
                self._deliver_payloads(dev, entry.data)
            else:
                self.held.append(entry)

    # ----------------------------------------------------------------- transmit

    def guest_transmit(self, dev: ParavirtNetDevice, buf: int,
                       frame_len: int) -> bool:
        """The hypervisor half of the paravirtual transmit path."""
        if dev.netdev_addr is None:
            raise RuntimeError("guest device not bound to a NIC")
        with self.machine.obs.tracer.span(SPAN_PACKET_TX, len=frame_len):
            return self._contained_transmit(dev, buf, frame_len)

    def _contained_transmit(self, dev: ParavirtNetDevice, buf: int,
                            frame_len: int) -> bool:
        """The containment boundary for the transmit path: while degraded
        route to dom0; on a fault, quarantine and serve the packet on the
        degraded path so the guest never sees the abort."""
        if self.frozen:
            # handover admission gate: accept the frame but park it; the
            # replay phase sends it through whichever twin owns the
            # device after the swap/rehome
            frame = dev.kernel.domain.aspace.read_bytes(buf, frame_len)
            self.hold("tx", dev, (buf, frame))
            return True
        if self.recovery is not None and self.recovery.degraded:
            return self.recovery.degraded_transmit(dev, buf, frame_len)
        try:
            return self._guest_transmit(dev, buf, frame_len)
        except CONTAINABLE_FAULTS as exc:
            if self.recovery is None:
                raise
            self.recovery.handle_abort(exc)
            return self.recovery.degraded_transmit(dev, buf, frame_len)

    def _guest_transmit(self, dev: ParavirtNetDevice, buf: int,
                        frame_len: int, entry: Optional[int] = None) -> bool:
        costs = self.xen.costs
        if self.driver_spec.scatter_gather:
            header, frags = dev.guest_frame_fragments(buf, frame_len)
        else:
            # the driver cannot do scatter/gather: hand it a linear skb
            # (the whole frame is copied, like NETIF_F_SG-less devices)
            header = dev.kernel.domain.aspace.read_bytes(buf, frame_len)
            frags = []

        skb_addr = self.hyp_support.netdev_alloc_skb(dev.netdev_addr,
                                                     frame_len)
        self._charge_support("netdev_alloc_skb")
        if skb_addr == 0:
            return False
        try:
            skb = SkBuff(self.hyp_support.view, skb_addr)
            # copy the header (or, without SG, the whole frame) into the
            # skb — these writes go through the stlb and can fault too
            skb.put(len(header))
            self.hyp_support.view.write_bytes(skb.data, header)
            self.xen.charge_xen(costs.copy_cost(len(header)),
                                phase="twin:tx_copy")
            # ... chain the rest of the guest packet as page fragments
            for page, off, size in frags:
                skb.add_frag(page, off, size)
                self.xen.charge_xen(costs.frag_chain, phase="twin:tx_frag")
            if entry is None:
                entry = self._xmit_entry(dev)
            result = self.hyp_driver.invoke(
                entry, [skb_addr, dev.netdev_addr], upcalls=self.upcalls)
        except CONTAINABLE_FAULTS:
            # the staged skb would otherwise stay 'outstanding' forever:
            # the faulting instance never gets to free it, and the
            # degraded path allocates its own
            self.hyp_support.pool.release(skb_addr)
            raise
        if result != 0:
            self.hyp_support.dev_kfree_skb_any(skb_addr)
            self._charge_support("dev_kfree_skb_any")
            return False
        return True

    def _xmit_entry(self, dev: ParavirtNetDevice) -> int:
        xmit_vm = NetDevice(self.dom0_kernel.domain.aspace,
                            dev.netdev_addr).hard_start_xmit
        return self.hyp_driver.entry_for_vm_address(xmit_vm)

    def guest_transmit_batch(self, dev: ParavirtNetDevice,
                             frames: List[Tuple[int, int]]) -> List[bool]:
        """Transmit a burst of staged guest frames (``(buf, len)`` pairs)
        under one span, resolving the driver's ``hard_start_xmit`` entry
        once for the whole batch. A containable fault mid-batch routes the
        faulting frame *and the rest of the burst* through the degraded
        per-packet path, so the guest still gets one result per frame."""
        if dev.netdev_addr is None:
            raise RuntimeError("guest device not bound to a NIC")
        if len(frames) > TX_BATCH_MAX:
            raise ValueError(
                f"batch of {len(frames)} exceeds TX_BATCH_MAX={TX_BATCH_MAX}")
        if not frames:
            return []
        self._h_tx_batch.observe(len(frames))
        total = sum(frame_len for _, frame_len in frames)
        with self.machine.obs.tracer.span(SPAN_PACKET_TX, len=total,
                                          batch=len(frames)):
            return self._guest_transmit_burst(dev, frames)

    def _guest_transmit_burst(self, dev: ParavirtNetDevice,
                              frames: List[Tuple[int, int]]) -> List[bool]:
        if self.frozen:
            aspace = dev.kernel.domain.aspace
            for buf, n in frames:
                self.hold("tx", dev, (buf, aspace.read_bytes(buf, n)))
            return [True] * len(frames)
        if self.recovery is not None and self.recovery.degraded:
            return [self.recovery.degraded_transmit(dev, buf, frame_len)
                    for buf, frame_len in frames]
        if self.num_queues > 1 and dev.netdev_addr is not None:
            # tx-lock contention model (the driver's xmit lock, which the
            # twin already takes): a burst from a vCPU that did not send
            # the previous burst on this netdev pays the cache-line
            # handoff; same-vCPU back-to-back bursts take it uncontended
            owner = self.xen._cur_vcpu.id
            last = self._tx_lock_owner.get(dev.netdev_addr)
            costs = self.xen.costs
            if last is None or last == owner:
                self.xen.charge_xen(costs.lock_uncontended,
                                    phase="twin:lock")
            else:
                self.xen.charge_xen(costs.lock_handoff,
                                    phase="twin:lock_handoff")
            self._tx_lock_owner[dev.netdev_addr] = owner
        entry = self._xmit_entry(dev)
        results: List[bool] = []
        for index, (buf, frame_len) in enumerate(frames):
            try:
                results.append(
                    self._guest_transmit(dev, buf, frame_len, entry=entry))
            except CONTAINABLE_FAULTS as exc:
                if self.recovery is None:
                    raise
                self.recovery.handle_abort(exc)
                # per-packet fallback: this frame and the remainder of
                # the burst go through the degraded dom0 path
                results.extend(
                    self.recovery.degraded_transmit(dev, b, n)
                    for b, n in frames[index:])
                break
        return results

    # ------------------------------------------------------------------ receive

    def rx_targets(self, dst_mac: bytes) -> List[ParavirtNetDevice]:
        """The rx demux decision, shared by the fast path and the
        degraded dom0 path: a frame with the group bit set (broadcast or
        multicast) goes to every guest, a unicast frame to the guest
        that owns ``dst_mac``, or to nobody."""
        if dst_mac[0] & 1:
            return list(self.guest_devices)
        guest = self.guests_by_mac.get(dst_mac)
        return [guest] if guest is not None else []

    def hypervisor_netif_rx(self, skb_addr: int):
        """The hypervisor's netif_rx: demultiplex on destination MAC
        (:meth:`rx_targets`) and queue for each target guest (paper
        §5.3). A frame for several guests has its skb refcount raised so
        each delivery drops one reference. A frame for no guest is
        dropped and counted."""
        costs = self.xen.costs
        self.xen.charge_xen(costs.twin_rx_demux, phase="twin:rx_demux")
        skb = SkBuff(self.hyp_support.view, skb_addr)
        # eth_type_trans already pulled the header: MAC is at data - 14.
        targets = self.rx_targets(self.hyp_support.view.read_bytes(
            skb.data - L.ETH_HLEN, L.ETH_ALEN))
        tracer = self.machine.obs.tracer
        if tracer.enabled:
            tracer.emit(PACKET_RX_DEMUX, skb=skb_addr, len=skb.len,
                        matched=bool(targets), ntargets=len(targets))
        if not targets:
            self.rx_dropped_no_guest += 1
            self.hyp_support.dev_kfree_skb_any(skb_addr)
            self._charge_support("dev_kfree_skb_any")
            return
        if len(targets) > 1:
            skb.refcnt = skb.refcnt + len(targets) - 1
        multi = self.num_queues > 1
        for target in targets:
            if multi:
                # RSS queue selection per packet (hash + steering table)
                self.xen.charge_xen(costs.rss_demux, phase="twin:rss_demux")
            qi = self._guest_rx_queue.get(target.mac, 0)
            self.queues[qi].rx.append((target, skb_addr))

    def flush_rx(self):
        """'When the guest domain is scheduled next, the hypervisor copies
        the packets into guest domain buffers and raises a virtual
        interrupt' (§5.3).

        Packets are delivered per queue shard, in per-guest batches: each
        guest gets at most :data:`RX_BATCH_BUDGET` per queue per pass
        (NAPI-style) under
        ONE coalesced virtual interrupt; packets over budget are requeued
        and a softirq continues the flush. Batches for a virq-masked
        guest are held as ``rx`` entries, un-copied and un-charged; the
        guest's unmask hook replays them, so every packet is counted
        exactly once."""
        need_continuation = False
        for q in self.queues:
            if q.rx:
                need_continuation |= self._flush_queue(q)
        if need_continuation:
            # budget exhausted for at least one guest: requeue and let a
            # softirq continue (keeps any one guest from starving others)
            self.xen.raise_softirq(self.flush_rx)
            if self.xen.driver_depth == 0:
                self.xen.run_softirqs()

    def _flush_queue(self, q: TwinQueue) -> bool:
        """Flush one queue shard; returns True when leftovers remain."""
        costs = self.xen.costs
        obs = self.machine.obs
        multi = self.num_queues > 1
        if multi:
            # flush-lock contention model: taking a queue lock last held
            # by another vCPU bounces its cache line across the socket
            owner = self.xen._cur_vcpu.id
            if q.lock_owner is None or q.lock_owner == owner:
                self.xen.charge_xen(costs.lock_uncontended,
                                    phase="twin:lock")
            else:
                self.xen.charge_xen(costs.lock_handoff,
                                    phase="twin:lock_handoff")
            q.lock_owner = owner
        queue, q.rx = q.rx, []

        # group into per-guest batches, preserving arrival order both
        # within a batch and across guests (first-seen order)
        batches: Dict[ParavirtNetDevice, List[int]] = {}
        order: List[ParavirtNetDevice] = []
        leftovers: List[Tuple[ParavirtNetDevice, int]] = []
        budget = RX_BATCH_BUDGET
        for guest, skb_addr in queue:
            batch = batches.get(guest)
            if batch is None:
                batch = batches[guest] = []
                order.append(guest)
            if len(batch) < budget:
                batch.append(skb_addr)
            else:
                leftovers.append((guest, skb_addr))

        for guest in order:
            batch = batches[guest]
            if not guest.kernel.domain.virq_enabled:
                # masked guest: hold the whole batch for the unmask hook.
                # Nothing is copied, charged or counted yet — the replay
                # delivery is the single accounting event.
                self.hold("rx", guest, batch)
                continue
            if multi and q.last_guest != guest.mac:
                # this queue's stlb partition is warm for a different
                # guest's buffers; switching guests refills it
                self.xen.charge_xen(costs.stlb_partition_refill,
                                    phase="twin:stlb_partition")
                q.last_guest = guest.mac
            payloads: List[bytes] = []
            for skb_addr in batch:
                skb = SkBuff(self.hyp_support.view, skb_addr)
                payload = self.hyp_support.view.read_bytes(skb.data, skb.len)
                with obs.tracer.span(SPAN_PACKET_RX, len=len(payload)):
                    self.xen.charge_xen(costs.copy_cost(len(payload))
                                        + costs.twin_rx_copy_extra,
                                        phase="twin:rx_copy")
                    obs.charge("dom0", costs.twin_rx_dom0_share,
                               phase="twin:rx_dom0_share")
                    self.hyp_support.dev_kfree_skb_any(skb_addr)
                    self._charge_support("dev_kfree_skb_any")
                    payloads.append(payload)
            # ONE virtual interrupt for the whole batch (was one per
            # packet): the coalescing §5.3 promises
            self._h_rx_batch.observe(len(payloads))
            self.xen.deliver_coalesced_virq(guest.kernel.domain,
                                            len(payloads))
            guest.deliver_batch(payloads)

        if leftovers:
            q.rx.extend(leftovers)
            return True
        return False

    # ------------------------------------------------------------------- helpers

    def _charge_support(self, name: str):
        self.hyp_support.note_call(name, direct=True)
        self.xen.charge_xen(self.xen.costs.support_cost(name),
                            phase=f"support:{name}")

    @property
    def aborted(self) -> bool:
        return self.hyp_driver.aborted
