"""The Xen-like hypervisor: domains, switches, events, hypercalls, softirqs.

This is the substrate both driver models run on:

* the *hosted* model (paper's ``domU``) pays :func:`switch_to` on every
  crossing between a guest and dom0;
* the *TwinDrivers* model invokes the hypervisor driver from any guest
  context via :func:`hypercall` with **no** switch — the whole point of
  SVM is that the driver's data is reachable through hypervisor mappings
  that are present in every address space.

Cycle charging convention: hypervisor work charges the ``Xen`` category,
domain kernel work charges the domain's category (``dom0``/``domU``), and
driver-binary execution charges ``e1000`` (the CPU is switched to that
category around driver invocations).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from ..machine.machine import Machine
from ..machine.paging import AddressSpace, HYPERVISOR_BASE
from ..obs.events import (
    DOMAIN_SWITCH,
    EVENT_SEND,
    HYPERCALL,
    SOFTIRQ,
    VIRQ,
    VIRQ_COALESCED,
)
from .costs import CostModel
from .domain import Domain
from .granttable import GrantTable
from .sched import SOFTIRQ_DRAIN_LIMIT, CreditScheduler, SoftirqStorm, VCpu

#: Hypervisor virtual-address layout (all inside the shared region).
HYP_CODE_BASE = 0xF0100000
HYP_STACK_BASE = 0xF0200000
HYP_STACK_PAGES = 4
HYP_UPCALL_STACK_BASE = 0xF0210000
HYP_DATA_BASE = 0xF0300000
#: SVM-created mappings of dom0 pages are allocated upward from here.
HYP_SVM_MAP_BASE = 0xF4000000

#: Layout for a SECOND live twin instance (queue re-homing / live
#: upgrade, DESIGN.md §14). Disjoint from the primary instance so both
#: can be mapped at once: code/stack/data sit above the primary's data
#: region and the SVM map window starts 32 MiB past the primary's.
HYP2_CODE_BASE = 0xF0800000
HYP2_STACK_BASE = 0xF0900000
HYP2_DATA_BASE = 0xF0A00000
HYP2_SVM_MAP_BASE = 0xF6000000


class TwinLayout(NamedTuple):
    """Where one live twin instance sits in the hypervisor VA space, and
    what its parts are called: ``name`` prefixes the hypervisor
    instance's natives, data space and stlb (``<name>-stlb``);
    ``vm_prefix`` and ``vm_stlb`` name the VM instance's runtime natives
    and identity stlb in dom0."""

    name: str
    vm_prefix: str
    vm_stlb: str
    code_base: int
    stack_base: int
    data_base: int
    svm_map_base: int


#: The k-th twin instance built on a hypervisor takes the k-th layout;
#: there is no room for a third.
TWIN_LAYOUTS = (
    TwinLayout("hyp", "dom0", "dom0-stlb", HYP_CODE_BASE, HYP_STACK_BASE,
               HYP_DATA_BASE, HYP_SVM_MAP_BASE),
    TwinLayout("hyp2", "hyp2.dom0", "hyp2-dom0-stlb", HYP2_CODE_BASE,
               HYP2_STACK_BASE, HYP2_DATA_BASE, HYP2_SVM_MAP_BASE),
)


class Hypervisor:
    """The Xen-like VMM: domains, switches, events, grants, softirqs."""

    def __init__(self, machine: Machine, costs: Optional[CostModel] = None,
                 vcpus: int = 1):
        self.machine = machine
        self.costs = costs or CostModel()
        self.domains: List[Domain] = []
        self.dom0: Optional[Domain] = None
        self.grant_tables: Dict[int, GrantTable] = {}
        #: live twin instances in build order; the k-th holds
        #: ``TWIN_LAYOUTS[k]``
        self.twins: List[object] = []
        self._irq_handlers: Dict[int, Callable[[int], None]] = {}
        # SMP: all formerly-global per-CPU state (current domain, softirq
        # queue, driver depth) lives on VCpu objects; the single-vCPU
        # default is just "there is one VCpu and it never changes".
        if vcpus < 1:
            raise ValueError(f"need at least one vcpu, got {vcpus}")
        self.vcpus: List[VCpu] = [VCpu(i, self) for i in range(vcpus)]
        self._cur_vcpu: VCpu = self.vcpus[0]
        self.scheduler = CreditScheduler(self, self.vcpus)
        # mechanism counters live in the machine-wide registry
        self._tracer = machine.obs.tracer
        self._c_switch = machine.obs.registry.counter("xen.switch")
        self._c_hypercall = machine.obs.registry.counter("xen.hypercall")
        self._c_event = machine.obs.registry.counter("xen.event_send")
        self._c_virq = machine.obs.registry.counter("xen.virq")
        self._c_virq_coalesced = machine.obs.registry.counter(
            "xen.virq_coalesced")
        self._c_softirq = machine.obs.registry.counter("xen.softirq")
        machine.intc.set_dispatcher(self._dispatch_irq)
        machine.cpu.cycle_scale = self.costs.driver_cycle_scale

    # -- per-vCPU state ----------------------------------------------------------
    #
    # `current`, `driver_depth`, and the softirq queue are per-CPU on real
    # Xen; these properties delegate to the active vCPU so every existing
    # single-vCPU call site keeps working unchanged.

    @property
    def current(self) -> Optional[Domain]:
        """The domain whose address space the active vCPU runs."""
        return self._cur_vcpu.current

    @current.setter
    def current(self, domain: Optional[Domain]):
        self._cur_vcpu.current = domain

    @property
    def driver_depth(self) -> int:
        """>0 while a hypervisor-driver invocation is in flight on the
        active vCPU; softirqs are deferred until it drains (paper §4.4:
        the driver ISR runs in a *schedulable* softirq context, never
        nested inside driver execution)."""
        return self._cur_vcpu.driver_depth

    @driver_depth.setter
    def driver_depth(self, depth: int):
        self._cur_vcpu.driver_depth = depth

    @property
    def _softirqs(self) -> List[Callable[[], None]]:
        return self._cur_vcpu.softirqs

    def activate_vcpu(self, vcpu: VCpu):
        """Make ``vcpu`` the one the simulated pCPU stands in for. Free
        of cycle charges: the quantum's costs are charged by the
        scheduler's pick/switch path, not by the standin rotation."""
        if vcpu is self._cur_vcpu:
            return
        self._cur_vcpu = vcpu
        if vcpu.current is not None:
            self.machine.cpu.address_space = vcpu.current.aspace

    # -- accounting helpers ------------------------------------------------------

    def charge_xen(self, cycles: int, phase: Optional[str] = None):
        """Charge hypervisor cycles under profile frame ``phase``."""
        self.machine.obs.charge("Xen", cycles, phase)

    # -- counter views (registry-backed) -----------------------------------------

    @property
    def switches(self) -> int:
        return self._c_switch.value

    @property
    def hypercalls(self) -> int:
        return self._c_hypercall.value

    # -- twin instances ------------------------------------------------------------

    def next_twin_layout(self) -> TwinLayout:
        """The layout the next twin instance built here takes. A twin
        joins :attr:`twins` only once it is built, so one the loader
        refuses leaves its layout to the next."""
        if len(self.twins) == len(TWIN_LAYOUTS):
            raise ValueError(
                f"hypervisor already hosts {len(self.twins)} twin "
                f"instances, one per layout in TWIN_LAYOUTS")
        return TWIN_LAYOUTS[len(self.twins)]

    # -- domain lifecycle ----------------------------------------------------------

    def create_domain(self, name: str, is_dom0: bool = False) -> Domain:
        domid = len(self.domains)
        aspace = AddressSpace(name, self.machine.phys,
                              self.machine.hypervisor_table)
        domain = Domain(domid, name, aspace, is_dom0=is_dom0)
        self.domains.append(domain)
        self.grant_tables[domid] = GrantTable(domid)
        if is_dom0:
            if self.dom0 is not None:
                raise ValueError("dom0 already exists")
            self.dom0 = domain
        self.scheduler.assign(domain)
        if self.current is None:
            self.current = domain
            self.machine.cpu.address_space = aspace
        return domain

    # -- context switching -----------------------------------------------------------

    def switch_to(self, domain: Domain):
        """Synchronous domain switch; charges the big TLB/cache cost."""
        if self.current is domain:
            return
        self.charge_xen(self.costs.domain_switch, phase="xen:domain_switch")
        self._c_switch.value += 1
        if len(self.vcpus) > 1:
            # per-vCPU labels only exist on SMP configs so single-vCPU
            # metric dumps stay byte-identical to the pre-SMP baselines
            self.machine.obs.registry.counter(
                f"xen.vcpu{self._cur_vcpu.id}.switch").value += 1
        if self._tracer.enabled:
            previous = self.current.name if self.current else None
            self._tracer.emit(DOMAIN_SWITCH, to=domain.name, frm=previous)
        self.current = domain
        self.machine.cpu.address_space = domain.aspace

    def run_in_domain(self, domain: Domain, fn: Callable[[], object]):
        """Switch to ``domain``, run ``fn`` under its accounting category,
        switch back. Used for synchronous cross-domain work (upcalls,
        backend processing)."""
        previous = self.current
        self.switch_to(domain)
        self.machine.cpu.push_category(domain.category)
        try:
            return fn()
        finally:
            self.machine.cpu.pop_category()
            self.switch_to(previous)

    # -- hypercalls ----------------------------------------------------------------------

    def hypercall(self, name: str) -> None:
        """Account one hypercall entry from the current domain."""
        self._c_hypercall.value += 1
        if self._tracer.enabled:
            self._tracer.emit(HYPERCALL, name=name)
        self.charge_xen(self.costs.hypercall, phase="xen:hypercall")

    # -- event channels --------------------------------------------------------------------

    def send_event(self, domain: Domain, port: int, synchronous: bool = False):
        """Signal ``port`` in ``domain``.

        ``synchronous=True`` models the paper's 'synchronous virtual
        interrupt' used by upcalls: delivery happens immediately, in the
        target domain's context. Asynchronous events are queued and
        delivered when the domain is next scheduled."""
        self.charge_xen(self.costs.event_channel_send, phase="xen:event_send")
        self._c_event.value += 1
        if self._tracer.enabled:
            self._tracer.emit(EVENT_SEND, domain=domain.name, port=port,
                              sync=synchronous)
        if synchronous:
            self._deliver_event(domain, port)
        else:
            domain.pending_ports.append(port)

    def _deliver_event(self, domain: Domain, port: int):
        if not domain.virq_enabled:
            domain.pending_ports.append(port)
            return
        handler = domain.event_handlers.get(port)
        if handler is None:
            raise KeyError(f"domain {domain.name} has no handler on port {port}")
        self.charge_xen(self.costs.virq_delivery, phase="xen:virq_delivery")
        self._c_virq.value += 1
        if self._tracer.enabled:
            self._tracer.emit(VIRQ, domain=domain.name, port=port)
        self.run_in_domain(domain, lambda: handler(port))

    def deliver_coalesced_virq(self, domain: Domain, npackets: int) -> bool:
        """Charge and record ONE virtual interrupt covering ``npackets``
        queued packets (§5.3: the hypervisor copies the batch into guest
        buffers and raises a single virtual interrupt). A batch of one
        costs exactly ``virq_delivery``; each additional packet adds only
        its ring-descriptor bookkeeping.

        Returns True iff the virq was actually delivered. A masked
        domain gets NO charge and NO event count — the caller must park
        the batch and replay it from an unmask hook, at which point the
        replay delivery is the one (and only) charge. Charging here too
        would double-count every masked batch."""
        if not domain.virq_enabled:
            return False
        self.charge_xen(
            self.costs.virq_coalesced
            + (npackets - 1) * self.costs.virq_coalesced_per_packet,
            phase="xen:virq_coalesced",
        )
        self._c_virq_coalesced.value += 1
        if self._tracer.enabled:
            self._tracer.emit(VIRQ_COALESCED, domain=domain.name,
                              packets=npackets)
        return True

    def schedule_domain(self, domain: Domain):
        """Deliver a domain's pending events (models the domain being
        scheduled and seeing its event-channel bitmap)."""
        while domain.pending_ports and domain.virq_enabled:
            port = domain.pending_ports.pop(0)
            handler = domain.event_handlers.get(port)
            if handler is None:
                continue
            self.charge_xen(self.costs.virq_delivery,
                            phase="xen:virq_delivery")
            self._c_virq.value += 1
            if self._tracer.enabled:
                self._tracer.emit(VIRQ, domain=domain.name, port=port)
            self.run_in_domain(domain, lambda p=port: handler(p))
        # Scheduling a domain with virqs enabled is also the moment any
        # work deferred on its virq mask (NIC softirqs the hypervisor
        # driver postponed) must be retried.
        if domain.virq_enabled:
            domain.fire_unmask_hooks()

    # -- physical interrupts ---------------------------------------------------------------------

    def register_irq_handler(self, irq: int, handler: Callable[[int], None]):
        self._irq_handlers[irq] = handler

    def _dispatch_irq(self, irq: int):
        self.charge_xen(self.costs.interrupt_virtualization,
                        phase="xen:interrupt")
        handler = self._irq_handlers.get(irq)
        if handler is not None:
            handler(irq)

    # -- softirqs ------------------------------------------------------------------------------------

    def raise_softirq(self, fn: Callable[[], None]):
        self.charge_xen(self.costs.softirq_schedule, phase="xen:softirq")
        self._c_softirq.value += 1
        if self._tracer.enabled:
            self._tracer.emit(SOFTIRQ, pending=len(self._softirqs) + 1)
        self._softirqs.append(fn)

    def run_softirqs(self):
        """Drain the active vCPU's softirq queue to empty.

        Softirqs raised *while a softirq runs* land on the same queue
        and are picked up by the already-running drain — the re-entrancy
        latch stops a nested ``run_softirqs`` (e.g. a continuation that
        a handler schedules synchronously) from stealing them out from
        under the outer loop, which previously reordered work. The drain
        is bounded: a handler that re-raises itself forever raises
        :class:`SoftirqStorm` instead of hanging the simulation."""
        vcpu = self._cur_vcpu
        if vcpu.in_softirq:
            return
        vcpu.in_softirq = True
        drained = 0
        try:
            while vcpu.softirqs:
                if drained >= SOFTIRQ_DRAIN_LIMIT:
                    raise SoftirqStorm(
                        f"vcpu{vcpu.id} drained {drained} softirqs without "
                        f"reaching an empty queue")
                fn = vcpu.softirqs.pop(0)
                fn()
                drained += 1
        finally:
            vcpu.in_softirq = False

    def drain_all_softirqs(self, max_rounds: int = 8):
        """Drain every vCPU's softirq queue to empty (planned-handover
        quiesce). Softirq handlers can raise follow-on softirqs on other
        vCPUs, so iterate to a fixpoint; the active vCPU is restored."""
        original = self._cur_vcpu
        try:
            for _ in range(max_rounds):
                if not any(v.softirqs for v in self.vcpus):
                    return
                for vcpu in self.vcpus:
                    if vcpu.softirqs:
                        self.activate_vcpu(vcpu)
                        self.run_softirqs()
            if any(v.softirqs for v in self.vcpus):
                raise SoftirqStorm(
                    f"softirq queues not quiescent after {max_rounds} "
                    f"drain rounds")
        finally:
            self.activate_vcpu(original)

    # -- grant operations (charged wrappers) ------------------------------------------------------------

    def grant_map(self, granter: Domain, ref: int, grantee: Domain) -> int:
        self.charge_xen(self.costs.grant_map, phase="xen:grant_map")
        return self.grant_tables[granter.domid].map(ref, grantee.domid)

    def grant_unmap(self, granter: Domain, ref: int, grantee: Domain):
        # validate-then-charge: a rejected double unmap must not burn
        # cycles or skew the grant accounting (GrantDoubleUnmap and the
        # other GrantError cases propagate before any charge lands)
        self.grant_tables[granter.domid].unmap(ref, grantee.domid)
        self.charge_xen(self.costs.grant_unmap, phase="xen:grant_unmap")

    def grant_copy_packet(self, granter: Domain, ref: int, grantee: Domain) -> int:
        self.charge_xen(self.costs.grant_copy_per_packet,
                        phase="xen:grant_copy")
        return self.grant_tables[granter.domid].copy_frame(ref, grantee.domid)
