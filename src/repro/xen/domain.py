"""Domains: dom0 (the driver domain) and paravirtualized guests.

A domain owns an address space (with the hypervisor region shared in, as
in Xen), a virtual-interrupt-enable flag (paper §4.4: the dom0 kernel
masks a *virtual* interrupt flag, which the hypervisor must respect before
invoking the driver interrupt handler), and a set of event-channel ports.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..machine.paging import AddressSpace


class Domain:
    """A dom0 or guest domain: address space, virq flag, event ports."""

    def __init__(self, domid: int, name: str, aspace: AddressSpace,
                 is_dom0: bool = False):
        self.domid = domid
        self.name = name
        self.aspace = aspace
        self.is_dom0 = is_dom0
        #: cycle-accounting category for this domain's kernel work.
        self.category = "dom0" if is_dom0 else "domU"
        #: virtual interrupt flag (True = interrupts enabled).
        self.virq_enabled = True
        #: event-channel port -> handler(port) registered by the kernel.
        self.event_handlers: Dict[int, Callable[[int], None]] = {}
        #: ports with a pending event not yet delivered.
        self.pending_ports: List[int] = []
        #: the guest kernel model living in this domain (set by osmodel).
        self.kernel = None
        #: callbacks fired, with this domain, when the virq mask
        #: transitions masked->enabled (and when the domain is scheduled
        #: with virqs enabled) — how the hypervisor driver learns that
        #: work it held for this domain may run.
        self.unmask_hooks: List[Callable[["Domain"], None]] = []
        self._next_port = 1
        #: the vCPU whose run queue holds this domain (set by the credit
        #: scheduler; None on single-vCPU configs that never schedule).
        self.vcpu = None
        #: credit balance, debited by cycles consumed per quantum.
        self.credits = 0
        #: sequence number of this domain's last quantum (scheduler
        #: round-robin tie-break; 0 = never scheduled).
        self.sched_seq = 0
        #: queued units of guest work, one consumed per quantum.
        self.run_work: List[Callable[[], None]] = []

    # -- event channels -----------------------------------------------------

    def bind_event_channel(self, handler: Callable[[int], None]) -> int:
        port = self._next_port
        self._next_port += 1
        self.event_handlers[port] = handler
        return port

    # -- virtual interrupt flag ------------------------------------------------

    def disable_virq(self):
        self.virq_enabled = False

    def enable_virq(self):
        was_enabled = self.virq_enabled
        self.virq_enabled = True
        if not was_enabled:
            self.fire_unmask_hooks()

    def fire_unmask_hooks(self):
        for hook in list(self.unmask_hooks):
            hook(self)

    def __repr__(self):  # pragma: no cover
        return f"<Domain {self.domid} {self.name}>"
