"""The four evaluated system configurations (paper §6.1).

* ``linux``      — native Linux: kernel + driver on bare hardware;
* ``dom0``       — the Xen driver domain itself doing the I/O;
* ``domU``       — an unoptimized guest using the standard split
                   netfront/netback/bridge path;
* ``domU-twin``  — a guest using the TwinDrivers hypervisor driver
                   (``scale``/``handover-pair`` scale its topology out).

Each builder — one host step plus, for the twin presets, one twin
topology, differing only in preset data — returns a
:class:`SystemUnderTest` exposing uniform ``transmit_packets`` /
``receive_packets`` operations that push MTU-sized frames through the
*whole* simulated stack (driver binaries included) and account every
cycle. The netperf/profile/webserver workloads all run against this
facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .core.handover import HandoverManager
from .core.paravirt import ParavirtNetDevice
from .core.twin import TwinDriverManager
from .drivers.e1000 import build_e1000_program
from .machine.machine import Machine
from .machine.nic import NicDevice
from .machine.paging import AddressSpace
from .obs.health import HealthMonitor
from .osmodel import layout as L
from .osmodel.kernel import Kernel
from .osmodel.xennet import XenNetBack, XenNetFront
from .xen.costs import CostModel
from .xen.domain import Domain
from .xen.hypervisor import Hypervisor

#: MTU frame: 14-byte Ethernet header + 1486-byte payload = 1500 bytes.
FRAME_PAYLOAD = L.MTU - L.ETH_HLEN
#: Deterministic order in which fast-path routines are demoted to upcalls
#: for the figure-10 sweep (netif_rx is always kept in the hypervisor, as
#: in the paper's final data point).
UPCALL_SWEEP_ORDER = (
    "dma_map_single",
    "spin_trylock",
    "spin_unlock_irqrestore",
    "dev_kfree_skb_any",
    "dma_unmap_single",
    "netdev_alloc_skb",
    "dma_map_page",
    "dma_unmap_page",
    "eth_type_trans",
)

#: NIC-side interrupt coalescing: frames per interrupt (DESIGN.md §9).
INTERRUPT_BATCH = 8

#: MAC prefix for ``domU`` netfronts and ``domU-twin`` devices (1-byte
#: index suffix).
GUEST_MAC_PREFIX = b"\x00\x16\x3e\xaa\x00"
#: MAC prefix for scale-config guests (2-byte index suffix, so up to
#: 65536 guests keep distinct, deterministic addresses).
SCALE_MAC_PREFIX = b"\x00\x16\x3e\xab"
#: MAC prefix for handover-pair guests (1-byte index suffix).
PAIR_MAC_PREFIX = b"\x00\x16\x3e\xac\x00"


@dataclass
class SystemUnderTest:
    """Uniform facade over one configuration, cycling over its NICs and
    its endpoints (native netdevs, netfronts or twin guest devices)."""

    name: str
    machine: Machine
    costs: CostModel
    nics: List[NicDevice]
    _tx_one: Callable[[int, int], bool]       # (endpoint index, payload_len)
    _rx_macs: List[bytes]                     # destination MAC per endpoint
    _rx_count: Callable[[], int]
    dom0_kernel: Optional[Kernel] = None
    guest_kernel: Optional[Kernel] = None
    xen: Optional[Hypervisor] = None
    twin: Optional[TwinDriverManager] = None
    extras: dict = field(default_factory=dict)

    # -- operations -------------------------------------------------------------

    def transmit_packets(self, n: int, payload_len: int = FRAME_PAYLOAD) -> int:
        """Stream ``n`` MTU frames round-robin over the endpoints; returns
        the number accepted by the driver."""
        sent = 0
        for i in range(n):
            if self._tx_one(i % len(self._rx_macs), payload_len):
                sent += 1
        for nic in self.nics:
            nic.flush_interrupts()
        return sent

    def receive_packets(self, n: int, payload_len: int = FRAME_PAYLOAD) -> int:
        """Inject ``n`` frames from the wire, addressed round-robin to the
        endpoints and spread round-robin over the NICs; returns how many
        the NICs accepted."""
        accepted = 0
        for i in range(n):
            nic = self.nics[i % len(self.nics)]
            frame = (self._rx_macs[i % len(self._rx_macs)]
                     + b"\x00\x22\x33\x44\x55\x66"
                     + (0x0800).to_bytes(2, "big")
                     + bytes(payload_len))
            if nic.receive(frame):
                accepted += 1
        for nic in self.nics:
            nic.flush_interrupts()
        return accepted

    @property
    def packets_on_wire(self) -> int:
        return self.machine.wire.tx_count

    @property
    def packets_delivered(self) -> int:
        return self._rx_count()

    def snapshot(self):
        return self.machine.account.snapshot()

    def delta_since(self, snap):
        return self.machine.account.delta_since(snap)


# ---------------------------------------------------------------------------
# the shared parts: one host step, one twin topology
# ---------------------------------------------------------------------------

class _Host(NamedTuple):
    """What :func:`_host` builds, named as the facade's fields."""
    machine: Machine
    costs: CostModel
    xen: Optional[Hypervisor]
    dom0_kernel: Kernel
    nics: List[NicDevice]


def _host(n_nics: int, costs: Optional[CostModel] = None,
          iommu: bool = False, vcpus: int = 1, num_queues: int = 1,
          interrupt_batch: int = INTERRUPT_BATCH,
          hypervisor: bool = True) -> _Host:
    """The machine (IOMMU), the hypervisor with its vCPUs,
    dom0 and its kernel, and ``n_nics`` NICs with their coalescing
    batch. ``hypervisor=False`` is native Linux: its kernel owns the
    bare machine and takes the device interrupts directly."""
    costs = costs or CostModel()
    machine = Machine()
    if iommu:
        machine.attach_iommu()
    xen = None
    if hypervisor:
        xen = Hypervisor(machine, costs=costs, vcpus=vcpus)
        kernel = Kernel(machine, xen.create_domain("dom0", is_dom0=True),
                        costs=costs, paravirtual=True)
    else:
        machine.cpu.cycle_scale = costs.driver_cycle_scale
        domain = Domain(0, "linux",
                        AddressSpace("linux", machine.phys,
                                     machine.hypervisor_table),
                        is_dom0=True)
        kernel = Kernel(machine, domain, costs=costs, paravirtual=False)
        machine.cpu.address_space = domain.aspace
        machine.intc.set_dispatcher(kernel.handle_irq)
    nics = [machine.add_nic(num_queues=num_queues) for _ in range(n_nics)]
    for nic in nics:
        nic.interrupt_batch = interrupt_batch
    return _Host(machine, costs, xen, kernel, nics)


def _twin_topology(host: _Host, devices: Sequence[Tuple[str, bytes]],
                   pool_size: int, instances: int = 1, **twin_kwargs):
    """``instances`` live twin instances (each at the next hypervisor
    layout), all built before any NIC is opened so their pools come
    first in the dom0 heap, splitting the host's NICs in order; then a
    guest domain per distinct name in ``devices`` (``(guest name, MAC)``
    pairs) and a device per pair on the first instance. Returns
    ``(twins, devices, guest kernels)``."""
    twins = [TwinDriverManager(host.xen, host.dom0_kernel,
                               pool_size=pool_size, **twin_kwargs)
             for _ in range(instances)]
    per_twin = len(host.nics) // instances
    for k, twin in enumerate(twins):
        for nic in host.nics[k * per_twin:(k + 1) * per_twin]:
            twin.attach_nic(nic)
    kernels = {}
    guest_devices = []
    for guest, mac in devices:
        if guest not in kernels:
            kernels[guest] = Kernel(host.machine,
                                    host.xen.create_domain(guest),
                                    costs=host.costs, paravirtual=True)
        guest_devices.append(ParavirtNetDevice(twins[0], kernels[guest],
                                               mac=mac))
    return twins, guest_devices, list(kernels.values())


def _guest_sut(name: str, host: _Host, endpoints, **fields
               ) -> SystemUnderTest:
    """Facade over guest endpoints: netfronts or twin guest devices."""
    return SystemUnderTest(
        name=name, _tx_one=lambda i, n: endpoints[i].transmit(n),
        _rx_macs=[e.mac for e in endpoints],
        _rx_count=lambda: sum(e.rx_packets for e in endpoints),
        **{**host._asdict(), **fields})


def _native_sut(name: str, host: _Host) -> SystemUnderTest:
    """Load the original driver into the host kernel, bring up every
    NIC, and drive traffic through the kernel's own stack."""
    kernel = host.dom0_kernel
    module, netdevs = _open_native_driver(host)
    return SystemUnderTest(
        name=name, _tx_one=lambda i, n: kernel.tcp_transmit(netdevs[i], n),
        _rx_macs=[nic.mac for nic in host.nics],
        _rx_count=lambda: kernel.rx_delivered,
        extras={"module": module, "netdevs": netdevs}, **host._asdict())


def _open_native_driver(host: _Host):
    """Load the original driver into dom0 and bring up every NIC."""
    kernel = host.dom0_kernel
    module = kernel.load_driver(build_e1000_program())
    netdevs = []
    for nic in host.nics:
        ndev = kernel.create_netdev_for_nic(nic)
        kernel.call_driver(module.symbol("e1000_probe"), [ndev.addr])
        kernel.call_driver(module.symbol("e1000_open"), [ndev.addr])
        netdevs.append(ndev.addr)
    return module, netdevs


def _handover(machine: Machine, twin: TwinDriverManager) -> dict:
    """A watchdog plus the planned-handover manager holding its
    maintenance window (DESIGN.md §14), as ``extras`` entries."""
    health = HealthMonitor(machine, twin=twin)
    return {"health": health,
            "handover": HandoverManager(twin, health=health)}


# ---------------------------------------------------------------------------
# the presets
# ---------------------------------------------------------------------------

def build_native_linux(n_nics: int = 5, costs: Optional[CostModel] = None,
                       iommu: bool = False) -> SystemUnderTest:
    return _native_sut("linux", _host(n_nics, costs, iommu,
                                      hypervisor=False))


def build_dom0(n_nics: int = 5, costs: Optional[CostModel] = None,
               iommu: bool = False) -> SystemUnderTest:
    host = _host(n_nics, costs, iommu)
    sut = _native_sut("dom0", host)

    def irq_handler(irq: int):
        # interrupt virtualization was charged by the dispatcher; Xen now
        # delivers a virtual interrupt into dom0.
        host.xen.charge_xen(host.costs.virq_delivery,
                            phase="xen:virq_delivery")
        host.dom0_kernel.handle_irq(irq)

    for nic in host.nics:
        host.xen.register_irq_handler(nic.irq, irq_handler)
    return sut


def build_domU_standard(n_nics: int = 5, costs: Optional[CostModel] = None,
                        iommu: bool = False) -> SystemUnderTest:
    host = _host(n_nics, costs, iommu)
    machine, costs, xen = host.machine, host.costs, host.xen
    dom0_kernel = host.dom0_kernel
    guest_kernel = Kernel(machine, xen.create_domain("guest"),
                          costs=costs, paravirtual=True)
    module, netdevs = _open_native_driver(host)

    backend = XenNetBack(xen, dom0_kernel)
    fronts = [
        XenNetFront(backend, guest_kernel,
                    mac=GUEST_MAC_PREFIX + bytes([i + 1]),
                    netdev_addr=netdevs[i])
        for i in range(n_nics)
    ]

    def irq_handler(irq: int):
        xen.charge_xen(costs.virq_delivery, phase="xen:virq_delivery")
        # enter dom0 for the ISR
        xen.charge_xen(costs.domain_switch, phase="xen:domain_switch")
        prev = machine.cpu.address_space
        machine.cpu.address_space = dom0_kernel.domain.aspace
        try:
            dom0_kernel.handle_irq(irq)
        finally:
            machine.cpu.address_space = prev

    for nic in host.nics:
        xen.register_irq_handler(nic.irq, irq_handler)

    return _guest_sut("domU", host, fronts, guest_kernel=guest_kernel,
                      extras={"module": module, "netdevs": netdevs,
                              "fronts": fronts, "backend": backend})


def build_domU_twin(n_nics: int = 5, interrupt_batch: int = INTERRUPT_BATCH,
                    n_upcalls: int = 0,
                    costs: Optional[CostModel] = None,
                    iommu: bool = False,
                    elide: bool = False,
                    vcpus: int = 1,
                    num_queues: int = 1,
                    handover: bool = False) -> SystemUnderTest:
    """One guest kernel with ``n_nics`` twin devices, one per NIC — the
    paper's 5-NIC streaming box.

    ``n_upcalls``: how many fast-path routines are served by upcalls
    instead of hypervisor implementations (0 = the full TwinDrivers
    configuration; figure 10 sweeps 0..9). ``interrupt_batch`` tunes
    NIC-side coalescing (the §5.3 batching sweep). ``elide`` turns on
    proof-based stlb check elision (prove-then-elide, off by default).
    ``vcpus`` / ``num_queues`` enable the SMP +
    multiqueue layer; the defaults of 1 reproduce every paper figure
    bit-for-bit. ``handover`` wires a :class:`HealthMonitor` and a
    :class:`HandoverManager` into ``extras["health"]`` /
    ``extras["handover"]`` (planned live upgrade, DESIGN.md §14) — it
    charges nothing until a handover is actually requested, so the
    default path stays bit-identical."""
    if not 0 <= n_upcalls <= len(UPCALL_SWEEP_ORDER):
        raise ValueError("n_upcalls out of range")
    host = _host(n_nics, costs, iommu, vcpus, num_queues, interrupt_batch)
    (twin,), devices, (guest_kernel,) = _twin_topology(
        host, [("guest", GUEST_MAC_PREFIX + bytes([0x10 + i]))
               for i in range(n_nics)],
        pool_size=max(256, 96 * n_nics),
        upcall_routines=UPCALL_SWEEP_ORDER[:n_upcalls],
        elide=elide, num_queues=num_queues)
    # the guest is the running context (no switches on the twin path)
    host.xen.switch_to(guest_kernel.domain)
    extras = {"devices": devices}
    if handover:
        extras.update(_handover(host.machine, twin))
    return _guest_sut("domU-twin", host, devices,
                      guest_kernel=guest_kernel, twin=twin, extras=extras)


def build_scale(n_guests: int = 16, vcpus: int = 4, num_queues: int = 4,
                n_nics: int = 4, jit: bool = False) -> SystemUnderTest:
    """N twin guests, each with its own domain and kernel, under the
    credit scheduler on ``vcpus`` vCPUs with ``num_queues``-way RSS
    twins (ROADMAP item 1: scale to hundreds of guests).

    Unlike :func:`build_domU_twin` (one guest kernel, five devices —
    the paper's 5-NIC streaming box), every guest here is a full domain
    so the scheduler has real run queues to multiplex. Guest devices
    spread round-robin over the NICs; drive traffic through
    ``extras["devices"]`` and the scheduler, as ``bench_scale.py``
    does.

    ``jit`` is accepted and ignored: the interpreter is the one engine
    that runs driver code. It stays only because the host-speed
    benchmark (``benchmarks/perf``) still passes ``jit=True`` for its
    ``scale64_small`` workload; it goes when that workload drops it."""
    if n_guests < 1:
        raise ValueError("need at least one guest")
    host = _host(n_nics, vcpus=vcpus, num_queues=num_queues)
    (twin,), devices, guest_kernels = _twin_topology(
        host, [(f"guest{i}", SCALE_MAC_PREFIX + i.to_bytes(2, "big"))
               for i in range(n_guests)],
        pool_size=max(256, 16 * n_nics * INTERRUPT_BATCH),
        num_queues=num_queues)
    return _guest_sut("scale", host, devices,
                      guest_kernel=guest_kernels[0], twin=twin,
                      extras={"devices": devices,
                              "guest_kernels": guest_kernels})


def build_handover_pair(n_guests: int = 2, vcpus: int = 1,
                        num_queues: int = 1,
                        n_nics: int = 1) -> SystemUnderTest:
    """Two *live* twin instances side by side — the primary ("hyp") and
    the secondary ("hyp2") at the hypervisor's first and second twin
    layouts — so a guest's queue state can be re-homed from one to the
    other without a reload (DESIGN.md §14).

    Each instance owns ``n_nics`` NICs; every guest starts on the
    primary. The facade's rx path injects into the *primary's* NICs
    (frames demux on the twin whose NIC received them), so after
    ``extras["handover"].rehome_guest(dev, extras["secondary"])`` steer
    that guest's frames at ``extras["secondary_nics"]`` instead — as
    ``bench_handover.py`` does."""
    if n_guests < 1:
        raise ValueError("need at least one guest")
    host = _host(2 * n_nics, vcpus=vcpus, num_queues=num_queues)
    (twin, secondary), devices, guest_kernels = _twin_topology(
        host, [(f"guest{i}", PAIR_MAC_PREFIX + bytes([i + 1]))
               for i in range(n_guests)],
        pool_size=max(256, 16 * n_nics * INTERRUPT_BATCH), instances=2,
        num_queues=num_queues)
    return _guest_sut("handover-pair", host, devices,
                      nics=host.nics[:n_nics],
                      guest_kernel=guest_kernels[0], twin=twin,
                      extras={"devices": devices,
                              "guest_kernels": guest_kernels,
                              "secondary": secondary,
                              "secondary_nics": host.nics[n_nics:],
                              **_handover(host.machine, twin)})


BUILDERS = {
    "linux": build_native_linux,
    "dom0": build_dom0,
    "domU": build_domU_standard,
    "domU-twin": build_domU_twin,
    "scale": build_scale,
    "handover-pair": build_handover_pair,
}


def build(name: str, **kwargs) -> SystemUnderTest:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown configuration {name!r}; choose from {sorted(BUILDERS)}"
        ) from None
    return builder(**kwargs)
