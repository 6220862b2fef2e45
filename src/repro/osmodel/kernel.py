"""The guest kernel model (a mini-Linux) living inside a domain.

Owns the heap, the sk_buff allocator, the support-routine library, the
IRQ table, timers, registered net devices, and the module loader that
loads driver binaries into the kernel — saving the relocation information
the TwinDrivers hypervisor loader later consumes (paper §5.2).

The network stack itself is a cost model: :meth:`tcp_transmit` charges the
calibrated TCP/IP transmit cost and then *really* invokes the driver's
``hard_start_xmit`` through the function pointer in the net_device struct;
receive likewise charges stack costs when ``netif_rx`` delivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..machine.cpu import LoadedProgram
from ..machine.machine import Machine
from ..machine.memory import PAGE_SIZE
from ..xen.costs import CostModel
from ..xen.domain import Domain
from . import layout as L
from .heap import KernelHeap
from .netdev import NetDevice
from .skbuff import SkBuff, init_skb
from .support import SupportLibrary

BROADCAST_MAC = b"\xff\xff\xff\xff\xff\xff"
ETHERTYPE_IP = 0x0800


class KernelError(Exception):
    """A kernel-model invariant was violated (bad DMA, missing xmit, ...)."""

    pass


@dataclass
class DriverModule:
    """A loaded driver plus the relocation info the dom0 module loader
    saves for the TwinDrivers hypervisor loader (paper §5.2)."""

    program: object                  # the (possibly rewritten) Program
    loaded: LoadedProgram
    data_symbols: Dict[str, int]     # comm symbol -> dom0 address
    import_map: Dict[str, int]       # support routine -> dom0 native address
    code_base: int

    def symbol(self, name: str) -> int:
        return self.loaded.symbol(name)


class Kernel:
    """The mini-Linux living in a domain: heap, skbs, IRQs, modules."""

    def __init__(self, machine: Machine, domain: Domain,
                 costs: Optional[CostModel] = None,
                 paravirtual: bool = False):
        self.machine = machine
        self.domain = domain
        self.costs = costs or CostModel()
        self.paravirtual = paravirtual
        domain.kernel = self
        # kernel stack
        domain.aspace.map_new_pages(L.KERNEL_STACK_BASE, L.KERNEL_STACK_PAGES)
        self.stack_top = L.KERNEL_STACK_TOP
        machine.cpu.add_hot_range(L.KERNEL_STACK_BASE, L.KERNEL_STACK_TOP)
        self.heap = KernelHeap(domain.aspace)
        self.irq_handlers: Dict[int, Tuple[int, int]] = {}
        self.timers: List[int] = []
        self.netdevs: List[int] = []
        self.pci_state: Set[tuple] = set()
        self.log: List[str] = []
        self.modules: List[DriverModule] = []
        #: receive disposition: called with an SkBuff address after the
        #: driver hands a packet to netif_rx. Default: local delivery.
        self.rx_handler: Callable[[int], None] = self._rx_deliver_local
        self.rx_delivered = 0
        self.rx_bytes = 0
        self.tx_sent = 0
        self.tx_dropped = 0
        #: when an skb with SKB_POOL set is freed, it is returned here
        #: instead of to the heap (the hypervisor buffer-pool hook).
        self.pool_release: Optional[Callable[[int], None]] = None
        #: support routine -> calls from this kernel's drivers (Table 1)
        self.support_call_counts: Dict[str, int] = {}
        self._module_code_next = L.MODULE_CODE_BASE
        self._module_data_next = L.MODULE_DATA_BASE
        self._ioremap_next = L.IOREMAP_BASE
        self._jiffies_offset = 0
        self.support = SupportLibrary(self)

    # -- basics ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.domain.name

    def memory_view(self):
        return self.domain.aspace

    def charge(self, cycles: int, category: Optional[str] = None,
               phase: Optional[str] = None):
        """Charge modelled kernel cycles (to the domain's category unless
        ``category`` is given) under profile frame ``phase``."""
        self.machine.obs.charge(category or self.domain.category, cycles,
                                phase)

    def charge_tx_stack(self):
        """One segment down this kernel's TCP/IP stack: ``kernel_tx_stack``,
        plus ``pv_kernel_tx_overhead`` charged to Xen when the kernel is
        paravirtual."""
        self.charge(self.costs.kernel_tx_stack, phase="kernel:tx_stack")
        if self.paravirtual:
            self.charge(self.costs.pv_kernel_tx_overhead, "Xen",
                        phase="kernel:pv_tx_overhead")

    def charge_rx_stack(self):
        """One packet up this kernel's TCP/IP stack: ``kernel_rx_stack``,
        plus ``pv_kernel_rx_overhead`` charged to Xen when the kernel is
        paravirtual."""
        self.charge(self.costs.kernel_rx_stack, phase="kernel:rx_stack")
        if self.paravirtual:
            self.charge(self.costs.pv_kernel_rx_overhead, "Xen",
                        phase="kernel:pv_rx_overhead")

    @property
    def jiffies(self) -> int:
        """1 kHz tick derived from consumed cycles (plus test offset)."""
        return (self.machine.cycles // (self.machine.cpu_hz // 1000)
                + self._jiffies_offset)

    def advance_jiffies(self, n: int):
        """Let virtual wall-clock time pass (timers, watchdogs)."""
        self._jiffies_offset += n

    def record_support_call(self, name: str):
        self.support_call_counts[name] = (
            self.support_call_counts.get(name, 0) + 1
        )

    # -- sk_buffs --------------------------------------------------------------------

    def alloc_skb(self, size: int) -> SkBuff:
        if size > L.SKB_BUFFER_SIZE - L.NET_SKB_PAD:
            raise KernelError(f"skb size {size} exceeds buffer")
        struct_addr = self.heap.alloc(L.SKB_STRUCT_SIZE)
        buffer_addr = self.heap.alloc(L.SKB_BUFFER_SIZE, zero=False)
        skb = init_skb(self.domain.aspace, struct_addr, buffer_addr)
        skb.reserve(L.NET_SKB_PAD)
        return skb

    def free_skb(self, skb_addr: int):
        skb = SkBuff(self.memory_view(), skb_addr)
        refs = skb.refcnt
        if refs > 1:
            skb.refcnt = refs - 1
            return
        if skb.pool and self.pool_release is not None:
            # The refcount trick (paper §4.3): pool buffers are never
            # returned to the kernel allocator; the hypervisor reclaims them.
            self.pool_release(skb_addr)
            return
        self.heap.free(skb.head)
        self.heap.free(skb_addr)

    # -- net devices -----------------------------------------------------------------------

    def create_netdev_for_nic(self, nic) -> NetDevice:
        """Allocate a net_device for a physical NIC (what the PCI probe
        scaffolding would do, down to the MMIO *physical* base in
        ``NDEV_MEM``); the driver's probe remaps it and fills in the rest."""
        addr = self.heap.alloc(L.NDEV_SIZE + L.ADP_SIZE + 8)
        ndev = NetDevice(self.domain.aspace, addr)
        self.domain.aspace.write_u32(addr + L.NDEV_MEM, nic.mmio.start)
        ndev.irq = nic.irq
        ndev.mac = nic.mac
        ndev.mtu = L.MTU
        ndev.name = nic.name
        ndev.priv = addr + ((L.NDEV_SIZE + 7) & ~7)
        return ndev

    def register_netdev(self, addr: int):
        if addr not in self.netdevs:
            self.netdevs.append(addr)

    def unregister_netdev(self, addr: int):
        if addr in self.netdevs:
            self.netdevs.remove(addr)

    def netdev(self, addr: int) -> NetDevice:
        return NetDevice(self.memory_view(), addr)

    # -- receive path ---------------------------------------------------------------------------

    def netif_rx(self, skb_addr: int):
        skb = SkBuff(self.memory_view(), skb_addr)
        dev = NetDevice(self.memory_view(), skb.dev)
        dev.bump_stat(L.NDEV_RX_PKTS)
        dev.bump_stat(L.NDEV_RX_BYTES, skb.len)
        self.rx_handler(skb_addr)

    def _rx_deliver_local(self, skb_addr: int):
        """Local protocol-stack delivery: TCP/IP receive processing."""
        skb = SkBuff(self.memory_view(), skb_addr)
        self.charge_rx_stack()
        self.rx_delivered += 1
        self.rx_bytes += skb.len
        self.free_skb(skb_addr)

    # -- transmit path ------------------------------------------------------------------------------

    def build_tx_skb(self, ndev: NetDevice, payload_len: int,
                     dst_mac: bytes = BROADCAST_MAC,
                     payload: Optional[bytes] = None) -> SkBuff:
        skb = self.alloc_skb(L.ETH_HLEN + payload_len)
        skb.put(L.ETH_HLEN + payload_len)
        header = bytes(dst_mac) + ndev.mac + ETHERTYPE_IP.to_bytes(2, "big")
        self.memory_view().write_bytes(skb.data, header)
        if payload is not None:
            self.memory_view().write_bytes(skb.data + L.ETH_HLEN,
                                           payload[:payload_len])
        skb.dev = ndev.addr
        return skb

    def tcp_transmit(self, netdev_addr: int, payload_len: int,
                     dst_mac: bytes = BROADCAST_MAC,
                     payload: Optional[bytes] = None) -> bool:
        """One MTU-or-less TCP segment through the stack and the driver."""
        ndev = self.netdev(netdev_addr)
        self.charge_tx_stack()
        skb = self.build_tx_skb(ndev, payload_len, dst_mac, payload)
        return self.transmit_skb(skb, ndev)

    def transmit_skb(self, skb: SkBuff, ndev: NetDevice) -> bool:
        if ndev.queue_stopped:
            self.tx_dropped += 1
            self.free_skb(skb.addr)
            return False
        xmit = ndev.hard_start_xmit
        if xmit == 0:
            raise KernelError("netdev has no hard_start_xmit")
        result = self.call_driver(xmit, [skb.addr, ndev.addr])
        if result != 0:
            self.tx_dropped += 1
            self.free_skb(skb.addr)
            return False
        self.tx_sent += 1
        return True

    # -- driver invocation -----------------------------------------------------------------------------

    def call_driver(self, addr: int, args) -> int:
        return self.machine.cpu.call_function(
            addr, args, stack_top=self.stack_top, category="e1000"
        )

    def handle_irq(self, irq: int) -> bool:
        entry = self.irq_handlers.get(irq)
        if entry is None:
            return False
        handler, arg = entry
        self.call_driver(handler, [irq, arg])
        return True

    # -- timers --------------------------------------------------------------------------------------------

    def run_due_timers(self) -> int:
        """Fire expired timers (driver watchdog etc.); returns count."""
        fired = 0
        now = self.jiffies
        mem = self.memory_view()
        for timer in list(self.timers):
            active = mem.read_u32(timer + L.TIMER_ACTIVE)
            expires = mem.read_u32(timer + L.TIMER_EXPIRES)
            if active and expires <= now:
                mem.write_u32(timer + L.TIMER_ACTIVE, 0)
                fn = mem.read_u32(timer + L.TIMER_FN)
                arg = mem.read_u32(timer + L.TIMER_ARG)
                self.call_driver(fn, [arg])
                fired += 1
        return fired

    # -- MMIO ------------------------------------------------------------------------------------------------

    def ioremap(self, phys: int, size: int) -> int:
        vaddr = self._ioremap_next
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        for i in range(pages):
            self.domain.aspace.map_page(
                vaddr + i * PAGE_SIZE, (phys >> 12) + i
            )
        self._ioremap_next += pages * PAGE_SIZE + PAGE_SIZE
        return vaddr

    # -- DMA --------------------------------------------------------------------------------------------------

    def dma_map(self, vaddr: int, length: int) -> int:
        bus = self.domain.aspace.translate(vaddr)
        if length > 1:
            end_bus = self.domain.aspace.translate(vaddr + length - 1)
            if end_bus != bus + length - 1:
                raise KernelError(
                    f"dma_map_single of physically discontiguous buffer "
                    f"at {vaddr:#010x}+{length}"
                )
        return bus

    # -- module loading ------------------------------------------------------------------------------------------

    def load_driver(self, program, extra_symbols: Optional[Dict[str, int]] = None,
                    extra_imports: Optional[Dict[str, int]] = None) -> DriverModule:
        """Load a driver binary into this kernel.

        Comm (BSS) symbols are allocated in module-data space; imported
        support routines are bound to this kernel's support library (or
        ``extra_imports``, used for the SVM runtime helpers); code-symbol
        immediates (function pointers the driver stores into structs) are
        resolved to this module's code addresses.
        """
        data_symbols: Dict[str, int] = {}
        for sym, size in program.comm.items():
            data_symbols[sym] = self.alloc_module_data(size)
        data_symbols.update(extra_symbols or {})

        import_map: Dict[str, int] = {}
        for name in program.imports():
            if extra_imports and name in extra_imports:
                import_map[name] = extra_imports[name]
            elif name in self.support.addresses:
                import_map[name] = self.support.addresses[name]
            else:
                raise KernelError(
                    f"driver imports unknown support routine {name!r}"
                )

        code_base = self._module_code_next
        loaded = self.machine.load_linked_program(
            program, code_base, symbols=data_symbols, extern=import_map,
            name=f"{self.name}:{program.name}")
        self._module_code_next = (loaded.end + 0xFFF) & ~0xFFF

        module = DriverModule(
            program=program,
            loaded=loaded,
            data_symbols=data_symbols,
            import_map=import_map,
            code_base=code_base,
        )
        self.modules.append(module)
        return module

    def alloc_module_data(self, size: int) -> int:
        addr = self._module_data_next
        end = addr + size
        page = addr & ~(PAGE_SIZE - 1)
        while page < end:
            if not self.domain.aspace.is_mapped(page):
                self.domain.aspace.map_page(
                    page, self.machine.phys.allocate_frame()
                )
            page += PAGE_SIZE
        self._module_data_next = (end + 7) & ~7
        return addr
