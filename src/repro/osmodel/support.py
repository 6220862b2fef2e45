"""The guest-kernel driver support library.

This is the body of kernel code a Linux driver links against: the paper
counts 97 distinct support routines used by the Intel e1000 driver, of
which only the 10 in Table 1 are called during error-free transmit and
receive. Here every routine is a *native* function (Python) registered
with the machine so the driver binary calls it by symbol through the
normal call instruction — the same boundary the paper's loader manages.

Each call charges its calibrated cost to the owning domain's category and
is counted in the kernel's ``support_call_counts``. The Table 1 benchmark
takes the fast-path set from the hypervisor support library's call
counters over error-free transmit and receive, and the full support
surface from ``support_call_counts``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from ..machine.cpu import Cpu
from . import layout as L
from .skbuff import SkBuff

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

#: Table 1 of the paper: routines called during error-free tx/rx.
FAST_PATH_ROUTINES = (
    "netdev_alloc_skb",
    "dev_kfree_skb_any",
    "netif_rx",
    "dma_map_single",
    "dma_map_page",
    "dma_unmap_single",
    "dma_unmap_page",
    "spin_trylock",
    "spin_unlock_irqrestore",
    "eth_type_trans",
)


class SupportError(Exception):
    """A support routine was used in an unsupported way (e.g. deadlock)."""

    pass


class SupportLibrary:
    """Driver support routines for one kernel instance.

    Routines are registered as natives named ``<domain>.<routine>``; the
    module loader binds a driver's bare import names against this map.
    """

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.addresses: Dict[str, int] = {}
        self._register_all()

    # -- registration machinery ---------------------------------------------------

    def _bind(self, name: str, impl: Callable, nargs: int):
        kernel = self.kernel

        def native(cpu: Cpu, _impl=impl, _nargs=nargs, _name=name):
            kernel.record_support_call(_name)
            args = [cpu.read_stack_arg(i) for i in range(_nargs)]
            return _impl(*args)

        addr = self.kernel.machine.register_native(
            f"{kernel.domain.name}.{name}",
            native,
            cost=kernel.costs.support_cost(name),
            category=kernel.domain.category,
        )
        self.addresses[name] = addr

    def _register_all(self):
        bind = self._bind
        # -- Table 1: the fast path ------------------------------------------
        bind("netdev_alloc_skb", self.netdev_alloc_skb, 2)
        bind("dev_kfree_skb_any", self.dev_kfree_skb_any, 1)
        bind("netif_rx", self.netif_rx, 1)
        bind("dma_map_single", self.dma_map_single, 4)
        bind("dma_map_page", self.dma_map_page, 4)
        bind("dma_unmap_single", self.dma_unmap_single, 3)
        bind("dma_unmap_page", self.dma_unmap_page, 3)
        bind("spin_trylock", self.spin_trylock, 1)
        bind("spin_unlock_irqrestore", self.spin_unlock_irqrestore, 2)
        bind("eth_type_trans", self.eth_type_trans, 2)
        # -- memory ------------------------------------------------------------
        bind("kmalloc", self.kmalloc, 2)
        bind("kfree", self.kfree, 1)
        bind("dma_alloc_coherent", self.dma_alloc_coherent, 2)
        bind("dma_free_coherent", self.dma_free_coherent, 2)
        bind("memcpy_support", self.memcpy_support, 3)
        bind("memset_support", self.memset_support, 3)
        # -- netdev lifecycle -----------------------------------------------------
        bind("alloc_etherdev", self.alloc_etherdev, 1)
        bind("register_netdev", self.register_netdev, 1)
        bind("unregister_netdev", self.unregister_netdev, 1)
        bind("free_netdev", self.free_netdev, 1)
        bind("netif_start_queue", self.netif_start_queue, 1)
        bind("netif_stop_queue", self.netif_stop_queue, 1)
        bind("netif_wake_queue", self.netif_wake_queue, 1)
        bind("netif_queue_stopped", self.netif_queue_stopped, 1)
        bind("netif_carrier_on", self.netif_carrier_on, 1)
        bind("netif_carrier_off", self.netif_carrier_off, 1)
        # -- MMIO / PCI --------------------------------------------------------------
        bind("ioremap", self.ioremap, 2)
        bind("iounmap", self.iounmap, 1)
        bind("pci_enable_device", self.pci_enable_device, 1)
        bind("pci_disable_device", self.pci_disable_device, 1)
        bind("pci_set_master", self.pci_set_master, 1)
        bind("pci_request_regions", self.pci_request_regions, 2)
        bind("pci_release_regions", self.pci_release_regions, 1)
        # -- interrupts -----------------------------------------------------------------
        bind("request_irq", self.request_irq, 4)
        bind("free_irq", self.free_irq, 2)
        # -- locking ----------------------------------------------------------------------
        bind("spin_lock_init", self.spin_lock_init, 1)
        bind("spin_lock_irqsave", self.spin_lock_irqsave, 1)
        # -- timers --------------------------------------------------------------------------
        bind("init_timer", self.init_timer, 1)
        bind("mod_timer", self.mod_timer, 2)
        bind("del_timer_sync", self.del_timer_sync, 1)
        bind("msleep", self.msleep, 1)
        bind("udelay", self.udelay, 1)
        # -- skb helpers --------------------------------------------------------------------------
        bind("skb_reserve", self.skb_reserve, 2)
        bind("skb_put", self.skb_put, 2)
        bind("skb_headroom", self.skb_headroom, 1)
        # -- misc --------------------------------------------------------------------------------------
        bind("printk", self.printk, 1)
        bind("mii_check_link", self.mii_check_link, 1)
        bind("ethtool_op_get_link", self.ethtool_op_get_link, 1)
        bind("capable", self.capable, 1)
        bind("copy_from_user", self.copy_from_user, 3)
        bind("copy_to_user", self.copy_to_user, 3)

    # ======================================================================
    # Table 1 implementations
    # ======================================================================

    def netdev_alloc_skb(self, dev: int, size: int) -> int:
        skb = self.kernel.alloc_skb(size)
        skb.dev = dev
        return skb.addr

    def dev_kfree_skb_any(self, skb_addr: int) -> int:
        self.kernel.free_skb(skb_addr)
        return 0

    def netif_rx(self, skb_addr: int) -> int:
        self.kernel.netif_rx(skb_addr)
        return 0

    def dma_map_single(self, dev: int, vaddr: int, length: int,
                       direction: int) -> int:
        bus = self.kernel.dma_map(vaddr, length)
        self._iommu_map(bus, length)
        return bus

    def dma_map_page(self, page: int, offset: int, length: int,
                     direction: int) -> int:
        # ``page`` is a machine page address (our struct page analogue).
        self._iommu_map(page + offset, length)
        return page + offset

    def dma_unmap_single(self, bus: int, length: int, direction: int) -> int:
        self._iommu_unmap(bus, length)
        return 0

    def dma_unmap_page(self, bus: int, length: int, direction: int) -> int:
        self._iommu_unmap(bus, length)
        return 0

    def _iommu_map(self, bus: int, length: int):
        iommu = self.kernel.machine.iommu
        if iommu is not None:
            iommu.map_window("*", bus, length)

    def _iommu_unmap(self, bus: int, length: int):
        iommu = self.kernel.machine.iommu
        if iommu is not None:
            iommu.unmap_window("*", bus, length)

    def spin_trylock(self, lock: int) -> int:
        mem = self.kernel.memory_view()
        if mem.read_u32(lock):
            return 0
        mem.write_u32(lock, 1)
        return 1

    def spin_unlock_irqrestore(self, lock: int, flags: int) -> int:
        mem = self.kernel.memory_view()
        mem.write_u32(lock, 0)
        if flags & 1:
            self.kernel.domain.enable_virq()
        return 0

    def eth_type_trans(self, skb_addr: int, dev: int) -> int:
        mem = self.kernel.memory_view()
        skb = SkBuff(mem, skb_addr)
        raw = mem.read_bytes(skb.data + 12, 2)
        protocol = int.from_bytes(raw, "big")
        skb.protocol = protocol
        skb.dev = dev
        skb.pull(L.ETH_HLEN)
        return protocol

    # ======================================================================
    # Memory
    # ======================================================================

    def kmalloc(self, size: int, gfp: int) -> int:
        return self.kernel.heap.alloc(size)

    def kfree(self, addr: int) -> int:
        self.kernel.heap.free(addr)
        return 0

    def dma_alloc_coherent(self, size: int, dma_out: int) -> int:
        pages = (size + 0xFFF) // 0x1000
        vaddr = self.kernel.heap.alloc_pages(pages)
        bus = self.kernel.domain.aspace.translate(vaddr)
        self.kernel.domain.aspace.write_u32(dma_out, bus)
        self._iommu_map(bus, pages * 0x1000)   # persistent ring window
        return vaddr

    def dma_free_coherent(self, vaddr: int, size: int) -> int:
        self.kernel.heap.free(vaddr)
        return 0

    def memcpy_support(self, dst: int, src: int, n: int) -> int:
        mem = self.kernel.memory_view()
        mem.write_bytes(dst, mem.read_bytes(src, n))
        return dst

    def memset_support(self, dst: int, value: int, n: int) -> int:
        self.kernel.memory_view().write_bytes(dst, bytes([value & 0xFF]) * n)
        return dst

    # ======================================================================
    # netdev lifecycle
    # ======================================================================

    def alloc_etherdev(self, priv_size: int) -> int:
        netdev_addr = self.kernel.heap.alloc(L.NDEV_SIZE + priv_size + 8)
        priv = netdev_addr + ((L.NDEV_SIZE + 7) & ~7)
        self.kernel.domain.aspace.write_u32(netdev_addr + L.NDEV_PRIV, priv)
        return netdev_addr

    def register_netdev(self, netdev: int) -> int:
        self.kernel.register_netdev(netdev)
        return 0

    def unregister_netdev(self, netdev: int) -> int:
        self.kernel.unregister_netdev(netdev)
        return 0

    def free_netdev(self, netdev: int) -> int:
        self.kernel.heap.free(netdev)
        return 0

    def _netdev(self, addr: int):
        from .netdev import NetDevice
        return NetDevice(self.kernel.memory_view(), addr)

    def netif_start_queue(self, netdev: int) -> int:
        self._netdev(netdev).start_queue()
        return 0

    def netif_stop_queue(self, netdev: int) -> int:
        self._netdev(netdev).stop_queue()
        return 0

    def netif_wake_queue(self, netdev: int) -> int:
        self._netdev(netdev).start_queue()
        return 0

    def netif_queue_stopped(self, netdev: int) -> int:
        return 1 if self._netdev(netdev).queue_stopped else 0

    def netif_carrier_on(self, netdev: int) -> int:
        self._netdev(netdev).set_carrier(True)
        return 0

    def netif_carrier_off(self, netdev: int) -> int:
        self._netdev(netdev).set_carrier(False)
        return 0

    # ======================================================================
    # MMIO / PCI
    # ======================================================================

    def ioremap(self, phys: int, size: int) -> int:
        return self.kernel.ioremap(phys, size)

    def iounmap(self, vaddr: int) -> int:
        return 0

    def pci_enable_device(self, pdev: int) -> int:
        self.kernel.pci_state.add(("enabled", pdev))
        return 0

    def pci_disable_device(self, pdev: int) -> int:
        self.kernel.pci_state.discard(("enabled", pdev))
        return 0

    def pci_set_master(self, pdev: int) -> int:
        self.kernel.pci_state.add(("master", pdev))
        return 0

    def pci_request_regions(self, pdev: int, name: int) -> int:
        self.kernel.pci_state.add(("regions", pdev))
        return 0

    def pci_release_regions(self, pdev: int) -> int:
        self.kernel.pci_state.discard(("regions", pdev))
        return 0

    # ======================================================================
    # Interrupts
    # ======================================================================

    def request_irq(self, irq: int, handler: int, flags: int, arg: int) -> int:
        self.kernel.irq_handlers[irq] = (handler, arg)
        return 0

    def free_irq(self, irq: int, arg: int) -> int:
        self.kernel.irq_handlers.pop(irq, None)
        return 0

    # ======================================================================
    # Locking
    # ======================================================================

    def spin_lock_init(self, lock: int) -> int:
        self.kernel.memory_view().write_u32(lock, 0)
        return 0

    def spin_lock_irqsave(self, lock: int) -> int:
        """Returns the saved flags word (bit0 = interrupts were enabled)."""
        flags = 1 if self.kernel.domain.virq_enabled else 0
        self.kernel.domain.disable_virq()
        mem = self.kernel.memory_view()
        if mem.read_u32(lock):
            raise SupportError("spin_lock_irqsave: lock held (deadlock)")
        mem.write_u32(lock, 1)
        return flags

    # ======================================================================
    # Timers
    # ======================================================================

    def init_timer(self, timer: int) -> int:
        self.kernel.memory_view().write_bytes(timer, b"\x00" * L.TIMER_SIZE)
        return 0

    def mod_timer(self, timer: int, expires: int) -> int:
        """``expires`` is relative to now, in jiffies (Linux drivers pass
        ``jiffies + n``; our driver binary cannot read jiffies, so the
        kernel adds the base here)."""
        mem = self.kernel.memory_view()
        mem.write_u32(timer + L.TIMER_EXPIRES,
                      self.kernel.jiffies + expires)
        mem.write_u32(timer + L.TIMER_ACTIVE, 1)
        if timer not in self.kernel.timers:
            self.kernel.timers.append(timer)
        return 0

    def del_timer_sync(self, timer: int) -> int:
        self.kernel.memory_view().write_u32(timer + L.TIMER_ACTIVE, 0)
        if timer in self.kernel.timers:
            self.kernel.timers.remove(timer)
        return 0

    def msleep(self, ms: int) -> int:
        return 0

    def udelay(self, us: int) -> int:
        return 0

    # ======================================================================
    # skb helpers
    # ======================================================================

    def skb_reserve(self, skb_addr: int, n: int) -> int:
        SkBuff(self.kernel.memory_view(), skb_addr).reserve(n)
        return 0

    def skb_put(self, skb_addr: int, n: int) -> int:
        return SkBuff(self.kernel.memory_view(), skb_addr).put(n)

    def skb_headroom(self, skb_addr: int) -> int:
        return SkBuff(self.kernel.memory_view(), skb_addr).headroom()

    # ======================================================================
    # Misc
    # ======================================================================

    def printk(self, fmt_addr: int) -> int:
        mem = self.kernel.memory_view()
        raw = bytearray()
        addr = fmt_addr
        for _ in range(256):
            b = mem.read(addr, 1)
            if b == 0:
                break
            raw.append(b)
            addr += 1
        self.kernel.log.append(raw.decode("ascii", "replace"))
        return 0

    def mii_check_link(self, adapter: int) -> int:
        mem = self.kernel.memory_view()
        hw = mem.read_u32(adapter + L.ADP_HW)
        status = mem.read_u32(hw + 0x8)      # REG_STATUS
        return status & 0x2                  # STATUS_LU

    def ethtool_op_get_link(self, netdev: int) -> int:
        return 1 if self._netdev(netdev).carrier_ok else 0

    def capable(self, cap: int) -> int:
        return 1

    def copy_from_user(self, dst: int, src: int, n: int) -> int:
        return self.memcpy_support(dst, src, n) and 0

    def copy_to_user(self, dst: int, src: int, n: int) -> int:
        return self.memcpy_support(dst, src, n) and 0
