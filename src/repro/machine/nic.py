"""e1000-style NIC device model: MMIO registers, descriptor rings, DMA.

The device is programmed exactly the way the driver binary programs it:
by writing ring base/head/tail registers through MMIO and by placing
legacy-style 16-byte descriptors in (physical) memory. Transmit works by
the driver advancing TDT; the device DMAs the buffers out and raises a
TXDW interrupt. Receive works by the device DMAing an incoming frame into
the next free rx descriptor's buffer and raising RXT0.

Register offsets loosely follow the Intel 8254x datasheet so the driver
assembly reads like a real e1000 driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..obs.events import NIC_DESC, NIC_DMA_FAULT, NIC_IRQ, NIC_RX, NIC_TX
from .interrupts import InterruptController
from .iommu import Iommu, IommuFault
from .memory import PhysicalMemory

# Register offsets (bytes from the MMIO base).
REG_CTRL = 0x0000
REG_STATUS = 0x0008
REG_ICR = 0x00C0      # interrupt cause read (read-to-clear)
REG_IMS = 0x00D0      # interrupt mask set
REG_IMC = 0x00D8      # interrupt mask clear
REG_RCTL = 0x0100
REG_TCTL = 0x0400
REG_RDBAL = 0x2800
REG_RDLEN = 0x2808
REG_RDH = 0x2810
REG_RDT = 0x2818
REG_TDBAL = 0x3800
REG_TDLEN = 0x3808
REG_TDH = 0x3810
REG_TDT = 0x3818

MMIO_SIZE = 0x4000

# Interrupt cause bits.
ICR_TXDW = 0x01       # transmit descriptor written back
ICR_LSC = 0x04        # link status change
ICR_RXT0 = 0x80       # receiver timer / packet received

# Control/status bits.
CTRL_RST = 0x04000000
STATUS_LU = 0x02      # link up
TCTL_EN = 0x02
RCTL_EN = 0x02

# Descriptor layout (16 bytes, legacy-ish).
DESC_ADDR = 0         # u32 buffer physical address
DESC_LEN = 8          # u32 length
DESC_FLAGS = 12       # u32: bit0 DD (device done), bit1 EOP
DESC_SIZE = 16
DESC_DD = 0x1
DESC_EOP = 0x2


#: FNV-1a offset basis / prime (32-bit).
_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193
#: Bytes of the frame fed to the RSS hash: enough to cover the Ethernet
#: header plus an IPv4 header's address/port words (dst 6 + src 6 +
#: ethertype 2 + 20 IP == 34), like a Toeplitz hash over the 4-tuple.
RSS_HASH_BYTES = 34


def flow_hash(frame: bytes) -> int:
    """Deterministic 32-bit RSS flow hash (FNV-1a over the headers).

    Explicitly NOT Python's builtin ``hash``: that is randomized per
    process (PYTHONHASHSEED), and queue selection must be bit-identical
    across runs for the determinism gates."""
    h = _FNV_OFFSET
    for b in frame[:RSS_HASH_BYTES]:
        h = ((h ^ b) * _FNV_PRIME) & 0xFFFFFFFF
    return h


@dataclass
class NicQueueStats:
    """Counters for one tx/rx queue pair of a multiqueue NIC."""

    index: int
    tx_packets: int = 0
    tx_bytes: int = 0
    rx_packets: int = 0
    rx_bytes: int = 0


@dataclass
class NicStats:
    """Per-device counters (packets, bytes, drops, interrupts, faults)."""

    tx_packets: int = 0
    tx_bytes: int = 0
    rx_packets: int = 0
    rx_bytes: int = 0
    rx_dropped_no_desc: int = 0
    interrupts: int = 0
    dma_faults: int = 0


class NicDevice:
    """What both NIC models share: identity and counters, RSS queue
    steering, the trace hook, interrupt coalescing and the hypervisor-side
    line mask. A model sets ``regs`` before calling this constructor and
    names, as class attributes, its MMIO window size (``MMIO_SIZE``), its
    interrupt cause and mask registers (``CAUSE_REG``, ``MASK_REG``) and
    the trace field that reports the cause (``CAUSE_FIELD``)."""

    MMIO_SIZE: int
    CAUSE_REG: int
    MASK_REG: int
    CAUSE_FIELD: str

    def __init__(self, phys: PhysicalMemory, intc: InterruptController,
                 irq: int, mmio_phys_base: int, mac: bytes,
                 name: str = "eth0"):
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        self.phys = phys
        self.intc = intc
        self.irq = irq
        self.mac = bytes(mac)
        self.name = name
        self.stats = NicStats()
        self.on_transmit: Optional[Callable[["NicDevice", bytes], None]] = None
        self.mmio = phys.add_mmio_region(mmio_phys_base, self.MMIO_SIZE, self)
        #: interrupt coalescing: raise the line only every Nth cause (the
        #: 8254x's interrupt throttling timers, simplified). 1 = immediate.
        self.interrupt_batch = 1
        self._coalesced = 0
        #: line-level mask (hypervisor-side, distinct from the device's
        #: mask register): recovery and handover mask the line while they
        #: tear down or swap the driver, then unmask to pick up the
        #: causes that latched meanwhile.
        self.line_masked = False
        #: optional DMA protection (paper §4.5): when set, every DMA this
        #: device performs is checked against programmed windows.
        self.iommu: Optional[Iommu] = None
        #: trace ring (set by Machine.add_nic).
        self.tracer = None
        #: multiqueue (RSS): N tx/rx queue pairs demuxed by flow hash.
        #: The device keeps its one ring (the driver binary programs one);
        #: queues model the per-flow steering and carry the per-queue
        #: counters the twin shards its state by.
        self.set_num_queues(1)

    def set_num_queues(self, n: int):
        """Resize to ``n`` tx/rx queue pairs (resets per-queue stats)."""
        if n < 1:
            raise ValueError(f"need at least one queue, got {n}")
        self.num_queues = n
        self.queues = [NicQueueStats(i) for i in range(n)]
        #: queue the most recent rx / tx frame was steered to.
        self.last_rx_queue = 0
        self.last_tx_queue = 0

    def rss_queue(self, frame: bytes) -> int:
        """RSS steering: which queue this frame's flow hashes to."""
        if self.num_queues == 1:
            return 0
        return flow_hash(frame) % self.num_queues

    def _trace(self, kind: str, **args):
        if self.tracer.enabled:
            self.tracer.emit(kind, nic=self.name, **args)

    # -- interrupts -------------------------------------------------------------------------

    def pending_cause(self) -> int:
        """Interrupt causes latched in the device and enabled in its mask
        register: what the line raises as soon as it may."""
        return self.regs[self.CAUSE_REG] & self.regs[self.MASK_REG]

    def _maybe_interrupt(self):
        if self.line_masked or not self.pending_cause():
            return
        self._coalesced += 1
        if self._coalesced < self.interrupt_batch:
            return
        self._coalesced = 0
        self._raise_line()

    def _raise_line(self, **args):
        self.stats.interrupts += 1
        self._trace(NIC_IRQ, irq=self.irq,
                    **{self.CAUSE_FIELD: self.regs[self.CAUSE_REG]}, **args)
        self.intc.raise_irq(self.irq)

    def flush_interrupts(self):
        """Deliver any coalesced-but-unraised interrupt immediately."""
        if self.line_masked:
            return
        self._coalesced = 0
        if self.pending_cause():
            self._raise_line(flushed=True)

    def mask_line(self):
        """Mask the interrupt line at the hypervisor (teardown window)."""
        self.line_masked = True

    def unmask_line(self):
        """Unmask the line and deliver any cause that accrued meanwhile."""
        self.line_masked = False
        self.flush_interrupts()


class E1000Device(NicDevice):
    """One simulated e1000 NIC attached to physical memory and an IRQ
    line."""

    MMIO_SIZE = MMIO_SIZE
    CAUSE_REG = REG_ICR
    MASK_REG = REG_IMS
    CAUSE_FIELD = "icr"

    def __init__(self, phys: PhysicalMemory, intc: InterruptController,
                 irq: int, mmio_phys_base: int, mac: bytes,
                 name: str = "eth0"):
        self.regs = {
            REG_CTRL: 0,
            REG_STATUS: STATUS_LU,
            REG_ICR: 0,
            REG_IMS: 0,
            REG_RCTL: 0,
            REG_TCTL: 0,
            REG_RDBAL: 0, REG_RDLEN: 0, REG_RDH: 0, REG_RDT: 0,
            REG_TDBAL: 0, REG_TDLEN: 0, REG_TDH: 0, REG_TDT: 0,
        }
        self._tx_fragments: List[bytes] = []
        super().__init__(phys, intc, irq, mmio_phys_base, mac, name)

    # -- MMIO interface ------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        value = self.regs.get(offset, 0)
        if offset == REG_ICR:
            # read-to-clear, as on real hardware
            self.regs[REG_ICR] = 0
        return value & ((1 << (size * 8)) - 1)

    def mmio_write(self, offset: int, size: int, value: int):
        if offset == REG_ICR:
            self.regs[REG_ICR] &= ~value
            return
        if offset == REG_IMS:
            self.regs[REG_IMS] |= value
            self._maybe_interrupt()
            return
        if offset == REG_IMC:
            self.regs[REG_IMS] &= ~value
            return
        if offset == REG_CTRL and value & CTRL_RST:
            self._reset()
            return
        self.regs[offset] = value
        if offset == REG_TDT:
            self._process_tx()

    def _reset(self):
        for off in (REG_RDBAL, REG_RDLEN, REG_RDH, REG_RDT,
                    REG_TDBAL, REG_TDLEN, REG_TDH, REG_TDT,
                    REG_ICR, REG_IMS, REG_RCTL, REG_TCTL):
            self.regs[off] = 0
        self.regs[REG_STATUS] = STATUS_LU

    # -- DMA (IOMMU-checked when protection is enabled) --------------------------

    def _dma_read_bytes(self, paddr: int, n: int) -> bytes:
        if self.iommu is not None:
            self.iommu.check(self.name, paddr, n, write=False)
        return self.phys.read_bytes(paddr, n)

    def _dma_write_bytes(self, paddr: int, payload: bytes):
        if self.iommu is not None:
            self.iommu.check(self.name, paddr, len(payload), write=True)
        self.phys.write_bytes(paddr, payload)

    # descriptor-ring accesses are DMA too, but the ring was mapped by
    # dma_alloc_coherent which programs a persistent window; device models
    # commonly treat ring traffic as covered by that window.
    def _dma_read_u32(self, paddr: int) -> int:
        if self.iommu is not None:
            self.iommu.check(self.name, paddr, 4, write=False)
        return self.phys.read_u32(paddr)

    def _dma_write_u32(self, paddr: int, value: int):
        if self.iommu is not None:
            self.iommu.check(self.name, paddr, 4, write=True)
        self.phys.write_u32(paddr, value)

    # -- descriptors -----------------------------------------------------------

    def _ring_entries(self, len_reg: int) -> int:
        return self.regs[len_reg] // DESC_SIZE

    def _desc_addr(self, base_reg: int, index: int) -> int:
        return self.regs[base_reg] + index * DESC_SIZE

    # -- transmit ------------------------------------------------------------------

    def _process_tx(self):
        if not self.regs[REG_TCTL] & TCTL_EN:
            return
        entries = self._ring_entries(REG_TDLEN)
        if entries == 0:
            return
        did_work = False
        while self.regs[REG_TDH] != self.regs[REG_TDT]:
            head = self.regs[REG_TDH]
            desc = self._desc_addr(REG_TDBAL, head)
            try:
                addr = self._dma_read_u32(desc + DESC_ADDR)
                length = self._dma_read_u32(desc + DESC_LEN)
                flags = self._dma_read_u32(desc + DESC_FLAGS)
                payload = (self._dma_read_bytes(addr, length)
                           if length else b"")
            except IommuFault:
                # the IOMMU blocked the transfer: drop this descriptor,
                # exactly what protects memory from a rogue bus address
                self.stats.dma_faults += 1
                self._trace(NIC_DMA_FAULT, ring="tx", index=head)
                self._tx_fragments = []
                self.regs[REG_TDH] = (head + 1) % entries
                did_work = True
                continue
            self._tx_fragments.append(payload)
            if flags & DESC_EOP:
                packet = b"".join(self._tx_fragments)
                self._tx_fragments = []
                self.stats.tx_packets += 1
                self.stats.tx_bytes += len(packet)
                q = self.rss_queue(packet)
                self.last_tx_queue = q
                qs = self.queues[q]
                qs.tx_packets += 1
                qs.tx_bytes += len(packet)
                self._trace(NIC_TX, len=len(packet))
                if self.on_transmit is not None:
                    self.on_transmit(self, packet)
            self._dma_write_u32(desc + DESC_FLAGS, flags | DESC_DD)
            self._trace(NIC_DESC, ring="tx", index=head)
            self.regs[REG_TDH] = (head + 1) % entries
            did_work = True
        if did_work:
            self.regs[REG_ICR] |= ICR_TXDW
            self._maybe_interrupt()

    # -- receive -----------------------------------------------------------------------

    def rx_slots_free(self) -> int:
        entries = self._ring_entries(REG_RDLEN)
        if entries == 0:
            return 0
        head, tail = self.regs[REG_RDH], self.regs[REG_RDT]
        return (tail - head) % entries

    def receive(self, packet: bytes) -> bool:
        """Deliver a frame from the wire into the rx ring. Returns False
        (and counts a drop) when the ring has no free descriptors."""
        # RSS steering happens in the MAC before ring availability is
        # known — the steered queue is visible even for dropped frames
        q = self.rss_queue(packet)
        self.last_rx_queue = q
        if not self.regs[REG_RCTL] & RCTL_EN or self.rx_slots_free() == 0:
            self.stats.rx_dropped_no_desc += 1
            return False
        entries = self._ring_entries(REG_RDLEN)
        head = self.regs[REG_RDH]
        desc = self._desc_addr(REG_RDBAL, head)
        try:
            addr = self._dma_read_u32(desc + DESC_ADDR)
            self._dma_write_bytes(addr, packet)
            self._dma_write_u32(desc + DESC_LEN, len(packet))
            self._dma_write_u32(desc + DESC_FLAGS, DESC_DD | DESC_EOP)
        except IommuFault:
            self.stats.dma_faults += 1
            self._trace(NIC_DMA_FAULT, ring="rx", index=head)
            return False
        self._trace(NIC_DESC, ring="rx", index=head)
        self.regs[REG_RDH] = (head + 1) % entries
        self.stats.rx_packets += 1
        self.stats.rx_bytes += len(packet)
        qs = self.queues[q]
        qs.rx_packets += 1
        qs.rx_bytes += len(packet)
        self._trace(NIC_RX, len=len(packet))
        self.regs[REG_ICR] |= ICR_RXT0
        self._maybe_interrupt()
        return True

class Wire:
    """The network: sinks transmitted frames, injects received ones.

    Benchmarks use it as a traffic generator/sink rather than simulating
    the five client machines packet-by-packet."""

    def __init__(self):
        self.transmitted: List[bytes] = []
        self.keep_payloads = False
        self.tx_count = 0
        self.tx_bytes = 0

    def attach(self, nic: NicDevice):
        nic.on_transmit = self._on_transmit

    def _on_transmit(self, nic: NicDevice, packet: bytes):
        self.tx_count += 1
        self.tx_bytes += len(packet)
        if self.keep_payloads:
            self.transmitted.append(packet)

    def inject(self, nic: NicDevice, packet: bytes) -> bool:
        return nic.receive(packet)
