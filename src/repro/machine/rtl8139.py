"""RTL8139-style NIC device model: the *other* classic programming model.

Where the e1000 uses descriptor rings and scatter/gather DMA, the 8139
uses four fixed transmit slots (the driver copies each packet into a
pre-mapped bounce buffer and writes its length to a TSD register) and a
single contiguous receive ring that the device fills with
``[status|len]``-headed records. Having a second, structurally different
driver+device pair demonstrates that the TwinDrivers pipeline is
driver-agnostic — the paper's "semi-automatic" claim.

Register map (u32, simplified from the RTL8139C datasheet):

========  =====================================================
0x10-0x1C TSD0..TSD3   transmit status/command (write len to send)
0x20-0x2C TSAD0..TSAD3 transmit buffer bus addresses
0x30      RBSTART      receive ring bus address
0x34      CR           command: TE, RE; read: BUFE
0x38      CAPR         driver's read offset into the rx ring
0x3C      CBR          device's write offset (read-only)
0x40      IMR          interrupt mask
0x44      ISR          interrupt status (write-1-to-clear)
========  =====================================================
"""

from __future__ import annotations

from ..obs.events import NIC_DMA_FAULT, NIC_RX, NIC_TX
from .interrupts import InterruptController
from .iommu import IommuFault
from .memory import PhysicalMemory
from .nic import NicDevice

R_TSD0 = 0x10
R_TSAD0 = 0x20
R_RBSTART = 0x30
R_CR = 0x34
R_CAPR = 0x38
R_CBR = 0x3C
R_IMR = 0x40
R_ISR = 0x44

RTL_MMIO_SIZE = 0x100

CR_BUFE = 0x01         # rx buffer empty (read-only)
CR_TE = 0x04           # transmitter enable
CR_RE = 0x08           # receiver enable

TSD_TOK = 0x8000       # transmit OK (set by the device when sent)
TSD_LEN_MASK = 0x1FFF

ISR_TOK = 0x04
ISR_ROK = 0x01

#: rx ring geometry: 16 KiB, records 4-byte aligned, wrap when fewer than
#: 2 KiB remain (the driver mirrors this rule).
RX_RING_BYTES = 16 * 1024
RX_WRAP_THRESHOLD = RX_RING_BYTES - 2048
RX_RECORD_HEADER = 4
RX_STATUS_ROK = 0x0001

N_TX_SLOTS = 4
TX_SLOT_BYTES = 2048


class Rtl8139Device(NicDevice):
    """The device half; constructor-compatible with E1000Device so the
    Machine can host either model. The 8139 hardware never had RSS: its
    queues model the steering layer above the one ring."""

    MMIO_SIZE = RTL_MMIO_SIZE
    CAUSE_REG = R_ISR
    MASK_REG = R_IMR
    CAUSE_FIELD = "isr"

    def __init__(self, phys: PhysicalMemory, intc: InterruptController,
                 irq: int, mmio_phys_base: int, mac: bytes,
                 name: str = "eth0"):
        self.regs = {R_RBSTART: 0, R_CR: 0, R_CAPR: 0, R_CBR: 0,
                     R_IMR: 0, R_ISR: 0}
        for i in range(N_TX_SLOTS):
            self.regs[R_TSD0 + 4 * i] = TSD_TOK      # slots start free
            self.regs[R_TSAD0 + 4 * i] = 0
        super().__init__(phys, intc, irq, mmio_phys_base, mac, name)

    # -- MMIO ------------------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == R_CR:
            value = self.regs[R_CR] & ~CR_BUFE
            if self.regs[R_CBR] == self.regs[R_CAPR]:
                value |= CR_BUFE
            return value
        return self.regs.get(offset, 0) & ((1 << (size * 8)) - 1)

    def mmio_write(self, offset: int, size: int, value: int):
        if offset == R_ISR:
            self.regs[R_ISR] &= ~value            # write-1-to-clear
            return
        if R_TSD0 <= offset < R_TSD0 + 4 * N_TX_SLOTS:
            self._transmit_slot((offset - R_TSD0) // 4, value)
            return
        if offset == R_CBR:
            return                                # read-only
        self.regs[offset] = value

    # -- transmit ------------------------------------------------------------------

    def _transmit_slot(self, slot: int, tsd_value: int):
        if not self.regs[R_CR] & CR_TE:
            return
        length = tsd_value & TSD_LEN_MASK
        if length == 0:
            return
        bus = self.regs[R_TSAD0 + 4 * slot]
        try:
            if self.iommu is not None:
                self.iommu.check(self.name, bus, length, write=False)
            payload = self.phys.read_bytes(bus, length)
        except IommuFault:
            self.stats.dma_faults += 1
            self._trace(NIC_DMA_FAULT, ring="tx", index=slot)
            self.regs[R_TSD0 + 4 * slot] = TSD_TOK
            return
        self.stats.tx_packets += 1
        self.stats.tx_bytes += length
        q = self.rss_queue(payload)
        self.last_tx_queue = q
        self.queues[q].tx_packets += 1
        self.queues[q].tx_bytes += length
        self._trace(NIC_TX, len=length)
        if self.on_transmit is not None:
            self.on_transmit(self, payload)
        self.regs[R_TSD0 + 4 * slot] = length | TSD_TOK
        self.regs[R_ISR] |= ISR_TOK
        self._maybe_interrupt()

    # -- receive -----------------------------------------------------------------------

    def _rx_free_bytes(self) -> int:
        # Both pointers live in [0, RX_WRAP_THRESHOLD) — they snap to 0 at
        # the threshold; the slack above it is the overflow area for a
        # record that *starts* just below it. Free space is the circular
        # distance from the write pointer back to the read pointer.
        cbr, capr = self.regs[R_CBR], self.regs[R_CAPR]
        used = (cbr - capr) % RX_WRAP_THRESHOLD
        return RX_WRAP_THRESHOLD - used

    def receive(self, packet: bytes) -> bool:
        q = self.rss_queue(packet)
        self.last_rx_queue = q
        if not self.regs[R_CR] & CR_RE or self.regs[R_RBSTART] == 0:
            self.stats.rx_dropped_no_desc += 1
            return False
        record = RX_RECORD_HEADER + len(packet)
        record_aligned = (record + 3) & ~3
        if self._rx_free_bytes() <= record_aligned + 4:
            self.stats.rx_dropped_no_desc += 1
            return False
        cbr = self.regs[R_CBR]
        base = self.regs[R_RBSTART]
        header = RX_STATUS_ROK | (len(packet) << 16)
        try:
            if self.iommu is not None:
                self.iommu.check(self.name, base + cbr, record_aligned,
                                 write=True)
            self.phys.write_u32(base + cbr, header)
            self.phys.write_bytes(base + cbr + RX_RECORD_HEADER, packet)
        except IommuFault:
            self.stats.dma_faults += 1
            self._trace(NIC_DMA_FAULT, ring="rx", index=cbr)
            return False
        self._trace(NIC_RX, len=len(packet))
        cbr += record_aligned
        if cbr >= RX_WRAP_THRESHOLD:
            cbr = 0
        self.regs[R_CBR] = cbr
        self.stats.rx_packets += 1
        self.stats.rx_bytes += len(packet)
        self.queues[q].rx_packets += 1
        self.queues[q].rx_bytes += len(packet)
        self.regs[R_ISR] |= ISR_ROK
        self._maybe_interrupt()
        return True

    def rx_slots_free(self) -> int:
        """Approximate parity with the e1000 facade: MTU records left."""
        return self._rx_free_bytes() // (1518 + RX_RECORD_HEADER)
