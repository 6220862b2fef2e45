"""The guest-side paravirtual network driver (paper §3.1, §5.3).

Guests do not run the NIC driver: they hand packets to the hypervisor
through a hypercall and receive packets through copies plus a virtual
interrupt. No domain switch happens anywhere on this path — that is the
entire point of TwinDrivers.

Transmit: the first 96 bytes of the guest packet are copied into a
pooled dom0 sk_buff; the rest is chained as page fragments referencing
the *guest's own machine pages* (the hypervisor's ``dma_map_page``
returns correct guest machine addresses). Receive: the hypervisor
demultiplexes on destination MAC, copies the packet into a guest buffer
when the guest is scheduled, and raises a virtual interrupt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..machine.memory import PAGE_SIZE
from ..osmodel import layout as L
from ..osmodel.kernel import BROADCAST_MAC, Kernel

if TYPE_CHECKING:  # pragma: no cover
    from .twin import TwinDriverManager

#: Bytes of packet header copied into the dom0 sk_buff on transmit.
HEADER_COPY_BYTES = 96


class ParavirtNetDevice:
    """A guest's virtual NIC backed by the TwinDrivers hypervisor driver."""

    def __init__(self, twin: "TwinDriverManager", guest_kernel: Kernel,
                 mac: bytes):
        self.twin = twin
        self.kernel = guest_kernel
        self.mac = bytes(mac)
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_busy = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.rx_payloads: List[bytes] = []
        self.keep_rx_payloads = False
        #: number of coalesced rx interrupts this device has taken
        self.rx_interrupts = 0
        #: guest buffer pages used to stage outgoing payloads
        self._tx_buf = guest_kernel.heap.alloc_pages(2)
        #: extra 2-page staging slots, grown lazily by transmit_batch
        self._tx_slots: List[int] = [self._tx_buf]
        twin.register_guest_device(self)

    # -- transmit ------------------------------------------------------------

    def transmit(self, payload_len: int, dst_mac: bytes = BROADCAST_MAC,
                 payload: Optional[bytes] = None) -> bool:
        """Send one frame: guest TCP/IP stack -> hypercall -> hypervisor
        driver. Returns False if the driver reported ring-full."""
        self.kernel.charge_tx_stack()
        frame_len = L.ETH_HLEN + payload_len
        header = (bytes(dst_mac) + self.mac
                  + (0x0800).to_bytes(2, "big"))
        # Stage the frame in guest memory (header + payload).
        aspace = self.kernel.domain.aspace
        aspace.write_bytes(self._tx_buf, header)
        if payload is not None:
            aspace.write_bytes(self._tx_buf + L.ETH_HLEN,
                               payload[:payload_len])
        # hypercall into the hypervisor driver
        self.twin.xen.hypercall("twin-xmit")
        ok = self.twin.guest_transmit(self, self._tx_buf, frame_len)
        if ok:
            self.tx_packets += 1
            self.tx_bytes += frame_len
        else:
            self.tx_busy += 1
        return ok

    def transmit_batch(self, payload_lens: List[int],
                       dst_mac: bytes = BROADCAST_MAC,
                       payloads: Optional[List[bytes]] = None) -> List[bool]:
        """Send a burst of frames with ONE hypercall: each frame is staged
        in its own guest slot, then the hypervisor driver transmits the
        whole burst (§5.3 batching). Per-frame guest-stack work is still
        charged — only the hypercall entry and the driver invoke setup are
        amortised. Returns one success flag per frame."""
        if not payload_lens:
            return []
        aspace = self.kernel.domain.aspace
        while len(self._tx_slots) < len(payload_lens):
            self._tx_slots.append(self.kernel.heap.alloc_pages(2))
        header_base = bytes(dst_mac) + self.mac + (0x0800).to_bytes(2, "big")
        frames: List[Tuple[int, int]] = []
        for i, payload_len in enumerate(payload_lens):
            self.kernel.charge_tx_stack()
            buf = self._tx_slots[i]
            aspace.write_bytes(buf, header_base)
            if payloads is not None and payloads[i] is not None:
                aspace.write_bytes(buf + L.ETH_HLEN,
                                   payloads[i][:payload_len])
            frames.append((buf, L.ETH_HLEN + payload_len))
        # one hypercall for the whole burst
        self.twin.xen.hypercall("twin-xmit-batch")
        results = self.twin.guest_transmit_batch(self, frames)
        for ok, (_, frame_len) in zip(results, frames):
            if ok:
                self.tx_packets += 1
                self.tx_bytes += frame_len
            else:
                self.tx_busy += 1
        return results

    def guest_frame_fragments(self, buf: int, frame_len: int
                              ) -> Tuple[bytes, List[Tuple[int, int, int]]]:
        """Split the staged frame into the 96-byte header and machine-page
        fragments for the remainder."""
        aspace = self.kernel.domain.aspace
        head_len = min(HEADER_COPY_BYTES, frame_len)
        header = aspace.read_bytes(buf, head_len)
        frags: List[Tuple[int, int, int]] = []
        pos = head_len
        while pos < frame_len:
            vaddr = buf + pos
            chunk = min(frame_len - pos, PAGE_SIZE - (vaddr & 0xFFF))
            paddr = aspace.translate(vaddr)
            frags.append((paddr & ~0xFFF, paddr & 0xFFF, chunk))
            pos += chunk
        return header, frags

    # -- receive ------------------------------------------------------------------

    def deliver_batch(self, payloads: List[bytes]):
        """Called by the hypervisor after copying a *batch* of packets
        into the guest under one coalesced virtual interrupt. Guest stack
        processing is still per packet — only interrupt delivery was
        amortised on the hypervisor side."""
        if not payloads:
            return
        self.rx_interrupts += 1
        for payload in payloads:
            self.kernel.charge_rx_stack()
            self.rx_packets += 1
            self.rx_bytes += len(payload)
            if self.keep_rx_payloads:
                self.rx_payloads.append(payload)
