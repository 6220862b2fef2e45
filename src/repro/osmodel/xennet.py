"""The standard (unoptimized) Xen split network path: netfront/netback.

This is the paper's ``domU`` baseline configuration (figure 1): guest
transmit crosses an I/O channel into dom0 via grant operations and a
domain switch, traverses the bridge and dom0's device layer, and finally
reaches the real NIC driver running in dom0. Receive goes the other way,
with the hypervisor grant-copying packets into the guest.

Grant-table bookkeeping is real (:mod:`repro.xen.granttable`); the driver
invocation is real binary execution; everything else charges calibrated
per-packet costs whose sums reproduce the ``domU`` bars of figures 7/8.
"""

from __future__ import annotations

from typing import Optional

from ..machine.memory import PAGE_SIZE
from ..xen.hypervisor import Hypervisor
from . import layout as L
from .bridge import Bridge
from .kernel import BROADCAST_MAC, Kernel
from .netdev import NetDevice
from .skbuff import SkBuff


class XenNetFront:
    """Guest-side split driver (one per virtual interface)."""

    def __init__(self, backend: "XenNetBack", guest_kernel: Kernel,
                 mac: bytes, netdev_addr: int):
        self.backend = backend
        self.kernel = guest_kernel
        self.mac = bytes(mac)
        #: the dom0 net_device this vif is bridged to
        self.netdev_addr = netdev_addr
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_dropped = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self._tx_buf = guest_kernel.heap.alloc_pages(1)
        backend.register_front(self)

    def transmit(self, payload_len: int, dst_mac: bytes = BROADCAST_MAC,
                 payload: Optional[bytes] = None) -> bool:
        self.kernel.charge_tx_stack()
        frame_len = min(L.ETH_HLEN + payload_len, PAGE_SIZE)
        header = bytes(dst_mac) + self.mac + (0x0800).to_bytes(2, "big")
        aspace = self.kernel.domain.aspace
        aspace.write_bytes(self._tx_buf, header)
        if payload is not None:
            aspace.write_bytes(self._tx_buf + L.ETH_HLEN,
                               payload[: frame_len - L.ETH_HLEN])
        # grant the packet page to dom0 and signal the I/O channel
        xen = self.backend.xen
        frame = aspace.translate(self._tx_buf) >> 12
        table = xen.grant_tables[self.kernel.domain.domid]
        xen.charge_xen(xen.costs.grant_issue, phase="xen:grant_issue")
        ref = table.issue(frame, self.backend.dom0_kernel.domain.domid)
        xen.charge_xen(xen.costs.event_channel_send, phase="xen:event_send")
        ok = self.backend.transmit_from_guest(self, ref,
                                              self._tx_buf & 0xFFF,
                                              frame_len)
        xen.charge_xen(xen.costs.grant_revoke, phase="xen:grant_revoke")
        table.revoke(ref)
        if ok:
            self.tx_packets += 1
            self.tx_bytes += frame_len
        else:
            self.tx_dropped += 1
        return ok

    def deliver(self, payload: bytes):
        """Receive side: the packet has been grant-copied into the guest;
        process it up the guest stack."""
        self.kernel.charge_rx_stack()
        self.rx_packets += 1
        self.rx_bytes += len(payload)


class XenNetBack:
    """dom0-side backend plus the bridge hookup."""

    def __init__(self, xen: Hypervisor, dom0_kernel: Kernel):
        self.xen = xen
        self.dom0_kernel = dom0_kernel
        self.bridge = Bridge()
        self.rx_no_front = 0
        # bridge-forwarding receive disposition for the dom0 kernel
        dom0_kernel.rx_handler = self.backend_rx

    def register_front(self, front: XenNetFront):
        self.bridge.learn(front.mac, front)

    # -- guest -> NIC ------------------------------------------------------------

    def transmit_from_guest(self, front: XenNetFront, ref: int,
                            offset: int, frame_len: int) -> bool:
        xen = self.xen
        costs = xen.costs
        dom0 = self.dom0_kernel
        # I/O-channel crossing into the driver domain.
        xen.charge_xen(costs.domain_switch, phase="xen:domain_switch")
        xen.charge_xen(costs.xen_std_tx_misc, phase="xen:std_tx_misc")
        frame = xen.grant_map(front.kernel.domain, ref, dom0.domain)
        dom0.charge(costs.backend_tx, phase="netback:tx")
        dom0.charge(costs.bridge_forward, phase="netback:bridge")
        self.bridge.learn(front.mac, front)
        dom0.charge(costs.dom0_tx_stack, phase="kernel:tx_stack")
        # Build a dom0 skb: header pulled into the linear area, packet body
        # chained as a fragment of the granted (guest) page.
        skb = dom0.alloc_skb(L.ETH_HLEN + 64)
        # read the header out of the granted frame (mapped by dom0)
        header = self._read_frame(frame, offset, L.ETH_HLEN)
        skb.put(L.ETH_HLEN)
        dom0.memory_view().write_bytes(skb.data, header)
        body = frame_len - L.ETH_HLEN
        if body > 0:
            skb.add_frag(frame << 12, offset + L.ETH_HLEN, body)
        skb.dev = front.netdev_addr
        ndev = NetDevice(dom0.memory_view(), front.netdev_addr)
        # run the real driver in dom0 context
        machine = xen.machine
        prev_space = machine.cpu.address_space
        machine.cpu.address_space = dom0.domain.aspace
        try:
            ok = dom0.transmit_skb(skb, ndev)
        finally:
            machine.cpu.address_space = prev_space
        xen.grant_unmap(front.kernel.domain, ref, dom0.domain)
        return ok

    def _read_frame(self, frame: int, offset: int, n: int) -> bytes:
        return self.xen.machine.phys.read_bytes((frame << 12) + offset, n)

    # -- NIC -> guest -----------------------------------------------------------------

    def backend_rx(self, skb_addr: int):
        """dom0 receive disposition in bridge mode: the driver handed the
        packet to netif_rx; bridge it to the front owning its destination
        MAC, or to every front (broadcast, unknown unicast); grant-copy."""
        xen = self.xen
        costs = xen.costs
        dom0 = self.dom0_kernel
        skb = SkBuff(dom0.memory_view(), skb_addr)
        dom0.charge(costs.kernel_rx_stack,      # dom0 softirq + skb handling
                    phase="kernel:rx_stack")
        dom0.charge(costs.bridge_forward, phase="netback:bridge")
        dom0.charge(costs.backend_rx, phase="netback:rx")
        dst_mac = dom0.memory_view().read_bytes(skb.data - L.ETH_HLEN,
                                                L.ETH_ALEN)
        # the ingress port is the physical uplink, never a front
        fronts = self.bridge.forward_targets(dst_mac, ingress=None)
        payload = skb.read_payload()
        dom0.free_skb(skb_addr)
        if not fronts:
            self.rx_no_front += 1
        for front in fronts:
            # the hypervisor grant-copies the packet into the guest
            xen.charge_xen(costs.grant_copy_per_packet, phase="xen:grant_copy")
            xen.charge_xen(costs.event_channel_send, phase="xen:event_send")
            xen.charge_xen(costs.domain_switch, phase="xen:domain_switch")
            xen.charge_xen(costs.xen_std_rx_misc, phase="xen:std_rx_misc")
            front.deliver(payload)
