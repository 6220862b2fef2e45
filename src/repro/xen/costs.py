"""The calibrated cycle-cost table (DESIGN.md §5).

Everything the simulator does NOT execute instruction-by-instruction (the
kernel TCP/IP stack, copies, domain switches, hypercall entry, upcall
round-trips, bridging, grant operations) is charged from this table. The
values are calibrated so the *component sums* reproduce the per-packet
profiles of the paper's figures 7 and 8; the comments next to each group
record the target sums. Driver-code cycles are NOT here — they come from
real interpreter execution of the (rewritten) driver binary.

Calibration anchors (cycles/packet, paper figures 7 & 8):

==============  =======  =======
configuration   transmit receive
==============  =======  =======
Linux            ~7130    11166
dom0             ~8310    14308
domU-twin         9972    20089
domU             21159    35905
==============  =======  =======
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

# ---------------------------------------------------------------------------
# Primitive hypervisor costs
# ---------------------------------------------------------------------------

#: Synchronous domain (address-space) switch, including the amortised TLB
#: and cache refill the paper blames for most of the hosted-model overhead.
DOMAIN_SWITCH = 1900
#: Hypercall entry/exit from a paravirtualized guest.
HYPERCALL = 250
#: Sending an event over an event channel.
EVENT_CHANNEL_SEND = 340
#: Delivering a virtual interrupt into a domain (callback into the guest).
VIRQ_DELIVERY = 480
#: Delivering one *coalesced* virtual interrupt covering a whole batch of
#: packets (§5.3: the hypervisor copies the queued packets and raises a
#: single virtual interrupt when the guest is next scheduled). Equal to
#: VIRQ_DELIVERY so a batch of one costs exactly what the unbatched path
#: cost — the saving is charging it once per batch instead of per packet.
VIRQ_COALESCED = VIRQ_DELIVERY
#: Per-packet bookkeeping inside a coalesced delivery beyond the first
#: packet: each additional packet still gets its own guest ring
#: descriptor / event-channel slot written, so a batch of n charges
#: ``VIRQ_COALESCED + (n - 1) * VIRQ_COALESCED_PER_PACKET``. Kept below
#: VIRQ_DELIVERY so the amortised per-packet cost strictly decreases
#: with the batch size.
VIRQ_COALESCED_PER_PACKET = 200
#: Xen fielding a physical device interrupt before routing it.
INTERRUPT_VIRTUALIZATION = 600
#: Scheduling a deferred softirq-context callback in the hypervisor.
SOFTIRQ_SCHEDULE = 400

# ---------------------------------------------------------------------------
# SMP scheduler + multiqueue costs (credit scheduler, RSS demux, locks)
# ---------------------------------------------------------------------------

#: Credit-scheduler pick: scan the vCPU run queue, compare credits.
SCHED_PICK = 150
#: Credit accounting at the end of a quantum (debit + refill check).
SCHED_CREDIT_TICK = 80
#: Migrating a domain between vCPU run queues (work stealing): remote
#: queue lock + cache-line transfer of the vcpu state.
SCHED_STEAL = 420
#: Taking an uncontended twin lock (cache-hot compare-and-swap).
LOCK_UNCONTENDED = 25
#: Lock handoff between vCPUs/queues: cache-line bounce + spin.
LOCK_HANDOFF = 240
#: RSS flow-hash computation + queue selection per packet.
RSS_DEMUX = 110
#: Refilling a per-queue stlb partition after another guest ran on it.
STLB_PARTITION_REFILL = 160

# ---------------------------------------------------------------------------
# Grant table operations (standard Xen I/O path)
# ---------------------------------------------------------------------------

GRANT_ISSUE = 120           # guest creates a grant entry
GRANT_MAP = 480             # dom0 maps a granted page
GRANT_UNMAP = 420
GRANT_COPY_PER_PACKET = 2500  # hypervisor grant-copy of an MTU packet
GRANT_REVOKE = 80

# ---------------------------------------------------------------------------
# Kernel network stack (per MTU packet)
# ---------------------------------------------------------------------------

#: TCP/IP transmit: socket write, segmentation, qdisc, dev_queue_xmit.
KERNEL_TX_STACK = 6170
#: TCP/IP receive: softirq, IP, TCP, socket delivery, copy-to-user.
KERNEL_RX_STACK = 9800
#: Paravirtual kernel overhead per tx packet vs native (fig 7: dom0 bar).
PV_KERNEL_TX_OVERHEAD = 1050
#: Paravirtual kernel overhead per rx packet vs native (fig 8: dom0 bar).
PV_KERNEL_RX_OVERHEAD = 3140

# ---------------------------------------------------------------------------
# Standard Xen I/O path (netfront -> netback -> bridge -> driver)
# ---------------------------------------------------------------------------

#: netback per-packet processing in dom0 (tx direction).
BACKEND_TX = 2000
#: netback per-packet processing in dom0 (rx direction).
BACKEND_RX = 3640
#: software bridge lookup + forwarding in dom0.
BRIDGE_FORWARD = 950
#: dom0 device-layer transmit path below the bridge.
DOM0_TX_STACK = 5440
#: miscellaneous Xen work on the standard tx path (page ops, accounting);
#: with 2x DOMAIN_SWITCH + grants + events this sums to the fig-7 Xen bar.
XEN_STD_TX_MISC = 1120
#: same for rx: with switches + grant copy + events + interrupt
#: virtualization this sums to the fig-8 Xen bar (~10355).
XEN_STD_RX_MISC = 2160

# ---------------------------------------------------------------------------
# TwinDrivers path
# ---------------------------------------------------------------------------

#: copying bytes between domains (hypervisor copy loops).
COPY_PER_BYTE = 1.2
#: fixed cost of setting up a copy (mapping checks, bookkeeping).
COPY_SETUP = 85
#: chaining one guest page fragment into a dom0 sk_buff.
FRAG_CHAIN = 120
#: fig 8 shows ~3525 cyc/pkt copying rx packets into the guest; with
#: COPY_PER_BYTE * 1500 + COPY_SETUP + page-crossing checks this lands there.
TWIN_RX_COPY_EXTRA = 1300
#: MAC-address demultiplexing of a received packet to its guest.
TWIN_RX_DEMUX = 300
#: dom0-context bookkeeping on the twin rx path (fig 8 small dom0 bar).
TWIN_RX_DOM0_SHARE = 1330

# ---------------------------------------------------------------------------
# Upcalls (fig 10)
# ---------------------------------------------------------------------------

#: One upcall round-trip: 2x domain switch + virq + handler dispatch +
#: return hypercall + upcall-stack switch + cache pollution.
#: Calibrated against fig 10: 1 upcall/invocation drops 3902 -> 1638 Mb/s.
UPCALL_ROUND_TRIP = 10700
#: Extra cost on the first upcall of a driver invocation (cold entry).
UPCALL_FIRST_EXTRA = 2800
#: Stub bookkeeping (save parameters, select upcall stack).
UPCALL_STUB = 150

# ---------------------------------------------------------------------------
# Native support-routine costs (cycles) — charged when the driver calls a
# kernel/hypervisor support routine implemented natively (Python).
# ---------------------------------------------------------------------------

SUPPORT_ROUTINE_COSTS: Dict[str, int] = {
    "netdev_alloc_skb": 90,
    "dev_kfree_skb_any": 60,
    "netif_rx": 110,          # hand-off only; stack cost charged separately
    "dma_map_single": 45,
    "dma_map_page": 45,
    "dma_unmap_single": 35,
    "dma_unmap_page": 35,
    "spin_trylock": 15,
    "spin_unlock_irqrestore": 15,
    "eth_type_trans": 30,
    # slow-path / configuration routines (cost is irrelevant to the figures
    # but kept plausible).
    "kmalloc": 400,
    "kfree": 250,
    "alloc_etherdev": 1500,
    "register_netdev": 2500,
    "unregister_netdev": 2000,
    "free_netdev": 600,
    "ioremap": 800,
    "iounmap": 500,
    "request_irq": 1200,
    "free_irq": 900,
    "pci_enable_device": 2000,
    "pci_disable_device": 1200,
    "pci_set_master": 300,
    "pci_request_regions": 700,
    "pci_release_regions": 500,
    "netif_start_queue": 40,
    "netif_stop_queue": 40,
    "netif_wake_queue": 60,
    "netif_carrier_on": 50,
    "netif_carrier_off": 50,
    "netif_queue_stopped": 25,
    "spin_lock_init": 25,
    "spin_lock_irqsave": 35,
    "init_timer": 80,
    "mod_timer": 150,
    "del_timer_sync": 200,
    "msleep": 1000,
    "udelay": 100,
    "printk": 900,
    "memcpy_support": 150,
    "memset_support": 120,
    "skb_reserve": 25,
    "skb_put": 30,
    "skb_headroom": 20,
    "dma_alloc_coherent": 1800,
    "dma_free_coherent": 1200,
    "mii_check_link": 350,
    "ethtool_op_get_link": 80,
    "capable": 60,
    "copy_from_user": 300,
    "copy_to_user": 300,
}

# ---------------------------------------------------------------------------
# Driver-speed calibration
# ---------------------------------------------------------------------------

#: Multiplies interpreter cycle charges so the *native* e1000 transmit path
#: costs ~960 cycles/packet (fig 7). Set by calibration
#: (tests/integration/test_calibration.py checks the band).
DRIVER_CYCLE_SCALE = 1.0

# ---------------------------------------------------------------------------
# Multi-NIC streaming efficiency (netperf runs vs single-NIC profile runs)
# ---------------------------------------------------------------------------

#: The paper notes the single-NIC profile "differs a little" from the
#: 5-NIC throughput runs (batching and cache locality change). This factor
#: converts profile cycles/packet into effective streaming cycles/packet:
#: effective = profile * factor. Derived from the paper's own numbers
#: (fig 5/6 throughputs vs fig 7/8 profiles).
MULTI_NIC_EFFICIENCY: Dict[Tuple[str, str], float] = {
    ("linux", "tx"): 0.828,
    ("dom0", "tx"): 0.925,
    ("domU-twin", "tx"): 0.925,
    ("domU", "tx"): 1.051,
    ("linux", "rx"): 1.071,
    ("dom0", "rx"): 0.886,
    ("domU-twin", "rx"): 0.886,
    ("domU", "rx"): 1.080,
}

# ---------------------------------------------------------------------------
# Web-server workload (fig 9)
# ---------------------------------------------------------------------------

#: knot request handling: accept, parse, file-cache lookup, syscalls.
APP_REQUEST_CYCLES = 215_000
#: Virtualization penalty on application/syscall work.
VIRT_APP_FACTOR: Dict[str, float] = {
    "linux": 1.00,
    "dom0": 1.15,
    "domU-twin": 1.20,
    "domU": 1.30,
}
#: Request/response traffic is small-packet heavy; configurations whose
#: per-packet costs are fixed (domain switches per packet) degrade more
#: than streaming MTU traffic suggests.
REQRESP_PACKET_FACTOR: Dict[str, float] = {
    "linux": 1.00,
    "dom0": 1.05,
    "domU-twin": 1.10,
    "domU": 1.65,
}
#: Open-loop overload efficiency: past saturation, timed-out responses are
#: discarded by httperf and interrupt pressure wastes server CPU. domU
#: suffers classic receive-livelock behaviour.
OVERLOAD_EFFICIENCY: Dict[str, float] = {
    "linux": 0.99,
    "dom0": 0.99,
    "domU-twin": 0.97,
    "domU": 0.80,
}


@dataclass
class CostModel:
    """Bundles the module-level defaults so tests can override selectively."""

    domain_switch: int = DOMAIN_SWITCH
    hypercall: int = HYPERCALL
    event_channel_send: int = EVENT_CHANNEL_SEND
    virq_delivery: int = VIRQ_DELIVERY
    virq_coalesced: int = VIRQ_COALESCED
    virq_coalesced_per_packet: int = VIRQ_COALESCED_PER_PACKET
    interrupt_virtualization: int = INTERRUPT_VIRTUALIZATION
    softirq_schedule: int = SOFTIRQ_SCHEDULE
    sched_pick: int = SCHED_PICK
    sched_credit_tick: int = SCHED_CREDIT_TICK
    sched_steal: int = SCHED_STEAL
    lock_uncontended: int = LOCK_UNCONTENDED
    lock_handoff: int = LOCK_HANDOFF
    rss_demux: int = RSS_DEMUX
    stlb_partition_refill: int = STLB_PARTITION_REFILL
    grant_issue: int = GRANT_ISSUE
    grant_map: int = GRANT_MAP
    grant_unmap: int = GRANT_UNMAP
    grant_copy_per_packet: int = GRANT_COPY_PER_PACKET
    grant_revoke: int = GRANT_REVOKE
    kernel_tx_stack: int = KERNEL_TX_STACK
    kernel_rx_stack: int = KERNEL_RX_STACK
    pv_kernel_tx_overhead: int = PV_KERNEL_TX_OVERHEAD
    pv_kernel_rx_overhead: int = PV_KERNEL_RX_OVERHEAD
    backend_tx: int = BACKEND_TX
    backend_rx: int = BACKEND_RX
    bridge_forward: int = BRIDGE_FORWARD
    dom0_tx_stack: int = DOM0_TX_STACK
    xen_std_tx_misc: int = XEN_STD_TX_MISC
    xen_std_rx_misc: int = XEN_STD_RX_MISC
    copy_per_byte: float = COPY_PER_BYTE
    copy_setup: int = COPY_SETUP
    frag_chain: int = FRAG_CHAIN
    twin_rx_copy_extra: int = TWIN_RX_COPY_EXTRA
    twin_rx_demux: int = TWIN_RX_DEMUX
    twin_rx_dom0_share: int = TWIN_RX_DOM0_SHARE
    upcall_round_trip: int = UPCALL_ROUND_TRIP
    upcall_first_extra: int = UPCALL_FIRST_EXTRA
    upcall_stub: int = UPCALL_STUB
    driver_cycle_scale: float = DRIVER_CYCLE_SCALE
    support_costs: Dict[str, int] = field(
        default_factory=lambda: dict(SUPPORT_ROUTINE_COSTS)
    )

    def copy_cost(self, nbytes: int) -> int:
        return int(self.copy_setup + self.copy_per_byte * nbytes)

    def support_cost(self, name: str) -> int:
        return self.support_costs.get(name, 200)
