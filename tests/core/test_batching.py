"""Batched tx/rx fast path with interrupt coalescing (DESIGN.md §9).

Receive: packets are delivered in per-guest batches under ONE coalesced
virtual interrupt per guest per flush (NAPI-style ``RX_BATCH_BUDGET``,
leftovers continued by softirq). Demux: broadcast/multicast frames reach
every guest, unknown unicast is dropped and counted. Transmit:
``transmit_batch`` pushes a burst through one hypercall and one resolved
driver entry; a mid-burst fault falls back per-packet to the degraded
path. The staged tx skb never leaks when the driver invocation faults.
"""

import pytest

import repro.core.twin as twin_mod
from repro.core import (
    DriverAborted,
    ParavirtNetDevice,
    SvmProtectionFault,
    TwinDriverManager,
)
from repro.machine import Machine
from repro.osmodel import Kernel
from repro.xen import Hypervisor

BROADCAST = b"\xff" * 6
UNKNOWN_UNICAST = b"\x0a\x22\x33\x44\x55\x66"


def make_env(n_guests=1, recovery=True):
    m = Machine()
    xen = Hypervisor(m)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
    twin = TwinDriverManager(xen, k0, pool_size=512, recovery=recovery)
    nic = m.add_nic()
    twin.attach_nic(nic)
    devices = []
    for g in range(n_guests):
        guest = xen.create_domain(f"guest{g}")
        kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
        dev = ParavirtNetDevice(
            twin, kg, mac=b"\x00\x16\x3e\xaa\x02" + bytes([g + 1]))
        dev.keep_rx_payloads = True
        devices.append(dev)
    xen.switch_to(devices[0].kernel.domain)
    return m, xen, twin, devices, nic


def frame(dst_mac, payload):
    return bytes(dst_mac) + b"\x00" * 6 + b"\x08\x00" + payload


class TestDemux:
    def test_unicast_reaches_each_owning_guest(self):
        m, xen, twin, devices, nic = make_env(n_guests=3)
        for i, dev in enumerate(devices):
            assert m.wire.inject(nic, frame(dev.mac, bytes([i]) * 200))
        for i, dev in enumerate(devices):
            assert dev.rx_packets == 1
            assert dev.rx_payloads == [bytes([i]) * 200]

    def test_broadcast_reaches_every_guest(self):
        m, xen, twin, devices, nic = make_env(n_guests=3)
        assert m.wire.inject(nic, frame(BROADCAST, b"\x42" * 300))
        for dev in devices:
            assert dev.rx_packets == 1
            assert dev.rx_payloads == [b"\x42" * 300]
        assert twin.rx_dropped_no_guest == 0

    @staticmethod
    def saturate_ring(m, nic, mac, n=80):
        """Receive until the rx ring is fully pool-backed, so further
        receives no longer grow ``pool.outstanding`` (each refill is
        matched by a free)."""
        for _ in range(n):
            assert m.wire.inject(nic, frame(mac, bytes(64)))

    def test_broadcast_skb_returns_to_pool(self):
        m, xen, twin, devices, nic = make_env(n_guests=3)
        self.saturate_ring(m, nic, devices[0].mac)
        baseline = len(twin.hyp_support.pool.outstanding)
        # the multi-delivered skb must be freed exactly once, after the
        # last of the three references drops
        assert m.wire.inject(nic, frame(BROADCAST, b"\x42" * 300))
        assert len(twin.hyp_support.pool.outstanding) == baseline

    def test_unknown_unicast_dropped_and_counted(self):
        m, xen, twin, devices, nic = make_env(n_guests=2)
        self.saturate_ring(m, nic, devices[0].mac)
        baseline = len(twin.hyp_support.pool.outstanding)
        rx_before = devices[0].rx_packets
        assert m.wire.inject(nic, frame(UNKNOWN_UNICAST, bytes(200)))
        assert devices[0].rx_packets == rx_before
        assert devices[1].rx_packets == 0
        assert twin.rx_dropped_no_guest == 1
        # the dropped frame's skb was freed, not leaked
        assert len(twin.hyp_support.pool.outstanding) == baseline


class TestRxCoalescing:
    def test_one_virq_per_guest_per_flush(self):
        m, xen, twin, (dev,), nic = make_env()
        nic.interrupt_batch = 8
        for i in range(8):
            assert m.wire.inject(nic, frame(dev.mac, bytes([i]) * 100))
        nic.flush_interrupts()
        assert dev.rx_packets == 8
        # one coalesced interrupt covered the whole batch
        assert dev.rx_interrupts == 1
        coalesced = m.obs.registry.counter("xen.virq_coalesced").value
        assert coalesced == 1
        assert coalesced < dev.rx_packets

    def test_batched_rx_preserves_order_across_guests(self):
        m, xen, twin, devices, nic = make_env(n_guests=2)
        a, b = devices
        nic.interrupt_batch = 6
        sequence = [(a, 0), (b, 1), (a, 2), (b, 3), (a, 4), (b, 5)]
        for dev, tag in sequence:
            assert m.wire.inject(nic, frame(dev.mac, bytes([tag]) * 64))
        nic.flush_interrupts()
        assert a.rx_payloads == [bytes([t]) * 64 for t in (0, 2, 4)]
        assert b.rx_payloads == [bytes([t]) * 64 for t in (1, 3, 5)]
        # each guest took exactly one coalesced interrupt for its batch
        assert a.rx_interrupts == 1 and b.rx_interrupts == 1

    def test_budget_requeues_and_softirq_continues(self, monkeypatch):
        monkeypatch.setattr(twin_mod, "RX_BATCH_BUDGET", 2)
        m, xen, twin, (dev,), nic = make_env()
        nic.interrupt_batch = 5
        for i in range(5):
            assert m.wire.inject(nic, frame(dev.mac, bytes([i]) * 80))
        nic.flush_interrupts()
        # all packets arrive despite the per-flush budget, in order,
        # split into ceil(5/2) = 3 coalesced interrupts
        assert dev.rx_payloads == [bytes([i]) * 80 for i in range(5)]
        assert dev.rx_interrupts == 3
        assert not twin.queues[0].rx

    def test_batch_size_histogram_recorded(self):
        m, xen, twin, (dev,), nic = make_env()
        nic.interrupt_batch = 4
        for i in range(4):
            assert m.wire.inject(nic, frame(dev.mac, bytes(90)))
        nic.flush_interrupts()
        h = m.obs.registry.histogram("twin.rx_batch_size")
        assert h.count == 1 and h.total == 4


class TestTxBatch:
    def test_batch_hits_wire_with_one_hypercall(self):
        m, xen, twin, (dev,), nic = make_env()
        m.wire.keep_payloads = True
        before = xen.hypercalls
        results = dev.transmit_batch([300, 400, 500])
        assert results == [True, True, True]
        assert m.wire.tx_count == 3
        assert dev.tx_packets == 3
        assert xen.hypercalls == before + 1
        assert sorted(len(p) for p in m.wire.transmitted) == [314, 414, 514]
        h = m.obs.registry.histogram("twin.tx_batch_size")
        assert h.count == 1 and h.total == 3

    def test_empty_batch_is_noop(self):
        m, xen, twin, (dev,), nic = make_env()
        assert dev.transmit_batch([]) == []
        assert m.wire.tx_count == 0

    def test_batch_cap_enforced(self):
        m, xen, twin, (dev,), nic = make_env()
        assert all(dev.transmit_batch([100] * twin_mod.TX_BATCH_MAX))
        with pytest.raises(ValueError):
            dev.transmit_batch([100] * (twin_mod.TX_BATCH_MAX + 1))

    def test_fault_mid_batch_falls_back_per_packet(self):
        m, xen, twin, (dev,), nic = make_env()
        assert dev.transmit(300)
        twin.svm.inject_fault()
        # the faulting frame and the rest of the burst are served on the
        # degraded dom0 path: the guest sees three successes
        results = dev.transmit_batch([300, 300, 300])
        assert results == [True, True, True]
        assert m.wire.tx_count == 4
        assert twin.recovery.degraded or twin.recovery.state == "active"
        assert twin.recovery.counters_snapshot()["abort"] == 1


class TestTxSkbLeak:
    def test_faulting_transmit_does_not_leak_pool_skb(self):
        # recovery off: the §4.5 abort propagates, but the staged skb
        # must be back in the pool, not outstanding forever
        m, xen, twin, (dev,), nic = make_env(recovery=False)
        assert dev.transmit(300)
        outstanding = len(twin.hyp_support.pool.outstanding)
        twin.svm.inject_fault()
        with pytest.raises((DriverAborted, SvmProtectionFault)):
            dev.transmit(300)
        assert len(twin.hyp_support.pool.outstanding) == outstanding
