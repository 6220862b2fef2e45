"""Planned handover: the request->drain->freeze->swap->replay->resume
state machine (DESIGN.md §14).

Drives :class:`repro.core.handover.HandoverManager` through binary swaps
and queue re-homings with traffic in every awkward place — queued rx,
parked masked-virq batches, tx frames arriving mid-window, interrupts
latched behind masked NIC lines — and asserts the zero-loss contract:
every packet is delivered (and accounted) exactly once, the pool stays
balanced, and a handover of a quarantined instance falls back to the
existing recovery path instead of pretending to drain a dead fast path.
"""

import pytest

from repro.configs import build
from repro.core import (
    HandoverManager,
    HandoverVetoed,
    ParavirtNetDevice,
    RecoveryPolicy,
    TwinDriverManager,
)
from repro.core.handover import HandoverError
from repro.drivers import RTL8139_SPEC
from repro.machine import Machine
from repro.osmodel import Kernel
from repro.osmodel.skbuff import SkBuff
from repro.xen import Hypervisor

GUEST_MAC = b"\x00\x16\x3e\xaa\x00\x01"


def make_twin(policy=None, vcpus=1, num_queues=1, model="e1000", **kwargs):
    m = Machine()
    xen = Hypervisor(m, vcpus=vcpus)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
    guest = xen.create_domain("guest")
    kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
    twin = TwinDriverManager(xen, k0, recovery_policy=policy,
                             num_queues=num_queues, **kwargs)
    nic = m.add_nic(model=model, num_queues=num_queues)
    twin.attach_nic(nic)
    dev = ParavirtNetDevice(twin, kg, mac=GUEST_MAC)
    xen.switch_to(guest)
    return m, xen, twin, dev, nic


def rx_frame(mac=GUEST_MAC, payload=b"\x00" * 700):
    return mac + b"\x00" * 6 + b"\x08\x00" + payload


class TestSwapBinary:
    def test_swap_is_zero_loss_and_bumps_the_epoch_twice(self):
        m, xen, twin, dev, nic = make_twin()
        mgr = HandoverManager(twin)
        for _ in range(10):
            assert m.wire.inject(nic, rx_frame())
            assert dev.transmit(700)
        report = mgr.swap_binary()
        assert report.ok and report.kind == "swap"
        assert report.phases == ["request", "drain", "freeze", "swap",
                                 "replay", "resume"]
        # unregister + register each bump the CodeRegistry epoch, so a
        # running loop looks the program up again
        assert report.epoch_after >= report.epoch_before + 2
        assert mgr.state == "idle"
        # the new instance carries traffic
        for _ in range(10):
            assert m.wire.inject(nic, rx_frame())
            assert dev.transmit(700)
        assert dev.rx_packets == 20
        assert m.wire.tx_count == 20
        assert twin.hyp_support.pool.balanced

    def test_swap_under_smp_multiqueue(self):
        m, xen, twin, dev, nic = make_twin(vcpus=2, num_queues=2)
        mgr = HandoverManager(twin)
        for _ in range(8):
            assert m.wire.inject(nic, rx_frame())
        report = mgr.swap_binary()
        assert report.ok
        for _ in range(8):
            assert m.wire.inject(nic, rx_frame())
            assert dev.transmit(700)
        assert dev.rx_packets == 16 and m.wire.tx_count == 8

    def test_traffic_arriving_mid_window_is_not_dropped(self):
        m, xen, twin, dev, nic = make_twin()
        mgr = HandoverManager(twin)

        def mid_window():
            # rx lands while the line is masked: the cause latches in
            # ICR and fires at unmask
            assert m.wire.inject(nic, rx_frame())
            nic.flush_interrupts()
            # tx lands while frozen: byte-snapshotted and replayed
            assert dev.transmit(700)

        report = mgr.swap_binary(mid_window_hook=mid_window)
        assert report.ok
        assert report.replayed_tx == 1
        assert dev.rx_packets == 1
        assert m.wire.tx_count == 1
        assert twin.held == []
        # the masked-for wait was observed into the blip histogram
        assert m.obs.registry.histogram(
            "health.virq_defer_cycles").count >= 1

    def test_parked_masked_virq_batch_survives_the_swap(self):
        m, xen, twin, dev, nic = make_twin()
        mgr = HandoverManager(twin)
        dev.kernel.domain.virq_enabled = False
        for _ in range(4):
            assert m.wire.inject(nic, rx_frame())
        assert twin.rx_backlog == 4
        report = mgr.swap_binary()
        assert report.ok
        assert report.carried_parked == 4
        assert twin.rx_backlog == 4          # still parked, still owed
        vc = m.obs.registry.counter("xen.virq_coalesced")
        before = vc.value
        dev.kernel.domain.enable_virq()
        # delivered exactly once, under ONE coalesced virq
        assert dev.rx_packets == 4
        assert vc.value == before + 1
        assert twin.rx_backlog == 0
        assert twin.hyp_support.pool.balanced

    def test_rtl8139_swap_under_traffic_is_exactly_once(self):
        # the RTL8139 model masks its line and reports its pending
        # causes through the same interface as the e1000
        m, xen, twin, dev, nic = make_twin(driver=RTL8139_SPEC,
                                           model="rtl8139")
        m.wire.keep_payloads = True
        dev.keep_rx_payloads = True
        mgr = HandoverManager(twin)
        sent, received = [], []

        def traffic(tag):
            rx = f"rx-{tag}".encode().ljust(200, b".")
            tx = f"tx-{tag}".encode().ljust(200, b".")
            received.append(rx)
            sent.append(tx)
            assert m.wire.inject(nic, rx_frame(payload=rx))
            assert dev.transmit(len(tx), payload=tx)

        for i in range(6):
            traffic(i)
        # mid-window traffic: rx latches behind the masked line, tx is
        # held by the frozen twin; both must come out exactly once
        report = mgr.swap_binary(mid_window_hook=lambda: traffic("mid"))
        assert report.ok and mgr.state == "idle"
        for i in range(6, 12):
            traffic(i)
        assert dev.rx_payloads == received
        assert [frame[14:] for frame in m.wire.transmitted] == sent
        assert twin.held == [] and not nic.line_masked
        assert twin.hyp_support.pool.balanced

    def test_frozen_twin_defers_everything(self):
        m, xen, twin, dev, nic = make_twin()
        twin.frozen = True
        assert dev.transmit(700)
        assert m.wire.tx_count == 0 and [e.kind for e in twin.held] == ["tx"]
        assert m.wire.inject(nic, rx_frame())
        assert dev.rx_packets == 0 and [e.kind for e in twin.held] == [
            "tx", "irq"]
        twin.frozen = False
        twin.retry_deferred_interrupts()
        assert twin.replay_frozen_tx() == [True]
        assert dev.rx_packets == 1 and m.wire.tx_count == 1

    def test_replay_refuses_while_frozen(self):
        m, xen, twin, dev, nic = make_twin()
        twin.frozen = True
        with pytest.raises(RuntimeError):
            twin.replay_frozen_tx()

    def test_reentrant_handover_is_rejected(self):
        m, xen, twin, dev, nic = make_twin()
        mgr = HandoverManager(twin)

        def reenter():
            with pytest.raises(HandoverError):
                mgr.swap_binary()

        assert mgr.swap_binary(mid_window_hook=reenter).ok

    def test_failed_verification_vetoes_before_any_disruption(self,
                                                              monkeypatch):
        m, xen, twin, dev, nic = make_twin()
        mgr = HandoverManager(twin)
        old_driver = twin.hyp_driver

        class BadReport:
            ok = False

        import repro.analysis.verifier as verifier
        monkeypatch.setattr(verifier, "verify_program",
                            lambda *a, **k: BadReport())
        with pytest.raises(HandoverVetoed):
            mgr.swap_binary()
        # the old instance was never disturbed
        assert twin.hyp_driver is old_driver
        assert not twin.frozen and not nic.line_masked
        assert mgr.state == "idle"
        assert m.obs.registry.counter("handover.veto").value == 1
        assert dev.transmit(700) and m.wire.tx_count == 1


class TestFallbackToRecovery:
    def test_swap_of_degraded_instance_falls_back_to_reload(self):
        m, xen, twin, dev, nic = make_twin(
            policy=RecoveryPolicy(backoff_initial=10_000))
        mgr = HandoverManager(twin)
        twin.svm.inject_fault()
        assert dev.transmit(700)             # contained -> degraded
        assert twin.recovery.state == "degraded"
        report = mgr.swap_binary()
        assert report.fallback == "recovery"
        assert report.ok                     # the reload succeeded
        assert twin.recovery.state == "active"
        assert m.obs.registry.counter("handover.fallback").value == 1
        assert dev.transmit(700)

    def test_swap_of_broken_instance_reports_failure(self):
        policy = RecoveryPolicy(backoff_initial=1, breaker_threshold=1,
                                max_reload_attempts=1)
        m, xen, twin, dev, nic = make_twin(policy=policy)
        twin.svm.inject_fault(count=50)      # every reload relapses
        for _ in range(8):
            dev.transmit(700)
            if twin.recovery.broken:
                break
        assert twin.recovery.broken
        mgr = HandoverManager(twin)
        report = mgr.swap_binary()
        assert report.fallback == "recovery" and not report.ok


class TestRehome:
    def make_pair(self, **kwargs):
        sut = build("handover-pair", **kwargs)
        return (sut, sut.twin, sut.extras["secondary"],
                sut.extras["devices"], sut.nics[0],
                sut.extras["secondary_nics"][0], sut.extras["handover"])

    def inject(self, m, nic, dev, n=1):
        for _ in range(n):
            assert m.wire.inject(nic, rx_frame(mac=dev.mac))
        nic.flush_interrupts()

    def test_rehome_moves_queue_state_and_traffic(self):
        sut, twin, sec, devices, pnic, snic, mgr = self.make_pair(
            n_guests=2)
        m = sut.machine
        self.inject(m, pnic, devices[0], 6)
        self.inject(m, pnic, devices[1], 6)
        report = mgr.rehome_guest(devices[0], sec)
        assert report.ok and report.kind == "rehome"
        assert devices[0].twin is sec
        assert devices[0] in sec.guest_devices
        assert devices[0] not in twin.guest_devices
        assert devices[0].mac not in twin.guests_by_mac
        # post-rehome traffic flows through the second instance's NIC
        self.inject(m, snic, devices[0], 6)
        self.inject(m, pnic, devices[1], 6)
        assert devices[0].rx_packets == 12
        assert devices[1].rx_packets == 12
        # and the moved guest transmits through the second instance
        before = sec.hyp_driver.invocations
        assert devices[0].transmit(700)
        assert sec.hyp_driver.invocations > before

    def test_rehome_carries_parked_batches_exactly_once(self):
        sut, twin, sec, devices, pnic, snic, mgr = self.make_pair(
            n_guests=1)
        m = sut.machine
        devices[0].kernel.domain.virq_enabled = False
        self.inject(m, pnic, devices[0], 5)
        assert twin.rx_backlog == 5
        report = mgr.rehome_guest(devices[0], sec)
        assert report.carried_parked == 5
        assert twin.rx_backlog == 0 and sec.rx_backlog == 5
        vc = m.obs.registry.counter("xen.virq_coalesced")
        before = vc.value
        devices[0].kernel.domain.enable_virq()
        assert devices[0].rx_packets == 5
        assert vc.value == before + 1
        assert twin.hyp_support.pool.balanced
        assert sec.hyp_support.pool.balanced

    def test_tx_admitted_mid_rehome_replays_through_the_target(self):
        sut, twin, sec, devices, pnic, snic, mgr = self.make_pair(
            n_guests=1)
        m = sut.machine
        # a transmit admitted while the source is frozen is parked there
        # but must replay through the twin that owns the device AFTER
        # the move — the rehome's replay phase routes via ``dev.twin``
        twin.frozen = True
        assert devices[0].transmit(700)
        assert [e.kind for e in twin.held] == ["tx"]
        twin.frozen = False
        before = sec.hyp_driver.invocations
        report = mgr.rehome_guest(devices[0], sec)
        assert report.replayed_tx == 1
        assert twin.held == []
        assert sec.hyp_driver.invocations > before
        assert m.wire.tx_count == 1

    def test_rehome_is_refused_while_dom0_holds_interrupts(self):
        """Bugfix: a re-home while dom0 held NIC interrupts moved the
        guest away from frames still in the source ring; they demuxed
        to no guest and were dropped."""
        sut, twin, sec, devices, pnic, snic, mgr = self.make_pair(
            n_guests=1)
        m = sut.machine
        dom0 = sut.dom0_kernel.domain
        dom0.disable_virq()
        self.inject(m, pnic, devices[0], 2)
        assert devices[0].rx_packets == 0
        old_driver = twin.hyp_driver
        with pytest.raises(HandoverError):
            mgr.rehome_guest(devices[0], sec)
        # refused in the request phase: the old instance is untouched
        assert devices[0].twin is twin and devices[0] in twin.guest_devices
        assert twin.hyp_driver is old_driver
        assert not twin.frozen and not pnic.line_masked
        assert mgr.state == "idle"
        # the held frames are delivered once dom0 unmasks
        dom0.enable_virq()
        assert devices[0].rx_packets == 2
        assert twin.rx_dropped_no_guest == 0
        # and a retried re-home goes through
        assert mgr.rehome_guest(devices[0], sec).ok
        self.inject(m, snic, devices[0], 2)
        assert devices[0].rx_packets == 4
        assert twin.hyp_support.pool.balanced
        assert sec.hyp_support.pool.balanced

    def test_rehome_to_self_or_niclless_target_is_rejected(self):
        sut, twin, sec, devices, pnic, snic, mgr = self.make_pair(
            n_guests=1)
        with pytest.raises(HandoverError):
            mgr.rehome_guest(devices[0], twin)

    def test_rehome_evacuates_a_degraded_source(self):
        sut, twin, sec, devices, pnic, snic, mgr = self.make_pair(
            n_guests=1)
        m = sut.machine
        twin.recovery.policy.backoff_initial = 10_000  # stay degraded
        # park a batch, then crash the source: the quarantine carries
        # the packets to payload form
        devices[0].kernel.domain.virq_enabled = False
        self.inject(m, pnic, devices[0], 3)
        twin.svm.inject_fault()
        assert devices[0].transmit(700)      # contained -> degraded
        assert twin.recovery.degraded
        assert twin.rx_backlog == 3          # carried as payloads
        report = mgr.rehome_guest(devices[0], sec)
        assert report.ok and report.carried_parked == 3
        devices[0].kernel.domain.enable_virq()
        assert devices[0].rx_packets == 3
        # the evacuated guest is fully served by the healthy instance
        self.inject(m, snic, devices[0], 4)
        assert devices[0].rx_packets == 7
        assert sec.hyp_support.pool.balanced


class TestQuarantineCarriesParkedBatches:
    """Bugfix: rx batches parked for a virq-masked guest used to be
    dropped by ``drop_rx_backlog`` when the twin was quarantined before
    the unmask hook fired."""

    def test_parked_batch_survives_quarantine_and_reload(self):
        m, xen, twin, dev, nic = make_twin(
            policy=RecoveryPolicy(backoff_initial=10_000))
        dev.kernel.domain.virq_enabled = False
        # coalesce the four receives into one interrupt so they park as
        # ONE batch (one replay delivery, one coalesced virq)
        nic.interrupt_batch = 8
        for _ in range(4):
            assert m.wire.inject(nic, rx_frame())
        nic.flush_interrupts()
        assert twin.rx_backlog == 4
        twin.svm.inject_fault()
        assert dev.transmit(700)             # quarantine fires here
        assert twin.recovery.state == "degraded"
        snap = twin.recovery.counters_snapshot()
        assert snap["parked_carried"] == 4
        assert twin.rx_backlog == 4          # payload form, still owed
        vc = m.obs.registry.counter("xen.virq_coalesced")
        before = vc.value
        dev.kernel.domain.enable_virq()
        # each packet accounted exactly once: one batch, one virq
        assert dev.rx_packets == 4
        assert vc.value == before + 1
        assert twin.rx_backlog == 0
        assert twin.hyp_support.pool.balanced

    def test_broadcast_parked_batches_release_the_shared_skb_once(self):
        m = Machine()
        xen = Hypervisor(m)
        dom0 = xen.create_domain("dom0", is_dom0=True)
        k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
        twin = TwinDriverManager(
            xen, k0, recovery_policy=RecoveryPolicy(backoff_initial=10_000))
        nic = m.add_nic()
        twin.attach_nic(nic)
        devs = []
        for i in range(3):
            guest = xen.create_domain(f"guest{i}")
            kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
            dev = ParavirtNetDevice(twin, kg,
                                    mac=GUEST_MAC[:-1] + bytes([i + 1]))
            dev.kernel.domain.virq_enabled = False
            devs.append(dev)
        xen.switch_to(devs[0].kernel.domain)
        bcast = b"\xff" * 6 + b"\x00" * 6 + b"\x08\x00" + bytes(500)
        assert m.wire.inject(nic, bcast)
        # one skb, three parked batches referencing it
        assert twin.rx_backlog == 3
        twin.svm.inject_fault()
        devs[0].transmit(700)
        assert twin.recovery.state == "degraded"
        pool = twin.hyp_support.pool
        assert pool.balanced
        for dev in devs:
            dev.kernel.domain.enable_virq()
            assert dev.rx_packets == 1
        assert twin.rx_backlog == 0


class TestDemuxRxPoolBalance:
    """Bugfix: ``recovery._demux_rx`` leaked pool skbs whose refcount was
    left stale by a broadcast batch interrupted mid-drain."""

    def _pool_skb(self, twin, dst_mac, payload=b"\x55" * 300, refcnt=1):
        mem = twin.dom0_kernel.memory_view()
        pool = twin.hyp_support.pool
        skb_addr = pool.acquire()
        assert skb_addr is not None
        skb = SkBuff(mem, skb_addr)
        frame = dst_mac + b"\x00" * 6 + b"\x08\x00" + payload
        head = skb.head
        mem.write_bytes(head, frame)
        # post-eth_type_trans shape: data past the pulled header
        skb.data = head + 14
        skb.tail = head + len(frame)
        skb.len = len(payload)
        skb.nr_frags = 0
        skb.refcnt = refcnt
        return skb_addr

    def test_unicast_with_stale_refcnt_returns_to_pool(self):
        m, xen, twin, dev, nic = make_twin()
        pool = twin.hyp_support.pool
        # refcnt 3: two deliveries that will never happen (their queues
        # were wiped at quarantine)
        skb_addr = self._pool_skb(twin, GUEST_MAC, refcnt=3)
        assert pool.outstanding == {skb_addr}
        twin.recovery._demux_rx(skb_addr)
        assert dev.rx_packets == 1
        # without the stale-refcnt reset the free is a mere decrement
        # and the buffer stays outstanding forever
        assert not pool.outstanding and pool.balanced

    def test_broadcast_with_stale_refcnt_returns_to_pool(self):
        m, xen, twin, dev, nic = make_twin()
        pool = twin.hyp_support.pool
        skb_addr = self._pool_skb(twin, b"\xff" * 6, refcnt=4)
        twin.recovery._demux_rx(skb_addr)
        assert dev.rx_packets == 1           # every guest got a copy
        assert not pool.outstanding and pool.balanced

    def test_unknown_unicast_pool_skb_returns_to_pool(self):
        m, xen, twin, dev, nic = make_twin()
        pool = twin.hyp_support.pool
        skb_addr = self._pool_skb(twin, b"\x00\x99" * 3, refcnt=2)
        twin.recovery._demux_rx(skb_addr)
        assert dev.rx_packets == 0           # dom0's own stack took it
        assert not pool.outstanding and pool.balanced


class TestDegradedTransmitLeak:
    """Bugfix: a dom0 xmit failure mid-``degraded_transmit`` leaked the
    staged dom0 skb."""

    def test_failed_dom0_xmit_frees_the_staged_skb(self, monkeypatch):
        m, xen, twin, dev, nic = make_twin(
            policy=RecoveryPolicy(backoff_initial=10_000))
        twin.svm.inject_fault()
        assert dev.transmit(700)             # now degraded
        kernel = twin.dom0_kernel
        baseline = kernel.heap.allocated_bytes

        def boom(skb, ndev):
            raise RuntimeError("ring wedged")

        monkeypatch.setattr(kernel, "transmit_skb", boom)
        with pytest.raises(RuntimeError):
            twin.recovery.degraded_transmit(dev, dev._tx_buf, 700)
        # the staged skb (struct + buffer) went back to the heap
        assert kernel.heap.allocated_bytes == baseline
