"""Fault containment & automatic twin-driver recovery.

These tests drive the full quarantine -> degraded -> re-verify ->
reload state machine of :mod:`repro.core.recovery` through real traffic:
transient SVM faults injected mid-transmit, mid-receive and mid-upcall
are contained (the guest never sees an exception), traffic keeps
flowing on the degraded dom0 path, and the hypervisor instance comes
back after a bounded backoff. Crash loops open the circuit breaker.
"""

import pytest

from repro.core import (
    ParavirtNetDevice,
    RecoveryPolicy,
    SvmProtectionFault,
    TwinDriverManager,
)
from repro.drivers import RTL8139_SPEC
from repro.machine import Machine
from repro.osmodel import Kernel
from repro.xen import Hypervisor

GUEST_MAC = b"\x00\x16\x3e\xaa\x00\x01"


def make_twin(policy=None, upcall_routines=(), tracing=False,
              driver=None, model="e1000"):
    m = Machine()
    xen = Hypervisor(m)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
    guest = xen.create_domain("guest")
    kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
    twin = TwinDriverManager(xen, k0, recovery_policy=policy,
                             upcall_routines=upcall_routines, driver=driver)
    nic = m.add_nic(model=model)
    twin.attach_nic(nic)
    dev = ParavirtNetDevice(twin, kg, mac=GUEST_MAC)
    xen.switch_to(guest)
    if tracing:
        m.obs.enable_tracing()
    return m, xen, twin, dev, nic


def rx_frame(payload=b"\x00" * 700):
    return GUEST_MAC + b"\x00" * 6 + b"\x08\x00" + payload


class TestTransmitContainment:
    def test_transient_fault_mid_transmit_is_contained(self):
        # a huge backoff freezes the state machine in "degraded" so the
        # intermediate state is observable
        policy = RecoveryPolicy(backoff_initial=10_000)
        m, xen, twin, dev, nic = make_twin(policy=policy)
        for _ in range(5):
            assert dev.transmit(700)
        twin.svm.inject_fault()
        # the faulting packet is served on the degraded dom0 path: the
        # guest sees a successful transmit, not an exception
        assert dev.transmit(700)
        assert m.wire.tx_count == 6
        r = twin.recovery
        assert r.state == "degraded"
        snap = r.counters_snapshot()
        assert snap["abort"] == 1 and snap["quarantine"] == 1
        assert snap["degraded_tx"] == 1

    def test_reload_after_backoff_restores_fast_path(self):
        m, xen, twin, dev, nic = make_twin()
        for _ in range(5):
            assert dev.transmit(700)
        twin.svm.inject_fault()
        # degraded operations (the tx plus its completion interrupts)
        # count down the backoff; the default policy reloads within a
        # couple of packets
        assert dev.transmit(700)
        for _ in range(3):
            if not twin.recovery.degraded:
                break
            assert dev.transmit(700)
        r = twin.recovery
        assert r.state == "active"
        snap = r.counters_snapshot()
        assert snap["reload_attempt"] == 1
        assert snap["reload_success"] == 1 and snap["recovered"] == 1
        # traffic is back on the hypervisor instance
        before = twin.hyp_driver.invocations
        sent = m.wire.tx_count
        for _ in range(5):
            assert dev.transmit(700)
        assert twin.hyp_driver.invocations >= before + 5
        assert m.wire.tx_count == sent + 5

    def test_rtl8139_degraded_transmit_defers_its_own_interrupt(self):
        # the RTL8139 interrupts synchronously from the TSD write that
        # sends the frame: on the degraded path that interrupt must wait
        # for the dom0 transmit to return, not run the ISR inside it
        m, xen, twin, dev, nic = make_twin(driver=RTL8139_SPEC,
                                           model="rtl8139")
        for _ in range(3):
            assert dev.transmit(100)
        twin.svm.inject_fault()
        assert dev.transmit(100)
        for _ in range(3):
            assert dev.transmit(100)
        assert m.wire.tx_count == 7
        r = twin.recovery
        assert r.state == "active"
        assert r.counters_snapshot()["recovered"] == 1

    def test_degraded_payload_integrity(self):
        m, xen, twin, dev, nic = make_twin()
        m.wire.keep_payloads = True
        payload = bytes(range(256)) * 3
        twin.svm.inject_fault()
        assert dev.transmit(len(payload), payload=payload)
        frame = m.wire.transmitted[0]
        assert frame[6:12] == GUEST_MAC
        assert frame[14:] == payload


class TestReceiveContainment:
    def test_transient_fault_mid_receive_is_contained(self):
        m, xen, twin, dev, nic = make_twin()
        dev.keep_rx_payloads = True
        for _ in range(5):
            assert m.wire.inject(nic, rx_frame())
        assert dev.rx_packets == 5
        twin.svm.inject_fault()
        assert m.wire.inject(nic, rx_frame())   # contained: no exception
        snap = twin.recovery.counters_snapshot()
        assert snap["abort"] == 1 and snap["quarantine"] == 1
        assert snap["degraded_rx"] >= 1
        # keep the stream going on the degraded path and through recovery
        payload = b"post-recovery" * 40
        for _ in range(4):
            assert m.wire.inject(nic, rx_frame())
        assert m.wire.inject(nic, rx_frame(payload))
        assert twin.recovery.state == "active"
        # at worst the mid-fault frame is lost; everything else arrives,
        # demultiplexed to the guest by MAC on either path
        assert dev.rx_packets >= 10
        assert dev.rx_payloads[-1] == payload


class TestUpcallContainment:
    def test_fault_mid_upcall_is_contained(self):
        # spin_unlock_irqrestore served via upcall; dom0 masks virqs, so
        # the synchronous delivery blocks and the upcall aborts cleanly
        m, xen, twin, dev, nic = make_twin(
            upcall_routines={"spin_unlock_irqrestore"})
        for _ in range(3):
            assert dev.transmit(700)
        twin.dom0_kernel.domain.disable_virq()
        assert dev.transmit(700)        # contained, served degraded
        r = twin.recovery
        assert r.degraded or r.state == "active"
        assert twin.upcalls.in_flight == 0
        from repro.core import UpcallAborted
        cause = r.last_cause
        from repro.core import DriverAborted
        if isinstance(cause, DriverAborted):
            cause = cause.cause
        assert isinstance(cause, UpcallAborted)
        # quarantine re-enabled dom0 virqs: the system fully recovers
        while r.degraded and not r.broken:
            assert dev.transmit(700)
        assert r.state == "active"
        assert dev.transmit(700)


class TestCrashLoopBreaker:
    def test_breaker_opens_and_traffic_survives(self):
        policy = RecoveryPolicy(backoff_initial=1, breaker_threshold=3,
                                max_reload_attempts=50,
                                stable_invocations=1000)
        m, xen, twin, dev, nic = make_twin(policy=policy)
        for _ in range(3):
            assert dev.transmit(700)
        sent = 3
        for _ in range(100):
            if twin.recovery.broken:
                break
            if twin.recovery.state == "active":
                twin.svm.inject_fault()
            assert dev.transmit(700)
            sent += 1
        r = twin.recovery
        assert r.broken
        snap = r.counters_snapshot()
        assert snap["breaker_open"] == 1
        # every relapse counted; no reloads after the breaker opened
        reloads = snap["reload_attempt"]
        for _ in range(10):
            assert dev.transmit(700)
            sent += 1
        assert r.counters_snapshot()["reload_attempt"] == reloads
        assert m.wire.tx_count == sent

    def test_max_reload_attempts_opens_breaker(self):
        # reloads that keep failing verification exhaust the attempt
        # budget even without fast relapses
        policy = RecoveryPolicy(backoff_initial=1, breaker_threshold=100,
                                max_reload_attempts=2,
                                stable_invocations=0)
        m, xen, twin, dev, nic = make_twin(policy=policy)
        assert dev.transmit(700)

        def failing_reload(verify_report=None):
            raise RuntimeError("simulated load failure")

        twin.reload_hyp_driver = failing_reload
        twin.svm.inject_fault()
        for _ in range(20):
            if twin.recovery.broken:
                break
            assert dev.transmit(700)
        r = twin.recovery
        assert r.broken
        snap = r.counters_snapshot()
        assert snap["reload_attempt"] == 2
        assert snap["reload_failure"] == 2


class TestNoStaleState:
    def test_quarantine_leaves_no_translation_reachable(self):
        policy = RecoveryPolicy(backoff_initial=10_000)   # stay degraded
        m, xen, twin, dev, nic = make_twin(policy=policy)
        for _ in range(5):
            assert dev.transmit(700)
        assert twin.svm.chains and twin.svm.mappings
        pages = list(twin.svm.chains)
        twin.svm.inject_fault()
        assert dev.transmit(700)
        assert twin.recovery.degraded
        # no chain, mapping or table entry survives the quarantine
        assert twin.svm.chains == {} and twin.svm.mappings == {}
        for page in pages:
            assert twin.svm.lookup_fast(page) is None

    def test_retranslation_reruns_permission_check(self):
        policy = RecoveryPolicy(backoff_initial=10_000)
        m, xen, twin, dev, nic = make_twin(policy=policy)
        for _ in range(5):
            assert dev.transmit(700)
        page = next(iter(twin.svm.chains))
        twin.svm.inject_fault()
        assert dev.transmit(700)
        checked = []
        orig = twin.svm._check_permitted
        twin.svm._check_permitted = \
            lambda p: (checked.append(p), orig(p))[1]
        twin.svm.translate(page)
        assert checked == [page]

    def test_upcall_frames_and_locks_cleaned(self):
        m, xen, twin, dev, nic = make_twin(
            upcall_routines={"spin_unlock_irqrestore"})
        for _ in range(3):
            assert dev.transmit(700)
        twin.dom0_kernel.domain.disable_virq()
        assert dev.transmit(700)
        # the abort happened between spin_trylock and the (upcalled)
        # unlock: quarantine force-released the lock and re-enabled virqs
        assert twin.hyp_support.held_locks == set()
        assert twin.dom0_kernel.domain.virq_enabled
        assert twin.hyp_support.pool.outstanding == set()


class TestObservability:
    def test_flight_recorder_and_span(self):
        m, xen, twin, dev, nic = make_twin(tracing=True)
        for _ in range(3):
            assert dev.transmit(700)
        twin.svm.inject_fault()
        assert dev.transmit(700)
        r = twin.recovery
        assert len(r.flight_records) == 1
        assert r.flight_records[0]            # trace tail captured
        spans = m.obs.tracer.spans("recovery")
        assert len(spans) == 1
        assert spans[0].args["cause"] == "SvmProtectionFault"
        # the quarantine event is correlated with the recovery span
        quarantines = [ev for ev in m.obs.tracer.events()
                       if ev.kind == "recovery.quarantine"]
        assert quarantines and quarantines[0].span == spans[0].id
        assert isinstance(r.last_cause, SvmProtectionFault)

    def test_registry_counters_visible(self):
        m, xen, twin, dev, nic = make_twin()
        twin.svm.inject_fault()
        assert dev.transmit(700)
        dump = {c.name: c.value
                for c in m.obs.registry.counters("recovery.")}
        assert dump["recovery.abort"] == 1
        assert dump["recovery.quarantine"] == 1
        assert dump["recovery.degraded_tx"] == 1


class TestPostRecoveryThroughput:
    def measure(self, m, dev, n=60):
        snap = m.account.snapshot()
        for _ in range(n):
            assert dev.transmit(1000)
        return sum(m.account.delta_since(snap).values()) / n

    def test_within_five_percent_of_clean(self):
        m_clean, _, _, dev_clean, _ = make_twin()
        for _ in range(10):
            assert dev_clean.transmit(1000)
        clean = self.measure(m_clean, dev_clean)

        m, xen, twin, dev, nic = make_twin()
        for _ in range(10):
            assert dev.transmit(1000)
        twin.svm.inject_fault()
        assert dev.transmit(1000)
        while twin.recovery.degraded:
            assert dev.transmit(1000)
        for _ in range(10):                    # re-warm the stlb
            assert dev.transmit(1000)
        recovered = self.measure(m, dev)
        assert recovered == pytest.approx(clean, rel=0.05)


class TestNetperfAcceptance:
    def test_injected_fault_during_netperf_stream(self):
        # the ISSUE acceptance bar: an SvmProtectionFault injected in the
        # middle of a netperf-style transmit stream no longer terminates
        # the simulation — the stream completes and the twin recovers
        from repro.configs import build
        system = build("domU-twin", n_nics=1)
        assert system.transmit_packets(20) == 20
        system.twin.svm.inject_fault()
        assert system.transmit_packets(40) == 40
        assert system.twin.recovery.state == "active"
        snap = system.twin.recovery.counters_snapshot()
        assert snap["recovered"] == 1
        assert system.packets_on_wire == 60
