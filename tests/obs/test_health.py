"""Health watchdog: probes, flight-recorder emission, armed recovery.

A :class:`HealthMonitor` probed over a healthy run reports ``ok``;
synthetic fault states (stalled rx queue, open recovery breaker, leaked
span, deferred-virq latency) surface as findings with the right
severity, land in the recovery flight recorder, and — when armed — feed
``recovery.handle_abort`` so a wedged instance is quarantined like a
contained fault.
"""

from repro.core import ParavirtNetDevice, TwinDriverManager
from repro.machine import Machine
from repro.obs.health import (
    HEALTH_SCHEMA,
    SEV_CRITICAL,
    SEV_WARNING,
    VIRQ_DEFER_HISTOGRAM,
    HealthMonitor,
)
from repro.osmodel import Kernel
from repro.xen import Hypervisor

GUEST_MAC = b"\x00\x16\x3e\xaa\x00\x01"


def make_twin(**kwargs):
    m = Machine()
    xen = Hypervisor(m)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
    guest = xen.create_domain("guest")
    kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
    twin = TwinDriverManager(xen, k0, **kwargs)
    nic = m.add_nic()
    twin.attach_nic(nic)
    dev = ParavirtNetDevice(twin, kg, mac=GUEST_MAC)
    xen.switch_to(guest)
    return m, xen, twin, dev, nic


def frame(n=600):
    return GUEST_MAC + b"\x00" * 6 + b"\x08\x00" + bytes(n)


class TestHealthyRun:
    def test_probes_stay_ok_and_report_rolls_up(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        for _ in range(3):
            for _ in range(8):
                assert dev.transmit(700)
                assert m.wire.inject(nic, frame())
            snap = monitor.probe()
            assert snap["ok"]
            assert snap["findings"] == []
        doc = monitor.report()
        assert doc["schema"] == HEALTH_SCHEMA
        assert doc["probes"] == 3 and doc["findings"] == 0 and doc["ok"]
        assert doc["worst_severity"] is None

    def test_healthy_probes_do_not_touch_the_flight_recorder(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        dev.transmit(500)
        monitor.probe()
        assert twin.recovery.flight_records == []


class TestProbes:
    def test_stalled_rx_is_critical(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        monitor.probe()                       # baseline counters
        # synthetically wedge the rx queue: packets queued, no virq moves
        twin.queues[0].rx.append((dev, 0))
        snap = monitor.probe()
        assert not snap["ok"]
        assert [f["probe"] for f in snap["findings"]] == ["stalled_rx"]
        assert snap["findings"][0]["severity"] == SEV_CRITICAL

    def test_rx_queue_draining_is_not_a_stall(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        monitor.probe()
        twin.queues[0].rx.append((dev, 0))
        # delivery progressing: the virq counter moved since last probe
        m.obs.registry.counter("xen.virq_coalesced").value += 1
        snap = monitor.probe()
        assert all(f["probe"] != "stalled_rx" for f in snap["findings"])

    def test_stalled_tx_is_a_warning(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        monitor.probe()
        twin.hold("irq", None, nic.irq)
        snap = monitor.probe()
        probes = {f["probe"]: f["severity"] for f in snap["findings"]}
        assert probes.get("stalled_tx") == SEV_WARNING
        assert snap["ok"]                     # warning, not critical

    def test_virq_defer_latency_slo(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin, virq_defer_slo=1000)
        # the masked-interrupt flow feeds the histogram on replay
        twin.dom0_kernel.domain.disable_virq()
        m.wire.inject(nic, frame())
        m.account.charge("Xen", 5000)         # latency accrues while masked
        twin.dom0_kernel.domain.enable_virq()
        hist = m.obs.registry.histogram(VIRQ_DEFER_HISTOGRAM)
        assert hist.count == 1 and hist.max >= 5000
        snap = monitor.probe()
        latency = [f for f in snap["findings"] if f["probe"] == "virq_latency"]
        assert latency and latency[0]["severity"] == SEV_WARNING
        assert latency[0]["data"]["p99"] > 1000

    def test_virq_defer_within_slo_is_silent(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin, virq_defer_slo=10_000_000)
        twin.dom0_kernel.domain.disable_virq()
        m.wire.inject(nic, frame())
        twin.dom0_kernel.domain.enable_virq()
        snap = monitor.probe()
        assert all(f["probe"] != "virq_latency" for f in snap["findings"])

    def test_crash_loop_breaker_is_critical(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        m.obs.registry.counter("recovery.breaker_open").value += 1
        snap = monitor.probe()
        crash = [f for f in snap["findings"] if f["probe"] == "crash_loop"]
        assert crash and crash[0]["severity"] == SEV_CRITICAL
        assert not snap["ok"]

    def test_quarantine_churn_is_a_warning(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin, crash_loop_quarantines=2)
        monitor.probe()
        m.obs.registry.counter("recovery.quarantine").value += 2
        snap = monitor.probe()
        crash = [f for f in snap["findings"] if f["probe"] == "crash_loop"]
        assert crash and crash[0]["severity"] == SEV_WARNING

    def test_span_leak_detected_outside_driver(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        tracer = m.obs.tracer
        tracer.enabled = True
        tracer.begin_span("packet.tx")        # opened, never finished
        snap = monitor.probe()
        leaks = [f for f in snap["findings"] if f["probe"] == "span_leak"]
        assert leaks and leaks[0]["data"]["names"] == ["packet.tx"]

    def test_spans_dropped_is_informational(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        monitor.probe()
        m.obs.tracer.spans_dropped += 4
        snap = monitor.probe()
        dropped = [f for f in snap["findings"]
                   if f["probe"] == "spans_dropped"]
        assert dropped and dropped[0]["data"]["dropped"] == 4
        assert snap["ok"]


class TestFlightRecorderAndArming:
    def test_eventful_snapshot_lands_in_flight_recorder(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        monitor.probe()
        twin.queues[0].rx.append((dev, 0))
        monitor.probe()
        records = twin.recovery.flight_records
        assert len(records) == 1
        kinds = [r["kind"] for r in records[0]]
        assert kinds == ["health.snapshot"]
        assert records[0][0]["schema"] == HEALTH_SCHEMA
        assert not records[0][0]["ok"]

    def test_armed_watchdog_quarantines_on_critical(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin, arm_recovery=True)
        monitor.probe()
        twin.queues[0].rx.append((dev, 0))
        assert not twin.recovery.degraded
        monitor.probe()
        # the watchdog fed recovery: instance quarantined, dom0 path on
        assert twin.recovery.degraded
        assert m.obs.registry.counter("recovery.quarantine").value == 1
        # traffic still flows on the degraded path
        assert dev.transmit(500)

    def test_unarmed_watchdog_only_observes(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin, arm_recovery=False)
        monitor.probe()
        twin.queues[0].rx.append((dev, 0))
        monitor.probe()
        assert not twin.recovery.degraded

    def test_armed_watchdog_leaves_broken_recovery_alone(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin, arm_recovery=True)
        twin.recovery.state = "broken"
        monitor.probe()
        twin.queues[0].rx.append((dev, 0))
        monitor.probe()                       # must not re-enter recovery
        assert m.obs.registry.counter("recovery.quarantine").value == 0

    def test_monitor_without_twin_probes_machine_only(self):
        m = Machine()
        monitor = HealthMonitor(m)
        snap = monitor.probe()
        assert snap["ok"] and snap["findings"] == []


class TestMaintenanceWindow:
    """Planned-handover suppression: a drain the handover accounts for
    is not a stall and must not arm recovery mid-swap — but a stall the
    handover does NOT account for still fires (DESIGN.md §14)."""

    def test_held_backlog_is_not_a_stall(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        monitor.probe()
        # a planned drain holds 3 packets; the probe subtracts them
        twin.queues[0].rx.extend([(dev, 0)] * 3)
        monitor.enter_maintenance("handover:test", held_backlog=lambda: 3)
        snap = monitor.probe()
        assert snap["ok"]
        assert all(f["probe"] != "stalled_rx" for f in snap["findings"])
        assert monitor.exit_maintenance() == "handover:test"
        # window closed: the same backlog is a stall again
        snap = monitor.probe()
        assert not snap["ok"]
        assert [f["probe"] for f in snap["findings"]] == ["stalled_rx"]

    def test_real_stall_still_fires_inside_the_window(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        monitor.probe()
        # the handover accounts for 2 packets; 5 are actually wedged
        twin.queues[0].rx.extend([(dev, 0)] * 5)
        monitor.enter_maintenance("handover:test", held_backlog=lambda: 2)
        snap = monitor.probe()
        assert not snap["ok"]
        stalls = [f for f in snap["findings"] if f["probe"] == "stalled_rx"]
        assert stalls and stalls[0]["severity"] == SEV_CRITICAL
        assert stalls[0]["data"]["queued"] == 3   # only the residual
        assert stalls[0]["data"]["held"] == 2

    def test_deferred_irqs_and_latency_blip_are_expected_in_window(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin, virq_defer_slo=1)
        monitor.probe()
        twin.hold("irq", None, nic.irq)
        m.obs.registry.histogram(VIRQ_DEFER_HISTOGRAM).observe(10_000)
        monitor.enter_maintenance("handover:test")
        snap = monitor.probe()
        assert snap["findings"] == []          # both probes suppressed
        monitor.exit_maintenance()
        snap = monitor.probe()
        probes = {f["probe"] for f in snap["findings"]}
        assert "stalled_tx" in probes and "virq_latency" in probes

    def test_window_records_but_does_not_arm_recovery(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin, arm_recovery=True)
        monitor.probe()
        # a genuinely critical finding inside the window: recorded in
        # the flight recorder but recovery is NOT armed (arming would
        # dismantle the instance mid-swap)
        twin.queues[0].rx.extend([(dev, 0)] * 4)
        monitor.enter_maintenance("handover:test")
        snap = monitor.probe()
        assert not snap["ok"]
        assert twin.recovery.state == "active"
        assert twin.recovery.flight_records     # still observable
        monitor.exit_maintenance()
        monitor.probe()
        assert twin.recovery.state == "degraded"   # armed again outside

    def test_window_is_exclusive_and_must_be_open_to_close(self):
        m, xen, twin, dev, nic = make_twin()
        monitor = HealthMonitor(m, twin=twin)
        assert not monitor.in_maintenance
        monitor.enter_maintenance("a")
        assert monitor.in_maintenance
        try:
            monitor.enter_maintenance("b")
            raise AssertionError("double enter must raise")
        except RuntimeError:
            pass
        monitor.exit_maintenance()
        try:
            monitor.exit_maintenance()
            raise AssertionError("double exit must raise")
        except RuntimeError:
            pass
