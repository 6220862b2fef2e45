"""Live upgrade end-to-end: zero-loss handover mid-stream, bit-exact
determinism with and around handovers, and the recovery fallback.

The contract under test (DESIGN.md §14):

* a binary swap in the middle of a bidirectional stream — under SMP
  and multiqueue RSS at once — drops nothing;
* two identical runs that request the handover at the same packet index
  are bit-identical (cycle account, deliveries, payloads);
* merely *wiring* the handover subsystem (``handover=True``) changes
  nothing: the default path stays bit-identical to a build without it,
  so fig 5/6 baselines are untouched;
* re-homing a guest to a second live instance keeps its stream flowing
  through the new owner;
* a handover requested against a quarantined, crash-looping instance
  falls back to the existing recovery reload instead of pretending to
  drain a dead fast path.
"""

from repro.configs import build
from repro.core import RecoveryPolicy


def outcome(sut):
    devices = sut.extras["devices"]
    return {
        "cycles": dict(sut.machine.account.cycles),
        "delivered": sut.packets_delivered,
        "wire_tx": sut.machine.wire.tx_count,
        "per_guest_rx": [d.rx_packets for d in devices],
    }


def stream(sut, n, handover_at=None, mgr=None):
    """Alternate rx and tx for ``n`` steps; optionally request a binary
    swap right after packet index ``handover_at``."""
    for i in range(n):
        assert sut.receive_packets(1) == 1
        assert sut.transmit_packets(1) == 1
        if handover_at is not None and i == handover_at:
            report = mgr.swap_binary()
            assert report.ok


class TestZeroLossSwapMidStream:
    def test_swap_under_smp_multiqueue_drops_nothing(self):
        sut = build("domU-twin", n_nics=2, vcpus=2, num_queues=2,
                    handover=True)
        mgr = sut.extras["handover"]
        stream(sut, 40, handover_at=19, mgr=mgr)
        assert sut.packets_delivered == 40
        assert sut.machine.wire.tx_count == 40
        assert sut.twin.hyp_support.pool.balanced
        report = mgr.history[-1]
        assert report.epoch_after >= report.epoch_before + 2
        # the maintenance window opened and closed
        assert not sut.extras["health"].in_maintenance

    def test_back_to_back_swaps_keep_the_stream_intact(self):
        sut = build("domU-twin", n_nics=1, handover=True)
        mgr = sut.extras["handover"]
        for k in range(3):
            stream(sut, 10, handover_at=4, mgr=mgr)
        assert sut.packets_delivered == 30
        assert sut.machine.wire.tx_count == 30
        assert len([r for r in mgr.history if r.ok]) == 3


class TestDeterminism:
    def test_same_handover_index_is_bit_identical(self):
        def run():
            sut = build("domU-twin", n_nics=2, vcpus=2, num_queues=2,
                        handover=True)
            sut.extras["devices"][0].keep_rx_payloads = True
            stream(sut, 24, handover_at=11, mgr=sut.extras["handover"])
            res = outcome(sut)
            res["payloads"] = list(sut.extras["devices"][0].rx_payloads)
            rep = sut.extras["handover"].history[-1]
            res["window"] = (rep.window_cycles, rep.phase_cycles,
                             rep.drained_rx, rep.replayed_irqs,
                             rep.replayed_tx)
            return res

        first, second = run(), run()
        assert first == second

    def test_wiring_handover_changes_nothing_when_unused(self):
        def run(handover):
            sut = build("domU-twin", n_nics=2, handover=handover)
            stream(sut, 20)
            return outcome(sut)

        assert run(handover=False) == run(handover=True)


class TestRehomeIntegration:
    def test_rehomed_guest_stream_continues_on_the_second_instance(self):
        sut = build("handover-pair", n_guests=2, n_nics=1,
                    vcpus=2, num_queues=2)
        m = sut.machine
        devices = sut.extras["devices"]
        sec = sut.extras["secondary"]
        mgr = sut.extras["handover"]
        pnic, snic = sut.nics[0], sut.extras["secondary_nics"][0]

        def inject(nic, dev, n):
            for _ in range(n):
                assert m.wire.inject(
                    nic, dev.mac + b"\x00" * 6 + b"\x08\x00" + bytes(700))
            nic.flush_interrupts()

        inject(pnic, devices[0], 8)
        inject(pnic, devices[1], 8)
        report = mgr.rehome_guest(devices[0], sec)
        assert report.ok and report.kind == "rehome"
        # the moved guest's stream continues through the new owner; the
        # stay-behind guest is undisturbed on the primary
        inject(snic, devices[0], 8)
        inject(pnic, devices[1], 8)
        assert devices[0].rx_packets == 16
        assert devices[1].rx_packets == 16
        assert devices[0].transmit(700) and devices[1].transmit(700)
        assert m.wire.tx_count == 2
        assert sut.twin.hyp_support.pool.balanced
        assert sec.hyp_support.pool.balanced


class TestQuarantinedFallback:
    def test_swap_of_crash_looping_instance_uses_recovery(self):
        sut = build("domU-twin", n_nics=1, handover=True)
        twin = sut.twin
        twin.recovery.policy = RecoveryPolicy(backoff_initial=10_000)
        dev = sut.extras["devices"][0]
        twin.svm.inject_fault()
        assert dev.transmit(700)            # contained -> degraded
        assert twin.recovery.degraded
        report = sut.extras["handover"].swap_binary()
        assert report.fallback == "recovery"
        assert report.ok
        assert twin.recovery.state == "active"
        # and the stream keeps going on the reloaded fast path
        stream(sut, 10)
        assert sut.packets_delivered >= 10
