"""The twin's hold-and-replay ledger (``TwinDriverManager.held``): every
frame held for a masked virq is delivered exactly once, in arrival
order, whatever interrupts the hold.

The matrix crosses the two hold causes — dom0's virq masked (the twin
holds NIC interrupts) and the guest's virq masked (the twin holds rx
batches) — with every way the hold can end: a plain unmask, a
quarantine, quarantine -> reload -> more frames -> re-home, a binary
swap, a re-home, and frames injected inside a swap window. Each frame's
payload carries its arrival number, so the guest's receive log shows
loss, duplication and reordering at once.
"""

import pytest

from repro.configs import build
from repro.core.handover import HandoverError
from repro.obs.health import VIRQ_DEFER_HISTOGRAM

CAUSES = ("dom0", "guest")
INTERRUPTIONS = ("unmask", "quarantine", "quarantine_reload_rehome",
                 "swap", "rehome", "swap_window")


class Rig:
    """A handover pair with one guest, which starts on the primary."""

    def __init__(self, cause: str):
        sut = build("handover-pair", n_guests=1)
        self.m = sut.machine
        self.twin = sut.twin
        self.sec = sut.extras["secondary"]
        self.dev = sut.extras["devices"][0]
        self.dev.keep_rx_payloads = True
        self.pnic = sut.nics[0]
        self.snic = sut.extras["secondary_nics"][0]
        self.mgr = sut.extras["handover"]
        self.masked = (sut.dom0_kernel.domain if cause == "dom0"
                       else self.dev.kernel.domain)
        self.injected = 0
        # quarantines stay degraded until a test reloads explicitly
        self.twin.recovery.policy.backoff_initial = 10_000

    def inject(self, n: int):
        """Inject ``n`` tagged frames for the guest on the NIC of the
        twin that serves it now, and fire their interrupts."""
        nic = self.pnic if self.dev.twin is self.twin else self.snic
        for _ in range(n):
            self.injected += 1
            payload = self.injected.to_bytes(2, "big") + bytes(298)
            frame = self.dev.mac + b"\x00" * 6 + b"\x08\x00" + payload
            assert self.m.wire.inject(nic, frame)
        nic.flush_interrupts()

    def quarantine(self):
        self.twin.svm.inject_fault()
        assert self.dev.transmit(700)        # contained -> degraded
        assert self.twin.recovery.degraded

    def rehome(self):
        assert self.mgr.rehome_guest(self.dev, self.sec).ok
        assert self.dev.twin is self.sec

    def delivered(self):
        return [int.from_bytes(p[:2], "big") for p in self.dev.rx_payloads]

    def assert_exactly_once(self):
        assert self.delivered() == list(range(1, self.injected + 1))
        for twin in (self.twin, self.sec):
            assert twin.held == []
            assert twin.hyp_support.pool.balanced
            assert twin.rx_dropped_no_guest == 0


@pytest.mark.parametrize("interruption", INTERRUPTIONS)
@pytest.mark.parametrize("cause", CAUSES)
def test_held_frames_are_delivered_exactly_once_in_order(cause,
                                                         interruption):
    rig = Rig(cause)
    rig.masked.disable_virq()
    rig.inject(3)
    if interruption == "quarantine":
        rig.quarantine()
        rig.inject(2)                        # served on the dom0 path
    elif interruption == "quarantine_reload_rehome":
        rig.quarantine()
        assert rig.twin.recovery.attempt_reload()
        rig.inject(2)
        rig.rehome()
    elif interruption == "swap":
        assert rig.mgr.swap_binary().ok
        rig.inject(2)
    elif interruption == "rehome":
        if cause == "dom0":
            # the held interrupts' frames are still in the primary's
            # ring: the re-home is refused until dom0 unmasks
            with pytest.raises(HandoverError):
                rig.rehome()
            rig.masked.enable_virq()
        rig.rehome()
        rig.inject(2)
    elif interruption == "swap_window":
        assert rig.mgr.swap_binary(
            mid_window_hook=lambda: rig.inject(2)).ok
    else:
        rig.inject(2)
    if cause == "guest":
        # nothing reaches a guest that cannot take a virtual interrupt
        assert rig.dev.rx_packets == 0
    rig.masked.enable_virq()
    rig.assert_exactly_once()


def test_rehome_keeps_rx_bytes_ahead_of_later_rx():
    """Regression: a guest holding ``rx_bytes`` from a quarantine and
    then ``rx`` from after the reload was re-homed with its queued and
    skb-form batches ahead of the older payload batches: frames 1-5
    arrived as [4, 5, 1, 2, 3]."""
    rig = Rig("guest")
    rig.masked.disable_virq()
    rig.inject(3)
    rig.quarantine()
    assert rig.twin.recovery.attempt_reload()
    rig.inject(2)
    assert rig.twin.rx_backlog == 5
    rig.rehome()
    rig.masked.enable_virq()
    assert rig.delivered() == [1, 2, 3, 4, 5]


def test_dom0_unmask_while_frozen_releases_nothing():
    """Regression: dom0 unmasking inside a swap window replayed its held
    interrupt into the frozen twin, which held it again. The interrupt
    put two samples into the virq-latency histogram and lost its
    original deferral time."""
    rig = Rig("dom0")
    hist = rig.m.obs.registry.histogram(VIRQ_DEFER_HISTOGRAM)
    rig.masked.disable_virq()
    rig.inject(1)
    [entry] = rig.twin.held
    before = hist.count

    def unmask_mid_window():
        rig.masked.enable_virq()
        assert hist.count == before
        assert rig.twin.held == [entry]

    assert rig.mgr.swap_binary(mid_window_hook=unmask_mid_window).ok
    # one interrupt, one sample: the held entry's, which covers the
    # wait of the cause latched behind the masked NIC line too
    assert hist.count == before + 1
    rig.assert_exactly_once()


def test_rehome_of_one_broadcast_target_keeps_the_other_copy():
    """A broadcast frame held for two masked guests is one skb with two
    references. Re-homing one guest snapshots only its entry and drops
    only its reference: the guest that stays still gets the frame from
    the skb, and neither pool sees a second release."""
    sut = build("handover-pair", n_guests=2)
    twin, sec = sut.twin, sut.extras["secondary"]
    devices = sut.extras["devices"]
    for dev in devices:
        dev.keep_rx_payloads = True
        dev.kernel.domain.disable_virq()
    payload = b"\x42" * 300
    assert sut.machine.wire.inject(
        sut.nics[0], b"\xff" * 6 + b"\x00" * 6 + b"\x08\x00" + payload)
    sut.nics[0].flush_interrupts()
    assert [e.kind for e in twin.held] == ["rx", "rx"]
    assert sut.extras["handover"].rehome_guest(devices[0], sec).ok
    assert [(e.kind, e.dev) for e in twin.held] == [("rx", devices[1])]
    assert [(e.kind, e.dev) for e in sec.held] == [("rx_bytes", devices[0])]
    for dev in devices:
        dev.kernel.domain.enable_virq()
        assert dev.rx_payloads == [payload]
    for t in (twin, sec):
        assert t.held == []
        assert t.hyp_support.pool.balanced
        assert t.hyp_support.pool.double_releases == 0
