"""Planned-handover benchmark: zero loss and a bounded virq-latency blip.

Runs a live binary swap and a queue re-homing in the middle of a
bidirectional packet stream, across (vcpus, num_queues) combos, and
measures what a handover is allowed to cost:

* **drops** — packets injected minus packets delivered — must be 0 for
  every combo and both handover kinds. Traffic is injected *during* the
  window on purpose (NIC causes latch behind the masked line, tx frames
  hit the frozen admission gate) so the replay path is actually on the
  hook for the zero-loss claim.
* **p99 virq-latency blip** — the p99 of ``health.virq_defer_cycles``,
  which the replay phase feeds with how long each latched NIC cause
  waited behind the mask. The stream itself never defers (dom0's virq
  stays enabled), so on a fresh config the histogram contains only
  handover-induced observations; the bench asserts the p99 stays under
  ``BLIP_SLO`` simulated cycles.
* **window_cycles** — the drain..resume blackout span, for trend
  tracking via the regression gate.

Everything is measured on the virtual cycle account, so results are
bit-identical run to run and gate cleanly against
``baselines/handover.json``.
"""

import pytest

from repro.configs import build
from repro.obs.health import VIRQ_DEFER_HISTOGRAM

from .common import header, report

#: (vcpus, num_queues) sweep — single-vCPU single-queue, and SMP with
#: RSS sharding.
COMBOS = ((1, 1), (2, 2))

STREAM_PACKETS = 48      # per direction, around the handover
HANDOVER_AT = 23         # packet index at which the handover fires
MID_WINDOW_RX = 4        # frames injected while the line is masked
#: p99 bound (simulated cycles) on how long a latched NIC cause may
#: wait behind the masked line before the replay fires it.
BLIP_SLO = 200_000


def _label(kind, vcpus, queues):
    return f"{kind}_v{vcpus}_q{queues}"


def run_swap(vcpus, queues):
    """Binary swap mid-stream on the domU-twin config."""
    sut = build("domU-twin", n_nics=2, vcpus=vcpus, num_queues=queues,
                handover=True)
    mgr = sut.extras["handover"]
    injected = sent = 0

    def mid_window():
        nonlocal injected
        # rx lands while masked: causes latch in ICR, fire at unmask
        injected += sut.receive_packets(MID_WINDOW_RX)
        # tx lands while frozen: snapshotted and replayed
        assert sut.transmit_packets(1) == 1

    for i in range(STREAM_PACKETS):
        injected += sut.receive_packets(1)
        sent += sut.transmit_packets(1)
        if i == HANDOVER_AT:
            assert mgr.swap_binary(mid_window_hook=mid_window).ok

    rep = mgr.history[-1]
    hist = sut.machine.obs.registry.histogram(VIRQ_DEFER_HISTOGRAM)
    return {
        "injected": injected,
        "delivered": sut.packets_delivered,
        "drops": injected - sut.packets_delivered,
        "wire_tx": sut.machine.wire.tx_count,
        "window_cycles": rep.window_cycles,
        "p99_blip_cycles": hist.quantile(0.99) if hist.count else 0,
        "replayed_tx": rep.replayed_tx,
        "epoch_delta": rep.epoch_after - rep.epoch_before,
    }


def run_rehome(vcpus, queues):
    """Queue re-homing mid-stream on the two-instance pair config."""
    sut = build("handover-pair", n_guests=2, n_nics=1, vcpus=vcpus,
                num_queues=queues)
    m = sut.machine
    devices = sut.extras["devices"]
    sec = sut.extras["secondary"]
    mgr = sut.extras["handover"]
    pnic, snic = sut.nics[0], sut.extras["secondary_nics"][0]
    injected = 0

    def inject(nic, dev, n):
        nonlocal injected
        for _ in range(n):
            assert m.wire.inject(
                nic, dev.mac + b"\x00" * 6 + b"\x08\x00" + bytes(700))
            injected += 1
        nic.flush_interrupts()

    half = STREAM_PACKETS // 2
    inject(pnic, devices[0], half)
    inject(pnic, devices[1], half)
    rep = mgr.rehome_guest(devices[0], sec)
    assert rep.ok
    # the moved guest's frames now arrive on the second instance's NIC
    inject(snic, devices[0], half)
    inject(pnic, devices[1], half)
    for dev in devices:
        assert dev.transmit(700)

    hist = m.obs.registry.histogram(VIRQ_DEFER_HISTOGRAM)
    return {
        "injected": injected,
        "delivered": sut.packets_delivered,
        "drops": injected - sut.packets_delivered,
        "wire_tx": m.wire.tx_count,
        "window_cycles": rep.window_cycles,
        "p99_blip_cycles": hist.quantile(0.99) if hist.count else 0,
        "carried_parked": rep.carried_parked,
    }


def run_all():
    results = {}
    for vcpus, queues in COMBOS:
        results[_label("swap", vcpus, queues)] = run_swap(vcpus, queues)
        results[_label("rehome", vcpus, queues)] = run_rehome(vcpus, queues)
    return results


@pytest.mark.benchmark(group="handover")
def test_handover_zero_loss(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = list(header(
        "Planned handover: drops and p99 virq-latency blip per combo",
        paper_col="combo", meas_col="drops / p99 blip"))
    for label, res in results.items():
        lines.append(
            f"  {label:34s} {res['drops']:>6d} / "
            f"{res['p99_blip_cycles']:>8.0f} cyc  "
            f"(window {res['window_cycles']} cyc, "
            f"{res['delivered']}/{res['injected']} delivered)")

    report("handover", lines,
           metrics=results,
           config={"combos": [list(c) for c in COMBOS],
                   "stream_packets": STREAM_PACKETS,
                   "handover_at": HANDOVER_AT,
                   "mid_window_rx": MID_WINDOW_RX,
                   "blip_slo": BLIP_SLO})

    for label, res in results.items():
        # the tentpole claim: a PLANNED handover drops nothing
        assert res["drops"] == 0, (
            f"{label}: {res['drops']} packets dropped "
            f"({res['delivered']}/{res['injected']})")
        # and the latency blip is bounded
        assert res["p99_blip_cycles"] <= BLIP_SLO, (
            f"{label}: p99 blip {res['p99_blip_cycles']:.0f} cyc "
            f"exceeds SLO {BLIP_SLO}")
