"""The four workloads: one configuration each plus a deterministic op stream.

Every workload is a closed loop with one generator: an op runs to
completion (the simulator is synchronous) before the next one starts.
The seed fixes every input — payload bytes, the IMIX phase, the rx guest
order — so one seed always produces the same op stream, and the simulated
statistics of a run repeat exactly. The seed is kept away from what a
packet costs in simulated cycles, so those statistics hardly differ
between seeds either: the latency percentiles not at all, cycles per
packet by under 0.01%. A change that moves them moves them on every run.

A workload class has a ``build()`` static method (the configuration
alone: rewrite, verify, load, attach — what ``setup_s`` times) and an
instance bound to one built system that runs ``op(i)`` for
``i = 0, 1, 2, ...``. Any ``window_ops`` consecutive ops have the same
mix of work, so every measured window does the same amount of it.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.configs import FRAME_PAYLOAD, build, build_scale
from repro.osmodel import layout as L
from repro.osmodel.kernel import BROADCAST_MAC

ETHERTYPE_IPV4 = (0x0800).to_bytes(2, "big")
#: Source MAC of every frame injected from the wire.
WIRE_SRC_MAC = b"\x00\x22\x33\x44\x55\x66"
#: Distinct payloads per workload, drawn from the seed.
N_PAYLOADS = 8


class PacketLedger:
    """Matches every packet the generator offers with its completion.

    Tx frames complete at the NIC's ``on_transmit``, rx frames at the
    guest device's ``deliver_batch``. Both are matched per device in
    arrival order, their bytes are compared with what was offered, and
    while ``latencies`` is a list each packet's latency on the
    ``machine.account.total`` clock is appended to it."""

    def __init__(self, sut, devices):
        self.account = sut.machine.account
        self.tx_pending: Dict[bytes, Deque[Tuple[int, bytes]]] = {}
        self.rx_pending: Dict[bytes, Deque[Tuple[int, bytes]]] = {}
        self.tx_attempted = self.rx_attempted = 0
        self.tx_done = self.rx_done = 0
        self.tx_busy = self.rx_dropped = 0
        #: completions whose bytes differ from what was offered, or that
        #: match nothing offered
        self.mismatches = 0
        self.latencies = None
        for dev in devices:
            self.tx_pending[dev.mac] = deque()
            self.rx_pending[dev.mac] = deque()
            dev.deliver_batch = self._rx_tap(dev.mac, dev.deliver_batch)
        for nic in sut.machine.nics:
            nic.on_transmit = self._tx_tap(nic.on_transmit)

    @property
    def completed(self) -> int:
        return self.tx_done + self.rx_done

    @property
    def attempted(self) -> int:
        return self.tx_attempted + self.rx_attempted

    def in_flight(self) -> int:
        return (sum(len(q) for q in self.tx_pending.values())
                + sum(len(q) for q in self.rx_pending.values()))

    # -- generator side ------------------------------------------------------

    def offer_tx(self, mac: bytes, frame: bytes) -> Tuple[int, bytes]:
        entry = (self.account.total, frame)
        self.tx_pending[mac].append(entry)
        self.tx_attempted += 1
        return entry

    def tx_refused(self, mac: bytes, entry: Tuple[int, bytes]) -> None:
        """The driver refused the frame (tx busy): it will never reach
        the wire."""
        queue = self.tx_pending[mac]
        for k, pending in enumerate(queue):
            if pending is entry:
                del queue[k]
                break
        self.tx_busy += 1

    def offer_rx(self, mac: bytes, payload: bytes) -> None:
        self.rx_pending[mac].append((self.account.total, payload))
        self.rx_attempted += 1

    def rx_refused(self, mac: bytes) -> None:
        """The NIC dropped the frame just offered (no rx descriptor)."""
        self.rx_pending[mac].pop()
        self.rx_dropped += 1

    # -- completion taps -----------------------------------------------------

    def _tx_tap(self, on_transmit):
        def tap(nic, packet):
            queue = self.tx_pending.get(packet[6:12])
            if queue:
                start, frame = queue.popleft()
                if packet != frame:
                    self.mismatches += 1
                if self.latencies is not None:
                    self.latencies.append(self.account.total - start)
                self.tx_done += 1
            else:
                self.mismatches += 1
            on_transmit(nic, packet)
        return tap

    def _rx_tap(self, mac: bytes, deliver_batch):
        queue = self.rx_pending[mac]

        def tap(payloads):
            now = self.account.total
            for payload in payloads:
                if not queue:
                    self.mismatches += 1
                    continue
                start, expected = queue.popleft()
                if payload != expected:
                    self.mismatches += 1
                if self.latencies is not None:
                    self.latencies.append(now - start)
                self.rx_done += 1
            deliver_batch(payloads)
        return tap


#: Frame sizes in IMIX proportions (60, 594 and 1500 bytes in a 7:4:1
#: ratio), spread out so that no stretch of a few frames is much heavier
#: than another.
IMIX = (60, 594, 60, 60, 594, 60, 1500, 60, 594, 60, 60, 594)


class Workload:
    """Base class: seed-derived payloads and the shared bookkeeping."""

    name = ""
    #: ops per measured window
    window_ops = 0
    #: ops run before the first window (JIT traces, stlb, rings warm)
    warmup_ops = 0
    #: leading windows the simulated metrics cover (at least 1000
    #: packets, so the p99 latency has ten samples beyond it)
    sim_windows = 1

    def __init__(self, sut, seed: int):
        self.sut = sut
        self.rng = random.Random(seed)
        self.devices = sut.extras["devices"]
        self.nics = sut.nics
        self.ledger = PacketLedger(sut, self.devices)

    @staticmethod
    def build():
        raise NotImplementedError

    def _payloads(self, size: int) -> List[bytes]:
        return [self.rng.randbytes(size) for _ in range(N_PAYLOADS)]

    def _send(self, dev, payload: bytes) -> None:
        frame = BROADCAST_MAC + dev.mac + ETHERTYPE_IPV4 + payload
        entry = self.ledger.offer_tx(dev.mac, frame)
        if not dev.transmit(len(payload), payload=payload):
            self.ledger.tx_refused(dev.mac, entry)

    def _inject(self, nic, dev, payload: bytes) -> None:
        self.ledger.offer_rx(dev.mac, payload)
        if not nic.receive(dev.mac + WIRE_SRC_MAC + ETHERTYPE_IPV4 + payload):
            self.ledger.rx_refused(dev.mac)

    def op(self, i: int) -> None:
        raise NotImplementedError

    def drain(self) -> None:
        """Deliver everything still held: coalesced NIC interrupts and
        every vCPU's softirqs."""
        for nic in self.nics:
            nic.flush_interrupts()
        self.sut.xen.drain_all_softirqs()

    @property
    def handover(self):
        return self.sut.extras.get("handover")


class TxMtu(Workload):
    """Fig 5/7 path: one ``transmit`` hypercall per MTU frame, round-robin
    over five NICs, JIT off."""

    name = "tx_mtu"
    window_ops = 400
    warmup_ops = 128
    sim_windows = 3

    @staticmethod
    def build():
        return build("domU-twin", n_nics=5)

    def __init__(self, sut, seed: int):
        super().__init__(sut, seed)
        self.payloads = self._payloads(FRAME_PAYLOAD)

    def op(self, i: int) -> None:
        dev = self.devices[i % len(self.devices)]
        self._send(dev, self.payloads[self.rng.randrange(N_PAYLOADS)])


class RxMtu(Workload):
    """Fig 6/8 path: MTU frames injected into the NIC rx rings,
    round-robin over five NICs, JIT off."""

    name = "rx_mtu"
    window_ops = 1000
    warmup_ops = 128
    sim_windows = 1

    @staticmethod
    def build():
        return build("domU-twin", n_nics=5)

    def __init__(self, sut, seed: int):
        super().__init__(sut, seed)
        self.payloads = self._payloads(FRAME_PAYLOAD)

    def op(self, i: int) -> None:
        k = i % len(self.nics)
        self._inject(self.nics[k], self.devices[k],
                     self.payloads[self.rng.randrange(N_PAYLOADS)])


class Scale64Small(Workload):
    """64 guests on 4 vCPUs with 4-queue RSS twins, JIT on, 60-byte
    frames. A round is four sub-rounds, one per group of 16 guests: the
    group's 16-frame tx bursts go through the scheduler, then 16 rx
    frames per guest arrive interleaved in a seed-shuffled guest order,
    then the NIC interrupts are flushed. The shuffle permutes guests that
    share a NIC, so every sub-round offers the NICs frames in the same
    pattern and the simulated cost does not depend on the seed."""

    name = "scale64_small"
    GUESTS = 64
    GROUP = 16
    BURST = 16
    #: 60-byte frames: minimum size, so per-packet cost dominates copies
    PAYLOAD = 60 - L.ETH_HLEN
    SUB_ROUND_OPS = 1 + GROUP * BURST + 1
    window_ops = 4 * SUB_ROUND_OPS
    warmup_ops = SUB_ROUND_OPS
    sim_windows = 1

    @staticmethod
    def build():
        return build_scale(n_guests=Scale64Small.GUESTS, vcpus=4,
                           num_queues=4, n_nics=4, jit=True)

    def __init__(self, sut, seed: int):
        super().__init__(sut, seed)
        self.payloads = self._payloads(self.PAYLOAD)
        self.xen = sut.xen
        self.order: List[int] = []

    def _burst(self, dev) -> None:
        payloads = [self.payloads[self.rng.randrange(N_PAYLOADS)]
                    for _ in range(self.BURST)]
        entries = [self.ledger.offer_tx(
            dev.mac, BROADCAST_MAC + dev.mac + ETHERTYPE_IPV4 + p)
            for p in payloads]
        results = dev.transmit_batch([self.PAYLOAD] * self.BURST,
                                     payloads=payloads)
        for ok, entry in zip(results, entries):
            if not ok:
                self.ledger.tx_refused(dev.mac, entry)

    def op(self, i: int) -> None:
        sub_round, r = divmod(i, self.SUB_ROUND_OPS)
        if r == 0:
            first = (sub_round % (self.GUESTS // self.GROUP)) * self.GROUP
            group = list(range(first, first + self.GROUP))
            for g in group:
                dev = self.devices[g]
                self.xen.scheduler.queue_work(
                    dev.kernel.domain, lambda d=dev: self._burst(d))
            self.xen.scheduler.run()
            n = len(self.nics)
            by_nic = [group[c::n] for c in range(n)]
            for guests in by_nic:
                self.rng.shuffle(guests)
            self.order = [by_nic[j % n][j // n] for j in range(self.GROUP)]
        elif r <= self.GROUP * self.BURST:
            g = self.order[(r - 1) % self.GROUP]
            self._inject(self.nics[g % len(self.nics)], self.devices[g],
                         self.payloads[self.rng.randrange(N_PAYLOADS)])
        else:
            for nic in self.nics:
                nic.flush_interrupts()

    def drain(self) -> None:
        self.xen.scheduler.run()
        super().drain()


class HandoverChurn(Workload):
    """Live binary swaps under bidirectional IMIX traffic, two NICs, JIT
    off. Each step injects one rx frame and sends one tx frame; the guest
    virq is masked for 8 steps in every 64; every 256 steps a
    ``swap_binary`` runs with 4 rx frames and 1 tx frame injected inside
    its window.

    Step ``i`` takes its rx size from ``IMIX[i + phase]`` and its tx size
    from ``IMIX[i + phase + 6]``. The seed picks the phase among the even
    ones, which give both NICs the same mix, so every phase holds back the
    same frames while the virq is masked and the simulated latencies do
    not depend on the seed. (Shuffling the sizes by seed would spread the
    p99 by about 0.5% across ten seeds, even over six swaps.)"""

    name = "handover_churn"
    SWAP_EVERY = 256
    SWAP_AT = 128
    MASK_EVERY = 64
    MASK_STEPS = 8
    MID_WINDOW_RX = 4
    window_ops = SWAP_EVERY
    warmup_ops = MASK_EVERY
    #: from the third swap on the p99 no longer moves
    sim_windows = 6

    @staticmethod
    def build():
        return build("domU-twin", n_nics=2, handover=True)

    def __init__(self, sut, seed: int):
        super().__init__(sut, seed)
        self.guest = sut.guest_kernel.domain
        self.payloads = {size: self._payloads(size - L.ETH_HLEN)
                         for size in set(IMIX)}
        self.imix_phase = 2 * self.rng.randrange(len(IMIX) // 2)

    def _payload(self, k: int) -> bytes:
        size = IMIX[(k + self.imix_phase) % len(IMIX)]
        return self.payloads[size][self.rng.randrange(N_PAYLOADS)]

    def _step(self, i: int) -> None:
        k = i % len(self.nics)
        nic, dev = self.nics[k], self.devices[k]
        self._inject(nic, dev, self._payload(i))
        self._send(dev, self._payload(i + 6))
        for nic in self.nics:
            nic.flush_interrupts()

    def _mid_window(self, i: int) -> None:
        for j in range(self.MID_WINDOW_RX):
            k = j % len(self.nics)
            self._inject(self.nics[k], self.devices[k], self._payload(i + j))
        self._send(self.devices[0], self._payload(i + 6))

    def op(self, i: int) -> None:
        phase = i % self.MASK_EVERY
        if phase == 0 and not self.guest.virq_enabled:
            self.guest.enable_virq()
        elif phase == self.MASK_EVERY - self.MASK_STEPS:
            self.guest.disable_virq()
        self._step(i)
        if i % self.SWAP_EVERY == self.SWAP_AT:
            report = self.handover.swap_binary(
                mid_window_hook=lambda: self._mid_window(i))
            if not report.ok:
                raise RuntimeError(f"swap_binary failed at op {i}")

    def drain(self) -> None:
        if not self.guest.virq_enabled:
            self.guest.enable_virq()
        super().drain()


WORKLOADS = {cls.name: cls for cls in (TxMtu, RxMtu, Scale64Small,
                                       HandoverChurn)}
