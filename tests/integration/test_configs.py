"""Preset wiring of the evaluated configurations.

Each preset fixes data that steers simulated cycles: guest MAC bytes
pick RSS queues, the pool size places dom0 memory (the pool is carved
from the dom0 heap before any NIC is opened, so it moves every netdev),
and the guest domain names and NIC attachment decide which twin serves
which frame. These tests pin that data at the sizes callers use.
"""

import pytest

from repro.configs import build
from repro.core.handover import HandoverManager
from repro.obs.health import HealthMonitor

NETDEV_STRIDE = 0x42000


def netdevs(first, n):
    return [first + k * NETDEV_STRIDE for k in range(n)]


def eths(*indices):
    return [f"eth{i}" for i in indices]


#: case id -> (build arguments, expected wiring). ``twins`` lists each
#: instance as (name, pool capacity, owned NICs, dom0 netdev addresses);
#: ``devices`` lists each guest device as (MAC, guest domain).
CASES = {
    "domU-twin-5": (
        dict(name="domU-twin", n_nics=5),
        dict(domains=["dom0", "guest"],
             twins=[("hyp", 480, eths(0, 1, 2, 3, 4),
                     netdevs(0xC11E0000, 5))],
             devices=[(f"00163eaa00{0x10 + i:02x}", "guest")
                      for i in range(5)])),
    "domU-twin-2-handover": (
        dict(name="domU-twin", n_nics=2, handover=True),
        dict(domains=["dom0", "guest"],
             twins=[("hyp", 256, eths(0, 1), netdevs(0xC1100000, 2))],
             devices=[("00163eaa0010", "guest"),
                      ("00163eaa0011", "guest")])),
    "scale-64": (
        dict(name="scale", n_guests=64, vcpus=4, num_queues=4, n_nics=4),
        dict(domains=["dom0"] + [f"guest{i}" for i in range(64)],
             twins=[("hyp", 512, eths(0, 1, 2, 3),
                     netdevs(0xC1200000, 4))],
             devices=[(f"00163eab{i:04x}", f"guest{i}")
                      for i in range(64)])),
    "handover-pair-2": (
        dict(name="handover-pair", n_guests=2),
        dict(domains=["dom0", "guest0", "guest1"],
             twins=[("hyp", 256, eths(0), [0xC1200000]),
                    ("hyp2", 256, eths(1), [0xC1242000])],
             devices=[("00163eac0001", "guest0"),
                      ("00163eac0002", "guest1")])),
}

TWIN_CASES = sorted(CASES)


def build_case(case):
    kwargs = dict(CASES[case][0])
    return build(kwargs.pop("name"), **kwargs)


@pytest.fixture(scope="module", params=TWIN_CASES)
def built(request):
    return request.param, build_case(request.param)


def twins_of(sut):
    return [t for t in (sut.twin, sut.extras.get("secondary"))
            if t is not None]


class TestTwinPresets:
    def test_guest_domain_names(self, built):
        case, sut = built
        assert [d.name for d in sut.xen.domains] == CASES[case][1]["domains"]
        assert sut.guest_kernel.domain.name == CASES[case][1]["domains"][1]

    def test_twin_instances_pools_and_nics(self, built):
        case, sut = built
        got = [(t.instance_name, t.hyp_support.pool.capacity,
                [nic.name for nic in t.nics_by_irq.values()],
                t.netdev_order)
               for t in twins_of(sut)]
        assert got == CASES[case][1]["twins"]
        # the facade's NICs are the primary instance's
        assert sut.nics == list(sut.twin.nics_by_irq.values())

    def test_device_macs_domains_and_netdevs(self, built):
        case, sut = built
        devices = sut.extras["devices"]
        got = [(d.mac.hex(), d.kernel.domain.name) for d in devices]
        assert got == CASES[case][1]["devices"]
        # every device starts on the primary twin, bound round-robin to
        # its netdevs in attach order
        order = sut.twin.netdev_order
        for i, dev in enumerate(devices):
            assert dev.twin is sut.twin
            assert dev.netdev_addr == order[i % len(order)]
        assert sut.twin.guest_devices == devices

    def test_handover_extras(self, built):
        case, sut = built
        if "handover" not in sut.extras:
            assert case in ("domU-twin-5", "scale-64")
            return
        assert isinstance(sut.extras["health"], HealthMonitor)
        assert isinstance(sut.extras["handover"], HandoverManager)
        assert sut.extras["handover"].twin is sut.twin
        assert sut.extras["handover"].health is sut.extras["health"]
        if case == "handover-pair-2":
            assert (sut.extras["secondary_nics"]
                    == list(sut.extras["secondary"].nics_by_irq.values()))

    @pytest.mark.parametrize("case", TWIN_CASES)
    def test_facade_moves_one_frame_per_device(self, case):
        sut = build_case(case)
        devices = sut.extras["devices"]
        k = len(devices)
        assert sut.transmit_packets(k) == k
        assert sut.packets_on_wire == k
        assert [d.tx_packets for d in devices] == [1] * k
        assert sut.receive_packets(k) == k
        assert [d.rx_packets for d in devices] == [1] * k
        assert sut.packets_delivered == k


class TestSplitDriverPreset:
    def test_domU_fronts_macs_and_netdevs(self):
        sut = build("domU", n_nics=5)
        assert [d.name for d in sut.xen.domains] == ["dom0", "guest"]
        fronts = sut.extras["fronts"]
        assert ([f.mac.hex() for f in fronts]
                == [f"00163eaa000{i + 1}" for i in range(5)])
        assert all(f.kernel is sut.guest_kernel for f in fronts)
        assert sut.extras["netdevs"] == netdevs(0xC1000000, 5)
        assert ([f.netdev_addr for f in fronts]
                == sut.extras["netdevs"])
        assert sut.extras["backend"].dom0_kernel is sut.dom0_kernel
