"""Bridge and the standard split netfront/netback path."""

import pytest

from repro.configs import build_domU_standard
from repro.osmodel.bridge import Bridge


class TestBridge:
    def test_learning_and_lookup(self):
        bridge = Bridge()
        bridge.learn(b"\x00" * 6, "portA")
        assert bridge.lookup(b"\x00" * 6) == "portA"
        assert bridge.lookup(b"\x01" * 6) is None

    def test_relearning_moves_port(self):
        bridge = Bridge()
        bridge.learn(b"\x02" * 6, "portA")
        bridge.learn(b"\x02" * 6, "portB")
        assert bridge.lookup(b"\x02" * 6) == "portB"
        assert bridge.learned == 2

    def test_flood_on_unknown(self):
        bridge = Bridge()
        bridge.learn(b"\x01" * 6, "a")
        bridge.learn(b"\x02" * 6, "b")
        targets = bridge.forward_targets(b"\x09" * 6, ingress="a")
        assert targets == ["b"]
        assert bridge.floods == 1

    def test_known_unicast_single_target(self):
        bridge = Bridge()
        bridge.learn(b"\x01" * 6, "a")
        bridge.learn(b"\x02" * 6, "b")
        assert bridge.forward_targets(b"\x02" * 6, ingress="a") == ["b"]


class TestSplitPath:
    def test_guest_transmit_reaches_wire(self):
        system = build_domU_standard(n_nics=1)
        front = system.extras["fronts"][0]
        assert front.transmit(600)
        assert system.machine.wire.tx_count == 1
        assert front.tx_packets == 1

    def test_transmit_payload_integrity(self):
        system = build_domU_standard(n_nics=1)
        front = system.extras["fronts"][0]
        system.machine.wire.keep_payloads = True
        payload = bytes(range(256)) * 2
        front.transmit(len(payload), payload=payload)
        frame = system.machine.wire.transmitted[0]
        assert frame[14:14 + len(payload)] == payload
        assert frame[6:12] == front.mac

    def test_grant_ops_balanced(self):
        system = build_domU_standard(n_nics=1)
        front = system.extras["fronts"][0]
        for _ in range(5):
            front.transmit(600)
        table = system.xen.grant_tables[system.guest_kernel.domain.domid]
        assert table.ops["issue"] == 5
        assert table.ops["map"] == 5
        assert table.ops["unmap"] == 5
        assert table.ops["revoke"] == 5
        assert not table.entries      # all revoked

    def test_receive_bridged_to_guest(self):
        system = build_domU_standard(n_nics=1)
        front = system.extras["fronts"][0]
        assert system.receive_packets(4) == 4
        assert front.rx_packets == 4

    def test_rx_unknown_mac_falls_back(self):
        system = build_domU_standard(n_nics=1)
        nic = system.nics[0]
        frame = b"\x0a" * 6 + b"\x00" * 6 + b"\x08\x00" + bytes(600)
        nic.receive(frame)
        nic.flush_interrupts()
        # fell back to the first front
        assert system.extras["fronts"][0].rx_packets == 1

    def test_domain_crossing_charged(self):
        system = build_domU_standard(n_nics=1)
        front = system.extras["fronts"][0]
        before = system.snapshot()
        front.transmit(600)
        delta = system.delta_since(before)
        costs = system.costs
        assert delta["Xen"] >= (costs.domain_switch + costs.grant_map
                                + costs.grant_unmap)
        assert delta["dom0"] >= costs.backend_tx + costs.bridge_forward

    def test_tx_uses_real_driver(self):
        system = build_domU_standard(n_nics=1)
        front = system.extras["fronts"][0]
        before = system.snapshot()
        front.transmit(600)
        assert system.delta_since(before)["e1000"] > 0


class TestBridgedReceive:
    """dom0's bridge forwards a received frame to the front that owns
    its destination MAC and floods everything else to every front."""

    @staticmethod
    def _receive(system, dst_mac):
        nic = system.nics[0]
        nic.receive(dst_mac + b"\x00\x22\x33\x44\x55\x66" + b"\x08\x00"
                    + bytes(600))
        nic.flush_interrupts()

    @staticmethod
    def _rx_counts(system):
        return [front.rx_packets for front in system.extras["fronts"]]

    @pytest.mark.parametrize("dst_mac", [b"\xff" * 6,
                                         b"\x02\x00\x00\x00\x00\x99"],
                             ids=["broadcast", "unknown_unicast"])
    def test_flooded_to_every_front(self, dst_mac):
        system = build_domU_standard(n_nics=2)
        self._receive(system, dst_mac)
        assert self._rx_counts(system) == [1, 1]
        assert system.extras["backend"].rx_no_front == 0

    def test_known_unicast_reaches_its_front_only(self):
        system = build_domU_standard(n_nics=2)
        self._receive(system, system.extras["fronts"][1].mac)
        assert self._rx_counts(system) == [0, 1]

    def test_copies_charged_per_front_and_frame_once(self):
        system = build_domU_standard(n_nics=2)
        costs = system.costs
        self._receive(system, b"\xff" * 6)                  # warm up
        deltas = []
        for dst_mac in (system.extras["fronts"][0].mac, b"\xff" * 6):
            before = system.snapshot()
            self._receive(system, dst_mac)
            deltas.append(system.delta_since(before))
        unicast, flooded = deltas
        per_copy = (costs.grant_copy_per_packet + costs.event_channel_send
                    + costs.domain_switch + costs.xen_std_rx_misc
                    + costs.pv_kernel_rx_overhead)
        assert flooded["Xen"] - unicast["Xen"] == per_copy
        assert flooded["dom0"] == unicast["dom0"]
        assert flooded["domU"] - unicast["domU"] == costs.kernel_rx_stack
