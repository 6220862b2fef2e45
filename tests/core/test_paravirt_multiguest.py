"""Paravirtual device details and multi-guest / multi-NIC twin setups."""

import pytest

from repro.core import HEADER_COPY_BYTES, ParavirtNetDevice, \
    TwinDriverManager
from repro.machine import Machine, PAGE_SIZE
from repro.osmodel import Kernel
from repro.xen import Hypervisor


def make_env(n_nics=1, n_guests=1):
    m = Machine()
    xen = Hypervisor(m)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
    twin = TwinDriverManager(xen, k0, pool_size=512)
    nics = [m.add_nic() for _ in range(n_nics)]
    for nic in nics:
        twin.attach_nic(nic)
    devices = []
    for g in range(n_guests):
        guest = xen.create_domain(f"guest{g}")
        kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
        devices.append(ParavirtNetDevice(
            twin, kg, mac=b"\x00\x16\x3e\xaa\x01" + bytes([g + 1])))
    xen.switch_to(devices[0].kernel.domain)
    return m, xen, twin, devices, nics


class TestFragmentation:
    def test_small_frame_header_only(self):
        m, xen, twin, (dev,), nics = make_env()
        header, frags = dev.guest_frame_fragments(dev._tx_buf, 80)
        assert len(header) == 80
        assert frags == []

    def test_large_frame_splits_at_96(self):
        m, xen, twin, (dev,), nics = make_env()
        header, frags = dev.guest_frame_fragments(dev._tx_buf, 1400)
        assert len(header) == HEADER_COPY_BYTES
        assert sum(size for _, _, size in frags) == 1400 - HEADER_COPY_BYTES

    def test_fragments_never_cross_pages(self):
        m, xen, twin, (dev,), nics = make_env()
        # force the staging buffer to start near a page end is not
        # possible (page-aligned alloc), but a frame longer than
        # one page minus the header must split into two fragments
        header, frags = dev.guest_frame_fragments(dev._tx_buf,
                                                  PAGE_SIZE + 500)
        assert len(frags) == 2
        for page, off, size in frags:
            assert off + size <= PAGE_SIZE
            assert page % PAGE_SIZE == 0

    def test_fragment_pages_are_machine_addresses(self):
        m, xen, twin, (dev,), nics = make_env()
        _, frags = dev.guest_frame_fragments(dev._tx_buf, 1400)
        for page, off, size in frags:
            frame = page >> 12
            assert m.phys.frame_allocated(frame)


class TestMultiGuest:
    def test_demux_by_mac(self):
        m, xen, twin, devices, nics = make_env(n_guests=3)
        for i, dev in enumerate(devices):
            dev.keep_rx_payloads = True
            frame = dev.mac + b"\x00" * 6 + b"\x08\x00" + bytes([i]) * 100
            assert m.wire.inject(nics[0], frame)
        for i, dev in enumerate(devices):
            assert dev.rx_packets == 1
            assert dev.rx_payloads[0] == bytes([i]) * 100

    def test_each_guest_can_transmit(self):
        m, xen, twin, devices, nics = make_env(n_guests=3)
        m.wire.keep_payloads = True
        for dev in devices:
            xen.switch_to(dev.kernel.domain)
            assert dev.transmit(300)
        macs = {frame[6:12] for frame in m.wire.transmitted}
        assert macs == {dev.mac for dev in devices}

    def test_transmit_from_any_context_no_switch(self):
        m, xen, twin, devices, nics = make_env(n_guests=2)
        xen.switch_to(devices[1].kernel.domain)
        before = xen.switches
        assert devices[1].transmit(500)
        assert xen.switches == before


class TestMultiNic:
    def test_guest_devices_spread_over_nics(self):
        m, xen, twin, devices, nics = make_env(n_nics=3, n_guests=3)
        assert {d.netdev_addr for d in devices} == set(twin.netdev_order)

    def test_traffic_on_each_nic(self):
        m, xen, twin, devices, nics = make_env(n_nics=3, n_guests=3)
        for dev in devices:
            xen.switch_to(dev.kernel.domain)
            for _ in range(4):
                assert dev.transmit(600)
        for nic in nics:
            assert nic.stats.tx_packets == 4

    def test_rx_on_each_nic(self):
        m, xen, twin, devices, nics = make_env(n_nics=2, n_guests=2)
        for nic, dev in zip(nics, devices):
            frame = dev.mac + b"\x00" * 6 + b"\x08\x00" + bytes(200)
            assert m.wire.inject(nic, frame)
        assert all(dev.rx_packets == 1 for dev in devices)

    def test_explicit_binding(self):
        m, xen, twin, devices, nics = make_env(n_nics=2, n_guests=1)
        devices[0].netdev_addr = twin.netdev_order[1]
        xen.switch_to(devices[0].kernel.domain)
        assert devices[0].transmit(400)
        assert nics[1].stats.tx_packets == 1
        assert nics[0].stats.tx_packets == 0


class TestToolchainRoundTrip:
    """The generated (rewritten) program is itself valid assembly and
    valid binary: text and bytes both round-trip."""

    def test_rewritten_driver_text_roundtrip(self):
        from repro.core import rewrite_driver
        from repro.drivers import build_e1000_program
        from repro.isa import assemble
        rewritten, _ = rewrite_driver(build_e1000_program())
        again = assemble(rewritten.to_text(), name="again")
        assert [i.format() for i in again.instructions] == \
            [i.format() for i in rewritten.instructions]
        assert again.labels == rewritten.labels

    def test_rewritten_driver_binary_roundtrip(self):
        from repro.core import rewrite_driver
        from repro.drivers import build_e1000_program
        from repro.isa import decode_program, encode_program
        rewritten, _ = rewrite_driver(build_e1000_program())
        data = encode_program(rewritten)
        again = decode_program(data, labels=rewritten.labels)
        assert [i.format() for i in again.instructions] == \
            [i.format() for i in rewritten.instructions]

    def test_binary_size_reported(self):
        from repro.core import rewrite_driver
        from repro.drivers import build_e1000_program
        from repro.isa import code_size
        program = build_e1000_program()
        rewritten, _ = rewrite_driver(program)
        assert code_size(rewritten) > code_size(program)
