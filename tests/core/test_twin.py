"""TwinDriverManager end-to-end: both instances, guest I/O, upcalls,
maintenance, the virtual interrupt flag, and the §4.5 safety property."""

import pytest

from repro.core import DriverAborted, HYPERVISOR_FAST_PATH, \
    ParavirtNetDevice, TwinDriverManager
from repro.isa import Instruction, Mem, Reg
from repro.machine import Machine
from repro.osmodel import Kernel, layout as L
from repro.osmodel.netdev import NetDevice
from repro.xen import HYP_STACK_PAGES, TWIN_LAYOUTS, Hypervisor

GUEST_MAC = b"\x00\x16\x3e\xaa\x00\x01"


def make_twin(upcall_routines=(), n_nics=1):
    m = Machine()
    xen = Hypervisor(m)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
    guest = xen.create_domain("guest")
    kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
    twin = TwinDriverManager(xen, k0, upcall_routines=upcall_routines)
    nics = [m.add_nic() for _ in range(n_nics)]
    for nic in nics:
        twin.attach_nic(nic)
    dev = ParavirtNetDevice(twin, kg, mac=GUEST_MAC)
    xen.switch_to(guest)
    return m, xen, twin, dev, nics


class TestSetup:
    def test_same_rewritten_binary_for_both_instances(self):
        m, xen, twin, dev, nics = make_twin()
        vm = twin.vm_module.loaded
        hyp = twin.hyp_driver.loaded
        assert vm.program is not hyp.program     # separately resolved
        assert [i.mnemonic for i in vm.program.instructions] == \
            [i.mnemonic for i in hyp.program.instructions]

    def test_constant_code_offset(self):
        # §5.1.2: addresses differ by one constant for every routine
        m, xen, twin, dev, nics = make_twin()
        vm = twin.vm_module.loaded
        hyp = twin.hyp_driver.loaded
        offsets = {hyp.symbols[s] - vm.symbols[s] for s in vm.symbols}
        assert offsets == {twin.hyp_driver.code_offset}

    def test_data_symbols_point_into_dom0(self):
        m, xen, twin, dev, nics = make_twin()
        for name, addr in twin.vm_module.data_symbols.items():
            if name.startswith("__"):
                continue
            assert addr < 0xF0000000, name

    def test_probe_ran_in_vm_instance(self):
        m, xen, twin, dev, nics = make_twin()
        dom0_space = twin.dom0_kernel.domain.aspace
        assert dom0_space.read_u32(
            twin.vm_module.data_symbols["e1000_probe_count"]) == 1

    def test_unknown_upcall_routine_rejected(self):
        m = Machine()
        xen = Hypervisor(m)
        dom0 = xen.create_domain("dom0", is_dom0=True)
        k0 = Kernel(m, dom0, costs=xen.costs)
        with pytest.raises(ValueError):
            TwinDriverManager(xen, k0, upcall_routines=("bogus",))


class TestInstanceLayout:
    """The k-th twin built on a hypervisor takes ``TWIN_LAYOUTS[k]``."""

    def test_second_twin_takes_the_hyp2_layout(self):
        m, xen, first, dev, nics = make_twin()
        second = TwinDriverManager(xen, first.dom0_kernel)
        assert xen.twins == [first, second]
        layout = TWIN_LAYOUTS[1]
        assert (first.instance_name, second.instance_name) == ("hyp", "hyp2")
        assert second.hyp_driver.loaded.base == layout.code_base
        assert second.hyp_driver.stack_top == \
            layout.stack_base + HYP_STACK_PAGES * 0x1000
        assert second.hyp_alloc.base == layout.data_base
        assert second.svm.map_base == layout.svm_map_base
        assert second.svm.name == "hyp2-stlb"
        assert second.identity_svm.name == "hyp2-dom0-stlb"
        assert "hyp2.dom0.__svm_slow_path" in m.natives.by_name
        assert "hyp2.netif_rx" in m.natives.by_name
        # the first instance keeps its own layout and names
        assert first.hyp_driver.loaded.base == TWIN_LAYOUTS[0].code_base
        assert (first.svm.name, first.identity_svm.name) == \
            ("hyp-stlb", "dom0-stlb")

    def test_third_twin_is_refused(self):
        m, xen, first, dev, nics = make_twin()
        TwinDriverManager(xen, first.dom0_kernel)
        with pytest.raises(ValueError, match="already hosts 2 twin"):
            TwinDriverManager(xen, first.dom0_kernel)
        assert len(xen.twins) == 2


class TestGuestTransmit:
    def test_payload_reaches_wire_intact(self):
        m, xen, twin, dev, nics = make_twin()
        m.wire.keep_payloads = True
        payload = bytes(range(256)) * 5
        assert dev.transmit(len(payload), payload=payload)
        frame = m.wire.transmitted[0]
        assert frame[6:12] == GUEST_MAC
        assert frame[14:] == payload

    def test_no_domain_switch_on_tx(self):
        m, xen, twin, dev, nics = make_twin()
        dev.transmit(1000)
        switches_before = xen.switches
        for _ in range(10):
            dev.transmit(1000)
        assert xen.switches == switches_before

    def test_tx_executes_in_guest_context(self):
        m, xen, twin, dev, nics = make_twin()
        assert xen.current.name == "guest"
        dev.transmit(500)
        assert xen.current.name == "guest"
        assert m.cpu.address_space is dev.kernel.domain.aspace

    def test_large_frame_chains_fragments(self):
        m, xen, twin, dev, nics = make_twin()
        m.wire.keep_payloads = True
        dev.transmit(1400)
        # 96-byte header copy + at least one guest-page fragment
        assert len(m.wire.transmitted[0]) == 1414

    def test_pool_recycles(self):
        m, xen, twin, dev, nics = make_twin()
        nics[0].interrupt_batch = 1
        start = twin.hyp_support.pool.available
        for _ in range(50):
            assert dev.transmit(800)
        assert twin.hyp_support.pool.available == start

    def test_pool_exhaustion_fails_gracefully(self):
        m, xen, twin, dev, nics = make_twin()
        twin.hyp_support.pool.free = []
        assert not dev.transmit(500)
        assert dev.tx_busy == 1
        assert twin.hyp_support.pool.underflows == 1

    def test_driver_stats_updated_through_svm(self):
        m, xen, twin, dev, nics = make_twin()
        for _ in range(4):
            dev.transmit(700)
        ndev = NetDevice(twin.dom0_kernel.domain.aspace, dev.netdev_addr)
        assert ndev.tx_packets == 4


class TestGuestReceive:
    def frame(self, n=900):
        return GUEST_MAC + b"\x00" * 6 + b"\x08\x00" + bytes(range(256))[:0] \
            + bytes(n)

    def test_rx_demux_and_copy(self):
        m, xen, twin, dev, nics = make_twin()
        dev.keep_rx_payloads = True
        payload = bytes(range(200)) * 3
        frame = GUEST_MAC + b"\x00" * 6 + b"\x08\x00" + payload
        assert m.wire.inject(nics[0], frame)
        assert dev.rx_packets == 1
        assert dev.rx_payloads[0] == payload

    def test_rx_unknown_unicast_dropped(self):
        m, xen, twin, dev, nics = make_twin()
        frame = b"\x0a" * 6 + b"\x00" * 6 + b"\x08\x00" + bytes(100)
        m.wire.inject(nics[0], frame)
        assert dev.rx_packets == 0
        assert twin.rx_dropped_no_guest == 1

    def test_rx_multicast_reaches_guest(self):
        # group bit set in the destination MAC: not a misdelivery
        m, xen, twin, dev, nics = make_twin()
        frame = b"\x0b" * 6 + b"\x00" * 6 + b"\x08\x00" + bytes(100)
        m.wire.inject(nics[0], frame)
        assert dev.rx_packets == 1

    def test_rx_respects_dom0_virq_flag(self):
        # §4.4: the hypervisor must not run the driver ISR while dom0 has
        # (virtually) disabled interrupts. Re-enabling the flag must
        # replay the deferred interrupt by itself — no manual retry.
        m, xen, twin, dev, nics = make_twin()
        twin.dom0_kernel.domain.disable_virq()
        m.wire.inject(nics[0], self.frame())
        assert dev.rx_packets == 0
        assert twin.held
        twin.dom0_kernel.domain.enable_virq()
        assert dev.rx_packets == 1
        assert not twin.held

    def test_rx_deferred_irq_replayed_on_schedule(self):
        # the other unmask path: dom0 scheduled with virqs enabled
        m, xen, twin, dev, nics = make_twin()
        dom0 = twin.dom0_kernel.domain
        dom0.disable_virq()
        m.wire.inject(nics[0], self.frame())
        assert dev.rx_packets == 0
        dom0.virq_enabled = True        # flag flips without the hook
        xen.schedule_domain(dom0)
        assert dev.rx_packets == 1

    def test_rx_ring_refilled_from_pool(self):
        m, xen, twin, dev, nics = make_twin()
        for _ in range(80):     # more than the ring size
            assert m.wire.inject(nics[0], self.frame())
        assert dev.rx_packets == 80


class TestVmInstanceManagement:
    def test_get_stats_via_vm_instance(self):
        m, xen, twin, dev, nics = make_twin()
        for _ in range(3):
            dev.transmit(600)
        twin.vm_call("e1000_get_stats", [dev.netdev_addr])
        ndev = NetDevice(twin.dom0_kernel.domain.aspace, dev.netdev_addr)
        assert ndev.tx_packets == 3

    def test_vm_call_switches_and_restores(self):
        m, xen, twin, dev, nics = make_twin()
        assert xen.current.name == "guest"
        twin.vm_call("e1000_ethtool_get_link", [dev.netdev_addr])
        assert xen.current.name == "guest"

    def test_watchdog_runs_in_dom0(self):
        m, xen, twin, dev, nics = make_twin()
        twin.dom0_kernel.advance_jiffies(10)
        assert twin.run_vm_maintenance() == 1

    def test_vm_instance_runs_identity_stlb(self):
        m, xen, twin, dev, nics = make_twin()
        # the VM instance executed probe/open: its stlb has identity fills
        assert twin.identity_svm.misses > 0
        assert twin.identity_svm.mappings == {}

    def test_set_mac_via_vm_instance_affects_hypervisor_path(self):
        m, xen, twin, dev, nics = make_twin()
        buf = twin.dom0_kernel.heap.alloc(8)
        new_mac = b"\x02\x00\x00\x00\x00\x42"
        twin.dom0_kernel.memory_view().write_bytes(buf, new_mac)
        twin.vm_call("e1000_set_mac", [dev.netdev_addr, buf])
        m.wire.keep_payloads = True
        dev2_mac = NetDevice(twin.dom0_kernel.domain.aspace,
                             dev.netdev_addr).mac
        assert dev2_mac == new_mac


class TestUpcalls:
    def test_upcalls_made_for_demoted_routine(self):
        m, xen, twin, dev, nics = make_twin(
            upcall_routines=("dma_map_single",))
        for _ in range(5):
            assert dev.transmit(700)
        assert twin.upcalls.calls_by_name["dma_map_single"] >= 5

    def test_upcall_returns_correct_value(self):
        # the skb still reaches the NIC: the dom0 dma_map_single result
        # travelled back through the upcall
        m, xen, twin, dev, nics = make_twin(
            upcall_routines=("dma_map_single",))
        m.wire.keep_payloads = True
        payload = b"\xAB" * 600
        assert dev.transmit(len(payload), payload=payload)
        assert m.wire.transmitted[0][14:] == payload

    def test_upcall_switches_to_dom0_and_back(self):
        m, xen, twin, dev, nics = make_twin(
            upcall_routines=("dma_map_single",))
        before = xen.switches
        dev.transmit(500)
        assert xen.switches >= before + 2

    def test_upcall_cost_calibrated(self):
        m, xen, twin, dev, nics = make_twin(
            upcall_routines=("dma_map_single",))
        # steady state
        for _ in range(8):
            dev.transmit(500)
        upcalls_before = twin.upcalls.upcalls
        snap = m.account.snapshot()
        for _ in range(8):
            dev.transmit(500)
        made = twin.upcalls.upcalls - upcalls_before
        assert made >= 8
        # compare against the no-upcall configuration
        m2, xen2, twin2, dev2, nics2 = make_twin()
        for _ in range(8):
            dev2.transmit(500)
        snap2 = m2.account.snapshot()
        for _ in range(8):
            dev2.transmit(500)
        with_up = sum(m.account.delta_since(snap).values())
        without = sum(m2.account.delta_since(snap2).values())
        per_upcall = (with_up - without) / made
        assert 0.6 * xen.costs.upcall_round_trip < per_upcall < \
            1.6 * xen.costs.upcall_round_trip

    def test_all_nine_demoted_still_works(self):
        from repro.configs import UPCALL_SWEEP_ORDER
        m, xen, twin, dev, nics = make_twin(
            upcall_routines=UPCALL_SWEEP_ORDER)
        assert dev.transmit(500)
        frame = GUEST_MAC + b"\x00" * 6 + b"\x08\x00" + bytes(500)
        assert m.wire.inject(nics[0], frame)
        assert dev.rx_packets == 1


class TestSafety:
    """§4.5: a buggy hypervisor driver is aborted; the hypervisor and the
    rest of the system keep running."""

    def make_sabotaged_twin(self, target_addr):
        """Build a twin whose xmit path performs a wild write through an
        arbitrary pointer (a classic memory-corruption driver bug)."""
        from repro.drivers.e1000 import DRIVER_CONSTANTS
        from repro.isa import assemble
        import repro.drivers.e1000 as drv
        m = Machine()
        xen = Hypervisor(m)
        dom0 = xen.create_domain("dom0", is_dom0=True)
        k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
        guest = xen.create_domain("guest")
        kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
        bad_asm = drv.E1000_ASM.replace(
            "    incl e1000_xmit_calls",
            f"    movl ${target_addr}, %eax\n"
            "    movl $0x41414141, (%eax)\n"
            "    incl e1000_xmit_calls",
            1,
        )
        program = assemble(bad_asm, constants=DRIVER_CONSTANTS,
                           name="e1000-bad")
        # recovery off: this class asserts the raw §4.5 abort semantics
        # (tests/recovery/ covers the contained behaviour)
        twin = TwinDriverManager(xen, k0, program=program, recovery=False)
        nic = m.add_nic()
        twin.attach_nic(nic)
        dev = ParavirtNetDevice(twin, kg, mac=GUEST_MAC)
        xen.switch_to(guest)
        return m, xen, twin, dev

    def test_wild_write_to_hypervisor_aborts_driver(self):
        # the hypervisor's own data: SVM must refuse the access
        m, xen, twin, dev = self.make_sabotaged_twin(0xF0300040)
        with pytest.raises(DriverAborted):
            dev.transmit(500)
        assert twin.aborted
        assert twin.svm.protection_faults >= 1

    def test_hypervisor_survives_aborted_driver(self):
        m, xen, twin, dev = self.make_sabotaged_twin(0xF0300040)
        with pytest.raises(DriverAborted):
            dev.transmit(500)
        # hypervisor still functional: domain switches, events, and the
        # VM instance in dom0 still work
        xen.switch_to(twin.dom0_kernel.domain)
        assert twin.vm_call("e1000_ethtool_get_link",
                            [dev.netdev_addr]) in (0, 1)
        # but further hypervisor-driver invocations are refused
        xen.switch_to(xen.domains[1])
        with pytest.raises(DriverAborted):
            dev.transmit(500)

    def test_wild_write_to_unmapped_aborts(self):
        m, xen, twin, dev = self.make_sabotaged_twin(0x00001000)
        with pytest.raises(DriverAborted):
            dev.transmit(500)

    def test_wild_write_outside_dom0_aborts(self):
        # an address mapped in no address space at all (and below the
        # hypervisor region): SVM refuses it on the permission check
        m, xen, twin, dev = self.make_sabotaged_twin(0xBF000000)
        with pytest.raises(DriverAborted):
            dev.transmit(500)
        assert twin.aborted

    def test_sane_driver_not_aborted(self):
        m, xen, twin, dev, nics = make_twin()
        for _ in range(20):
            assert dev.transmit(500)
        assert not twin.aborted


class TestErrorPathUpcalls:
    """The paper's split: error handling is NOT on the fast path, so the
    routines it needs (netif_stop_queue, netif_wake_queue) have no
    hypervisor implementation — when the ring fills, the hypervisor
    driver reaches them through upcalls into dom0."""

    def test_ring_full_error_path_upcalls(self):
        from repro.machine.nic import REG_IMS, REG_TCTL
        m, xen, twin, dev, nics = make_twin()
        nic = nics[0]
        nic.mmio_write(REG_IMS, 4, 0)      # no cleaning interrupts
        nic.regs[REG_TCTL] = 0             # device stops consuming
        assert twin.upcalls.upcalls == 0
        sent = 0
        for _ in range(80):
            if not dev.transmit(300):
                break
            sent += 1
        assert sent < 80                   # the ring filled
        # netif_stop_queue went through an upcall into dom0
        assert twin.upcalls.calls_by_name.get("netif_stop_queue", 0) >= 1
        # and the queue-stopped state is visible in dom0's netdev struct
        ndev = NetDevice(twin.dom0_kernel.domain.aspace, dev.netdev_addr)
        assert ndev.queue_stopped

    def test_wake_after_drain_also_upcalls(self):
        from repro.machine.nic import REG_IMS, REG_TCTL, TCTL_EN, ICR_TXDW
        m, xen, twin, dev, nics = make_twin()
        nic = nics[0]
        nic.mmio_write(REG_IMS, 4, 0)
        nic.regs[REG_TCTL] = 0
        while dev.transmit(300):
            pass
        # drain: re-enable the device and deliver the cleaning interrupt
        nic.regs[REG_TCTL] = TCTL_EN
        nic.mmio_write(0x3818, 4, nic.regs[0x3818])   # re-kick TDT
        nic.mmio_write(REG_IMS, 4, ICR_TXDW)
        nic.flush_interrupts()
        assert twin.upcalls.calls_by_name.get("netif_wake_queue", 0) >= 1
        ndev = NetDevice(twin.dom0_kernel.domain.aspace, dev.netdev_addr)
        assert not ndev.queue_stopped
        # the guest can transmit again
        assert dev.transmit(300)
