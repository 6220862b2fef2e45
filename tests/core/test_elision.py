"""Proof-based check elision (prove-then-elide).

The verifier's range pass emits a :class:`ProofAnnotation` per fast-path
site whose address provably stays inside an anchor's checked page pair;
:func:`apply_elision` consumes them, replacing the ten-instruction stlb
check with a single reload of the anchor's stored translation. These
tests check the transform itself, the end-to-end semantic equivalence of
the elided twin (identical packet outcomes for both drivers), the
runtime elision counters, and recovery's reload of an elided instance.
"""

import pytest

from repro.configs import build_domU_twin
from repro.core import ParavirtNetDevice, TwinDriverManager
from repro.core.rewriter import (
    ANCHOR_SYMBOL,
    apply_elision,
    rewrite_driver,
)
from repro.analysis import verify_program
from repro.drivers import DRIVER_SPECS, RTL8139_SPEC
from repro.machine import Machine
from repro.osmodel import Kernel
from repro.xen import Hypervisor

GUEST_MAC = b"\x00\x16\x3e\xaa\x00\x01"


def make_twin(elide=True, driver=None):
    m = Machine()
    xen = Hypervisor(m)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
    guest = xen.create_domain("guest")
    kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
    twin = TwinDriverManager(xen, k0, elide=elide, driver=driver)
    nic = m.add_nic(model=driver.name if driver is not None else "e1000")
    twin.attach_nic(nic)
    dev = ParavirtNetDevice(twin, kg, mac=GUEST_MAC)
    xen.switch_to(guest)
    return m, xen, twin, dev, nic


def rx_frame(payload=b"\x00" * 700):
    return GUEST_MAC + b"\x00" * 6 + b"\x08\x00" + payload


class TestApplyElision:
    @pytest.mark.parametrize("name", sorted(DRIVER_SPECS))
    def test_transform_shape(self, name):
        rewritten, stats = rewrite_driver(
            DRIVER_SPECS[name].build_program())
        report = verify_program(rewritten, annotations=stats.annotations,
                                name=name)
        assert report.ok and report.proofs
        elided, result = apply_elision(rewritten, report.proofs)
        assert result.sites_elided == len(report.proofs)
        assert 0 < result.anchors < result.sites_elided
        # each elided site drops 8 of its 10 instructions; each anchor
        # gains one store
        expected = (len(rewritten.instructions)
                    - 8 * result.sites_elided + result.anchors)
        assert len(elided.instructions) == expected
        assert elided.name == f"{rewritten.name}.elided"
        # the anchor data symbols are fresh, one 4-byte slot per anchor
        assert result.anchor_symbols == tuple(
            (ANCHOR_SYMBOL.format(k), 4) for k in range(result.anchors))
        # replacements and stores land where the result says they do
        for index in result.elided_indices:
            ins = elided.instructions[index]
            assert ins.mnemonic == "mov"
            assert ins.operands[0].symbol.startswith("__svm_anchor")
        for index in result.anchor_indices:
            ins = elided.instructions[index]
            assert ins.mnemonic == "mov"
            assert ins.operands[1].symbol.startswith("__svm_anchor")

    def test_refuses_duplicate_and_nested(self):
        rewritten, stats = rewrite_driver(RTL8139_SPEC.build_program())
        report = verify_program(rewritten, annotations=stats.annotations)
        proofs = report.proofs
        with pytest.raises(ValueError, match="duplicate proof"):
            apply_elision(rewritten, list(proofs) + [proofs[0]])
        elided, _ = apply_elision(rewritten, proofs)
        with pytest.raises(ValueError, match="refusing to elide"):
            apply_elision(elided, proofs)

    def test_elided_binary_fails_hostile_verification(self):
        """The output intentionally contains bare translated accesses:
        it must only ever be loaded with the pre-elision report."""
        rewritten, stats = rewrite_driver(RTL8139_SPEC.build_program())
        report = verify_program(rewritten, annotations=stats.annotations)
        elided, _ = apply_elision(rewritten, report.proofs)
        assert not verify_program(elided).ok


class TestElidedTwinSemantics:
    @pytest.mark.parametrize("driver", [None, RTL8139_SPEC],
                             ids=["e1000", "rtl8139"])
    def test_identical_packet_outcomes(self, driver):
        m0, _, twin0, dev0, nic0 = make_twin(elide=False, driver=driver)
        m1, _, twin1, dev1, nic1 = make_twin(elide=True, driver=driver)
        for _ in range(8):
            assert dev0.transmit(700)
            assert dev1.transmit(700)
        assert m1.wire.tx_count == m0.wire.tx_count == 8
        dev0.keep_rx_payloads = dev1.keep_rx_payloads = True
        for _ in range(8):
            assert m0.wire.inject(nic0, rx_frame())
            assert m1.wire.inject(nic1, rx_frame())
        assert dev1.rx_packets == dev0.rx_packets == 8
        assert dev1.rx_payloads == dev0.rx_payloads
        # the hypervisor instance really ran with checks elided
        assert twin1.svm.counters_snapshot()["elided"] > 0
        assert twin0.svm.counters_snapshot()["elided"] == 0

    def test_elision_reduces_stlb_traffic_not_correctness(self):
        m0, _, twin0, dev0, _ = make_twin(elide=False)
        m1, _, twin1, dev1, _ = make_twin(elide=True)
        for _ in range(16):
            assert dev0.transmit(700)
            assert dev1.transmit(700)
        base = twin0.svm.counters_snapshot()
        el = twin1.svm.counters_snapshot()
        # elided sites skip the stlb entirely: each counted elision is a
        # lookup that no longer happens, and misses must not increase
        assert el["elided"] > 0
        assert el["miss"] <= base["miss"]
        # the identity (dom0 VM) instance elides too — management calls
        # run through the same transformed binary
        assert twin1.identity_svm.counters_snapshot()["elided"] > 0

    def test_config_builder_passthrough(self):
        sys = build_domU_twin(n_nics=1, elide=True)
        assert sys.twin.elision is not None
        assert sys.transmit_packets(4) == 4
        assert sys.twin.svm.counters_snapshot()["elided"] > 0


class TestElisionRecovery:
    def test_recovery_reloads_elided_instance(self):
        m, xen, twin, dev, nic = make_twin(elide=True)
        for _ in range(5):
            assert dev.transmit(700)
        twin.svm.inject_fault()
        assert dev.transmit(700)        # contained, served degraded
        for _ in range(4):
            if not twin.recovery.degraded:
                break
            assert dev.transmit(700)
        assert twin.recovery.state == "active"
        snap = twin.recovery.counters_snapshot()
        assert snap["reload_success"] == 1
        # the reloaded instance is the elided binary and still counts
        before = twin.svm.counters_snapshot()["elided"]
        sent = m.wire.tx_count
        for _ in range(5):
            assert dev.transmit(700)
        assert m.wire.tx_count == sent + 5
        assert twin.svm.counters_snapshot()["elided"] > before

    def test_manual_reload_reverifies_pre_elision_binary(self):
        _, _, twin, dev, _ = make_twin(elide=True)
        twin.reload_hyp_driver()        # verify_report=None path
        assert dev.transmit(700)
        assert twin.svm.counters_snapshot()["elided"] > 0
