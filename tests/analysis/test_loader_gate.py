"""Verify-then-load: the hypervisor loader refuses binaries the static
verifier rejects, and the TwinDriverManager publishes its report."""

import dataclasses

import pytest

from repro.analysis import VerificationError
from repro.core import ParavirtNetDevice, TwinDriverManager
from repro.isa import Instruction, Mem, Reg
from repro.machine import Machine
from repro.osmodel import Kernel
from repro.xen import TWIN_LAYOUTS, Hypervisor


def make_parts():
    m = Machine()
    xen = Hypervisor(m)
    dom0 = xen.create_domain("dom0", is_dom0=True)
    k0 = Kernel(m, dom0, costs=xen.costs, paravirtual=True)
    return m, xen, k0


def tampering(real_rewrite):
    """Wrap rewrite_driver so the 'rewriter' emits one raw store that the
    instrumentation provably missed."""

    def tampered(program, **kwargs):
        rewritten, stats = real_rewrite(program, **kwargs)
        evil = dataclasses.replace(
            rewritten,
            instructions=list(rewritten.instructions)
            + [Instruction("mov", (Reg("eax"), Mem(base="ebx"))),
               Instruction("ret", ())],
        )
        return evil, stats

    return tampered


def set_up_state(m, k0):
    """What building a twin takes from the machine and from dom0: the
    next physical frame, dom0's heap break, its driver modules, the
    registered natives, the loaded programs and the skb pool hook."""
    return (m.phys._next_frame, k0.heap._brk, len(k0.modules),
            len(m.natives.by_addr), list(m.code._programs), k0.pool_release)


class TestLoaderGate:
    def test_clean_driver_loads_and_report_is_published(self):
        m, xen, k0 = make_parts()
        twin = TwinDriverManager(xen, k0)
        assert twin.verify_report is not None
        assert twin.verify_report.ok
        assert twin.verify_report.mode == "annotated"

    def test_tampered_rewrite_is_refused(self, monkeypatch):
        import repro.core.twin as twin_mod

        monkeypatch.setattr(twin_mod, "rewrite_driver",
                            tampering(twin_mod.rewrite_driver))
        m, xen, k0 = make_parts()
        with pytest.raises(VerificationError) as exc:
            TwinDriverManager(xen, k0)
        report = exc.value.report
        assert any(f.passname == "svm" for f in report.errors)
        assert "REJECT" in report.format()

    def test_refused_twin_takes_no_layout(self, monkeypatch):
        import repro.core.twin as twin_mod

        m, xen, k0 = make_parts()
        before = set_up_state(m, k0)
        with monkeypatch.context() as patch:
            patch.setattr(twin_mod, "rewrite_driver",
                          tampering(twin_mod.rewrite_driver))
            with pytest.raises(VerificationError):
                TwinDriverManager(xen, k0)
        # refused before set-up: no frame, heap, module, native, loaded
        # program or pool hook taken
        assert set_up_state(m, k0) == before
        assert xen.twins == []
        twin = TwinDriverManager(xen, k0)
        assert xen.twins == [twin]
        assert twin.instance_name == "hyp"
        assert twin.hyp_driver.loaded.base == TWIN_LAYOUTS[0].code_base
        twin.attach_nic(m.add_nic())
        guest = xen.create_domain("guest")
        kg = Kernel(m, guest, costs=xen.costs, paravirtual=True)
        dev = ParavirtNetDevice(twin, kg, mac=b"\x00\x16\x3e\xaa\x00\x01")
        xen.switch_to(guest)
        assert dev.transmit(400)
