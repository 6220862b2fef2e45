"""The Machine: one box wiring memory, CPU, interrupts and devices.

This is the paper's server: a 3.0 GHz Xeon with up to five gigabit NICs.
Higher layers (the Xen model, the kernels, TwinDrivers) all hang off one
``Machine`` instance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..metrics.cycles import CycleAccount
from ..metrics.throughput import CPU_HZ
from ..obs import Obs
from .cpu import (
    CodeRegistry,
    Cpu,
    InstructionCosts,
    LoadedProgram,
    NativeRegistry,
    NativeRoutine,
)
from .interrupts import InterruptController
from .iommu import Iommu
from .memory import PhysicalMemory
from .nic import E1000Device, NicDevice, Wire
from .paging import PageTable
from .rtl8139 import Rtl8139Device

#: Physical base of NIC MMIO apertures (one 16 KiB window per NIC).
NIC_MMIO_PHYS_BASE = 0xFEB00000
NIC_MMIO_STRIDE = 0x4000
NIC_IRQ_BASE = 16


class Machine:
    """The simulated server: memory, CPU, interrupts, NICs, the wire."""

    def __init__(self, frames: int = 65536,
                 costs: Optional[InstructionCosts] = None,
                 cpu_hz: int = CPU_HZ):
        self.phys = PhysicalMemory(frames=frames)
        self.intc = InterruptController()
        self.code = CodeRegistry()
        self.natives = NativeRegistry()
        #: observability: the metrics registry (always on) and the trace
        #: ring (off by default), shared by every layer on this machine.
        self.obs = Obs()
        self.account = CycleAccount(registry=self.obs.registry)
        self.obs.set_clock(lambda: self.account.total)
        self.cpu = Cpu(self.phys, self.code, self.natives, self.account,
                       costs=costs)
        self.cpu.tracer = self.obs.tracer
        # the profiler shadows account.charge when enabled; bind it to
        # this machine's CPU (pc capture + symbolization) and account
        self.obs.profiler.bind(self.cpu, self.account)
        self.obs.account = self.account
        self.cpu.profiler = self.obs.profiler
        self.cpu_hz = cpu_hz
        #: hypervisor page table, shared into every domain's address space.
        self.hypervisor_table = PageTable()
        self.nics: List[NicDevice] = []
        self.wire = Wire()
        #: optional DMA protection; attach with :meth:`attach_iommu`.
        self.iommu: Optional[Iommu] = None

    # -- devices ----------------------------------------------------------------

    def add_nic(self, mac: Optional[bytes] = None,
                model: str = "e1000", num_queues: int = 1) -> NicDevice:
        index = len(self.nics)
        mac = mac or bytes((0x00, 0x16, 0x3E, 0x00, 0x00, index + 1))
        device_cls = {"e1000": E1000Device, "rtl8139": Rtl8139Device}[model]
        nic = device_cls(
            self.phys,
            self.intc,
            irq=NIC_IRQ_BASE + index,
            mmio_phys_base=NIC_MMIO_PHYS_BASE + index * NIC_MMIO_STRIDE,
            mac=mac,
            name=f"eth{index}",
        )
        if num_queues != 1:
            nic.set_num_queues(num_queues)
        if self.iommu is not None:
            nic.iommu = self.iommu
        nic.tracer = self.obs.tracer
        self.wire.attach(nic)
        self.nics.append(nic)
        return nic

    def attach_iommu(self) -> Iommu:
        """Enable DMA protection: all NICs (present and future) get their
        transfers checked against programmed windows."""
        if self.iommu is None:
            self.iommu = Iommu()
        for nic in self.nics:
            nic.iommu = self.iommu
        return self.iommu

    # -- native routines ------------------------------------------------------------

    def register_native(self, name: str, fn, cost: int = 0,
                        category: Optional[str] = None) -> int:
        return self.natives.register(
            NativeRoutine(name, fn, cost=cost, category=category)
        )

    # -- code -------------------------------------------------------------------------

    def load_program(self, program, base: int,
                     extern: Optional[Dict[str, int]] = None,
                     name: Optional[str] = None) -> LoadedProgram:
        loaded = LoadedProgram(program, base, extern=extern, name=name)
        self.code.register(loaded)
        return loaded

    def load_linked_program(self, program, base: int,
                            symbols: Optional[Dict[str, int]] = None,
                            extern: Optional[Dict[str, int]] = None,
                            name: Optional[str] = None) -> LoadedProgram:
        """Load with full linking: data ``symbols`` and code-symbol
        immediates (e.g. ``movl $handler, ...``) are resolved to final
        addresses. Two passes because code addresses depend on the layout,
        which is invariant once symbols are folded."""
        symbols = dict(symbols or {})
        zeros = {label: 0 for label in program.labels}
        tentative = LoadedProgram(
            program.resolve({**symbols, **zeros}), base, extern=extern
        )
        resolved = program.resolve({**symbols, **tentative.symbols})
        return self.load_program(resolved, base, extern=extern, name=name)

    # -- time --------------------------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.account.total

    @property
    def seconds(self) -> float:
        return self.cycles / self.cpu_hz
