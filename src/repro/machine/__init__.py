"""Simulated hardware: memory, paging, CPU interpreter, interrupts, NICs."""

from .cpu import (
    CodeRegistry,
    Cpu,
    CpuBudgetExceeded,
    ExecutionFault,
    InstructionCosts,
    LoadedProgram,
    NativeRegistry,
    NativeRoutine,
    NATIVE_BASE,
    SENTINEL_RETURN,
)
from .interrupts import InterruptController
from .iommu import DmaWindow, Iommu, IommuFault
from .machine import Machine, NIC_IRQ_BASE, NIC_MMIO_PHYS_BASE, NIC_MMIO_STRIDE
from .memory import (
    BusError,
    MMIORegion,
    OFFSET_MASK,
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    PhysicalMemory,
)
from .nic import E1000Device, NicDevice, NicStats, Wire
from .paging import (
    AddressSpace,
    HYPERVISOR_BASE,
    PageFault,
    PageTable,
    ProtectionFault,
)

__all__ = [
    "AddressSpace",
    "BusError",
    "CodeRegistry",
    "Cpu",
    "CpuBudgetExceeded",
    "E1000Device",
    "ExecutionFault",
    "HYPERVISOR_BASE",
    "InstructionCosts",
    "DmaWindow",
    "Iommu",
    "IommuFault",
    "InterruptController",
    "LoadedProgram",
    "MMIORegion",
    "Machine",
    "NATIVE_BASE",
    "NIC_IRQ_BASE",
    "NIC_MMIO_PHYS_BASE",
    "NIC_MMIO_STRIDE",
    "NativeRegistry",
    "NativeRoutine",
    "NicDevice",
    "NicStats",
    "OFFSET_MASK",
    "PAGE_MASK",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PageFault",
    "PageTable",
    "PhysicalMemory",
    "ProtectionFault",
    "SENTINEL_RETURN",
    "Wire",
]
