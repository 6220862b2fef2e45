"""Virtual memory: page tables and address spaces.

Each domain gets an :class:`AddressSpace`. Xen-style, the hypervisor's own
mappings live in a :class:`PageTable` that is *shared* into every address
space above ``HYPERVISOR_BASE`` — that is exactly the property TwinDrivers
exploits: hypervisor code, its stack, the stlb table and the SVM-created
mappings of dom0 pages are visible from any guest context, so the
hypervisor driver instance runs without an address-space switch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .memory import OFFSET_MASK, PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

#: Virtual addresses at or above this are hypervisor territory (mirrors
#: Xen living in the top of every address space).
HYPERVISOR_BASE = 0xF0000000

#: A RAM page-cache value: the frame's bytes and the page's RAM price
#: (None when only a per-access check can price it).
PageEntry = Tuple[bytearray, Optional[int]]


class PageFault(Exception):
    """Translation of an unmapped virtual address."""

    def __init__(self, vaddr: int, write: bool, space: str):
        kind = "write" if write else "read"
        super().__init__(
            f"page fault: {kind} of {vaddr:#010x} in address space {space}"
        )
        self.vaddr = vaddr
        self.write = write
        self.space = space


class ProtectionFault(Exception):
    """Write to a read-only mapping."""

    def __init__(self, vaddr: int, space: str):
        super().__init__(
            f"protection fault: write to read-only {vaddr:#010x} in {space}"
        )
        self.vaddr = vaddr


class PageTable:
    """vpage -> (frame, writable). Aliasing is allowed: several virtual
    pages may map the same frame (SVM relies on this)."""

    def __init__(self):
        self.entries: Dict[int, Tuple[int, bool]] = {}
        #: the RAM page caches of every address space that translates
        #: through this table; changing a page's entry drops that page
        #: from each of them.
        self.page_caches: List[Dict[int, PageEntry]] = []

    def map(self, vpage: int, frame: int, writable: bool = True):
        self.entries[vpage] = (frame, writable)
        for cache in self.page_caches:
            cache.pop(vpage, None)

    def unmap(self, vpage: int):
        self.entries.pop(vpage, None)
        for cache in self.page_caches:
            cache.pop(vpage, None)

    def lookup(self, vpage: int) -> Optional[Tuple[int, bool]]:
        return self.entries.get(vpage)

    def __len__(self):
        return len(self.entries)


class AddressSpace:
    """A domain's virtual address space, with the hypervisor region shared.

    ``hypervisor_table`` (if given) services translations at or above
    ``HYPERVISOR_BASE``; per-domain mappings may not be created there.
    """

    def __init__(self, name: str, phys: PhysicalMemory,
                 hypervisor_table: Optional[PageTable] = None):
        self.name = name
        self.phys = phys
        self.table = PageTable()
        self.hypervisor_table = hypervisor_table
        #: RAM page cache, filled by the CPU on a translation: virtual
        #: page -> (the frame ``bytearray`` it maps, the page's price),
        #: for reads and for writable mappings. The price is the scaled
        #: ``mem_hot`` when one of the CPU's hot ranges covers the page,
        #: ``mem`` when none touches it, and None when a range edge
        #: falls inside it (the CPU then checks each access). Only plain
        #: RAM pages enter it (``PhysicalMemory.ram_frame``). A
        #: translation changes only through ``PageTable.map``/``unmap``
        #: on either table or a new MMIO region, and a price only
        #: through ``Cpu.add_hot_range`` or a ``cycle_scale`` change;
        #: each of those drops what it affects. Frames are never freed,
        #: so a cached ``bytearray`` is always live.
        self.read_pages: Dict[int, PageEntry] = {}
        self.write_pages: Dict[int, PageEntry] = {}
        for owner in (self.table, hypervisor_table, phys):
            if owner is not None:
                owner.page_caches += (self.read_pages, self.write_pages)

    # -- mapping -------------------------------------------------------------

    def map_page(self, vaddr: int, frame: int, writable: bool = True):
        if vaddr & OFFSET_MASK:
            raise ValueError("vaddr must be page aligned")
        if vaddr >= HYPERVISOR_BASE and self.hypervisor_table is not None:
            raise ValueError(
                "domain mappings may not shadow the hypervisor region"
            )
        self.table.map(vaddr >> PAGE_SHIFT, frame, writable)

    def unmap_page(self, vaddr: int):
        self.table.unmap(vaddr >> PAGE_SHIFT)

    def map_new_pages(self, vaddr: int, n: int, writable: bool = True):
        """Allocate ``n`` fresh frames and map them at ``vaddr``."""
        for i in range(n):
            frame = self.phys.allocate_frame()
            self.map_page(vaddr + i * PAGE_SIZE, frame, writable)

    def is_mapped(self, vaddr: int) -> bool:
        try:
            self.translate(vaddr)
            return True
        except PageFault:
            return False

    def pages_mapped(self) -> Iterable[int]:
        return (vpage << PAGE_SHIFT for vpage in self.table.entries)

    # -- translation -----------------------------------------------------------

    def translate(self, vaddr: int, write: bool = False) -> int:
        vaddr &= 0xFFFFFFFF
        vpage = vaddr >> PAGE_SHIFT
        entry = None
        if vaddr >= HYPERVISOR_BASE and self.hypervisor_table is not None:
            entry = self.hypervisor_table.lookup(vpage)
        if entry is None:
            entry = self.table.lookup(vpage)
        if entry is None:
            raise PageFault(vaddr, write, self.name)
        frame, writable = entry
        if write and not writable:
            raise ProtectionFault(vaddr, self.name)
        return (frame << PAGE_SHIFT) | (vaddr & OFFSET_MASK)

    def frame_of(self, vaddr: int) -> int:
        return self.translate(vaddr) >> PAGE_SHIFT

    # -- convenience memory access (Python-side kernel code) ---------------------

    def read(self, vaddr: int, size: int, write_check: bool = False) -> int:
        return self._access(vaddr, size, None)

    def write(self, vaddr: int, size: int, value: int):
        self._access(vaddr, size, value)

    def _access(self, vaddr: int, size: int, value: Optional[int]):
        # Accesses may straddle a page boundary; split on page lines.
        if (vaddr & OFFSET_MASK) + size <= PAGE_SIZE:
            paddr = self.translate(vaddr, write=value is not None)
            if value is None:
                return self.phys.read(paddr, size)
            self.phys.write(paddr, size, value)
            return None
        if value is None:
            raw = self.read_bytes(vaddr, size)
            return int.from_bytes(raw, "little")
        self.write_bytes(vaddr, (value & ((1 << (size * 8)) - 1))
                         .to_bytes(size, "little"))
        return None

    def read_u32(self, vaddr: int) -> int:
        return self.read(vaddr, 4)

    def write_u32(self, vaddr: int, value: int):
        self.write(vaddr, 4, value)

    def read_bytes(self, vaddr: int, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            chunk = min(n, PAGE_SIZE - (vaddr & OFFSET_MASK))
            paddr = self.translate(vaddr)
            out += self.phys.read_bytes(paddr, chunk)
            vaddr += chunk
            n -= chunk
        return bytes(out)

    def write_bytes(self, vaddr: int, payload: bytes):
        pos = 0
        while pos < len(payload):
            chunk = min(len(payload) - pos,
                        PAGE_SIZE - (vaddr & OFFSET_MASK))
            paddr = self.translate(vaddr, write=True)
            self.phys.write_bytes(paddr, payload[pos: pos + chunk])
            vaddr += chunk
            pos += chunk
