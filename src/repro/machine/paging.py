"""Virtual memory: page tables and address spaces.

Each domain gets an :class:`AddressSpace`. Xen-style, the hypervisor's own
mappings live in a :class:`PageTable` that is *shared* into every address
space above ``HYPERVISOR_BASE`` — that is exactly the property TwinDrivers
exploits: hypervisor code, its stack, the stlb table and the SVM-created
mappings of dom0 pages are visible from any guest context, so the
hypervisor driver instance runs without an address-space switch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .memory import (OFFSET_MASK, PAGE_SHIFT, PAGE_SIZE, PhysicalMemory,
                     read_frame, write_frame)

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
        #: RAM page cache: virtual page -> (the frame ``bytearray`` it
        #: maps, the page's price), for reads and for writable mappings.
        #: Every reader uses it: the CPU, and this class's own
        #: ``read``/``write``/``read_bytes``/``write_bytes``, which the
        #: kernel model, ``SvmView``, the support natives and the twin
        #: glue go through. ``cache_page`` is the one place an
        #: entry is stored, after a translation, and only for a plain
        #: RAM page (``PhysicalMemory.ram_frame``). The price comes from
        #: ``phys.page_price``, the CPU's: the scaled ``mem_hot`` when
        #: one of its hot ranges covers the page, ``mem`` when none
        #: touches it, and None when a range edge falls inside it (the
        #: CPU then checks each access). A translation changes only
        #: through ``PageTable.map``/``unmap`` on either table or a new
        #: MMIO region, and a price only through ``Cpu.add_hot_range``
        #: or a ``cycle_scale`` change; each of those drops what it
        #: affects. Frames are never freed, so a cached ``bytearray`` is
        #: always live.
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

    def cache_page(self, vaddr: int, paddr: int,
                   write: bool) -> Optional[bytearray]:
        """Store the page-cache entry of ``vaddr``'s page, which has just
        translated to ``paddr`` (for a write when ``write``), if that
        page is plain RAM. Returns the frame's bytes, or None when the
        page must not be cached (MMIO, no frame)."""
        data = self.phys.ram_frame(paddr >> PAGE_SHIFT)
        if data is not None:
            vpage = (vaddr >> PAGE_SHIFT) & 0xFFFFF
            pages = self.write_pages if write else self.read_pages
            pages[vpage] = (data, self.phys.page_price(vpage))
        return data

    # -- memory access (Python-side kernel, hypervisor and device code) -----------
    #
    # An access inside one page that the cache holds is one dict lookup
    # and an unpack or pack on the frame. Anything else translates first
    # (``PageFault``/``ProtectionFault``), caches the page, and goes
    # through ``PhysicalMemory`` (device dispatch, ``BusError``). A
    # page-crossing access is split on page lines.

    def read(self, vaddr: int, size: int) -> int:
        offset = vaddr & OFFSET_MASK
        if offset + size > PAGE_SIZE:
            return int.from_bytes(self.read_bytes(vaddr, size), "little")
        entry = self.read_pages.get(vaddr >> PAGE_SHIFT)
        if entry is not None:
            return read_frame(entry[0], offset, size)
        paddr = self.translate(vaddr)
        self.cache_page(vaddr, paddr, False)
        return self.phys.read(paddr, size)

    def write(self, vaddr: int, size: int, value: int):
        offset = vaddr & OFFSET_MASK
        if offset + size > PAGE_SIZE:
            self.write_bytes(vaddr, (value & ((1 << (size * 8)) - 1))
                             .to_bytes(size, "little"))
            return
        entry = self.write_pages.get(vaddr >> PAGE_SHIFT)
        if entry is not None:
            write_frame(entry[0], offset, size, value)
            return
        paddr = self.translate(vaddr, write=True)
        self.cache_page(vaddr, paddr, True)
        self.phys.write(paddr, size, value)

    def read_u32(self, vaddr: int) -> int:
        return self.read(vaddr, 4)

    def write_u32(self, vaddr: int, value: int):
        self.write(vaddr, 4, value)

    def _chunks(self, vaddr: int, n: int, write: bool):
        """``(frame bytes or None, offset, physical address, length)`` of
        each page-sized piece of ``n`` bytes at ``vaddr``, every page
        translated before any is returned. None is a page that is not
        plain RAM, which only the physical address reaches."""
        pages = self.write_pages if write else self.read_pages
        chunks = []
        while n > 0:
            offset = vaddr & OFFSET_MASK
            chunk = min(n, PAGE_SIZE - offset)
            entry = pages.get(vaddr >> PAGE_SHIFT)
            if entry is not None:
                chunks.append((entry[0], offset, None, chunk))
            else:
                paddr = self.translate(vaddr, write)
                chunks.append((self.cache_page(vaddr, paddr, write),
                               offset, paddr, chunk))
            vaddr += chunk
            n -= chunk
        return chunks

    def read_bytes(self, vaddr: int, n: int) -> bytes:
        offset = vaddr & OFFSET_MASK
        if offset + n <= PAGE_SIZE:
            entry = self.read_pages.get(vaddr >> PAGE_SHIFT)
            if entry is not None:
                return bytes(entry[0][offset: offset + n])
        out = bytearray()
        for data, offset, paddr, chunk in self._chunks(vaddr, n, False):
            if data is None:
                out += self.phys.read_bytes(paddr, chunk)
            else:
                out += data[offset: offset + chunk]
        return bytes(out)

    def write_bytes(self, vaddr: int, payload: bytes):
        """Write ``payload`` at ``vaddr``. Every page it touches is
        translated for a write first, so a fault on any of them leaves
        memory unchanged."""
        offset = vaddr & OFFSET_MASK
        n = len(payload)
        if offset + n <= PAGE_SIZE:
            entry = self.write_pages.get(vaddr >> PAGE_SHIFT)
            if entry is not None:
                entry[0][offset: offset + n] = payload
                return
        pos = 0
        for data, offset, paddr, chunk in self._chunks(vaddr, n, True):
            if data is None:
                self.phys.write_bytes(paddr, payload[pos: pos + chunk])
            else:
                data[offset: offset + chunk] = payload[pos: pos + chunk]
            pos += chunk
