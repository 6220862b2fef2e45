"""Physical memory: frames, a frame allocator, and an MMIO bus.

All state the simulated system touches — driver data structures, sk_buffs,
NIC descriptor rings, page tables' targets, stacks — lives in instances of
:class:`PhysicalMemory`. Accessing an unallocated frame raises
:class:`BusError`, which catches stray DMA addresses and loader bugs.

Device registers are claimed as MMIO regions: physical accesses that fall
inside a region are dispatched to the owning device model instead of RAM,
exactly how the driver's register reads/writes reach our e1000 model.
"""

from __future__ import annotations

from struct import Struct
from typing import Callable, Dict, List, Optional, Tuple

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = ~(PAGE_SIZE - 1) & 0xFFFFFFFF
OFFSET_MASK = PAGE_SIZE - 1

#: little-endian accessors on a frame ``bytearray``, used by the RAM
#: fast paths of the interpreter, of JIT superblocks and of
#: ``read_frame``/``write_frame`` (every Python-side reader).
UNPACK_U16 = Struct("<H").unpack_from
UNPACK_U32 = Struct("<I").unpack_from
PACK_U16 = Struct("<H").pack_into
PACK_U32 = Struct("<I").pack_into


def read_frame(data: bytearray, offset: int, size: int) -> int:
    """The little-endian ``size``-byte value at ``offset`` in a frame;
    the access must not cross the frame's end."""
    if size == 4:
        return UNPACK_U32(data, offset)[0]
    if size == 1:
        return data[offset]
    if size == 2:
        return UNPACK_U16(data, offset)[0]
    return int.from_bytes(data[offset: offset + size], "little")


def write_frame(data: bytearray, offset: int, size: int, value: int):
    """Store ``value``, masked to ``size`` bytes, little-endian at
    ``offset`` in a frame; the access must not cross the frame's end."""
    if size == 4:
        PACK_U32(data, offset, value & 0xFFFFFFFF)
    elif size == 1:
        data[offset] = value & 0xFF
    elif size == 2:
        PACK_U16(data, offset, value & 0xFFFF)
    else:
        data[offset: offset + size] = (
            (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little"))


class BusError(Exception):
    """Physical access to memory that is neither RAM nor MMIO."""

    def __init__(self, paddr: int, why: str = "unallocated frame"):
        super().__init__(f"bus error at physical {paddr:#010x}: {why}")
        self.paddr = paddr


def _unpriced(vpage: int) -> Optional[int]:
    return None


class MMIORegion:
    """A physical address range owned by a device model."""

    def __init__(self, start: int, size: int, device):
        self.start = start
        self.end = start + size
        self.device = device

    def contains(self, paddr: int) -> bool:
        return self.start <= paddr < self.end


class PhysicalMemory:
    """Frame-granular RAM plus MMIO dispatch."""

    def __init__(self, frames: int = 65536):
        self.max_frames = frames
        self._frames: Dict[int, bytearray] = {}
        self._next_frame = 1  # frame 0 reserved: catches null-ish DMA
        self._mmio: List[MMIORegion] = []
        #: page -> tuple of regions intersecting that page (almost always
        #: empty), filled lazily; regions are only ever added, so the
        #: cache is simply cleared on registration.
        self._mmio_pages: Dict[int, Tuple[MMIORegion, ...]] = {}
        #: the RAM page caches of every address space over this memory
        #: (see ``AddressSpace``); a new MMIO region clears them all, and
        #: so do a new hot range and a cycle-scale change (``Cpu``).
        self.page_caches: List[Dict] = []
        #: virtual page -> the RAM price its page-cache entry carries.
        #: The ``Cpu`` running over this memory installs its own
        #: ``_page_price``, so an entry filled by a Python-side read is
        #: the one a CPU load would store; without a CPU it is None.
        self.page_price: Callable[[int], Optional[int]] = _unpriced

    # -- allocation --------------------------------------------------------------

    def allocate_frame(self) -> int:
        """Allocate one zeroed frame, returning its frame number."""
        if self._next_frame >= self.max_frames:
            raise MemoryError("physical memory exhausted")
        frame = self._next_frame
        self._next_frame += 1
        self._frames[frame] = bytearray(PAGE_SIZE)
        return frame

    def allocate_frames(self, n: int) -> List[int]:
        return [self.allocate_frame() for _ in range(n)]

    def frame_allocated(self, frame: int) -> bool:
        return frame in self._frames

    # -- MMIO --------------------------------------------------------------------

    def add_mmio_region(self, start: int, size: int, device) -> MMIORegion:
        region = MMIORegion(start, size, device)
        for other in self._mmio:
            if region.start < other.end and other.start < region.end:
                raise ValueError("overlapping MMIO regions")
        self._mmio.append(region)
        self._mmio_pages.clear()
        for cache in self.page_caches:
            cache.clear()
        return region

    def mmio_region_at(self, paddr: int) -> Optional[MMIORegion]:
        page = paddr >> PAGE_SHIFT
        regions = self._mmio_pages.get(page)
        if regions is None:
            base = page << PAGE_SHIFT
            regions = tuple(r for r in self._mmio
                            if r.start < base + PAGE_SIZE and base < r.end)
            self._mmio_pages[page] = regions
        for region in regions:
            if region.contains(paddr):
                return region
        return None

    def ram_frame(self, frame: int) -> Optional[bytearray]:
        """The frame's bytes when it is allocated RAM that no MMIO region
        touches, else None: the only frames a page cache may hold."""
        self.mmio_region_at(frame << PAGE_SHIFT)    # memoizes the page
        if self._mmio_pages[frame]:
            return None
        return self._frames.get(frame)

    # -- access ------------------------------------------------------------------

    def _frame_data(self, paddr: int) -> Tuple[bytearray, int]:
        frame = paddr >> PAGE_SHIFT
        data = self._frames.get(frame)
        if data is None:
            raise BusError(paddr)
        return data, paddr & OFFSET_MASK

    # ``read``/``write`` unpack or pack an access inside one RAM frame
    # on the frame itself. A device's ``mmio_read``/``mmio_write`` is
    # looked up on each access, never cached: wrappers may replace it.

    def read(self, paddr: int, size: int) -> int:
        """Little-endian read of 1/2/4 bytes, MMIO-aware."""
        region = self.mmio_region_at(paddr)
        if region is not None:
            return region.device.mmio_read(paddr - region.start, size)
        data = self._frames.get(paddr >> PAGE_SHIFT)
        offset = paddr & OFFSET_MASK
        if data is None or offset + size > PAGE_SIZE:
            return int.from_bytes(self.read_bytes(paddr, size), "little")
        return read_frame(data, offset, size)

    def write(self, paddr: int, size: int, value: int):
        region = self.mmio_region_at(paddr)
        if region is not None:
            region.device.mmio_write(paddr - region.start, size,
                                     value & ((1 << (size * 8)) - 1))
            return
        data = self._frames.get(paddr >> PAGE_SHIFT)
        offset = paddr & OFFSET_MASK
        if data is None or offset + size > PAGE_SIZE:
            self.write_bytes(paddr, (value & ((1 << (size * 8)) - 1))
                             .to_bytes(size, "little"))
            return
        write_frame(data, offset, size, value)

    def read_bytes(self, paddr: int, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            data, off = self._frame_data(paddr)
            chunk = min(n, PAGE_SIZE - off)
            out += data[off: off + chunk]
            paddr += chunk
            n -= chunk
        return bytes(out)

    def write_bytes(self, paddr: int, payload: bytes):
        pos = 0
        n = len(payload)
        while pos < n:
            data, off = self._frame_data(paddr)
            chunk = min(n - pos, PAGE_SIZE - off)
            data[off: off + chunk] = payload[pos: pos + chunk]
            paddr += chunk
            pos += chunk

    def read_u32(self, paddr: int) -> int:
        return self.read(paddr, 4)

    def write_u32(self, paddr: int, value: int):
        self.write(paddr, 4, value)
