"""Software Virtual Memory (paper §4.1): the stlb and its slow path.

The stlb is a 4096-entry hash table *in simulated memory*: the rewritten
driver's 10-instruction fast path (emitted by :mod:`~repro.core.rewriter`)
indexes it with real loads, compares the tag, and XORs the mapped entry
into the address. This module owns:

* the table memory and the Python-side hash chains (the slow path walks
  chains on collision, exactly as §4.1 describes);
* the miss handler ``__svm_slow_path``: permission check (the page must
  belong to dom0's address space), allocation of **two consecutive**
  hypervisor virtual pages (unaligned accesses may straddle a page), page
  mapping, and table fill;
* protection: any access outside dom0's address space raises
  :class:`SvmProtectionFault` — "the driver is aborted";
* the identity mode used when the same rewritten binary runs as the VM
  instance inside dom0 (§5.1.2: identity mappings, "runs a little slower").

Entry layout (8 bytes): ``[tag | xormap]`` where ``tag`` is the dom0 page
address and ``xormap = dom0_page ^ mapped_page``, so the fast path
computes ``translated = address ^ xormap``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..machine.machine import Machine
from ..machine.memory import PAGE_SIZE
from ..machine.paging import AddressSpace, HYPERVISOR_BASE, PageFault, PageTable
from ..obs.events import (
    SVM_FAULT,
    SVM_FILL,
    SVM_FLUSH,
    SVM_HIT,
    SVM_INVALIDATE,
    SVM_MISS,
)

STLB_ENTRIES = 4096
STLB_ENTRY_SIZE = 8
PAGE_ADDR_MASK = 0xFFFFF000

#: Empty-slot tag. Valid tags are page addresses (low 12 bits zero) and
#: the fast path compares the tag against a page-aligned register, so an
#: all-ones tag can never match — unlike 0, which is dom0 page 0's tag.
EMPTY_TAG = 0xFFFFFFFF

#: Default size of the hypervisor VA window SVM maps dom0 pages into.
SVM_MAP_WINDOW = 64 * 1024 * 1024


class SvmMapExhausted(Exception):
    """The SVM mapping window ran out of hypervisor virtual addresses."""

    def __init__(self, page: int, base: int, end: int):
        super().__init__(
            f"SVM map window exhausted mapping {page:#010x} "
            f"(window {base:#010x}-{end:#010x})"
        )
        self.page = page


class SvmProtectionFault(Exception):
    """The driver touched memory outside dom0's address space."""

    def __init__(self, vaddr: int, why: str = "outside dom0 address space"):
        super().__init__(
            f"SVM protection fault: driver access to {vaddr:#010x} ({why})"
        )
        self.vaddr = vaddr


class StackProtectionFault(SvmProtectionFault):
    """§4.5.1 extension: a variable-offset stack access fell outside the
    driver-stack window (a buffer overflow / stack smash)."""

    def __init__(self, esp: int):
        super().__init__(esp, "stack access outside the driver stack")


def stlb_index(vaddr: int, entries: int = STLB_ENTRIES) -> int:
    """Hash: the low bits of the page number (paper fig. 4 lines 5-6;
    12 bits for the paper's 4096-entry table)."""
    return (vaddr >> 12) & (entries - 1)


class SvmManager:
    """One stlb instance: either the hypervisor's or dom0's identity one."""

    def __init__(self, machine: Machine, table_addr: int,
                 protected_space: AddressSpace,
                 identity: bool = False,
                 map_base: int = 0,
                 name: str = "svm",
                 entries: int = STLB_ENTRIES,
                 map_size: int = SVM_MAP_WINDOW):
        """``protected_space`` is the address space the driver is allowed
        to touch (dom0). In identity mode no mappings are created and the
        xormap is always zero; otherwise dom0 pages are mapped pairwise at
        ``map_base`` upward in the shared hypervisor page table.
        ``entries`` sizes the hash table (power of two; the paper uses
        4096, mapping 16 MiB)."""
        if entries & (entries - 1):
            raise ValueError("stlb entries must be a power of two")
        self.machine = machine
        self.entries = entries
        self.table_addr = table_addr
        self.protected_space = protected_space
        self.identity = identity
        self.map_base = map_base
        self.map_end = map_base + map_size
        self.name = name
        self._next_map = map_base
        #: full chain: dom0 page address -> xormap (survives hash eviction)
        self.chains: Dict[int, int] = {}
        #: dom0 page -> hypervisor page actually mapped (non-identity)
        self.mappings: Dict[int, int] = {}
        #: hypervisor page -> owning dom0 page (primary mappings only)
        self._va_owner: Dict[int, int] = {}
        #: dom0 pages whose VA was carved out of a neighbour's pair
        self._extended: set = set()
        #: reclaimed two-page chunks available for reallocation
        self._free_pairs: list = []
        #: pending injected faults (test hook; see inject_fault)
        self._inject_faults = 0
        # counters live in the machine-wide metrics registry under
        # ``svm.<name>.*`` (misses/hits/... stay readable as attributes)
        registry = machine.obs.registry
        self._tracer = machine.obs.tracer
        self._c_miss = registry.counter(f"svm.{name}.miss")
        self._c_hit = registry.counter(f"svm.{name}.hit")
        self._c_collision = registry.counter(f"svm.{name}.collision")
        self._c_eviction = registry.counter(f"svm.{name}.eviction")
        self._c_fault = registry.counter(f"svm.{name}.fault")
        self._c_flush = registry.counter(f"svm.{name}.flush")
        self._c_invalidate = registry.counter(f"svm.{name}.invalidate")
        self._c_reclaim = registry.counter(f"svm.{name}.reclaim")
        #: stlb checks skipped at runtime because the verifier proved the
        #: site's address stays inside an anchor's checked page pair
        #: (see :func:`repro.core.rewriter.apply_elision`).
        self._c_elided = registry.counter(f"svm.{name}.elided")
        self._table_space = AddressSpace(
            f"{name}-table", machine.phys, machine.hypervisor_table
        )
        self._reset_table()

    # -- counter views (registry-backed) ------------------------------------------

    @property
    def misses(self) -> int:
        return self._c_miss.value

    @property
    def hits(self) -> int:
        """Explicit stlb lookups (support routines / SvmView) answered
        without running the slow path."""
        return self._c_hit.value

    @property
    def collisions(self) -> int:
        return self._c_collision.value

    @property
    def evictions(self) -> int:
        return self._c_eviction.value

    @property
    def protection_faults(self) -> int:
        return self._c_fault.value

    @property
    def flushes(self) -> int:
        return self._c_flush.value

    def counters_snapshot(self) -> Dict[str, int]:
        """This instance's registry counters (``svm.<name>.*``)."""
        return {
            "miss": self._c_miss.value,
            "hit": self._c_hit.value,
            "collision": self._c_collision.value,
            "eviction": self._c_eviction.value,
            "fault": self._c_fault.value,
            "flush": self._c_flush.value,
            "invalidate": self._c_invalidate.value,
            "reclaim": self._c_reclaim.value,
            "elided": self._c_elided.value,
        }

    @property
    def elided(self) -> int:
        """Runtime stlb lookups avoided via proof-based check elision."""
        return self._c_elided.value

    # -- table memory -------------------------------------------------------------

    def _table_mem(self) -> AddressSpace:
        # The table may live in dom0 space (identity instance) or in the
        # hypervisor region; both are reachable through protected_space
        # combined with the shared hypervisor table.
        if self.table_addr >= HYPERVISOR_BASE:
            return self._table_space
        return self.protected_space

    def _reset_table(self):
        """Mark every entry empty (tag = EMPTY_TAG, xormap = 0)."""
        mem = self._table_mem()
        nbytes = self.entries * STLB_ENTRY_SIZE
        empty = EMPTY_TAG.to_bytes(4, "little") + b"\x00\x00\x00\x00"
        chunk = empty * (PAGE_SIZE // STLB_ENTRY_SIZE)
        for off in range(0, nbytes, PAGE_SIZE):
            mem.write_bytes(self.table_addr + off,
                            chunk[: min(PAGE_SIZE, nbytes - off)])

    def _write_entry(self, index: int, tag: int, xormap: int):
        mem = self._table_mem()
        mem.write_u32(self.table_addr + index * STLB_ENTRY_SIZE, tag)
        mem.write_u32(self.table_addr + index * STLB_ENTRY_SIZE + 4, xormap)

    def read_entry(self, index: int) -> Tuple[int, int]:
        mem = self._table_mem()
        return (
            mem.read_u32(self.table_addr + index * STLB_ENTRY_SIZE),
            mem.read_u32(self.table_addr + index * STLB_ENTRY_SIZE + 4),
        )

    def flush(self):
        """Invalidate every translation. The hash table *and* the Python
        chains are cleared, so every re-translation goes back through the
        slow path and re-runs the dom0 permission check; the hypervisor VA
        mappings are kept cached and reused (with their frames
        re-translated) when pages come back."""
        self._c_flush.value += 1
        self._tracer.emit(SVM_FLUSH, stlb=self.name, entries=self.entries)
        self._reset_table()
        self.chains.clear()

    def invalidate(self, vaddr: int):
        """Drop one page's translation and reclaim its mapping chunk when
        it is a standalone pair no neighbour extension depends on."""
        page = vaddr & PAGE_ADDR_MASK
        self._c_invalidate.value += 1
        self._tracer.emit(SVM_INVALIDATE, stlb=self.name, page=page)
        self.chains.pop(page, None)
        index = stlb_index(page, self.entries)
        tag, _ = self.read_entry(index)
        if tag == page:
            self._write_entry(index, EMPTY_TAG, 0)
        hyp_page = self.mappings.pop(page, None)
        if hyp_page is None or self.identity:
            return
        self._va_owner.pop(hyp_page, None)
        if page in self._extended:
            # the VA was carved out of a neighbour's pair: not reclaimable
            # as a standalone chunk, just forget the ownership.
            self._extended.discard(page)
            return
        if hyp_page + PAGE_SIZE in self._va_owner:
            # another page's primary mapping extends into this chunk
            return
        table: PageTable = self.machine.hypervisor_table
        for va in (hyp_page, hyp_page + PAGE_SIZE):
            if table.lookup(va >> 12) is not None:
                table.unmap(va >> 12)
        self._free_pairs.append(hyp_page)
        self._c_reclaim.value += 1

    def invalidate_all(self):
        """Full teardown: no translation, chain, or hypervisor mapping
        survives. Used by recovery to quarantine a faulted instance."""
        self._c_invalidate.value += 1
        self._tracer.emit(SVM_INVALIDATE, stlb=self.name, page=None,
                          full=True)
        self._reset_table()
        self.chains.clear()
        if not self.identity:
            table: PageTable = self.machine.hypervisor_table
            page = self.map_base
            while page < self._next_map:
                if table.lookup(page >> 12) is not None:
                    table.unmap(page >> 12)
                page += PAGE_SIZE
        self.mappings.clear()
        self._va_owner.clear()
        self._extended.clear()
        self._free_pairs.clear()
        self._next_map = self.map_base

    # -- fault injection (tests / fault-injection demos) -------------------------

    def inject_fault(self, count: int = 1):
        """Arm ``count`` one-shot transient protection faults: the next
        ``count`` slow-path translations raise ``SvmProtectionFault`` as
        if the permission check had failed."""
        self._inject_faults += count

    def _maybe_inject(self, vaddr: int):
        if self._inject_faults > 0:
            self._inject_faults -= 1
            self._note_fault(vaddr, "injected fault")
            raise SvmProtectionFault(vaddr, "injected fault")

    # -- permission check -----------------------------------------------------------

    def _check_permitted(self, page_addr: int):
        if page_addr >= HYPERVISOR_BASE:
            self._note_fault(page_addr, "hypervisor address")
            raise SvmProtectionFault(page_addr, "hypervisor address")
        try:
            self.protected_space.translate(page_addr)
        except PageFault:
            self._note_fault(page_addr, "outside dom0 address space")
            raise SvmProtectionFault(page_addr) from None

    def _note_fault(self, page_addr: int, why: str):
        self._c_fault.value += 1
        self._tracer.emit(SVM_FAULT, stlb=self.name, vaddr=page_addr,
                          why=why)

    # -- miss handling -----------------------------------------------------------------

    def handle_miss(self, vaddr: int):
        """The ``__svm_slow_path`` body: chain lookup, permission check,
        pairwise page mapping, table fill."""
        self._c_miss.value += 1
        self._maybe_inject(vaddr)
        tracing = self._tracer.enabled
        if tracing:
            self._tracer.emit(SVM_MISS, stlb=self.name, vaddr=vaddr)
        page = vaddr & PAGE_ADDR_MASK
        index = stlb_index(vaddr, self.entries)
        if page in self.chains:
            # Hash collision evicted this page earlier: refill from chain.
            self._c_collision.value += 1
            self._write_entry(index, page, self.chains[page])
            if tracing:
                self._tracer.emit(SVM_FILL, stlb=self.name, page=page,
                                  index=index, refill=True)
            return
        self._check_permitted(page)
        tag, _ = self.read_entry(index)
        if tag != EMPTY_TAG and tag != page:
            self._c_eviction.value += 1
        xormap = 0 if self.identity else self._map_pair(page)
        self.chains[page] = xormap
        self._write_entry(index, page, xormap)
        if tracing:
            self._tracer.emit(SVM_FILL, stlb=self.name, page=page,
                              index=index, refill=False)

    def _map_pair(self, page: int) -> int:
        """Map ``page`` and ``page + PAGE_SIZE`` of dom0 at two consecutive
        hypervisor virtual pages (paper footnote 2: unaligned accesses may
        straddle a page boundary).

        Virtual addresses in the map window are a managed resource:
        a page that already owns a chunk reuses it (frames re-translated,
        so dom0 remaps take effect), a page whose lower neighbour owns the
        most recent chunk extends it by a single page, reclaimed chunks
        are recycled, and running past ``map_end`` raises
        :class:`SvmMapExhausted` instead of silently colliding."""
        table: PageTable = self.machine.hypervisor_table
        hyp_page = self.mappings.get(page)
        if hyp_page is None:
            lower = self.mappings.get(page - PAGE_SIZE)
            if (lower is not None
                    and lower + 2 * PAGE_SIZE == self._next_map):
                # the lower neighbour's pair already maps this page at its
                # second slot and owns the allocation frontier: extend the
                # chunk by one page instead of allocating a fresh pair.
                if self._next_map + PAGE_SIZE > self.map_end:
                    raise SvmMapExhausted(page, self.map_base, self.map_end)
                hyp_page = lower + PAGE_SIZE
                self._next_map += PAGE_SIZE
                self._extended.add(page)
            elif self._free_pairs:
                hyp_page = self._free_pairs.pop()
            else:
                if self._next_map + 2 * PAGE_SIZE > self.map_end:
                    raise SvmMapExhausted(page, self.map_base, self.map_end)
                hyp_page = self._next_map
                self._next_map += 2 * PAGE_SIZE
            self.mappings[page] = hyp_page
            self._va_owner[hyp_page] = page
        frame0 = self.protected_space.translate(page) >> 12
        table.map(hyp_page >> 12, frame0)
        neighbour = page + PAGE_SIZE
        try:
            frame1 = self.protected_space.translate(neighbour) >> 12
        except PageFault:
            frame1 = None
        if frame1 is not None:
            table.map((hyp_page >> 12) + 1, frame1)
        return page ^ hyp_page

    # -- translation API (used by hypervisor support routines, §4.3) ------------------

    def translate(self, vaddr: int, ensure: bool = True) -> int:
        """dom0 virtual address -> address usable from any guest context.

        Hypervisor support routines "make use of the stlb translation
        table explicitly"; this is that lookup (filling on miss when
        ``ensure``)."""
        page = vaddr & PAGE_ADDR_MASK
        if page not in self.chains:
            if not ensure:
                raise KeyError(f"no SVM mapping for {vaddr:#010x}")
            self.handle_miss(vaddr)
        else:
            self._maybe_inject(vaddr)
            self._c_hit.value += 1
            if self._tracer.enabled:
                self._tracer.emit(SVM_HIT, stlb=self.name, vaddr=vaddr)
        return vaddr ^ self.chains[page]

    def lookup_fast(self, vaddr: int) -> Optional[int]:
        """What the inline fast path would produce: None on table miss.

        Empty slots carry ``EMPTY_TAG``, not 0 — tag 0 is dom0 page 0's
        valid tag, which the old sentinel condemned to a permanent
        slow-path loop."""
        index = stlb_index(vaddr, self.entries)
        tag, xormap = self.read_entry(index)
        if tag != (vaddr & PAGE_ADDR_MASK):
            return None
        self._c_hit.value += 1
        if self._tracer.enabled:
            self._tracer.emit(SVM_HIT, stlb=self.name, vaddr=vaddr)
        return vaddr ^ xormap


class SvmView:
    """Address-space-like accessor that reaches dom0 data through SVM.

    This is what the hypervisor's fast-path support routines use to touch
    sk_buffs, locks and rings: every access translates through the stlb
    first, so the protection property holds for them too. The interface
    mirrors :class:`~repro.machine.paging.AddressSpace`.
    """

    def __init__(self, svm: SvmManager):
        self.svm = svm
        self._hyp = AddressSpace(
            f"{svm.name}-view", svm.machine.phys,
            svm.machine.hypervisor_table,
        )
        # identity instances resolve through dom0's own page tables
        self._backing = svm.protected_space if svm.identity else self._hyp

    @property
    def name(self) -> str:
        return f"svm:{self.svm.name}"

    def translate(self, vaddr: int, write: bool = False) -> int:
        return self._backing.translate(self.svm.translate(vaddr), write)

    def read(self, vaddr: int, size: int) -> int:
        if (vaddr & 0xFFF) + size > PAGE_SIZE:
            return int.from_bytes(self.read_bytes(vaddr, size), "little")
        return self._backing.read(self.svm.translate(vaddr), size)

    def write(self, vaddr: int, size: int, value: int):
        if (vaddr & 0xFFF) + size > PAGE_SIZE:
            self.write_bytes(
                vaddr,
                (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little"),
            )
            return
        self._backing.write(self.svm.translate(vaddr), size, value)

    def read_u32(self, vaddr: int) -> int:
        return self.read(vaddr, 4)

    def write_u32(self, vaddr: int, value: int):
        self.write(vaddr, 4, value)

    def read_bytes(self, vaddr: int, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            chunk = min(n, PAGE_SIZE - (vaddr & 0xFFF))
            out += self._backing.read_bytes(self.svm.translate(vaddr), chunk)
            vaddr += chunk
            n -= chunk
        return bytes(out)

    def write_bytes(self, vaddr: int, payload: bytes):
        pos = 0
        while pos < len(payload):
            chunk = min(len(payload) - pos, PAGE_SIZE - (vaddr & 0xFFF))
            self._backing.write_bytes(
                self.svm.translate(vaddr), payload[pos: pos + chunk]
            )
            vaddr += chunk
            pos += chunk
