"""Physical memory, MMIO dispatch, page tables, address spaces, and the
per-address-space RAM page cache that the CPU, the JIT and every
Python-side reader share."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SvmManager, SvmView
from repro.isa import assemble
from repro.machine import (
    AddressSpace,
    BusError,
    HYPERVISOR_BASE,
    Machine,
    PAGE_SIZE,
    PageFault,
    PageTable,
    PhysicalMemory,
    ProtectionFault,
)


class FakeDevice:
    def __init__(self):
        self.reads = []
        self.writes = []

    def mmio_read(self, offset, size):
        self.reads.append((offset, size))
        return 0xAB

    def mmio_write(self, offset, size, value):
        self.writes.append((offset, size, value))


class TestPhysicalMemory:
    def test_frame_allocation_monotonic_contiguous(self):
        phys = PhysicalMemory()
        frames = phys.allocate_frames(4)
        assert frames == [frames[0] + i for i in range(4)]

    def test_unallocated_access_is_bus_error(self):
        phys = PhysicalMemory()
        with pytest.raises(BusError):
            phys.read(0x5000_000, 4)

    def test_read_write_roundtrip(self):
        phys = PhysicalMemory()
        frame = phys.allocate_frame()
        addr = frame << 12
        phys.write(addr + 8, 4, 0xDEADBEEF)
        assert phys.read(addr + 8, 4) == 0xDEADBEEF

    def test_small_sizes(self):
        phys = PhysicalMemory()
        addr = phys.allocate_frame() << 12
        phys.write(addr, 1, 0x12)
        phys.write(addr + 1, 2, 0x3456)
        assert phys.read(addr, 1) == 0x12
        assert phys.read(addr + 1, 2) == 0x3456
        assert phys.read(addr, 4) == 0x00345612

    def test_write_masks_to_size(self):
        phys = PhysicalMemory()
        addr = phys.allocate_frame() << 12
        phys.write(addr, 1, 0x1FF)
        assert phys.read(addr, 1) == 0xFF

    def test_bytes_across_frames(self):
        phys = PhysicalMemory()
        f0, f1 = phys.allocate_frames(2)
        base = (f0 << 12) + PAGE_SIZE - 3
        phys.write_bytes(base, b"abcdef")
        assert phys.read_bytes(base, 6) == b"abcdef"

    def test_frame_zero_reserved(self):
        phys = PhysicalMemory()
        with pytest.raises(BusError):
            phys.read(0x10, 4)

    def test_exhaustion(self):
        phys = PhysicalMemory(frames=3)
        phys.allocate_frames(2)    # frame 0 reserved
        with pytest.raises(MemoryError):
            phys.allocate_frame()

    def test_mmio_dispatch(self):
        phys = PhysicalMemory()
        dev = FakeDevice()
        phys.add_mmio_region(0xFEB00000, 0x1000, dev)
        assert phys.read(0xFEB00010, 4) == 0xAB
        phys.write(0xFEB00020, 4, 7)
        assert dev.reads == [(0x10, 4)]
        assert dev.writes == [(0x20, 4, 7)]

    def test_mmio_overlap_rejected(self):
        phys = PhysicalMemory()
        phys.add_mmio_region(0x1000_0000, 0x1000, FakeDevice())
        with pytest.raises(ValueError):
            phys.add_mmio_region(0x1000_0800, 0x1000, FakeDevice())

    @given(st.sampled_from([1, 2, 4]), st.integers(0, PAGE_SIZE + 8),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_u32_roundtrip_property(self, size, offset, value):
        # sizes 1, 2 and 4, inside a frame, at its end and across two
        phys = PhysicalMemory()
        f0, _ = phys.allocate_frames(2)
        addr = (f0 << 12) + offset
        phys.write(addr, size, value)
        mask = (1 << (size * 8)) - 1
        assert phys.read(addr, size) == value & mask
        assert phys.read_bytes(addr, size) == (value & mask).to_bytes(
            size, "little")
        if size == 4:
            phys.write_u32(addr, value)
            assert phys.read_u32(addr) == value

    @pytest.mark.parametrize("offset", [PAGE_SIZE - 4, PAGE_SIZE - 1,
                                        PAGE_SIZE - 2])
    def test_frame_end_and_crossing(self, offset):
        phys = PhysicalMemory()
        f0, _ = phys.allocate_frames(2)
        addr = (f0 << 12) + offset
        phys.write_bytes(addr, bytes(range(1, 9)))
        assert phys.read(addr, 4) == int.from_bytes(bytes(range(1, 5)),
                                                    "little")
        assert phys.read(addr, 2) == 0x0201
        assert phys.read(addr + 1, 1) == 2


class TestAddressSpace:
    def make(self):
        phys = PhysicalMemory()
        hyp = PageTable()
        return phys, hyp, AddressSpace("dom", phys, hyp)

    def test_translate_unmapped_faults(self):
        _, _, space = self.make()
        with pytest.raises(PageFault):
            space.translate(0xC0000000)

    def test_map_and_translate(self):
        phys, _, space = self.make()
        frame = phys.allocate_frame()
        space.map_page(0xC0000000, frame)
        assert space.translate(0xC0000123) == (frame << 12) | 0x123

    def test_unaligned_map_rejected(self):
        phys, _, space = self.make()
        with pytest.raises(ValueError):
            space.map_page(0xC0000010, 1)

    def test_readonly_write_faults(self):
        phys, _, space = self.make()
        frame = phys.allocate_frame()
        space.map_page(0xC0000000, frame, writable=False)
        assert space.translate(0xC0000000) == frame << 12
        with pytest.raises(ProtectionFault):
            space.translate(0xC0000000, write=True)

    def test_hypervisor_region_shared(self):
        phys = PhysicalMemory()
        hyp = PageTable()
        a = AddressSpace("a", phys, hyp)
        b = AddressSpace("b", phys, hyp)
        frame = phys.allocate_frame()
        hyp.map(HYPERVISOR_BASE >> 12, frame)
        assert a.translate(HYPERVISOR_BASE) == frame << 12
        assert b.translate(HYPERVISOR_BASE) == frame << 12

    def test_domain_cannot_shadow_hypervisor(self):
        phys, _, space = self.make()
        frame = phys.allocate_frame()
        with pytest.raises(ValueError):
            space.map_page(HYPERVISOR_BASE, frame)

    def test_aliasing_allowed(self):
        phys, _, space = self.make()
        frame = phys.allocate_frame()
        space.map_page(0xC0000000, frame)
        space.map_page(0xC0100000, frame)
        space.write_u32(0xC0000000, 99)
        assert space.read_u32(0xC0100000) == 99

    def test_page_straddling_access(self):
        phys, _, space = self.make()
        f0, f1 = phys.allocate_frames(2)
        space.map_page(0xC0000000, f0)
        space.map_page(0xC0001000, f1)
        addr = 0xC0000FFE
        space.write(addr, 4, 0x11223344)
        assert space.read(addr, 4) == 0x11223344

    def test_straddle_into_unmapped_faults(self):
        phys, _, space = self.make()
        space.map_page(0xC0000000, phys.allocate_frame())
        with pytest.raises(PageFault):
            space.write(0xC0000FFE, 4, 1)

    def test_map_new_pages(self):
        phys, _, space = self.make()
        space.map_new_pages(0xC0000000, 3)
        for i in range(3):
            assert space.is_mapped(0xC0000000 + i * PAGE_SIZE)
        assert not space.is_mapped(0xC0003000)

    def test_unmap(self):
        phys, _, space = self.make()
        space.map_new_pages(0xC0000000, 1)
        space.unmap_page(0xC0000000)
        assert not space.is_mapped(0xC0000000)

    def test_read_write_bytes(self):
        phys, _, space = self.make()
        space.map_new_pages(0xC0000000, 3)
        payload = bytes(range(200)) * 30
        space.write_bytes(0xC0000F00, payload)
        assert space.read_bytes(0xC0000F00, len(payload)) == payload


class TestStraddlingWrite:
    """A write that crosses into a page it may not write raises before
    it changes a byte of the first page: from Python (``write``,
    ``write_bytes``) and from driver code, with the JIT off and on."""

    @pytest.fixture(params=["unmapped", "read-only"])
    def second(self, request):
        return request.param

    @staticmethod
    def map_pages(phys, space, second):
        """Map a writable first page at VA and the second page as the
        case says; return the first page's frame."""
        first = phys.allocate_frame()
        space.map_page(VA, first)
        if second == "read-only":
            space.map_page(VA + PAGE_SIZE, phys.allocate_frame(),
                           writable=False)
        return first

    @staticmethod
    def fault(second):
        return PageFault if second == "unmapped" else ProtectionFault

    @pytest.mark.parametrize("how", ["write", "write_bytes"])
    def test_python_write(self, second, how):
        phys = PhysicalMemory()
        space = AddressSpace("dom", phys, PageTable())
        first = self.map_pages(phys, space, second)
        addr = VA + PAGE_SIZE - 2
        space.read(addr, 2)                     # the first page cached
        with pytest.raises(self.fault(second)):
            if how == "write":
                space.write(addr, 4, 0x11223344)
            else:
                space.write_bytes(addr, b"\x44\x33\x22\x11")
        assert phys.read_bytes((first << 12) + PAGE_SIZE - 2, 2) == b"\0\0"

    @pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
    def test_driver_store(self, second, jit):
        m = Machine()
        m.cpu.jit_enabled = jit
        m.cpu.jit_threshold = 1
        space = TestPageCache.space(m, "a")
        m.cpu.address_space = space
        first = self.map_pages(m.phys, space, second)
        loaded = m.load_program(assemble(
            f".globl f\nf: movl $0x11223344, %eax\n"
            f"movl %eax, {VA + PAGE_SIZE - 2:#x}\nret\n"), 0x08000000)
        with pytest.raises(self.fault(second)):
            m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        assert m.phys.read_bytes((first << 12) + PAGE_SIZE - 2, 2) == b"\0\0"


#: a domain page and a hypervisor page the page-cache tests access
VA = 0xC0000000
HYP_VA = HYPERVISOR_BASE + 0x100000
STACK_TOP = 0xC0104000


class TestPageCache:
    """Ground truth for the RAM page cache, with the JIT off and on (a
    differential test cannot see a stale entry: both engines read the
    same cache). Each test fills the cache through a CPU load, changes
    the translation or the price one way, and checks the next access
    against what the page tables, devices and hot ranges now say."""

    @pytest.fixture(params=[False, True], ids=["interp", "jit"])
    def m(self, request):
        m = Machine()
        m.cpu.jit_enabled = request.param
        m.cpu.jit_threshold = 1
        m.cpu.address_space = self.space(m, "a")
        return m

    @staticmethod
    def space(m, name):
        space = AddressSpace(name, m.phys, m.hypervisor_table)
        space.map_new_pages(STACK_TOP - 4 * PAGE_SIZE, 4)
        return space

    @staticmethod
    def accessors(m, addr, base=0x08000000):
        """``load()`` and ``store(value)`` of the word at ``addr``,
        as driver code."""
        loaded = m.load_program(assemble(
            f".globl load\n.globl store\n"
            f"load: movl {addr}, %eax\nret\n"
            f"store: movl 4(%esp), %ecx\nmovl %ecx, {addr}\nret\n"), base)

        def load():
            return m.cpu.call_function(loaded.symbol("load"), [],
                                       stack_top=STACK_TOP)

        def store(value):
            m.cpu.call_function(loaded.symbol("store"), [value],
                                stack_top=STACK_TOP)
        return load, store

    @staticmethod
    def frame_holding(m, value):
        frame = m.phys.allocate_frame()
        m.phys.write_u32(frame << 12, value)
        return frame

    def test_load_fills_the_cache(self, m):
        space = m.cpu.address_space
        space.map_page(VA, self.frame_holding(m, 11))
        load, _ = self.accessors(m, VA)
        assert VA >> 12 not in space.read_pages
        assert load() == 11
        assert VA >> 12 in space.read_pages
        assert load() == 11

    def test_unmap_faults_the_next_load(self, m):
        space = m.cpu.address_space
        space.map_page(VA, self.frame_holding(m, 11))
        load, _ = self.accessors(m, VA)
        assert load() == 11
        space.unmap_page(VA)
        with pytest.raises(PageFault):
            load()

    def test_remap_serves_the_new_frame(self, m):
        space = m.cpu.address_space
        space.map_page(VA, self.frame_holding(m, 11))
        load, store = self.accessors(m, VA)
        store(12)
        assert load() == 12
        space.map_page(VA, self.frame_holding(m, 22))
        assert load() == 22
        store(23)
        assert load() == 23

    def test_read_only_remap_faults_stores_not_loads(self, m):
        space = m.cpu.address_space
        frame = self.frame_holding(m, 11)
        space.map_page(VA, frame)
        load, store = self.accessors(m, VA)
        store(12)
        assert load() == 12
        space.map_page(VA, frame, writable=False)
        with pytest.raises(ProtectionFault):
            store(13)
        assert load() == 12

    def test_hypervisor_table_change_reaches_every_space(self, m):
        a = m.cpu.address_space
        b = self.space(m, "b")
        m.hypervisor_table.map(HYP_VA >> 12, self.frame_holding(m, 11))
        load, _ = self.accessors(m, HYP_VA)
        for space in (a, b):
            m.cpu.address_space = space
            assert load() == 11
        m.hypervisor_table.map(HYP_VA >> 12, self.frame_holding(m, 22))
        for space in (a, b):
            m.cpu.address_space = space
            assert load() == 22
        m.hypervisor_table.unmap(HYP_VA >> 12)
        for space in (a, b):
            m.cpu.address_space = space
            with pytest.raises(PageFault):
                load()

    def test_new_mmio_region_reaches_the_device(self, m):
        space = m.cpu.address_space
        frame = self.frame_holding(m, 11)
        space.map_page(VA, frame)
        load, _ = self.accessors(m, VA)
        assert load() == 11
        before = m.account.total
        assert load() == 11
        ram_call = m.account.total - before
        device = FakeDevice()
        m.phys.add_mmio_region(frame << 12, PAGE_SIZE, device)
        before = m.account.total
        assert load() == 0xAB
        assert device.reads == [(0, 4)]
        costs = m.cpu.scaled
        assert m.account.total - before == ram_call - costs.mem + costs.mmio

    def test_address_space_switch_serves_the_other_mapping(self, m):
        a = m.cpu.address_space
        b = self.space(m, "b")
        a.map_page(VA, self.frame_holding(m, 11))
        b.map_page(VA, self.frame_holding(m, 22))
        load, _ = self.accessors(m, VA)
        assert load() == 11
        m.cpu.address_space = b
        assert load() == 22
        m.cpu.address_space = a
        assert load() == 11

    # A page-cache entry carries its page's RAM price, so a new hot
    # range and a cycle-scale change must drop every entry. ``load()``
    # pays two ``alu``, ``ret``, two stack accesses (sentinel push and
    # return pop, on cold stack pages) and the load's own price.

    @staticmethod
    def load_cost(m, price):
        costs = m.cpu.scaled
        return 2 * costs.alu + costs.ret + 2 * costs.mem + price

    @staticmethod
    def charged(m, fn):
        before = m.account.total
        fn()
        return m.account.total - before

    def test_new_hot_range_reprices_a_cached_page(self, m):
        space = m.cpu.address_space
        space.map_page(VA, self.frame_holding(m, 11))
        load, _ = self.accessors(m, VA)
        load()
        assert VA >> 12 in space.read_pages
        assert self.charged(m, load) == self.load_cost(m, m.cpu.scaled.mem)
        m.cpu.add_hot_range(VA, VA + PAGE_SIZE)
        load()
        assert self.charged(m, load) == self.load_cost(
            m, m.cpu.scaled.mem_hot)

    def test_cycle_scale_change_reprices_a_cached_page(self, m):
        space = m.cpu.address_space
        space.map_page(VA, self.frame_holding(m, 11))
        load, _ = self.accessors(m, VA)
        load()
        assert self.charged(m, load) == self.load_cost(m, m.cpu.scaled.mem)
        m.cpu.cycle_scale = 1.37          # mem 6 -> 8, alu 1, ret 8 -> 11
        load()
        assert VA >> 12 in space.read_pages
        assert self.charged(m, load) == self.load_cost(m, 8) == 2 + 11 + 24

    def test_hot_range_edge_inside_a_page_prices_each_access(self, m):
        # the SVM runtime's return and spill slots end this way, 0x34
        # bytes into the page after the stlb
        space = m.cpu.address_space
        space.map_page(VA, self.frame_holding(m, 11))
        m.cpu.add_hot_range(VA - PAGE_SIZE, VA + 0x34)
        hot, _ = self.accessors(m, VA + 0x30)
        cold, _ = self.accessors(m, VA + 0x34, base=0x08100000)
        for load in (hot, cold, hot, cold):
            load()
        assert VA >> 12 in space.read_pages
        costs = m.cpu.scaled
        assert self.charged(m, hot) == self.load_cost(m, costs.mem_hot)
        assert self.charged(m, cold) == self.load_cost(m, costs.mem)

    # Python-side readers (the kernel model, ``SvmView``, the support
    # natives, the twin glue) go through ``AddressSpace`` and share the
    # cache. In each test below a Python access caches the page before
    # the change.

    @staticmethod
    def svm(m, dom0):
        """A hypervisor SVM instance over ``dom0``, its stlb table in
        hypervisor pages."""
        table = HYPERVISOR_BASE + 0x300000
        for i in range(8):
            m.hypervisor_table.map((table >> 12) + i, m.phys.allocate_frame())
        return SvmManager(m, table, dom0, identity=False,
                          map_base=HYPERVISOR_BASE + 0x4000000, name="hyp")

    def test_unmap_faults_the_next_python_read(self, m):
        space = m.cpu.address_space
        space.map_page(VA, self.frame_holding(m, 11))
        assert space.read(VA, 4) == 11
        assert VA >> 12 in space.read_pages
        space.unmap_page(VA)
        with pytest.raises(PageFault):
            space.read(VA, 4)

    def test_remap_serves_the_new_frame_to_python_readers(self, m):
        dom0 = m.cpu.address_space
        svm = self.svm(m, dom0)
        view = SvmView(svm)
        dom0.map_page(VA, self.frame_holding(m, 11))
        assert dom0.read(VA, 4) == 11
        assert dom0.read_bytes(VA, 4) == (11).to_bytes(4, "little")
        assert view.read(VA, 4) == 11
        dom0.map_page(VA, self.frame_holding(m, 22))
        svm.flush()             # SVM re-maps dom0's new frame on its miss
        assert dom0.read(VA, 4) == 22
        assert dom0.read_bytes(VA, 4) == (22).to_bytes(4, "little")
        assert view.read(VA, 4) == 22
        assert view.read_bytes(VA, 4) == (22).to_bytes(4, "little")

    def test_read_only_remap_faults_python_writes_not_reads(self, m):
        space = m.cpu.address_space
        frame = self.frame_holding(m, 11)
        space.map_page(VA, frame)
        space.write(VA, 4, 12)
        space.write_bytes(VA + 4, b"\x01")
        assert VA >> 12 in space.write_pages
        space.map_page(VA, frame, writable=False)
        with pytest.raises(ProtectionFault):
            space.write(VA, 4, 13)
        with pytest.raises(ProtectionFault):
            space.write_bytes(VA, b"\x0d")
        assert space.read(VA, 4) == 12

    def test_hypervisor_table_change_reaches_python_readers(self, m):
        a = m.cpu.address_space
        b = self.space(m, "b")
        svm = self.svm(m, a)
        view = SvmView(svm)
        a.map_page(VA, self.frame_holding(m, 5))
        # the view reaches VA through its own space, at the SVM alias
        alias = svm.translate(VA) >> 12
        m.hypervisor_table.map(HYP_VA >> 12, self.frame_holding(m, 11))
        assert [s.read(HYP_VA, 4) for s in (a, b)] == [11, 11]
        assert view.read(VA, 4) == 5
        m.hypervisor_table.map(HYP_VA >> 12, self.frame_holding(m, 22))
        m.hypervisor_table.map(alias, self.frame_holding(m, 6))
        assert [s.read(HYP_VA, 4) for s in (a, b)] == [22, 22]
        assert view.read(VA, 4) == 6
        m.hypervisor_table.unmap(HYP_VA >> 12)
        m.hypervisor_table.unmap(alias)
        for read in (lambda: a.read(HYP_VA, 4), lambda: b.read(HYP_VA, 4),
                     lambda: view.read(VA, 4)):
            with pytest.raises(PageFault):
                read()

    def test_new_mmio_region_reaches_python_readers(self, m):
        space = m.cpu.address_space
        frame = self.frame_holding(m, 11)
        space.map_page(VA, frame)
        assert space.read(VA, 4) == 11
        space.write(VA + 4, 4, 5)
        device = FakeDevice()
        m.phys.add_mmio_region(frame << 12, PAGE_SIZE, device)
        assert space.read(VA, 4) == 0xAB
        space.write(VA + 4, 4, 6)
        assert device.reads == [(0, 4)]
        assert device.writes == [(4, 4, 6)]

    @pytest.mark.parametrize("case", ["cold", "hot", "split", "scaled"])
    def test_python_fill_stores_the_cpu_entry(self, m, case):
        # the entry a Python read stores carries the price a CPU load
        # would store, and the CPU's next load charges what it would
        # charge on its own entry
        space = m.cpu.address_space
        space.map_page(VA, self.frame_holding(m, 11))
        costs = m.cpu.scaled
        price, charged_price = costs.mem, costs.mem
        if case == "hot":
            m.cpu.add_hot_range(VA, VA + PAGE_SIZE)
            price = charged_price = costs.mem_hot
        elif case == "split":                   # the load is on the hot side
            m.cpu.add_hot_range(VA - PAGE_SIZE, VA + 0x34)
            price, charged_price = None, costs.mem_hot
        elif case == "scaled":
            m.cpu.cycle_scale = 1.37
            price = charged_price = 8
        load, _ = self.accessors(m, VA + 0x30)
        assert space.read(VA, 4) == 11          # Python caches the page
        python_entry = space.read_pages[VA >> 12]
        assert python_entry[1] == price
        load()
        python_cost = self.charged(m, load)
        del space.read_pages[VA >> 12]
        load()                                  # the CPU caches it
        assert space.read_pages[VA >> 12] == python_entry
        assert space.read_pages[VA >> 12][0] is python_entry[0]
        assert self.charged(m, load) == python_cost == self.load_cost(
            m, charged_price)
