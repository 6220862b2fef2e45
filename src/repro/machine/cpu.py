"""CPU interpreter for the virtual ISA, with cycle accounting.

The interpreter executes loaded programs (the driver binaries — original
and rewritten) against an :class:`~repro.machine.paging.AddressSpace`.
Everything the paper's mechanisms rely on is modelled for real:

* memory operands are translated through page tables and can fault;
* MMIO accesses are dispatched to device models (the e1000);
* ``call`` targets may be *native routines* — Python implementations of
  kernel/hypervisor support functions, registered by the loaders. This is
  the boundary between "code the rewriter sees" (driver binary) and "the
  driver support API" (paper §4.3);
* every instruction charges cycles to the current accounting category, so
  the figure 7/8 per-packet breakdowns come from actual execution.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from struct import Struct
from typing import Callable, Dict, List, Optional, Tuple

from ..metrics.cycles import CycleAccount
from ..obs.events import NATIVE_CALL
from ..isa.encoder import layout_with_end
from ..isa.instructions import Instruction
from ..isa.operands import Imm, Label, Mem, Reg
from ..isa.program import Program
from ..isa.registers import GPRS, SUBREGISTERS
from .jit import JitState, compile_superblock
from .memory import (OFFSET_MASK, PACK_U16, PACK_U32, PAGE_SHIFT, PAGE_SIZE,
                     UNPACK_U16, UNPACK_U32, PhysicalMemory)
from .paging import AddressSpace

#: Return-address sentinel that terminates an invocation from Python.
SENTINEL_RETURN = 0xDEAD0000
#: Base of the native-routine plane (support routines live here).
NATIVE_BASE = 0xFFF00000

MASK32 = 0xFFFFFFFF

#: a straight-line run: ``(handler, fall-through address)`` of each
#: instruction from an entry up to and including the first control
#: transfer (see ``_run_for``). One entry may stand for the nine
#: instructions of a figure-4 stlb check (see ``_fused_check``), so
#: ``len(run)`` is not an instruction count.
Run = Tuple[Tuple[Callable[["Cpu"], None], int], ...]

#: the two words of an stlb entry: the page tag and the translation
_UNPACK_ENTRY = Struct("<II").unpack_from


class ExecutionFault(Exception):
    """Control transferred outside any loaded program, or mid-instruction."""


class CpuBudgetExceeded(Exception):
    """Instruction budget blown — the paper's 'infinite loop in the driver'
    failure mode (§4.5.2); callers may treat it like a watchdog timeout."""


class UnresolvedSymbol(Exception):
    """An operand still carries a symbol at execution time: loader bug."""


@dataclass(frozen=True)
class InstructionCosts:
    """Per-class cycle costs charged by the interpreter.

    These model amortised pipeline+cache behaviour, not latency of one
    instruction. They are part of the calibration story (DESIGN.md §5):
    the *ratio* between the rewritten and native driver (paper: 2-3x)
    emerges from instruction counts, while the absolute scale is set so
    the native e1000 transmit path costs ~960 cycles/packet (figure 7).

    Frozen: ``Cpu.scaled`` holds a pre-scaled copy, so an edit in place
    would leave the charged values stale.
    """

    alu: int = 1
    #: extra cycles for a memory access that misses the hot set (driver
    #: data structures, sk_buffs, descriptor rings).
    mem: int = 6
    #: extra cycles for an access to a cache-hot region: the stack, the
    #: stlb table, the SVM spill slots. This is what keeps the paper's
    #: rewritten-driver slowdown in the 2-3x band: the 10-instruction SVM
    #: sequence is ALU work plus two L1-resident stlb loads.
    mem_hot: int = 2
    call: int = 10
    ret: int = 8
    mmio: int = 120
    string_per_unit: int = 2
    native_call: int = 12

    def scaled(self, scale: float) -> "InstructionCosts":
        """Every cost multiplied by ``scale`` and rounded on its own:
        the value one charge of that class adds to the account."""
        return replace(self, **{f.name: int(round(getattr(self, f.name)
                                                  * scale))
                                for f in fields(self)})


class NativeRoutine:
    """A Python-implemented function callable from driver code."""

    def __init__(self, name: str, fn: Callable, cost: int = 0,
                 category: Optional[str] = None):
        self.name = name
        self.fn = fn
        self.cost = cost
        self.category = category

    def __repr__(self):  # pragma: no cover
        return f"<native {self.name}>"


class _InstrumentMap(dict):
    """``index -> hook`` mapping that invalidates compiled state on every
    mutation. The PR 4 dispatch cache bakes the hook into the handler
    closure at first execution; without invalidation, a hook registered
    *after* warm-up (inline probes, elision counters attached to a
    running instance) silently never fires. Mutating this map drops the
    affected handlers and every superblock of the owning program."""

    def __init__(self, owner: "LoadedProgram"):
        super().__init__()
        self._owner = owner

    def __setitem__(self, index, hook):
        super().__setitem__(index, hook)
        self._owner._instrument_changed((index,))

    def __delitem__(self, index):
        super().__delitem__(index)
        self._owner._instrument_changed((index,))

    def pop(self, index, *default):
        had = index in self
        result = super().pop(index, *default)
        if had:
            self._owner._instrument_changed((index,))
        return result

    def clear(self):
        indices = tuple(self)
        super().clear()
        if indices:
            self._owner._instrument_changed(indices)

    def update(self, *args, **kwargs):
        incoming = dict(*args, **kwargs)
        super().update(incoming)
        if incoming:
            self._owner._instrument_changed(tuple(incoming))

    def setdefault(self, index, default=None):
        if index in self:
            return self[index]
        self[index] = default
        return default


class LoadedProgram:
    """A program laid out at a base address with resolved branch targets."""

    def __init__(self, program: Program, base: int,
                 extern: Optional[Dict[str, int]] = None,
                 name: Optional[str] = None):
        self.program = program
        self.base = base
        self.name = name or program.name
        self.addrs, self.end = layout_with_end(program, base)
        self.addr_to_index = {a: i for i, a in enumerate(self.addrs)}
        #: fall-through successor of each instruction (precomputed so the
        #: interpreter hot loop does no bounds arithmetic).
        self.next_addrs = [
            self.addrs[i + 1] if i + 1 < len(self.addrs) else self.end
            for i in range(len(self.addrs))
        ]
        #: per-instruction dispatch cache: compiled handler closures,
        #: filled lazily on first execution (see ``_compile_instruction``).
        self.handlers: List[Optional[Callable[["Cpu"], None]]] = (
            [None] * len(program.instructions)
        )
        #: per-entry straight-line runs for ``Cpu._run_loop`` and the
        #: number of instructions each stands for, built lazily from
        #: ``handlers`` (see ``_run_for``) and dropped with them.
        self.runs: List[Optional[Tuple[Run, int]]] = (
            [None] * len(program.instructions)
        )
        #: fused stlb-check handlers by the index of their ``lea`` (None
        #: where the nine instructions there are not a check), shared by
        #: every run through the check and dropped with the runs.
        self.checks: Dict[int, Optional[Callable[["Cpu"], None]]] = {}
        #: optional per-instruction observers, wrapped into the compiled
        #: handler once at compile time so uninstrumented instructions pay
        #: nothing in the hot loop. Mutations invalidate the affected
        #: handlers (and all superblocks), so hooks registered after
        #: warm-up take effect on the next fetch.
        self.instrument: Dict[int, Callable[["Cpu"], None]] = (
            _InstrumentMap(self)
        )
        #: instrument generation, bumped on every hook change; running
        #: superblocks re-check it after hook/native boundaries.
        self._igen = 0
        #: lazily-created per-program JIT state (see ``jit_state``).
        self._jit: Optional[JitState] = None
        self.symbols = {
            label: (self.addrs[i] if i < len(self.addrs) else self.end)
            for label, i in program.labels.items()
        }
        extern = extern or {}
        self.targets: Dict[int, int] = {}
        for i, instr in enumerate(program.instructions):
            if instr.is_control_flow and not instr.indirect and instr.operands:
                op = instr.operands[0]
                if isinstance(op, Label):
                    if op.name in self.symbols:
                        self.targets[i] = self.symbols[op.name]
                    elif op.name in extern:
                        self.targets[i] = extern[op.name]
                    else:
                        raise UnresolvedSymbol(
                            f"{self.name}: unresolved call target {op.name!r}"
                        )

    def symbol(self, name: str) -> int:
        return self.symbols[name]

    def _instrument_changed(self, indices):
        """A hook was added/removed: drop the baked handlers for those
        sites, every run, fused check and superblock (all may run
        through them). The lists are cleared in place: ``_run_loop``
        holds them."""
        self._igen += 1
        n = len(self.handlers)
        for index in indices:
            if 0 <= index < n:
                self.handlers[index] = None
        self.runs[:] = [None] * n
        self.checks.clear()
        if self._jit is not None:
            self._jit.counts.clear()
            self._jit.superblocks.clear()

    def jit_state(self, epoch: int) -> JitState:
        """This program's superblock cache, valid for registry ``epoch``
        (stale state from before a reload/re-verification is reset)."""
        js = self._jit
        if js is None:
            js = self._jit = JitState(epoch)
        elif js.epoch != epoch:
            js.reset(epoch)
        return js


class CodeRegistry:
    """Maps instruction addresses to loaded programs."""

    def __init__(self):
        self._bases: List[int] = []
        self._programs: List[LoadedProgram] = []
        #: bumped on every register/unregister so CPU-side program caches
        #: can tell when a cached LoadedProgram may be stale.
        self.epoch = 0

    def register(self, loaded: LoadedProgram):
        for base, prog in zip(self._bases, self._programs):
            if loaded.base < prog.end and base < loaded.end:
                raise ValueError(
                    f"code overlap: {loaded.name} with {prog.name}"
                )
        pos = bisect_right(self._bases, loaded.base)
        self._bases.insert(pos, loaded.base)
        self._programs.insert(pos, loaded)
        self.epoch += 1

    def unregister(self, loaded: LoadedProgram):
        """Remove a loaded program (driver quarantine/reload) so a new
        binary can occupy the same address range."""
        for pos, prog in enumerate(self._programs):
            if prog is loaded:
                del self._bases[pos]
                del self._programs[pos]
                self.epoch += 1
                return
        raise ValueError(f"program not registered: {loaded.name}")

    def lookup(self, addr: int) -> Tuple[LoadedProgram, int]:
        pos = bisect_right(self._bases, addr) - 1
        if pos >= 0:
            loaded = self._programs[pos]
            if loaded.base <= addr < loaded.end:
                index = loaded.addr_to_index.get(addr)
                if index is None:
                    raise ExecutionFault(
                        f"jump into the middle of an instruction at "
                        f"{addr:#010x} in {loaded.name}"
                    )
                return loaded, index
        raise ExecutionFault(f"execution of unmapped address {addr:#010x}")

    def contains(self, addr: int) -> bool:
        pos = bisect_right(self._bases, addr) - 1
        return pos >= 0 and self._programs[pos].base <= addr < self._programs[pos].end

    def program_at(self, addr: int) -> LoadedProgram:
        return self.lookup(addr)[0]


class NativeRegistry:
    """Allocates native-plane addresses and dispatches calls to them."""

    def __init__(self):
        self.by_addr: Dict[int, NativeRoutine] = {}
        self.by_name: Dict[str, int] = {}
        self._next = NATIVE_BASE

    def register(self, routine: NativeRoutine) -> int:
        addr = self._next
        self._next += 16
        self.by_addr[addr] = routine
        self.by_name[routine.name] = addr
        return addr

    def address_of(self, name: str) -> int:
        return self.by_name[name]

    def is_native(self, addr: int) -> bool:
        return addr in self.by_addr


class Cpu:
    """The interpreter. One CPU, as in the paper's uniprocessor profile."""

    def __init__(self, phys: PhysicalMemory, code: CodeRegistry,
                 natives: NativeRegistry, account: CycleAccount,
                 costs: Optional[InstructionCosts] = None):
        self.phys = phys
        self.code = code
        self.natives = natives
        self.account = account
        self._costs = costs or InstructionCosts()
        self.regs: Dict[str, int] = {r: 0 for r in GPRS}
        self.flags = {"zf": False, "sf": False, "cf": False, "of": False}
        self.df = False
        self.eip = SENTINEL_RETURN
        self.address_space: Optional[AddressSpace] = None
        self._category: List[str] = ["dom0"]
        self.executed = 0
        self.max_steps_per_call = 5_000_000
        #: deferred charging (see ``settle``): set while ``_run_loop``
        #: runs handlers with no charge shadow installed. Handlers then
        #: owe ``alu`` for every instruction executed since ``_settled``
        #: (a value of ``executed``), and page-cache hits add their price
        #: to ``_owed`` instead of charging it.
        self._deferring = False
        self._owed = 0
        self._settled = 0
        #: bumped by every ``_leave``: a run of handlers stops after an
        #: instruction that reached code outside the interpreter (and by
        #: a fused stlb check that branches to its slow block).
        self._leaves = 0
        #: instructions fused stlb checks ran beyond the one run entry
        #: each is, not yet added to the running loop's budget count.
        self._extra = 0
        #: virtual-address ranges treated as cache-hot (stacks, stlb).
        self.hot_ranges: List[Tuple[int, int]] = []
        # every page-cache entry over this memory carries this CPU's
        # price, whichever reader filled it
        phys.page_price = self._page_price
        #: multiplies interpreter cycle charges (driver-speed calibration);
        #: setting it also sets ``scaled``, the pre-scaled cost table that
        #: every interpreter charge and every JIT constant is taken from.
        self.cycle_scale = 1.0
        #: bumped whenever the hypervisor rotates the active vCPU; JIT
        #: superblock world guards compare it so a mid-trace vCPU change
        #: (natives can run the scheduler) bails to ``_run_loop``.
        self.world_token = 0
        #: trace ring and cycle-attribution profiler (set by Machine).
        self.tracer = None
        self.profiler = None
        #: trace-JIT (superblock compilation): off by default, enabled
        #: per-configuration via ``configs.build(..., jit=True)``.
        self.jit_enabled = False
        #: jumps to a run head before its superblock is compiled.
        self.jit_threshold = 16
        #: compile-time stats (kept off the metrics registry so enabling
        #: the JIT does not perturb any observable counter set).
        self.jit_compiles = 0
        self.jit_blacklisted = 0

    # -- accounting ----------------------------------------------------------

    @property
    def costs(self) -> InstructionCosts:
        return self._costs

    @property
    def cycle_scale(self) -> float:
        return self._cycle_scale

    @cycle_scale.setter
    def cycle_scale(self, scale: float):
        self.settle()
        self._cycle_scale = scale
        self.scaled = self._costs.scaled(scale)
        self._clear_page_caches()

    @property
    def category(self) -> str:
        return self._category[-1]

    def push_category(self, category: str):
        self.settle()
        self._category.append(category)

    def pop_category(self):
        if len(self._category) == 1:
            raise RuntimeError("category stack underflow")
        self.settle()
        self._category.pop()

    def settle(self):
        """Charge what the deferring loop owes to the current category:
        ``alu`` for each instruction executed since the last settle and
        the RAM hits it added up. Counters only add integers, so the
        account then holds exactly what per-item charging would have
        put there. A no-op unless the loop is deferring."""
        if self._deferring:
            executed = self.executed
            owed = self._owed + (executed - self._settled) * self.scaled.alu
            self._owed = 0
            self._settled = executed
            if owed:
                self.account.charge(self._category[-1], owed)

    def _leave(self) -> bool:
        """Before code outside the interpreter runs from a handler (a
        native, an instrument hook, a device): count the exit, which
        ends the running run, then settle and stop deferring, so that
        code reads an exact account and its own charges land at once.
        Returns whether the loop was deferring."""
        self._leaves += 1
        if not self._deferring:
            return False
        self.settle()
        self._deferring = False
        return True

    def _resume(self):
        """Back from that code, or from a superblock: defer again, owing
        ``alu`` only from here on (driver code it ran has been charged
        already), unless it installed a charge shadow, in which case
        ``_run_loop`` charges the rest of the call item by item."""
        self._settled = self.executed
        self._deferring = not self.account.shadowed

    def charge_raw(self, cycles: int, category: Optional[str] = None):
        """Charge un-scaled cycles (used by modelled kernel costs)."""
        self.account.charge(category or self.category, int(cycles))

    # -- registers -------------------------------------------------------------

    def get_reg(self, name: str) -> int:
        if name in self.regs:
            return self.regs[name]
        parent = SUBREGISTERS[name]
        value = self.regs[parent]
        return value & (0xFF if len(name) == 2 and name[1] == "l" else 0xFFFF)

    def set_reg(self, name: str, value: int):
        if name in self.regs:
            self.regs[name] = value & MASK32
            return
        parent = SUBREGISTERS[name]
        if len(name) == 2 and name[1] == "l":
            self.regs[parent] = (self.regs[parent] & ~0xFF) | (value & 0xFF)
        else:
            self.regs[parent] = (self.regs[parent] & ~0xFFFF) | (value & 0xFFFF)

    # -- stack -------------------------------------------------------------------

    def push(self, value: int):
        self.regs["esp"] = (self.regs["esp"] - 4) & MASK32
        self.write_mem(self.regs["esp"], 4, value)

    def pop(self) -> int:
        value = self.read_mem(self.regs["esp"], 4)
        self.regs["esp"] = (self.regs["esp"] + 4) & MASK32
        return value

    def read_stack_arg(self, index: int) -> int:
        """Argument ``index`` (0-based) for a native routine: the return
        address sits at ``esp``, arguments above it."""
        return self.read_mem(self.regs["esp"] + 4 + 4 * index, 4)

    # -- memory -------------------------------------------------------------------

    def add_hot_range(self, lo: int, hi: int):
        if (lo, hi) not in self.hot_ranges:
            self.hot_ranges.append((lo, hi))
            self._clear_page_caches()

    def _clear_page_caches(self):
        """Drop every cached page: the prices they carry are stale."""
        for cache in self.phys.page_caches:
            cache.clear()

    def _ram_price(self, vaddr: int) -> int:
        """What an access at ``vaddr`` pays: ``mem_hot`` inside a hot
        range, ``mem`` outside them."""
        for lo, hi in self.hot_ranges:
            if lo <= vaddr < hi:
                return self.scaled.mem_hot
        return self.scaled.mem

    def _page_price(self, vpage: int) -> Optional[int]:
        """``_ram_price`` of every address in page ``vpage``, for its
        page-cache entry: ``mem_hot`` when one hot range covers the
        page, ``mem`` when none touches it, None when a range edge falls
        inside it."""
        first = vpage << PAGE_SHIFT
        end = first + PAGE_SIZE
        price = self.scaled.mem
        for lo, hi in self.hot_ranges:
            if lo <= first and end <= hi:
                return self.scaled.mem_hot
            if lo < end and first < hi:
                price = None
        return price

    # ``read_mem``/``write_mem`` serve an access inside one page from the
    # address space's RAM page cache (virtual page -> (frame bytearray,
    # page price)): one dict lookup, one charge or deferred add of the
    # page's price (``_ram_price`` when the entry has none), one unpack
    # or pack. A page not yet cached, a page-crossing access, MMIO and a
    # missing frame take ``_miss``, which prices and performs the access
    # the same way and caches the page when it is plain RAM.

    def read_mem(self, vaddr: int, size: int) -> int:
        vaddr &= MASK32
        offset = vaddr & OFFSET_MASK
        entry = self.address_space.read_pages.get(vaddr >> PAGE_SHIFT)
        if entry is None or offset + size > PAGE_SIZE:
            return self._miss(vaddr, size, None)
        data, cost = entry
        if cost is None:
            cost = self._ram_price(vaddr)
        if self._deferring:
            self._owed += cost
        else:
            self.account.charge(self._category[-1], cost)
        if size == 4:
            return UNPACK_U32(data, offset)[0]
        if size == 1:
            return data[offset]
        return UNPACK_U16(data, offset)[0]

    def write_mem(self, vaddr: int, size: int, value: int):
        vaddr &= MASK32
        offset = vaddr & OFFSET_MASK
        entry = self.address_space.write_pages.get(vaddr >> PAGE_SHIFT)
        if entry is None or offset + size > PAGE_SIZE:
            self._miss(vaddr, size, value)
            return
        data, cost = entry
        if cost is None:
            cost = self._ram_price(vaddr)
        if self._deferring:
            self._owed += cost
        else:
            self.account.charge(self._category[-1], cost)
        if size == 4:
            PACK_U32(data, offset, value & MASK32)
        elif size == 1:
            data[offset] = value & 0xFF
        else:
            PACK_U16(data, offset, value & 0xFFFF)

    def _miss(self, vaddr: int, size: int, value: Optional[int]):
        """An access the page cache cannot serve (``value`` None reads).
        ``translate`` raises ``PageFault``/``ProtectionFault`` before any
        charge; then one charge, ``mmio`` or the RAM price, and the access
        through ``PhysicalMemory`` (device dispatch, ``BusError``). A
        device observes the clock, so MMIO settles first and runs with
        deferral off."""
        space = self.address_space
        write = value is not None
        paddr = space.translate(vaddr, write)
        phys = self.phys
        deferring = False
        if phys.mmio_region_at(paddr) is not None:
            deferring = self._leave()
            cost = self.scaled.mmio
        else:
            cost = self._ram_price(vaddr)
            space.cache_page(vaddr, paddr, write)
        self.account.charge(self._category[-1], cost)
        result = None
        # a page-straddling access goes through the address space: the
        # two halves may translate to discontiguous frames
        if (vaddr & OFFSET_MASK) + size > PAGE_SIZE:
            if not write:
                result = int.from_bytes(space.read_bytes(vaddr, size),
                                        "little")
            else:
                space.write_bytes(vaddr, (value & ((1 << (size * 8)) - 1))
                                  .to_bytes(size, "little"))
        elif not write:
            result = phys.read(paddr, size)
        else:
            phys.write(paddr, size, value)
        if deferring:
            self._resume()
        return result

    # -- flags ------------------------------------------------------------------------

    def _set_zsf(self, result: int, size: int):
        bits = size * 8
        masked = result & ((1 << bits) - 1)
        self.flags["zf"] = masked == 0
        self.flags["sf"] = bool(masked & (1 << (bits - 1)))

    def _flags_add(self, a: int, b: int, size: int) -> int:
        bits = size * 8
        mask = (1 << bits) - 1
        r = (a + b) & mask
        sign = 1 << (bits - 1)
        self.flags["cf"] = (a + b) > mask
        self.flags["of"] = bool((~(a ^ b)) & (a ^ r) & sign)
        self._set_zsf(r, size)
        return r

    def _flags_sub(self, a: int, b: int, size: int) -> int:
        bits = size * 8
        mask = (1 << bits) - 1
        r = (a - b) & mask
        sign = 1 << (bits - 1)
        self.flags["cf"] = a < b
        self.flags["of"] = bool((a ^ b) & (a ^ r) & sign)
        self._set_zsf(r, size)
        return r

    def _flags_logic(self, r: int, size: int) -> int:
        self.flags["cf"] = False
        self.flags["of"] = False
        self._set_zsf(r, size)
        return r & ((1 << (size * 8)) - 1)

    def flags_word(self) -> int:
        f = self.flags
        return (
            (1 if f["cf"] else 0)
            | (1 << 6 if f["zf"] else 0)
            | (1 << 7 if f["sf"] else 0)
            | (1 << 11 if f["of"] else 0)
            | (1 << 10 if self.df else 0)
        )

    def set_flags_word(self, word: int):
        self.flags["cf"] = bool(word & 1)
        self.flags["zf"] = bool(word & (1 << 6))
        self.flags["sf"] = bool(word & (1 << 7))
        self.flags["of"] = bool(word & (1 << 11))
        self.df = bool(word & (1 << 10))

    # -- invocation from Python ---------------------------------------------------------

    def call_function(self, addr: int, args=(), stack_top: Optional[int] = None,
                      category: Optional[str] = None) -> int:
        """Invoke a function at ``addr`` with integer args, cdecl-style.

        Used by the kernel/hypervisor layers to enter driver code. Nested
        invocations (native routine -> driver callback) are supported.
        """
        saved_eip = self.eip
        saved_esp = self.regs["esp"]
        if stack_top is not None:
            if self.eip != SENTINEL_RETURN:
                # Nested invocation (e.g. an interrupt handler invoked while
                # driver code is suspended): stack below the live frames
                # instead of clobbering them from stack_top.
                self.regs["esp"] = (saved_esp - 64) & ~0xF
            else:
                self.regs["esp"] = stack_top
        if category is not None:
            self.push_category(category)
        try:
            # Native target: dispatch directly.
            routine = self.natives.by_addr.get(addr)
            if routine is not None:
                for value in reversed(args):
                    self.push(value)
                self.push(SENTINEL_RETURN)
                self._invoke_native(routine)
                return self.regs["eax"]
            for value in reversed(args):
                self.push(value)
            self.push(SENTINEL_RETURN)
            self.eip = addr
            self._run_loop()
            return self.regs["eax"]
        finally:
            if category is not None:
                self.pop_category()
            self.regs["esp"] = saved_esp
            self.eip = saved_eip

    def _run_loop(self):
        """Run until the sentinel return address: the one loop that
        dispatches driver instructions. Per run head it resolves the
        program once and takes one of three branches:

        * superblock (JIT on, no charge shadow, head hot): settle, run
          the superblock with deferral off, ``_resume``, and count its
          instructions against the budget. A head is hot once the loop
          has jumped to it ``jit_threshold`` times; one it fell through
          to (``fall``: a branch not taken, a native's return, a run
          stopped early) continues an earlier head's path, which that
          head's trace covers. A blacklisted head, or one compiled at
          another cycle scale, takes the next branch;
        * deferring (no shadow): the head's run (``_run_for``) runs
          without its ``alu`` charges; ``settle`` pays them and the RAM
          hits before outside code runs (``_leave``) and at loop exit;
        * shadow: each ``alu`` is charged before its handler, so the
          shadow sees every cost item on its own.

        A run stops after a handler that reached outside code (a native,
        a hook, a device), which may shadow, hook or replace what runs
        next, and after a fused stlb check that branched to its slow
        block. The budget counts this loop's instructions: a fused check
        counts the ones it ran (``_extra``), and a loop a native runs
        nested counts against its own budget. A run that could take the
        call past the budget runs as the unfused run, cut where the
        budget ends."""
        budget = self.max_steps_per_call
        code = self.code
        jit = self.jit_enabled
        steps = 0
        fall = None     # fall-through address of the last run's last insn
        # the program of the last fetch and its tables are kept in
        # locals and re-resolved only on a registry change or on leaving
        # its address range
        loaded = None
        epoch = -1
        lo = hi = 0
        self._settled = self.executed
        self._deferring = not self.account.shadowed
        # a loop a native runs nested keeps the count of the run that
        # called it apart from its own
        outer_extra = self._extra
        self._extra = 0
        try:
            while True:
                eip = self.eip
                if eip == SENTINEL_RETURN:
                    return
                index = None
                if epoch == code.epoch and lo <= eip < hi:
                    index = index_of(eip)
                if index is None:
                    loaded, index = code.lookup(eip)
                    epoch = code.epoch
                    lo, hi = loaded.base, loaded.end
                    index_of = loaded.addr_to_index.get
                    runs = loaded.runs
                    if jit:
                        js = loaded.jit_state(epoch)
                sb = None
                if jit and self._deferring:
                    sb = js.superblocks.get(eip)
                    if sb is None and eip != fall:
                        hits = js.counts.get(eip, 0) + 1
                        if hits < self.jit_threshold:
                            js.counts[eip] = hits
                        else:
                            js.counts.pop(eip, None)
                            sb = compile_superblock(self, loaded, eip)
                            if sb is None:
                                sb = False
                                self.jit_blacklisted += 1
                            else:
                                self.jit_compiles += 1
                            js.superblocks[eip] = sb
                if sb and sb.scale == self._cycle_scale:
                    self.settle()
                    self._deferring = False
                    start = self.executed
                    sb.entries += 1
                    sb.fn(self)
                    self._resume()
                    steps += self.executed - start
                    fall = None
                else:
                    run = runs[index]
                    if run is None:
                        run = _run_for(loaded, index)
                    run, insns = run
                    if steps + insns > budget:
                        run = _run_for(loaded, index, fuse=False)[0]
                        run = run[:budget + 1 - steps]
                    leaves = self._leaves
                    if self._deferring:
                        for count, (handler, next_addr) in enumerate(run, 1):
                            self.executed += 1
                            self.eip = next_addr
                            handler(self)
                            if self._leaves != leaves:
                                break
                    else:
                        for count, (handler, next_addr) in enumerate(run, 1):
                            self.executed += 1
                            self.eip = next_addr
                            self.account.charge(self._category[-1],
                                                self.scaled.alu)
                            handler(self)
                            if self._leaves != leaves:
                                break
                    steps += count
                    if self._extra:
                        steps += self._extra
                        self._extra = 0
                    fall = next_addr
                if steps > budget:
                    raise CpuBudgetExceeded(
                        f"driver executed more than {budget} instructions"
                    )
        finally:
            self.settle()
            self._deferring = False
            self._extra = outer_extra

    def _invoke_native(self, routine: NativeRoutine):
        deferring = self._leave()
        if self.tracer.enabled:
            self.tracer.emit(NATIVE_CALL, name=routine.name)
        prof = self.profiler
        profiled = prof.enabled
        if profiled:
            prof.push_phase("native:" + routine.name)
        try:
            self.account.charge(self._category[-1], self.scaled.native_call)
            if routine.cost:
                self.charge_raw(routine.cost, routine.category)
            if routine.category is not None:
                self.push_category(routine.category)
            try:
                result = routine.fn(self)
            finally:
                if routine.category is not None:
                    self.pop_category()
        finally:
            if profiled:
                prof.pop_phase()
        if result is not None:
            self.regs["eax"] = result & MASK32
        self.eip = self.pop()
        if deferring:
            self._resume()

    # -- the interpreter ---------------------------------------------------------------

    def jit_stats(self) -> Dict[str, int]:
        """Superblock statistics summed over every registered program
        (compile counters are CPU-lifetime)."""
        stats = {"compiles": self.jit_compiles,
                 "blacklisted": self.jit_blacklisted,
                 "superblocks": 0, "entries": 0}
        for loaded in self.code._programs:
            if loaded._jit is not None:
                for sb in loaded._jit.superblocks.values():
                    if sb:
                        stats["superblocks"] += 1
                        stats["entries"] += sb.entries
        return stats

    # -- string instructions ----------------------------------------------------------

    def _string_element(self, instr: Instruction) -> bool:
        """One element of a string op; returns the zf produced (for cmps/scas)."""
        size = instr.size
        step = -size if self.df else size
        m = instr.mnemonic
        if m == "movs":
            value = self.read_mem(self.regs["esi"], size)
            self.write_mem(self.regs["edi"], size, value)
            self.regs["esi"] = (self.regs["esi"] + step) & MASK32
            self.regs["edi"] = (self.regs["edi"] + step) & MASK32
        elif m == "stos":
            self.write_mem(self.regs["edi"], size,
                           self.get_reg("eax"))
            self.regs["edi"] = (self.regs["edi"] + step) & MASK32
        elif m == "lods":
            value = self.read_mem(self.regs["esi"], size)
            mask = (1 << (size * 8)) - 1
            self.regs["eax"] = (self.regs["eax"] & ~mask) | (value & mask)
            self.regs["esi"] = (self.regs["esi"] + step) & MASK32
        elif m == "cmps":
            a = self.read_mem(self.regs["esi"], size)
            b = self.read_mem(self.regs["edi"], size)
            self._flags_sub(a, b, size)
            self.regs["esi"] = (self.regs["esi"] + step) & MASK32
            self.regs["edi"] = (self.regs["edi"] + step) & MASK32
        elif m == "scas":
            a = self.get_reg("eax") & ((1 << (size * 8)) - 1)
            b = self.read_mem(self.regs["edi"], size)
            self._flags_sub(a, b, size)
            self.regs["edi"] = (self.regs["edi"] + step) & MASK32
        return self.flags["zf"]

    def _execute_string(self, instr: Instruction):
        if instr.prefix is None:
            self.account.charge(self._category[-1],
                                self.scaled.string_per_unit)
            self._string_element(instr)
            return
        while self.regs["ecx"] != 0:
            self.account.charge(self._category[-1],
                                self.scaled.string_per_unit)
            zf = self._string_element(instr)
            self.regs["ecx"] = (self.regs["ecx"] - 1) & MASK32
            if instr.prefix == "repe" and not zf:
                break
            if instr.prefix == "repne" and zf:
                break


# ---------------------------------------------------------------------------
# Instruction dispatch cache
# ---------------------------------------------------------------------------
#
# The compiler below turns each instruction into a specialized closure —
# the mnemonic test, operand decoding and branch-target resolution happen
# once, at first execution, and the closure is cached on the LoadedProgram
# keyed by instruction index. These closures *are* the instruction
# semantics: ``_run_loop`` runs them, and the superblock JIT must
# reproduce their effects and their charges (one ``account.charge`` per
# cost item, in order, valued from ``cpu.scaled``) bit for bit. A handler
# never charges ``alu`` itself: under a charge shadow ``_run_loop``
# charges it before the handler, and otherwise owes it per executed
# instruction.

#: full (32-bit) register names — sub-register access goes through
#: get_reg/set_reg, full registers are read/written directly.
_FULL_REGS = frozenset(GPRS)


def _handler_for(loaded: LoadedProgram, index: int) -> Callable[[Cpu], None]:
    """Compile (and cache) the handler for one instruction, wrapping the
    instrument hook registered for that site. Shared by ``_run_for`` and
    the superblock compiler so both see identical hook semantics."""
    handler = _compile_instruction(
        loaded.program.instructions[index], loaded, index
    )
    hook = loaded.instrument.get(index)
    if hook is not None:
        inner = handler

        def handler(cpu, _hook=hook, _inner=inner):
            deferring = cpu._leave()
            _hook(cpu)
            if deferring:
                cpu._resume()
            _inner(cpu)
    loaded.handlers[index] = handler
    return handler


def _run_for(loaded: LoadedProgram, index: int,
             fuse: bool = True) -> Tuple[Run, int]:
    """Build the run from ``index`` and count the instructions it stands
    for: every instruction up to and including the first
    ``jmp``/``jcc``/``call``/``ret``, or to the program's end. Handlers
    are compiled here, ahead of execution; one whose compilation fails
    ends the run before it, so the error is raised when the loop reaches
    that instruction, after the ones before it have run. With ``fuse``
    the run is cached and each figure-4 stlb check in it is one entry
    (``_fused_check``), so the run goes on past the check's ``jne``;
    without, it is uncached and made of the instructions' own
    handlers."""
    instructions = loaded.program.instructions
    handlers = loaded.handlers
    next_addrs = loaded.next_addrs
    run = []
    insns = 0
    i = index
    while i < len(instructions):
        instr = instructions[i]
        if fuse and instr.mnemonic == "lea":
            check = _fused_check(loaded, i)
            if check is not None:
                run.append((check, next_addrs[i + 8]))
                insns += 9
                i += 9
                continue
        handler = handlers[i]
        if handler is None:
            try:
                handler = _handler_for(loaded, i)
            except Exception:
                if i == index:
                    raise
                break
        run.append((handler, next_addrs[i]))
        insns += 1
        if instr.is_control_flow:
            break
        i += 1
    run = tuple(run)
    if fuse:
        loaded.runs[index] = (run, insns)
    return run, insns


def _ea_thunk(mem: Mem) -> Callable[[Cpu], int]:
    """Compile an effective-address computation for one Mem operand."""
    if mem.symbol is not None:
        symbol = mem.symbol

        def unresolved(cpu: Cpu) -> int:
            raise UnresolvedSymbol(
                f"unresolved data symbol {symbol!r} at execution"
            )
        return unresolved
    disp, base, index, scale = mem.disp, mem.base, mem.index, mem.scale
    if base is None and index is None:
        addr = disp & MASK32
        return lambda cpu: addr
    if not {base, index} <= _FULL_REGS | {None}:
        # a sub-register address component (rare): the general form
        return lambda cpu: (
            (cpu.get_reg(base) if base is not None else 0)
            + (cpu.get_reg(index) * scale if index is not None else 0)
            + disp
        ) & MASK32
    if index is None:
        return lambda cpu: (cpu.regs[base] + disp) & MASK32
    if base is None:
        return lambda cpu: (cpu.regs[index] * scale + disp) & MASK32
    return lambda cpu: (
        cpu.regs[base] + cpu.regs[index] * scale + disp
    ) & MASK32


def _read_thunk(op, size: int) -> Callable[[Cpu], int]:
    """Compile an operand read."""
    mask = (1 << (size * 8)) - 1
    if isinstance(op, Imm):
        if op.symbol is not None:
            symbol = op.symbol

            def unresolved(cpu: Cpu) -> int:
                raise UnresolvedSymbol(
                    f"unresolved immediate symbol {symbol!r}"
                )
            return unresolved
        value = op.value & mask
        return lambda cpu: value
    if isinstance(op, Reg):
        name = op.name
        if name in _FULL_REGS and size == 4:
            return lambda cpu: cpu.regs[name] & MASK32
        return lambda cpu: cpu.get_reg(name) & mask
    if isinstance(op, Mem):
        ea = _ea_thunk(op)
        return lambda cpu: cpu.read_mem(ea(cpu), size)

    def unreadable(cpu: Cpu) -> int:
        raise ExecutionFault(f"cannot read operand {op!r}")
    return unreadable


def _write_thunk(op, size: int) -> Callable[[Cpu, int], None]:
    """Compile an operand write. A sub-word write to a full register
    name keeps the register's upper bits."""
    mask = (1 << (size * 8)) - 1
    if isinstance(op, Reg):
        name = op.name
        if name in _FULL_REGS:
            if size == 4:
                def write_full(cpu: Cpu, value: int):
                    cpu.regs[name] = value & MASK32
                return write_full

            def write_partial(cpu: Cpu, value: int):
                cpu.regs[name] = (cpu.regs[name] & ~mask) | (value & mask)
            return write_partial

        def write_sub(cpu: Cpu, value: int):
            cpu.set_reg(name, value & mask)
        return write_sub
    if isinstance(op, Mem):
        ea = _ea_thunk(op)

        def write_mem(cpu: Cpu, value: int):
            cpu.write_mem(ea(cpu), size, value)
        return write_mem

    def unwritable(cpu: Cpu, value: int):
        raise ExecutionFault(f"cannot write operand {op!r}")
    return unwritable


def _target_thunk(instr: Instruction, loaded: LoadedProgram,
                  index: int) -> Callable[[Cpu], int]:
    """Compile branch-target resolution. A memory-indirect target pays
    ``mem`` on top of the load's own price."""
    if instr.indirect:
        op = instr.operands[0]
        if isinstance(op, Reg):
            name = op.name
            return lambda cpu: cpu.get_reg(name)
        if isinstance(op, Mem):
            ea = _ea_thunk(op)

            def mem_target(cpu: Cpu) -> int:
                cpu.account.charge(cpu._category[-1], cpu.scaled.mem)
                return cpu.read_mem(ea(cpu), 4)
            return mem_target

        def bad_target(cpu: Cpu) -> int:
            raise ExecutionFault("bad indirect target operand")
        return bad_target
    target = loaded.targets[index]
    return lambda cpu: target


# -- operand-specialised handlers ---------------------------------------------
#
# The common shapes get a closure that reaches its operands directly: a
# full register as ``cpu.regs[name]``, an immediate as a closure
# constant, a ``[base+disp]`` or ``[disp]`` operand by computing the
# address inline and calling ``read_mem``/``write_mem``; flags are
# written inline. Each charges exactly what the thunk form charges, in
# the same order: an ALU op reads dst before src, mov reads src before
# it writes dst. Every other shape keeps thunks: sub-registers, indexed
# or symbolic memory, ALU ops with a memory destination, imul, sar and
# shifts by a register, the stack, call/ret/jmp and string ops.

#: the bitwise ALU ops (``test`` is ``and`` without the writeback)
_BITWISE = {"and": operator.and_, "test": operator.and_,
            "or": operator.or_, "xor": operator.xor}

#: conditional jumps on one flag: mnemonic -> (flag, jump when it is set)
_FLAG_JUMPS = {
    "je": ("zf", True), "jz": ("zf", True),
    "jne": ("zf", False), "jnz": ("zf", False),
    "jb": ("cf", True), "jae": ("cf", False),
    "js": ("sf", True), "jns": ("sf", False),
}


def _no_op(cpu: Cpu):
    """The handler of an instruction with no effect but its ``alu``."""


def _full_reg(op, size: int) -> Optional[str]:
    """The name of ``op`` when it is a whole 32-bit register at size 4."""
    if size == 4 and isinstance(op, Reg) and op.name in _FULL_REGS:
        return op.name
    return None


def _simple_mem(op) -> Optional[Tuple[Optional[str], int]]:
    """``(base, disp)`` of a ``[base+disp]`` operand with a full-register
    base, or of a ``[disp]`` one (base None); None for any other form."""
    if (isinstance(op, Mem) and op.symbol is None and op.index is None
            and (op.base is None or op.base in _FULL_REGS)):
        return op.base, op.disp
    return None


def _source(op, size: int):
    """``(reg, mem, value)`` of a specialisable source operand: a full
    register name, a ``_simple_mem`` pair, or (both None) an immediate
    masked to ``size``. None for any other operand."""
    if isinstance(op, Imm):
        if op.symbol is None:
            return None, None, op.value & ((1 << (size * 8)) - 1)
        return None
    reg = _full_reg(op, size)
    if reg is not None:
        return reg, None, 0
    mem = _simple_mem(op)
    if mem is not None:
        return None, mem, 0
    return None


def _specialised(instr: Instruction, loaded: LoadedProgram,
                 index: int) -> Optional[Callable[[Cpu], None]]:
    """The operand-specialised handler of ``instr``, or None when its
    shape keeps thunks."""
    m = instr.mnemonic
    if m == "mov":
        return _specialised_mov(instr, instr.size)
    if m in ("movzb", "movzw"):
        return _specialised_mov(instr, 4)
    if m == "lea":
        return _specialised_lea(instr)
    if m in ("add", "sub", "cmp") or m in _BITWISE:
        return _specialised_alu(m, instr)
    if m in ("shl", "shr"):
        return _specialised_shift(m, instr)
    if instr.is_conditional:
        return _specialised_jcc(m, loaded.targets[index])
    return None


def _specialised_mov(instr: Instruction, dst_size: int):
    """mov/movzb/movzw into a full register from a full register, an
    immediate or simple memory, or into simple memory from a full
    register or an immediate."""
    size = instr.size
    src = _source(instr.src, size)
    if src is None:
        return None
    s, mem, value = src
    d = _full_reg(instr.dst, dst_size)
    if d is not None:
        if s is not None:
            def mov_reg(cpu: Cpu):
                regs = cpu.regs
                regs[d] = regs[s] & MASK32
            return mov_reg
        if mem is None:
            def mov_imm(cpu: Cpu):
                cpu.regs[d] = value
            return mov_imm
        base, disp = mem

        def mov_load(cpu: Cpu):
            cpu.regs[d] = cpu.read_mem(
                cpu.regs[base] + disp if base else disp, size) & MASK32
        return mov_load
    dst = _simple_mem(instr.dst)
    if dst is None or mem is not None:
        return None
    base, disp = dst
    if s is not None:
        def mov_store(cpu: Cpu):
            regs = cpu.regs
            cpu.write_mem(regs[base] + disp if base else disp, dst_size,
                          regs[s])
        return mov_store

    def mov_store_imm(cpu: Cpu):
        cpu.write_mem(cpu.regs[base] + disp if base else disp, dst_size,
                      value)
    return mov_store_imm


def _lea_form(instr: Instruction):
    """``(dst, base, index, scale, disp)`` of a lea of any full-register
    address form into a full register; None for any other lea."""
    d = _full_reg(instr.dst, 4)
    op = instr.src
    if (d is None or not isinstance(op, Mem) or op.symbol is not None
            or not {op.base, op.index} <= _FULL_REGS | {None}):
        return None
    return d, op.base, op.index, op.scale, op.disp


def _specialised_lea(instr: Instruction):
    """lea of any full-register address form into a full register."""
    form = _lea_form(instr)
    if form is None:
        return None
    d, base, index, scale, disp = form

    def op_lea(cpu: Cpu):
        regs = cpu.regs
        ea = disp
        if base:
            ea += regs[base]
        if index:
            ea += regs[index] * scale
        regs[d] = ea & MASK32
    return op_lea


def _specialised_alu(m: str, instr: Instruction):
    """add/sub/cmp/and/test/or/xor into a full register."""
    d = _full_reg(instr.dst, instr.size)
    src = _source(instr.src, instr.size)
    if d is None or src is None:
        return None
    s, mem, value = src
    base, disp = mem or (None, 0)
    store = m not in ("cmp", "test")

    if m == "add":
        def op_add(cpu: Cpu):
            regs = cpu.regs
            a = regs[d] & MASK32
            if s is not None:
                b = regs[s] & MASK32
            elif mem is None:
                b = value
            else:
                b = cpu.read_mem(regs[base] + disp if base else disp, 4)
            t = a + b
            r = t & MASK32
            flags = cpu.flags
            flags["cf"] = t > MASK32
            flags["of"] = ~(a ^ b) & (a ^ r) & 0x80000000 != 0
            flags["zf"] = r == 0
            flags["sf"] = r >= 0x80000000
            regs[d] = r
        return op_add
    if m in ("sub", "cmp"):
        def op_sub(cpu: Cpu):
            regs = cpu.regs
            a = regs[d] & MASK32
            if s is not None:
                b = regs[s] & MASK32
            elif mem is None:
                b = value
            else:
                b = cpu.read_mem(regs[base] + disp if base else disp, 4)
            r = (a - b) & MASK32
            flags = cpu.flags
            flags["cf"] = a < b
            flags["of"] = (a ^ b) & (a ^ r) & 0x80000000 != 0
            flags["zf"] = r == 0
            flags["sf"] = r >= 0x80000000
            if store:
                regs[d] = r
        return op_sub
    bitwise = _BITWISE[m]

    def op_bitwise(cpu: Cpu):
        regs = cpu.regs
        a = regs[d] & MASK32
        if s is not None:
            b = regs[s] & MASK32
        elif mem is None:
            b = value
        else:
            b = cpu.read_mem(regs[base] + disp if base else disp, 4)
        r = bitwise(a, b)
        flags = cpu.flags
        flags["cf"] = False
        flags["of"] = False
        flags["zf"] = r == 0
        flags["sf"] = r >= 0x80000000
        if store:
            regs[d] = r
    return op_bitwise


def _specialised_shift(m: str, instr: Instruction):
    """shl/shr of a full register by an immediate."""
    d = _full_reg(instr.dst, instr.size)
    if (d is None or not isinstance(instr.src, Imm)
            or instr.src.symbol is not None):
        return None
    count = instr.src.value & 0x1F
    if count == 0:
        return _no_op               # no result, no flags: only the clock
    if m == "shl":
        def op_shl(cpu: Cpu):
            regs = cpu.regs
            r = (regs[d] & MASK32) << count
            flags = cpu.flags
            flags["cf"] = r & 0x100000000 != 0
            r &= MASK32
            flags["of"] = False
            flags["zf"] = r == 0
            flags["sf"] = r >= 0x80000000
            regs[d] = r
        return op_shl
    last_out = count - 1

    def op_shr(cpu: Cpu):
        regs = cpu.regs
        value = regs[d] & MASK32
        r = value >> count
        flags = cpu.flags
        flags["cf"] = (value >> last_out) & 1 != 0
        flags["of"] = False
        flags["zf"] = r == 0
        flags["sf"] = False         # a shift of at least 1 clears bit 31
        regs[d] = r
    return op_shr


def _specialised_jcc(m: str, target: int):
    """A conditional jump that tests its flags inline."""
    if m in _FLAG_JUMPS:
        flag, when_set = _FLAG_JUMPS[m]

        def jump_on_flag(cpu: Cpu):
            if cpu.flags[flag] == when_set:
                cpu.eip = target
        return jump_on_flag
    # jl/jge, jle/jg, jbe/ja: the first of each pair jumps when its
    # condition holds, the second when it does not
    taken = m in ("jl", "jle", "jbe")
    if m in ("jl", "jge"):
        def jump_less(cpu: Cpu):
            f = cpu.flags
            if (f["sf"] != f["of"]) == taken:
                cpu.eip = target
        return jump_less
    if m in ("jle", "jg"):
        def jump_less_equal(cpu: Cpu):
            f = cpu.flags
            if (f["zf"] or f["sf"] != f["of"]) == taken:
                cpu.eip = target
        return jump_less_equal

    def jump_below_equal(cpu: Cpu):
        f = cpu.flags
        if (f["cf"] or f["zf"]) == taken:
            cpu.eip = target
    return jump_below_equal


# -- the fused stlb check ------------------------------------------------------
#
# The rewriter puts the paper's figure-4 tag check in front of every
# non-stack access: ``lea m,r1; mov r1,r2; and $A,r1; mov r1,r3;
# and $B,r1; shr $S,r1; cmp D(r1),r3; jne slow; xor D+4(r1),r2``. A run
# holds one handler for the nine, recognised from their operands alone.
# On a hit, while the loop defers and the stlb word's page is cached RAM
# with a page price, it does what the nine do in one step (the
# registers, the flags, ``executed``, both reads at the page's price)
# and the run goes on into the translated access. Anywhere else (a
# miss, a charge shadow, a page not cached, MMIO, a page a hot range
# edge splits) it runs the nine handlers as a run of their own, so they
# stay the reference, and a miss ends the run at the slow block.


def _moved(instr: Instruction, src: str) -> Optional[str]:
    """The full register ``mov src, reg`` copies full register ``src``
    into; None for any other instruction."""
    if instr.mnemonic == "mov" and _full_reg(instr.src, instr.size) == src:
        return _full_reg(instr.dst, instr.size)
    return None


def _imm_of(instr: Instruction, m: str, reg: str) -> Optional[int]:
    """The 32-bit immediate of ``m $imm, reg``; None for any other
    instruction."""
    op = instr.src
    if (instr.mnemonic == m and _full_reg(instr.dst, instr.size) == reg
            and isinstance(op, Imm) and op.symbol is None):
        return op.value & MASK32
    return None


def _disp_of(instr: Instruction, m: str, base: str,
             dst: str) -> Optional[int]:
    """The displacement of ``m disp(base), dst``; None for any other
    instruction."""
    op = instr.src
    if (instr.mnemonic == m and _full_reg(instr.dst, instr.size) == dst
            and isinstance(op, Mem) and op.symbol is None
            and op.index is None and op.base == base):
        return op.disp
    return None


def _check_shape(instrs):
    """``(lea form, r2, r3, A, B, S, D)`` of nine instructions that are
    a figure-4 check, with r1 (the lea's destination), r2 and r3
    distinct full registers and a lea ``_specialised_lea`` takes; None
    for any other nine."""
    if len(instrs) != 9:
        return None
    lea, mov2, and3, mov4, and5, shr6, cmp7, jne8, xor9 = instrs
    form = _lea_form(lea)
    if form is None or jne8.mnemonic not in ("jne", "jnz"):
        return None
    r1 = form[0]
    r2, r3 = _moved(mov2, r1), _moved(mov4, r1)
    if r2 is None or r3 is None or len({r1, r2, r3}) != 3:
        return None
    imms = (_imm_of(and3, "and", r1), _imm_of(and5, "and", r1),
            _imm_of(shr6, "shr", r1))
    stlb = _disp_of(cmp7, "cmp", r1, r3)
    if (None in imms or stlb is None
            or _disp_of(xor9, "xor", r1, r2) != stlb + 4):
        return None
    return (form, r2, r3) + imms + (stlb,)


def _fused_check(loaded: LoadedProgram, index: int):
    """The fused handler of the check whose ``lea`` is at ``index``,
    cached per check; None when the nine instructions from there are
    not a check or one of them carries an instrument hook."""
    checks = loaded.checks
    if index in checks:
        return checks[index]
    check = None
    shape = _check_shape(loaded.program.instructions[index:index + 9])
    if (shape is not None and index + 7 in loaded.targets
            and not any(i in loaded.instrument
                        for i in range(index, index + 9))):
        parts = tuple((loaded.handlers[i] or _handler_for(loaded, i),
                       loaded.next_addrs[i])
                      for i in range(index, index + 9))
        check = _compile_check(shape, parts)
    checks[index] = check
    return check


def _run_parts(cpu: Cpu, parts: Run):
    """A fused check's nine handlers, run as ``_run_loop`` runs them: the
    run ends after the ``jne`` branches or after an instruction that
    reached outside code. The loop has counted (and, under a shadow,
    charged) the first."""
    deferring = cpu._deferring
    leaves = cpu._leaves
    for ran, (handler, next_addr) in enumerate(parts, 1):
        if ran > 1:
            cpu.executed += 1
        cpu.eip = next_addr
        if ran > 1 and not deferring:
            cpu.account.charge(cpu._category[-1], cpu.scaled.alu)
        handler(cpu)
        if cpu._leaves != leaves:
            break
        if ran == 8 and cpu.eip != next_addr:
            cpu._leaves += 1            # the jne branched: end the run
            break
    cpu._extra += ran - 1


def _compile_check(shape, parts: Run) -> Callable[[Cpu], None]:
    """The handler that stands for a check's nine ``parts``: a hit on a
    cached, priced RAM page while the loop defers in one step, anything
    else (a miss included) through the nine."""
    lea, r2, r3, tag_mask, index_mask, shift, stlb = shape
    r1, base, index, scale, disp = lea
    shift &= 0x1F

    def stlb_check(cpu: Cpu):
        regs = cpu.regs
        ea = disp
        if base:
            ea += regs[base]
        if index:
            ea += regs[index] * scale
        ea &= MASK32
        tag = ea & tag_mask
        slot = (tag & index_mask) >> shift
        addr = (slot + stlb) & MASK32
        offset = addr & OFFSET_MASK
        entry = cpu.address_space.read_pages.get(addr >> PAGE_SHIFT)
        if (entry is not None and entry[1] is not None
                and offset <= PAGE_SIZE - 8 and cpu._deferring):
            data, price = entry
            word, translation = _UNPACK_ENTRY(data, offset)
            if word == tag:
                r = ea ^ translation    # the flags are the xor's
                regs[r1] = slot
                regs[r2] = r
                regs[r3] = tag
                flags = cpu.flags
                flags["cf"] = False
                flags["of"] = False
                flags["zf"] = r == 0
                flags["sf"] = r >= 0x80000000
                cpu.executed += 8
                cpu._extra += 8
                cpu._owed += price + price
                return
        _run_parts(cpu, parts)
    return stlb_check


def _compile_instruction(instr: Instruction, loaded: LoadedProgram,
                         index: int) -> Callable[[Cpu], None]:
    """Build the specialized handler closure for one instruction.

    Invariant: by the time a handler runs, the dispatch loop has already
    set ``cpu.eip`` to the fall-through successor."""
    m = instr.mnemonic
    size = instr.size

    special = _specialised(instr, loaded, index)
    if special is not None:
        return special
    if m in ("nop", "sti", "cli"):
        return _no_op
    if m == "cld":
        def op_cld(cpu: Cpu):
            cpu.df = False
        return op_cld
    if m == "std":
        def op_std(cpu: Cpu):
            cpu.df = True
        return op_std
    if m in ("int3", "ud2", "hlt"):
        message = f"{m} executed at {loaded.name}[{index}]"

        def op_trap(cpu: Cpu):
            raise ExecutionFault(message)
        return op_trap

    if m == "mov":
        read_src = _read_thunk(instr.src, size)
        write_dst = _write_thunk(instr.dst, size)

        def op_mov(cpu: Cpu):
            write_dst(cpu, read_src(cpu))
        return op_mov
    if m in ("movzb", "movzw"):
        read_src = _read_thunk(instr.src, size)
        write_dst = _write_thunk(instr.dst, 4)

        def op_movz(cpu: Cpu):
            write_dst(cpu, read_src(cpu))
        return op_movz
    if m == "movsx":
        read_src = _read_thunk(instr.src, size)
        write_dst = _write_thunk(instr.dst, 4)
        bits = size * 8
        sign = 1 << (bits - 1)
        extend = MASK32 ^ ((1 << bits) - 1)

        def op_movsx(cpu: Cpu):
            value = read_src(cpu)
            if value & sign:
                value |= extend
            write_dst(cpu, value)
        return op_movsx
    if m == "lea":
        ea = _ea_thunk(instr.src)
        write_dst = _write_thunk(instr.dst, 4)

        def op_lea(cpu: Cpu):
            write_dst(cpu, ea(cpu))
        return op_lea
    if m == "xchg":
        read_src = _read_thunk(instr.src, size)
        write_src = _write_thunk(instr.src, size)
        read_dst = _read_thunk(instr.dst, size)
        write_dst = _write_thunk(instr.dst, size)

        def op_xchg(cpu: Cpu):
            a = read_src(cpu)
            b = read_dst(cpu)
            write_src(cpu, b)
            write_dst(cpu, a)
        return op_xchg

    if m in ("add", "sub", "and", "or", "xor", "imul", "cmp", "test"):
        read_dst = _read_thunk(instr.dst, size)
        read_src = _read_thunk(instr.src, size)
        writeback = (None if m in ("cmp", "test")
                     else _write_thunk(instr.dst, size))
        if m == "add":
            def combine(cpu, a, b):
                return cpu._flags_add(a, b, size)
        elif m in ("sub", "cmp"):
            def combine(cpu, a, b):
                return cpu._flags_sub(a, b, size)
        elif m in ("and", "test"):
            def combine(cpu, a, b):
                return cpu._flags_logic(a & b, size)
        elif m == "or":
            def combine(cpu, a, b):
                return cpu._flags_logic(a | b, size)
        elif m == "xor":
            def combine(cpu, a, b):
                return cpu._flags_logic(a ^ b, size)
        else:  # imul
            mask = (1 << (size * 8)) - 1

            def combine(cpu, a, b):
                full = a * b
                r = full & mask
                cpu.flags["cf"] = cpu.flags["of"] = full != r
                cpu._set_zsf(r, size)
                return r

        def op_arith(cpu: Cpu):
            r = combine(cpu, read_dst(cpu), read_src(cpu))
            if writeback is not None:
                writeback(cpu, r)
        return op_arith

    if m in ("shl", "shr", "sar"):
        read_count = _read_thunk(instr.src, 1)
        read_dst = _read_thunk(instr.dst, size)
        write_dst = _write_thunk(instr.dst, size)
        bits = size * 8

        def op_shift(cpu: Cpu):
            count = read_count(cpu) & 0x1F
            value = read_dst(cpu)
            if count == 0:
                return
            if m == "shl":
                r = value << count
                cpu.flags["cf"] = bool(r & (1 << bits))
                r &= (1 << bits) - 1
            elif m == "shr":
                cpu.flags["cf"] = bool((value >> (count - 1)) & 1)
                r = value >> count
            else:  # sar
                sign = value & (1 << (bits - 1))
                v = value
                for _ in range(count):
                    v = (v >> 1) | sign
                cpu.flags["cf"] = bool((value >> (count - 1)) & 1)
                r = v & ((1 << bits) - 1)
            cpu.flags["of"] = False
            cpu._set_zsf(r, size)
            write_dst(cpu, r)
        return op_shift

    if m in ("inc", "dec", "neg", "not"):
        read_dst = _read_thunk(instr.dst, size)
        write_dst = _write_thunk(instr.dst, size)
        mask = (1 << (size * 8)) - 1

        def op_unary(cpu: Cpu):
            value = read_dst(cpu)
            cf = cpu.flags["cf"]
            if m == "inc":
                r = cpu._flags_add(value, 1, size)
                cpu.flags["cf"] = cf  # inc/dec preserve CF
            elif m == "dec":
                r = cpu._flags_sub(value, 1, size)
                cpu.flags["cf"] = cf
            elif m == "neg":
                r = cpu._flags_sub(0, value, size)
            else:
                r = (~value) & mask
            write_dst(cpu, r)
        return op_unary

    if m == "push":
        read_src = _read_thunk(instr.src, 4)

        def op_push(cpu: Cpu):
            cpu.push(read_src(cpu))
        return op_push
    if m == "pop":
        write_dst = _write_thunk(instr.dst, 4)

        def op_pop(cpu: Cpu):
            write_dst(cpu, cpu.pop())
        return op_pop
    if m == "pushf":
        def op_pushf(cpu: Cpu):
            cpu.push(cpu.flags_word())
        return op_pushf
    if m == "popf":
        def op_popf(cpu: Cpu):
            cpu.set_flags_word(cpu.pop())
        return op_popf

    if m == "call":
        resolve = _target_thunk(instr, loaded, index)

        def op_call(cpu: Cpu):
            cpu.account.charge(cpu._category[-1], cpu.scaled.call)
            target = resolve(cpu)
            routine = cpu.natives.by_addr.get(target)
            cpu.push(cpu.eip)
            if routine is not None:
                cpu._invoke_native(routine)
                return
            cpu.eip = target
        return op_call
    if m == "ret":
        def op_ret(cpu: Cpu):
            cpu.account.charge(cpu._category[-1], cpu.scaled.ret)
            cpu.eip = cpu.pop()
        return op_ret
    if m == "jmp":
        resolve = _target_thunk(instr, loaded, index)

        def op_jmp(cpu: Cpu):
            target = resolve(cpu)
            routine = cpu.natives.by_addr.get(target)
            if routine is not None:
                # Tail call into a native routine: return address is the
                # caller's, already on the stack.
                cpu._invoke_native(routine)
                return
            cpu.eip = target
        return op_jmp
    if instr.is_string:
        def op_string(cpu: Cpu):
            cpu._execute_string(instr)
        return op_string

    def op_unknown(cpu: Cpu):  # pragma: no cover
        raise ExecutionFault(f"unimplemented mnemonic {m!r}")
    return op_unknown
