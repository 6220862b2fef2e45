"""Differential fuzzing of the interpreter's two ways to run a call.

Every generated program is run on two fresh machines over several
invocations: the interpreter as it runs by default (deferring its
charges and settling them at natives, devices, hooks and loop exit),
and the interpreter under a pass-through charge shadow (every cost item
charged on its own, the reference). The complete observable state must
be bit-identical: registers, flags, direction flag, ``executed``, every
per-category cycle counter, the data pages, and ``account.total`` as
the natives and the MMIO device saw it at each call and access.
Separate properties drive natives, native-raised exceptions (the upcall
shape), and page faults through the middle of hot loops. The "world"
properties cover every branch of the interpreter's RAM fast path:
1/2/4-byte accesses at unaligned and page-crossing offsets, a hot range
over part of the data, a cycle scale whose per-charge rounding differs
from rounding the sum, a page shared by RAM and a recording MMIO device,
and a page whose frame does not exist (BusError). The "generic"
property mixes in forms that keep generic, thunk-based handlers between
operand-specialised ones: sign extension, exchange, multiply, the flags
word, the direction flag, 8/16-bit register operands, 1/2-byte
immediate stores and a memory operand indexed by a 16-bit register.
The "fused check" properties and cases run the figure-4 stlb check,
which the interpreter runs as one run entry, against the same program
with fusion off.

The file keeps the name it had when a trace JIT, since deleted, ran as
a third leg, so that the IDs of its tests stay the same.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.machine.cpu as cpu_mod
from repro.isa import assemble
from repro.machine import AddressSpace, BusError, Machine, PageFault
from repro.machine.cpu import SENTINEL_RETURN

DATA = 0xC0000000
STACK_TOP = 0xC0104000
BASE = 0x08000000
DATA_BYTES = 4 * 4096
#: page whose upper half is a recording MMIO device, lower half RAM
MMIO_VA = 0xC0200000
#: data-sized run of pages mapped to frames that were never allocated
BUS_VA = 0xC0201000
#: hot range over part of the data pages (crosses a page line)
HOT = (DATA + 0x800, DATA + 0x1800)
SCALE = 1.37

#: body registers; %ebx is the data base, %edi the loop counter
_REGS = ["eax", "ecx", "edx", "esi"]
_ALU = ["addl", "subl", "andl", "orl", "xorl", "cmpl", "testl"]
_UNARY = ["incl", "decl", "negl", "notl"]
_JCC = ["je", "jne", "jz", "jnz", "jl", "jg", "jle", "jge", "jb", "jae",
        "jbe", "ja", "js", "jns"]

_imm = st.integers(-(2 ** 31), 2 ** 31 - 1)
_off = st.integers(0, (DATA_BYTES // 4) - 1).map(lambda i: i * 4)

_instr = st.one_of(
    st.tuples(st.just("movimm"), st.sampled_from(_REGS), _imm),
    st.tuples(st.just("movreg"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(_ALU), st.sampled_from(_REGS), _imm),
    st.tuples(st.just("alureg"), st.sampled_from(_ALU),
              st.sampled_from(_REGS), st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(["shll", "shrl", "sarl"]),
              st.sampled_from(_REGS), st.integers(0, 31)),
    st.tuples(st.just("shcl"), st.sampled_from(["shll", "shrl"]),
              st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(_UNARY), st.sampled_from(_REGS)),
    st.tuples(st.just("load"), st.sampled_from(_REGS), _off),
    st.tuples(st.just("store"), st.sampled_from(_REGS), _off),
    # the shapes the interpreter specialises: ALU ops with a memory
    # source or destination, an immediate store, absolute-address
    # accesses (the stlb check's spill moves) and an indexed lea
    st.tuples(st.just("alumem"), st.sampled_from(_ALU),
              st.sampled_from(_REGS), _off),
    st.tuples(st.just("alutomem"), st.sampled_from(_ALU),
              st.sampled_from(_REGS), _off),
    st.tuples(st.just("storeimm"), _imm, _off),
    st.tuples(st.just("loadabs"), st.sampled_from(_REGS), _off),
    st.tuples(st.just("storeabs"), st.sampled_from(_REGS), _off),
    st.tuples(st.just("leaidx"), st.sampled_from(_REGS),
              st.sampled_from(_REGS), st.integers(-4096, 4096)),
)

_block = st.lists(_instr, min_size=1, max_size=4)

#: per-block guards: guard i optionally jumps forward over block i+1,
#: so runs end at taken and untaken branches
_guards = st.lists(st.one_of(
    st.none(),
    st.tuples(st.sampled_from(_JCC), st.sampled_from(_REGS), _imm),
), min_size=3, max_size=3)

#: (blocks, guards, loop iterations)
_programs = st.tuples(
    st.lists(_block, min_size=1, max_size=3), _guards, st.integers(2, 6))

#: any byte offset, biased toward the page lines so crossings happen
_uoff = st.one_of(st.integers(0, DATA_BYTES - 4),
                  st.sampled_from([4093, 4094, 4095, 8191, 12286]))
_size = st.sampled_from([1, 2, 4])
#: MMIO page offsets: RAM half, device half, and the line between them
_moff = st.one_of(st.integers(0, 4092),
                  st.sampled_from([0x7FE, 0x7FF, 0x800, 0xFFC]))
#: store sources with 8- and 16-bit names
_SREGS = ["eax", "ecx", "edx"]

_world_instr = st.one_of(
    st.tuples(st.just("movimm"), st.sampled_from(_REGS), _imm),
    st.tuples(st.just("alureg"), st.sampled_from(_ALU),
              st.sampled_from(_REGS), st.sampled_from(_REGS)),
    st.tuples(st.just("loadn"), _size, st.sampled_from(_REGS), _uoff),
    st.tuples(st.just("storen"), _size, st.sampled_from(_SREGS), _uoff),
    st.tuples(st.just("mmioload"), _size, st.sampled_from(_REGS), _moff),
    st.tuples(st.just("mmiostore"), _size, st.sampled_from(_SREGS),
              _moff),
)

_nsize = st.sampled_from([1, 2])

#: forms that keep generic handlers (every register from ``_SREGS``
#: where an 8- or 16-bit name is needed)
_generic_instr = st.one_of(
    st.tuples(st.just("movsxload"), _nsize, st.sampled_from(_REGS), _off),
    st.tuples(st.just("movsxreg"), _nsize, st.sampled_from(_SREGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("xchgreg"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("xchgmem"), st.sampled_from(_REGS), _off),
    st.tuples(st.just("imulimm"), _imm, st.sampled_from(_REGS)),
    st.tuples(st.just("imulreg"), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("imulmem"), _off, st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(["pushf", "popf"]), st.sampled_from(_REGS)),
    st.tuples(st.sampled_from(["cld", "std"])),
    st.tuples(st.just("alunarrow"), st.sampled_from(_ALU), _nsize,
              st.sampled_from(_SREGS), st.sampled_from(_SREGS)),
    st.tuples(st.just("alunarrowimm"), st.sampled_from(_ALU), _nsize, _imm,
              st.sampled_from(_SREGS)),
    st.tuples(st.just("movzreg"), _nsize, st.sampled_from(_SREGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("storenimm"), _nsize, _imm, _off),
    # %ecx gets random upper bits: only its low 16 bits index the data
    st.tuples(st.just("idx16"), st.sampled_from(_REGS),
              st.integers(0, 0xFFFF), _off),
)

_generic_programs = st.tuples(
    st.lists(st.lists(st.one_of(_generic_instr, _instr), min_size=1,
                      max_size=5), min_size=1, max_size=3),
    _guards, st.integers(2, 6))

_world_programs = st.tuples(
    st.lists(st.lists(_world_instr, min_size=1, max_size=5),
             min_size=1, max_size=3),
    _guards, st.integers(2, 6))


def _sub(reg, size) -> str:
    """The 1/2/4-byte name of ``reg`` (one of ``_SREGS``)."""
    return {1: reg[1] + "l", 2: reg[1:], 4: reg}[size]


def _narrow(kind, size, reg, mem) -> str:
    """A 1/2/4-byte load (zero-extending) or store of ``reg``."""
    if kind == "load":
        op = {1: "movzbl", 2: "movzwl", 4: "movl"}[size]
        return f"    {op} {mem}, %{reg}"
    op = {1: "movb", 2: "movw", 4: "movl"}[size]
    return f"    {op} %{_sub(reg, size)}, {mem}"


_SUFFIX = {1: "b", 2: "w"}


def _render_generic(op):
    """The text of a ``_generic_instr`` op; None for any other."""
    kind = op[0]
    if kind == "movsxload":
        return f"    movsx{_SUFFIX[op[1]]} {op[3]}(%ebx), %{op[2]}"
    if kind == "movsxreg":
        return f"    movsx{_SUFFIX[op[1]]} %{_sub(op[2], op[1])}, %{op[3]}"
    if kind == "xchgreg":
        return f"    xchgl %{op[1]}, %{op[2]}"
    if kind == "xchgmem":
        return f"    xchgl %{op[1]}, {op[2]}(%ebx)"
    if kind == "imulimm":
        return f"    imull ${op[1]}, %{op[2]}"
    if kind == "imulreg":
        return f"    imull %{op[1]}, %{op[2]}"
    if kind == "imulmem":
        return f"    imull {op[1]}(%ebx), %{op[2]}"
    if kind == "pushf":
        return f"    pushf\n    popl %{op[1]}"
    if kind == "popf":
        return f"    pushl %{op[1]}\n    popf"
    if kind in ("cld", "std"):
        return f"    {kind}"
    if kind == "alunarrow":
        return (f"    {op[1][:-1]}{_SUFFIX[op[2]]} %{_sub(op[3], op[2])}, "
                f"%{_sub(op[4], op[2])}")
    if kind == "alunarrowimm":
        return (f"    {op[1][:-1]}{_SUFFIX[op[2]]} ${op[3]}, "
                f"%{_sub(op[4], op[2])}")
    if kind == "movzreg":
        return f"    movz{_SUFFIX[op[1]]}l %{_sub(op[2], op[1])}, %{op[3]}"
    if kind == "storenimm":
        return f"    mov{_SUFFIX[op[1]]} ${op[2]}, {op[3]}(%ebx)"
    if kind == "idx16":
        return (f"    movl ${op[2] << 16 | op[3]}, %ecx\n"
                f"    movl (%ebx,%cx,1), %{op[1]}")
    return None


def _render(op) -> str:
    kind = op[0]
    generic = _render_generic(op)
    if generic is not None:
        return generic
    if kind == "movimm":
        return f"    movl ${op[2]}, %{op[1]}"
    if kind == "movreg":
        return f"    movl %{op[1]}, %{op[2]}"
    if kind == "alureg":
        return f"    {op[1]} %{op[2]}, %{op[3]}"
    if kind in _UNARY:
        return f"    {kind} %{op[1]}"
    if kind in ("shll", "shrl", "sarl"):
        return f"    {kind} ${op[2]}, %{op[1]}"
    if kind == "load":
        return f"    movl {op[2]}(%ebx), %{op[1]}"
    if kind == "store":
        return f"    movl %{op[1]}, {op[2]}(%ebx)"
    if kind == "shcl":
        return f"    {op[1]} %cl, %{op[2]}"
    if kind == "alumem":
        return f"    {op[1]} {op[3]}(%ebx), %{op[2]}"
    if kind == "alutomem":
        return f"    {op[1]} %{op[2]}, {op[3]}(%ebx)"
    if kind == "storeimm":
        return f"    movl ${op[1]}, {op[2]}(%ebx)"
    if kind == "loadabs":
        return f"    movl {DATA + op[2]}, %{op[1]}"
    if kind == "storeabs":
        return f"    movl %{op[1]}, {DATA + op[2]}"
    if kind == "leaidx":
        return f"    leal {op[3]}(%ebx,%{op[2]},4), %{op[1]}"
    if kind in ("loadn", "storen"):
        return _narrow(kind[:-1], op[1], op[2], f"{op[3]}(%ebx)")
    if kind in ("mmioload", "mmiostore"):
        return _narrow(kind[4:], op[1], op[2], str(MMIO_VA + op[3]))
    return f"    {kind} ${op[2]}, %{op[1]}"


def _build_source(blocks, guards, iters, extra="") -> str:
    lines = [".globl f", "f:", f"    movl $3735928559, %eax",
             f"    movl ${iters}, %edi", "loop:"]
    for i, block in enumerate(blocks):
        lines.extend(_render(op) for op in block)
        guard = guards[i] if i < len(guards) else None
        if guard is not None and i + 1 < len(blocks):
            jcc, reg, imm = guard
            lines.append(f"    cmpl ${imm}, %{reg}")
            lines.append(f"    {jcc} G{i}")
            lines.extend(_render(op) for op in blocks[i + 1])
            lines.append(f"G{i}:")
    if extra:
        lines.append(extra)
    lines += ["    decl %edi", "    cmpl $0, %edi", "    jne loop",
              "    ret"]
    return "\n".join(lines) + "\n"


_PATTERN = bytes((i * 37 + 11) & 0xFF for i in range(DATA_BYTES))


class _Recorder:
    """MMIO device that logs every access with the clock it saw; a read
    answers a value derived from the log length, so a reordered or
    repeated access changes the registers too."""

    def __init__(self, account, log):
        self.account = account
        self.log = log

    def mmio_read(self, offset, size):
        self.log.append(("r", offset, size, self.account.total))
        return (len(self.log) * 0x9E3779B1 + offset) & ((1 << size * 8) - 1)

    def mmio_write(self, offset, size, value):
        self.log.append(("w", offset, size, value, self.account.total))


#: the legs every program runs on
LEGS = ("interp", "shadow")


def _make_machine(leg, world=False):
    """A bare machine with data and stack pages, set up for ``leg``.
    ``world`` adds the pricing and memory corners of the RAM fast path:
    cycle scale ``SCALE``, the ``HOT`` range, the RAM+MMIO page at
    ``MMIO_VA`` and the frameless pages at ``BUS_VA``. Returns the log
    the device and the natives append to, too."""
    m = Machine()
    space = AddressSpace("fuzz", m.phys, m.hypervisor_table)
    space.map_new_pages(DATA, 4)
    space.map_new_pages(0xC0100000, 4)
    # a byte pattern, so that loads of every width return non-zero bits
    space.write_bytes(DATA, _PATTERN)
    m.cpu.address_space = space
    if leg == "shadow":
        inner = m.account.charge
        m.account.charge = lambda category, cycles: inner(category, cycles)
    log = []
    device = _Recorder(m.account, log)
    if world:
        m.cpu.cycle_scale = SCALE
        m.cpu.add_hot_range(*HOT)
        frame = m.phys.allocate_frame()
        m.phys.write_bytes(frame << 12, _PATTERN[:4096])
        m.phys.add_mmio_region((frame << 12) + 0x800, 0x800, device)
        space.map_page(MMIO_VA, frame)
        for i in range(DATA_BYTES // 4096):
            space.map_page(BUS_VA + i * 4096, m.phys.max_frames - 1 - i)
    return m, space, log


def _observe(m, space, results, errors, log):
    return (results, errors, dict(m.cpu.regs), dict(m.cpu.flags),
            m.cpu.df, m.cpu.executed, m.account.cycles,
            space.read_bytes(DATA, DATA_BYTES), log)


def _legs(run, *args, **kwargs):
    """``run`` on every leg; asserts the observations are equal and
    returns the interpreter's."""
    interp, *others = (run(*args, leg=leg, **kwargs) for leg in LEGS)
    for leg, other in zip(LEGS[1:], others):
        assert other == interp, leg
    return interp


def _run_one(source, leg, natives=None, calls=4, world=False):
    m, space, log = _make_machine(leg, world)
    extern = {}
    if natives:
        for name, factory in natives:
            m.register_native(name, factory(log))
            extern[name] = m.natives.address_of(name)
    loaded = m.load_program(assemble(source), BASE, extern=extern or None)
    m.cpu.regs["ebx"] = DATA
    results, errors = [], []
    for _ in range(calls):
        try:
            results.append(m.cpu.call_function(
                loaded.symbol("f"), [], stack_top=STACK_TOP))
        except Exception as exc:  # noqa: BLE001 - compared structurally
            errors.append((type(exc).__name__, str(exc)))
        m.cpu.regs["ebx"] = DATA        # a body store may have hit it
    return _observe(m, space, results, errors, log)


def _run_bad_base(source, bad_call, bad_base, leg, world=False):
    """Four calls; call ``bad_call`` points the data base at
    ``bad_base``, so its first body access through %ebx faults."""
    m, space, log = _make_machine(leg, world)
    loaded = m.load_program(assemble(source), BASE)
    results, errors = [], []
    for i in range(4):
        m.cpu.regs["ebx"] = bad_base if i == bad_call else DATA
        try:
            results.append(m.cpu.call_function(
                loaded.symbol("f"), [], stack_top=STACK_TOP))
        except (PageFault, BusError) as exc:
            errors.append((type(exc).__name__, str(exc)))
    return _observe(m, space, results, errors, log)


@settings(max_examples=40, deadline=None)
@given(_programs)
def test_alu_memory_loops_bit_identical(spec):
    blocks, guards, iters = spec
    _legs(_run_one, _build_source(blocks, guards, iters))


@settings(max_examples=40, deadline=None)
@given(_generic_programs)
def test_generic_forms_bit_identical(spec):
    # forms that keep generic handlers, between specialised ones
    blocks, guards, iters = spec
    _legs(_run_one, _build_source(blocks, guards, iters))


@settings(max_examples=20, deadline=None)
@given(_programs, st.integers(0, 0xFFFF))
def test_native_calls_mid_run(spec, salt):
    blocks, guards, iters = spec
    source = _build_source(
        blocks, guards, iters,
        extra="    pushl %ecx\n    call mix\n    addl $4, %esp")

    def mix_factory(log):
        def mix(cpu):
            log.append(("mix", cpu.account.total))
            return (cpu.read_stack_arg(0) ^ salt) & 0xFFFFFFFF
        return mix

    _legs(_run_one, source, natives=[("mix", mix_factory)])


@settings(max_examples=20, deadline=None)
@given(_programs, st.integers(1, 8))
def test_native_raises_mid_run(spec, boom_at):
    # the upcall shape: a native raising out of the middle of a hot
    # loop must leave identical precise state in both legs
    class Boom(Exception):
        pass

    blocks, guards, iters = spec
    source = _build_source(blocks, guards, iters,
                           extra="    call maybe")

    def maybe_factory(log):
        state = {"n": 0}

        def maybe(cpu):
            log.append(("maybe", cpu.account.total))
            state["n"] += 1
            if state["n"] == boom_at:
                raise Boom(f"at call {boom_at}")
            return None
        return maybe

    _legs(_run_one, source, natives=[("maybe", maybe_factory)])


@settings(max_examples=20, deadline=None)
@given(_programs, st.integers(0, 3))
def test_fault_mid_run(spec, bad_call):
    # one invocation points the data base at an unmapped page: the
    # PageFault must surface at the same instruction, same cycles
    blocks, guards, iters = spec
    source = _build_source(blocks, guards, iters,
                           extra="    movl 0(%ebx), %esi")

    off = _legs(_run_bad_base, source, bad_call, 0x40000000)
    assert off[1]                       # the fault actually fired


@settings(max_examples=40, deadline=None)
@given(_world_programs)
def test_world_loops_bit_identical(spec):
    # narrow, unaligned and page-crossing RAM accesses, a hot range over
    # part of the data, RAM and MMIO sharing a page, at a cycle scale
    # where rounding each charge differs from rounding their sum
    blocks, guards, iters = spec
    _legs(_run_one, _build_source(blocks, guards, iters), world=True)


def test_world_corners_bit_identical():
    # every access width at every corner, in one loop: inside the hot
    # range, each offset that crosses a page line, and the RAM half,
    # the boundary and the device half of the MMIO page
    ops = [("movimm", reg, value) for reg, value in
           zip(_SREGS, (0x89ABCDEF, 0xFEDCBA98, 0x13579BDF))]
    for size in (1, 2, 4):
        for off in (0x801, 4093, 4094, 4095, 8191):
            ops += [("storen", size, "ecx", off), ("loadn", size, "esi", off),
                    ("alureg", "xorl", "esi", "ecx")]
        for off in (0x10, 0x7FE, 0x7FF, 0x800, 0xFFC):
            ops += [("mmiostore", size, "edx", off),
                    ("mmioload", size, "esi", off),
                    ("alureg", "addl", "esi", "edx")]
    off = _legs(_run_one, _build_source([ops], [None] * 3, 3), world=True)
    assert not off[1] and off[-1]       # no fault; the device was used


@settings(max_examples=20, deadline=None)
@given(_world_programs, st.integers(0, 3))
def test_bus_error_mid_run(spec, bad_call):
    # the data base moves onto a page whose frame does not exist: the
    # BusError surfaces at the same instruction, after the same charges
    blocks, guards, iters = spec
    source = _build_source(blocks, guards, iters,
                           extra="    movl 0(%ebx), %esi")
    off = _legs(_run_bad_base, source, bad_call, BUS_VA, world=True)
    assert off[1] and {kind for kind, _ in off[1]} == {"BusError"}


# -- the fused stlb check --------------------------------------------------
#
# The interpreter runs a figure-4 check (``lea m,r1; mov r1,r2;
# and $A,r1; mov r1,r3; and $B,r1; shr $S,r1; cmp D(r1),r3; jne slow;
# xor D+4(r1),r2``) as one run entry. These programs translate the
# virtual pages ``VBASE + k * 4096`` (k < 4) to the data pages through an
# stlb of 512 eight-byte entries on a hot page; a slow block calls the
# ``fill`` native, which writes the entry, and jumps back to the lea.
# Besides the two legs (the shadow leg runs the nine handlers), each
# case also runs with fusion off, every instruction its own run entry,
# and must observe the same.

VBASE = 0x50000000
STLB = 0xC0300000
#: spill slots, on the hot page after the stlb
SPILL = 0xC0301000
STLB_MASK = 511 << 12
#: an stlb entry: correct, empty, or the tag of another page in its slot
_ENTRY = st.sampled_from(["hit", "cold", "stale"])

#: (lea form, r1/r2/r3 and a fourth register, virtual page, offset in
#: it, access through the translation, spilled, wrapped in pushf/popf)
_check_op = st.tuples(
    st.sampled_from(["disp", "index1", "index2", "index4", "index8",
                     "abs"]),
    st.permutations(_REGS), st.integers(0, 3),
    st.integers(0, 1023).map(lambda i: i * 4),
    st.sampled_from(["load", "store", "add"]), st.booleans(), st.booleans())

#: (checks each followed by body instructions, loop iterations, initial
#: entries, entries emptied before each later call, hot range edge
#: inside the stlb page, stlb page cached before the first call)
_check_programs = st.tuples(
    st.lists(st.tuples(_check_op, st.lists(_instr, max_size=2)),
             min_size=1, max_size=4),
    st.integers(1, 4),
    st.lists(_ENTRY, min_size=4, max_size=4),
    st.lists(st.lists(st.booleans(), min_size=4, max_size=4),
             min_size=3, max_size=3),
    st.booleans(), st.booleans())

#: one spilled, flag-wrapped check with an indexed lea into page 1, and
#: a body instruction after it
_ONE = [(("index4", ("eax", "ecx", "edx", "esi"), 1, 0x124, "add", True,
          True), [("movimm", "esi", 5)])]


def _entry(k, state="hit"):
    """The slot address and the two words of page ``k``'s entry."""
    if state == "cold":
        return STLB + 8 * k, 0, 0
    tag = VBASE + k * 4096
    if state == "stale":
        tag += 512 * 4096               # another page of the same slot
    return STLB + 8 * k, tag, tag ^ (DATA + k * 4096)


def _set_entry(space, k, state="hit"):
    slot, tag, translation = _entry(k, state)
    space.write(slot, 4, tag)
    space.write(slot + 4, 4, translation)


def _render_check(op, n):
    """Check ``n`` in the rewriter's layout (spill saves, ``pushf``, the
    nine, the access through r2 unless it is ``"none"``, restores,
    ``popf``), and its slow block."""
    form, (r1, r2, r3, r4), page, offset, access, spilled, wrapped = op
    va = VBASE + page * 4096 + offset
    lines = []
    if spilled:
        lines += [f"    movl %{r}, {SPILL + 4 * j}"
                  for j, r in enumerate((r1, r2, r3))]
    if wrapped:
        lines.append("    pushf")
    if form == "abs":
        lea = f"{va}"
    elif form == "disp":
        lea = f"{va - VBASE}(%ebp)"
    else:
        scale = int(form[5:])
        lines.append(f"    movl $3, %{r4}")
        lea = f"{va - VBASE - 3 * scale}(%ebp,%{r4},{scale})"
    lines += [f"R{n}:", f"    leal {lea}, %{r1}",
              f"    movl %{r1}, %{r2}", f"    andl $4294963200, %{r1}",
              f"    movl %{r1}, %{r3}", f"    andl ${STLB_MASK}, %{r1}",
              f"    shrl $9, %{r1}", f"    cmpl {STLB}(%{r1}), %{r3}",
              f"    jne S{n}", f"    xorl {STLB + 4}(%{r1}), %{r2}"]
    if access != "none":
        lines.append({"load": f"    movl (%{r2}), %{r4}",
                      "store": f"    movl %{r4}, (%{r2})",
                      "add": f"    addl (%{r2}), %{r4}"}[access])
    if spilled:
        lines += [f"    movl {SPILL + 4 * j}, %{r}"
                  for j, r in enumerate((r1, r2, r3))]
    if wrapped:
        lines.append("    popf")
    slow = [f"S{n}:", f"    pushl %{r2}", "    call fill",
            "    addl $4, %esp", f"    jmp R{n}"]
    return "\n".join(lines), "\n".join(slow)


def _check_source(items, iters, prologue=(), before_loop_end=(),
                  tail=()) -> str:
    """``f``: ``prologue``, then ``iters`` times each check of ``items``
    followed by its body instructions and ``before_loop_end``; the slow
    blocks and ``tail`` after its ``ret``."""
    lines = [".globl f", "f:", *prologue, f"    movl ${VBASE}, %ebp",
             f"    movl ${iters}, %edi", "loop:"]
    slows = []
    for n, (check, body) in enumerate(items):
        text, slow = _render_check(check, n)
        lines.append(text)
        lines.extend(_render(op) for op in body)
        slows.append(slow)
    lines += [*before_loop_end, "    decl %edi", "    cmpl $0, %edi",
              "    jne loop", "    ret", *slows, *tail]
    return "\n".join(lines) + "\n"


def _fill_factory(m, log):
    def fill(cpu):
        # the slow path: write the entry of the vaddr it is passed
        vaddr = cpu.read_stack_arg(0)
        log.append(("fill", vaddr, cpu.account.total))
        _set_entry(cpu.address_space, (vaddr - VBASE) >> 12)
    return fill


class _StlbDevice:
    """An stlb page that is MMIO: keeps the entries as RAM would, logs
    each access with the clock it saw and calls ``on_read`` at each
    read."""

    def __init__(self, account, log, on_read):
        self.account = account
        self.log = log
        self.on_read = on_read
        self.data = bytearray(4096)

    def mmio_read(self, offset, size):
        self.log.append(("stlb read", offset, self.account.total))
        self.on_read()
        return int.from_bytes(self.data[offset: offset + size], "little")

    def mmio_write(self, offset, size, value):
        self.log.append(("stlb write", offset, value, self.account.total))
        self.data[offset: offset + size] = value.to_bytes(size, "little")


def _enter(m, addr):
    """Call ``addr`` as ``call_function`` does, but leave ``eip`` where
    the loop left it when it raises."""
    cpu = m.cpu
    cpu.regs["esp"] = STACK_TOP
    cpu.push(SENTINEL_RETURN)
    cpu.eip = addr
    cpu._run_loop()
    return cpu.regs["eax"]


def _run_check(source, leg, *, entries=("hit",) * 4, evictions=(),
               split=False, cached=False, stlb="ram", on_read=None,
               setup=None, budget=None, calls=4, natives=(), seen=None):
    """``source`` on a fresh ``leg`` machine with the stlb world, called
    ``calls`` times. ``stlb`` is ``"ram"``, ``"unmapped"`` or ``"mmio"``
    (a ``_StlbDevice`` whose reads call ``on_read(m, loaded)``). The
    hot range starts inside the stlb page when ``split``; ``cached``
    caches the page before the first call. ``evictions[i]`` empties
    entries before call i + 1. ``natives`` are ``(name, factory(m,
    log))`` pairs besides ``fill``; ``setup(m, loaded, log)`` runs
    before the first call; ``budget`` caps each call's instructions. A
    raising call records its exception with the ``eip`` it left and the
    instructions it executed.
    ``seen[leg]`` gets the ``lea`` index of each check the loop
    fused."""
    m, space, log = _make_machine(leg)
    if stlb != "unmapped":
        space.map_new_pages(STLB, 1)
    space.map_new_pages(SPILL, 1)
    m.cpu.add_hot_range(STLB + (0x10 if split else 0), SPILL + 4096)
    loaded = None
    if stlb == "mmio":
        device = _StlbDevice(m.account, log, lambda: on_read(m, loaded))
        m.phys.add_mmio_region(space.translate(STLB), 4096, device)
    if stlb != "unmapped":
        for k, state in enumerate(entries):
            _set_entry(space, k, state)
    if cached:
        space.read_bytes(STLB, 8)
    extern = {}
    for name, factory in (("fill", _fill_factory),) + tuple(natives):
        extern[name] = m.register_native(name, factory(m, log))
    loaded = m.load_program(assemble(source), BASE, extern=extern)
    if setup is not None:
        setup(m, loaded, log)
    if budget is not None:
        m.cpu.max_steps_per_call = budget
    results, errors = [], []
    for call in range(calls):
        if 0 < call <= len(evictions):
            for k, evict in enumerate(evictions[call - 1]):
                if evict:
                    _set_entry(space, k, "cold")
        m.cpu.regs["ebx"] = DATA
        start = m.cpu.executed
        try:
            results.append(_enter(m, loaded.symbol("f")))
        except Exception as exc:  # noqa: BLE001 - compared structurally
            errors.append((type(exc).__name__, str(exc), m.cpu.eip,
                           m.cpu.executed - start))
    if seen is not None:
        seen[leg] = sorted(i for i, c in loaded.checks.items() if c)
    table = space.read_bytes(STLB, 32) if stlb == "ram" else None
    return _observe(m, space, results, errors, log) + (table,)


@contextmanager
def _unfused():
    """Runs built inside hold every instruction's own handler."""
    with mock.patch.object(cpu_mod, "_fused_check", lambda loaded, i: None):
        yield


def _all_legs(run, *args, **kwargs):
    """``run`` on each leg with fusion on and off; asserts all four
    observations are equal and returns the interpreter's fused one.
    Only the fused runs fill ``seen``."""
    plain_kwargs = dict(kwargs, seen=None)
    interp = None
    for leg in LEGS:
        fused = run(*args, leg=leg, **kwargs)
        with _unfused():
            plain = run(*args, leg=leg, **plain_kwargs)
        assert fused == plain, leg
        if interp is None:
            interp = fused
        assert fused == interp, leg
    return interp


def _index_of(loaded, mnemonic, nth=0):
    return [i for i, ins in enumerate(loaded.program.instructions)
            if ins.mnemonic == mnemonic][nth]


@settings(max_examples=40, deadline=None)
@given(_check_programs)
def test_fused_checks_bit_identical(spec):
    # lea forms, spills, pushf/popf, hits, misses through the slow
    # block, evictions between calls, the page cached or not, the hot
    # range whole or split on the stlb page
    items, iters, entries, evictions, split, cached = spec
    seen = {}
    _all_legs(_run_check, _check_source(items, iters), entries=entries,
              evictions=evictions, split=split, cached=cached, seen=seen)
    assert seen["interp"]               # the loop fused the checks


def test_fused_check_fast_path_once_its_page_is_cached():
    # the first check finds the stlb page not yet cached and runs the
    # nine handlers, which cache it; every later one takes the fast path
    fallbacks = []
    run_parts = cpu_mod._run_parts

    def counted(cpu, parts):
        fallbacks.append(cpu.executed)
        run_parts(cpu, parts)

    source = _check_source(_ONE, 4)
    with mock.patch.object(cpu_mod, "_run_parts", counted):
        _run_check(source, "interp", calls=2)
    assert len(fallbacks) == 1
    _all_legs(_run_check, source, calls=2)


def test_fused_check_page_fault_on_unmapped_stlb():
    # the cmp faults: same eip (the jne), executed, flags and account
    source = _check_source(_ONE, 2)
    off = _all_legs(_run_check, source, stlb="unmapped", calls=1)
    (kind, message, eip, _), = off[1]
    loaded = Machine().load_program(assemble(source), BASE,
                                    extern={"fill": 0})
    assert kind == "PageFault" and f"{STLB + 8:#010x}" in message
    assert eip == loaded.next_addrs[_index_of(loaded, "cmp")]


@pytest.mark.parametrize("effect", ["shadow", "hook xor"])
def test_fused_check_over_mmio_stlb(effect):
    # the stlb page is a device; its first read installs a charge
    # shadow, or hooks the first check's xor
    done = []

    def on_read(m, loaded):
        if done:
            return
        done.append(effect)
        if effect == "shadow":
            inner = m.account.charge
            m.account.charge = lambda category, cycles: inner(category,
                                                              cycles)
        else:
            log = []
            loaded.instrument[_index_of(loaded, "xor")] = (
                lambda cpu: log.append((cpu.eip, cpu.account.total)))

    def run(*args, **kwargs):
        done.clear()
        return _run_check(*args, **kwargs)

    items = [((form, ("edx", "esi", "eax", "ecx"), page, 0x40, "load",
               False, False), []) for form, page in (("disp", 0),
                                                     ("abs", 2))]
    _all_legs(run, _check_source(items, 3), stlb="mmio",
              entries=("cold", "hit", "stale", "hit"), calls=2)


@pytest.mark.parametrize("late", [False, True])
@pytest.mark.parametrize("at", range(9))
def test_fused_check_hooked_at_each_instruction(at, late):
    # a hook on any of the nine leaves the check unfused; ``late``
    # hooks it from the slow path's native, after the check has run
    # fused (the loop then drops its runs and fused checks)
    def setup(m, loaded, log):
        site = _index_of(loaded, "lea") + at

        def hook(cpu):
            log.append(("hook", cpu.eip, cpu.executed, cpu.account.total))

        if not late:
            loaded.instrument[site] = hook
            return
        fill = m.natives.by_addr[m.natives.address_of("fill")]
        filled = fill.fn

        def fill_and_hook(cpu):
            filled(cpu)
            loaded.instrument[site] = hook
        fill.fn = fill_and_hook

    seen = {}
    _all_legs(_run_check, _check_source(_ONE, 3), setup=setup, seen=seen,
              entries=("hit", "cold", "hit", "hit"), cached=True)
    assert seen["interp"] == []


@pytest.mark.parametrize("entry", ["hit", "cold"])
@pytest.mark.parametrize("iteration", [0, 1])
@pytest.mark.parametrize("ends_at", range(-1, 10))
def test_fused_check_budget_ends_inside(ends_at, iteration, entry):
    # the budget ends at each of the nine (and just before and after
    # them), in the first or second pass through the check:
    # CpuBudgetExceeded comes after the same instruction in each leg,
    # fused and unfused, and each call stops after budget + 1 of its
    # own instructions
    prologue = ["    movl $1, %eax", "    movl $2, %eax"]
    # ebp, edi, three spills, pushf and the index come before the lea;
    # one pass through the loop is 23 instructions
    first_lea = len(prologue) + 7 + 1
    budget = first_lea - 1 + ends_at + 23 * iteration
    off = _all_legs(_run_check, _check_source(_ONE, 3, prologue),
                    budget=budget, calls=2, cached=True,
                    entries=("hit", entry, "hit", "hit"))
    assert [(kind, executed) for kind, _, _, executed in off[1]] == [
        ("CpuBudgetExceeded", budget + 1)] * 2


@pytest.mark.parametrize("inner_iters", [1, 40])
@pytest.mark.parametrize("budget", range(40, 90, 7))
def test_fused_check_budget_with_reentrant_native(budget, inner_iters):
    # a native runs driver code (``g``: ``inner_iters`` checks) in a
    # nested loop, which counts against its own budget, not its
    # caller's: the caller's budget ends (one inner check) or the nested
    # loop's does (40), after the caller has fused checks pending
    where = {}
    text, slow = _render_check(_ONE[0][0], 1)
    source = _check_source(
        _ONE, 6, before_loop_end=["    call reenter"],
        tail=["g:", "    pushl %edi", f"    movl ${VBASE}, %ebp",
              f"    movl ${inner_iters}, %edi", "gloop:", text,
              "    decl %edi", "    cmpl $0, %edi", "    jne gloop",
              "    popl %edi", "    ret", slow])

    def reenter_factory(m, log):
        def reenter(cpu):
            log.append(("reenter", cpu.executed, cpu.account.total))
            cpu.call_function(where["g"])
        return reenter

    def setup(m, loaded, log):
        where["g"] = loaded.symbol("g")

    off = _all_legs(_run_check, source, budget=budget, calls=2,
                    setup=setup, cached=True,
                    natives=(("reenter", reenter_factory),),
                    entries=("hit", "cold", "hit", "hit"))
    assert off[1]                       # a budget ran out


def test_fused_check_hit_translating_to_zero():
    # a translation to address 0 leaves the xor's zf set (and sf clear)
    text, slow = _render_check(
        ("disp", ("eax", "ecx", "edx", "esi"), 0, 0, "none", False,
         False), 0)
    source = "\n".join([".globl f", "f:", f"    movl ${VBASE}, %ebp",
                        text, "    ret", slow]) + "\n"

    def setup(m, loaded, log):
        m.cpu.address_space.write(STLB + 4, 4, VBASE)

    seen = {}
    off = _all_legs(_run_check, source, setup=setup, cached=True, calls=2,
                    seen=seen)
    assert seen["interp"] and off[3]["zf"] and not off[3]["sf"]


def test_fused_check_entry_across_page_end():
    # the entry's tag ends the stlb page and its translation starts the
    # next one: the fused check runs the nine handlers, which read both
    text, slow = _render_check(
        ("disp", ("eax", "ecx", "edx", "esi"), 1, 0x124, "load", False,
         False), 0)
    text = text.replace(f"cmpl {STLB}(", f"cmpl {STLB + 0xFF4}(").replace(
        f"xorl {STLB + 4}(", f"xorl {STLB + 0xFF8}(")
    source = "\n".join([".globl f", "f:", f"    movl ${VBASE}, %ebp",
                        text, "    ret", slow]) + "\n"

    def setup(m, loaded, log):
        _, tag, translation = _entry(1)
        m.cpu.address_space.write(STLB + 0xFFC, 4, tag)
        m.cpu.address_space.write(SPILL, 4, translation)

    seen = {}
    _all_legs(_run_check, source, setup=setup, cached=True, calls=3,
              seen=seen)
    assert seen["interp"]


@pytest.mark.parametrize("near_miss", [None, "xor at D+8",
                                       "shr of another register",
                                       "r2 == r3"])
def test_fused_check_near_misses_do_not_fuse(near_miss):
    # page 0, so that r1 is 0 however it is shifted; no access, since a
    # near miss translates to nowhere
    text, slow = _render_check(
        ("disp", ("eax", "ecx", "edx", "esi"), 0, 0x124, "none", False,
         False), 0)
    if near_miss == "xor at D+8":
        text = text.replace(f"xorl {STLB + 4}(", f"xorl {STLB + 8}(")
    elif near_miss == "shr of another register":
        text = text.replace("shrl $9, %eax", "shrl $9, %esi")
    elif near_miss == "r2 == r3":
        text = text.replace("movl %eax, %edx", "movl %eax, %ecx").replace(
            "(%eax), %edx", "(%eax), %ecx")
    source = "\n".join([".globl f", "f:", f"    movl ${VBASE}, %ebp",
                        text, "    ret", slow]) + "\n"
    seen = {}
    _all_legs(_run_check, source, calls=2, seen=seen,
              entries=("cold", "hit", "hit", "hit"))
    assert bool(seen["interp"]) == (near_miss is None)
