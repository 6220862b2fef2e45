"""Differential fuzzing: interpreter vs superblock JIT (ISSUE 8).

Every generated program is run on four fresh machines over several
invocations: the interpreter as it runs by default (deferring its
charges), the superblock JIT at threshold 1 (a head compiles the first
time the loop jumps to it), the interpreter under a pass-through
charge shadow (every cost item charged on its own, the reference), and
the JIT at threshold 3, where a loop head runs as deferred runs,
compiles part-way through a call and is entered from a deferring run.
The complete observable state must be bit-identical: registers, flags,
direction flag, ``executed``, every per-category cycle counter, the
data pages, and ``account.total`` as the natives and the MMIO device
saw it at each call and access. Separate properties drive natives,
native-raised exceptions (the upcall shape), and page faults through
the middle of hot superblocks. The "world" properties cover every branch
of the interpreter's RAM fast path: 1/2/4-byte accesses at unaligned and
page-crossing offsets, a hot range over part of the data, a cycle scale
whose per-charge rounding differs from rounding the sum, a page shared
by RAM and a recording MMIO device, and a page whose frame does not
exist (BusError). The "delegated" property mixes in the forms a
superblock runs through their interpreter handlers, between emitted
instructions: sign extension, exchange, multiply, the flags word, the
direction flag, 8/16-bit register operands, 1/2-byte immediate stores
and a memory operand indexed by a 16-bit register.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble
from repro.machine import AddressSpace, BusError, Machine, PageFault

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
#: giving the trace compiler real side exits
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

#: forms outside the JIT's inline set (every register from ``_SREGS``
#: where an 8- or 16-bit name is needed)
_delegated_instr = st.one_of(
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

_delegated_programs = st.tuples(
    st.lists(st.lists(st.one_of(_delegated_instr, _instr), min_size=1,
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


def _render_delegated(op):
    """The text of a ``_delegated_instr`` op; None for any other."""
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
    delegated = _render_delegated(op)
    if delegated is not None:
        return delegated
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


#: the legs every program runs on, and the JIT threshold of each JIT leg
LEGS = ("interp", "jit", "shadow", "jit3")
_THRESHOLDS = {"jit": 1, "jit3": 3}


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
    m.cpu.jit_enabled = leg in _THRESHOLDS
    m.cpu.jit_threshold = _THRESHOLDS.get(leg, 1)
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
@given(_delegated_programs)
def test_delegated_forms_bit_identical(spec):
    # forms outside the inline set run their handlers inside the trace,
    # between emitted instructions and their batched charges
    blocks, guards, iters = spec
    _legs(_run_one, _build_source(blocks, guards, iters))


@settings(max_examples=20, deadline=None)
@given(_programs, st.integers(0, 0xFFFF))
def test_native_calls_mid_superblock(spec, salt):
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
def test_native_raises_mid_superblock(spec, boom_at):
    # the upcall shape: a native raising out of the middle of a hot
    # trace must leave identical precise state in both modes
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
def test_fault_mid_superblock(spec, bad_call):
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
def test_bus_error_mid_superblock(spec, bad_call):
    # the data base moves onto a page whose frame does not exist: the
    # BusError surfaces at the same instruction, after the same charges
    blocks, guards, iters = spec
    source = _build_source(blocks, guards, iters,
                           extra="    movl 0(%ebx), %esi")
    off = _legs(_run_bad_base, source, bad_call, BUS_VA, world=True)
    assert off[1] and {kind for kind, _ in off[1]} == {"BusError"}
