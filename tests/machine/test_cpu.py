"""CPU interpreter: instruction semantics, flags, calls, natives, faults."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble, code_size, encoder
from repro.machine import (
    AddressSpace,
    CpuBudgetExceeded,
    ExecutionFault,
    Machine,
    PAGE_SIZE,
    PageFault,
)
from repro.metrics import CycleAccount

DATA = 0xC0000000
STACK_TOP = 0xC0104000
#: a page whose frame is a device that reads the clock (see
#: ``TestDeferredCharges``)
MMIO_VA = 0xC0200000


class _ClockDevice:
    """MMIO device that logs each access with ``account.total``, then
    runs ``on_read`` (if given) inside each read."""

    def __init__(self, account, log, on_read=None):
        self.account = account
        self.log = log
        self.on_read = on_read

    def mmio_read(self, offset, size):
        self.log.append(("r", offset, self.account.total))
        if self.on_read is not None:
            self.on_read()
        return 0

    def mmio_write(self, offset, size, value):
        self.log.append(("w", offset, self.account.total))


def make_machine():
    m = Machine()
    space = AddressSpace("test", m.phys, m.hypervisor_table)
    space.map_new_pages(DATA, 4)
    space.map_new_pages(0xC0100000, 4)
    m.cpu.address_space = space
    return m, space


def run(source, args=(), setup=None, constants=None):
    m, space = make_machine()
    program = assemble(".globl f\n" + source, constants=constants)
    loaded = m.load_linked_program(program, 0x08000000)
    if setup:
        setup(m, space)
    result = m.cpu.call_function(loaded.symbol("f"), list(args),
                                 stack_top=STACK_TOP)
    return result, m, space


class TestArithmetic:
    def test_mov_add_sub(self):
        r, *_ = run("f: movl $10, %eax\naddl $5, %eax\nsubl $3, %eax\nret")
        assert r == 12

    def test_wraparound(self):
        r, *_ = run("f: movl $0xffffffff, %eax\naddl $2, %eax\nret")
        assert r == 1

    def test_logic_ops(self):
        r, *_ = run("f: movl $0xf0f0, %eax\nandl $0xff00, %eax\n"
                    "orl $0x1, %eax\nxorl $0xf000, %eax\nret")
        assert r == (0xF0F0 & 0xFF00 | 0x1) ^ 0xF000

    def test_imul(self):
        r, *_ = run("f: movl $7, %eax\nmovl $6, %ecx\nimull %ecx, %eax\nret")
        assert r == 42

    def test_neg_not(self):
        r, *_ = run("f: movl $5, %eax\nnegl %eax\nnotl %eax\nret")
        assert r == 4     # ~(-5) = 4

    def test_inc_dec(self):
        r, *_ = run("f: movl $10, %eax\nincl %eax\nincl %eax\ndecl %eax\nret")
        assert r == 11

    def test_shifts(self):
        r, *_ = run("f: movl $1, %eax\nshll $4, %eax\nshrl $1, %eax\nret")
        assert r == 8

    def test_sar_sign_extends(self):
        r, *_ = run("f: movl $0x80000000, %eax\nsarl $4, %eax\nret")
        assert r == 0xF8000000

    def test_lea_math(self):
        r, *_ = run("f: movl $10, %eax\nmovl $3, %ecx\n"
                    "leal 5(%eax,%ecx,4), %eax\nret")
        assert r == 10 + 3 * 4 + 5

    def test_xchg(self):
        r, *_ = run("f: movl $1, %eax\nmovl $2, %ecx\nxchgl %eax, %ecx\n"
                    "addl %ecx, %eax\nret")
        assert r == 3

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_add_matches_python(self, a, b):
        r, *_ = run(f"f: movl ${a & 0x7FFFFFFF}, %eax\n"
                    f"addl ${b & 0x7FFFFFFF}, %eax\nret")
        assert r == ((a & 0x7FFFFFFF) + (b & 0x7FFFFFFF)) & 0xFFFFFFFF


class TestConditions:
    @pytest.mark.parametrize("a,b,cc,taken", [
        (1, 1, "je", True), (1, 2, "je", False),
        (1, 2, "jne", True),
        (1, 2, "jl", True), (2, 1, "jl", False),
        (-1 & 0xFFFFFFFF, 1, "jl", True),      # signed
        (1, 2, "jb", True),
        (0xFFFFFFFF, 1, "jb", False),           # unsigned: big not below 1
        (2, 2, "jae", True), (2, 2, "jbe", True),
        (3, 2, "jg", True), (2, 3, "jge", False),
        (3, 2, "ja", True),
    ])
    def test_cmp_jcc(self, a, b, cc, taken):
        r, *_ = run(f"""
f:  movl ${a}, %eax
    cmpl ${b}, %eax
    {cc} yes
    movl $0, %eax
    ret
yes:
    movl $1, %eax
    ret
""")
        assert r == (1 if taken else 0)

    def test_test_sets_zf(self):
        r, *_ = run("f: movl $0, %eax\ntestl %eax, %eax\nje z\n"
                    "movl $7, %eax\nret\nz: movl $3, %eax\nret")
        assert r == 3

    def test_js_jns(self):
        r, *_ = run("f: movl $0x80000000, %eax\ntestl %eax, %eax\njs neg\n"
                    "movl $0, %eax\nret\nneg: movl $1, %eax\nret")
        assert r == 1

    def test_inc_preserves_cf(self):
        # cmp sets CF; inc must not clobber it
        r, *_ = run("""
f:  movl $1, %eax
    cmpl $2, %eax
    incl %eax
    jb below
    movl $0, %eax
    ret
below:
    movl $1, %eax
    ret
""")
        assert r == 1

    def test_pushf_popf_roundtrip(self):
        r, *_ = run("""
f:  movl $1, %eax
    cmpl $1, %eax
    pushf
    cmpl $99, %eax
    popf
    je equal
    movl $0, %eax
    ret
equal:
    movl $1, %eax
    ret
""")
        assert r == 1


class TestMemoryAndStack:
    def test_load_store(self):
        def setup(m, space):
            space.write_u32(DATA + 16, 1234)
        r, m, space = run(
            f"f: movl ${DATA}, %ecx\nmovl 16(%ecx), %eax\n"
            f"movl %eax, 20(%ecx)\nret", setup=setup)
        assert r == 1234
        assert space.read_u32(DATA + 20) == 1234

    def test_byte_and_word_access(self):
        def setup(m, space):
            space.write_bytes(DATA, b"\x11\x22\x33\x44")
        r, m, space = run(
            f"f: movl ${DATA}, %ecx\nmovzbl (%ecx), %eax\n"
            f"movzwl 1(%ecx), %edx\naddl %edx, %eax\nret", setup=setup)
        assert r == 0x11 + 0x3322

    def test_movb_partial_store(self):
        def setup(m, space):
            space.write_u32(DATA, 0xAABBCCDD)
        r, m, space = run(
            f"f: movl ${DATA}, %ecx\nmovb $0x99, (%ecx)\n"
            f"movl (%ecx), %eax\nret", setup=setup)
        assert r == 0xAABBCC99

    def test_push_pop(self):
        r, *_ = run("f: movl $5, %eax\npushl %eax\nmovl $9, %eax\n"
                    "popl %ecx\nmovl %ecx, %eax\nret")
        assert r == 5

    def test_stack_args(self):
        r, *_ = run("f: movl 4(%esp), %eax\naddl 8(%esp), %eax\nret",
                    args=[30, 12])
        assert r == 42

    def test_call_and_frame(self):
        r, *_ = run("""
f:  pushl $21
    call double
    addl $4, %esp
    ret
double:
    pushl %ebp
    movl %esp, %ebp
    movl 8(%ebp), %eax
    addl %eax, %eax
    popl %ebp
    ret
""")
        assert r == 42

    def test_recursion(self):
        # factorial(5) via the stack
        r, *_ = run("""
f:  pushl $5
    call fact
    addl $4, %esp
    ret
fact:
    pushl %ebp
    movl %esp, %ebp
    movl 8(%ebp), %eax
    cmpl $1, %eax
    jle base
    decl %eax
    pushl %eax
    call fact
    addl $4, %esp
    movl 8(%ebp), %ecx
    imull %ecx, %eax
    popl %ebp
    ret
base:
    movl $1, %eax
    popl %ebp
    ret
""")
        assert r == 120

    def test_indirect_call_through_register(self):
        r, *_ = run("""
f:  movl $target, %eax
    call *%eax
    ret
target:
    movl $77, %eax
    ret
""")
        assert r == 77

    def test_indirect_call_through_memory(self):
        def setup(m, space):
            pass
        r, m, space = run(f"""
f:  movl $target, %ecx
    movl ${DATA}, %edx
    movl %ecx, (%edx)
    call *(%edx)
    ret
target:
    movl $88, %eax
    ret
""", setup=setup)
        assert r == 88

    def test_indirect_jmp(self):
        r, *_ = run("""
f:  movl $out, %eax
    jmp *%eax
    movl $0, %eax
    ret
out:
    movl $55, %eax
    ret
""")
        assert r == 55


class TestStringOps:
    def test_rep_movsl(self):
        def setup(m, space):
            space.write_bytes(DATA, bytes(range(40)))
        r, m, space = run(f"""
f:  movl ${DATA}, %esi
    movl ${DATA + 0x100}, %edi
    movl $10, %ecx
    rep movsl
    ret
""", setup=setup)
        assert space.read_bytes(DATA + 0x100, 40) == bytes(range(40))
        assert m.cpu.regs["ecx"] == 0

    def test_rep_stosb(self):
        r, m, space = run(f"""
f:  movl ${DATA}, %edi
    movl $0x41, %eax
    movl $16, %ecx
    rep stosb
    ret
""")
        assert space.read_bytes(DATA, 16) == b"A" * 16

    def test_lodsl(self):
        def setup(m, space):
            space.write_u32(DATA, 0xCAFEBABE)
        r, m, space = run(
            f"f: movl ${DATA}, %esi\nlodsl\nret", setup=setup)
        assert r == 0xCAFEBABE
        assert m.cpu.regs["esi"] == DATA + 4

    def test_repe_cmpsb_equal(self):
        def setup(m, space):
            space.write_bytes(DATA, b"hello")
            space.write_bytes(DATA + 0x100, b"hello")
        r, m, space = run(f"""
f:  movl ${DATA}, %esi
    movl ${DATA + 0x100}, %edi
    movl $5, %ecx
    repe cmpsb
    je same
    movl $0, %eax
    ret
same:
    movl $1, %eax
    ret
""", setup=setup)
        assert r == 1

    def test_repe_cmpsb_differs_stops_early(self):
        def setup(m, space):
            space.write_bytes(DATA, b"heXlo")
            space.write_bytes(DATA + 0x100, b"hello")
        r, m, space = run(f"""
f:  movl ${DATA}, %esi
    movl ${DATA + 0x100}, %edi
    movl $5, %ecx
    repe cmpsb
    movl %ecx, %eax
    ret
""", setup=setup)
        assert r == 2     # stopped at index 2, ecx = 5 - 3

    def test_repne_scasb_finds_byte(self):
        def setup(m, space):
            space.write_bytes(DATA, b"abcdef")
        r, m, space = run(f"""
f:  movl ${DATA}, %edi
    movl $0x64, %eax      # 'd'
    movl $6, %ecx
    repne scasb
    movl %edi, %eax
    ret
""", setup=setup)
        assert r == DATA + 4   # one past the match


class TestNativesAndFaults:
    def test_native_call(self):
        m, space = make_machine()
        calls = []

        def fn(cpu):
            calls.append(cpu.read_stack_arg(0))
            return cpu.read_stack_arg(0) * 2

        m.register_native("double_it", fn)
        program = assemble(".globl f\nf: pushl $21\ncall double_it\n"
                           "addl $4, %esp\nret")
        loaded = m.load_program(program, 0x08000000,
                                extern={"double_it":
                                        m.natives.address_of("double_it")})
        r = m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        assert r == 42
        assert calls == [21]

    def test_native_none_preserves_eax(self):
        m, space = make_machine()
        m.register_native("noop", lambda cpu: None)
        program = assemble(".globl f\nf: movl $7, %eax\ncall noop\nret")
        loaded = m.load_program(program, 0x08000000,
                                extern={"noop": m.natives.address_of("noop")})
        assert m.cpu.call_function(loaded.symbol("f"), [],
                                   stack_top=STACK_TOP) == 7

    def test_nested_call_function_from_native(self):
        m, space = make_machine()
        program = assemble(".globl f\n.globl helper\n"
                           "f: call trampoline\nret\n"
                           "helper: movl $13, %eax\nret")
        addr_holder = {}

        def trampoline(cpu):
            return cpu.call_function(addr_holder["helper"], [],
                                     stack_top=STACK_TOP - 0x800)

        m.register_native("trampoline", trampoline)
        loaded = m.load_program(
            program, 0x08000000,
            extern={"trampoline": m.natives.address_of("trampoline")})
        addr_holder["helper"] = loaded.symbol("helper")
        assert m.cpu.call_function(loaded.symbol("f"), [],
                                   stack_top=STACK_TOP) == 13

    def test_load_encodes_each_instruction_once(self, monkeypatch):
        m, space = make_machine()
        program = assemble(".globl f\nf: movl $1, %eax\n"
                           "movl 8(%esp), %ecx\naddl %ecx, %eax\nret")
        size = code_size(program)
        encoded = []
        real = encoder.encode_instruction
        monkeypatch.setattr(encoder, "encode_instruction",
                            lambda instr: encoded.append(instr) or real(instr))
        loaded = m.load_program(program, 0x08000000)
        assert encoded == program.instructions
        assert loaded.end == 0x08000000 + size

    def test_budget_exceeded_on_infinite_loop(self):
        m, space = make_machine()
        program = assemble(".globl f\nf: jmp f")
        loaded = m.load_program(program, 0x08000000)
        m.cpu.max_steps_per_call = 1000
        with pytest.raises(CpuBudgetExceeded):
            m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)

    def test_execute_unmapped_address(self):
        m, space = make_machine()
        program = assemble(".globl f\nf: movl $0x12345678, %eax\ncall *%eax\nret")
        loaded = m.load_program(program, 0x08000000)
        with pytest.raises(ExecutionFault):
            m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)

    def test_jump_mid_instruction(self):
        m, space = make_machine()
        program = assemble(".globl f\nf: movl $1, %eax\nret")
        loaded = m.load_program(program, 0x08000000)
        with pytest.raises(ExecutionFault):
            m.cpu.call_function(loaded.base + 1, [], stack_top=STACK_TOP)

    def test_ud2_faults(self):
        m, space = make_machine()
        program = assemble(".globl f\nf: ud2")
        loaded = m.load_program(program, 0x08000000)
        with pytest.raises(ExecutionFault):
            m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)

    def test_esp_restored_after_call_function(self):
        m, space = make_machine()
        program = assemble(".globl f\nf: movl $1, %eax\nret")
        loaded = m.load_program(program, 0x08000000)
        m.cpu.regs["esp"] = 0x1234
        m.cpu.call_function(loaded.symbol("f"), [5, 6], stack_top=STACK_TOP)
        assert m.cpu.regs["esp"] == 0x1234

    def test_cycles_charged(self):
        m, space = make_machine()
        program = assemble(".globl f\nf: movl $1, %eax\nret")
        loaded = m.load_program(program, 0x08000000)
        before = m.account.total
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        assert m.account.total > before

    def test_category_attribution(self):
        m, space = make_machine()
        program = assemble(".globl f\nf: movl $1, %eax\nret")
        loaded = m.load_program(program, 0x08000000)
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP,
                            category="e1000")
        assert m.account.cycles["e1000"] > 0

    def test_hot_range_cheaper(self):
        m, space = make_machine()
        program = assemble(f".globl f\nf: movl {DATA}, %eax\nret")
        loaded = m.load_program(program, 0x08000000)
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        cold = m.account.total
        m.account.reset()
        m.cpu.add_hot_range(DATA, DATA + PAGE_SIZE)
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        assert m.account.total < cold


class TestChargeSequence:
    def test_exact_charges_seen_by_a_charge_shadow(self):
        # What a profiler-style shadow of ``account.charge`` sees: one
        # call per cost item, in order, each cost scaled and rounded on
        # its own. At scale 1.37: alu 1, mem 8, mem_hot 3, call 14,
        # ret 11, native_call 16; a native's own cost is not scaled.
        m, space = make_machine()
        hot = DATA + PAGE_SIZE
        m.cpu.add_hot_range(hot, hot + PAGE_SIZE)
        m.cpu.cycle_scale = 1.37
        m.register_native("nat", lambda cpu: None, cost=50, category="Xen")
        program = assemble(f".globl f\nf: movl {DATA}, %eax\n"
                           f"movl %eax, {hot}\ncall nat\nret")
        loaded = m.load_program(
            program, 0x08000000, extern={"nat": m.natives.address_of("nat")})
        seen = []
        inner = m.account.charge

        def shadow(category, cycles):
            seen.append((category, cycles))
            inner(category, cycles)

        m.account.charge = shadow
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP,
                            category="e1000")
        d = "e1000"
        assert seen == [
            (d, 8),                  # call_function pushes the sentinel
            (d, 1), (d, 8),          # movl DATA, %eax: alu, cold load
            (d, 1), (d, 3),          # movl %eax, hot: alu, hot store
            (d, 1), (d, 14), (d, 8),  # call: alu, call, push return
            (d, 16), ("Xen", 50),    # native_call, the native's cost
            (d, 8),                  # pop the native's return address
            (d, 1), (d, 11), (d, 8),  # ret: alu, ret, pop
        ]
        # rounding each charge differs from rounding their sum (90)
        assert sum(c for cat, c in seen if cat == d) == 88

    def test_stlb_check_charges_on_page_cache_miss_and_hit(self):
        # The figure-4 stlb check as the rewriter emits it, with the stlb
        # in a hot range, at scale 1.37 (alu 1, mem 8, mem_hot 3, ret 11).
        # The first call misses the page cache on the stack and the stlb
        # page, the second hits; a charge shadow sees the same list.
        m, space = make_machine()
        stlb = DATA + PAGE_SIZE
        m.cpu.add_hot_range(stlb, stlb + PAGE_SIZE)
        m.cpu.cycle_scale = 1.37
        space.write_u32(stlb, DATA)              # tag of entry 0
        space.write_u32(stlb + 4, 0x5000)        # its xormap
        program = assemble(
            f".globl f\nf: leal 8(%esi), %ecx\n"
            f"movl %ecx, %edx\n"
            f"andl $0xFFFFF000, %ecx\n"
            f"movl %ecx, %ebx\n"
            f"andl $0x00FFF000, %ecx\n"
            f"shrl $9, %ecx\n"
            f"cmpl {stlb}(%ecx), %ebx\n"
            f"jne slow\n"
            f"xorl {stlb + 4}(%ecx), %edx\n"
            f"movl %edx, %eax\nret\n"
            f"slow: ud2")
        loaded = m.load_program(program, 0x08000000)
        m.cpu.regs["esi"] = DATA
        seen = []
        inner = m.account.charge

        def shadow(category, cycles):
            seen.append((category, cycles))
            inner(category, cycles)

        m.account.charge = shadow
        d = "e1000"
        expected = [
            (d, 8),                            # push the sentinel
            (d, 1), (d, 1), (d, 1),            # lea, mov, and
            (d, 1), (d, 1), (d, 1),            # mov, and, shr
            (d, 1), (d, 3),                    # cmp: alu, hot stlb tag
            (d, 1),                            # jne, not taken
            (d, 1), (d, 3),                    # xor: alu, hot xormap
            (d, 1),                            # mov
            (d, 1), (d, 11), (d, 8),           # ret: alu, ret, pop
        ]
        calls = []
        assert stlb >> 12 not in space.read_pages
        for _ in range(2):
            seen.clear()
            result = m.cpu.call_function(loaded.symbol("f"), [],
                                         stack_top=STACK_TOP,
                                         category=d)
            assert result == (DATA + 8) ^ 0x5000
            assert stlb >> 12 in space.read_pages
            calls.append(list(seen))
        assert calls == [expected, expected]

    def test_costs_table_is_frozen(self):
        m, _ = make_machine()
        with pytest.raises(FrozenInstanceError):
            m.cpu.costs.mem = 1
        with pytest.raises(AttributeError):
            m.cpu.costs = m.cpu.costs


class TestDeferredCharges:
    """With no charge shadow installed, ``_run_loop`` adds charges up and
    settles them before anything outside the interpreter can look. Each
    case runs on two fresh machines, one under a pass-through shadow
    (which makes the loop charge item by item), and
    every observation of the account must be the same on both."""

    @staticmethod
    def observe(source, shadowed, natives=(), hook_at=None, device=False,
                max_steps=None, on_read=None):
        """Call ``f`` once under category e1000. Returns the log the
        natives, the hook and the device append to, the exception's type
        name (or None), the final cycles and the instruction count.
        ``on_read(m, loaded, log)``, if given, runs inside every device
        read (and implies the device)."""
        m, space = make_machine()
        log = []
        extern = {}
        for name, fn, options in natives:
            m.register_native(name, lambda cpu, fn=fn: fn(cpu, log),
                              **options)
            extern[name] = m.natives.address_of(name)
        loaded = None
        if device or on_read is not None:
            frame = m.phys.allocate_frame()
            m.phys.add_mmio_region(frame << 12, PAGE_SIZE, _ClockDevice(
                m.account, log,
                on_read and (lambda: on_read(m, loaded, log))))
            space.map_page(MMIO_VA, frame)
        loaded = m.load_program(assemble(".globl f\n" + source), 0x08000000,
                                extern=extern)
        if hook_at is not None:
            loaded.instrument[hook_at] = (
                lambda cpu: log.append(("hook", cpu.account.total)))
        if shadowed:
            inner = m.account.charge
            m.account.charge = lambda category, cycles: inner(category,
                                                              cycles)
            assert m.account.shadowed
        if max_steps is not None:
            m.cpu.max_steps_per_call = max_steps
        error = None
        try:
            m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP,
                                category="e1000")
        except Exception as exc:  # noqa: BLE001 - compared by type
            error = type(exc).__name__
        return log, error, m.account.cycles, m.cpu.executed

    def same(self, source, **kwargs):
        plain = self.observe(source, False, **kwargs)
        assert plain == self.observe(source, True, **kwargs)
        return plain

    #: e1000 work before an observation: ALU ops, a cold load and a
    #: read-modify-write of memory
    WORK = (f"movl $5, %ecx\nmovl {DATA}, %eax\naddl %ecx, %eax\n"
            f"addl %eax, {DATA + 4}\n")

    def test_native_reads_the_clock_mid_function(self):
        clock = ("clock", lambda cpu, log: log.append(cpu.account.total), {})
        log, error, _, _ = self.same(
            "f: " + self.WORK + "call clock\n" + self.WORK
            + "call clock\nret", natives=[clock])
        assert error is None and len(log) == 2 and 0 < log[0] < log[1]

    def test_page_fault_part_way(self):
        _, error, cycles, executed = self.same(
            "f: " + self.WORK + "movl 0x40000000, %edx\nret")
        assert error == "PageFault" and executed == 5
        assert cycles["e1000"] > 0

    def test_budget_exceeded_part_way(self):
        _, error, cycles, executed = self.same(
            "f: " + self.WORK + "jmp f", max_steps=100)
        assert error == "CpuBudgetExceeded" and executed == 101

    def test_native_with_its_own_category(self):
        # the e1000 instructions before the native stay in e1000
        xen = ("xen", lambda cpu, log: log.append(cpu.account.cycles),
               {"category": "Xen", "cost": 50})
        log, _, cycles, _ = self.same(
            "f: " + self.WORK + "call xen\n" + self.WORK + "ret",
            natives=[xen])
        assert log[0]["e1000"] > 0 and log[0]["Xen"] == 50
        assert cycles["Xen"] == 50

    def test_native_calls_back_into_driver_code(self):
        # the upcall and interrupt shape: a nested loop settles on its
        # own exit, and the outer one does not charge its work again
        def trampoline(cpu, log):
            log.append(cpu.account.total)
            helper = cpu.code.program_at(0x08000000).symbol("helper")
            cpu.call_function(helper, [], stack_top=STACK_TOP - 0x800)
            log.append(cpu.account.total)

        log, _, _, executed = self.same(
            "f: " + self.WORK + "call trampoline\n" + self.WORK + "ret\n"
            + "helper: " + self.WORK + "ret",
            natives=[("trampoline", trampoline, {})])
        assert len(log) == 2 and log[0] < log[1] and executed == 15

    def test_native_runs_driver_code_under_a_shadow_of_its_own(self):
        # that code is charged item by item as it runs; the
        # outer loop, deferring again after the native, must not owe it
        def traced(cpu, log):
            outer = cpu.account.charge
            cpu.account.charge = lambda category, cycles: outer(category,
                                                                cycles)
            helper = cpu.code.program_at(0x08000000).symbol("helper")
            cpu.call_function(helper, [], stack_top=STACK_TOP - 0x800)
            cpu.account.charge = outer
            log.append(cpu.account.total)

        log, _, _, _ = self.same(
            "f: " + self.WORK + "call traced\n" + self.WORK + "ret\n"
            + "helper: " + self.WORK + "ret",
            natives=[("traced", traced, {})])
        assert log[0] > 0

    def test_a_call_after_one_under_a_shadow(self):
        # the loop's count of instructions owed starts at its own entry
        deltas = []
        for shadow_first in (False, True):
            m, _ = make_machine()
            loaded = m.load_program(assemble(".globl f\nf: " + self.WORK
                                             + "ret"), 0x08000000)
            if shadow_first:
                real = m.account.charge
                m.account.charge = lambda category, cycles: real(category,
                                                                 cycles)
            m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
            if shadow_first:
                del m.account.charge
            before = m.account.total
            m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
            deltas.append(m.account.total - before)
        assert deltas[0] == deltas[1]

    def test_instrument_hook_reads_the_clock(self):
        log, _, _, _ = self.same("f: " + self.WORK + self.WORK + "ret",
                                 hook_at=4)
        assert len(log) == 1 and log[0][1] > 0

    def test_device_reads_the_clock(self):
        log, _, _, _ = self.same(
            "f: " + self.WORK + f"movl %eax, {MMIO_VA}\n" + self.WORK
            + f"movl {MMIO_VA + 4}, %edx\nret", device=True)
        assert [entry[0] for entry in log] == ["w", "r"]

    def test_shadow_installed_by_a_native_sees_every_item(self):
        # after the native the call charges item by item: the new
        # shadow sees the same items as one installed from the start
        source = "f: " + self.WORK + "call install\n" + self.WORK + "ret"

        def install(cpu, log):
            inner = cpu.account.charge

            def shadow(category, cycles):
                log.append((category, cycles))
                inner(category, cycles)
            cpu.account.charge = shadow
            log.append("installed")

        log, _, _, _ = self.same(source,
                                 natives=[("install", install, {})])
        d = "e1000"
        assert log == [
            "installed",
            (d, 6),                            # pop the return address
            (d, 1), (d, 1), (d, 6), (d, 1),    # movl, movl DATA, addl
            (d, 1), (d, 6), (d, 6),            # addl to DATA + 4
            (d, 1), (d, 8), (d, 6),            # ret
        ]

    def test_the_loop_defers(self, monkeypatch):
        # a class-level wrapper counts calls without being a shadow. Once
        # every page is cached, a call charges the sentinel push (made
        # from Python), ``ret``, and at loop exit the rest in one settle:
        # 4 + 1 alu, 2 loads and 1 store at mem 6, the return pop
        m, _ = make_machine()
        loaded = m.load_program(assemble(".globl f\nf: " + self.WORK
                                         + "ret"), 0x08000000)
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        calls = []
        real = CycleAccount.charge

        def counting(self, category, cycles):
            calls.append((category, cycles))
            real(self, category, cycles)
        monkeypatch.setattr(CycleAccount, "charge", counting)
        assert not m.account.shadowed
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        assert calls == [("dom0", 6), ("dom0", 8), ("dom0", 5 + 18 + 6)]

    # The loop dispatches a straight-line run of handlers at a time (up
    # to a jmp/jcc/call/ret). It stops after an instruction that reached
    # code outside the interpreter, and is cut where the budget ends.

    def test_budget_limit_inside_a_run(self):
        # runs of 13 instructions: the second is cut after 8
        _, error, cycles, executed = self.same(
            "f: " + 3 * self.WORK + "jmp f", max_steps=20)
        assert error == "CpuBudgetExceeded" and executed == 21
        assert cycles["e1000"] > 0

    def test_device_installs_a_shadow_mid_run(self):
        # the rest of the call charges item by item: the new shadow
        # sees every later item, as one installed by a native does
        def install(m, loaded, log):
            inner = m.account.charge

            def shadow(category, cycles):
                log.append((category, cycles))
                inner(category, cycles)
            m.account.charge = shadow
            log.append("installed")

        log, _, _, _ = self.same(
            "f: " + self.WORK + f"movl {MMIO_VA}, %edx\n" + self.WORK
            + "ret", on_read=install)
        d = "e1000"
        assert log[0][0] == "r" and log[1:] == [
            "installed",
            (d, 1), (d, 1), (d, 6), (d, 1),    # movl, movl DATA, addl
            (d, 1), (d, 6), (d, 6),            # addl to DATA + 4
            (d, 1), (d, 8), (d, 6),            # ret
        ]

    def test_device_hooks_a_later_instruction_of_the_run(self):
        # the hook on the second movl after the device read fires
        def hook(m, loaded, log):
            loaded.instrument[6] = lambda cpu: log.append(
                ("hook", cpu.account.total))

        log, _, _, _ = self.same(
            "f: " + self.WORK + f"movl {MMIO_VA}, %edx\n" + self.WORK
            + "ret", on_read=hook)
        assert [entry[0] for entry in log] == ["r", "hook"]

    def test_device_hooks_an_instruction_of_a_built_run(self):
        # the second iteration builds the loop head's run, then its
        # device read hooks the head: the third iteration must run the
        # hooked handler, not the cached run
        def hook(m, loaded, log):
            if [entry[0] for entry in log] == ["r", "r"]:
                loaded.instrument[1] = lambda cpu: log.append(
                    ("hook", cpu.account.total))

        log, _, _, executed = self.same(
            "f: movl $3, %ebx\n"
            "loop: movl $5, %ecx\n"
            f"movl {MMIO_VA}, %edx\n"
            "decl %ebx\njne loop\nret", on_read=hook)
        assert [entry[0] for entry in log] == ["r", "r", "hook", "r"]
        assert executed == 14

    def test_device_replaces_the_program(self):
        # the next instruction comes from the program now registered at
        # the same base: it reads offset 8, where the old one read 4
        def source(offset):
            return (f"f: movl {MMIO_VA}, %edx\n"
                    f"movl {MMIO_VA + offset}, %ecx\nret")

        def replace(m, loaded, log):
            if m.code.program_at(0x08000000) is loaded:
                m.code.unregister(loaded)
                new = m.load_program(assemble(".globl f\n" + source(8)),
                                     0x08000000)
                assert new.addrs == loaded.addrs

        log, _, _, _ = self.same(source(4), on_read=replace)
        assert [entry[:2] for entry in log] == [("r", 0), ("r", 8)]

    def test_page_fault_mid_run(self):
        # the fault sees the faulting instruction counted and eip on
        # its fall-through, as one dispatch per instruction leaves them
        source = ("f: " + self.WORK + "movl 0x40000000, %edx\n" + self.WORK
                  + "ret")
        seen = []
        for shadowed in (False, True):
            m, space = make_machine()
            loaded = m.load_program(assemble(".globl f\n" + source),
                                    0x08000000)
            translate = space.translate

            def spy(vaddr, write=False, m=m, translate=translate):
                if vaddr == 0x40000000:
                    seen.append((shadowed, m.cpu.eip, m.cpu.executed))
                return translate(vaddr, write)
            space.translate = spy
            if shadowed:
                inner = m.account.charge
                m.account.charge = lambda category, cycles: inner(category,
                                                                  cycles)
            with pytest.raises(PageFault):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP, category="e1000")
            seen.append((shadowed, m.cpu.executed, dict(m.account.cycles)))
        plain_fault, plain_end, shadowed_fault, shadowed_end = seen
        assert plain_fault[1:] == (loaded.addrs[5], 5)
        assert plain_fault[1:] == shadowed_fault[1:]
        assert plain_end[1:] == shadowed_end[1:]

    def test_handler_that_fails_to_compile_mid_run(self):
        # ``lea`` of a register assembles and loads, and its handler
        # fails to compile: the error comes when the loop reaches it,
        # after the instruction before it has run
        _, error, _, executed = self.same(
            "f: movl $1, %eax\nlea %eax, %ebx\nret")
        assert error == "AttributeError" and executed == 1

    def test_category_and_scale_changes_settle_first(self):
        # no code in the tree changes the category or the scale while
        # the loop defers (natives, hooks and devices run with deferral
        # off); the settle in each keeps the account exact for one that
        # does
        m, _ = make_machine()
        cpu = m.cpu
        for change, category in ((lambda: cpu.push_category("Xen"), "dom0"),
                                 (cpu.pop_category, "Xen"),
                                 (lambda: setattr(cpu, "cycle_scale", 2.0),
                                  "dom0")):
            cpu._deferring = True
            cpu._settled = cpu.executed
            cpu.executed += 3
            cpu._owed = 10
            before = m.account.cycles[category]
            change()
            cpu._deferring = False
            assert m.account.cycles[category] - before == 3 + 10
