"""Superblock trace JIT (ISSUE 8): formation, side exits, invalidation.

The contract under test: with ``jit_enabled`` the interpreter's
*observable* behaviour — registers, flags, memory, ``executed``, and
every per-category cycle counter — is bit-identical to the JIT off;
only host wall time changes. Plus the three ISSUE 8 bugfixes:
instrument hooks on warm code, charge-shadow layering (the loop's
side), and stale program state across a mid-run reload.
"""

import pytest

from repro.analysis import verify_program
from repro.core.rewriter import STLB_SYMBOL, apply_elision, rewrite_driver
from repro.drivers import DRIVER_SPECS
from repro.isa import assemble
from repro.isa.operands import Imm, Mem
from repro.machine import AddressSpace, Machine, PageFault
from repro.machine.cpu import LoadedProgram, _run_for
from repro.machine.jit import _Emitter, _Unsupported
from repro.metrics.cycles import CycleAccount

DATA = 0xC0000000
STACK_TOP = 0xC0104000
BASE = 0x08000000

LOOP_SRC = """
.globl f
f: movl $0, %eax
   movl $0, %ecx
loop:
   movl (%ebx,%ecx,4), %edx
   addl %edx, %eax
   incl %ecx
   cmpl $16, %ecx
   jne loop
   shll $1, %eax
   ret
"""


def make_machine(jit=False, threshold=2):
    m = Machine()
    space = AddressSpace("test", m.phys, m.hypervisor_table)
    space.map_new_pages(DATA, 4)
    space.map_new_pages(0xC0100000, 4)
    m.cpu.address_space = space
    m.cpu.jit_enabled = jit
    m.cpu.jit_threshold = threshold
    return m, space


def machine_state(m):
    return (dict(m.cpu.regs), dict(m.cpu.flags), m.cpu.df,
            m.cpu.executed, m.account.cycles)


def run_both(source, calls=1, args=(), setup=None, threshold=2):
    """Run ``source`` on two fresh machines (interp vs JIT) and assert
    the full observable state matches; returns (results, jit machine)."""
    outs = []
    machines = []
    for jit in (False, True):
        m, space = make_machine(jit=jit, threshold=threshold)
        program = assemble(source)
        loaded = m.load_linked_program(program, BASE)
        if setup:
            setup(m, space, loaded)
        results = [m.cpu.call_function(loaded.symbol("f"), list(args),
                                       stack_top=STACK_TOP)
                   for _ in range(calls)]
        outs.append((results, machine_state(m)))
        machines.append(m)
    assert outs[0] == outs[1]
    return outs[1][0], machines[1]


class TestSuperblockFormation:
    def test_hot_loop_is_promoted_and_matches_interpreter(self):
        def fill(m, space, loaded):
            for i in range(16):
                space.write(DATA + 4 * i, 4, i)
            m.cpu.regs["ebx"] = DATA

        results, m = run_both(LOOP_SRC, calls=8, setup=fill)
        assert results[-1] == 2 * sum(range(16))
        stats = m.cpu.jit_stats()
        assert stats["compiles"] >= 1
        assert stats["entries"] >= 1

    def test_cold_code_never_compiles(self):
        src = ".globl f\nf: movl $3, %eax\nret"
        results, m = run_both(src, calls=1, threshold=50)
        assert results == [3]
        assert m.cpu.jit_stats()["compiles"] == 0

    def test_heads_fallen_through_to_are_not_counted(self):
        # ``body`` (after the untaken jae) is a run head on every
        # iteration, but the loop falls through to it, so it never
        # counts; ``f`` (a call's entry) and ``loop`` (jumped to from the
        # second iteration on) do, and their traces cover ``body``
        src = """
.globl f
f: movl $0, %eax
   movl $0, %ecx
loop:
   incl %ecx
   cmpl $100, %ecx
   jae never
body:
   addl %ecx, %eax
   cmpl $2, %ecx
   jne loop
   ret
never:
   ud2
"""
        m, _ = make_machine(jit=True, threshold=2)
        loaded = m.load_linked_program(assemble(src), BASE)
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        assert m.cpu.jit_stats()["compiles"] == 0
        assert m.cpu.call_function(loaded.symbol("f"), [],
                                   stack_top=STACK_TOP) == 3
        assert set(loaded._jit.superblocks) == {loaded.symbol("f"),
                                                 loaded.symbol("loop")}

    def test_trace_ends_at_another_superblock_head(self):
        # ``loop`` compiles in the first call; ``f``, a call's entry,
        # compiles in the second, and its trace exits where ``loop``'s
        # begins instead of compiling the loop a second time
        src = """
.globl f
f: movl $0, %eax
   movl $0, %ecx
loop:
   incl %ecx
   addl %ecx, %eax
   cmpl $4, %ecx
   jne loop
   ret
"""
        m, _ = make_machine(jit=True, threshold=2)
        loaded = m.load_linked_program(assemble(src), BASE)
        f, loop = loaded.symbol("f"), loaded.symbol("loop")
        m.cpu.call_function(f, [], stack_top=STACK_TOP)
        assert list(loaded._jit.superblocks) == [loop]
        assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 10
        assert loaded._jit.superblocks[f].n_instrs == 2
        assert loaded._jit.superblocks[loop].entries == 2

    def test_uncompilable_handler_ends_the_trace_before_it(self):
        # ``leal %cx, %eax`` is outside the inline set and its handler
        # does not compile: the trace from ``loop`` ends before it, as a
        # run does, so both modes run the loop and fail at the lea
        src = """
.globl f
f: movl $0, %ecx
loop:
   incl %ecx
   cmpl $8, %ecx
   jne loop
   leal %cx, %eax
   ret
"""
        outs = []
        for jit in (False, True):
            m, _ = make_machine(jit=jit)
            loaded = m.load_linked_program(assemble(src), BASE)
            with pytest.raises(Exception) as info:
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append((type(info.value), machine_state(m)))
        assert outs[0] == outs[1]
        assert m.cpu.jit_stats()["compiles"] == 1

    def test_jit_off_by_default(self):
        m = Machine()
        assert m.cpu.jit_enabled is False

    def test_stats_sum_over_every_registered_program(self):
        # every registered program counts, not only the last-fetched one
        m, space = make_machine(jit=True)
        m.cpu.regs["ebx"] = DATA
        loaded = [m.load_linked_program(assemble(LOOP_SRC), base)
                  for base in (BASE, BASE + 0x10000)]
        for _ in range(4):
            for prog in loaded:
                m.cpu.call_function(prog.symbol("f"), [],
                                    stack_top=STACK_TOP)
        per_program = [
            [sb for sb in prog._jit.superblocks.values() if sb]
            for prog in loaded]
        assert all(per_program)
        stats = m.cpu.jit_stats()
        assert stats["superblocks"] == sum(map(len, per_program))
        assert stats["entries"] == sum(
            sb.entries for sbs in per_program for sb in sbs)

    def test_side_exit_when_branch_flips(self):
        # the trace is laid out for the warm-up iteration count; calls
        # with a different count must side-exit mid-superblock with
        # registers, flags, and cycles exactly as the interpreter leaves
        # them
        src = """
.globl f
f: movl 4(%esp), %ecx
   movl $0, %eax
loop:
   addl %ecx, %eax
   decl %ecx
   cmpl $0, %ecx
   jne loop
   ret
"""
        for n in (9, 1, 30, 2):
            expected = sum(range(1, n + 1))
            outs = []
            for jit in (False, True):
                m, _ = make_machine(jit=jit)
                loaded = m.load_linked_program(assemble(src), BASE)
                for _ in range(6):       # warm with n=9 shape
                    m.cpu.call_function(loaded.symbol("f"), [9],
                                        stack_top=STACK_TOP)
                r = m.cpu.call_function(loaded.symbol("f"), [n],
                                        stack_top=STACK_TOP)
                outs.append((r, machine_state(m)))
            assert outs[0] == outs[1]
            assert outs[1][0] == expected

    def test_fault_mid_superblock_leaves_precise_state(self):
        # the second call points the load at an unmapped page: the
        # fault must surface at the same instruction with identical
        # cycles charged in both modes
        src = """
.globl f
f: movl $0, %eax
   movl $0, %ecx
loop:
   addl (%ebx,%ecx,4), %eax
   incl %ecx
   cmpl $8, %ecx
   jne loop
   ret
"""
        outs = []
        for jit in (False, True):
            m, space = make_machine(jit=jit)
            loaded = m.load_linked_program(assemble(src), BASE)
            m.cpu.regs["ebx"] = DATA
            for _ in range(6):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            m.cpu.regs["ebx"] = 0x40000000        # unmapped
            with pytest.raises(PageFault):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append(machine_state(m))
        assert outs[0] == outs[1]


class TestDispatcherGuards:
    def test_profiler_shadow_bypasses_superblocks_exactly(self):
        # with a charge shadow installed the loop must run the runs
        # instead, so per-charge attribution stays per-instruction
        m, space = make_machine(jit=True)
        loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
        for i in range(16):
            space.write(DATA + 4 * i, 4, i)
        m.cpu.regs["ebx"] = DATA
        for _ in range(6):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        entries_before = m.cpu.jit_stats()["entries"]
        prof = m.obs.profiler
        prof.enable()
        before = m.account.snapshot()
        m.cpu.call_function(loaded.symbol("f"), [], stack_top=STACK_TOP)
        moved = m.account.delta_since(before)
        prof.disable()
        assert m.cpu.jit_stats()["entries"] == entries_before
        assert prof.category_totals() == {
            c: n for c, n in moved.items() if n}

    def test_cycle_scale_change_recompiles_not_reuses(self):
        # superblocks bake pre-scaled per-charge constants; a scale
        # change must not reuse them
        outs = []
        for jit in (False, True):
            m, space = make_machine(jit=jit)
            loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
            for i in range(16):
                space.write(DATA + 4 * i, 4, i)
            m.cpu.regs["ebx"] = DATA
            for _ in range(6):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            m.cpu.cycle_scale = 0.5
            before = m.account.snapshot()
            r = m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append((r, m.account.delta_since(before)))
        assert outs[0] == outs[1]

    def test_loop_defers_again_after_a_superblock(self, monkeypatch):
        # the loop head compiles in the first call. In the second, the
        # trace side-exits to ``cold``, dispatched for the second time
        # (threshold 3), so it runs as a run that must defer again: the
        # three addl and the ret owe ``alu``, the ret's pop a RAM hit,
        # all settled in one charge at loop exit
        src = """
.globl f
f: movl $0, %eax
   movl $0, %ecx
loop:
   addl $1, %eax
   incl %ecx
   cmpl $8, %ecx
   jne loop
   cmpl $0, %eax
   jne cold
   ret
cold:
   addl $2, %eax
   addl $3, %eax
   addl $4, %eax
   ret
"""
        m, _ = make_machine(jit=True, threshold=3)
        loaded = m.load_linked_program(assemble(src), BASE)
        f = loaded.symbol("f")
        m.cpu.call_function(f, [], stack_top=STACK_TOP)
        assert m.cpu.jit_stats()["entries"] == 1
        calls = []
        real = CycleAccount.charge

        def counting(self, category, cycles):
            calls.append((category, cycles))
            real(self, category, cycles)
        monkeypatch.setattr(CycleAccount, "charge", counting)
        assert not m.account.shadowed
        assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 8 + 9
        assert m.cpu.jit_stats()["entries"] == 2
        assert calls[-2:] == [("dom0", 8), ("dom0", 4 + 6)]


class TestInstrumentHooks:
    """ISSUE 8 satellite: hooks registered after warm-up must fire."""

    SRC = ".globl f\nf: movl $5, %eax\naddl $1, %eax\nret"

    @pytest.mark.parametrize("jit", [False, True])
    def test_hook_added_on_warm_code_fires(self, jit):
        m, _ = make_machine(jit=jit)
        loaded = m.load_linked_program(assemble(self.SRC), BASE)
        for _ in range(6):                        # warm: handlers cached
            assert m.cpu.call_function(loaded.symbol("f"), [],
                                       stack_top=STACK_TOP) == 6
        hits = []
        loaded.instrument[1] = lambda cpu: hits.append(cpu.eip)
        for _ in range(4):
            assert m.cpu.call_function(loaded.symbol("f"), [],
                                       stack_top=STACK_TOP) == 6
        assert len(hits) == 4

    @pytest.mark.parametrize("jit", [False, True])
    def test_hook_removal_stops_firing(self, jit):
        m, _ = make_machine(jit=jit)
        loaded = m.load_linked_program(assemble(self.SRC), BASE)
        hits = []
        loaded.instrument[1] = lambda cpu: hits.append(cpu.eip)
        for _ in range(6):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert len(hits) == 6
        del loaded.instrument[1]
        for _ in range(4):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert len(hits) == 6

    def test_hook_change_invalidates_superblocks(self):
        m, space = make_machine(jit=True)
        loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
        for i in range(16):
            space.write(DATA + 4 * i, 4, i)
        m.cpu.regs["ebx"] = DATA
        for _ in range(6):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert m.cpu.jit_stats()["superblocks"] >= 1
        loaded.instrument[2] = lambda cpu: None
        assert m.cpu.jit_stats()["superblocks"] == 0

    def test_hook_does_not_perturb_cycles(self):
        outs = []
        for jit in (False, True):
            m, _ = make_machine(jit=jit)
            loaded = m.load_linked_program(assemble(self.SRC), BASE)
            for _ in range(6):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            loaded.instrument[1] = lambda cpu: None
            before = m.account.snapshot()
            for _ in range(4):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append(m.account.delta_since(before))
        assert outs[0] == outs[1]


class TestReloadInvalidation:
    """The loop's cached program and superblocks across recovery
    reload (unregister + reload at the same base)."""

    V1 = ".globl f\nf: call swap\nmovl $1, %eax\nret"
    V2 = ".globl f\nf: call swap\nmovl $2, %eax\nret"

    @pytest.mark.parametrize("jit", [False, True])
    def test_mid_run_reload_executes_new_program(self, jit):
        m, _ = make_machine(jit=jit)
        state = {"armed": False}

        def swap(cpu):
            if not state["armed"]:
                return None
            state["armed"] = False
            m.code.unregister(state["loaded"])
            state["loaded"] = m.load_program(
                assemble(self.V2), BASE,
                extern={"swap": m.natives.address_of("swap")})
            return None

        m.register_native("swap", swap)
        state["loaded"] = m.load_program(
            assemble(self.V1), BASE,
            extern={"swap": m.natives.address_of("swap")})
        f = state["loaded"].symbol("f")
        for _ in range(6):                        # warm the v1 binary
            assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 1
        state["armed"] = True
        # the reload happens *inside* this call: the very next fetch
        # after the native returns must execute v2's instructions
        assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 2
        assert m.cpu.call_function(f, [], stack_top=STACK_TOP) == 2

    def test_reregister_resets_superblocks(self):
        m, space = make_machine(jit=True)
        loaded = m.load_linked_program(assemble(LOOP_SRC), BASE)
        for i in range(16):
            space.write(DATA + 4 * i, 4, i)
        m.cpu.regs["ebx"] = DATA
        for _ in range(6):
            m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert m.cpu.jit_stats()["superblocks"] >= 1
        # recovery re-verification reloads the same binary: epoch bumps
        m.code.unregister(loaded)
        m.code.register(loaded)
        before = m.account.snapshot()
        r = m.cpu.call_function(loaded.symbol("f"), [],
                                stack_top=STACK_TOP)
        assert r == 2 * sum(range(16))
        # the stale superblocks were dropped, then the head re-promoted
        # against the new epoch
        m2, space2 = make_machine(jit=False)
        loaded2 = m2.load_linked_program(assemble(LOOP_SRC), BASE)
        for i in range(16):
            space2.write(DATA + 4 * i, 4, i)
        m2.cpu.regs["ebx"] = DATA
        for _ in range(6):
            m2.cpu.call_function(loaded2.symbol("f"), [],
                                 stack_top=STACK_TOP)
        before2 = m2.account.snapshot()
        m2.cpu.call_function(loaded2.symbol("f"), [], stack_top=STACK_TOP)
        assert m.account.delta_since(before) == m2.account.delta_since(
            before2)


class TestNativesMidTrace:
    def test_native_call_inside_hot_loop(self):
        calls = []

        src = """
.globl f
f: movl $0, %eax
   movl $5, %ecx
loop:
   pushl %ecx
   call tally
   addl $4, %esp
   addl %ecx, %eax
   decl %ecx
   cmpl $0, %ecx
   jne loop
   ret
"""
        outs = []
        for jit in (False, True):
            calls.clear()
            m, _ = make_machine(jit=jit)
            m.register_native("tally",
                              lambda cpu: calls.append(
                                  cpu.read_stack_arg(0)))
            loaded = m.load_program(
                assemble(src), BASE,
                extern={"tally": m.natives.address_of("tally")})
            for _ in range(6):
                r = m.cpu.call_function(loaded.symbol("f"), [],
                                        stack_top=STACK_TOP)
            outs.append((r, list(calls), machine_state(m)))
        assert outs[0] == outs[1]
        assert outs[1][0] == sum(range(1, 6))

    def test_native_raising_mid_superblock(self):
        class Boom(Exception):
            pass

        src = """
.globl f
f: movl $0, %eax
   movl $4, %ecx
loop:
   call maybe_boom
   addl %ecx, %eax
   decl %ecx
   cmpl $0, %ecx
   jne loop
   ret
"""
        outs = []
        for jit in (False, True):
            m, _ = make_machine(jit=jit)
            armed = {"on": False}

            def maybe_boom(cpu):
                if armed["on"]:
                    raise Boom()
                return None

            m.register_native("maybe_boom", maybe_boom)
            loaded = m.load_program(
                assemble(src), BASE,
                extern={"maybe_boom": m.natives.address_of("maybe_boom")})
            for _ in range(6):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            armed["on"] = True
            with pytest.raises(Boom):
                m.cpu.call_function(loaded.symbol("f"), [],
                                    stack_top=STACK_TOP)
            outs.append(machine_state(m))
        assert outs[0] == outs[1]


class TestDriverCoverage:
    """The emitter's inline set covers the shipped drivers: a change to a
    driver, the rewriter or the emitter that would send one of their
    instructions to its handler inside a superblock fails here."""

    @staticmethod
    def _linked(program):
        """``program`` laid out with every symbol and import it names
        bound to a placeholder address, as a loader would bind them."""
        symbols = {op.symbol for instr in program.instructions
                   for op in instr.operands
                   if isinstance(op, (Imm, Mem)) and op.symbol is not None}
        return LoadedProgram(program.resolve(dict.fromkeys(symbols, 0)),
                             BASE, extern=dict.fromkeys(program.imports(), 0))

    @pytest.mark.parametrize("protect_stack", [False, True])
    @pytest.mark.parametrize("driver", ["e1000", "rtl8139"])
    def test_every_non_string_instruction_is_inlined(self, driver,
                                                     protect_stack):
        rewritten, stats = rewrite_driver(
            DRIVER_SPECS[driver].build_program(),
            protect_stack=protect_stack)
        report = verify_program(rewritten, annotations=stats.annotations,
                                protect_stack=protect_stack)
        elided, _ = apply_elision(rewritten, report.proofs)
        cpu = Machine().cpu
        delegated = []

        class Census(_Emitter):
            def delegate(self, index, next_addr, next_index):
                delegated.append(index)
                return next_index

        for binary in (rewritten, elided):
            loaded = self._linked(binary)
            instrs = binary.instructions
            ended = []
            delegated.clear()
            for index in range(len(instrs)):
                try:
                    Census(cpu, loaded, index).emit_instruction(index)
                except _Unsupported:
                    ended.append(index)
            # only an indirect call ends a trace, and only the string ops
            # (the drivers have some) run their handlers
            assert all(instrs[i].indirect for i in ended)
            assert delegated == [i for i, instr in enumerate(instrs)
                                 if instr.is_string]
            assert delegated


class TestFusedCheckCoverage:
    """The interpreter fuses the shipped drivers' stlb checks: runs built
    from every instruction of a rewritten (or elided) driver hold one
    fused entry per figure-4 check, that is per ``memory``/``indirect``
    site the rewriter annotated and not elided, and fuse nothing else.
    The matcher goes by the instructions' shape alone, so a change to
    ``_emit_svm_sequence`` that loses the shape fails here."""

    @staticmethod
    def _fused(program):
        """Indices of the ``lea`` of every check ``_run_for`` fuses in
        ``program``, with runs built from every instruction."""
        loaded = TestDriverCoverage._linked(program)
        for index in range(len(program.instructions)):
            _run_for(loaded, index)
        return sorted(i for i, check in loaded.checks.items()
                      if check is not None)

    @pytest.mark.parametrize("protect_stack", [False, True])
    @pytest.mark.parametrize("driver", ["e1000", "rtl8139"])
    def test_one_fused_check_per_site(self, driver, protect_stack):
        rewritten, stats = rewrite_driver(
            DRIVER_SPECS[driver].build_program(),
            protect_stack=protect_stack)
        sites = [a for a in stats.annotations
                 if a.kind in ("memory", "indirect")]
        fused = self._fused(rewritten)
        assert len(fused) == len(sites)
        for site in sites:
            assert sum(site.start <= i < site.end for i in fused) == 1

        report = verify_program(rewritten, annotations=stats.annotations,
                                protect_stack=protect_stack)
        elided, elision = apply_elision(rewritten, report.proofs)
        fused = self._fused(elided)
        assert elision.sites_elided
        assert len(fused) == len(sites) - elision.sites_elided
        # each one is a check: its cmp reads the stlb
        assert all(elided.instructions[i + 6].memory_operand().symbol
                   == STLB_SYMBOL for i in fused)
