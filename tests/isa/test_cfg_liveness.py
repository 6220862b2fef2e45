"""Control-flow graph construction and register liveness analysis,
checked against a set-based round-robin reference solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_negative_corpus
from repro.analysis.patterns import is_spill_restore, is_spill_save
from repro.analysis.verifier import _SpillTransparentLiveness
from repro.core.rewriter import rewrite_driver
from repro.drivers import DRIVER_SPECS
from repro.isa import ControlFlowGraph, LivenessAnalysis, assemble
from repro.isa.liveness import FLAGS
from repro.isa.registers import GPRS


class TestCfg:
    def test_straight_line_single_block(self):
        p = assemble("movl $1, %eax\naddl $2, %eax\nret")
        cfg = ControlFlowGraph(p)
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].end == 3

    def test_branch_splits_blocks(self):
        p = assemble("""
            cmpl $0, %eax
            je skip
            incl %ebx
        skip:
            ret
        """)
        cfg = ControlFlowGraph(p)
        assert sorted(cfg.blocks) == [0, 2, 3]
        assert cfg.blocks[0].successors == [2, 3]
        assert cfg.blocks[2].successors == [3]
        assert cfg.blocks[3].successors == []

    def test_loop_back_edge(self):
        p = assemble("""
        top:
            decl %ecx
            jne top
            ret
        """)
        cfg = ControlFlowGraph(p)
        assert 0 in cfg.blocks[0].successors or 0 in cfg.blocks[
            cfg.block_of(1).start].successors

    def test_ret_has_no_successors(self):
        p = assemble("ret\nnop")
        cfg = ControlFlowGraph(p)
        assert cfg.blocks[0].successors == []

    def test_call_falls_through(self):
        # a call does not end a basic block: the ret after it is in the
        # same block, which then has no successors
        p = assemble("call f\nret\nf: ret")
        cfg = ControlFlowGraph(p)
        assert cfg.block_of(0).end == 2
        assert cfg.block_of(0).successors == []

    def test_indirect_jump_conservative(self):
        p = assemble("""
        a:  nop
            jmp *%eax
        b:  ret
        """)
        cfg = ControlFlowGraph(p)
        block = cfg.block_of(1)
        # all label targets are possible successors
        assert set(block.successors) >= {0, 2}

    def test_indirect_jump_sets_unknown_successors(self):
        p = assemble("""
        a:  nop
            jmp *%eax
        b:  ret
        """)
        cfg = ControlFlowGraph(p)
        assert cfg.block_of(1).unknown_successors
        # the flag marks the over-approximation, not ordinary blocks
        assert not cfg.block_of(2).unknown_successors

    def test_direct_control_flow_has_known_successors(self):
        p = assemble("je t\ncall f\nt: ret\nf: ret")
        cfg = ControlFlowGraph(p)
        assert not any(b.unknown_successors for b in cfg.blocks.values())

    def test_block_of_lookup(self):
        p = assemble("nop\nnop\nje t\nnop\nt: ret")
        cfg = ControlFlowGraph(p)
        assert cfg.block_of(1).start == 0
        assert cfg.block_of(3).start == 3
        with pytest.raises(KeyError):
            cfg.block_of(99)

    def test_reverse_postorder_starts_at_entry(self):
        p = assemble("je t\nnop\nt: ret")
        cfg = ControlFlowGraph(p)
        order = cfg.reverse_postorder()
        assert order[0] == 0
        assert set(order) == set(cfg.blocks)

    def test_predecessors(self):
        p = assemble("je t\nnop\nt: ret")
        cfg = ControlFlowGraph(p)
        target = cfg.block_of(2)
        assert sorted(target.predecessors) == [0, 1]


class TestLiveness:
    def test_dead_after_overwrite(self):
        p = assemble("""
            movl $1, %eax
            movl $2, %eax
            movl %eax, %ebx
            ret
        """)
        la = LivenessAnalysis(p)
        # eax written at 0 is dead (overwritten at 1 without a read)
        assert "eax" not in la.live_out[0] or "eax" in la.live_in[1]
        # between 1 and 2, eax is live
        assert "eax" in la.live_out[1]

    def test_live_through_branch(self):
        p = assemble("""
            movl $5, %ecx
            cmpl $0, %eax
            je use
            nop
        use:
            movl %ecx, %edx
            ret
        """)
        la = LivenessAnalysis(p)
        assert "ecx" in la.live_out[0]
        assert "ecx" in la.live_in[3]     # through the fallthrough block

    def test_loop_keeps_counter_live(self):
        p = assemble("""
        top:
            addl %ecx, %eax
            decl %ecx
            jne top
            ret
        """)
        la = LivenessAnalysis(p)
        assert "ecx" in la.live_in[0]
        assert "ecx" in la.live_out[2]    # back edge

    def test_free_registers_exclude_live(self):
        p = assemble("""
            movl $1, %esi
            movl (%ebx), %eax
            addl %esi, %eax
            ret
        """)
        la = LivenessAnalysis(p)
        free = la.free_registers_at(1)
        assert "esi" not in free          # live across
        assert "ebx" not in free          # used by the instruction
        assert "eax" not in free          # written by the instruction

    def test_free_registers_at_dead_point(self):
        p = assemble("""
            movl (%ebx), %eax
            ret
        """)
        la = LivenessAnalysis(p)
        free = la.free_registers_at(0)
        # ecx and edx are caller-saved, not used, dead at ret
        assert "ecx" in free
        assert "edx" in free

    def test_callee_saved_live_at_ret(self):
        p = assemble("movl $0, %eax\nret")
        la = LivenessAnalysis(p)
        # conservative: callee-saved registers must survive to ret
        assert "ebx" in la.live_out[0]
        assert "esi" in la.live_out[0]

    def test_call_keeps_callee_saved_live_through(self):
        p = assemble("""
            movl $1, %ebx
            call helper
            movl %ebx, %eax
            ret
        """)
        la = LivenessAnalysis(p)
        assert "ebx" in la.live_in[1]

    def test_indirect_jump_all_live(self):
        p = assemble("""
        a:  nop
            jmp *%eax
        b:  ret
        """)
        la = LivenessAnalysis(p)
        assert la.free_registers_at(0) == ()

    def test_mem_base_register_not_free(self):
        p = assemble("movl %eax, 8(%edi)\nret")
        la = LivenessAnalysis(p)
        assert "edi" not in la.free_registers_at(0)
        assert "eax" not in la.free_registers_at(0)


# ---------------------------------------------------------------------------
# reference: the set-based round-robin solver the mask solver replaced
# ---------------------------------------------------------------------------

_RET_LIVE = frozenset(("eax", "ebx", "esi", "edi", "ebp", "esp"))
_CALLEE_SAVED = frozenset(("ebx", "esi", "edi", "ebp"))
_FLAGS = frozenset((FLAGS,))


def _reference_transfer(instr, live_out):
    if instr.is_return:
        live_out = live_out | _RET_LIVE
    reads = instr.registers_read()
    writes = instr.registers_written()
    if instr.reads_flags:
        reads = reads | _FLAGS
    if instr.writes_flags:
        writes = writes | _FLAGS
    if instr.is_call:
        reads = reads | (live_out & _CALLEE_SAVED) | frozenset(("esp",))
    return (live_out - writes) | reads


def _spill_transparent_transfer(instr, live_out):
    if is_spill_save(instr) or is_spill_restore(instr):
        return live_out
    return _reference_transfer(instr, live_out)


def reference_liveness(program, transfer=_reference_transfer):
    """Per-instruction (live_in, live_out) by round-robin passes over
    every block in reverse postorder until nothing changes."""
    cfg = ControlFlowGraph(program)
    ins = program.instructions
    n = len(ins)
    live_in, live_out = [frozenset()] * n, [frozenset()] * n
    if not n:
        return live_in, live_out
    block_in = {start: frozenset() for start in cfg.blocks}

    def block_out(start):
        block = cfg.blocks[start]
        out = frozenset()
        for succ in block.successors:
            out |= block_in[succ]
        if block.unknown_successors or (
                not block.successors and not ins[block.end - 1].is_return):
            out = frozenset(GPRS) | (out & _FLAGS)
        return out

    order = cfg.reverse_postorder()
    changed = True
    while changed:
        changed = False
        for start in reversed(order):
            block = cfg.blocks[start]
            live = block_out(start)
            for index in reversed(range(block.start, block.end)):
                live = transfer(ins[index], live)
            if live != block_in[start]:
                block_in[start] = live
                changed = True
    for start, block in cfg.blocks.items():
        live = block_out(start)
        for index in reversed(range(block.start, block.end)):
            live_out[index] = live
            live = transfer(ins[index], live)
            live_in[index] = live
    return live_in, live_out


def _assert_matches_reference(program):
    for analysis, transfer in ((LivenessAnalysis, _reference_transfer),
                               (_SpillTransparentLiveness,
                                _spill_transparent_transfer)):
        got = analysis(program)
        want_in, want_out = reference_liveness(program, transfer)
        assert got.live_in == want_in, (program.name, analysis.__name__)
        assert got.live_out == want_out, (program.name, analysis.__name__)


_GEN_REGS = ["eax", "ecx", "edx", "ebx", "esi", "edi", "ebp"]

_body_instr = st.one_of(
    st.builds("movl %{}, %{}".format,
              st.sampled_from(_GEN_REGS), st.sampled_from(_GEN_REGS)),
    st.builds("addl ${}, %{}".format, st.integers(0, 9),
              st.sampled_from(_GEN_REGS)),
    st.builds("cmpl %{}, %{}".format, st.sampled_from(_GEN_REGS),
              st.sampled_from(_GEN_REGS)),
    st.builds("movl (%{}), %{}".format, st.sampled_from(_GEN_REGS),
              st.sampled_from(_GEN_REGS)),
    st.builds("movl %{}, 4(%{})".format, st.sampled_from(_GEN_REGS),
              st.sampled_from(_GEN_REGS)),
    st.builds("pushl %{}".format, st.sampled_from(_GEN_REGS)),
    st.builds("popl %{}".format, st.sampled_from(_GEN_REGS)),
    st.builds("movl %{}, __svm_spill{}".format, st.sampled_from(_GEN_REGS),
              st.integers(0, 1)),
    st.builds("movl __svm_spill{}, %{}".format, st.integers(0, 1),
              st.sampled_from(_GEN_REGS)),
    st.sampled_from(["pushf", "popf", "rep movsb", "stosl", "nop"]),
)


def _generated_source(data) -> str:
    """Labelled blocks of random bodies, each ending in a random exit:
    a branch, a direct or indirect jump, an internal or imported call,
    ``ret``, or nothing (falling into the next block, or off the end)."""
    n = data.draw(st.integers(1, 6), label="blocks")
    lines = [".globl L0"]
    for i in range(n):
        lines.append(f"L{i}:")
        lines.extend("    " + text for text in data.draw(
            st.lists(_body_instr, max_size=5), label=f"body{i}"))
        target = data.draw(st.integers(0, n - 1), label=f"target{i}")
        exit_ = data.draw(st.sampled_from(
            ["je", "jne", "jmp", "call", "call ext", "ret", "jmp *", None]),
            label=f"exit{i}")
        if exit_ == "jmp *":
            lines.append("    jmp *%eax")
        elif exit_ == "call ext":
            lines.append("    call ext_fn")
        elif exit_ == "ret":
            lines.append("    ret")
        elif exit_ is not None:
            lines.append(f"    {exit_} L{target}")
    return "\n".join(lines) + "\n"


class TestLivenessReference:
    """The mask worklist solver gives exactly the sets of the set-based
    round-robin reference, plain and spill-transparent."""

    @pytest.mark.parametrize("driver", ["e1000", "rtl8139"])
    def test_driver_binaries(self, driver):
        program = DRIVER_SPECS[driver].build_program()
        _assert_matches_reference(program)
        for protect_stack in (False, True):
            rewritten, _ = rewrite_driver(program,
                                          protect_stack=protect_stack)
            _assert_matches_reference(rewritten)

    def test_corpus_programs(self):
        for entry in build_negative_corpus():
            _assert_matches_reference(entry.program)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_generated_programs(self, data):
        _assert_matches_reference(assemble(_generated_source(data),
                                           name="gen"))
