"""Register liveness analysis.

Paper §4.1, footnote 3: *"we avoid the cost of spilling registers most of
the time by doing a register liveness analysis to determine the set of
free registers available at each instruction."* This module is that
analysis: a standard backward may-analysis over the CFG.

Conservatism rules (soundness over precision — a wrongly-"free" register
would corrupt driver state, a wrongly-"live" one only costs a spill):

* at a ``ret``, the return value (eax) and all callee-saved registers are
  assumed live;
* across a ``call``, callee-saved registers and any argument registers are
  kept live via the call's read set plus callee-saved forced live-through;
* indirect control flow falls back to "everything live".

The condition codes are tracked as one more name, :data:`FLAGS`: read
where an instruction ``reads_flags``, killed where it ``writes_flags``.
The rewriter asks it whether a sequence must save them with
``pushf``/``popf``, and the verifier's clobber pass re-asks it on the
rewritten binary. Unlike the registers, the flags are never assumed live
after an indirect jump or a fall-off, nor at a ``ret``: they come only
from the CFG's successor edges (after an indirect jump, every label).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from .cfg import ControlFlowGraph
from .program import Program
from .registers import ALLOCATABLE, CALLEE_SAVED, GPRS

ALL_REGS = frozenset(GPRS)
#: the condition codes' name in the live sets
FLAGS = "flags"
_FLAGS = frozenset((FLAGS,))
_RET_LIVE = frozenset(("eax",)) | frozenset(CALLEE_SAVED) | frozenset(("esp", "ebp"))


class LivenessAnalysis:
    """Computes live-in sets per instruction index for a program."""

    def __init__(self, program: Program):
        self.program = program
        self.cfg = ControlFlowGraph(program)
        self.live_in: List[FrozenSet[str]] = [frozenset()] * len(program)
        self.live_out: List[FrozenSet[str]] = [frozenset()] * len(program)
        self._solve()

    def _transfer(self, index: int, live_out: FrozenSet[str]) -> FrozenSet[str]:
        instr = self.program.instructions[index]
        if instr.is_return:
            live_out = live_out | _RET_LIVE
        reads = instr.registers_read()
        writes = instr.registers_written()
        if instr.reads_flags:
            reads = reads | _FLAGS
        if instr.writes_flags:
            writes = writes | _FLAGS
        if instr.is_call:
            # Callee-saved registers survive the call; treat them as read so
            # they stay live through it, and keep esp live always.
            reads = reads | (live_out & frozenset(CALLEE_SAVED))
            reads = reads | frozenset(("esp",))
        live_in = (live_out - writes) | reads
        return live_in

    def _block_live_out(self, block_start: int,
                        block_live_in: Dict[int, FrozenSet[str]]) -> FrozenSet[str]:
        block = self.cfg.blocks[block_start]
        last = self.program.instructions[block.end - 1]
        out: FrozenSet[str] = frozenset()
        for succ in block.successors:
            out |= block_live_in.get(succ, frozenset())
        if block.unknown_successors \
                or (not block.successors and not last.is_return):
            # Targets unknown (conservative CFG), or falls off the end of
            # the program (e.g. into another function's label in the same
            # unit): assume every register live; the flags still come
            # only from the successor edges.
            out = ALL_REGS | (out & _FLAGS)
        return out

    def _solve(self):
        program = self.program
        if not program.instructions:
            return
        block_live_in: Dict[int, FrozenSet[str]] = {
            start: frozenset() for start in self.cfg.blocks
        }
        changed = True
        order = self.cfg.reverse_postorder()
        while changed:
            changed = False
            for start in reversed(order):
                block = self.cfg.blocks[start]
                live = self._block_live_out(start, block_live_in)
                for index in reversed(range(block.start, block.end)):
                    live = self._transfer(index, live)
                if live != block_live_in[start]:
                    block_live_in[start] = live
                    changed = True
        # Final pass: record per-instruction sets.
        for start, block in self.cfg.blocks.items():
            live = self._block_live_out(start, block_live_in)
            for index in reversed(range(block.start, block.end)):
                self.live_out[index] = live
                live = self._transfer(index, live)
                self.live_in[index] = live

    # -- rewriter interface -------------------------------------------------------

    def free_registers_at(self, index: int) -> tuple:
        """Allocatable registers that are dead at ``index`` and not used by
        the instruction itself — safe SVM scratch registers."""
        instr = self.program.instructions[index]
        busy = (
            self.live_in[index]
            | self.live_out[index]
            | instr.registers_read()
            | instr.registers_written()
        )
        return tuple(r for r in ALLOCATABLE if r not in busy)
