"""Register liveness analysis.

Paper §4.1, footnote 3: *"we avoid the cost of spilling registers most of
the time by doing a register liveness analysis to determine the set of
free registers available at each instruction."* This module is that
analysis: a standard backward may-analysis over the CFG.

It is solved over 9-bit masks: one bit per general-purpose register, in
:data:`~repro.isa.registers.GPRS` order, and bit 8 for the condition
codes. Each instruction's effect is computed once as a *gen*/*kill* pair
of masks, ``live_in = gen | (live_out & ~kill)``, and each basic block's
instructions are composed once into one pair for the whole block. A
worklist then re-solves a block only when a successor's live-in grew,
and pushes the block's predecessors when its own live-in grows; the
result is the least fixpoint, the one round-robin passes over every
block reach too. The per-instruction results, :attr:`live_in` and
:attr:`live_out`, are frozensets of names, built once per distinct mask.
Subclasses change the analysis through :meth:`LivenessAnalysis._gen_kill`
(the verifier's clobber pass makes spill save/restore pairs transparent
that way).

Conservatism rules (soundness over precision — a wrongly-"free" register
would corrupt driver state, a wrongly-"live" one only costs a spill):

* at a ``ret``, the return value (eax), esp, ebp and all callee-saved
  registers are assumed live: they are in its gen set;
* a ``call`` kills only esp and the caller-saved registers the callee may
  clobber (eax, ecx, edx). A callee-saved register live after the call is
  therefore live before it too: the callee preserves it, so the caller's
  value flows through the call. Its gen set is its read set, esp
  included;
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

from typing import Dict, FrozenSet, List, Optional, Tuple

from .cfg import ControlFlowGraph
from .program import Program
from .registers import ALLOCATABLE, CALLEE_SAVED, GPRS

#: the condition codes' name in the live sets
FLAGS = "flags"

#: mask bit positions: the GPRs in encoding order, then the flags
_NAMES = GPRS + (FLAGS,)
_BIT = {name: 1 << i for i, name in enumerate(_NAMES)}


def _mask(names) -> int:
    mask = 0
    for name in names:
        mask |= _BIT[name]
    return mask


_FLAGS_BIT = _BIT[FLAGS]
_ALL_REGS = _mask(GPRS)
_RET_LIVE = _mask(("eax", "esp", "ebp") + CALLEE_SAVED)


class LivenessAnalysis:
    """Computes live-in/live-out sets per instruction index for a program.

    ``cfg`` may be passed in when the caller already built the program's
    graph (the verifier shares one between its passes)."""

    def __init__(self, program: Program,
                 cfg: Optional[ControlFlowGraph] = None):
        self.program = program
        self.cfg = cfg or ControlFlowGraph(program)
        self.live_in: List[FrozenSet[str]] = [frozenset()] * len(program)
        self.live_out: List[FrozenSet[str]] = [frozenset()] * len(program)
        self._solve()

    def _gen_kill(self, index: int) -> Tuple[int, int]:
        """One instruction's effect as (gen, kill) masks."""
        instr = self.program.instructions[index]
        gen = _mask(instr.registers_read())
        kill = _mask(instr.registers_written())
        if instr.reads_flags:
            gen |= _FLAGS_BIT
        if instr.writes_flags:
            kill |= _FLAGS_BIT
        if instr.is_return:
            gen |= _RET_LIVE & ~kill
        return gen, kill

    def _solve(self):
        n = len(self.program)
        if not n:
            return
        effects = [self._gen_kill(index) for index in range(n)]
        blocks = self.cfg.blocks
        instructions = self.program.instructions
        # per block: its composed (gen, kill) pair, and whether its exit
        # assumes every register live: targets unknown (conservative CFG),
        # or control falls off the end of the program (e.g. into another
        # function's label in the same unit). The flags still come only
        # from the successor edges.
        summary: Dict[int, Tuple[int, int, bool]] = {}
        for start, block in blocks.items():
            gen = kill = 0
            for index in range(block.end - 1, start - 1, -1):
                g, k = effects[index]
                gen = g | (gen & ~k)
                kill |= k
            all_live = block.unknown_successors or (
                not block.successors
                and not instructions[block.end - 1].is_return)
            summary[start] = (gen, kill, all_live)

        block_in = dict.fromkeys(blocks, 0)

        def block_out(start: int) -> int:
            out = 0
            for succ in blocks[start].successors:
                out |= block_in[succ]
            if summary[start][2]:
                out = _ALL_REGS | (out & _FLAGS_BIT)
            return out

        # popped from the end: sinks first, as a backward analysis wants
        work = self.cfg.reverse_postorder()
        queued = set(work)
        while work:
            start = work.pop()
            queued.discard(start)
            gen, kill, _ = summary[start]
            live = gen | (block_out(start) & ~kill)
            if live != block_in[start]:
                block_in[start] = live
                for pred in blocks[start].predecessors:
                    if pred not in queued:
                        queued.add(pred)
                        work.append(pred)

        # per-instruction sets, one frozenset per distinct mask
        sets: Dict[int, FrozenSet[str]] = {}

        def as_set(mask: int) -> FrozenSet[str]:
            names = sets.get(mask)
            if names is None:
                names = sets[mask] = frozenset(
                    name for name in _NAMES if mask & _BIT[name])
            return names

        for start, block in blocks.items():
            live = block_out(start)
            for index in range(block.end - 1, start - 1, -1):
                self.live_out[index] = as_set(live)
                g, k = effects[index]
                live = g | (live & ~k)
                self.live_in[index] = as_set(live)

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
