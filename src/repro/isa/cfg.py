"""Control-flow graph construction over a :class:`Program`.

The rewriter's register-liveness analysis (paper §4.1, footnote 3) needs a
CFG. Block leaders are: instruction 0, every label target, every direct
branch target, and every instruction following a control transfer.

Indirect jumps are treated conservatively: the block's successor list is
*all label targets*, and the block is additionally marked with
``unknown_successors=True`` so downstream analyses (liveness, the static
verifier) can distinguish a *conservative* CFG (the successor list is an
over-approximation forced by an indirect jump) from a *complete* one (the
successor list is exact). Indirect calls fall through like direct calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from .instructions import Instruction
from .operands import Label
from .program import Program


@dataclass
class BasicBlock:
    """Half-open instruction range [start, end) with CFG edges."""

    start: int                    # first instruction index
    end: int                      # one past the last instruction index
    successors: List[int] = field(default_factory=list)   # block start indices
    predecessors: List[int] = field(default_factory=list)
    #: True when the block ends in an indirect jump: ``successors`` is then
    #: the conservative over-approximation "every label target", not an
    #: exact edge list. Analyses that need exactness (e.g. the static
    #: verifier's stack tracking) must treat such blocks specially.
    unknown_successors: bool = False


class ControlFlowGraph:
    """Basic blocks keyed by their start instruction index."""

    def __init__(self, program: Program):
        self.program = program
        self.blocks: Dict[int, BasicBlock] = {}
        self._build()

    # -- construction ---------------------------------------------------------

    def _leaders(self) -> Set[int]:
        program = self.program
        n = len(program.instructions)
        leaders = {0} if n else set()
        for index in program.labels.values():
            if index < n:
                leaders.add(index)
        for i, instr in enumerate(program.instructions):
            if instr.is_jump or instr.is_return:
                if i + 1 < n:
                    leaders.add(i + 1)
                target = self._direct_target(instr)
                if target is not None and target < n:
                    leaders.add(target)
        return leaders

    def _direct_target(self, instr: Instruction):
        if instr.is_jump and not instr.indirect and instr.operands:
            op = instr.operands[0]
            if isinstance(op, Label):
                return self.program.labels.get(op.name)
        return None

    def _build(self):
        program = self.program
        n = len(program.instructions)
        if n == 0:
            return
        leaders = sorted(self._leaders())
        for i, start in enumerate(leaders):
            end = leaders[i + 1] if i + 1 < len(leaders) else n
            self.blocks[start] = BasicBlock(start=start, end=end)

        all_label_blocks = sorted(
            {index for index in program.labels.values() if index < n}
        )
        for block in self.blocks.values():
            last = program.instructions[block.end - 1]
            succs: List[int] = []
            if last.is_return:
                pass
            elif last.mnemonic == "jmp":
                if last.indirect:
                    succs.extend(all_label_blocks)  # conservative
                    block.unknown_successors = True
                else:
                    target = self._direct_target(last)
                    if target is not None and target < n:
                        succs.append(target)
            elif last.is_conditional:
                target = self._direct_target(last)
                if target is not None and target < n:
                    succs.append(target)
                if block.end < n:
                    succs.append(block.end)
            else:
                if block.end < n:
                    succs.append(block.end)
            block.successors = sorted(set(succs))
        for block in self.blocks.values():
            for succ in block.successors:
                self.blocks[succ].predecessors.append(block.start)

    # -- queries ----------------------------------------------------------------

    def reachable_from(self, entries) -> Set[int]:
        """Block start indices reachable from the given entry *instruction*
        indices (each is mapped to its containing block; indices outside the
        program are ignored). Used by forward dataflow solvers to seed their
        worklists and to distinguish dead blocks, which need pessimistic
        treatment, from analyzed ones."""
        n = len(self.program.instructions)
        seen: Set[int] = set()
        stack: List[int] = []
        for index in entries:
            if 0 <= index < n:
                start = self.block_of(index).start
                if start not in seen:
                    seen.add(start)
                    stack.append(start)
        while stack:
            node = stack.pop()
            for succ in self.blocks[node].successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def block_of(self, index: int) -> BasicBlock:
        starts = sorted(self.blocks)
        lo, hi = 0, len(starts) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            block = self.blocks[starts[mid]]
            if block.start <= index < block.end:
                return block
            if index < block.start:
                hi = mid - 1
            else:
                lo = mid + 1
        raise KeyError(f"no block containing instruction {index}")

    def reverse_postorder(self) -> List[int]:
        seen: Set[int] = set()
        order: List[int] = []

        def visit(start: int):
            stack = [(start, iter(self.blocks[start].successors))]
            seen.add(start)
            while stack:
                node, succs = stack[-1]
                advanced = False
                for succ in succs:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        for start in sorted(self.blocks):
            if start not in seen:
                visit(start)
        order.reverse()
        return order
