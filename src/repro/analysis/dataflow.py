"""A generic forward dataflow / abstract-interpretation solver.

One worklist solver over the existing
:class:`~repro.isa.cfg.ControlFlowGraph`. Its one client is the value
tracking in :mod:`repro.analysis.absint`, which is also where the
verifier learns which registers hold translated pointers. The backward
facts (register and condition-code liveness) come from
:class:`~repro.isa.liveness.LivenessAnalysis`, and the verifier's stack
and lock passes walk each function directly.

The solver is parameterized over the abstract domain:

* ``entry_state(block_start)`` — the state seeded at each entry block.
  Function entries are *re-seeded*, never joined into: a call does not
  flow the caller's state into the callee (the toy ABI's caller-saved
  contract is modelled inside the client's ``transfer`` instead), and an
  entry's seed must therefore already over-approximate every possible
  entry context.
* ``transfer(index, state)`` — one instruction's effect.
* ``join(a, b)`` — least upper bound (or meet, for must-analyses; the
  solver is agnostic as long as the operation is monotone and the chain
  is finite or ``widen`` is supplied).
* ``widen(old, new)`` — optional; applied at a block once more than
  ``max_joins`` state-changing joins have landed on it, to force loops
  with infinite ascending chains (interval bounds) to converge.

Blocks the entry set cannot reach get no state at all: the returned
per-instruction list holds ``None`` there, and clients must treat such
code pessimistically (it is still mappable and may be reached through a
translated function pointer the CFG cannot see).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from ..isa.cfg import ControlFlowGraph
from ..isa.program import Program


def solve_forward(program: Program,
                  *,
                  entries,
                  entry_state: Callable,
                  transfer: Callable,
                  join: Callable,
                  widen: Optional[Callable] = None,
                  cfg: Optional[ControlFlowGraph] = None,
                  max_joins: int = 4) -> List:
    """Run a forward analysis to fixpoint; return one *in*-state per
    instruction (``None`` for instructions no entry reaches).

    ``entries`` is an iterable of entry instruction indices; instruction 0
    is always included (the program's fall-in point). Entry blocks keep
    their seeded state: edges into them are not joined (see module doc).
    """
    n = len(program.instructions)
    if n == 0:
        return []
    cfg = cfg or ControlFlowGraph(program)
    entry_blocks = {index for index in entries if 0 <= index < n}
    entry_blocks.add(0)
    entry_blocks &= set(cfg.blocks)
    reachable = cfg.reachable_from(entry_blocks)

    block_in = {start: None for start in cfg.blocks}
    for start in entry_blocks:
        block_in[start] = entry_state(start)
    joins = {start: 0 for start in cfg.blocks}

    work = deque(sorted(entry_blocks))
    queued = set(work)
    while work:
        start = work.popleft()
        queued.discard(start)
        state = block_in[start]
        if state is None:
            continue
        block = cfg.blocks[start]
        for i in range(block.start, block.end):
            state = transfer(i, state)
        for succ in block.successors:
            if succ in entry_blocks:
                continue
            old = block_in[succ]
            if old is None:
                new = state
            else:
                new = join(old, state)
                if new == old:
                    continue
                joins[succ] += 1
                if widen is not None and joins[succ] > max_joins:
                    new = widen(old, new)
                    if new == old:
                        continue
            block_in[succ] = new
            if succ not in queued:
                queued.add(succ)
                work.append(succ)

    states: List = [None] * n
    for start, block in cfg.blocks.items():
        if start not in reachable:
            continue
        state = block_in[start]
        if state is None:
            continue
        for i in range(block.start, block.end):
            states[i] = state
            state = transfer(i, state)
    return states
