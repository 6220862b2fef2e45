"""Program container: an assembled unit of instructions plus symbol tables.

A :class:`Program` is the unit the rewriter transforms and the loaders lay
out in memory. It deliberately mirrors what an object file gives a binary
rewriting tool:

* ``instructions`` — the instruction stream,
* ``labels`` — name -> instruction index (functions and local labels),
* ``globals_`` — exported function symbols,
* ``comm`` — BSS-style data symbols (name -> size) the loader must allocate,
* ``imports`` — function symbols the loader must bind (support routines).

Symbolic operands (``Mem.symbol`` / ``Imm.symbol``) referring to data or
code are resolved at load time via :meth:`resolve`, which returns a new
program with displacements folded — the analogue of relocation processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from .instructions import Instruction
from .operands import Imm, Label, Mem


@dataclass
class Program:
    """An assembled unit: instructions, labels, globals, BSS symbols."""

    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    globals_: tuple = ()
    comm: Dict[str, int] = field(default_factory=dict)
    name: str = "program"

    def __post_init__(self):
        self._validate_labels()

    def _validate_labels(self):
        for label, index in self.labels.items():
            if not 0 <= index <= len(self.instructions):
                raise ValueError(f"label {label!r} out of range")

    # -- symbol queries -------------------------------------------------------

    def defined_symbols(self) -> frozenset:
        return frozenset(self.labels) | frozenset(self.comm)

    def imports(self) -> frozenset:
        """Function symbols referenced by call/jmp but not defined here."""
        defined = self.defined_symbols()
        needed = set()
        for instr in self.instructions:
            for op in instr.operands:
                if isinstance(op, Label) and op.name not in defined:
                    needed.add(op.name)
        return frozenset(needed)

    # -- transformations ------------------------------------------------------

    def resolve(self, symbols: Dict[str, int]) -> "Program":
        """Return a copy with symbolic displacements/immediates folded.

        ``symbols`` maps data/code symbol names to absolute addresses.
        Unknown symbols are left symbolic (they may be resolved by a later
        pass; the loader raises if any remain at execution time).
        """
        new_instrs = []
        for instr in self.instructions:
            ops = []
            changed = False
            for op in instr.operands:
                if isinstance(op, Mem) and op.symbol in symbols:
                    ops.append(op.with_symbol_resolved(symbols[op.symbol]))
                    changed = True
                elif isinstance(op, Imm) and op.symbol in symbols:
                    ops.append(Imm(op.value + symbols[op.symbol]))
                    changed = True
                else:
                    ops.append(op)
            new_instrs.append(
                instr.replaced(operands=tuple(ops)) if changed else instr
            )
        return Program(
            instructions=new_instrs,
            labels=dict(self.labels),
            globals_=self.globals_,
            comm=dict(self.comm),
            name=self.name,
        )

    def label_at(self, index: int) -> Optional[str]:
        for label, i in self.labels.items():
            if i == index:
                return label
        return None

    def to_text(self) -> str:
        """Regenerate assembly text (round-trips through the assembler)."""
        lines = []
        for sym in self.globals_:
            lines.append(f".globl {sym}")
        for sym, size in self.comm.items():
            lines.append(f".comm {sym}, {size}")
        by_index: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        for i, instr in enumerate(self.instructions):
            for label in sorted(by_index.get(i, ())):
                lines.append(f"{label}:")
            lines.append(f"    {instr.format()}")
        for label in sorted(by_index.get(len(self.instructions), ())):
            lines.append(f"{label}:")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.instructions)
