"""Instruction model and static classification tables.

Instructions carry a mnemonic (without size suffix), an operand size in
bytes, a tuple of operands, and optional prefixes (``rep``/``repe``/
``repne`` for string instructions, ``*`` indirection for call/jmp).

The classification helpers answer the questions the rewriter and the
liveness analysis need:

* which registers does this instruction read / write,
* does it touch memory through a non-stack operand,
* does it read or write the flags register,
* is it a control transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .operands import Imm, Label, Mem, Reg
from .registers import parent_register

# ---------------------------------------------------------------------------
# Mnemonic groups
# ---------------------------------------------------------------------------

#: src, dst two-operand ALU instructions that write flags and dst.
ALU2 = {"add", "sub", "and", "or", "xor", "imul"}
#: two-operand instructions that write flags only.
CMP2 = {"cmp", "test"}
#: shifts: count (imm or %cl), dst.
SHIFTS = {"shl", "shr", "sar"}
#: single-operand read-modify-write, set flags.
ALU1 = {"inc", "dec", "neg", "not"}
#: data movement (no flags).
MOVES = {"mov", "lea", "xchg", "movzb", "movzw", "movsx"}
STACK = {"push", "pop", "pushf", "popf"}
#: conditional jumps -> flag reads.
JCC = {
    "je", "jne", "jz", "jnz", "jl", "jle", "jg", "jge",
    "jb", "jbe", "ja", "jae", "js", "jns",
}
FLOW = {"jmp", "call", "ret"} | JCC
STRING = {"movs", "stos", "lods", "cmps", "scas"}
MISC = {"nop", "int3", "ud2", "hlt", "cld", "std", "sti", "cli"}

ALL_MNEMONICS = ALU2 | CMP2 | SHIFTS | ALU1 | MOVES | STACK | FLOW | STRING | MISC

#: Instructions whose execution writes the flags register.
WRITES_FLAGS = ALU2 | CMP2 | SHIFTS | ALU1 | {"popf", "cmps", "scas", "cld", "std"}
#: Instructions whose semantics read the flags register.
READS_FLAGS = JCC | {"pushf"}

#: Implicit register usage of string instructions (per ia32).
STRING_IMPLICIT_READS = {
    "movs": ("esi", "edi"),
    "stos": ("edi", "eax"),
    "lods": ("esi",),
    "cmps": ("esi", "edi"),
    "scas": ("edi", "eax"),
}
STRING_IMPLICIT_WRITES = {
    "movs": ("esi", "edi"),
    "stos": ("edi",),
    "lods": ("esi", "eax"),
    "cmps": ("esi", "edi"),
    "scas": ("edi",),
}


@dataclass(frozen=True)
class Instruction:
    """One assembled instruction.

    ``size`` is the operand width in bytes (1, 2 or 4, from the AT&T
    suffix). ``prefix`` is one of ``None``/``"rep"``/``"repe"``/``"repne"``.
    ``indirect`` marks ``call *``/``jmp *`` forms.
    """

    mnemonic: str
    operands: tuple = ()
    size: int = 4
    prefix: Optional[str] = None
    indirect: bool = False
    line: int = 0

    def __post_init__(self):
        if self.mnemonic not in ALL_MNEMONICS:
            raise ValueError(f"unknown mnemonic {self.mnemonic!r}")
        if self.size not in (1, 2, 4):
            raise ValueError(f"bad operand size {self.size!r}")

    # -- operand helpers ----------------------------------------------------

    @property
    def src(self):
        return self.operands[0] if self.operands else None

    @property
    def dst(self):
        return self.operands[-1] if self.operands else None

    def memory_operand(self) -> Optional[Mem]:
        """The (single) explicit memory operand, if any."""
        for op in self.operands:
            if isinstance(op, Mem):
                return op
        return None

    @property
    def is_string(self) -> bool:
        return self.mnemonic in STRING

    @property
    def is_call(self) -> bool:
        return self.mnemonic == "call"

    @property
    def is_jump(self) -> bool:
        return self.mnemonic == "jmp" or self.mnemonic in JCC

    @property
    def is_conditional(self) -> bool:
        return self.mnemonic in JCC

    @property
    def is_return(self) -> bool:
        return self.mnemonic == "ret"

    @property
    def is_control_flow(self) -> bool:
        return self.mnemonic in FLOW

    @property
    def writes_flags(self) -> bool:
        return self.mnemonic in WRITES_FLAGS

    @property
    def reads_flags(self) -> bool:
        if self.mnemonic in READS_FLAGS:
            return True
        # A repe/repne prefix terminates on flag state set by the string op
        # itself, not on incoming flags, so it does not *read* flags.
        return False

    # -- register usage -----------------------------------------------------

    def registers_read(self) -> frozenset:
        """Registers whose incoming value this instruction may consume."""
        read = set()
        if self.is_string:
            read.update(STRING_IMPLICIT_READS[self.mnemonic])
            if self.prefix is not None:
                read.add("ecx")
            return frozenset(read)
        mem = self.memory_operand()
        if mem is not None:
            read.update(mem.registers())
        if self.mnemonic in ("push", "call", "jmp") or self.mnemonic in JCC:
            if isinstance(self.src, Reg):
                read.add(self.src.parent)
            if self.mnemonic in ("push", "call", "jmp"):
                read.add("esp") if self.mnemonic in ("push", "call") else None
        elif self.mnemonic == "pop":
            read.add("esp")
        elif self.mnemonic in ("pushf", "popf", "ret"):
            read.add("esp")
        elif self.mnemonic == "lea":
            pass  # address registers were added via mem.registers()
        elif self.mnemonic in ("mov", "movzb", "movzw", "movsx"):
            if isinstance(self.src, Reg):
                read.add(self.src.parent)
            # mov to a sub-register preserves the rest of the parent, and a
            # 1/2-byte store reads only part of the source: treat the
            # destination parent as read for partial-width writes.
            if isinstance(self.dst, Reg) and self.size < 4:
                read.add(self.dst.parent)
        elif self.mnemonic == "xchg":
            for op in self.operands:
                if isinstance(op, Reg):
                    read.add(op.parent)
        elif self.mnemonic in ALU2 | CMP2:
            for op in self.operands:
                if isinstance(op, Reg):
                    read.add(op.parent)
        elif self.mnemonic in SHIFTS:
            if isinstance(self.src, Reg):
                read.add(self.src.parent)  # %cl count
            if isinstance(self.dst, Reg):
                read.add(self.dst.parent)
        elif self.mnemonic in ALU1:
            if isinstance(self.dst, Reg):
                read.add(self.dst.parent)
        return frozenset(read)

    def registers_written(self) -> frozenset:
        """Registers this instruction overwrites (fully or partially)."""
        written = set()
        if self.is_string:
            written.update(STRING_IMPLICIT_WRITES[self.mnemonic])
            if self.prefix is not None:
                written.add("ecx")
            return frozenset(written)
        if self.mnemonic in ("push", "pop", "pushf", "popf", "call", "ret"):
            written.add("esp")
            if self.mnemonic == "pop" and isinstance(self.dst, Reg):
                written.add(self.dst.parent)
            if self.mnemonic == "call":
                # toy ABI: a call may clobber the caller-saved registers
                written.update(("eax", "ecx", "edx"))
            return frozenset(written)
        if self.mnemonic in ("mov", "lea", "movzb", "movzw", "movsx") or (
            self.mnemonic in ALU2 | SHIFTS | ALU1
        ):
            if isinstance(self.dst, Reg):
                written.add(self.dst.parent)
        elif self.mnemonic == "xchg":
            for op in self.operands:
                if isinstance(op, Reg):
                    written.add(op.parent)
        return frozenset(written)

    # -- memory classification ----------------------------------------------

    def memory_access_kind(self) -> Optional[str]:
        """How this instruction touches its explicit memory operand.

        Returns ``None`` (no access), ``"read"``, ``"write"`` or ``"rw"``.
        ``lea`` computes an address without touching memory, so it returns
        ``None`` — the paper's rewriter likewise leaves ``lea`` alone.
        """
        if self.is_string:
            return "rw"  # handled specially by the rewriter
        mem = self.memory_operand()
        if mem is None or self.mnemonic == "lea":
            return None
        if self.mnemonic in ("mov", "movzb", "movzw", "movsx"):
            return "write" if mem is self.dst else "read"
        if self.mnemonic in CMP2:
            return "read"
        if self.mnemonic in ("push",):
            return "read"
        if self.mnemonic in ("pop",):
            return "write"
        if self.mnemonic in ALU2 | SHIFTS:
            return "rw" if mem is self.dst else "read"
        if self.mnemonic in ALU1:
            return "rw"
        if self.mnemonic in ("call", "jmp"):
            return "read"  # indirect through memory
        if self.mnemonic == "xchg":
            return "rw"
        return None

    # -- formatting ----------------------------------------------------------

    def format(self) -> str:
        suffix = {1: "b", 2: "w", 4: "l"}[self.size]
        name = self.mnemonic
        if name in ("nop", "ret", "int3", "ud2", "hlt", "pushf", "popf",
                    "cld", "std", "sti", "cli") or name in FLOW and name != "call":
            text = name
        elif name in STRING:
            text = name + suffix
        elif name in ("movzb", "movzw"):
            text = name
        else:
            text = name + suffix
        if name == "call" or name == "jmp" or name in JCC:
            text = name
        if self.prefix:
            text = f"{self.prefix} {text}"
        ops = ", ".join(
            ("*" + op.format())
            if self.indirect and i == 0 and name in ("call", "jmp")
            else op.format()
            for i, op in enumerate(self.operands)
        )
        return f"{text} {ops}".strip()

    def replaced(self, **kw) -> "Instruction":
        return replace(self, **kw)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.format()
