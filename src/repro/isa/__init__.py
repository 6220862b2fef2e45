"""Virtual 32-bit x86-like ISA: the substrate the rewriter operates on.

Public surface:

* :func:`assemble` -- AT&T-syntax text -> :class:`Program`
* :class:`Program` -- instruction stream + symbol tables
* :class:`Instruction`, operand types :class:`Imm`/:class:`Reg`/:class:`Mem`/
  :class:`Label`
* :mod:`~repro.isa.encoder` -- binary encode/decode and address layout
* :class:`ControlFlowGraph`, :class:`LivenessAnalysis` -- rewriter analyses
"""

from .assembler import Assembler, AssemblerError, assemble
from .cfg import BasicBlock, ControlFlowGraph
from .encoder import (
    code_size,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
    instruction_length,
    layout,
)
from .instructions import (
    JCC,
    READS_FLAGS,
    STRING,
    WRITES_FLAGS,
    Instruction,
)
from .liveness import LivenessAnalysis
from .operands import Imm, Label, Mem, Reg
from .program import Program
from .registers import ALLOCATABLE, CALLEE_SAVED, CALLER_SAVED, GPRS

__all__ = [
    "ALLOCATABLE",
    "Assembler",
    "AssemblerError",
    "BasicBlock",
    "CALLEE_SAVED",
    "CALLER_SAVED",
    "ControlFlowGraph",
    "GPRS",
    "Imm",
    "Instruction",
    "JCC",
    "Label",
    "LivenessAnalysis",
    "Mem",
    "Program",
    "READS_FLAGS",
    "Reg",
    "STRING",
    "WRITES_FLAGS",
    "assemble",
    "code_size",
    "decode_instruction",
    "decode_program",
    "encode_instruction",
    "encode_program",
    "instruction_length",
    "layout",
]
