"""Binary encoder/decoder for the virtual ISA.

Programs are encodable to a compact variable-length binary object format
and decodable back (the disassembler direction). The paper's pipeline is
``driver binary -> disassemble -> rewrite -> reassemble``; ours keeps the
same shape: tests round-trip programs through these bytes, and the loaders
use the encoded lengths to lay instructions out at non-uniform addresses,
so code addresses behave like real ones.

The format is TLV-like per instruction:

* opcode byte (index into the sorted mnemonic table),
* a flags byte (size, prefix, indirection, operand count),
* per operand: a tag byte and payload. Unresolved symbols are carried as
  length-prefixed names — the analogue of relocation entries in an object
  file.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from .instructions import ALL_MNEMONICS, Instruction
from .operands import Imm, Label, Mem, Reg
from .program import Program

_OPCODES = {name: i for i, name in enumerate(sorted(ALL_MNEMONICS))}
_MNEMONICS = {i: name for name, i in _OPCODES.items()}

_REG_NAMES = (
    "eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi",
    "al", "cl", "dl", "bl", "ax", "cx", "dx", "bx", "si", "di",
)
_REG_IDS = {name: i for i, name in enumerate(_REG_NAMES)}

_SIZES = {1: 0, 2: 1, 4: 2}
_SIZES_BACK = {v: k for k, v in _SIZES.items()}
_PREFIXES = {None: 0, "rep": 1, "repe": 2, "repne": 3}
_PREFIXES_BACK = {v: k for k, v in _PREFIXES.items()}

_TAG_IMM, _TAG_REG, _TAG_MEM, _TAG_LABEL = range(4)
_SCALES = {1: 0, 2: 1, 4: 2, 8: 3}
_SCALES_BACK = {v: k for k, v in _SCALES.items()}


class EncodingError(ValueError):
    """An instruction or operand cannot be encoded/decoded."""

    pass


def _encode_name(name: str) -> bytes:
    raw = name.encode("ascii")
    if len(raw) > 255:
        raise EncodingError(f"symbol too long: {name!r}")
    return bytes([len(raw)]) + raw


def _decode_name(data: bytes, pos: int) -> Tuple[str, int]:
    n = data[pos]
    return data[pos + 1: pos + 1 + n].decode("ascii"), pos + 1 + n


def encode_instruction(instr: Instruction) -> bytes:
    out = bytearray()
    out.append(_OPCODES[instr.mnemonic])
    flags = (
        _SIZES[instr.size]
        | (1 << 2 if instr.indirect else 0)
        | (_PREFIXES[instr.prefix] << 3)
        | (len(instr.operands) << 5)
    )
    out.append(flags)
    for op in instr.operands:
        if isinstance(op, Imm):
            out.append(_TAG_IMM | (0x10 if op.symbol else 0))
            out += struct.pack("<i", op.value)
            if op.symbol:
                out += _encode_name(op.symbol)
        elif isinstance(op, Reg):
            out.append(_TAG_REG)
            out.append(_REG_IDS[op.name])
        elif isinstance(op, Mem):
            mflags = _TAG_MEM
            if op.base is not None:
                mflags |= 0x10
            if op.index is not None:
                mflags |= 0x20
            if op.symbol is not None:
                mflags |= 0x40
            out.append(mflags)
            out.append(_SCALES[op.scale])
            out += struct.pack("<i", op.disp)
            if op.base is not None:
                out.append(_REG_IDS[op.base])
            if op.index is not None:
                out.append(_REG_IDS[op.index])
            if op.symbol is not None:
                out += _encode_name(op.symbol)
        elif isinstance(op, Label):
            out.append(_TAG_LABEL)
            out += _encode_name(op.name)
        else:  # pragma: no cover - defensive
            raise EncodingError(f"cannot encode operand {op!r}")
    return bytes(out)


def decode_instruction(data: bytes, pos: int = 0) -> Tuple[Instruction, int]:
    mnemonic = _MNEMONICS[data[pos]]
    flags = data[pos + 1]
    size = _SIZES_BACK[flags & 0x3]
    indirect = bool(flags & 0x4)
    prefix = _PREFIXES_BACK[(flags >> 3) & 0x3]
    nops = flags >> 5
    pos += 2
    operands = []
    for _ in range(nops):
        tag = data[pos]
        kind = tag & 0x0F
        if kind == _TAG_IMM:
            value = struct.unpack("<i", data[pos + 1: pos + 5])[0]
            pos += 5
            symbol = None
            if tag & 0x10:
                symbol, pos = _decode_name(data, pos)
            operands.append(Imm(value=value, symbol=symbol))
        elif kind == _TAG_REG:
            operands.append(Reg(_REG_NAMES[data[pos + 1]]))
            pos += 2
        elif kind == _TAG_MEM:
            scale = _SCALES_BACK[data[pos + 1]]
            disp = struct.unpack("<i", data[pos + 2: pos + 6])[0]
            p = pos + 6
            base = index = symbol = None
            if tag & 0x10:
                base = _REG_NAMES[data[p]]
                p += 1
            if tag & 0x20:
                index = _REG_NAMES[data[p]]
                p += 1
            if tag & 0x40:
                symbol, p = _decode_name(data, p)
            pos = p
            operands.append(
                Mem(disp=disp, base=base, index=index, scale=scale,
                    symbol=symbol)
            )
        elif kind == _TAG_LABEL:
            name, pos2 = _decode_name(data, pos + 1)
            pos = pos2
            operands.append(Label(name))
        else:
            raise EncodingError(f"bad operand tag {tag:#x} at {pos}")
    instr = Instruction(
        mnemonic=mnemonic,
        operands=tuple(operands),
        size=size,
        prefix=prefix,
        indirect=indirect,
    )
    return instr, pos


def instruction_length(instr: Instruction) -> int:
    """Encoded byte length; the loaders use this for address layout."""
    return len(encode_instruction(instr))


def encode_program(program: Program) -> bytes:
    """Encode the instruction stream (symbol tables travel separately)."""
    out = bytearray()
    for instr in program.instructions:
        out += encode_instruction(instr)
    return bytes(out)


def decode_program(data: bytes, labels: Dict[str, int] | None = None,
                   name: str = "decoded") -> Program:
    instructions = []
    pos = 0
    while pos < len(data):
        instr, pos = decode_instruction(data, pos)
        instructions.append(instr)
    return Program(instructions=instructions, labels=dict(labels or {}),
                   name=name)


def layout(program: Program, base: int) -> List[int]:
    """Per-instruction addresses when the program is loaded at ``base``."""
    return layout_with_end(program, base)[0]


def layout_with_end(program: Program, base: int) -> Tuple[List[int], int]:
    """``layout`` plus the address just past the last instruction, from
    one encoding pass."""
    addrs = []
    addr = base
    for instr in program.instructions:
        addrs.append(addr)
        addr += instruction_length(instr)
    return addrs, addr


def code_size(program: Program) -> int:
    return sum(instruction_length(i) for i in program.instructions)
